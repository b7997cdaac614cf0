//! Order statistics over timing samples, and the process's peak memory.

/// A set of measured values (times in the unit the caller chose).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values in recording order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle values for an even count); 0
    /// when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The highest of the 99.9th, 99th and 90th percentiles that has at
    /// least ten samples beyond it; the maximum when fewer than 100
    /// samples exist. 0 when empty.
    pub fn tail(&self) -> f64 {
        let n = self.len() as f64;
        for q in [0.999, 0.99, 0.9] {
            if n * (1.0 - q) >= 10.0 {
                return self.quantile(q);
            }
        }
        self.quantile(1.0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

/// A rate robust to stalls: `ops` is one `(work, seconds)` pair per
/// operation; consecutive windows of `window` operations each give
/// `Σ work / Σ seconds`, and the result is their median. A trailing
/// partial window counts only when there is no full one.
pub fn windowed_rate(ops: &[(f64, f64)], window: usize) -> f64 {
    let window = window.max(1);
    let rate = |chunk: &[(f64, f64)]| {
        let (work, secs) = chunk
            .iter()
            .fold((0.0, 0.0), |(w, t), &(a, b)| (w + a, t + b));
        if secs > 0.0 {
            work / secs
        } else {
            0.0
        }
    };
    let mut rates: Samples = ops.chunks_exact(window).map(rate).collect();
    if rates.is_empty() && !ops.is_empty() {
        rates.push(rate(ops));
    }
    rates.median()
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed line {line:?}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0, 6.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.5);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 6.0);
        assert_eq!(s.tail(), 6.0);
        let mut big = Samples::new();
        for v in 1..=1000 {
            big.push(v as f64);
        }
        assert_eq!(big.tail(), 990.0);
        let ops = [(1.0, 1.0), (1.0, 1.0), (3.0, 1.0), (1.0, 1.0), (9.0, 1.0)];
        assert_eq!(windowed_rate(&ops, 2), 1.5);
        assert_eq!(windowed_rate(&ops[..1], 2), 1.0);
    }
}
