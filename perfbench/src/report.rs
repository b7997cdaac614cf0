//! Named metrics and the one-line JSON result the benchmark prints.

use crate::stats::Samples;

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one metric, replacing an earlier value of the same name.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name, value, unit)),
        }
    }

    /// Records a per-layer timing as its median (`name`), its tail
    /// (`name.tail`, see [`Samples::tail`]) and its sample count
    /// (`name.n`).
    pub fn timing(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        self.put(name, samples.median(), unit);
        self.put(format!("{name}.tail"), samples.tail(), unit);
        self.put(format!("{name}.n"), samples.len() as f64, "count");
    }

    /// Records a fixed-repetition micro timing (its count is fixed by the
    /// benchmark and stated in `README.md`) as its median and tail.
    pub fn micro_timing(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        self.put(name, samples.median(), unit);
        self.put(format!("{name}.tail"), samples.tail(), unit);
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// The unit of `name`, if recorded.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.2)
    }

    /// Recorded names, in emission order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.0.as_str())
    }
}

/// Renders `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values have no JSON form and become
/// `null`, which the result check treats as a failure.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
