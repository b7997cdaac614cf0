//! The repository benchmark: four workloads over the Datalog(≠) engine,
//! the query service, durable maintenance and the pebble-game solver.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. A run with tracing off reports the end-to-end metrics; a
//! traced run records spans around those calls, replays the recorded
//! inputs one layer down (the "layer peel") and reports the per-layer
//! metrics. See `README.md` beside this crate for the metric map.

pub mod catalogue;
pub mod durable;
pub mod fixpoint;
pub mod inputs;
pub mod pebble;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Metrics;
use stats::Samples;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// From-scratch evaluation of a fixed program set.
    FixpointBatch,
    /// Open-loop multi-tenant reads beside a churning writer.
    ServeMixed,
    /// Closed-loop durable single-edge commits, then recovery.
    MaintainDurable,
    /// Existential 3-pebble games.
    PebbleGames,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FixpointBatch,
        Workload::ServeMixed,
        Workload::MaintainDurable,
        Workload::PebbleGames,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FixpointBatch => "fixpoint_batch",
            Workload::ServeMixed => "serve_mixed",
            Workload::MaintainDurable => "maintain_durable",
            Workload::PebbleGames => "pebble_games",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's own, or small ones for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-scale inputs for the benchmark's own tests.
    Smoke,
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for durable stores and span files; removed by nobody
    /// but the caller.
    pub work_dir: PathBuf,
    /// Test hook: inverts one precomputed oracle answer so the output
    /// checks can be shown to fail.
    pub flip_oracle: bool,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (evaluations, requests, commits, solves).
    pub attempted: u64,
    /// Operations that gave a wrong answer, were rejected or
    /// interrupted, or hit a storage error.
    pub failed: u64,
    /// Whole-run checks (such as recovered state) that failed.
    pub failed_checks: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Digest of the generated inputs.
    pub input_digest: u64,
}

impl Outcome {
    /// Whether every operation and every whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty() && self.attempted > 0
    }
}

/// Runs `workload` under `settings`.
pub fn run(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    std::fs::create_dir_all(&settings.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", settings.work_dir.display()))?;
    let tracer = Tracer::new(settings.trace);
    let mut outcome = match workload {
        Workload::FixpointBatch => fixpoint::run(settings, &tracer),
        Workload::ServeMixed => serve::run(settings, &tracer),
        Workload::MaintainDurable => durable::run(settings, &tracer),
        Workload::PebbleGames => pebble::run(settings, &tracer),
    }?;
    if settings.trace {
        let path = settings.work_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            workload.name(),
            settings.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    } else {
        outcome
            .metrics
            .put("peak_rss_mb", stats::peak_rss_mb()?, "MB");
    }
    Ok(outcome)
}

/// Set-ups a run aims at; `setup_s` is their median.
pub const SETUP_REPS: usize = 30;
/// Set-ups an untraced run makes at least, back to back at its end when
/// the run was too short to spread them.
const SETUP_MIN: usize = 15;

/// Times a workload's set-up: only what a user of the program pays before
/// the first operation (generating inputs, compiling, building the
/// service, loading the durable store); the benchmark's answer checks are
/// built outside it.
///
/// [`SetupTimer::first`] makes the set-up the run uses. In an untraced
/// run, [`SetupTimer::tick`], called between operations, makes and drops
/// another one whenever `seconds / SETUP_REPS` has passed since the last,
/// so `setup_s` is the median over set-ups spread across the whole run.
/// The host's speed drifts over fractions of a second; set-ups made back
/// to back at the start would sample one such phase, not the run.
pub struct SetupTimer<F> {
    setup: F,
    times: Samples,
    /// `None` in a traced run, which makes one set-up only.
    interval: Option<Duration>,
    last: Instant,
    error: Option<String>,
}

impl<T, F: FnMut() -> Result<T, String>> SetupTimer<F> {
    /// Makes and times the set-up the run uses.
    pub fn first(settings: &Settings, mut setup: F) -> Result<(T, Self), String> {
        let t = Instant::now();
        let value = setup()?;
        let mut times = Samples::new();
        times.push(t.elapsed().as_secs_f64());
        let interval = (!settings.trace)
            .then(|| Duration::from_secs_f64(settings.seconds / SETUP_REPS as f64));
        let timer = SetupTimer {
            setup,
            times,
            interval,
            last: Instant::now(),
            error: None,
        };
        Ok((value, timer))
    }

    fn rep(&mut self) {
        let t = Instant::now();
        match (self.setup)() {
            Ok(value) => {
                self.times.push(t.elapsed().as_secs_f64());
                drop(value);
            }
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
        self.last = Instant::now();
    }

    /// Makes and drops one more set-up if the interval has passed;
    /// whether it did.
    pub fn tick(&mut self) -> bool {
        let due = self.interval.is_some_and(|i| self.last.elapsed() >= i);
        if due {
            self.rep();
        }
        due
    }

    /// The median set-up time in seconds, after topping an untraced run
    /// up to its minimum count of set-ups.
    pub fn finish(mut self) -> Result<f64, String> {
        while self.interval.is_some() && self.times.len() < SETUP_MIN && self.error.is_none() {
            self.rep();
        }
        match self.error {
            Some(e) => Err(format!("a repeated set-up failed: {e}")),
            None => Ok(self.times.median()),
        }
    }
}

/// Paces a closed loop to half duty: [`Pacer::rest`] idles for as long
/// as the work since the previous rest took.
///
/// On a shared host, closed loops run flat out read up to a third apart
/// between runs of the same code, while the open-loop `serve_mixed`,
/// busy about half the time, held steady. The likely cause is that a
/// virtual CPU that never idles competes with other tenants for its
/// whole share and is preempted by them, while one that idles is run as
/// soon as it wakes. So every closed loop of the benchmark rests between
/// operations; a rest never falls inside a timed or traced one.
pub struct Pacer {
    since: Instant,
}

impl Default for Pacer {
    fn default() -> Self {
        Pacer {
            since: Instant::now(),
        }
    }
}

impl Pacer {
    /// Idles for as long as the work since the last rest (or since the
    /// pacer was made) took.
    pub fn rest(&mut self) {
        std::thread::sleep(self.since.elapsed());
        self.since = Instant::now();
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
