//! Command line of the repository benchmark:
//!
//! ```text
//! kv-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 0 after
//! printing a result (even an incorrect one), 2 on bad arguments and 1
//! when a run cannot be made.

use kv_perfbench::report::{json_string, result_line, Metrics};
use kv_perfbench::{catalogue, run, Scale, Settings, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kv-perfbench: {e}");
            eprintln!(
                "usage: kv-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        work_dir: ".perfbench".into(),
        flip_oracle: false,
    };
    let outcome = match run(args.workload, &settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kv-perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for check in &outcome.failed_checks {
        eprintln!("kv-perfbench: check failed: {check}");
    }
    // Every catalogued metric, in catalogue order. A per-layer metric of
    // a layer this workload never calls reads 0: no calls, no time.
    let defs = if args.trace {
        catalogue::per_layer()
    } else {
        catalogue::end_to_end()
    };
    let mut metrics = Metrics::new();
    let mut correct = outcome.correct();
    for d in defs {
        let value = match outcome.metrics.get(&d.name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!(
                    "kv-perfbench: {} did not report {}",
                    args.workload.name(),
                    d.name
                );
                correct = false;
                continue;
            }
        };
        if !value.is_finite() {
            eprintln!("kv-perfbench: {} is not a number", d.name);
            correct = false;
            continue;
        }
        metrics.put(d.name, value, d.unit);
    }
    let rayon = std::env::var("RAYON_NUM_THREADS").ok();
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"threads\": {}, \"host_cpus\": {}, \"rayon_num_threads\": {}, \"input_digest\": \"{:016x}\"}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.trace,
        kv_core::structures::par::thread_count(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rayon.as_deref().map_or("null".into(), json_string),
        outcome.input_digest
    );
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}
