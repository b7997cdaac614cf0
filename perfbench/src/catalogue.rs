//! Every metric the benchmark reports, as `BENCHMARK.json` lists them.
//! The benchmark's tests check that the file and this table agree and
//! that each workload emits exactly the metrics assigned to it.

use crate::fixpoint::PROGRAMS;
use crate::pebble::INSTANCES;
use crate::Workload::{self, FixpointBatch, MaintainDurable, PebbleGames, ServeMixed};

/// One metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The workload that measures it; `None` for every workload.
    pub workload: Option<Workload>,
}

/// The share of the parent's median by which each end-to-end metric may
/// worsen, in [`end_to_end`] order.
pub const BOUNDS: [f64; 4] = [0.25, 0.25, 0.25, 0.25];

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    w: Option<Workload>,
) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        workload: w,
    }
}

/// The end-to-end metrics: every workload reports each of them, for its
/// own operation (see `README.md`).
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower", None),
        def("peak_rss_mb", "MB", "lower", None),
        def("throughput_per_s", "1/s", "higher", None),
        def("latency_p50_ms", "ms", "lower", None),
    ]
}

/// The per-layer metrics. A timing is three entries: its median, its
/// tail (`.tail`) and its sample count (`.n`); a fixed-repetition micro
/// timing omits the count.
pub fn per_layer() -> Vec<Def> {
    let mut out = vec![def("trace.overhead_frac", "ratio", "lower", None)];
    let mut timing = |name: String, unit: &'static str, w: Workload, counted: bool| {
        out.push(def(name.clone(), unit, "lower", Some(w)));
        out.push(def(format!("{name}.tail"), unit, "lower", Some(w)));
        if counted {
            out.push(def(format!("{name}.n"), "count", "higher", Some(w)));
        }
    };
    for family in ["eval.run_ms", "eval.run_ms_seq", "sharded.run_ms"] {
        for p in PROGRAMS {
            timing(format!("{family}.{p}"), "ms", FixpointBatch, true);
        }
    }
    timing("eval.compile_ms".into(), "ms", FixpointBatch, false);
    for name in [
        "service.serve_hit_us",
        "service.serve_miss_ms",
        "service.queue_wait_ms",
        "service.apply_batch_ms",
        "gen.late_ms",
        "magic.run_ms",
        "query.eval_at_ms",
    ] {
        let unit = if name.ends_with("_us") { "us" } else { "ms" };
        timing(name.into(), unit, ServeMixed, true);
    }
    timing("magic.rewrite_ms".into(), "ms", ServeMixed, false);
    timing("snapshot.capture_ms".into(), "ms", ServeMixed, false);
    for name in [
        "durable.recovery_ms",
        "query.apply_durable_ms",
        "durable.apply_ms",
        "incremental.apply_ms",
    ] {
        timing(name.into(), "ms", MaintainDurable, true);
    }
    for family in ["pebble.solve_ms", "pebble.lazy_solve_ms"] {
        for i in INSTANCES {
            timing(format!("{family}.{i}"), "ms", PebbleGames, true);
        }
    }
    let f = Some(FixpointBatch);
    let s = Some(ServeMixed);
    let d = Some(MaintainDurable);
    let p = Some(PebbleGames);
    out.extend([
        def("eval.join_probes", "count", "lower", f),
        def("eval.block_probes", "count", "lower", f),
        def("eval.gallop_steps", "count", "lower", f),
        def("eval.tuples_interned", "count", "lower", f),
        def("eval.duplicate_derivations", "count", "lower", f),
        def("eval.useful_frac", "ratio", "higher", f),
        def("eval.stages", "count", "lower", f),
        def("sharded.exchanged_tuples", "count", "lower", f),
        def("gen.max_qps", "1/s", "higher", s),
        def("gen.read_p99_ms", "ms", "lower", s),
        def("gen.backlog_growth_ms", "ms", "lower", s),
        def("service.miss_self_ms", "ms", "lower", s),
        def("query.eval_at_self_ms", "ms", "lower", s),
        def("magic.demand_tuples", "count", "lower", s),
        def("magic.probes", "count", "lower", s),
        def("cache.hit_rate", "ratio", "higher", s),
        def("cache.popular_hit_rate", "ratio", "higher", s),
        def("cache.evictions", "count", "lower", s),
        def("cache.entries", "count", "higher", s),
        def("snapshot.live_tuples", "count", "lower", s),
        def("query.apply_durable_self_ms", "ms", "lower", d),
        def("durable.wal_self_ms", "ms", "lower", d),
        def("durable.checkpoint_ms", "ms", "lower", d),
        def("durable.wal_bytes_per_user_byte", "ratio", "lower", d),
        def("durable.checkpoint_bytes", "bytes", "lower", d),
        def("durable.stores_replayed", "count", "lower", d),
        def("incremental.delta_tuples", "count", "lower", d),
        def("incremental.deleted_tuples", "count", "lower", d),
        def("incremental.rederived_tuples", "count", "lower", d),
        def("incremental.rederive_frac", "ratio", "lower", d),
        def("pebble.arena_size", "count", "lower", p),
        def("pebble.arena_edges", "count", "lower", p),
        def("pebble.lazy_arena_size", "count", "lower", p),
        def("pebble.lazy_arena_frac", "ratio", "lower", p),
    ]);
    out
}

/// The metrics `workload` itself measures in a run (`trace` selects the
/// per-layer set).
pub fn measured_by(workload: Workload, trace: bool) -> Vec<Def> {
    let all = if trace { per_layer() } else { end_to_end() };
    all.into_iter()
        .filter(|d| d.workload.is_none_or(|w| w == workload))
        .collect()
}
