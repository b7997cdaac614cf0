//! `pebble_games`: `ExistentialGame::solve(a, b, 3, OneToOne)`, the call
//! `kvrepro game` makes, on path-vs-path and random digraph pairs. The
//! pebble solver does all the work and no Datalog layer runs; this is the
//! workload that measures the paper's Proposition 5.3 solver.

use crate::inputs::{random_digraph_m, relabel, sub_seed, Digest};
use crate::report::Metrics;
use crate::stats::{windowed_rate, Samples};
use crate::trace::Tracer;
use crate::{ms, ratio, Outcome, Pacer, Scale, Settings, SetupTimer};
use kv_core::pebble::{ExistentialGame, Winner};
use kv_core::structures::generators::directed_path_graph;
use kv_core::structures::{HomKind, Structure};
use std::time::Instant;

/// Pebbles in every game.
pub const K: usize = 3;
/// Instance names, in pass order; per-instance metrics carry them.
pub const INSTANCES: [&str; 3] = ["path12_path11", "path10_path12", "rand"];

/// Seed of the fixed random-pair shape; the run seed relabels it.
const SHAPE_SEED: u64 = 0x9eb1_0000;

struct Instance {
    a: Structure,
    b: Structure,
    /// The winner every solve must report.
    expected: Winner,
}

/// A generated pair, with its winner when it is known in closed form.
type Pair = (Structure, Structure, Option<Winner>);

/// Builds the pairs, in [`INSTANCES`] order. Path pairs carry their known
/// winner: Duplicator iff the first path is no longer than the second.
fn generate(settings: &Settings) -> Vec<Pair> {
    let (paths, rand) = match settings.scale {
        Scale::Full => ([(12, 11), (10, 12)], (12, 30, 12, 34)),
        Scale::Smoke => ([(5, 4), (4, 5)], (4, 6, 4, 5)),
    };
    let seed = settings.seed;
    let mut out = Vec::new();
    for (i, &(m, n)) in paths.iter().enumerate() {
        let a = relabel(&directed_path_graph(m), sub_seed(seed, 30 + i as u64)).to_structure();
        let b = relabel(&directed_path_graph(n), sub_seed(seed, 40 + i as u64)).to_structure();
        let known = if m <= n {
            Winner::Duplicator
        } else {
            Winner::Spoiler
        };
        out.push((a, b, Some(known)));
    }
    let (na, ma, nb, mb) = rand;
    let a = relabel(&random_digraph_m(na, ma, SHAPE_SEED), sub_seed(seed, 50)).to_structure();
    let b = relabel(
        &random_digraph_m(nb, mb, SHAPE_SEED + 1),
        sub_seed(seed, 51),
    )
    .to_structure();
    out.push((a, b, None));
    out
}

/// Attaches the reference winners: `solve_lazy`, which shares no search
/// with the eager solver, for every pair, itself checked against the
/// known winner of path pairs.
fn build(settings: &Settings, pairs: Vec<Pair>) -> Result<Vec<Instance>, String> {
    let mut instances = Vec::new();
    for (idx, (a, b, known)) in pairs.into_iter().enumerate() {
        let mut expected = ExistentialGame::solve_lazy(&a, &b, K, HomKind::OneToOne).winner();
        if let Some(known) = known {
            if known != expected {
                return Err(format!(
                    "{}: solve_lazy says {expected:?}, the known winner is {known:?}",
                    INSTANCES[idx]
                ));
            }
        }
        if settings.flip_oracle && idx == 0 {
            expected = match expected {
                Winner::Duplicator => Winner::Spoiler,
                Winner::Spoiler => Winner::Duplicator,
            };
        }
        instances.push(Instance { a, b, expected });
    }
    Ok(instances)
}

/// Runs the workload.
pub fn run(settings: &Settings, tracer: &Tracer) -> Result<Outcome, String> {
    let (pairs, mut setup) = SetupTimer::first(settings, || Ok(generate(settings)))?;
    let instances = build(settings, pairs)?;
    let mut digest = Digest::default();
    for inst in &instances {
        digest.structure(&inst.a);
        digest.structure(&inst.b);
    }

    let mut pass_ms = Samples::new();
    let mut traced_pass_ms = Samples::new();
    let mut solve_ms = vec![Samples::new(); instances.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = if settings.trace {
        settings.seconds * 0.6
    } else {
        settings.seconds
    };
    let mut pacer = Pacer::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 2 || start.elapsed().as_secs_f64() < budget {
        let traced = tracer.enabled() && pass % 2 == 1;
        let mut this_pass = 0.0;
        let mut run_pass = |parent: u64| {
            for (i, inst) in instances.iter().enumerate() {
                let t = Instant::now();
                let solve =
                    || ExistentialGame::solve(&inst.a, &inst.b, K, HomKind::OneToOne).winner();
                let winner = if traced {
                    tracer.span("pebble.solve", parent, i as u64, |_| solve())
                } else {
                    solve()
                };
                let dt = t.elapsed().as_secs_f64();
                this_pass += dt;
                solve_ms[i].push(dt * 1e3);
                attempted += 1;
                if winner != inst.expected {
                    failed += 1;
                }
            }
        };
        if traced {
            tracer.span("pebble.pass", 0, pass, run_pass);
            traced_pass_ms.push(this_pass * 1e3);
        } else {
            run_pass(0);
            pass_ms.push(this_pass * 1e3);
        }
        setup.tick();
        pacer.rest();
        pass += 1;
    }
    let setup_s = setup.finish()?;

    let mut metrics = Metrics::new();
    if settings.trace {
        metrics.put(
            "trace.overhead_frac",
            ratio(traced_pass_ms.median(), pass_ms.median()),
            "ratio",
        );
        let (mut size, mut edges, mut lazy_size) = (0usize, 0usize, 0usize);
        let lazy_budget = settings.seconds * 0.3;
        for (i, inst) in instances.iter().enumerate() {
            metrics.timing(
                &format!("pebble.solve_ms.{}", INSTANCES[i]),
                &solve_ms[i],
                "ms",
            );
            let eager = ExistentialGame::solve(&inst.a, &inst.b, K, HomKind::OneToOne);
            size += eager.arena_size();
            edges += eager.arena_edge_count();
            let mut lazy_ms = Samples::new();
            let start = Instant::now();
            while lazy_ms.len() < 2
                || start.elapsed().as_secs_f64() < lazy_budget / instances.len() as f64
            {
                let t = Instant::now();
                let lazy = tracer.span("pebble.solve_lazy", 0, i as u64, |_| {
                    ExistentialGame::solve_lazy(&inst.a, &inst.b, K, HomKind::OneToOne)
                });
                lazy_ms.push(ms(t.elapsed()));
                attempted += 1;
                if lazy.winner() != inst.expected {
                    failed += 1;
                }
                if lazy_ms.len() == 1 {
                    lazy_size += lazy.arena_size();
                }
                pacer.rest();
            }
            metrics.timing(
                &format!("pebble.lazy_solve_ms.{}", INSTANCES[i]),
                &lazy_ms,
                "ms",
            );
        }
        metrics.put("pebble.arena_size", size as f64, "count");
        metrics.put("pebble.arena_edges", edges as f64, "count");
        metrics.put("pebble.lazy_arena_size", lazy_size as f64, "count");
        metrics.put(
            "pebble.lazy_arena_frac",
            ratio(lazy_size as f64, size as f64),
            "ratio",
        );
    } else {
        metrics.put("setup_s", setup_s, "s");
        let passes: Vec<(f64, f64)> = pass_ms
            .values()
            .iter()
            .map(|&t| (instances.len() as f64, t / 1e3))
            .collect();
        metrics.put("throughput_per_s", windowed_rate(&passes, 1), "1/s");
        metrics.put("latency_p50_ms", pass_ms.median(), "ms");
    }
    Ok(Outcome {
        attempted,
        failed,
        failed_checks: Vec::new(),
        metrics,
        input_digest: digest.value(),
    })
}
