//! `fixpoint_batch`: one pass evaluates a fixed program set from scratch
//! with `Evaluator::new(p).run(&s, EvalOptions::default())`, the call
//! `kvrepro run` makes. The stage loop, planner, join kernels and tuple
//! emission do all the work; the cache, WAL and service do none.

use crate::inputs::{closure_row, random_digraph_m, relabel, sub_seed, Digest};
use crate::report::Metrics;
use crate::stats::{windowed_rate, Samples};
use crate::trace::Tracer;
use crate::{ms, ratio, Outcome, Pacer, Scale, Settings, SetupTimer};
use kv_core::datalog::programs::{avoiding_path, q_kl, transitive_closure, triangles};
use kv_core::datalog::{CompiledProgram, EvalOptions, EvalResult, Evaluator, Program};
use kv_core::graphalg::avoiding_path as avoids;
use kv_core::structures::{Digraph, Element, EvalStats, PlannerMode, SplitMix64, Structure};
use std::collections::HashSet;
use std::time::Instant;

/// Program short names, in pass order; per-program metrics carry them.
pub const PROGRAMS: [&str; 4] = ["tc", "q_2_1", "avoid", "tri"];

/// The goal relation a correct run must produce.
enum Oracle {
    /// Row-major `n × n` table: `(x, y)` holds iff `y` is reachable from
    /// `x` by a path of at least one edge (BFS from `kv-graphalg`).
    Reach { n: usize, table: Vec<bool> },
    /// Row-major `n³` table over `(x, y, w)`: a nonempty `x → y` path
    /// avoiding `w` (`kv_graphalg::avoiding_path`).
    Avoid { n: usize, table: Vec<bool> },
    /// An explicit tuple set.
    Set(HashSet<Vec<Element>>),
}

impl Oracle {
    fn contains(&self, t: &[Element]) -> bool {
        match self {
            Oracle::Reach { n, table } => table[t[0] as usize * n + t[1] as usize],
            Oracle::Avoid { n, table } => {
                table[(t[0] as usize * n + t[1] as usize) * n + t[2] as usize]
            }
            Oracle::Set(s) => s.contains(t),
        }
    }

    fn len(&self) -> usize {
        match self {
            Oracle::Reach { table, .. } | Oracle::Avoid { table, .. } => {
                table.iter().filter(|&&b| b).count()
            }
            Oracle::Set(s) => s.len(),
        }
    }

    /// Inverts the first `true` answer (the output-check test hook).
    fn flip_one(&mut self) {
        match self {
            Oracle::Reach { table, .. } | Oracle::Avoid { table, .. } => {
                if let Some(b) = table.iter_mut().find(|b| **b) {
                    *b = false;
                }
            }
            Oracle::Set(s) => {
                if let Some(t) = s.iter().next().cloned() {
                    s.remove(&t);
                }
            }
        }
    }
}

/// One program of the pass with its input and expected goal relation.
struct Case {
    program: Program,
    structure: Structure,
    oracle: Oracle,
    expected: usize,
}

impl Case {
    fn new(program: Program, structure: Structure, oracle: Oracle) -> Self {
        let expected = oracle.len();
        Case {
            program,
            structure,
            oracle,
            expected,
        }
    }

    fn check(&self, result: &EvalResult) -> bool {
        let goal = result.goal_relation(&self.program);
        goal.len() == self.expected && goal.iter().all(|t| self.oracle.contains(t))
    }
}

/// Seed of the fixed input shapes (see `build_cases`).
const SHAPE_SEED: u64 = 0x5eed_0000;

/// Input sizes per scale.
struct Sizes {
    tc: (usize, usize),
    q: (usize, usize),
    avoid: (usize, usize),
    tri: (u32, u32),
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            tc: (600, 1800),
            q: (14, 28),
            avoid: (64, 180),
            tri: (128, 6),
        },
        Scale::Smoke => Sizes {
            tc: (60, 140),
            q: (7, 12),
            avoid: (10, 18),
            tri: (6, 2),
        },
    }
}

fn reach_oracle(g: &Digraph) -> Oracle {
    let n = g.node_count();
    let table = (0..n as u32).flat_map(|x| closure_row(g, x)).collect();
    Oracle::Reach { n, table }
}

fn avoid_oracle(g: &Digraph) -> Oracle {
    let n = g.node_count();
    let mut table = vec![false; n * n * n];
    for x in 0..n as u32 {
        for y in 0..n as u32 {
            for w in 0..n as u32 {
                table[(x as usize * n + y as usize) * n + w as usize] = avoids(g, x, y, &[w]);
            }
        }
    }
    Oracle::Avoid { n, table }
}

/// Directed triangles `(x, y, z)` with `E(x,y), E(y,z), E(z,x)`.
fn triangle_oracle(g: &Digraph) -> Oracle {
    let mut set = HashSet::new();
    for (x, y) in g.edges() {
        for &z in g.successors(y) {
            if g.has_edge(z, x) {
                set.insert(vec![x, y, z]);
            }
        }
    }
    Oracle::Set(set)
}

/// A layered tripartite digraph `L → M → R` of width `m` (complete
/// bipartite stages) with `back` seeded `R → L` edges closing triangles:
/// the skewed input on which the worst-case-optimal join pays.
fn layered_triangles(m: u32, back: u32, seed: u64) -> Digraph {
    let mut g = Digraph::new(3 * m as usize);
    for a in 0..m {
        for b in 0..m {
            g.add_edge(a, m + b);
            g.add_edge(m + a, 2 * m + b);
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    while g.edge_count() < (2 * m * m + back) as usize {
        g.add_edge(2 * m + rng.gen_range(0..m), rng.gen_range(0..m));
    }
    g
}

/// The pass's inputs, in [`PROGRAMS`] order: each program with its
/// graph and that graph as a structure.
fn generate(settings: &Settings) -> Vec<(Program, Digraph, Structure)> {
    let sz = sizes(settings.scale);
    let seed = settings.seed;
    // Each input's shape is drawn once from a fixed seed; the run seed
    // relabels its nodes. Every seed thus evaluates different tuples of
    // the same cost, and the spread between runs measures the machine,
    // not the luck of the draw (`Q_{2,1}` on `G(n, m)` swings ±30%).
    let graphs = [
        random_digraph_m(sz.tc.0, sz.tc.1, SHAPE_SEED),
        random_digraph_m(sz.q.0, sz.q.1, SHAPE_SEED + 1),
        random_digraph_m(sz.avoid.0, sz.avoid.1, SHAPE_SEED + 2),
        layered_triangles(sz.tri.0, sz.tri.1, SHAPE_SEED + 3),
    ];
    let programs = [
        transitive_closure(),
        q_kl(2, 1),
        avoiding_path(),
        triangles(),
    ];
    programs
        .into_iter()
        .zip(graphs)
        .enumerate()
        .map(|(i, (program, g))| {
            let g = relabel(&g, sub_seed(seed, i as u64 + 1));
            let s = g.to_structure();
            (program, g, s)
        })
        .collect()
}

/// Attaches each input's expected goal relation.
fn build_cases(settings: &Settings, inputs: Vec<(Program, Digraph, Structure)>) -> Vec<Case> {
    inputs
        .into_iter()
        .enumerate()
        .map(|(i, (program, g, structure))| {
            let mut oracle = match PROGRAMS[i] {
                "tc" => reach_oracle(&g),
                // Q_{2,1} has no graph-algorithmic oracle in the
                // repository. Its reference is the same engine under
                // another plan (sequential, cost-based): it catches a
                // wrong default plan or parallel merge, but not a defect
                // in the join kernels and emission both plans share.
                "q_2_1" => {
                    let reference = Evaluator::new(&program).run(
                        &structure,
                        EvalOptions {
                            parallel: false,
                            ..EvalOptions::default()
                        }
                        .with_planner(PlannerMode::CostBased),
                    );
                    Oracle::Set(
                        reference
                            .goal_relation(&program)
                            .iter()
                            .map(|t| t.to_vec())
                            .collect(),
                    )
                }
                "avoid" => avoid_oracle(&g),
                _ => triangle_oracle(&g),
            };
            if settings.flip_oracle && i == 0 {
                oracle.flip_one();
            }
            Case::new(program, structure, oracle)
        })
        .collect()
}

fn digest(cases: &[Case]) -> u64 {
    let mut d = Digest::default();
    for c in cases {
        d.structure(&c.structure);
    }
    d.value()
}

/// What the timed passes saw.
struct Passes {
    pass_ms: Samples,
    traced_pass_ms: Samples,
    run_ms: Vec<Samples>,
    /// Untraced passes as `(tuples derived, seconds)`.
    pass_tuples: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    stats: Vec<EvalStats>,
}

/// Timed passes until `budget` has elapsed, calling `between` after each.
/// In a traced run every second pass records spans, so the two halves
/// give the tracing overhead.
fn passes(
    cases: &[Case],
    evals: &[Evaluator<'_>],
    tracer: &Tracer,
    budget: f64,
    between: &mut dyn FnMut(),
) -> Passes {
    let mut p = Passes {
        pass_ms: Samples::new(),
        traced_pass_ms: Samples::new(),
        run_ms: vec![Samples::new(); cases.len()],
        pass_tuples: Vec::new(),
        attempted: 0,
        failed: 0,
        stats: vec![EvalStats::default(); cases.len()],
    };
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 2 || start.elapsed().as_secs_f64() < budget {
        let traced = tracer.enabled() && pass % 2 == 1;
        let mut pass_s = 0.0;
        let mut tuples = 0u64;
        let mut run_pass = |parent: u64| {
            for (i, (case, eval)) in cases.iter().zip(evals).enumerate() {
                let t = Instant::now();
                let result = if traced {
                    tracer.span("eval.run", parent, i as u64, |_| {
                        eval.run(&case.structure, EvalOptions::default())
                    })
                } else {
                    eval.run(&case.structure, EvalOptions::default())
                };
                let dt = t.elapsed().as_secs_f64();
                pass_s += dt;
                p.run_ms[i].push(dt * 1e3);
                tuples += result.eval_stats.tuples_interned;
                p.stats[i] = result.eval_stats;
                p.attempted += 1;
                if !case.check(&result) {
                    p.failed += 1;
                }
            }
        };
        if traced {
            tracer.span("fixpoint.pass", 0, pass, run_pass);
            p.traced_pass_ms.push(pass_s * 1e3);
        } else {
            run_pass(0);
            p.pass_ms.push(pass_s * 1e3);
            p.pass_tuples.push((tuples as f64, pass_s));
        }
        between();
        pass += 1;
    }
    p
}

/// Runs the workload.
pub fn run(settings: &Settings, tracer: &Tracer) -> Result<Outcome, String> {
    let (inputs, mut setup) = SetupTimer::first(settings, || {
        let inputs = generate(settings);
        // Compilation is part of set-up: the pass reuses the evaluators.
        for (program, _, _) in &inputs {
            std::hint::black_box(Evaluator::new(program));
        }
        Ok(inputs)
    })?;
    let cases = build_cases(settings, inputs);
    let evals: Vec<Evaluator<'_>> = cases.iter().map(|c| Evaluator::new(&c.program)).collect();
    let mut metrics = Metrics::new();
    let budget = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let mut pacer = Pacer::default();
    let p = passes(&cases, &evals, tracer, budget, &mut || {
        setup.tick();
        pacer.rest();
    });
    let setup_s = setup.finish()?;
    let (mut attempted, mut failed) = (p.attempted, p.failed);

    if settings.trace {
        for (i, name) in PROGRAMS.iter().enumerate() {
            metrics.timing(&format!("eval.run_ms.{name}"), &p.run_ms[i], "ms");
        }
        let mut total = EvalStats::default();
        for s in &p.stats {
            total.merge(s);
        }
        metrics.put("eval.join_probes", total.join_probes as f64, "count");
        metrics.put("eval.block_probes", total.block_probes as f64, "count");
        metrics.put("eval.gallop_steps", total.gallop_steps as f64, "count");
        metrics.put(
            "eval.tuples_interned",
            total.tuples_interned as f64,
            "count",
        );
        metrics.put(
            "eval.duplicate_derivations",
            total.duplicate_derivations as f64,
            "count",
        );
        metrics.put(
            "eval.useful_frac",
            ratio(
                total.tuples_interned as f64,
                (total.tuples_interned + total.duplicate_derivations) as f64,
            ),
            "ratio",
        );
        metrics.put("eval.stages", total.stages as f64, "count");
        metrics.put(
            "trace.overhead_frac",
            ratio(p.traced_pass_ms.median(), p.pass_ms.median()),
            "ratio",
        );

        // Compile: every program of the pass, timed as one unit.
        let mut compile_ms = Samples::new();
        for _ in 0..10 {
            let t = Instant::now();
            for c in &cases {
                std::hint::black_box(CompiledProgram::compile(&c.program));
            }
            compile_ms.push(ms(t.elapsed()));
        }
        metrics.micro_timing("eval.compile_ms", &compile_ms, "ms");

        // The parallel-mode ablations, on the same inputs.
        let seq = EvalOptions {
            parallel: false,
            ..EvalOptions::default()
        };
        let sharded = EvalOptions::default().with_shards(Some(2));
        let ablation_budget = settings.seconds / 4.0;
        let mut exchanged = 0u64;
        for (label, options) in [("eval.run_ms_seq", seq), ("sharded.run_ms", sharded)] {
            let start = Instant::now();
            let mut times = vec![Samples::new(); cases.len()];
            while times[0].len() < 2 || start.elapsed().as_secs_f64() < ablation_budget {
                for (i, (case, eval)) in cases.iter().zip(&evals).enumerate() {
                    let t = Instant::now();
                    let result =
                        tracer.span(label, 0, i as u64, |_| eval.run(&case.structure, options));
                    times[i].push(ms(t.elapsed()));
                    attempted += 1;
                    if !case.check(&result) {
                        failed += 1;
                    }
                    if let (Some(shard), true) = (&result.shard, times[i].len() == 1) {
                        exchanged += shard.exchanged_tuples;
                    }
                }
                pacer.rest();
            }
            for (i, name) in PROGRAMS.iter().enumerate() {
                metrics.timing(&format!("{label}.{name}"), &times[i], "ms");
            }
        }
        metrics.put("sharded.exchanged_tuples", exchanged as f64, "count");
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("throughput_per_s", windowed_rate(&p.pass_tuples, 1), "1/s");
        metrics.put("latency_p50_ms", p.pass_ms.median(), "ms");
    }
    Ok(Outcome {
        attempted,
        failed,
        failed_checks: Vec::new(),
        metrics,
        input_digest: digest(&cases),
    })
}
