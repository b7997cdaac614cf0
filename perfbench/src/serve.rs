//! `serve_mixed`: an open-loop read load on a `QueryService` beside a
//! writer that churns edges at a low fixed rate.
//!
//! The EDB is a component graph (256 random blocks of 16 nodes, about 12k
//! edges) under the demand `transitive_closure` query. The tenants, query
//! pools, cache capacity and churn set follow the repository's service
//! benchmark (`ServiceBenchConfig::full` in `crates/bench`): eight popular
//! tenants each replay a pool of eight pairs inside their own block (64
//! keys, well inside the 4096-entry shared cache), and a scan tenant asks
//! uniformly random pairs over the whole universe (16.7M keys, so nearly
//! every scan request misses). Every tenant offers the same rate, as every
//! client thread of that benchmark does, so one request in nine is a scan.
//! A miss currently costs time proportional to the whole EDB, not to the
//! block it reads, so the EDB is kept far larger than one block.
//!
//! One generator thread calls `serve` inline at fixed offered rates and
//! times every request from its scheduled send; one writer thread calls
//! `apply_batch`, alternately retracting and reinserting the churn set, so
//! each answer is checked against the precomputed closure of its epoch's
//! parity. The traced run also climbs a rate ladder for the highest
//! sustained rate.

use crate::inputs::{closure_row, sub_seed, Blocks, Digest};
use crate::report::Metrics;
use crate::stats::{windowed_rate, Samples};
use crate::trace::Tracer;
use crate::{ms, ratio, Outcome, Settings, SetupTimer};
use kv_core::datalog::programs::transitive_closure;
use kv_core::datalog::{BindingPattern, EvalOptions, Fact, MagicProgram};
use kv_core::structures::{Digraph, Element, Governor, MutableStore, RelId, SplitMix64, Structure};
use kv_core::ProgramQuery;
use kv_service::{
    QueryService, Request, Response, ServiceBuilder, Snapshot, TenantId, TenantPolicy,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The p99 limit a rung of the rate ladder must meet, from the scheduled
/// send; rejected, interrupted and wrong answers count as missing it.
pub const P99_LIMIT_MS: f64 = 50.0;
/// The offered read rate of the latency measurement: at a miss cost of
/// about 3 ms and about 25 misses a second, the generator is busy under a
/// tenth of the time, so a miss rarely delays the next request and the
/// end-to-end numbers measure the service, not a queue.
pub const REFERENCE_QPS: f64 = 200.0;
/// Offered read rates tried for the highest sustainable rate, ascending.
pub const RATE_LADDER: [f64; 13] = [
    500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0, 5000.0, 6000.0, 8000.0, 10000.0,
    12000.0,
];
/// Writer commits per second (alternating retract and reinsert). Each
/// commit starts a new cache epoch; at the reference rate an epoch of 4 s
/// holds about 700 popular requests, enough to re-warm the 64 popular
/// keys, so a hit that waits behind no miss stays the median read (the
/// measured shares are in `README.md`).
pub const COMMITS_PER_S: f64 = 0.25;
/// Popular tenants, each replaying its own pool inside its own block.
const POPULAR_TENANTS: usize = 8;
/// Pairs in each popular tenant's pool.
const POOL: usize = 8;
/// Shared result-cache capacity.
const CACHE_CAPACITY: usize = 4096;
/// Edges in the churn set: the EDB's first ones, all in block 0.
const CHURN_EDGES: usize = 4;

/// The generated inputs.
struct Inputs {
    shape: Blocks,
    graph: Digraph,
    structure: Structure,
    churn: Vec<Fact>,
    /// Per popular tenant `t`, the pairs it replays, inside block `t`.
    pools: Vec<Vec<[Element; 2]>>,
    seed: u64,
}

impl Inputs {
    fn generate(settings: &Settings) -> Inputs {
        let shape = Blocks::of(settings.scale);
        let graph = shape.graph(sub_seed(settings.seed, 10));
        let structure = graph.to_structure();
        let churn = structure
            .relation(RelId(0))
            .iter()
            .take(CHURN_EDGES)
            .map(|t| (RelId(0), t.to_vec()))
            .collect();
        let mut rng = SplitMix64::seed_from_u64(sub_seed(settings.seed, 11));
        let size = shape.size as u32;
        let pools = (0..POPULAR_TENANTS as u32)
            .map(|t| {
                (0..POOL)
                    .map(|_| {
                        [
                            t * size + rng.gen_range(0..size),
                            t * size + rng.gen_range(0..size),
                        ]
                    })
                    .collect()
            })
            .collect();
        Inputs {
            shape,
            graph,
            structure,
            churn,
            pools,
            seed: settings.seed,
        }
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.structure(&self.structure);
        for (_, t) in &self.churn {
            d.word(t[0] as u64);
            d.word(t[1] as u64);
        }
        for pair in self.pools.iter().flatten() {
            d.word(pair[0] as u64);
            d.word(pair[1] as u64);
        }
        d.value()
    }
}

/// The answers a correct service gives: per epoch parity, per node `u`,
/// the closure row restricted to `u`'s block (`rows[parity][u][v % size]`);
/// no path leaves a block.
struct Truth {
    size: usize,
    rows: [Vec<Vec<bool>>; 2],
}

impl Truth {
    fn build(inputs: &Inputs, flip_oracle: bool) -> Truth {
        let g = &inputs.graph;
        let size = inputs.shape.size;
        let mut without = Digraph::new(g.node_count());
        for (u, v) in g.edges() {
            if !inputs.churn.contains(&(RelId(0), vec![u, v])) {
                without.add_edge(u, v);
            }
        }
        let rows = |graph: &Digraph| -> Vec<Vec<bool>> {
            (0..graph.node_count() as u32)
                .map(|u| {
                    let base = u as usize / size * size;
                    closure_row(graph, u)[base..base + size].to_vec()
                })
                .collect()
        };
        let mut truth = Truth {
            size,
            rows: [rows(g), rows(&without)],
        };
        if flip_oracle {
            // The pairs of popular tenant 0, which asks one request in
            // nine: some are asked within milliseconds.
            let mut pairs = inputs.pools[0].clone();
            pairs.sort_unstable();
            pairs.dedup();
            for [u, v] in pairs {
                for parity in &mut truth.rows {
                    let cell = &mut parity[u as usize][v as usize % size];
                    *cell = !*cell;
                }
            }
        }
        truth
    }

    fn holds(&self, epoch: u64, t: &[Element]) -> bool {
        let (u, v) = (t[0] as usize, t[1] as usize);
        u / self.size == v / self.size && self.rows[(epoch % 2) as usize][u][v % self.size]
    }
}

fn tc_query() -> ProgramQuery {
    ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 1])
}

fn build_service(inputs: &Inputs) -> QueryService {
    let mut b = ServiceBuilder::new(&inputs.structure).cache_capacity(CACHE_CAPACITY);
    b.register_query("tc", tc_query());
    for i in 0..POPULAR_TENANTS {
        b.register_tenant(TenantPolicy::unlimited(format!("popular-{i}")));
    }
    b.register_tenant(TenantPolicy::unlimited("scan"));
    b.build()
}

/// The request stream: request `j` depends only on the seed and `j`.
struct RequestGen {
    rng: SplitMix64,
    next_id: u64,
}

impl RequestGen {
    fn new(seed: u64) -> Self {
        RequestGen {
            rng: SplitMix64::seed_from_u64(sub_seed(seed, 12)),
            next_id: 0,
        }
    }

    /// The next request, from a tenant drawn uniformly: a popular one
    /// asks a pair of its pool, the scan tenant a uniform pair.
    fn next(&mut self, inputs: &Inputs) -> (u64, Request) {
        let id = self.next_id;
        self.next_id += 1;
        let t = self.rng.gen_range(0..POPULAR_TENANTS + 1);
        let tuple = match inputs.pools.get(t) {
            Some(pool) => pool[self.rng.gen_range(0..pool.len())].to_vec(),
            None => {
                let n = inputs.graph.node_count() as u32;
                vec![self.rng.gen_range(0..n), self.rng.gen_range(0..n)]
            }
        };
        let request = Request {
            tenant: TenantId(t as u32),
            query: kv_service::QueryId(0),
            tuple,
        };
        (id, request)
    }
}

/// Sleeps until 2 ms before `due`, then spins until it: a sleeping
/// thread on a virtual CPU can wake milliseconds late, more than a cache
/// miss costs, and a yield can return microseconds late, more than a hit
/// costs.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A cache miss the traced run replays one layer down.
struct Miss {
    snapshot: Arc<Snapshot>,
    tuple: Vec<Element>,
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Phase {
    /// From scheduled send to reply, in ms (failed requests included).
    latency_ms: Samples,
    /// The same with failed requests at infinity, for the limit test.
    limit_ms: Samples,
    hit_us: Samples,
    miss_ms: Samples,
    /// Answers to popular tenants, and how many of them were cache hits.
    popular_answers: u64,
    popular_hits: u64,
    traced_ms: Samples,
    untraced_ms: Samples,
    /// Per request: `(1 if answered correctly, seconds from send to
    /// reply)`.
    served: Vec<(f64, f64)>,
    /// Send lateness when the previous reply came after this request's
    /// scheduled send: waiting behind earlier requests.
    queue_wait_ms: Samples,
    /// Send lateness when the generator was idle: timer overshoot.
    late_ms: Samples,
    /// Send lateness of the first and last tenth of the phase.
    first_late_ms: Samples,
    last_late_ms: Samples,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// How close the phase came to overload: its p99 as a share of the
    /// limit, or its backlog (the last tenth's send lateness) as a share
    /// of half the limit, whichever is larger. At most 1 means the rate
    /// was sustained.
    fn load(&self) -> f64 {
        (self.limit_ms.quantile(0.99) / P99_LIMIT_MS)
            .max(self.last_late_ms.median() / (P99_LIMIT_MS / 2.0))
    }
}

/// The service under load, its inputs and its right answers.
#[derive(Clone, Copy)]
struct Served<'a> {
    svc: &'a QueryService,
    inputs: &'a Inputs,
    truth: &'a Truth,
}

/// Runs one open-loop phase at `rate` for `seconds`, calling `between`
/// before each request. With `misses`, every second request is traced
/// and misses are kept for the layer peel.
fn phase(
    served: Served<'_>,
    gen: &mut RequestGen,
    rate: f64,
    seconds: f64,
    tracer: &Tracer,
    mut misses: Option<&mut Vec<Miss>>,
    between: &mut dyn FnMut() -> bool,
) -> Phase {
    let Served { svc, inputs, truth } = served;
    let mut ph = Phase::default();
    let count = (rate * seconds).ceil().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut start = Instant::now();
    let mut prev_end = start;
    let mut snapshots: HashMap<u64, Arc<Snapshot>> = HashMap::new();
    for j in 0..count {
        let t = Instant::now();
        if between() {
            // Work done between requests (a repeated set-up) pauses the
            // schedule, so no request waits behind it.
            start += t.elapsed();
        }
        let (id, request) = gen.next(inputs);
        let scheduled = start + interval.mul_f64(j as f64);
        wait_until(scheduled);
        let sent = Instant::now();
        let traced = tracer.enabled() && id % 2 == 1;
        let response = if traced {
            tracer.span("service.serve", 0, id, |_| svc.serve(&request))
        } else {
            svc.serve(&request)
        };
        let end = Instant::now();
        let late = ms(sent - scheduled);
        if prev_end > scheduled {
            ph.queue_wait_ms.push(late);
        } else {
            ph.late_ms.push(late);
        }
        if j < count / 10 {
            ph.first_late_ms.push(late);
        } else if j >= count - count / 10 {
            ph.last_late_ms.push(late);
        }
        prev_end = end;
        let latency = ms(end - scheduled);
        let service = ms(end - sent);
        ph.latency_ms.push(latency);
        ph.attempted += 1;
        let ok = match &response {
            Response::Answer {
                holds,
                epoch,
                cached,
            } => {
                if request.tenant.0 < POPULAR_TENANTS as u32 {
                    ph.popular_answers += 1;
                    ph.popular_hits += u64::from(*cached);
                }
                if *cached {
                    ph.hit_us.push(service * 1e3);
                } else {
                    ph.miss_ms.push(service);
                    if let Some(list) = misses.as_deref_mut() {
                        let snap = snapshots.entry(*epoch).or_insert_with(|| svc.snapshot());
                        if snap.epoch() == *epoch {
                            list.push(Miss {
                                snapshot: Arc::clone(snap),
                                tuple: request.tuple.clone(),
                            });
                        } else {
                            snapshots.remove(epoch);
                        }
                    }
                }
                *holds == truth.holds(*epoch, &request.tuple)
            }
            Response::Rejected(_) | Response::Interrupted(_) => false,
        };
        if traced {
            ph.traced_ms.push(service);
        } else {
            ph.untraced_ms.push(service);
        }
        ph.served.push((if ok { 1.0 } else { 0.0 }, service / 1e3));
        if ok {
            ph.limit_ms.push(latency);
        } else {
            ph.failed += 1;
            ph.limit_ms.push(f64::INFINITY);
        }
    }
    ph
}

/// The highest sustained rate from `(rate, load)` rungs: interpolated on
/// the load between the last sustained rung and the failing rung after
/// it (from zero load at rate zero when no rung was sustained). A failing
/// rung followed by a sustained one was a stall, not the limit.
fn max_rate(rungs: &[(f64, f64)]) -> f64 {
    let (mut r0, mut l0) = (0.0, 0.0);
    for (i, &(rate, load)) in rungs.iter().enumerate() {
        if load <= 1.0 {
            (r0, l0) = (rate, load);
        } else if rungs[i + 1..].iter().all(|&(_, l)| l > 1.0) {
            return r0 + (rate - r0) * ((1.0 - l0) / (load - l0)).clamp(0.0, 1.0);
        }
    }
    r0
}

/// Runs the workload.
pub fn run(settings: &Settings, tracer: &Tracer) -> Result<Outcome, String> {
    let ((inputs, svc), mut setup) = SetupTimer::first(settings, || {
        let inputs = Inputs::generate(settings);
        let svc = build_service(&inputs);
        Ok((inputs, svc))
    })?;
    let truth = &Truth::build(&inputs, settings.flip_oracle);
    let svc = &svc;
    let inputs = &inputs;
    let s = settings.seconds;
    let stop = &AtomicBool::new(false);
    let mut gen = RequestGen::new(inputs.seed);
    let mut misses = Vec::new();
    let served = Served { svc, inputs, truth };
    let (warm, reference, rungs, commit_ms) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut commit_ms = Samples::new();
            let interval = Duration::from_secs_f64(1.0 / COMMITS_PER_S);
            let start = Instant::now();
            let mut k = 1u64;
            while !stop.load(Ordering::SeqCst) {
                let due = start + interval.mul_f64(k as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep((due - now).min(Duration::from_millis(20)));
                    continue;
                }
                let t = Instant::now();
                tracer.span("service.apply_batch", 0, k, |_| {
                    if k % 2 == 1 {
                        svc.apply_batch(&[], &inputs.churn)
                    } else {
                        svc.apply_batch(&inputs.churn, &[])
                    }
                });
                commit_ms.push(ms(t.elapsed()));
                k += 1;
            }
            commit_ms
        });
        let begin = Instant::now();
        let mut tick = || setup.tick();
        let warm = phase(
            served,
            &mut gen,
            REFERENCE_QPS,
            s * 0.05,
            tracer,
            None,
            &mut tick,
        );
        // The rate ladder runs untraced, in the traced run only: on a
        // shared 2-CPU host its result spreads too widely between runs to
        // gate changes on, so it is reported as a per-layer metric.
        let mut rungs = Vec::new();
        if settings.trace {
            let untraced = Tracer::new(false);
            for rate in RATE_LADDER {
                let ph = phase(
                    served,
                    &mut gen,
                    rate,
                    s * 0.04,
                    &untraced,
                    None,
                    &mut || false,
                );
                let load = ph.load();
                eprintln!(
                    "serve_mixed: {rate} qps p99 {:.2} ms, last-tenth lateness {:.2} ms, load {load:.3}",
                    ph.limit_ms.quantile(0.99),
                    ph.last_late_ms.median(),
                );
                rungs.push((ph, rate, load));
                // Two failing rungs in a row end the ladder.
                if rungs.len() >= 2 && rungs[rungs.len() - 2..].iter().all(|r| r.2 > 1.0) {
                    break;
                }
            }
        }
        // The latency measurement takes the rest of the budget.
        let ref_s = (s - begin.elapsed().as_secs_f64()).max(s * 0.3);
        let record = settings.trace.then_some(&mut misses);
        let reference = phase(
            served,
            &mut gen,
            REFERENCE_QPS,
            ref_s,
            tracer,
            record,
            &mut tick,
        );
        stop.store(true, Ordering::SeqCst);
        let commit_ms = writer.join().expect("the writer thread panicked");
        (warm, reference, rungs, commit_ms)
    });
    let setup_s = setup.finish()?;

    let mut attempted = warm.attempted + reference.attempted;
    let mut failed = warm.failed + reference.failed;
    for (ph, _, _) in &rungs {
        attempted += ph.attempted;
        failed += ph.failed;
    }
    let mut metrics = Metrics::new();
    if settings.trace {
        let ladder: Vec<(f64, f64)> = rungs.iter().map(|(_, rate, load)| (*rate, *load)).collect();
        metrics.put("gen.max_qps", max_rate(&ladder), "1/s");
        metrics.put("gen.read_p99_ms", reference.latency_ms.quantile(0.99), "ms");
        peel(inputs, svc, &reference, &misses, &commit_ms, &mut metrics);
        metrics.put(
            "trace.overhead_frac",
            ratio(reference.traced_ms.median(), reference.untraced_ms.median()),
            "ratio",
        );
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put(
            "throughput_per_s",
            // One window: correct answers over the phase's whole serve
            // time. Windows of a few hundred requests would each hold a
            // different share of misses, and their median would swing
            // with it.
            windowed_rate(&reference.served, reference.served.len()),
            "1/s",
        );
        metrics.put("latency_p50_ms", reference.latency_ms.median(), "ms");
    }
    Ok(Outcome {
        attempted,
        failed,
        failed_checks: Vec::new(),
        metrics,
        input_digest: inputs.digest(),
    })
}

/// Per-layer metrics of the traced reference phase, and the layer peel:
/// the recorded misses replayed through `try_eval_at_uncached` and
/// `CompiledProgram::try_run_seeded` on the same snapshots, and
/// `Snapshot::capture` on equivalent stores.
fn peel(
    inputs: &Inputs,
    svc: &QueryService,
    reference: &Phase,
    misses: &[Miss],
    commit_ms: &Samples,
    metrics: &mut Metrics,
) {
    metrics.timing("service.serve_hit_us", &reference.hit_us, "us");
    metrics.timing("service.serve_miss_ms", &reference.miss_ms, "ms");
    metrics.timing("service.queue_wait_ms", &reference.queue_wait_ms, "ms");
    metrics.timing("service.apply_batch_ms", commit_ms, "ms");
    metrics.timing("gen.late_ms", &reference.late_ms, "ms");
    metrics.put(
        "gen.backlog_growth_ms",
        reference.last_late_ms.median() - reference.first_late_ms.median(),
        "ms",
    );

    // Hit shares of the reference phase: which path the end-to-end
    // read latency and capacity measure.
    let (hits, missed) = (reference.hit_us.len(), reference.miss_ms.len());
    metrics.put(
        "cache.hit_rate",
        ratio(hits as f64, (hits + missed) as f64),
        "ratio",
    );
    metrics.put(
        "cache.popular_hit_rate",
        ratio(
            reference.popular_hits as f64,
            reference.popular_answers as f64,
        ),
        "ratio",
    );
    let m = svc.metrics();
    metrics.put("cache.evictions", m.cache.evictions as f64, "count");
    metrics.put("cache.entries", m.cache.entries as f64, "count");

    // Magic layer: the rewrite, then seeded runs of the compiled rewrite.
    let tc = transitive_closure();
    let pattern = BindingPattern::all_bound(2);
    let mut rewrite_ms = Samples::new();
    let mut magic = None;
    for _ in 0..20 {
        let t = Instant::now();
        let rewritten =
            MagicProgram::rewrite(&tc, &pattern).expect("tc admits the all-bound rewrite");
        rewrite_ms.push(ms(t.elapsed()));
        magic = Some(rewritten);
    }
    let magic = magic.expect("the rewrite ran");
    let compiled = magic.compile();
    let query = tc_query();
    let options = EvalOptions::default()
        .with_planner(query.plan().planner())
        .with_lowering(query.plan().lowering());
    let mut eval_at_ms = Samples::new();
    let mut run_ms = Samples::new();
    let (mut demand, mut probes) = (0u64, 0u64);
    let gov = Governor::unlimited();
    for miss in misses.iter().take(400) {
        let edb = miss.snapshot.edb();
        let t = Instant::now();
        let _ = std::hint::black_box(query.try_eval_at_uncached(edb, &miss.tuple, &gov));
        eval_at_ms.push(ms(t.elapsed()));
        let seeds = [(magic.magic_goal(), magic.seed(&miss.tuple))];
        let t = Instant::now();
        let result = compiled
            .try_run_seeded(edb, options, &seeds)
            .expect("no limits are set");
        run_ms.push(ms(t.elapsed()));
        demand += result.eval_stats.tuples_interned;
        probes += result.eval_stats.magic_probes;
    }
    let n = run_ms.len().max(1) as f64;
    metrics.micro_timing("magic.rewrite_ms", &rewrite_ms, "ms");
    metrics.timing("magic.run_ms", &run_ms, "ms");
    metrics.put("magic.demand_tuples", demand as f64 / n, "count");
    metrics.put("magic.probes", probes as f64 / n, "count");
    metrics.timing("query.eval_at_ms", &eval_at_ms, "ms");
    metrics.put(
        "query.eval_at_self_ms",
        eval_at_ms.median() - run_ms.median(),
        "ms",
    );
    metrics.put(
        "service.miss_self_ms",
        reference.miss_ms.median() - eval_at_ms.median(),
        "ms",
    );

    // Snapshot capture on stores holding each parity's EDB.
    let vocab = Arc::clone(inputs.structure.vocabulary());
    let constants = inputs.structure.constant_values().to_vec();
    let universe = inputs.structure.universe_size();
    let mut capture_ms = Samples::new();
    let mut live = 0;
    for parity in 0..2u64 {
        let mut stores: Vec<MutableStore> = vocab
            .relations()
            .map(|r| MutableStore::new(vocab.arity(r)))
            .collect();
        for r in vocab.relations() {
            for t in inputs.structure.relation(r).iter() {
                if parity == 0 || !inputs.churn.contains(&(r, t.to_vec())) {
                    stores[r.0].insert(t);
                }
            }
            stores[r.0].commit_epoch();
        }
        for _ in 0..10 {
            let t = Instant::now();
            let snap = Snapshot::capture(&vocab, universe, &constants, &stores, parity);
            capture_ms.push(ms(t.elapsed()));
            live = snap.live_tuples();
        }
    }
    metrics.micro_timing("snapshot.capture_ms", &capture_ms, "ms");
    metrics.put("snapshot.live_tuples", live as f64, "count");
}
