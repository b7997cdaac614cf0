//! Open-loop load generation for the multi-tenant query service
//! (`BENCH_service.json`).
//!
//! The workload is the `tc_mutation_tenants` shape: a disjoint union of
//! random blocks under `transitive_closure`, where each *popular* tenant
//! owns one block and replays a small fixed pool of reachability queries
//! inside it (the repeat-query traffic the shared cache exists for), one
//! *scan* tenant issues uniform random pairs across the whole universe
//! (cache-hostile), and one *starved* tenant runs with a tiny admission
//! credit balance so the QoS layer's deterministic rejection is exercised
//! under load. A writer thread concurrently churns edges in one block
//! (retract/reinsert batches), so every number below is measured under
//! mixed read/write multi-tenant contention.
//!
//! The generator is **open-loop**: each client thread schedules arrival
//! `j` at `start + j·Δ` and measures latency as completion minus the
//! *scheduled* arrival — a service that falls behind accumulates queueing
//! delay in its percentiles instead of silently back-pressuring the
//! generator (closed-loop measurement hides exactly the overload the
//! admission layer is for).

use crate::report::{component_graph, render_report, Obj};
use kv_core::datalog::programs::transitive_closure;
use kv_core::datalog::Fact;
use kv_core::structures::{Element, SplitMix64};
use kv_core::ProgramQuery;
use kv_service::{
    QueryId, QueryService, Request, Response, ServiceBuilder, TenantId, TenantPolicy,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape and intensity of one service-bench run.
pub struct ServiceBenchConfig {
    /// Disjoint random blocks in the EDB.
    pub blocks: usize,
    /// Nodes per block.
    pub block_size: usize,
    /// Within-block edge probability.
    pub edge_p: f64,
    /// RNG seed (graph, query pools, and schedules all derive from it).
    pub seed: u64,
    /// Popular (repeat-query) tenants; each owns one block.
    pub popular_tenants: usize,
    /// Distinct queries in each popular tenant's replay pool.
    pub pool_size: usize,
    /// Requests issued per client thread.
    pub requests_per_client: usize,
    /// Open-loop arrival interval per client thread.
    pub arrival_interval: Duration,
    /// Admission credits granted to the starved tenant.
    pub starved_credits: u64,
    /// Edges churned per writer batch.
    pub churn_edges: usize,
    /// Retract/reinsert writer batch pairs applied during the run, paced
    /// by completed requests: evenly spaced over the clients' reads.
    pub churn_batches: usize,
    /// Shared result-cache capacity.
    pub cache_capacity: usize,
}

impl ServiceBenchConfig {
    /// The committed-report configuration (48 blocks of 12, as in the
    /// `tc_mutation_tenants48x12_churn4` maintenance case).
    pub fn full() -> Self {
        ServiceBenchConfig {
            blocks: 48,
            block_size: 12,
            edge_p: 0.25,
            seed: 7,
            popular_tenants: 8,
            pool_size: 8,
            requests_per_client: 600,
            arrival_interval: Duration::from_micros(250),
            starved_credits: 40,
            churn_edges: 4,
            churn_batches: 24,
            cache_capacity: 4096,
        }
    }

    /// A seconds-scale configuration for the CI smoke gate.
    pub fn smoke() -> Self {
        ServiceBenchConfig {
            blocks: 8,
            block_size: 8,
            edge_p: 0.3,
            seed: 7,
            popular_tenants: 4,
            pool_size: 6,
            requests_per_client: 150,
            arrival_interval: Duration::from_micros(400),
            starved_credits: 10,
            churn_edges: 3,
            churn_batches: 8,
            cache_capacity: 512,
        }
    }
}

/// What one client thread observed.
struct ClientStats {
    latencies: Vec<Duration>,
    /// `serve` time of each answer that missed the cache (no queueing).
    miss_evals: Vec<Duration>,
    answered: u64,
    rejected: u64,
    interrupted: u64,
}

/// Everything a run measured, for rendering and for the smoke gates.
pub struct ServiceRunStats {
    cfg_name: &'static str,
    cfg: ServiceBenchConfig,
    elapsed: Duration,
    latencies: Vec<Duration>,
    /// Sorted `serve` times of the answers that missed the cache: one
    /// governed demand evaluation over the snapshot each.
    miss_evals: Vec<Duration>,
    answered: u64,
    rejected: u64,
    interrupted: u64,
    /// (requests, hits, misses, rejected) aggregated over the popular
    /// tenants only — the repeat-query traffic the hit-rate gate is
    /// about.
    popular: (u64, u64, u64, u64),
    starved_requests: u64,
    starved_rejected: u64,
    metrics: kv_service::ServiceMetrics,
}

impl ServiceRunStats {
    /// Cache hit rate of the popular (repeat-query) tenants.
    pub fn popular_hit_rate(&self) -> f64 {
        let (_, hits, misses, _) = self.popular;
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Requests the starved tenant got admitted (≤ its credit balance,
    /// deterministically: every admitted request costs ≥ 1 credit).
    pub fn starved_admitted(&self) -> u64 {
        self.starved_requests - self.starved_rejected
    }

    /// Completed requests per second of wall clock.
    pub fn sustained_qps(&self) -> f64 {
        (self.answered + self.rejected + self.interrupted) as f64 / self.elapsed.as_secs_f64()
    }

    fn percentile(&self, p: f64) -> Duration {
        percentile(&self.latencies, p)
    }
}

/// The `p`-quantile of sorted `samples` (zero when empty).
fn percentile(samples: &[Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples[((samples.len() - 1) as f64 * p).round() as usize]
}

/// Runs the mixed read/write multi-tenant workload and gathers stats.
pub fn run_service_bench(cfg: ServiceBenchConfig, cfg_name: &'static str) -> ServiceRunStats {
    let n = cfg.blocks * cfg.block_size;
    let s = component_graph(cfg.blocks, cfg.block_size, cfg.edge_p, cfg.seed);
    let mut builder = ServiceBuilder::new(&s).cache_capacity(cfg.cache_capacity);
    let query = builder.register_query(
        "tc",
        ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 1]),
    );
    let popular: Vec<TenantId> = (0..cfg.popular_tenants)
        .map(|i| builder.register_tenant(TenantPolicy::unlimited(format!("popular-{i}"))))
        .collect();
    let scan = builder.register_tenant(TenantPolicy::unlimited("scan"));
    let starved = builder
        .register_tenant(TenantPolicy::unlimited("starved").with_credits(cfg.starved_credits));
    let svc = Arc::new(builder.build());

    // Each popular tenant replays a fixed pool of queries inside its own
    // block; the pool is the workload's entire point — repeats hit the
    // shared cache across requests *and* across the tenant's lifetime.
    let pools: Vec<Vec<Vec<Element>>> = (0..cfg.popular_tenants)
        .map(|i| {
            let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ (0x9e37 + i as u64));
            let base = (i % cfg.blocks) * cfg.block_size;
            (0..cfg.pool_size)
                .map(|_| {
                    let u = base as u32 + rng.gen_range(0..cfg.block_size as u32);
                    let v = base as u32 + rng.gen_range(0..cfg.block_size as u32);
                    vec![u, v]
                })
                .collect()
        })
        .collect();

    let churn: Vec<Fact> = crate::report::churn_set(&s, cfg.churn_edges);
    // Requests completed so far, across every client: the writer's clock.
    let completed = AtomicU64::new(0);
    let clients_done = AtomicBool::new(false);
    let start = Instant::now();
    let mut clients: Vec<ClientStats> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        // Popular clients: one thread per tenant, replaying its pool.
        for (i, &tenant) in popular.iter().enumerate() {
            let svc = Arc::clone(&svc);
            let pool = pools[i].clone();
            let (cfg, completed) = (&cfg, &completed);
            handles.push(scope.spawn(move || {
                open_loop(&svc, tenant, query, cfg, completed, move |r| {
                    pool[r as usize % pool.len()].clone()
                })
            }));
        }
        // The scan client: uniform random pairs, cache-hostile.
        {
            let svc = Arc::clone(&svc);
            let (cfg, completed) = (&cfg, &completed);
            handles.push(scope.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0x5ca9);
                open_loop(&svc, scan, query, cfg, completed, move |_| {
                    vec![rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)]
                })
            }));
        }
        // The starved client: same traffic shape as a popular tenant,
        // but its credit balance runs dry almost immediately.
        {
            let svc = Arc::clone(&svc);
            let (cfg, completed) = (&cfg, &completed);
            handles.push(scope.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xdead);
                open_loop(&svc, starved, query, cfg, completed, move |_| {
                    vec![rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)]
                })
            }));
        }
        // The writer: churn one block's edges, retract/reinsert, while
        // every client above is in flight. Pair `k` (from 1) commits once
        // the clients have completed `k` of `churn_batches + 1` equal
        // shares of all requests, so commits interleave with the same
        // reads however fast the service answers them.
        let writer_svc = Arc::clone(&svc);
        let (writer_churn, completed, clients_done) = (&churn, &completed, &clients_done);
        let batches = cfg.churn_batches as u64;
        let total = (cfg.requests_per_client * (cfg.popular_tenants + 2)) as u64;
        let writer = scope.spawn(move || {
            for k in 1..=batches {
                let mark = total * k / (batches + 1);
                while completed.load(Ordering::Relaxed) < mark {
                    if clients_done.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                writer_svc.apply_batch(&[], writer_churn);
                writer_svc.apply_batch(writer_churn, &[]);
            }
        });
        for h in handles {
            if let Ok(stats) = h.join() {
                clients.push(stats);
            }
        }
        clients_done.store(true, Ordering::Relaxed);
        let _ = writer.join();
    });

    let elapsed = start.elapsed();
    let mut latencies: Vec<Duration> = clients.iter().flat_map(|c| c.latencies.clone()).collect();
    latencies.sort_unstable();
    let mut miss_evals: Vec<Duration> = clients.iter().flat_map(|c| c.miss_evals.clone()).collect();
    miss_evals.sort_unstable();
    let metrics = svc.metrics();
    let pop_range = 0..cfg.popular_tenants;
    let popular_agg = metrics.tenants[pop_range]
        .iter()
        .fold((0, 0, 0, 0), |acc, t| {
            (
                acc.0 + t.requests,
                acc.1 + t.cache_hits,
                acc.2 + t.cache_misses,
                acc.3 + t.rejected,
            )
        });
    let starved_row = &metrics.tenants[cfg.popular_tenants + 1];
    ServiceRunStats {
        cfg_name,
        elapsed,
        latencies,
        miss_evals,
        answered: clients.iter().map(|c| c.answered).sum(),
        rejected: clients.iter().map(|c| c.rejected).sum(),
        interrupted: clients.iter().map(|c| c.interrupted).sum(),
        popular: popular_agg,
        starved_requests: starved_row.requests,
        starved_rejected: starved_row.rejected,
        metrics,
        cfg,
    }
}

/// One open-loop client: issues `cfg.requests_per_client` requests at
/// fixed arrival intervals, measuring completion minus *scheduled*
/// arrival.
fn open_loop(
    svc: &QueryService,
    tenant: TenantId,
    query: QueryId,
    cfg: &ServiceBenchConfig,
    completed: &AtomicU64,
    mut next_tuple: impl FnMut(u64) -> Vec<Element>,
) -> ClientStats {
    let mut stats = ClientStats {
        latencies: Vec::with_capacity(cfg.requests_per_client),
        miss_evals: Vec::new(),
        answered: 0,
        rejected: 0,
        interrupted: 0,
    };
    let start = Instant::now();
    for j in 0..cfg.requests_per_client as u64 {
        let scheduled = start + cfg.arrival_interval * j as u32;
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let tuple = next_tuple(j);
        let served = Instant::now();
        let response = svc.serve(&Request {
            tenant,
            query,
            tuple,
        });
        let service = served.elapsed();
        stats.latencies.push(scheduled.elapsed());
        completed.fetch_add(1, Ordering::Relaxed);
        match response {
            Response::Answer { cached, .. } => {
                stats.answered += 1;
                if !cached {
                    stats.miss_evals.push(service);
                }
            }
            Response::Rejected(_) => stats.rejected += 1,
            Response::Interrupted(_) => stats.interrupted += 1,
        }
    }
    stats
}

/// Renders `BENCH_service.json` for a finished run.
pub fn render_service_report(stats: &ServiceRunStats) -> String {
    let ms = |d: Duration| format!("{:.4}", d.as_secs_f64() * 1e3);
    let tenant_rows: Vec<String> = stats
        .metrics
        .tenants
        .iter()
        .map(|t| {
            Obj::new()
                .str("tenant", &t.name)
                .num("requests", t.requests)
                .num("cache_hits", t.cache_hits)
                .num("cache_misses", t.cache_misses)
                .num("rejected", t.rejected)
                .num("interrupted", t.interrupted)
                .num("credits_spent", t.credits_spent)
                .render()
        })
        .collect();
    let case = Obj::new()
        .str("name", stats.cfg_name)
        .num("seed", stats.cfg.seed)
        .num("blocks", stats.cfg.blocks)
        .num("block_size", stats.cfg.block_size)
        .num("tenants", stats.metrics.tenants.len())
        .num("clients", stats.cfg.popular_tenants + 2)
        .num("requests", stats.metrics.requests)
        .num("duration_ms", ms(stats.elapsed))
        .num("sustained_qps", format!("{:.1}", stats.sustained_qps()))
        .num("p50_ms", ms(stats.percentile(0.50)))
        .num("p99_ms", ms(stats.percentile(0.99)))
        .num("miss_eval_p50_ms", ms(percentile(&stats.miss_evals, 0.50)))
        .num("answered", stats.answered)
        .num("admission_rejected", stats.rejected)
        .num("interrupted", stats.interrupted)
        .num("cache_hits", stats.metrics.cache.hits)
        .num("cache_misses", stats.metrics.cache.misses)
        .num("cache_evictions", stats.metrics.cache.evictions)
        .num("cache_entries", stats.metrics.cache.entries)
        .num(
            "popular_hit_rate",
            format!("{:.3}", stats.popular_hit_rate()),
        )
        .num("starved_admitted", stats.starved_admitted())
        .num("starved_rejected", stats.starved_rejected)
        .num("writer_batches", stats.metrics.batches)
        .num("final_epoch", stats.metrics.epoch)
        .raw("tenant_rows", format!("[{}]", tenant_rows.join(", ")));
    render_report(&[case])
}

/// The full-size report (the committed `BENCH_service.json`).
pub fn service_report() -> String {
    render_service_report(&run_service_bench(
        ServiceBenchConfig::full(),
        "tc_service_tenants48x12",
    ))
}

/// The CI smoke gate: a small fixed-seed run whose invariants hold on
/// any machine. Returns (report, violations).
pub fn service_smoke() -> (String, Vec<String>) {
    let stats = run_service_bench(ServiceBenchConfig::smoke(), "tc_service_smoke8x8");
    let mut violations = Vec::new();
    let hit_rate = stats.popular_hit_rate();
    if hit_rate <= 0.5 {
        violations.push(format!(
            "popular-tenant cache hit rate {hit_rate:.3} is not > 0.5 on repeat-query traffic"
        ));
    }
    if stats.starved_rejected == 0 {
        violations.push("starved tenant was never rejected (admission gate inert)".into());
    }
    if stats.starved_admitted() > stats.cfg.starved_credits {
        violations.push(format!(
            "starved tenant admitted {} requests on {} credits (each admission must cost >= 1)",
            stats.starved_admitted(),
            stats.cfg.starved_credits
        ));
    }
    if stats.interrupted > 0 {
        violations.push(format!(
            "{} requests interrupted under unlimited budgets",
            stats.interrupted
        ));
    }
    (render_service_report(&stats), violations)
}
