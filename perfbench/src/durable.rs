//! `maintain_durable`: the README's durable path. A
//! `ProgramQuery::at_tuple(tc)` opened with `open_durable` in a fresh
//! directory takes a closed-loop stream of single-edge insert/retract
//! batches on random blocks through `try_apply_batch_durable`, each
//! followed by an `incremental_holds` read; at the end the directory is
//! reopened to measure recovery. Incremental maintenance, the WAL and
//! checkpoints do the work; no service or cache is involved. Flush
//! policy: the default `DurabilityOptions` (fsync off, a checkpoint every
//! 8 batches).

use crate::inputs::{sub_seed, Blocks, Digest};
use crate::report::Metrics;
use crate::stats::{windowed_rate, Samples};
use crate::trace::Tracer;
use crate::{ms, ratio, Outcome, Pacer, Settings, SetupTimer};
use kv_core::datalog::programs::transitive_closure;
use kv_core::datalog::{
    DurabilityOptions, DurableEngine, EvalOptions, Evaluator, Fact, IncrementalEngine,
};
use kv_core::structures::{Element, Governor, RelId, SplitMix64, Structure};
use kv_core::ProgramQuery;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Batches the traced run replays one layer down.
const PEEL_BATCHES: usize = 600;
/// Commits per window of the throughput median.
const WINDOW: usize = 100;
/// Reopens of the final directory in a traced run.
const REOPENS: usize = 5;

/// One single-edge batch: `(inserts, retracts)`.
type Batch = (Vec<Fact>, Vec<Fact>);

/// The live edge set, the batch stream that mutates it, and the goal's
/// truth. Batch `i` depends only on the seed and `i`.
struct Stream {
    shape: Blocks,
    edges: HashSet<(u32, u32)>,
    rng: SplitMix64,
    goal: [Element; 2],
    flip_oracle: bool,
}

impl Stream {
    fn new(settings: &Settings) -> (Stream, Structure) {
        let shape = Blocks::of(settings.scale);
        let g = shape.graph(sub_seed(settings.seed, 20));
        let mut rng = SplitMix64::seed_from_u64(sub_seed(settings.seed, 21));
        let base = (rng.gen_range(0..shape.blocks) * shape.size) as u32;
        let size = shape.size as u32;
        let goal = [base + rng.gen_range(0..size), base + rng.gen_range(0..size)];
        let stream = Stream {
            edges: g.edges().collect(),
            shape,
            rng,
            goal,
            flip_oracle: settings.flip_oracle,
        };
        (stream, g.to_structure())
    }

    /// The next batch: a random ordered pair in a random block, inserted
    /// if absent and retracted if present.
    fn next_batch(&mut self) -> Batch {
        let base = (self.rng.gen_range(0..self.shape.blocks) * self.shape.size) as u32;
        let size = self.shape.size as u32;
        let u = base + self.rng.gen_range(0..size);
        let v = base + (u - base + 1 + self.rng.gen_range(0..size - 1)) % size;
        let fact: Fact = (RelId(0), vec![u, v]);
        if self.edges.remove(&(u, v)) {
            (Vec::new(), vec![fact])
        } else {
            self.edges.insert((u, v));
            (vec![fact], Vec::new())
        }
    }

    /// Whether the goal pair is in the closure of the live edge set
    /// (BFS inside the goal's block, which no edge leaves).
    fn goal_holds(&self) -> bool {
        let [from, to] = self.goal;
        let mut seen = HashSet::new();
        let mut frontier = vec![from];
        while let Some(u) = frontier.pop() {
            let base = u / self.shape.size as u32 * self.shape.size as u32;
            for v in base..base + self.shape.size as u32 {
                if self.edges.contains(&(u, v)) && seen.insert(v) {
                    frontier.push(v);
                }
            }
        }
        seen.contains(&to) != self.flip_oracle
    }

    fn structure(&self, template: &Structure) -> Structure {
        let mut s = Structure::new(template.vocabulary().clone(), template.universe_size());
        for &(u, v) in &self.edges {
            s.insert(RelId(0), &[u, v]);
        }
        s
    }
}

fn query(goal: [Element; 2]) -> ProgramQuery {
    ProgramQuery::at_tuple("tc", transitive_closure(), goal.to_vec())
}

fn options(q: &ProgramQuery) -> EvalOptions {
    EvalOptions::default()
        .with_planner(q.plan().planner())
        .with_lowering(q.plan().lowering())
}

/// An empty path under the work directory for durable store `name`.
fn fresh_dir(settings: &Settings, name: &str) -> PathBuf {
    let dir = settings
        .work_dir
        .join(format!("durable-{}-{name}", std::process::id()));
    remove_dir(&dir);
    dir
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A durable store's directory, removed when dropped.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        remove_dir(&self.0);
    }
}

/// What the closed loop measured.
struct Loop {
    commit_ms: Samples,
    traced_ms: Samples,
    untraced_ms: Samples,
    /// One `(1, seconds)` pair per commit-plus-read.
    ops: Vec<(f64, f64)>,
    batches: Vec<Batch>,
    attempted: u64,
    failed: u64,
}

/// Commits until `budget` has elapsed, calling `between` after each.
fn closed_loop(
    q: &ProgramQuery,
    stream: &mut Stream,
    tracer: &Tracer,
    budget: f64,
    between: &mut dyn FnMut(),
) -> Loop {
    let mut l = Loop {
        commit_ms: Samples::new(),
        traced_ms: Samples::new(),
        untraced_ms: Samples::new(),
        ops: Vec::new(),
        batches: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let gov = Governor::unlimited();
    let start = Instant::now();
    let mut epoch = 1u64;
    while l.attempted < 2 || start.elapsed().as_secs_f64() < budget {
        let (ins, ret) = stream.next_batch();
        epoch += 1;
        let traced = tracer.enabled() && epoch % 2 == 1;
        let t = Instant::now();
        let commit = || q.try_apply_batch_durable(&ins, &ret, &gov);
        let (applied, commit_done, holds) = if traced {
            tracer.span("commit", 0, epoch, |id| {
                let applied = tracer.span("query.try_apply_batch_durable", id, epoch, |_| commit());
                let commit_done = Instant::now();
                let holds = tracer.span("query.incremental_holds", id, epoch, |_| {
                    q.incremental_holds()
                });
                (applied, commit_done, holds)
            })
        } else {
            let applied = commit();
            (applied, Instant::now(), q.incremental_holds())
        };
        let end = Instant::now();
        l.commit_ms.push(ms(commit_done - t));
        let op = (end - t).as_secs_f64();
        l.ops.push((1.0, op));
        if traced {
            l.traced_ms.push(op * 1e3);
        } else {
            l.untraced_ms.push(op * 1e3);
        }
        l.attempted += 1;
        if applied.is_err() || holds != Some(stream.goal_holds()) {
            l.failed += 1;
        }
        l.batches.push((ins, ret));
        between();
    }
    l
}

/// Runs the workload.
pub fn run(settings: &Settings, tracer: &Tracer) -> Result<Outcome, String> {
    let mut setups = 0;
    // Fields drop in order, so a repeated set-up closes its store before
    // its directory is removed.
    let ((mut stream, template, q, dir), mut setup) = SetupTimer::first(settings, || {
        let (stream, template) = Stream::new(settings);
        setups += 1;
        let dir = StoreDir(fresh_dir(settings, &format!("setup{setups}")));
        let q = query(stream.goal);
        q.open_durable(&template, &dir.0)
            .map_err(|e| format!("open_durable on a fresh directory failed: {e}"))?;
        Ok((stream, template, q, dir))
    })?;
    let mut digest = Digest::default();
    digest.structure(&template);
    digest.word(stream.goal[0] as u64);
    digest.word(stream.goal[1] as u64);

    let budget = if settings.trace {
        settings.seconds * 0.4
    } else {
        settings.seconds
    };
    let mut pacer = Pacer::default();
    let l = closed_loop(&q, &mut stream, tracer, budget, &mut || {
        setup.tick();
        pacer.rest();
    });
    let setup_s = setup.finish()?;
    let mut failed_checks = Vec::new();

    // The maintained goal against a from-scratch run on the final EDB.
    let live = q.incremental_holds();
    let final_edb = stream.structure(&template);
    let tc = transitive_closure();
    let scratch = Evaluator::new(&tc)
        .run(&final_edb, EvalOptions::default())
        .goal_relation(&tc)
        .contains(&stream.goal);
    if live != Some(scratch) {
        failed_checks.push(format!("maintained goal {live:?}, from-scratch {scratch}"));
    }
    let epoch = l.batches.len() as u64 + 1;
    let opts = options(&q);
    drop(q);

    // Recovery: reopen the final directory; the recovered state must be
    // the live one.
    let mut recovery_ms = Samples::new();
    let mut stores_replayed = 0;
    for _ in 0..if settings.trace { REOPENS } else { 1 } {
        let reopened = query(stream.goal);
        let t = Instant::now();
        let report = tracer.span("query.open_durable", 0, epoch, |_| {
            reopened.open_durable(&template, &dir.0)
        });
        recovery_ms.push(ms(t.elapsed()));
        match report {
            Ok(r) => {
                stores_replayed = r.stores_replayed;
                let holds = reopened.incremental_holds();
                if r.recovered_epoch != epoch || holds != live {
                    failed_checks.push(format!(
                        "recovered epoch {} holds {holds:?}, live epoch {epoch} holds {live:?}",
                        r.recovered_epoch
                    ));
                }
            }
            Err(e) => failed_checks.push(format!("reopen failed: {e}")),
        }
    }
    drop(dir);

    let mut metrics = Metrics::new();
    if settings.trace {
        metrics.put(
            "trace.overhead_frac",
            ratio(l.traced_ms.median(), l.untraced_ms.median()),
            "ratio",
        );
        metrics.timing("durable.recovery_ms", &recovery_ms, "ms");
        metrics.put("durable.stores_replayed", stores_replayed as f64, "count");
        let peel_dir = fresh_dir(settings, "peel");
        let result = peel(&template, &l, opts, &peel_dir, &mut metrics);
        remove_dir(&peel_dir);
        if let Err(e) = result {
            failed_checks.push(e);
        }
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("throughput_per_s", windowed_rate(&l.ops, WINDOW), "1/s");
        metrics.put("latency_p50_ms", l.commit_ms.median(), "ms");
    }
    Ok(Outcome {
        attempted: l.attempted,
        failed: l.failed,
        failed_checks,
        metrics,
        input_digest: digest.value(),
    })
}

/// The layer peel: the run's first batches again through
/// `DurableEngine::apply_batch` (fresh directory) and
/// `IncrementalEngine::apply_batch`, with the same options the query
/// used. A layer's self time is its median minus the median of the layer
/// below on the same batches.
fn peel(
    template: &Structure,
    l: &Loop,
    opts: EvalOptions,
    dir: &Path,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let tc = transitive_closure();
    let batches = &l.batches[..l.batches.len().min(PEEL_BATCHES)];
    let mut pacer = Pacer::default();
    let mut initial: Vec<Fact> = Vec::new();
    for t in template.relation(RelId(0)).iter() {
        initial.push((RelId(0), t.to_vec()));
    }

    let mut durable = DurableEngine::open(&tc, template, opts, dir, DurabilityOptions::default())
        .map_err(|e| format!("peel: open failed: {e}"))?;
    durable
        .apply_batch(&initial, &[])
        .map_err(|e| format!("peel: initial batch failed: {e}"))?;
    let mut durable_ms = Vec::with_capacity(batches.len());
    let mut checkpointed = Vec::with_capacity(batches.len());
    let (mut wal_bytes, mut user_bytes) = (0u64, 0u64);
    for (ins, ret) in batches {
        let before = durable.flush_stats();
        let t = Instant::now();
        durable
            .apply_batch(ins, ret)
            .map_err(|e| format!("peel: durable batch failed: {e}"))?;
        durable_ms.push(ms(t.elapsed()));
        pacer.rest();
        let after = durable.flush_stats();
        checkpointed.push(after.checkpoints > before.checkpoints);
        // A checkpoint starts a fresh WAL, whose byte count restarts.
        wal_bytes +=
            if after.wal_bytes >= before.wal_bytes && after.checkpoints == before.checkpoints {
                after.wal_bytes - before.wal_bytes
            } else {
                after.wal_bytes
            };
        user_bytes += ins
            .iter()
            .chain(ret)
            .map(|(_, t)| 4 * t.len() as u64)
            .sum::<u64>();
    }

    let (mut engine, _) = IncrementalEngine::from_structure(&tc, template, opts);
    let mut incr_ms = Vec::with_capacity(batches.len());
    let (mut delta, mut deleted, mut rederived) = (0u64, 0u64, 0u64);
    for (ins, ret) in batches {
        let t = Instant::now();
        let summary = engine.apply_batch(ins, ret);
        incr_ms.push(ms(t.elapsed()));
        pacer.rest();
        delta += summary.delta_tuples;
        deleted += summary.deleted_tuples;
        rederived += summary.rederived_tuples;
    }

    // Both maintained goal relations against a from-scratch run.
    let scratch = Evaluator::new(&tc).run(&engine.edb_structure(), EvalOptions::default());
    let expected: HashSet<Vec<Element>> = scratch
        .goal_relation(&tc)
        .iter()
        .map(|t| t.to_vec())
        .collect();
    for (layer, store) in [
        ("incremental", engine.idb_store(engine.goal())),
        ("durable", durable.engine().idb_store(engine.goal())),
    ] {
        let got: HashSet<Vec<Element>> = store.live_iter().map(|t| t.to_vec()).collect();
        if got != expected {
            return Err(format!(
                "peel: {layer} goal has {} tuples, from-scratch {}",
                got.len(),
                expected.len()
            ));
        }
    }

    let pick = |times: &[f64], ckpt: bool| -> Samples {
        times
            .iter()
            .zip(&checkpointed)
            .filter(|(_, &c)| c == ckpt)
            .map(|(&t, _)| t)
            .collect()
    };
    let query_ms: Samples = l.commit_ms.values()[..batches.len()]
        .iter()
        .copied()
        .collect();
    let durable_all: Samples = durable_ms.iter().copied().collect();
    let incr_all: Samples = incr_ms.iter().copied().collect();
    metrics.timing("query.apply_durable_ms", &query_ms, "ms");
    metrics.put(
        "query.apply_durable_self_ms",
        query_ms.median() - durable_all.median(),
        "ms",
    );
    metrics.timing("durable.apply_ms", &durable_all, "ms");
    metrics.put(
        "durable.wal_self_ms",
        pick(&durable_ms, false).median() - pick(&incr_ms, false).median(),
        "ms",
    );
    metrics.put(
        "durable.checkpoint_ms",
        pick(&durable_ms, true).median() - pick(&incr_ms, true).median(),
        "ms",
    );
    let stats = durable.flush_stats();
    metrics.put(
        "durable.wal_bytes_per_user_byte",
        ratio(wal_bytes as f64, user_bytes as f64),
        "ratio",
    );
    metrics.put(
        "durable.checkpoint_bytes",
        ratio(stats.checkpoint_bytes as f64, stats.checkpoints as f64),
        "bytes",
    );
    metrics.timing("incremental.apply_ms", &incr_all, "ms");
    metrics.put("incremental.delta_tuples", delta as f64, "count");
    metrics.put("incremental.deleted_tuples", deleted as f64, "count");
    metrics.put("incremental.rederived_tuples", rederived as f64, "count");
    metrics.put(
        "incremental.rederive_frac",
        ratio(rederived as f64, deleted as f64),
        "ratio",
    );
    Ok(())
}
