//! The semi-naive stage executor: one stage `Θ^{n+1}` from the committed
//! `Θ^n`, shared by from-scratch evaluation (`CompiledProgram`'s governed
//! runs) and incremental maintenance (`IncrementalEngine`'s insertion
//! pass).
//!
//! [`StageExec::new`] prepares the position indexes once per run. Each
//! [`StageExec::run_stage`] filters the live rule variants, dispatches them
//! to workers (which intern candidate heads into private scratch arenas),
//! flushes the workers' pending governor steps, aborts the stage whole on
//! any trip, folds the worker counters, merges, commits (delta marks,
//! indexes, Bloom filters) and finally charges the tuple/byte budgets —
//! after the commit, so a budget trip keeps the stage.
//!
//! From scratch, EDB atoms probe the structure's shared per-relation
//! [`FrozenIndex`](kv_structures::FrozenIndex) cache, so a run over a
//! structure that was evaluated before builds no EDB index; maintenance
//! and every IDB get growable indexes built by the run.
//!
//! The two parallel schemes differ only in how work is partitioned:
//! threads deal rule variants round-robin; shards ([`EvalOptions::shards`])
//! run every delta-pinned variant on every worker over its owner sub-range
//! of the delta windows and route each derived tuple to its owner. With
//! the default thread count, a stage whose input delta is below
//! [`FAN_OUT_MIN_DELTA`] runs inline on the calling thread. The
//! merge mode — set union into [`TupleStore`]s or support counting into
//! [`MutableStore`]s — is the [`StageSink`] the caller passes. The one
//! [`merge`] serves all four combinations and keeps every committed delta
//! owner-contiguous, handing the next sharded stage its sub-ranges.

use crate::ast::Pred;
use crate::eval::{
    evaluate_rule, CompiledRule, EvalOptions, IdbAccess, JoinAtom, JoinCtx, StageIndex, WorkerBuf,
};
use crate::sharded::{self, Routes, ShardState};
use kv_structures::govern::{Governor, Interrupted};
use kv_structures::par::{par_workers, thread_count};
use kv_structures::store::{
    tuple_hash, EvalStats, IdRange, PosIndex, TupleBloom, TupleId, TupleStore,
};
use kv_structures::{Element, InsertOutcome, MutableStore, PlannerMode, Relation, Structure};

/// An IDB store a stage merges into: [`TupleStore`] for set-union merges,
/// [`MutableStore`] for counting merges that credit every derivation to
/// the derived tuple's support.
pub(crate) trait StageSink {
    /// The store the stage's workers read.
    fn store(&self) -> &TupleStore;
    /// Merges a tuple derived `count` times; `true` if it is new.
    fn absorb(&mut self, tuple: &[Element], count: u32) -> bool;
}

impl StageSink for TupleStore {
    fn store(&self) -> &TupleStore {
        self
    }

    fn absorb(&mut self, tuple: &[Element], _count: u32) -> bool {
        self.intern(tuple).1
    }
}

impl StageSink for MutableStore {
    fn store(&self) -> &TupleStore {
        MutableStore::store(self)
    }

    fn absorb(&mut self, tuple: &[Element], count: u32) -> bool {
        match self.insert_with_support(tuple, count) {
            InsertOutcome::Fresh(_) => true,
            InsertOutcome::Bumped(_) => false,
            InsertOutcome::Revived(_) => {
                debug_assert!(false, "no dead tuples during insertion");
                false
            }
        }
    }
}

/// What one stage committed.
pub(crate) struct StageCommit {
    /// Tuples first derived by the stage, per IDB predicate; all zero at
    /// the fixpoint, where nothing is committed.
    pub(crate) new_tuples: Vec<usize>,
    /// The tuple/byte budget verdict, charged after the commit: on `Some`
    /// the stage is committed and the run must stop.
    pub(crate) over_budget: Option<Interrupted>,
}

impl StageCommit {
    /// Whether the stage derived nothing new (the fixpoint).
    pub(crate) fn is_fixpoint(&self) -> bool {
        self.new_tuples.iter().all(|&c| c == 0)
    }
}

/// The per-run state of the stage executor: the EDB stores and every
/// position index, plus the work-partitioning scheme.
pub(crate) struct StageExec<'a> {
    structure: &'a Structure,
    idb_arities: Vec<usize>,
    edb: Vec<&'a TupleStore>,
    edb_idx: Vec<Vec<StageIndex<'a>>>,
    idb_idx: Vec<Vec<StageIndex<'a>>>,
    /// Incremental maintenance: the batch's EDB delta marks. Setting them
    /// gives EDB atoms old/delta/full windows, runs the workers in counting
    /// mode, and checks liveness on every atom. `None` from scratch.
    edb_delta_lo: Option<&'a [u32]>,
    /// Bloom pre-filters over each IDB's committed tuples (cost-based
    /// from-scratch runs only).
    blooms: Option<Vec<TupleBloom>>,
    /// Cost-based runs: batched-kernel bookkeeping in the joins.
    batched: bool,
    /// Worker threads for unsharded stages (capped by the live variants).
    threads: usize,
    /// The smallest stage input that fans out over `threads`: 0 when the
    /// caller pinned the thread count, [`FAN_OUT_MIN_DELTA`] otherwise.
    fan_out_min: u64,
    shard: Option<&'a mut ShardState>,
}

/// When [`EvalOptions::threads`] is `None`, an unsharded stage fans out
/// over threads only if its input — the tuples in its IDB delta windows
/// plus the batch's EDB insertions — reaches this many tuples; smaller
/// stages run inline on the calling thread. Below it, spawning a thread
/// costs more than the stage's join work on a 2-CPU host (see the
/// crossover measurement in CHANGES.md).
const FAN_OUT_MIN_DELTA: u64 = 1024;

/// One growable position index per planned position of each store, built
/// over the store's current contents.
fn build_indexes<'s, 'a>(
    stores: impl Iterator<Item = &'s TupleStore>,
    positions: &[Vec<usize>],
) -> Vec<Vec<StageIndex<'a>>> {
    stores
        .zip(positions)
        .map(|(store, positions)| {
            positions
                .iter()
                .map(|&p| {
                    let mut ix = PosIndex::new(p);
                    ix.update(store);
                    StageIndex::Grown(ix)
                })
                .collect()
        })
        .collect()
}

/// A Bloom filter over every tuple of `store`.
fn bloom_of(store: &TupleStore, capacity: usize) -> TupleBloom {
    let mut bloom = TupleBloom::with_capacity(capacity);
    for t in store.iter() {
        bloom.insert(tuple_hash(t));
    }
    bloom
}

/// Whether an id window `old = [0, lo)`, `delta = [lo, hi)` or
/// `full = [0, hi)` is non-empty.
fn window_nonempty(access: IdbAccess, lo: u32, hi: u32) -> bool {
    match access {
        IdbAccess::Old => lo > 0,
        IdbAccess::Delta => lo < hi,
        IdbAccess::Full => hi > 0,
    }
}

impl<'a> StageExec<'a> {
    /// Prepares the indexes the rules will probe — `positions` is the
    /// `(edb, idb)` index plan. From scratch (`maintained` is `None`) the
    /// EDB is `structure`'s own relations, probed through their shared
    /// [`Relation::pos_index`](kv_structures::Relation::pos_index) cache,
    /// so a run builds no EDB index its structure already has.
    /// Maintenance passes the engine's EDB stores with the batch's delta
    /// marks and gets growable indexes over them. IDB indexes are built
    /// over the committed `idb` stores; resumed runs rebuild them
    /// identically from the checkpoint.
    pub(crate) fn new<S: StageSink>(
        structure: &'a Structure,
        options: &EvalOptions,
        maintained: Option<(Vec<&'a TupleStore>, &'a [u32])>,
        idb: &[S],
        positions: (&[Vec<usize>], &[Vec<usize>]),
        shard: Option<&'a mut ShardState>,
    ) -> Self {
        let batched = options.planner == PlannerMode::CostBased;
        let (edb, edb_idx, edb_delta_lo) = match maintained {
            Some((edb, lo)) => {
                let idx = build_indexes(edb.iter().copied(), positions.0);
                (edb, idx, Some(lo))
            }
            None => {
                let relations: Vec<&Relation> = structure
                    .vocabulary()
                    .relations()
                    .map(|r| structure.relation(r))
                    .collect();
                let idx = relations
                    .iter()
                    .zip(positions.0)
                    .map(|(rel, ps)| {
                        ps.iter()
                            .map(|&p| StageIndex::Shared(rel.pos_index(p)))
                            .collect()
                    })
                    .collect();
                (relations.iter().map(|r| r.store()).collect(), idx, None)
            }
        };
        let blooms = (batched && edb_delta_lo.is_none()).then(|| {
            idb.iter()
                .map(|s| bloom_of(s.store(), s.store().len().max(64) * 2))
                .collect()
        });
        StageExec {
            structure,
            idb_arities: idb.iter().map(|s| s.store().arity()).collect(),
            edb_idx,
            idb_idx: build_indexes(idb.iter().map(S::store), positions.1),
            edb,
            edb_delta_lo,
            blooms,
            batched,
            threads: if options.parallel {
                options.threads.unwrap_or_else(thread_count)
            } else {
                1
            },
            fan_out_min: if options.threads.is_some() {
                0
            } else {
                FAN_OUT_MIN_DELTA
            },
            shard,
        }
    }

    /// The stage's input: the tuples in the IDB delta windows plus the
    /// batch's EDB insertions (none from scratch).
    fn input_delta(&self, prev_len: &[u32], delta_lo: &[u32]) -> u64 {
        let idb: u64 = prev_len
            .iter()
            .zip(delta_lo)
            .map(|(&hi, &lo)| u64::from(hi - lo))
            .sum();
        let edb: u64 = self.edb_delta_lo.map_or(0, |lo| {
            self.edb
                .iter()
                .zip(lo)
                .map(|(s, &lo)| s.len() as u64 - u64::from(lo))
                .sum()
        });
        idb + edb
    }

    /// Whether `rule` can derive anything this stage. A variant with an
    /// empty window derives nothing (and so credits no support), so
    /// maintenance and cost-based runs skip every variant with *any* empty
    /// window — whole rule groups of not-yet-populated or converged SCCs —
    /// before a single probe. Textual from-scratch runs check only a
    /// leading delta atom, which keeps their counters byte-identical to the
    /// historical engine. From scratch, EDB atoms read their whole store
    /// and always count as live.
    fn live(&self, rule: &CompiledRule, prev_len: &[u32], delta_lo: &[u32]) -> bool {
        let nonempty = |atom: &JoinAtom| match atom.pred {
            Pred::Idb(i) => window_nonempty(atom.access, delta_lo[i.0], prev_len[i.0]),
            Pred::Edb(r) => match self.edb_delta_lo {
                Some(lo) => window_nonempty(atom.access, lo[r.0], self.edb[r.0].len() as u32),
                None => true,
            },
        };
        if self.edb_delta_lo.is_some() || self.batched {
            rule.atoms.iter().all(nonempty)
        } else {
            match rule.atoms.first() {
                Some(first) if first.access == IdbAccess::Delta => nonempty(first),
                _ => true,
            }
        }
    }

    /// Runs one stage of `rules` over the committed `idb` stores (delta
    /// windows `[delta_lo, len)`), folding its counters into `stats`.
    ///
    /// `Err` means a worker (or its final step flush) tripped the
    /// governor: the stage is discarded whole — stores, delta marks and
    /// `stats` are untouched — and is recomputed on resume.
    pub(crate) fn run_stage<'r, S: StageSink>(
        &mut self,
        rules: impl IntoIterator<Item = &'r CompiledRule>,
        idb: &mut [S],
        delta_lo: &mut [u32],
        stats: &mut EvalStats,
        gov: &Governor,
    ) -> Result<StageCommit, Interrupted> {
        let prev_len: Vec<u32> = idb.iter().map(|s| s.store().len() as u32).collect();
        let live: Vec<&CompiledRule> = rules
            .into_iter()
            .filter(|r| self.live(r, &prev_len, delta_lo))
            .collect();
        let mut outputs = self.dispatch(&live, idb, &prev_len, delta_lo, gov);
        for (buf, _) in &mut outputs {
            if buf.tripped.is_none() && buf.pending_steps > 0 {
                buf.tripped = gov.step(buf.pending_steps).err();
                buf.pending_steps = 0;
            }
        }
        // A tripped worker aborts the stage: scratch arenas, routes and
        // counters are dropped, so a checkpoint never carries in-flight
        // derivations.
        if let Some(reason) = outputs.iter().find_map(|(b, _)| b.tripped) {
            return Err(reason);
        }
        for (buf, _) in &outputs {
            stats.join_probes += buf.probes;
            stats.magic_probes += buf.magic_probes;
            stats.block_probes += buf.block_probes;
            stats.gallop_steps += buf.gallop_steps;
            stats.wcoj_rules += buf.wcoj_rules;
            stats.duplicate_derivations += buf.dups;
        }
        let owners = self.shard.as_ref().map_or(1, |s| s.workers);
        let (new_tuples, next_ranges, exchanged) =
            merge(idb, &outputs, owners, &mut stats.duplicate_derivations);
        if let Some(state) = self.shard.as_deref_mut() {
            state.commit_stage(next_ranges, exchanged);
        }
        let new_total: u64 = new_tuples.iter().map(|&c| c as u64).sum();
        let mut over_budget = None;
        if new_total > 0 {
            self.commit(idb, delta_lo, &prev_len);
            stats.tuples_interned += new_total;
            let new_bytes: u64 = new_tuples
                .iter()
                .zip(&self.idb_arities)
                .map(|(&c, &a)| c as u64 * a.max(1) as u64 * 4)
                .sum();
            over_budget = gov
                .charge_tuples(new_total)
                .and_then(|()| gov.charge_bytes(new_bytes))
                .err();
        }
        Ok(StageCommit {
            new_tuples,
            over_budget,
        })
    }

    /// Evaluates the live variants on the workers; each returns its buffer
    /// and, when sharded, its routes.
    fn dispatch<S: StageSink>(
        &self,
        live: &[&CompiledRule],
        idb: &[S],
        prev_len: &[u32],
        delta_lo: &[u32],
        gov: &Governor,
    ) -> Vec<(WorkerBuf, Option<Routes>)> {
        let shard = self.shard.as_deref();
        let workers = match shard {
            Some(s) => s.workers,
            None if self.input_delta(prev_len, delta_lo) < self.fan_out_min => 1,
            None => self.threads.min(live.len()).max(1),
        };
        let idb_refs: Vec<&TupleStore> = idb.iter().map(S::store).collect();
        par_workers(workers, |w| {
            let ctx = JoinCtx {
                structure: self.structure,
                edb: &self.edb,
                edb_idx: &self.edb_idx,
                idb: &idb_refs,
                idb_idx: &self.idb_idx,
                blooms: self.blooms.as_deref(),
                prev_len,
                delta_lo,
                edb_delta_lo: self.edb_delta_lo,
                idb_delta_sub: shard.map(|s| s.ranges[w].as_slice()),
                edb_delta_sub: shard.and_then(|s| s.edb_ranges.get(w)).map(Vec::as_slice),
                batched: self.batched,
                gov,
                seed: None,
                deleted: None,
            };
            let mut buf = WorkerBuf::new(&self.idb_arities, self.edb_delta_lo.is_some());
            for (ri, rule) in live.iter().enumerate() {
                // Shards split a delta-pinned variant by owner sub-range;
                // every other variant goes to exactly one worker.
                let split = shard.is_some() && sharded::delta_atom(rule).is_some();
                if !split && ri % workers != w {
                    continue;
                }
                if let Err(reason) = evaluate_rule(rule, &ctx, &mut buf) {
                    buf.tripped = Some(reason);
                    break;
                }
            }
            // Routing runs inside the worker, before the stage barrier.
            let routes = shard.map(|s| sharded::route_worker(&buf, &s.plan.idb_keys, workers));
            (buf, routes)
        })
    }

    /// Commits a merged stage: its tuples become the next delta window,
    /// and the indexes and Bloom filters extend over them.
    fn commit<S: StageSink>(&mut self, idb: &[S], delta_lo: &mut [u32], prev_len: &[u32]) {
        delta_lo.copy_from_slice(prev_len);
        for (sink, ixs) in idb.iter().zip(&mut self.idb_idx) {
            for ix in ixs {
                if let StageIndex::Grown(ix) = ix {
                    ix.update(sink.store());
                }
            }
        }
        // Rebuild any filter that grew past its useful load.
        if let Some(blooms) = self.blooms.as_mut() {
            for (i, sink) in idb.iter().enumerate() {
                let store = sink.store();
                if blooms[i].should_grow() {
                    blooms[i] = bloom_of(store, store.len() * 2);
                } else {
                    for id in delta_lo[i]..store.len() as u32 {
                        blooms[i].insert(tuple_hash(store.get(TupleId(id))));
                    }
                }
            }
        }
    }
}

/// The stage merge: interns every worker's scratch arenas into the shared
/// stores in (predicate, owner, sender) order. Unsharded outputs have one
/// owner and merge straight from the arenas; sharded outputs merge their
/// routed ids, so each owner's tuples land contiguously. A tuple derived
/// `c` times across workers is new at most once; the other derivations
/// count in `dups`. Returns the new-tuple counts, each owner's committed
/// id range (the next stage's delta sub-ranges), and how many routed
/// tuples crossed workers (nullary tuples always belong to worker 0 and
/// never count).
fn merge<S: StageSink>(
    idb: &mut [S],
    outputs: &[(WorkerBuf, Option<Routes>)],
    owners: usize,
    dups: &mut u64,
) -> (Vec<usize>, Vec<Vec<IdRange>>, u64) {
    let mut exchanged = 0u64;
    let mut new_tuples = vec![0usize; idb.len()];
    let mut ranges = vec![vec![IdRange { start: 0, end: 0 }; idb.len()]; owners];
    for (p, sink) in idb.iter_mut().enumerate() {
        for (owner, row) in ranges.iter_mut().enumerate() {
            let start = sink.store().len() as u32;
            for (sender, (buf, routes)) in outputs.iter().enumerate() {
                let scratch = &buf.scratch[p];
                let mut absorb = |id: usize, tuple: &[Element]| {
                    let count = if buf.counting {
                        buf.scratch_counts[p][id]
                    } else {
                        1
                    };
                    let fresh = sink.absorb(tuple, count);
                    new_tuples[p] += usize::from(fresh);
                    *dups += u64::from(count) - u64::from(fresh);
                };
                match routes {
                    None => {
                        for (id, tuple) in scratch.iter().enumerate() {
                            absorb(id, tuple);
                        }
                    }
                    Some(routes) => {
                        let ids = &routes[p][owner];
                        if sender != owner && scratch.arity() > 0 {
                            exchanged += ids.len() as u64;
                        }
                        for &id in ids {
                            absorb(id as usize, scratch.get(TupleId(id)));
                        }
                    }
                }
            }
            row[p] = IdRange {
                start,
                end: sink.store().len() as u32,
            };
        }
    }
    (new_tuples, ranges, exchanged)
}

#[cfg(test)]
mod tests {
    use super::FAN_OUT_MIN_DELTA;
    use crate::eval::{EvalOptions, Evaluator};
    use crate::magic::{BindingPattern, MagicProgram};
    use crate::parser::parse_program;
    use crate::programs::transitive_closure;
    use kv_structures::generators::random_digraph;
    use kv_structures::{FrozenIndex, RelId, Structure, Vocabulary};
    use std::sync::Arc;

    #[test]
    fn runs_over_one_structure_share_its_edb_indexes() {
        let program = transitive_closure();
        let s = random_digraph(40, 0.08, 5).to_structure();
        let e = s.relation(RelId(0));
        assert!((0..2).all(|p| e.built_index(p).is_none()));
        let eval = Evaluator::new(&program);
        let first = eval.run(&s, EvalOptions::default());
        let built: Vec<usize> = (0..2).filter(|&p| e.built_index(p).is_some()).collect();
        assert!(!built.is_empty(), "the run probes E through the cache");
        let ptrs: Vec<*const FrozenIndex> = built
            .iter()
            .map(|&p| e.built_index(p).unwrap() as *const FrozenIndex)
            .collect();
        // A second run, and a demand run of another program over the same
        // structure, borrow the same indexes instead of building new ones.
        let second = eval.run(&s, EvalOptions::default());
        assert_eq!(first.idb, second.idb);
        let magic = MagicProgram::rewrite(&program, &BindingPattern::all_bound(2)).unwrap();
        let seeds = vec![(magic.magic_goal(), magic.seed(&[0, 7]))];
        magic
            .compile()
            .try_run_seeded(&s, EvalOptions::default(), &seeds)
            .unwrap();
        for (&p, &ptr) in built.iter().zip(&ptrs) {
            assert!(std::ptr::eq(ptr, e.built_index(p).unwrap()), "position {p}");
        }
    }

    #[test]
    fn concurrent_first_runs_on_one_shared_structure_agree() {
        let program = transitive_closure();
        let s: Arc<Structure> = Arc::new(random_digraph(60, 0.05, 9).to_structure());
        let eval = Evaluator::new(&program);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = Arc::clone(&s);
                    let eval = &eval;
                    scope.spawn(move || eval.run(&s, EvalOptions::default()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let sequential = eval.run(
            &random_digraph(60, 0.05, 9).to_structure(),
            EvalOptions {
                parallel: false,
                ..EvalOptions::default()
            },
        );
        for r in &results {
            assert_eq!(r.idb, sequential.idb);
            assert!(r.same_stages(&sequential));
            assert_eq!(r.eval_stats, sequential.eval_stats);
        }
    }

    #[test]
    fn default_options_fan_out_large_stages_and_stay_stage_identical() {
        // Transitive closure with a left- and a right-linear recursive
        // rule, so every semi-naive stage deals two live variants, on a
        // 300-node random graph: the middle stages' deltas pass the
        // fan-out minimum and run threaded, the first and last stay under
        // it and run inline.
        let program = parse_program(
            "S(x, y) :- E(x, y).\n\
             S(x, y) :- E(x, z), S(z, y).\n\
             S(x, y) :- S(x, z), E(z, y).\n\
             ?- S.",
            Arc::new(Vocabulary::graph()),
        )
        .unwrap();
        let s = random_digraph(300, 0.006, 3).to_structure();
        let eval = Evaluator::new(&program);
        let default = eval.run(&s, EvalOptions::default());
        let deltas: Vec<u64> = default
            .stats
            .iter()
            .map(|st| st.new_tuples.iter().map(|&c| c as u64).sum())
            .collect();
        assert!(deltas.iter().any(|&d| d >= FAN_OUT_MIN_DELTA), "{deltas:?}");
        assert!(deltas.iter().any(|&d| d < FAN_OUT_MIN_DELTA), "{deltas:?}");
        let sequential = eval.run(
            &s,
            EvalOptions {
                parallel: false,
                ..EvalOptions::default()
            },
        );
        assert_eq!(default.idb, sequential.idb);
        assert!(default.same_stages(&sequential));
        assert_eq!(default.eval_stats, sequential.eval_stats);
    }
}
