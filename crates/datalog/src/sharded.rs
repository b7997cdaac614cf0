//! Sharded (hash-partitioned, owner-computes) stage execution.
//!
//! Sharding partitions each stage's *delta* across `W` workers by tuple
//! ownership — [`kv_structures::shard_of`] over one planner-chosen key
//! position per predicate — instead of partitioning rules. This module
//! holds the sharding decisions; the stages themselves run in the one
//! stage executor (`crate::stage`), where sharding differs from the
//! threaded scheme only in how work is partitioned. Every worker runs the
//! full live-rule set of the stage, but its `JoinCtx` narrows each pinned
//! `Δ` window to the worker's owner sub-range, so the workers' derivation sets partition the
//! stage's derivations exactly (each semi-naive variant pins exactly one
//! delta atom, and each delta tuple has exactly one owner). Derived tuples
//! are then routed *by the owner of the derived tuple* (`route_worker`):
//! tuples a worker owns stay local, the rest cross workers at the stage
//! barrier. The executor's merge drains the routes in (owner, sender)
//! order, which keeps every committed delta owner-contiguous — the next
//! stage's sub-ranges are just id ranges, returned by the merge, and
//! resuming from a checkpoint recomputes them by scanning owners
//! (`delta_ranges`).
//!
//! The global stage loop — and with it the paper's Theorem 3.6 stage
//! semantics — is untouched: the stage barrier is the only synchronization
//! point, the merge is still a union (counting supports in maintenance),
//! and the committed stage sets are
//! identical for every `W` (pinned by `tests/sharded.rs` across programs ×
//! lowerings × magic binding patterns × W ∈ {1, 2, 4, 8}).

use crate::ast::{Pred, Term};
use crate::eval::{CompiledRule, IdbAccess, WorkerBuf};
use kv_structures::shard::{shard_of, ShardKey};
use kv_structures::{CardStats, IdRange, TupleStore};

/// Aggregate statistics of one sharded run, surfaced on
/// [`EvalResult`](crate::EvalResult) (and folded into bench reports as
/// `exchanged_tuples` / `shard_skew_pct`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Worker (shard) count the run executed with.
    pub workers: usize,
    /// The shard key position chosen per IDB predicate.
    pub idb_keys: Vec<usize>,
    /// Tuples that crossed worker boundaries through the delta exchange.
    pub exchanged_tuples: u64,
    /// Delta tuples merged under each worker's ownership, across all
    /// stages — the load-balance signal behind
    /// [`skew_pct`](Self::skew_pct).
    pub owned: Vec<u64>,
    /// Semi-naive rule variants whose head lands on the same owner as
    /// their delta seed (no exchange needed).
    pub local_variants: usize,
    /// Semi-naive rule variants that must route derivations through the
    /// exchange.
    pub exchange_variants: usize,
}

impl ShardStats {
    /// Load skew: how far the most loaded worker sits above the mean, in
    /// percent (0 = perfectly balanced).
    pub fn skew_pct(&self) -> f64 {
        let total: u64 = self.owned.iter().sum();
        let max = self.owned.iter().copied().max().unwrap_or(0);
        if total == 0 || self.workers == 0 {
            return 0.0;
        }
        let avg = total as f64 / self.workers as f64;
        (max as f64 / avg - 1.0) * 100.0
    }
}

/// The shard-key assignment for one run: one key position per IDB and per
/// EDB predicate, plus per-variant locality verdicts.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    pub(crate) idb_keys: Vec<ShardKey>,
    pub(crate) edb_keys: Vec<ShardKey>,
    /// Per semi-naive variant: does its head land on its delta seed's
    /// owner (derivations never cross the exchange)?
    pub(crate) local: Vec<bool>,
}

/// The pinned delta atom of a semi-naive variant (each variant has at most
/// one; naive and fact rules have none).
pub(crate) fn delta_atom(rule: &CompiledRule) -> Option<&crate::eval::JoinAtom> {
    rule.atoms.iter().find(|a| a.access == IdbAccess::Delta)
}

/// Whether `rule`'s derivations stay on their delta seed's owner under the
/// given key assignment: the head's key-position argument is the same
/// variable as the delta atom's key-position argument, so both hash to the
/// same worker.
fn rule_is_local(rule: &CompiledRule, idb_keys: &[ShardKey], edb_keys: &[ShardKey]) -> bool {
    let Some(delta) = delta_atom(rule) else {
        return false;
    };
    let delta_key = match delta.pred {
        Pred::Idb(i) => idb_keys[i.0],
        Pred::Edb(r) => edb_keys[r.0],
    };
    let head_key = idb_keys[rule.head.0];
    match (
        rule.head_args.get(head_key.pos),
        delta.args.get(delta_key.pos),
    ) {
        (Some(Term::Var(h)), Some(Term::Var(d))) => h == d,
        _ => false,
    }
}

/// Estimated distinct values flowing into head position `pos` of `pred`'s
/// variants: the widest EDB posting feeding that head variable. Used as a
/// balance tie-break — a key position with more distinct values spreads
/// tuples across more workers.
fn distinct_estimate(
    variants: &[&CompiledRule],
    pred: usize,
    pos: usize,
    edb_stats: &[CardStats],
) -> usize {
    let mut best = 0usize;
    for rule in variants {
        if rule.head.0 != pred {
            continue;
        }
        let Some(Term::Var(v)) = rule.head_args.get(pos) else {
            continue;
        };
        for atom in &rule.atoms {
            let Pred::Edb(r) = atom.pred else { continue };
            for (q, arg) in atom.args.iter().enumerate() {
                if arg == &Term::Var(*v) {
                    if let Some(stats) = edb_stats.get(r.0) {
                        best = best.max(stats.distinct.get(q).copied().unwrap_or(0));
                    }
                }
            }
        }
    }
    best
}

/// Chooses shard keys for every predicate: a pure function of the compiled
/// variants and the EDB statistics (so interrupted runs re-derive the
/// identical plan on resume). Greedy coordinate ascent — for each
/// predicate pick the position making the most producing variants local
/// under the current assignment, tie-broken toward higher estimated
/// distinct counts — iterated a few sweeps so locality decisions
/// propagate through predicate dependencies.
pub(crate) fn choose_plan(
    semi_variants: &[CompiledRule],
    edb_variants: &[CompiledRule],
    idb_arities: &[usize],
    edb_arities: &[usize],
    edb_stats: &[CardStats],
) -> ShardPlan {
    let all: Vec<&CompiledRule> = semi_variants.iter().chain(edb_variants).collect();
    let mut idb_keys: Vec<ShardKey> = idb_arities.iter().map(|_| ShardKey::FALLBACK).collect();
    // EDB keys: start from the widest position (best balance); refined
    // below only for relations that seed delta variants.
    let mut edb_keys: Vec<ShardKey> = edb_arities
        .iter()
        .enumerate()
        .map(|(r, &arity)| {
            let pos = (0..arity)
                .max_by_key(|&p| edb_stats.get(r).map_or(0, |s| s.distinct[p]))
                .unwrap_or(0);
            ShardKey::at(pos)
        })
        .collect();
    for _sweep in 0..3 {
        for (p, &arity) in idb_arities.iter().enumerate() {
            if arity == 0 {
                continue;
            }
            let mut best = (0usize, 0usize, ShardKey::FALLBACK.pos);
            for pos in 0..arity {
                let mut trial = idb_keys.clone();
                trial[p] = ShardKey::at(pos);
                let local = all
                    .iter()
                    .filter(|r| r.head.0 == p && rule_is_local(r, &trial, &edb_keys))
                    .count();
                let spread = distinct_estimate(&all, p, pos, edb_stats);
                if (local, spread) > (best.0, best.1) {
                    best = (local, spread, pos);
                }
            }
            idb_keys[p] = ShardKey::at(best.2);
        }
        for rule in &all {
            // Align each delta-seeding EDB relation's key with the head
            // key of the variant it seeds, when that makes the variant
            // local and no earlier variant claimed a conflicting position.
            let Some(delta) = delta_atom(rule) else {
                continue;
            };
            let Pred::Edb(r) = delta.pred else { continue };
            let Some(Term::Var(h)) = rule.head_args.get(idb_keys[rule.head.0].pos) else {
                continue;
            };
            if let Some(pos) = delta.args.iter().position(|arg| arg == &Term::Var(*h)) {
                edb_keys[r.0] = ShardKey::at(pos);
            }
        }
    }
    let local = semi_variants
        .iter()
        .map(|r| rule_is_local(r, &idb_keys, &edb_keys))
        .collect();
    ShardPlan {
        idb_keys,
        edb_keys,
        local,
    }
}

/// Mutable sharded-run state carried across stages by the stage executor.
#[derive(Debug, Clone)]
pub(crate) struct ShardState {
    pub(crate) workers: usize,
    pub(crate) plan: ShardPlan,
    /// `ranges[w][pred]`: worker `w`'s owned sub-range of each IDB's
    /// current delta window. Owner-contiguous by construction of the
    /// merge; recomputed by owner scan when resuming from a checkpoint.
    pub(crate) ranges: Vec<Vec<IdRange>>,
    /// `edb_ranges[w][rel]`: worker `w`'s owned sub-range of each EDB
    /// relation's batch-insertion window (incremental maintenance only;
    /// empty from scratch, where EDB atoms have no delta window).
    pub(crate) edb_ranges: Vec<Vec<IdRange>>,
    /// Tuples merged under each worker's ownership, across stages.
    pub(crate) owned: Vec<u64>,
    /// Tuples that crossed worker boundaries at stage barriers.
    pub(crate) exchanged: u64,
}

impl ShardState {
    /// Sharded-run state over committed stores: each delta window's owner
    /// sub-ranges are recovered by scanning owners — the IDB windows
    /// `[delta_lo, len)`, and with `edb` the EDB insertion windows too.
    pub(crate) fn new(
        workers: usize,
        plan: ShardPlan,
        idb: &[&TupleStore],
        delta_lo: &[u32],
        edb: Option<(&[&TupleStore], &[u32])>,
    ) -> Self {
        let ranges = delta_ranges(idb, delta_lo, &plan.idb_keys, workers);
        let edb_ranges = edb.map_or_else(Vec::new, |(stores, lo)| {
            delta_ranges(stores, lo, &plan.edb_keys, workers)
        });
        ShardState {
            workers,
            plan,
            ranges,
            edb_ranges,
            owned: vec![0; workers],
            exchanged: 0,
        }
    }

    pub(crate) fn stats(&self) -> ShardStats {
        let local_variants = self.plan.local.iter().filter(|&&l| l).count();
        ShardStats {
            workers: self.workers,
            idb_keys: self.plan.idb_keys.iter().map(|k| k.pos).collect(),
            exchanged_tuples: self.exchanged,
            owned: self.owned.clone(),
            local_variants,
            exchange_variants: self.plan.local.len() - local_variants,
        }
    }

    /// Folds a stage's committed owner ranges into the per-worker load
    /// counters, installs them as the next stage's delta sub-ranges, and
    /// adds the stage's exchange traffic.
    pub(crate) fn commit_stage(&mut self, next: Vec<Vec<IdRange>>, exchanged: u64) {
        self.exchanged += exchanged;
        for (w, per_pred) in next.iter().enumerate() {
            self.owned[w] += per_pred
                .iter()
                .map(|r| u64::from(r.end.saturating_sub(r.start)))
                .sum::<u64>();
        }
        self.ranges = next;
    }
}

/// Splits each store's delta window `[delta_lo, len)` into per-worker
/// owner sub-ranges. Deltas committed by a sharded merge are
/// owner-contiguous, so the scan finds monotone owner boundaries; a delta
/// committed by some *other* configuration (an unsharded checkpoint, a
/// different W) falls back to assigning the whole window to worker 0 —
/// correct for one stage, after which the merge restores owner order.
fn delta_ranges(
    stores: &[&TupleStore],
    delta_lo: &[u32],
    keys: &[ShardKey],
    workers: usize,
) -> Vec<Vec<IdRange>> {
    let mut ranges = vec![vec![IdRange { start: 0, end: 0 }; stores.len()]; workers];
    for (p, store) in stores.iter().enumerate() {
        let lo = delta_lo[p];
        let hi = store.len() as u32;
        // Owner boundaries: cuts[w] is the first id owned by a worker > w.
        let mut cuts = vec![hi; workers];
        let mut prev_owner = 0usize;
        let mut monotone = true;
        for id in lo..hi {
            let owner = shard_of(store.get(kv_structures::TupleId(id)), keys[p], workers);
            if owner < prev_owner {
                monotone = false;
                break;
            }
            while prev_owner < owner {
                cuts[prev_owner] = id;
                prev_owner += 1;
            }
        }
        if monotone {
            let mut start = lo;
            for w in 0..workers {
                let end = cuts[w];
                ranges[w][p] = IdRange { start, end };
                start = end;
            }
        } else {
            // Foreign delta order: worker 0 owns everything this stage.
            ranges[0][p] = IdRange { start: lo, end: hi };
            for row in ranges.iter_mut().skip(1) {
                row[p] = IdRange { start: hi, end: hi };
            }
        }
    }
    ranges
}

/// One worker's routed stage output: `routes[pred][owner]` lists the ids
/// of the worker's scratch-arena tuples that `owner` owns, in arena order.
pub(crate) type Routes = Vec<Vec<Vec<u32>>>;

/// Partitions a worker's scratch arenas by the owner of each derived
/// tuple (nullary tuples belong to worker 0). Runs inside the worker
/// (before the stage barrier), so routing itself is parallel; the scratch
/// arena already deduplicated this worker's derivations, so each tuple
/// crosses the exchange at most once per worker.
pub(crate) fn route_worker(buf: &WorkerBuf, keys: &[ShardKey], workers: usize) -> Routes {
    buf.scratch
        .iter()
        .zip(keys)
        .map(|(scratch, &key)| {
            let mut per_owner = vec![Vec::new(); workers];
            for (id, tuple) in scratch.iter().enumerate() {
                per_owner[shard_of(tuple, key, workers)].push(id as u32);
            }
            per_owner
        })
        .collect()
}
