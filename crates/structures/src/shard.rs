//! Hash-partitioned relation shards.
//!
//! Sharded evaluation partitions *ownership* of tuples across `W` workers
//! by hashing one planner-chosen key position (the [`ShardKey`]): worker
//! [`shard_of`]`(tuple, key, W)` owns the tuple. [`ShardedStore`] keeps
//! `W` hash-partitioned [`MutableStore`] shards, each with its own arena,
//! intern table, and id-space. Mutations route to the owning shard; every
//! tuple lives in exactly one shard (pinned by property tests). The
//! inter-worker delta exchange of sharded stages lives in the engine's
//! stage executor, which routes scratch-arena tuple ids by [`shard_of`].

use crate::mutable::{InsertOutcome, MutableStore, RetractOutcome};
use crate::store::mix64;
use crate::structure::Element;

/// The shard key of one relation: the tuple position whose value is hashed
/// to pick the owning worker. Chosen per predicate by the planner (from
/// [`CardStats`](crate::CardStats) distinct counts) to maximize join
/// locality; [`ShardKey::FALLBACK`] pins nullary and out-of-range cases to
/// worker 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKey {
    /// The hashed tuple position.
    pub pos: usize,
}

impl ShardKey {
    /// The key used when a relation has no usable position (nullary
    /// relations): everything routes to worker 0.
    pub const FALLBACK: ShardKey = ShardKey { pos: 0 };

    /// A key over position `pos`.
    pub fn at(pos: usize) -> Self {
        ShardKey { pos }
    }
}

/// The worker that owns `tuple` under `key` with `shards` workers.
///
/// Total and deterministic: nullary tuples (or a key position beyond the
/// arity) land on worker 0, everything else on
/// `splitmix64(tuple[key.pos]) % shards`. With `shards <= 1` the answer is
/// always 0, so a one-shard run is bit-identical to an unsharded one.
#[inline]
pub fn shard_of(tuple: &[Element], key: ShardKey, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    match tuple.get(key.pos) {
        None => 0,
        Some(&e) => (mix64(u64::from(e)) % shards as u64) as usize,
    }
}

/// `W` hash-partitioned [`MutableStore`] shards over one relation.
///
/// Each shard is a complete store — own arena, intern table, support
/// counts, posting-list substrate, and id-space — holding exactly the
/// tuples it owns under the relation's [`ShardKey`]. The partition is a
/// function of (tuple, key, W) alone, so routing never consults the other
/// shards.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    key: ShardKey,
    shards: Vec<MutableStore>,
}

impl ShardedStore {
    /// An empty sharded store: `shards` partitions of an arity-`arity`
    /// relation keyed on `key`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(arity: usize, key: ShardKey, shards: usize) -> Self {
        assert!(shards > 0, "a sharded store needs at least one shard");
        ShardedStore {
            key,
            shards: (0..shards).map(|_| MutableStore::new(arity)).collect(),
        }
    }

    /// The shard key.
    pub fn key(&self) -> ShardKey {
        self.key
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The owning shard index for `tuple`.
    pub fn owner(&self, tuple: &[Element]) -> usize {
        shard_of(tuple, self.key, self.shards.len())
    }

    /// Shard `w`, read-only.
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn shard(&self, w: usize) -> &MutableStore {
        &self.shards[w]
    }

    /// Shard `w`, mutable — for owner-local merges that already routed.
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn shard_mut(&mut self, w: usize) -> &mut MutableStore {
        &mut self.shards[w]
    }

    /// Inserts `tuple` into its owning shard, returning the owner and the
    /// shard-local outcome.
    pub fn insert(&mut self, tuple: &[Element]) -> (usize, InsertOutcome) {
        let w = self.owner(tuple);
        (w, self.shards[w].insert(tuple))
    }

    /// Retracts `tuple` from its owning shard.
    pub fn retract(&mut self, tuple: &[Element]) -> (usize, RetractOutcome) {
        let w = self.owner(tuple);
        (w, self.shards[w].retract(tuple))
    }

    /// Whether `tuple` is live (in its owning shard — the only place it
    /// can be).
    pub fn contains_live(&self, tuple: &[Element]) -> bool {
        self.shards[self.owner(tuple)].contains_live(tuple)
    }

    /// Total live tuples across all shards.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(MutableStore::live_len).sum()
    }

    /// Iterates every live tuple, shard by shard.
    pub fn live_iter(&self) -> impl Iterator<Item = &[Element]> {
        self.shards.iter().flat_map(MutableStore::live_iter)
    }

    /// Compacts every shard in place (see
    /// [`MutableStore::compact_in_place`]); the live set is unchanged,
    /// per shard and therefore globally (property-tested against an
    /// unsharded compaction).
    pub fn compact_in_place(&mut self) {
        for shard in &mut self.shards {
            shard.compact_in_place();
        }
    }

    /// Re-keys the whole store onto a new shard key, returning the number
    /// of live tuples that moved between shards. Loss-free: the live
    /// multiset (tuple → support count) is preserved exactly.
    pub fn rekey(&mut self, key: ShardKey) -> u64 {
        let arity = self.shards[0].store().arity();
        let shards = self.shards.len();
        let mut fresh = ShardedStore::new(arity, key, shards);
        let mut moved = 0u64;
        for (w, shard) in self.shards.iter().enumerate() {
            for (tuple, &support) in shard.store().iter().zip(shard.support_counts()) {
                if support == 0 {
                    continue;
                }
                let dest = shard_of(tuple, key, shards);
                if dest != w {
                    moved += 1;
                }
                fresh.shards[dest].insert_with_support(tuple, support);
            }
        }
        *self = fresh;
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_tuple(rng: &mut SplitMix64, arity: usize, universe: u64) -> Vec<Element> {
        (0..arity)
            .map(|_| (rng.next_u64() % universe) as Element)
            .collect()
    }

    #[test]
    fn every_tuple_lands_on_exactly_one_shard() {
        let mut rng = SplitMix64::seed_from_u64(0x5A4D);
        for _ in 0..200 {
            let arity = (rng.next_u64() % 4 + 1) as usize;
            let shards = [1usize, 2, 3, 4, 7, 8][(rng.next_u64() % 6) as usize];
            let key = ShardKey::at((rng.next_u64() % (arity as u64 + 1)) as usize);
            let tuple = random_tuple(&mut rng, arity, 50);
            let owner = shard_of(&tuple, key, shards);
            assert!(owner < shards, "owner within range");
            // Deterministic: the same tuple always routes identically.
            assert_eq!(owner, shard_of(&tuple, key, shards));
            let mut store = ShardedStore::new(arity, key, shards);
            store.insert(&tuple);
            let holding: Vec<usize> = (0..shards)
                .filter(|&w| store.shard(w).contains_live(&tuple))
                .collect();
            assert_eq!(holding, vec![owner], "exactly one shard holds it");
        }
    }

    #[test]
    fn nullary_and_out_of_range_keys_route_to_worker_zero() {
        assert_eq!(shard_of(&[], ShardKey::FALLBACK, 8), 0);
        assert_eq!(shard_of(&[3], ShardKey::at(5), 8), 0);
        assert_eq!(shard_of(&[3, 4], ShardKey::at(1), 1), 0);
    }

    #[test]
    fn rekey_is_loss_free() {
        let mut rng = SplitMix64::seed_from_u64(0xDE17A);
        for round in 0..50 {
            let arity = (round % 3 + 1) as usize;
            let shards = [1usize, 2, 4, 8][(round % 4) as usize];
            let mut store = ShardedStore::new(arity, ShardKey::at(0), shards);
            let mut tuples = Vec::new();
            for _ in 0..rng.next_u64() % 120 {
                let t = random_tuple(&mut rng, arity, 20);
                store.insert(&t);
                tuples.push(t);
            }
            let before: Vec<(Vec<Element>, usize)> =
                tuples.iter().map(|t| (t.clone(), store.owner(t))).collect();
            let live_before = store.live_len();
            let moved = store.rekey(ShardKey::at(arity - 1));
            assert_eq!(store.live_len(), live_before, "live count preserved");
            let mut expect_moved = std::collections::HashSet::new();
            for (t, old_owner) in &before {
                assert!(store.contains_live(t), "tuple lost in re-key: {t:?}");
                if store.owner(t) != *old_owner {
                    expect_moved.insert(t.clone());
                }
            }
            assert_eq!(moved, expect_moved.len() as u64);
        }
    }

    #[test]
    fn sharded_compaction_preserves_live_set_vs_unsharded() {
        let mut rng = SplitMix64::seed_from_u64(0xC0DE);
        for shards in [1usize, 2, 4, 8] {
            let arity = 2;
            let mut sharded = ShardedStore::new(arity, ShardKey::at(1), shards);
            let mut flat = MutableStore::new(arity);
            let mut universe_tuples = Vec::new();
            for _ in 0..300 {
                let t = random_tuple(&mut rng, arity, 15);
                sharded.insert(&t);
                flat.insert(&t);
                universe_tuples.push(t);
            }
            for t in &universe_tuples {
                if rng.gen_bool(0.4) {
                    sharded.retract(t);
                    flat.retract(t);
                }
            }
            sharded.compact_in_place();
            flat.compact_in_place();
            assert_eq!(sharded.live_len(), flat.live_len());
            for t in sharded.live_iter() {
                assert!(flat.contains_live(t));
            }
            for t in flat.live_iter() {
                assert!(sharded.contains_live(t));
            }
        }
    }
}
