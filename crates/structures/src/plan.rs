//! Query plans and the engine-level memo cache for demand-driven runs.
//!
//! A [`QueryPlan`] records, per goal position, whether the query binds that
//! position to a concrete element, and which [`DemandStrategy`] the engine
//! should take for that binding pattern. Upper layers (`kv-core`'s
//! `ProgramQuery`, `kv-homeomorphism`'s solver) consult the plan to decide
//! between full saturation and the demand path (magic-set rewriting for
//! Datalog, lazy arena expansion for pebble games).
//!
//! Repeated-query traffic is served by a [`QueryCache`]: boolean answers
//! memoized under an interned [`StructureId`] (content fingerprint, see
//! [`StructureRegistry`]) plus the query tuple.

use std::collections::HashMap;
use std::fmt;

use crate::structure::{Element, Structure};
use crate::vocabulary::RelId;

/// How the engine should evaluate a query with a given binding pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandStrategy {
    /// Saturate the full IDB / materialize the full arena, then look up.
    Full,
    /// Derive only goal-relevant facts: magic-set rewriting on the Datalog
    /// side, lazy dominance-pruned arena expansion on the game side.
    Demand,
}

/// How a Datalog program's rule bodies are compiled into join loops.
///
/// `Textual` evaluates every body in the order the rule was written (the
/// paper's presentation, and the engine's historical behaviour);
/// `CostBased` lets the planner in `kv-datalog` reorder atoms by estimated
/// selectivity and select specialized join kernels. Both modes derive the
/// *same tuple set at every stage* — atom order within a body is
/// semantics-free — so differential suites can run each side by side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlannerMode {
    /// Textual atom order, generic probe loop.
    Textual,
    /// Cost-based atom order with specialized join kernels (the
    /// production default).
    #[default]
    CostBased,
}

impl fmt::Display for PlannerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlannerMode::Textual => "textual",
            PlannerMode::CostBased => "cost-based",
        })
    }
}

/// How cost-based plans lower each rule body into an executable join.
///
/// Binary lowering runs the planned atom order through pairwise kernels
/// (scan/probe/merge/check); generic lowering runs a worst-case-optimal
/// variable-at-a-time join over sorted posting intersections. Both lowerings
/// run *inside* the global semi-naive stage loop and derive the same tuple
/// set at every stage (the Theorem 3.6 stage-identity suites certify this),
/// so the choice is purely a performance knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JoinLowering {
    /// Per rule: generic join for cyclic bodies whose estimated binary
    /// intermediates blow up past the estimated output, binary otherwise.
    #[default]
    Auto,
    /// Force pairwise binary kernels for every rule.
    Binary,
    /// Force the worst-case-optimal generic join for every rule with at
    /// least two body atoms.
    Generic,
}

impl fmt::Display for JoinLowering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinLowering::Auto => "auto",
            JoinLowering::Binary => "binary",
            JoinLowering::Generic => "generic",
        })
    }
}

/// A binding pattern plus the demand strategy chosen for it.
///
/// The pattern has one flag per goal position: `true` means the query
/// supplies a concrete element there ("bound"), `false` means the position
/// is left open ("free"). The plan additionally carries the
/// [`PlannerMode`] the engine should compile rule bodies with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    pattern: Vec<bool>,
    strategy: DemandStrategy,
    planner: PlannerMode,
    lowering: JoinLowering,
}

impl QueryPlan {
    /// A plan with an explicit pattern and strategy (default planner mode).
    pub fn new(pattern: Vec<bool>, strategy: DemandStrategy) -> Self {
        Self {
            pattern,
            strategy,
            planner: PlannerMode::default(),
            lowering: JoinLowering::default(),
        }
    }

    /// The same plan with an explicit [`PlannerMode`].
    pub fn with_planner(mut self, planner: PlannerMode) -> Self {
        self.planner = planner;
        self
    }

    /// The planner mode rule bodies are compiled with.
    pub fn planner(&self) -> PlannerMode {
        self.planner
    }

    /// The same plan with an explicit [`JoinLowering`].
    pub fn with_lowering(mut self, lowering: JoinLowering) -> Self {
        self.lowering = lowering;
        self
    }

    /// The join lowering cost-based plans execute rule bodies with.
    pub fn lowering(&self) -> JoinLowering {
        self.lowering
    }

    /// Full saturation for an `arity`-ary goal (all positions free).
    pub fn full(arity: usize) -> Self {
        Self::new(vec![false; arity], DemandStrategy::Full)
    }

    /// The automatic policy: take the demand path whenever at least one
    /// position is bound, full saturation otherwise (an all-free query
    /// needs every answer anyway, so demand buys nothing).
    pub fn auto(pattern: Vec<bool>) -> Self {
        let strategy = if pattern.iter().any(|&b| b) {
            DemandStrategy::Demand
        } else {
            DemandStrategy::Full
        };
        Self::new(pattern, strategy)
    }

    /// The binding pattern, one flag per goal position.
    pub fn pattern(&self) -> &[bool] {
        &self.pattern
    }

    /// The chosen strategy.
    pub fn strategy(&self) -> DemandStrategy {
        self.strategy
    }

    /// Whether this plan routes to the demand path.
    pub fn is_demand(&self) -> bool {
        self.strategy == DemandStrategy::Demand
    }

    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.pattern.iter().filter(|&&b| b).count()
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.pattern {
            f.write_str(if b { "b" } else { "f" })?;
        }
        write!(
            f,
            "/{}",
            match self.strategy {
                DemandStrategy::Full => "full",
                DemandStrategy::Demand => "demand",
            }
        )
    }
}

/// Identity of an interned structure in a [`StructureRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureId(pub u32);

/// A 64-bit content fingerprint of a structure: universe size, constants,
/// and the (order-independent) multiset of tuples per relation.
///
/// Tuple contributions are combined commutatively, so two structures that
/// interned the same relation contents in different orders fingerprint
/// identically. Collisions only cost a spurious cache identity, so the
/// registry additionally keeps the full fingerprint key.
pub fn structure_fingerprint(s: &Structure) -> u64 {
    FingerprintAcc::of(s).fingerprint()
}

/// The running form of [`structure_fingerprint`]: the universe size, the
/// constants, and per relation the commutative sum of tuple contributions
/// and the tuple count. A store that changes one tuple at a time keeps it
/// up to date in O(arity) per change ([`insert`](Self::insert),
/// [`remove`](Self::remove)) and reads its fingerprint without
/// materializing a [`Structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintAcc {
    universe: usize,
    constants: Vec<Element>,
    /// Per relation: (wrapping sum of tuple contributions, tuple count).
    relations: Vec<(u64, u64)>,
}

impl FingerprintAcc {
    /// The accumulator of `s`'s current contents.
    pub fn of(s: &Structure) -> Self {
        let mut acc = FingerprintAcc {
            universe: s.universe_size(),
            constants: s.constant_values().to_vec(),
            relations: vec![(0, 0); s.vocabulary().relation_count()],
        };
        for rel in s.vocabulary().relations() {
            for tuple in s.relation(rel).iter() {
                acc.insert(rel, tuple);
            }
        }
        acc
    }

    /// One tuple's contribution to its relation's sum.
    fn contribution(rel: RelId, tuple: &[Element]) -> u64 {
        let mut t = mix(rel.0 as u64 ^ 0xd6e8_feb8_6659_fd93);
        for &e in tuple {
            t = mix(t ^ u64::from(e));
        }
        t
    }

    /// Accounts for `tuple` joining relation `rel`.
    pub fn insert(&mut self, rel: RelId, tuple: &[Element]) {
        let (sum, len) = &mut self.relations[rel.0];
        // Commutative combine: interning order must not matter.
        *sum = sum.wrapping_add(Self::contribution(rel, tuple));
        *len += 1;
    }

    /// Accounts for `tuple` leaving relation `rel`; it must be present.
    pub fn remove(&mut self, rel: RelId, tuple: &[Element]) {
        let (sum, len) = &mut self.relations[rel.0];
        *sum = sum.wrapping_sub(Self::contribution(rel, tuple));
        *len -= 1;
    }

    /// The fingerprint [`structure_fingerprint`] gives a structure with
    /// these contents.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(0x9e37_79b9_7f4a_7c15 ^ self.universe as u64);
        for &c in &self.constants {
            h = mix(h ^ u64::from(c).wrapping_add(0x517c_c1b7_2722_0a95));
        }
        for &(sum, len) in &self.relations {
            h = mix(h ^ sum ^ len.rotate_left(17));
        }
        h
    }
}

/// SplitMix64 finalizer — cheap, well-mixed, dependency-free.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Interns structures by content fingerprint, assigning stable
/// [`StructureId`]s for cache keys.
#[derive(Debug, Default)]
pub struct StructureRegistry {
    by_fingerprint: HashMap<u64, StructureId>,
}

impl StructureRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the id previously assigned to a structure
    /// with the same fingerprint if one exists.
    pub fn intern(&mut self, s: &Structure) -> StructureId {
        self.intern_fingerprint(structure_fingerprint(s))
    }

    /// Interns a structure known only by its [`structure_fingerprint`].
    pub fn intern_fingerprint(&mut self, fp: u64) -> StructureId {
        let next = StructureId(self.by_fingerprint.len() as u32);
        *self.by_fingerprint.entry(fp).or_insert(next)
    }

    /// Number of distinct structures interned so far.
    pub fn len(&self) -> usize {
        self.by_fingerprint.len()
    }

    /// Whether no structure has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.by_fingerprint.is_empty()
    }
}

/// Hit/miss/eviction counters of a [`QueryCache`] (or any cache built on
/// [`ClockCache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to be computed.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries dropped by capacity pressure (clock eviction). Stale
    /// entries aged out by an epoch bump are not counted here.
    pub evictions: u64,
}

/// One resident entry of a [`ClockCache`].
#[derive(Debug)]
struct ClockSlot<K> {
    key: K,
    answer: bool,
    /// Epoch the answer was computed against.
    stamp: u64,
    /// Second-chance bit: set on every hit, cleared by the sweeping hand.
    referenced: bool,
}

/// A capacity-bounded boolean-answer cache with **clock** (second-chance)
/// eviction over **epoch-stamped** entries, generic in the key.
///
/// This is the shared engine under both the structure-fingerprint-keyed
/// [`QueryCache`] and the serving layer's epoch-keyed result cache:
///
/// - Every entry carries the epoch it was computed at. A
///   [`bump_epoch`](Self::bump_epoch) (the backing store mutated) makes
///   older entries stale; a stale entry can never be served — the check
///   happens inside [`get`](Self::get), before any answer is returned —
///   and is dropped lazily on lookup or swept by the clock hand.
/// - [`insert_if_epoch`](Self::insert_if_epoch) is the **race-free**
///   check-and-insert: the caller captures the epoch when it takes its
///   snapshot (at [`get`](Self::get) time, under the same lock) and the
///   insert is rejected if a writer bumped the epoch while the answer was
///   being computed. Without the check, a slow reader could publish an
///   answer computed against the pre-batch store stamped as post-batch.
/// - At capacity, insertion evicts by the classic clock sweep: the hand
///   clears second-chance bits until it lands on an unreferenced slot
///   (stale slots are immediate victims regardless of their bit).
#[derive(Debug)]
pub struct ClockCache<K> {
    index: HashMap<K, usize>,
    slots: Vec<ClockSlot<K>>,
    hand: usize,
    capacity: Option<usize>,
    epoch: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K> Default for ClockCache<K> {
    fn default() -> Self {
        Self {
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            capacity: None,
            epoch: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone> ClockCache<K> {
    /// An unbounded cache (entries only leave by going stale).
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that holds at most `capacity` entries, evicting by clock
    /// sweep when full. A capacity of zero caches nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The current store epoch answers are stamped with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Marks every currently stored answer stale (the backing store
    /// mutated) and returns the new epoch. Stale entries are evicted
    /// lazily on lookup or by the clock sweep rather than eagerly
    /// dropped, so a batch that only touches one key's answers can patch
    /// them back in at the new epoch and leave the rest to age out.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Drops the slot at `i`, keeping the ring dense (swap-remove) and the
    /// index and hand consistent.
    fn drop_slot(&mut self, i: usize) {
        let slot = self.slots.swap_remove(i);
        self.index.remove(&slot.key);
        if i < self.slots.len() {
            // The former tail moved into `i`: repoint its index entry.
            *self
                .index
                .get_mut(&self.slots[i].key)
                .unwrap_or_else(|| unreachable!("moved slot key is indexed")) = i;
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
    }

    /// Looks up the memoized answer for `key`, counting a hit or a miss.
    /// An entry stamped before the current epoch is stale: it is evicted
    /// and the lookup counts as a miss.
    pub fn get(&mut self, key: &K) -> Option<bool> {
        match self.index.get(key).copied() {
            Some(i) if self.slots[i].stamp == self.epoch => {
                self.slots[i].referenced = true;
                self.hits += 1;
                Some(self.slots[i].answer)
            }
            Some(i) => {
                self.drop_slot(i);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records `answer` for `key`, stamped with the current epoch,
    /// evicting by clock sweep if the cache is at capacity.
    pub fn insert(&mut self, key: K, answer: bool) {
        if self.capacity == Some(0) {
            return;
        }
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            slot.answer = answer;
            slot.stamp = self.epoch;
            slot.referenced = true;
            return;
        }
        if let Some(cap) = self.capacity {
            while self.slots.len() >= cap {
                self.evict_one();
            }
        }
        self.index.insert(key.clone(), self.slots.len());
        self.slots.push(ClockSlot {
            key,
            answer,
            stamp: self.epoch,
            referenced: false,
        });
    }

    /// Race-free check-and-insert: records `answer` only if the cache is
    /// still at `observed_epoch` — the epoch the caller captured when it
    /// took the snapshot its answer was computed against. Returns whether
    /// the entry was stored. A writer that committed a batch (and bumped
    /// the epoch) between the caller's snapshot and this insert makes the
    /// answer stale-on-arrival; storing it would stamp a pre-batch answer
    /// as post-batch, exactly the staleness the epoch discipline exists
    /// to rule out.
    pub fn insert_if_epoch(&mut self, key: K, answer: bool, observed_epoch: u64) -> bool {
        if observed_epoch != self.epoch {
            return false;
        }
        self.insert(key, answer);
        true
    }

    /// One clock-sweep eviction. Stale slots are taken on sight;
    /// fresh referenced slots get their second chance (bit cleared, hand
    /// moves on). Terminates: after one full lap every bit is clear.
    fn evict_one(&mut self) {
        debug_assert!(!self.slots.is_empty(), "evict from a non-empty ring");
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.stamp == self.epoch && slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % self.slots.len();
            } else {
                let victim = self.hand;
                self.drop_slot(victim);
                self.evictions += 1;
                return;
            }
        }
    }

    /// Current hit/miss/entry/eviction counters. `entries` counts stored
    /// entries including stale ones not yet dropped.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.slots.len() as u64,
            evictions: self.evictions,
        }
    }
}

/// Cache key: interned structure id + boxed query tuple.
type CacheKey = (StructureId, Box<[Element]>);

/// Memoized boolean query answers keyed by interned structure id + query
/// tuple. Shared registry + [`ClockCache`] so one cache serves repeated
/// traffic over many structures.
///
/// Every entry is stamped with the cache **epoch** current at insert time.
/// Mutating backends (incremental maintenance over a changing EDB) call
/// [`bump_epoch`](Self::bump_epoch) when the underlying store changes:
/// entries stamped before the bump become stale and are dropped lazily the
/// next time they are looked up. The staleness check happens *inside*
/// [`get`](Self::get) — before any answer can be returned — so a stale hit
/// can never be served after a mutation, regardless of how callers order
/// their governor checks around the lookup. After a batch the maintaining
/// backend may re-[`insert`](Self::insert) ("patch") the answers it just
/// recomputed at the new epoch instead of rebuilding the cache wholesale.
///
/// Concurrent readers that compute answers outside the cache lock must use
/// the [`get_keyed`](Self::get_keyed) / [`insert_if_epoch`](Self::insert_if_epoch)
/// pair so an insert that raced a writer's epoch bump is rejected instead
/// of stamping a pre-batch answer at the post-batch epoch.
#[derive(Debug, Default)]
pub struct QueryCache {
    registry: StructureRegistry,
    answers: ClockCache<CacheKey>,
}

impl QueryCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded at `capacity` entries (clock eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            registry: StructureRegistry::new(),
            answers: ClockCache::with_capacity(capacity),
        }
    }

    /// The current store epoch answers are stamped with.
    pub fn epoch(&self) -> u64 {
        self.answers.epoch()
    }

    /// Marks every currently stored answer stale (the backing store
    /// mutated) and returns the new epoch; see [`ClockCache::bump_epoch`].
    pub fn bump_epoch(&mut self) -> u64 {
        self.answers.bump_epoch()
    }

    /// Looks up the memoized answer for `query` on `s`, counting a hit or
    /// a miss. An entry stamped before the current epoch is stale: it is
    /// evicted and the lookup counts as a miss.
    pub fn get(&mut self, s: &Structure, query: &[Element]) -> Option<bool> {
        self.get_keyed(s, query).0
    }

    /// Like [`get`](Self::get), additionally returning the epoch observed
    /// at lookup time — the token [`insert_if_epoch`](Self::insert_if_epoch)
    /// validates after the caller has computed the answer outside the
    /// lock.
    pub fn get_keyed(&mut self, s: &Structure, query: &[Element]) -> (Option<bool>, u64) {
        let id = self.registry.intern(s);
        let key = (id, Box::from(query));
        (self.answers.get(&key), self.answers.epoch())
    }

    /// Records the answer for `query` on `s`, stamped with the current
    /// epoch.
    pub fn insert(&mut self, s: &Structure, query: &[Element], answer: bool) {
        self.insert_fingerprint(structure_fingerprint(s), query, answer);
    }

    /// [`insert`](Self::insert) for a structure known only by its
    /// [`structure_fingerprint`] — a store that maintains a
    /// [`FingerprintAcc`] need not materialize the structure.
    pub fn insert_fingerprint(&mut self, fp: u64, query: &[Element], answer: bool) {
        let id = self.registry.intern_fingerprint(fp);
        self.answers.insert((id, Box::from(query)), answer);
    }

    /// Race-free check-and-insert: records the answer only if the epoch
    /// observed at [`get_keyed`](Self::get_keyed) time is still current
    /// (no batch committed while the answer was computed). Returns whether
    /// the entry was stored.
    pub fn insert_if_epoch(
        &mut self,
        s: &Structure,
        query: &[Element],
        answer: bool,
        observed_epoch: u64,
    ) -> bool {
        let id = self.registry.intern(s);
        self.answers
            .insert_if_epoch((id, Box::from(query)), answer, observed_epoch)
    }

    /// Current hit/miss/entry/eviction counters. `entries` counts stored
    /// entries including stale ones not yet evicted.
    pub fn stats(&self) -> CacheStats {
        self.answers.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::directed_path;

    #[test]
    fn auto_plan_picks_demand_iff_some_position_bound() {
        assert!(QueryPlan::auto(vec![true, true]).is_demand());
        assert!(QueryPlan::auto(vec![false, true]).is_demand());
        assert!(!QueryPlan::auto(vec![false, false]).is_demand());
        assert!(!QueryPlan::full(2).is_demand());
        assert_eq!(QueryPlan::auto(vec![true, false]).to_string(), "bf/demand");
    }

    #[test]
    fn planner_mode_defaults_cost_based_and_is_overridable() {
        let plan = QueryPlan::auto(vec![true, false]);
        assert_eq!(plan.planner(), PlannerMode::CostBased);
        let textual = plan.clone().with_planner(PlannerMode::Textual);
        assert_eq!(textual.planner(), PlannerMode::Textual);
        // Display stays binding-pattern/strategy only (stable across modes).
        assert_eq!(textual.to_string(), "bf/demand");
        assert_eq!(PlannerMode::Textual.to_string(), "textual");
        assert_eq!(PlannerMode::CostBased.to_string(), "cost-based");
    }

    #[test]
    fn lowering_defaults_auto_and_is_overridable() {
        let plan = QueryPlan::full(2);
        assert_eq!(plan.lowering(), JoinLowering::Auto);
        let generic = plan.clone().with_lowering(JoinLowering::Generic);
        assert_eq!(generic.lowering(), JoinLowering::Generic);
        assert_eq!(
            plan.with_lowering(JoinLowering::Binary).lowering(),
            JoinLowering::Binary
        );
        assert_eq!(JoinLowering::Auto.to_string(), "auto");
        assert_eq!(JoinLowering::Binary.to_string(), "binary");
        assert_eq!(JoinLowering::Generic.to_string(), "generic");
    }

    #[test]
    fn fingerprint_distinguishes_and_identifies() {
        let a = directed_path(5);
        let b = directed_path(5);
        let c = directed_path(6);
        assert_eq!(structure_fingerprint(&a), structure_fingerprint(&b));
        assert_ne!(structure_fingerprint(&a), structure_fingerprint(&c));
    }

    #[test]
    fn registry_interns_by_content() {
        let mut reg = StructureRegistry::new();
        let a = directed_path(5);
        let b = directed_path(5);
        let c = directed_path(6);
        let ia = reg.intern(&a);
        let ib = reg.intern(&b);
        let ic = reg.intern(&c);
        assert_eq!(ia, ib);
        assert_ne!(ia, ic);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn epoch_bump_makes_entries_stale() {
        let mut cache = QueryCache::new();
        let s = directed_path(4);
        cache.insert(&s, &[0, 3], true);
        assert_eq!(cache.get(&s, &[0, 3]), Some(true));
        assert_eq!(cache.epoch(), 0);
        // The store mutated: the old answer must not be served again.
        assert_eq!(cache.bump_epoch(), 1);
        assert_eq!(cache.get(&s, &[0, 3]), None);
        // The stale entry was evicted, not just skipped.
        assert_eq!(cache.stats().entries, 0);
        // Patching the recomputed answer back in serves at the new epoch.
        cache.insert(&s, &[0, 3], false);
        assert_eq!(cache.get(&s, &[0, 3]), Some(false));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn clock_cache_evicts_at_capacity_with_second_chance() {
        let mut cache: ClockCache<u32> = ClockCache::with_capacity(3);
        assert_eq!(cache.capacity(), Some(3));
        cache.insert(1, true);
        cache.insert(2, false);
        cache.insert(3, true);
        // Touch 1 and 3 so they carry second-chance bits; 2 is the victim.
        assert_eq!(cache.get(&1), Some(true));
        assert_eq!(cache.get(&3), Some(true));
        cache.insert(4, true);
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&2), None, "unreferenced entry was evicted");
        assert_eq!(cache.get(&1), Some(true));
        assert_eq!(cache.get(&3), Some(true));
        assert_eq!(cache.get(&4), Some(true));
        // Re-inserting an existing key never evicts.
        cache.insert(4, false);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&4), Some(false));
    }

    #[test]
    fn clock_cache_prefers_stale_victims() {
        let mut cache: ClockCache<u32> = ClockCache::with_capacity(2);
        cache.insert(1, true);
        cache.bump_epoch();
        cache.insert(2, true);
        // 1 is stale, 2 fresh: the sweep takes 1 even though the hand
        // may pass a referenced fresh slot.
        assert_eq!(cache.get(&2), Some(true));
        cache.insert(3, true);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(true));
        assert_eq!(cache.get(&3), Some(true));
    }

    #[test]
    fn clock_cache_zero_capacity_stores_nothing() {
        let mut cache: ClockCache<u32> = ClockCache::with_capacity(0);
        cache.insert(1, true);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn insert_if_epoch_rejects_racing_writers() {
        // The regression shape: a reader captures the epoch with its
        // snapshot, computes outside the lock, and a writer's batch
        // commits in between. The insert must be rejected — storing it
        // would stamp a pre-batch answer at the post-batch epoch.
        let mut cache = QueryCache::new();
        let s = directed_path(4);
        let (miss, observed) = cache.get_keyed(&s, &[0, 3]);
        assert_eq!(miss, None);
        // Writer commits while the reader evaluates.
        cache.bump_epoch();
        assert!(!cache.insert_if_epoch(&s, &[0, 3], true, observed));
        assert_eq!(cache.get(&s, &[0, 3]), None, "stale answer not served");
        // Without interference the insert lands.
        let (_, observed) = cache.get_keyed(&s, &[0, 3]);
        assert!(cache.insert_if_epoch(&s, &[0, 3], false, observed));
        assert_eq!(cache.get(&s, &[0, 3]), Some(false));
    }

    #[test]
    fn query_cache_capacity_bounds_entries() {
        let mut cache = QueryCache::with_capacity(2);
        let structures: Vec<Structure> = (3..7).map(directed_path).collect();
        for (i, s) in structures.iter().enumerate() {
            cache.insert(s, &[0, 1], i % 2 == 0);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = QueryCache::new();
        let s = directed_path(4);
        assert_eq!(cache.get(&s, &[0, 3]), None);
        cache.insert(&s, &[0, 3], true);
        assert_eq!(cache.get(&s, &[0, 3]), Some(true));
        // Same content, different instance: still a hit.
        let t = directed_path(4);
        assert_eq!(cache.get(&t, &[0, 3]), Some(true));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }
}
