//! Finite structures: a universe together with interpretations of every
//! symbol of a [`Vocabulary`].

use crate::store::{FrozenIndex, TupleId, TupleStore};
use crate::vocabulary::{ConstId, RelId, Vocabulary};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An element of a structure's universe. Universes are always `{0, …, n-1}`.
pub type Element = u32;

/// A tuple of elements (one row of a relation), in owned/boxed form.
///
/// Storage no longer boxes tuples — relations intern rows into a
/// [`TupleStore`] arena — but the boxed form remains the convenient owned
/// representation for sorting, error reporting, and test fixtures.
pub type Tuple = Box<[Element]>;

/// The interpretation of one relation symbol: a set of tuples of the symbol's
/// arity, interned in a [`TupleStore`].
///
/// Iteration yields borrowed `&[Element]` slices in insertion (id) order;
/// equality is *set* equality, independent of insertion order. The
/// underlying store is exposed ([`store`](Self::store)) so evaluators can
/// index and join the relation without copying its tuples, and every
/// evaluation shares one [`FrozenIndex`] per probed position
/// ([`pos_index`](Self::pos_index)).
#[derive(Debug, Clone, Default)]
pub struct Relation {
    store: TupleStore,
    indexes: IndexCache,
}

/// A relation's lazily built position indexes: one slot per position,
/// allocated on the first probe and filled per position on first use.
/// Clones share the built indexes (their contents are equal until either
/// side mutates, and mutation drops the mutated side's cache).
#[derive(Clone, Default)]
struct IndexCache(OnceLock<Arc<[OnceLock<FrozenIndex>]>>);

impl fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let built: Vec<usize> = self
            .0
            .get()
            .map(|slots| {
                slots
                    .iter()
                    .filter_map(|s| s.get())
                    .map(FrozenIndex::pos)
                    .collect()
            })
            .unwrap_or_default();
        f.debug_struct("IndexCache").field("built", &built).finish()
    }
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            store: TupleStore::new(arity),
            indexes: IndexCache::default(),
        }
    }

    /// Wraps an existing store as a relation.
    pub fn from_store(store: TupleStore) -> Self {
        Self {
            store,
            indexes: IndexCache::default(),
        }
    }

    /// The arity of this relation.
    pub fn arity(&self) -> usize {
        self.store.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple length does not match the arity.
    pub fn insert(&mut self, tuple: &[Element]) -> bool {
        let fresh = self.store.intern(tuple).1;
        if fresh {
            self.indexes.0.take();
        }
        fresh
    }

    /// Tests membership.
    pub fn contains(&self, tuple: &[Element]) -> bool {
        self.store.contains(tuple)
    }

    /// The dense id of a tuple within this relation's store, if present.
    pub fn id_of(&self, tuple: &[Element]) -> Option<TupleId> {
        self.store.lookup(tuple)
    }

    /// Iterates over the tuples in insertion (id) order.
    pub fn iter(&self) -> impl Iterator<Item = &[Element]> {
        self.store.iter()
    }

    /// The backing interned store.
    pub fn store(&self) -> &TupleStore {
        &self.store
    }

    /// The read-only index on position `pos`, built on first use and
    /// shared by every later caller until the relation changes. Safe to
    /// call from many threads at once: one builds, the rest wait.
    ///
    /// # Panics
    /// Panics if `pos` is not below the arity.
    pub fn pos_index(&self, pos: usize) -> &FrozenIndex {
        let slots = self
            .indexes
            .0
            .get_or_init(|| (0..self.arity()).map(|_| OnceLock::new()).collect());
        slots[pos].get_or_init(|| FrozenIndex::build(&self.store, pos))
    }

    /// The index on position `pos` if one is already built — a peek that
    /// never builds.
    pub fn built_index(&self, pos: usize) -> Option<&FrozenIndex> {
        self.indexes.0.get().and_then(|slots| slots.get(pos)?.get())
    }

    /// Removes a tuple; returns `true` if it was present.
    ///
    /// The backing arena is append-only (that is what makes delta views id
    /// ranges), so removal rebuilds the store without the tuple — O(n).
    /// No hot path removes tuples; this exists for test fixtures and
    /// ad-hoc structure surgery.
    pub fn remove(&mut self, tuple: &[Element]) -> bool {
        if !self.store.contains(tuple) {
            return false;
        }
        let mut rebuilt = TupleStore::new(self.store.arity());
        for t in self.store.iter().filter(|t| *t != tuple) {
            rebuilt.intern(t);
        }
        self.store = rebuilt;
        self.indexes.0.take();
        true
    }

    /// Returns the tuples as a sorted vector (deterministic order, for
    /// display and hashing-independent comparisons).
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.store.iter().map(Box::from).collect();
        v.sort();
        v
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.store.set_eq(&other.store)
    }
}

impl Eq for Relation {}

/// A finite relational structure `A` over a vocabulary `σ`.
///
/// The universe is `{0, …, n-1}`; every relation symbol of `σ` is interpreted
/// by a [`Relation`] and every constant symbol by an element.
///
/// The vocabulary is held behind an [`Arc`] so that the many structures built
/// during game solving and reductions share it cheaply.
#[derive(Debug, Clone, PartialEq)]
pub struct Structure {
    vocabulary: Arc<Vocabulary>,
    universe: usize,
    relations: Vec<Relation>,
    constants: Vec<Element>,
}

impl Structure {
    /// Creates a structure with an empty interpretation of every relation
    /// symbol and all constants interpreted as element `0`.
    ///
    /// # Panics
    /// Panics if `universe == 0` but the vocabulary has constant symbols
    /// (constants need somewhere to point).
    pub fn new(vocabulary: Arc<Vocabulary>, universe: usize) -> Self {
        assert!(
            universe > 0 || vocabulary.constant_count() == 0,
            "empty universe cannot interpret constant symbols"
        );
        let relations = vocabulary
            .relations()
            .map(|r| Relation::new(vocabulary.arity(r)))
            .collect();
        let constants = vec![0; vocabulary.constant_count()];
        Self {
            vocabulary,
            universe,
            relations,
            constants,
        }
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocabulary
    }

    /// Universe size `n`; the universe is `{0, …, n-1}`.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Iterates over all elements of the universe.
    pub fn elements(&self) -> impl Iterator<Item = Element> {
        0..self.universe as Element
    }

    /// The interpretation of relation `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.0]
    }

    /// Mutable access to the interpretation of relation `rel`.
    pub fn relation_mut(&mut self, rel: RelId) -> &mut Relation {
        &mut self.relations[rel.0]
    }

    /// Inserts a tuple into relation `rel`; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on arity mismatch or if a tuple component is outside the
    /// universe.
    pub fn insert(&mut self, rel: RelId, tuple: &[Element]) -> bool {
        assert!(
            tuple.iter().all(|&e| (e as usize) < self.universe),
            "tuple {tuple:?} outside universe of size {}",
            self.universe
        );
        self.relations[rel.0].insert(tuple)
    }

    /// Tests whether `tuple` is in relation `rel`.
    pub fn contains(&self, rel: RelId, tuple: &[Element]) -> bool {
        self.relations[rel.0].contains(tuple)
    }

    /// The interpretation of constant `c`.
    pub fn constant(&self, c: ConstId) -> Element {
        self.constants[c.0]
    }

    /// Sets the interpretation of constant `c`.
    ///
    /// # Panics
    /// Panics if `value` is outside the universe.
    pub fn set_constant(&mut self, c: ConstId, value: Element) {
        assert!(
            (value as usize) < self.universe,
            "constant outside universe"
        );
        self.constants[c.0] = value;
    }

    /// All constant interpretations, in `ConstId` order.
    pub fn constant_values(&self) -> &[Element] {
        &self.constants
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Grows the universe by `extra` fresh elements and returns the first new
    /// element. Relations and constants are unchanged.
    pub fn grow(&mut self, extra: usize) -> Element {
        let first = self.universe as Element;
        self.universe += extra;
        first
    }

    /// Checks the structure for internal consistency (tuples within the
    /// universe, arities correct, constants within the universe). Used by
    /// tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        for rel in self.vocabulary.relations() {
            let r = &self.relations[rel.0];
            if r.arity() != self.vocabulary.arity(rel) {
                return Err(format!(
                    "relation {} has arity {} but vocabulary says {}",
                    self.vocabulary.relation_name(rel),
                    r.arity(),
                    self.vocabulary.arity(rel)
                ));
            }
            for t in r.iter() {
                if t.iter().any(|&e| e as usize >= self.universe) {
                    return Err(format!(
                        "tuple {t:?} of {} outside universe of size {}",
                        self.vocabulary.relation_name(rel),
                        self.universe
                    ));
                }
            }
        }
        for (i, &c) in self.constants.iter().enumerate() {
            if c as usize >= self.universe {
                return Err(format!(
                    "constant {} = {c} outside universe of size {}",
                    self.vocabulary.constant_name(ConstId(i)),
                    self.universe
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "structure with |A| = {}", self.universe)?;
        for rel in self.vocabulary.relations() {
            let name = self.vocabulary.relation_name(rel);
            let rows = self.relations[rel.0].sorted();
            write!(f, "  {name} = {{")?;
            for (i, t) in rows.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "(")?;
                for (j, e) in t.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f, "}}")?;
        }
        for c in self.vocabulary.constants() {
            writeln!(
                f,
                "  {} = {}",
                self.vocabulary.constant_name(c),
                self.constants[c.0]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_vocab() -> Arc<Vocabulary> {
        Arc::new(Vocabulary::graph())
    }

    #[test]
    fn empty_structure() {
        let s = Structure::new(graph_vocab(), 3);
        assert_eq!(s.universe_size(), 3);
        assert_eq!(s.tuple_count(), 0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn insert_and_contains() {
        let mut s = Structure::new(graph_vocab(), 3);
        let e = RelId(0);
        assert!(s.insert(e, &[0, 1]));
        assert!(!s.insert(e, &[0, 1]));
        assert!(s.insert(e, &[1, 2]));
        assert!(s.contains(e, &[0, 1]));
        assert!(!s.contains(e, &[1, 0]));
        assert_eq!(s.tuple_count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = Structure::new(graph_vocab(), 2);
        s.insert(RelId(0), &[0, 5]);
    }

    #[test]
    fn constants_roundtrip() {
        let v = Arc::new(Vocabulary::graph_with_constants(2));
        let mut s = Structure::new(v, 4);
        s.set_constant(ConstId(0), 1);
        s.set_constant(ConstId(1), 3);
        assert_eq!(s.constant(ConstId(0)), 1);
        assert_eq!(s.constant(ConstId(1)), 3);
        assert_eq!(s.constant_values(), &[1, 3]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn grow_adds_elements() {
        let mut s = Structure::new(graph_vocab(), 2);
        let first = s.grow(3);
        assert_eq!(first, 2);
        assert_eq!(s.universe_size(), 5);
        assert!(s.insert(RelId(0), &[4, 0]));
    }

    #[test]
    fn validate_rejects_bad_constant() {
        let v = Arc::new(Vocabulary::graph_with_constants(1));
        let mut s = Structure::new(v, 3);
        s.set_constant(ConstId(0), 2);
        // Shrink behind validate's back is impossible through the API, so
        // build the error by hand via a cloned structure with fewer elements.
        s.universe = 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn relation_sorted_is_deterministic() {
        let mut r = Relation::new(2);
        r.insert(&[2, 0]);
        r.insert(&[0, 1]);
        r.insert(&[1, 1]);
        let rows = r.sorted();
        assert_eq!(
            rows,
            vec![
                vec![0u32, 1].into_boxed_slice(),
                vec![1u32, 1].into_boxed_slice(),
                vec![2u32, 0].into_boxed_slice(),
            ]
        );
    }

    #[test]
    fn mutation_after_a_build_invalidates_the_index_cache() {
        let mut r = Relation::new(2);
        r.insert(&[0, 1]);
        r.insert(&[2, 1]);
        assert_eq!(r.pos_index(1).probe(1, r.store().id_range()), &[0, 1]);
        assert!(r.built_index(1).is_some());
        // A duplicate insert changes nothing and keeps the cache.
        assert!(!r.insert(&[0, 1]));
        assert!(r.built_index(1).is_some());
        assert!(r.insert(&[3, 1]));
        assert!(r.built_index(1).is_none());
        assert_eq!(r.pos_index(1).probe(1, r.store().id_range()), &[0, 1, 2]);
        assert!(r.remove(&[2, 1]));
        assert!(r.built_index(1).is_none());
        let ix = r.pos_index(1);
        assert_eq!(ix.covered(), 2);
        assert_eq!(ix.probe(1, r.store().id_range()).len(), 2);
        assert!(ix.probe(2, r.store().id_range()).is_empty());
    }

    #[test]
    fn clones_never_serve_an_index_over_other_contents() {
        let mut a = Structure::new(graph_vocab(), 4);
        let e = RelId(0);
        a.insert(e, &[0, 1]);
        a.insert(e, &[1, 2]);
        // Built before the clone: the clone shares it while the contents
        // agree, and each side drops it on its own mutation.
        let before = a.relation(e).pos_index(0) as *const FrozenIndex;
        let mut b = a.clone();
        assert!(std::ptr::eq(before, b.relation(e).pos_index(0)));
        b.insert(e, &[0, 3]);
        assert_eq!(
            b.relation(e)
                .pos_index(0)
                .probe(0, b.relation(e).store().id_range()),
            &[0, 2]
        );
        assert!(std::ptr::eq(before, a.relation(e).pos_index(0)));
        assert_eq!(
            a.relation(e)
                .pos_index(0)
                .probe(0, a.relation(e).store().id_range()),
            &[0]
        );
        // Built after the clone: the original's later mutation does not
        // reach the clone's cache.
        let c = a.clone();
        a.insert(e, &[0, 2]);
        assert_eq!(c.relation(e).pos_index(0).covered(), 2);
        assert_eq!(a.relation(e).pos_index(0).covered(), 3);
        for (s, label) in [(&a, "a"), (&b, "b"), (&c, "c")] {
            let rel = s.relation(e);
            let fresh = FrozenIndex::build(rel.store(), 0);
            assert_eq!(rel.pos_index(0), &fresh, "{label}");
        }
    }

    #[test]
    fn first_touch_from_many_threads_builds_one_index() {
        let mut s = Structure::new(graph_vocab(), 64);
        for u in 0..64u32 {
            s.insert(RelId(0), &[u, (u * 7 + 3) % 64]);
            s.insert(RelId(0), &[u, (u * 13 + 5) % 64]);
        }
        let s = Arc::new(s);
        let answers: Vec<(usize, Vec<Vec<u32>>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || {
                        let rel = s.relation(RelId(0));
                        let ix = rel.pos_index(1);
                        let lists = (0..64u32)
                            .map(|e| ix.probe(e, rel.store().id_range()).to_vec())
                            .collect();
                        (ix as *const FrozenIndex as usize, lists)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (ptr, lists) in &answers[1..] {
            assert_eq!(*ptr, answers[0].0, "one shared index");
            assert_eq!(lists, &answers[0].1);
        }
    }

    #[test]
    fn display_contains_relations_and_constants() {
        let v = Arc::new(Vocabulary::graph_with_constants(1));
        let mut s = Structure::new(v, 2);
        s.insert(RelId(0), &[0, 1]);
        s.set_constant(ConstId(0), 1);
        let text = s.to_string();
        assert!(text.contains("E = {(0,1)}"));
        assert!(text.contains("s1 = 1"));
    }
}
