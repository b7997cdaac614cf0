//! Seeded input generators shared by the workloads. The library receives
//! only the generated structures; the seed stays in the benchmark.

use crate::Scale;
use kv_core::graphalg::reachable_from;
use kv_core::structures::{Digraph, SplitMix64, Structure};

/// An independent seed for input stream `tag` of run seed `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// The component-graph shape of `serve_mixed` and `maintain_durable`: a
/// disjoint union of random blocks, each ordered pair inside a block an
/// edge with probability `p`. Block `b` holds nodes
/// `b * size .. (b + 1) * size`.
pub struct Blocks {
    /// Number of blocks.
    pub blocks: usize,
    /// Nodes per block.
    pub size: usize,
    /// Edge probability inside a block.
    pub p: f64,
}

impl Blocks {
    /// 256 blocks of 16 nodes (about 12k edges); small for the tests.
    pub fn of(scale: Scale) -> Blocks {
        match scale {
            Scale::Full => Blocks {
                blocks: 256,
                size: 16,
                p: 0.2,
            },
            Scale::Smoke => Blocks {
                blocks: 16,
                size: 8,
                p: 0.25,
            },
        }
    }

    /// The seeded graph of this shape.
    pub fn graph(&self, seed: u64) -> Digraph {
        let mut g = Digraph::new(self.blocks * self.size);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for b in 0..self.blocks {
            for u in 0..self.size {
                for v in 0..self.size {
                    if u != v && rng.gen_bool(self.p) {
                        g.add_edge((b * self.size + u) as u32, (b * self.size + v) as u32);
                    }
                }
            }
        }
        g
    }
}

/// A random digraph on `n` nodes with exactly `m` distinct edges
/// `(u, v)`, `u != v`: a fixed edge count keeps the evaluation cost from
/// swinging with the seed the way `G(n, p)` near its threshold does.
pub fn random_digraph_m(n: usize, m: usize, seed: u64) -> Digraph {
    assert!(
        n >= 2 && m <= n * (n - 1),
        "{m} edges do not fit on {n} nodes"
    );
    let mut g = Digraph::new(n);
    let mut rng = SplitMix64::seed_from_u64(seed);
    while g.edge_count() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// `g` with its nodes renamed by a seeded uniform permutation: an
/// isomorphic copy, so every seed gets different tuples of equal cost.
pub fn relabel(g: &Digraph, seed: u64) -> Digraph {
    let n = g.node_count();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let mut out = Digraph::new(n);
    for (u, v) in g.edges() {
        out.add_edge(perm[u as usize], perm[v as usize]);
    }
    out
}

/// FNV-1a over a stream of words: a digest that tells whether two runs
/// generated the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in every tuple of every relation of `s`.
    pub fn structure(&mut self, s: &Structure) {
        self.word(s.universe_size() as u64);
        for r in s.vocabulary().relations() {
            for t in s.relation(r).iter() {
                for &e in t {
                    self.word(e as u64);
                }
            }
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Row `x` of the transitive closure: `y` is set iff a path of at least
/// one edge leads from `x` to `y` (BFS from `kv-graphalg`, plus a cycle
/// test through `x`'s predecessors for the diagonal).
pub fn closure_row(g: &Digraph, x: u32) -> Vec<bool> {
    let mut row = reachable_from(g, x, &[]);
    row[x as usize] = g.predecessors(x).iter().any(|&p| row[p as usize]);
    row
}
