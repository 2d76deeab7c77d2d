//! The allocation-free refinement engine.
//!
//! This is the workhorse behind every summary construction in the paper:
//! A(k) k-bisimulation (§2) and the D(k)-index's selective refinement rounds
//! (§4.2, Algorithm 2) are both driven through it. Each round (one per
//! k-level) is recorded under the `partition.*` telemetry metrics —
//! `partition.rounds`, `partition.symbols_interned`,
//! `partition.blocks_per_round` and the `partition.round_ns` span — when the
//! recorder is enabled.
//!
//! [`RefineEngine`] computes the same rounds as [`crate::refine`] — regroup
//! nodes by `(current block, sorted parent-block set)` — in one pass over
//! the nodes in id order, holding its scratch state across rounds:
//!
//! * **Signature interning**: a refined node's sorted, deduplicated
//!   parent-block slice is interned into the round's `u32` symbol table as
//!   soon as it is computed (hash chains with slice-equality collision
//!   checks). Only the *distinct* signatures are kept, so the round holds no
//!   per-node signature, digest or symbol: its per-node state is the output
//!   partition alone.
//! * **One-parent signatures by array**: a node with exactly one parent has
//!   the one-block signature `[block_of(parent)]`, whose symbol the round
//!   keeps in an array indexed by that block, so only the first such node
//!   per parent block reaches the hash chains. That first lookup interns the
//!   slice like any other, so a multi-parent node whose parents all fall in
//!   one block (a deduplicated signature of length 1) meets the one-parent
//!   nodes on the same symbol.
//! * **Packed keys**: a refined node's new block is looked up by its
//!   `(BlockId, symbol)` pair packed into a `u64`, so no variable-length
//!   vector is ever hashed. A node of a block the round passes through takes
//!   its new id from a per-block array instead.
//! * **Counts, then one layout**: the pass counts each new block's members,
//!   and `Partition::from_parts` lays the whole member column out from the
//!   counts in one counting pass — no per-block vector is ever built.
//!
//! The produced [`Partition`]s are **identical** (same block ids, same member
//! order) to those of [`crate::refine::refine_round`] /
//! [`crate::refine::refine_round_selective`] / [`Partition::split_by_key`]:
//! new block ids are assigned in order of first appearance by node id, and
//! equal `(block, signature)` pairs intern to equal `(block, symbol)` pairs.
//! The reference implementations in [`crate::refine`] are kept as the oracle
//! for equivalence tests and before/after benchmarks.

#![deny(clippy::iter_over_hash_type)]

use crate::partition::{BlockId, Partition};
use dkindex_graph::{LabeledGraph, NodeId};
use dkindex_telemetry as telemetry;
use std::collections::HashMap;

/// "No entry" in the engine's `u32` id arrays: no new id given yet to a
/// passed-through block, no further symbol on a hash chain. Real ids are
/// dense from 0 and bounded by the `u32` node id space, so they never reach it.
const NONE: u32 = u32::MAX;

/// Reusable scratch state for signature-interned partition refinement.
///
/// Build once, call [`refine_round`](Self::refine_round) (or
/// [`k_bisimulation`](Self::k_bisimulation)) many times: after warm-up the
/// only allocations per round are the output partition's own maps.
#[derive(Clone, Debug, Default)]
pub struct RefineEngine {
    /// Sort/dedup scratch for one node's signature.
    scratch: Vec<BlockId>,
    /// The round's distinct signatures, concatenated.
    sym_data: Vec<BlockId>,
    /// Symbol → its defining slice in `sym_data`.
    sym_slice: Vec<(u32, u32)>,
    /// Symbol → the next symbol whose signature has the same digest.
    sym_next: Vec<u32>,
    /// Signature digest → the first symbol on its chain.
    heads: HashMap<u64, u32, MixBuild>,
    /// Packed `(block, symbol)` → new block index, for refined blocks.
    pair_ids: HashMap<u64, u32, MixBuild>,
    /// Old block → its new block index, for blocks the round passes
    /// through (or [`NONE`] before the block's first member).
    skip_ids: Vec<u32>,
    /// Old block → the symbol of the one-block signature `[block]`, once a
    /// node of the round has interned it (or [`NONE`]).
    single_syms: Vec<u32>,
    /// New block → member count.
    counts: Vec<u32>,
}

/// Multiply-mix hasher for the engine's integer keys. Both engine maps are
/// keyed by values the engine already hashed or packed (`hash_signature`
/// digests, packed `(block, symbol)` pairs), so the default SipHash would
/// cost more than the rest of the lookup; one multiply and an xor-shift
/// spread the bits well enough for table indexing.
#[derive(Clone, Debug, Default)]
struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        let x = i.wrapping_mul(0x9e3779b97f4a7c15);
        self.0 = x ^ (x >> 29);
    }
}

type MixBuild = std::hash::BuildHasherDefault<MixHasher>;

impl RefineEngine {
    /// An engine with empty scratch buffers.
    pub fn new() -> Self {
        RefineEngine::default()
    }

    /// One full refinement round: regroup every node by
    /// `(current block, parent-block set)`. Identical output to
    /// [`crate::refine::refine_round`].
    pub fn refine_round<G: LabeledGraph>(
        &mut self,
        g: &G,
        prev: &Partition,
    ) -> (Partition, bool) {
        self.refine_round_selective(g, prev, |_| true)
    }

    /// One selective round: blocks failing `refine_block` pass through
    /// unchanged. Identical output to
    /// [`crate::refine::refine_round_selective`]. `refine_block` must be
    /// pure — it is consulted once per node.
    pub fn refine_round_selective<G: LabeledGraph>(
        &mut self,
        g: &G,
        prev: &Partition,
        refine_block: impl Fn(BlockId) -> bool,
    ) -> (Partition, bool) {
        let n = g.node_count();
        debug_assert_eq!(n, prev.node_count());
        let span = telemetry::Span::start(&telemetry::metrics::PARTITION_ROUND_NS);
        self.sym_data.clear();
        self.sym_slice.clear();
        self.sym_next.clear();
        self.heads.clear();
        self.pair_ids.clear();
        self.skip_ids.clear();
        self.skip_ids.resize(prev.block_count(), NONE);
        self.single_syms.clear();
        self.single_syms.resize(prev.block_count(), NONE);
        self.counts.clear();

        // The pass: each node's new block id, in node order, numbered by
        // first appearance.
        let mut block_of = Vec::with_capacity(n);
        let mut refined = 0u64;
        for i in 0..n {
            let node = NodeId::from_index(i);
            let block = prev.block_of(node);
            let fresh = self.counts.len() as u32;
            let id = if refine_block(block) {
                refined += 1;
                let sym = match g.parents_of(node) {
                    &[parent] => {
                        let parent = prev.block_of(parent);
                        match self.single_syms[parent.index()] {
                            NONE => {
                                self.scratch.clear();
                                self.scratch.push(parent);
                                let sym = self.intern();
                                self.single_syms[parent.index()] = sym;
                                sym
                            }
                            sym => sym,
                        }
                    }
                    parents => {
                        self.scratch.clear();
                        self.scratch.extend(parents.iter().map(|&p| prev.block_of(p)));
                        self.scratch.sort_unstable();
                        self.scratch.dedup();
                        self.intern()
                    }
                };
                let key = ((block.index() as u64) << 32) | sym as u64;
                *self.pair_ids.entry(key).or_insert(fresh)
            } else {
                let slot = &mut self.skip_ids[block.index()];
                if *slot == NONE {
                    *slot = fresh;
                }
                *slot
            };
            if id == fresh {
                self.counts.push(0);
            }
            self.counts[id as usize] += 1;
            block_of.push(BlockId::from_index(id as usize));
        }

        let changed = self.counts.len() != prev.block_count();
        let next = Partition::from_parts(block_of, std::mem::take(&mut self.counts));
        drop(span);
        telemetry::metrics::PARTITION_ROUNDS.incr();
        if changed {
            telemetry::metrics::PARTITION_ROUNDS_CHANGED.incr();
        }
        telemetry::metrics::PARTITION_SYMBOLS_INTERNED.add(self.sym_slice.len() as u64);
        telemetry::metrics::PARTITION_BLOCKS_PER_ROUND.record(next.block_count() as u64);
        telemetry::metrics::PARTITION_NODES_REFINED.add(refined);
        (next, changed)
    }

    /// The symbol of the signature in `scratch`: an existing one when an
    /// equal signature was interned earlier this round, else a new one whose
    /// slice is copied into `sym_data`.
    fn intern(&mut self) -> u32 {
        let sig = &self.scratch;
        let digest = hash_signature(sig);
        let head = self.heads.get(&digest).copied().unwrap_or(NONE);
        let mut cand = head;
        while cand != NONE {
            let (s, e) = self.sym_slice[cand as usize];
            if self.sym_data[s as usize..e as usize] == **sig {
                return cand;
            }
            cand = self.sym_next[cand as usize];
        }
        let sym = self.sym_slice.len() as u32;
        let start = self.sym_data.len() as u32;
        self.sym_data.extend_from_slice(sig);
        self.sym_slice.push((start, self.sym_data.len() as u32));
        // A new symbol goes to the front of its digest's chain.
        self.sym_next.push(head);
        self.heads.insert(digest, sym);
        sym
    }

    /// The k-bisimulation partition of `g` (extents of the A(k)-index),
    /// identical to [`crate::refine::k_bisimulation`].
    pub fn k_bisimulation<G: LabeledGraph>(&mut self, g: &G, k: usize) -> Partition {
        let mut p = Partition::by_label(g);
        for _ in 0..k {
            let (next, changed) = self.refine_round(g, &p);
            p = next;
            if !changed {
                break;
            }
        }
        p
    }
}

/// FNV-1a over the block values plus the slice length. Collisions are fine —
/// interning compares slices — the hash only spreads bucket load.
#[inline]
fn hash_signature(slice: &[BlockId]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in slice {
        h ^= b.index() as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ slice.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine;
    use dkindex_graph::{DataGraph, EdgeKind};

    /// Deterministic pseudo-random graph with shared labels, tree and
    /// reference edges — enough structure to exercise multi-round splits.
    fn scrambled(nodes: usize, seed: u64) -> DataGraph {
        let mut g = DataGraph::new();
        let labels = ["a", "b", "c", "d"];
        let mut state = seed | 1;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ids = vec![g.root()];
        for _ in 0..nodes {
            let l = labels[(rand() % labels.len() as u64) as usize];
            let n = g.add_labeled_node(l);
            let parent = ids[(rand() % ids.len() as u64) as usize];
            g.add_edge(parent, n, EdgeKind::Tree);
            if rand() % 3 == 0 {
                let extra = ids[(rand() % ids.len() as u64) as usize];
                if extra != parent {
                    g.add_edge(extra, n, EdgeKind::Reference);
                }
            }
            ids.push(n);
        }
        g
    }

    #[test]
    fn engine_round_is_identical_to_reference() {
        for seed in [1, 7, 42] {
            let g = scrambled(60, seed);
            let mut engine = RefineEngine::new();
            let mut p = Partition::by_label(&g);
            for round in 0..6 {
                let (reference, ref_changed) = refine::refine_round(&g, &p);
                let (fast, fast_changed) = engine.refine_round(&g, &p);
                assert_eq!(reference, fast, "seed {seed} round {round}");
                assert_eq!(ref_changed, fast_changed, "seed {seed} round {round}");
                // Also checks that every block's members ascend.
                fast.check_consistency().unwrap();
                p = fast;
            }
        }
    }

    #[test]
    fn engine_selective_round_is_identical_to_reference() {
        let g = scrambled(80, 5);
        let mut engine = RefineEngine::new();
        let p = refine::k_bisimulation(&g, 1);
        // Refine only even-numbered blocks.
        let flag = |b: BlockId| b.index() & 1 == 0;
        let (reference, ref_changed) = refine::refine_round_selective(&g, &p, flag);
        let (fast, fast_changed) = engine.refine_round_selective(&g, &p, flag);
        assert_eq!(reference, fast);
        assert_eq!(ref_changed, fast_changed);
    }

    #[test]
    fn engine_fixpoints_match_reference() {
        let g = scrambled(70, 11);
        let mut engine = RefineEngine::new();
        assert_eq!(engine.k_bisimulation(&g, 3), refine::k_bisimulation(&g, 3));
        // More rounds than nodes: k_bisimulation stops at the fixpoint.
        assert_eq!(
            engine.k_bisimulation(&g, g.node_count()),
            refine::bisimulation_fixpoint(&g)
        );
    }

    #[test]
    fn engine_reuse_across_graphs_is_clean() {
        let mut engine = RefineEngine::new();
        let big = scrambled(100, 3);
        let _ = engine.k_bisimulation(&big, big.node_count());
        // A smaller graph afterwards must not see stale state.
        let small = scrambled(20, 9);
        assert_eq!(
            engine.k_bisimulation(&small, small.node_count()),
            refine::bisimulation_fixpoint(&small)
        );
    }

    /// A node whose two parents share a block has the deduplicated
    /// signature `[block]`, the one-parent signature of that block: it lands
    /// with a one-parent node of its label, whichever comes first.
    #[test]
    fn two_parents_in_one_block_meet_one_parent_on_one_symbol() {
        for two_first in [true, false] {
            let mut g = DataGraph::new();
            let r = g.root();
            let (a1, a2) = (g.add_labeled_node("a"), g.add_labeled_node("a"));
            g.add_edge(r, a1, EdgeKind::Tree);
            g.add_edge(r, a2, EdgeKind::Tree);
            let mut b = [g.add_labeled_node("b"), g.add_labeled_node("b")];
            if !two_first {
                b.reverse();
            }
            let [two, one] = b;
            g.add_edge(a1, two, EdgeKind::Tree);
            g.add_edge(a2, two, EdgeKind::Reference);
            g.add_edge(a2, one, EdgeKind::Tree);
            let p = Partition::by_label(&g);
            let (reference, _) = refine::refine_round_selective(&g, &p, |_| true);
            let (fast, _) = RefineEngine::new().refine_round_selective(&g, &p, |_| true);
            assert_eq!(reference, fast, "two-parent node first: {two_first}");
            assert!(fast.same_block(two, one), "two-parent node first: {two_first}");
        }
    }

    #[test]
    fn empty_signatures_are_distinct_from_skipped_blocks() {
        // Parentless nodes (empty signature) in a refined block must not be
        // merged with nodes of skipped blocks.
        let mut g = DataGraph::new();
        let a1 = g.add_labeled_node("a");
        let _orphan = g.add_labeled_node("a"); // no parents at all
        let r = g.root();
        g.add_edge(r, a1, EdgeKind::Tree);
        let p = Partition::by_label(&g);
        let mut engine = RefineEngine::new();
        for flag in [true, false] {
            let (reference, _) = refine::refine_round_selective(&g, &p, |_| flag);
            let (fast, _) = engine.refine_round_selective(&g, &p, |_| flag);
            assert_eq!(reference, fast, "flag {flag}");
        }
    }
}
