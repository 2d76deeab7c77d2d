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
//! nodes by `(current block, sorted parent-block set)` — but holds every
//! piece of scratch state across rounds:
//!
//! * **Signature arena**: each round writes all nodes' sorted, deduplicated
//!   parent-block slices into one reused buffer (`sig_data` + `sig_bounds`)
//!   instead of allocating a fresh `Vec<BlockId>` per node.
//! * **Signature interning**: slices are hashed into a per-round `u32` symbol
//!   table (hash buckets with slice-equality collision checks), so regrouping
//!   keys are `(BlockId, u32)` pairs packed into a `u64` — no hashing of
//!   variable-length vectors, no per-key allocation.
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

/// Symbol given to members of blocks a selective round passes through
/// unchanged. Real symbols are dense from 0, so the sentinel cannot collide
/// with an interned signature (an engine would need 2^32 - 1 distinct
/// signatures first, more than the `u32` node id space allows).
const SKIP_SYMBOL: u32 = u32::MAX;

/// Reusable scratch state for signature-interned partition refinement.
///
/// Build once, call [`refine_round`](Self::refine_round) (or
/// [`k_bisimulation`](Self::k_bisimulation)) many times: after warm-up the
/// only allocations per round are the output partition's own maps.
#[derive(Clone, Debug, Default)]
pub struct RefineEngine {
    /// Concatenated per-node signatures for the current round.
    sig_data: Vec<BlockId>,
    /// `sig_bounds[i]..sig_bounds[i + 1]` delimits node i's slice.
    sig_bounds: Vec<u32>,
    /// Per-node signature digest, computed by the signature stage so the
    /// interning stage never hashes. Entries for skipped nodes are unused.
    sig_hash: Vec<u64>,
    /// Sort/dedup scratch for the signature stage.
    scratch: Vec<BlockId>,
    /// Signature hash → candidate symbols (collisions resolved by comparing
    /// slices).
    buckets: HashMap<u64, Vec<u32>, MixBuild>,
    /// Symbol → its defining slice in `sig_data`.
    sym_slice: Vec<(u32, u32)>,
    /// Node → interned symbol (or [`SKIP_SYMBOL`]).
    node_symbol: Vec<u32>,
    /// Packed `(block, symbol)` → new block index.
    pair_ids: HashMap<u64, u32, MixBuild>,
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
    /// pure — it is consulted once per node per stage.
    pub fn refine_round_selective<G: LabeledGraph>(
        &mut self,
        g: &G,
        prev: &Partition,
        refine_block: impl Fn(BlockId) -> bool,
    ) -> (Partition, bool) {
        let n = g.node_count();
        debug_assert_eq!(n, prev.node_count());
        let span = telemetry::Span::start(&telemetry::metrics::PARTITION_ROUND_NS);
        self.compute_signatures(g, prev, &refine_block);
        self.intern_symbols(prev, &refine_block, n);
        let (next, changed) = self.regroup(prev, n);
        drop(span);
        telemetry::metrics::PARTITION_ROUNDS.incr();
        if changed {
            telemetry::metrics::PARTITION_ROUNDS_CHANGED.incr();
        }
        telemetry::metrics::PARTITION_SYMBOLS_INTERNED.add(self.sym_slice.len() as u64);
        telemetry::metrics::PARTITION_BLOCKS_PER_ROUND.record(next.block_count() as u64);
        if telemetry::is_enabled() {
            let refined = self
                .node_symbol
                .iter()
                .filter(|&&s| s != SKIP_SYMBOL)
                .count();
            telemetry::metrics::PARTITION_NODES_REFINED.add(refined as u64);
        }
        (next, changed)
    }

    /// Stage 1: fill `sig_data` / `sig_bounds` with every refined node's
    /// sorted, deduplicated parent-block slice (skipped nodes get an empty
    /// slice), and `sig_hash` with each refined slice's digest, leaving the
    /// interning stage nothing but table lookups.
    fn compute_signatures<G: LabeledGraph>(
        &mut self,
        g: &G,
        prev: &Partition,
        refine_block: &impl Fn(BlockId) -> bool,
    ) {
        let n = g.node_count();
        self.sig_data.clear();
        self.sig_bounds.clear();
        self.sig_bounds.push(0);
        self.sig_hash.clear();

        let fill = |range: std::ops::Range<usize>,
                    scratch: &mut Vec<BlockId>,
                    data: &mut Vec<BlockId>,
                    bounds: &mut Vec<u32>,
                    hashes: &mut Vec<u64>| {
            for i in range {
                let node = NodeId::from_index(i);
                if refine_block(prev.block_of(node)) {
                    scratch.clear();
                    scratch.extend(g.parents_of(node).iter().map(|&p| prev.block_of(p)));
                    scratch.sort_unstable();
                    scratch.dedup();
                    data.extend_from_slice(scratch);
                    hashes.push(hash_signature(scratch));
                } else {
                    hashes.push(0); // unused: interning checks refine_block first
                }
                bounds.push(data.len() as u32);
            }
        };

        let mut scratch = std::mem::take(&mut self.scratch);
        let mut data = std::mem::take(&mut self.sig_data);
        let mut bounds = std::mem::take(&mut self.sig_bounds);
        let mut hashes = std::mem::take(&mut self.sig_hash);
        fill(0..n, &mut scratch, &mut data, &mut bounds, &mut hashes);
        self.scratch = scratch;
        self.sig_data = data;
        self.sig_bounds = bounds;
        self.sig_hash = hashes;
    }

    /// Stage 2: intern each refined node's slice into the round's symbol
    /// table, in node order. The digests were already computed by the
    /// signature stage; this loop only does bucket lookups and
    /// slice-equality collision checks.
    fn intern_symbols(
        &mut self,
        prev: &Partition,
        refine_block: &impl Fn(BlockId) -> bool,
        n: usize,
    ) {
        self.buckets.clear();
        self.sym_slice.clear();
        self.node_symbol.clear();
        let sig_data = &self.sig_data;
        let sig_bounds = &self.sig_bounds;
        for i in 0..n {
            let node = NodeId::from_index(i);
            if !refine_block(prev.block_of(node)) {
                self.node_symbol.push(SKIP_SYMBOL);
                continue;
            }
            let (s, e) = (sig_bounds[i] as usize, sig_bounds[i + 1] as usize);
            let slice = &sig_data[s..e];
            let bucket = self.buckets.entry(self.sig_hash[i]).or_default();
            let mut sym = SKIP_SYMBOL;
            for &cand in bucket.iter() {
                let (cs, ce) = self.sym_slice[cand as usize];
                if sig_data[cs as usize..ce as usize] == *slice {
                    sym = cand;
                    break;
                }
            }
            if sym == SKIP_SYMBOL {
                sym = self.sym_slice.len() as u32;
                self.sym_slice.push((s as u32, e as u32));
                bucket.push(sym);
            }
            self.node_symbol.push(sym);
        }
    }

    /// Stage 3: regroup by packed `(old block, symbol)` pairs, assigning new
    /// block ids in order of first appearance by node id — exactly
    /// [`Partition::split_by_key`]'s numbering.
    fn regroup(&mut self, prev: &Partition, n: usize) -> (Partition, bool) {
        self.pair_ids.clear();
        let mut block_of = Vec::with_capacity(n);
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        for i in 0..n {
            let node = NodeId::from_index(i);
            let key =
                ((prev.block_of(node).index() as u64) << 32) | self.node_symbol[i] as u64;
            let next = members.len() as u32;
            let id = *self.pair_ids.entry(key).or_insert(next);
            if id == next {
                members.push(Vec::new());
            }
            block_of.push(BlockId::from_index(id as usize));
            members[id as usize].push(node);
        }
        let changed = members.len() != prev.block_count();
        (Partition::from_parts(block_of, members), changed)
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
