//! Persistent, `Arc`-shared block storage for index graphs — the core of
//! the delta-epoch publish path.
//!
//! An [`IndexGraph`](crate::IndexGraph) owns one [`Block`] per index node:
//! the node's label, local similarity `k`, sorted extent, and both
//! adjacency lists. A [`BlockStore`] keeps each block behind an [`Arc`], so
//! cloning a store (and therefore a `DkIndex`) bumps one refcount per block
//! instead of deep-copying extents and adjacency. Mutation goes through
//! [`BlockStore::make_mut`], which copies **only the addressed block** when
//! it is still shared with an older epoch — everything a maintenance batch
//! does not touch stays pointer-identical across epochs.
//!
//! ## COW invariants
//!
//! 1. **Clone is shallow**: `clone()` copies block handles, never block
//!    contents.
//! 2. **Mutation is per-block**: `make_mut(i)` deep-copies block `i` alone,
//!    and only while its `Arc` is shared.
//! 3. **Sharing is observable**: [`BlockStore::ptr_eq_at`] and
//!    [`BlockStore::shared_with`] expose positional pointer identity, which
//!    the sharing regression tests and the `serve.publish.blocks_*`
//!    counters are built on.
//! 4. **Representation never leaks into answers**: a query, snapshot, or
//!    audit sees identical bytes whether its epoch shares every block or
//!    none.
//!
//! This module denies clippy's panic and hash-iteration lints (below):
//! accessors are `Option`-returning and all iteration is in block-id order.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

use dkindex_graph::{LabelId, NodeId};
use std::sync::Arc;

/// Per-index-node state: everything the summary knows about one
/// equivalence class.
#[derive(Clone, Debug)]
pub struct Block {
    /// Label shared by every member of the extent.
    pub label: LabelId,
    /// Local similarity `k` of the node (paper Definition 2).
    pub similarity: usize,
    /// Data nodes summarized by this index node, sorted ascending.
    pub extent: Vec<NodeId>,
    /// Out-neighbors in the index graph.
    pub children: Vec<NodeId>,
    /// In-neighbors in the index graph.
    pub parents: Vec<NodeId>,
}

impl Block {
    /// A block with the given label, extent and similarity and no edges.
    pub fn new(label: LabelId, extent: Vec<NodeId>, similarity: usize) -> Self {
        Block {
            label,
            similarity,
            extent,
            children: Vec::new(),
            parents: Vec::new(),
        }
    }
}

/// An `Arc`-per-block store with copy-on-write mutation. See the module
/// docs for the COW invariants.
#[derive(Clone, Debug, Default)]
pub struct BlockStore {
    blocks: Vec<Arc<Block>>,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore { blocks: Vec::new() }
    }

    /// An empty store with room for `n` blocks.
    pub fn with_capacity(n: usize) -> Self {
        BlockStore {
            blocks: Vec::with_capacity(n),
        }
    }

    /// Number of blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the store holds no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Shared view of block `i`, or `None` when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Block> {
        self.blocks.get(i).map(Arc::as_ref)
    }

    /// Mutable view of block `i`, or `None` when out of range. When the
    /// block is still shared with another store (an older epoch), it is
    /// deep-copied first — the copy-on-write step (invariant 2).
    #[inline]
    pub fn make_mut(&mut self, i: usize) -> Option<&mut Block> {
        self.blocks.get_mut(i).map(Arc::make_mut)
    }

    /// Append a block, returning its id.
    pub fn push(&mut self, block: Block) -> usize {
        let id = self.blocks.len();
        self.blocks.push(Arc::new(block));
        id
    }

    /// Iterate the blocks in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter().map(Arc::as_ref)
    }

    /// True when block `i` of both stores is the same allocation — i.e.
    /// neither epoch copied it since they diverged.
    pub fn ptr_eq_at(&self, other: &BlockStore, i: usize) -> bool {
        match (self.blocks.get(i), other.blocks.get(i)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Count of positionally pointer-shared blocks with `other` — the
    /// structural-sharing census behind the `serve.publish.blocks_shared` /
    /// `blocks_rebuilt` counters (invariant 3).
    pub fn shared_with(&self, other: &BlockStore) -> usize {
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(k: usize) -> Block {
        Block::new(
            LabelId::from_index(2),
            vec![NodeId::from_index(k)],
            k,
        )
    }

    fn filled(n: usize) -> BlockStore {
        let mut s = BlockStore::with_capacity(n);
        for i in 0..n {
            assert_eq!(s.push(block(i)), i);
        }
        s
    }

    #[test]
    fn push_and_get_round_trip() {
        let s = filled(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(1).unwrap().similarity, 1);
        assert!(s.get(3).is_none());
    }

    #[test]
    fn clone_shares_every_block() {
        let s = filled(5);
        let t = s.clone();
        assert_eq!(t.shared_with(&s), 5);
        for i in 0..5 {
            assert!(t.ptr_eq_at(&s, i));
        }
    }

    #[test]
    fn make_mut_unshares_exactly_one_block() {
        let s = filled(5);
        let mut t = s.clone();
        t.make_mut(2).unwrap().similarity = 99;
        assert_eq!(t.shared_with(&s), 4);
        assert!(!t.ptr_eq_at(&s, 2));
        assert!(t.ptr_eq_at(&s, 1));
        // The older snapshot never observes the write.
        assert_eq!(s.get(2).unwrap().similarity, 2);
        assert_eq!(t.get(2).unwrap().similarity, 99);
    }

    #[test]
    fn make_mut_without_sharing_copies_nothing() {
        let mut s = filled(2);
        let before = s.blocks.first().map(Arc::as_ptr);
        s.make_mut(0).unwrap().similarity = 7;
        let after = s.blocks.first().map(Arc::as_ptr);
        assert_eq!(before, after, "unshared blocks mutate in place");
    }

    #[test]
    fn ptr_eq_at_out_of_range_is_false() {
        let s = filled(2);
        let t = filled(1);
        assert!(!s.ptr_eq_at(&t, 1));
        assert!(!s.ptr_eq_at(&t, 9));
    }

    #[test]
    fn iter_follows_id_order() {
        let s = filled(4);
        let ks: Vec<usize> = s.iter().map(|b| b.similarity).collect();
        assert_eq!(ks, vec![0, 1, 2, 3]);
    }
}
