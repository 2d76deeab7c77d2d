//! `Adjacency`: a graph's edges, each stored once per direction — the
//! adjacency of both `DataGraph` and the index graphs of `dkindex-core`.
//!
//! Two [`SegCsr`] columns under one row rule: a **child row** lists its
//! targets in the order they were added, a **parent row** its sources
//! ascending. So testing an edge is one binary search of a parent row, and
//! the edges are the child rows read in node order ([`Adjacency::edges`]).
//! [`Adjacency::from_child_rows`] lays both columns out once from the child
//! rows, row for row as [`Adjacency::add`] over the same edges leaves them.
//!
//! Clones share every segment (the COW invariants of [`SegCsr`]): adding or
//! removing `from → to` copies at most `from`'s child segment and `to`'s
//! parent segment, and a write that changes nothing copies nothing. Like
//! [`SegCsr`], this module denies clippy's panic lints: an out-of-range row
//! reads as `None` and an out-of-range write changes nothing.

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

use crate::graph::NodeId;
use crate::segcsr::{ColumnCensus, SegCsr};

/// Child and parent rows over node ids `0..rows()`: child rows in insertion
/// order, parent rows ascending. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Adjacency {
    children: SegCsr,
    parents: SegCsr,
}

impl Adjacency {
    /// `rows` empty rows.
    pub fn with_rows(rows: usize) -> Self {
        let mut adjacency = Self::default();
        for _ in 0..rows {
            adjacency.push_row();
        }
        adjacency
    }

    /// The adjacency whose child rows are `children` (laid out once by
    /// [`SegCsr::from_rows`]); the parent rows come from one counting
    /// transpose of the child rows in row order, which leaves each
    /// ascending (`SegCsr::transpose`). The rows equal those
    /// [`Adjacency::add`] leaves after adding each child row's edges in
    /// order. Fails, with the reason, when a target is not a node or a
    /// child row repeats a target (its parent row would then list that
    /// row twice).
    pub fn from_child_rows(children: SegCsr) -> Result<Adjacency, &'static str> {
        let parents = children.transpose().ok_or("a target is not a node")?;
        let rows = (0..parents.rows()).filter_map(|row| parents.row(row));
        if rows.flat_map(|row| row.windows(2)).any(|pair| pair.first() == pair.last()) {
            return Err("a row repeats a target");
        }
        Ok(Adjacency { children, parents })
    }

    /// Number of rows (node ids `0..rows()`).
    pub fn rows(&self) -> usize {
        self.children.rows()
    }

    /// Append one node with an empty child and parent row. Copies nothing.
    pub fn push_row(&mut self) {
        self.children.push_row();
        self.parents.push_row();
    }

    /// `node`'s children in insertion order, or `None` when out of range.
    #[inline]
    pub fn children(&self, node: NodeId) -> Option<&[NodeId]> {
        self.children.row(node.index())
    }

    /// `node`'s parents, ascending, or `None` when out of range.
    #[inline]
    pub fn parents(&self, node: NodeId) -> Option<&[NodeId]> {
        self.parents.row(node.index())
    }

    /// True if the edge `from → to` exists: a binary search of `to`'s
    /// parent row.
    pub fn has(&self, from: NodeId, to: NodeId) -> bool {
        self.parents(to)
            .is_some_and(|row| row.binary_search(&from).is_ok())
    }

    /// Add the edge `from → to`: `to` goes to the end of `from`'s child row
    /// and `from` to its ascending place in `to`'s parent row. Returns
    /// `false` (and changes nothing) when the edge exists or an endpoint is
    /// out of range.
    pub fn add(&mut self, from: NodeId, to: NodeId) -> bool {
        if from.index() >= self.rows() {
            return false;
        }
        let Some(Err(at)) = self.parents(to).map(|row| row.binary_search(&from)) else {
            return false;
        };
        self.children.push_to_row(from.index(), to);
        self.parents.insert_into_row(to.index(), at, from);
        true
    }

    /// Remove the edge `from → to`; the rest of both rows keeps its order.
    /// Returns `false` (and changes nothing) when there is no such edge.
    pub fn remove(&mut self, from: NodeId, to: NodeId) -> bool {
        if !self.has(from, to) {
            return false;
        }
        self.children.retain_row(from.index(), |c| c != to);
        self.parents.retain_row(to.index(), |p| p != from)
    }

    /// Every edge `(from, to)`, child row by child row in node order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.rows()).flat_map(move |from| {
            let row = self.children.row(from).unwrap_or_default();
            row.iter().map(move |&to| (NodeId::from_index(from), to))
        })
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.children.target_count()
    }

    /// The child and the parent column's [`ColumnCensus`] against an older
    /// snapshot of these rows.
    pub fn census_with(&self, older: &Adjacency) -> [ColumnCensus; 2] {
        [self.children.census_with(&older.children), self.parents.census_with(&older.parents)]
    }

}
