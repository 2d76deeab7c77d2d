//! `SegCsr`: a persistent adjacency column — compressed sparse rows inside
//! `Arc`-shared segments of `SEG_SIZE` rows. It is the storage behind
//! `DataGraph`'s children and parents.
//!
//! Each segment holds its rows as CSR: `offsets[r]..offsets[r + 1]` is row
//! `r`'s slice of one `targets` array. Reading a row is one segment lookup
//! and one slice, with no per-row heap allocation to chase. Appending to a
//! row inserts at the end of that row and bumps the later offsets of the
//! same segment, so every row keeps its insertion order.
//!
//! ## COW invariants
//!
//! The column follows [`SegVec`](crate::SegVec)'s four invariants:
//!
//! 1. **Clone is shallow**: `clone()` never copies a row, only segment
//!    handles.
//! 2. **Mutation is localized**: [`SegCsr::push_to_row`] deep-copies at
//!    most the one segment holding the row, and only when that segment is
//!    shared (`Arc` refcount > 1). [`SegCsr::push_row`] copies nothing: a
//!    new row starts empty, and the unused tail of a segment already reads
//!    as empty rows.
//! 3. **Sharing is observable**: [`SegCsr::shared_segments_with`] counts
//!    positionally pointer-equal segments.
//! 4. **Representation never leaks into answers**: every row reads, in
//!    order, exactly as a `Vec<Vec<NodeId>>` given the same appends.
//!
//! An append costs the targets of the later rows of its own segment (at
//! most 63 rows), never more of the column.
//!
//! This module denies clippy's panic and hash-iteration lints (below):
//! every accessor is `Option`-returning (no indexing, no `unwrap`), and
//! iteration follows declared row order only.

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
use crate::segvec::{SEG_MASK, SEG_SHIFT, SEG_SIZE};
use std::sync::Arc;

/// One segment: rows `0..SEG_SIZE` as CSR over `targets`. Rows past the
/// column's length are empty, so `offsets` ends at `targets.len()`.
#[derive(Clone)]
struct Segment {
    offsets: [u32; SEG_SIZE + 1],
    targets: Vec<NodeId>,
}

impl Segment {
    fn row(&self, local: usize) -> Option<&[NodeId]> {
        let start = *self.offsets.get(local)? as usize;
        let end = *self.offsets.get(local + 1)? as usize;
        self.targets.get(start..end)
    }
}

/// Rows of `NodeId`s stored as per-segment CSR, segments `Arc`-shared
/// between clones and copied on write. See the module docs for the COW
/// invariants.
#[derive(Clone, Default)]
pub struct SegCsr {
    segments: Vec<Arc<Segment>>,
    rows: usize,
}

impl SegCsr {
    /// A column with no rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// The targets of `row` in insertion order, or `None` when out of range.
    #[inline]
    pub fn row(&self, row: usize) -> Option<&[NodeId]> {
        if row >= self.rows {
            return None;
        }
        self.segments.get(row >> SEG_SHIFT)?.row(row & SEG_MASK)
    }

    /// Append an empty row. Copies nothing (COW invariant 2).
    pub fn push_row(&mut self) {
        if self.rows & SEG_MASK == 0 {
            self.segments.push(Arc::new(Segment {
                offsets: [0; SEG_SIZE + 1],
                targets: Vec::new(),
            }));
        }
        self.rows += 1;
    }

    /// Append `target` at the end of `row`, copying the row's segment first
    /// when it is shared. Returns `false` (and changes nothing) when `row`
    /// is out of range.
    pub fn push_to_row(&mut self, row: usize, target: NodeId) -> bool {
        if row >= self.rows {
            return false;
        }
        let Some(segment) = self.segments.get_mut(row >> SEG_SHIFT) else {
            return false;
        };
        let segment = Arc::make_mut(segment);
        let local = row & SEG_MASK;
        let Some(&end) = segment.offsets.get(local + 1) else {
            return false;
        };
        segment.targets.insert(end as usize, target);
        for offset in segment.offsets.iter_mut().skip(local + 1) {
            *offset += 1;
        }
        true
    }

    /// Total number of targets over all rows.
    pub fn target_count(&self) -> usize {
        self.segments.iter().map(|s| s.targets.len()).sum()
    }

    /// Number of segments currently backing the column.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Count of segments positionally pointer-shared with `other`: slot `i`
    /// of both columns is the same allocation (`Arc::ptr_eq`).
    pub fn shared_segments_with(&self, other: &SegCsr) -> usize {
        self.segments
            .iter()
            .zip(other.segments.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// `rows` rows, row `r` holding `r % 3` targets.
    fn filled(rows: usize) -> SegCsr {
        let mut c = SegCsr::new();
        for r in 0..rows {
            c.push_row();
            for t in 0..r % 3 {
                assert!(c.push_to_row(r, n(t)));
            }
        }
        c
    }

    fn as_vecs(c: &SegCsr) -> Vec<Vec<NodeId>> {
        (0..c.rows).filter_map(|r| c.row(r)).map(<[NodeId]>::to_vec).collect()
    }

    #[test]
    fn rows_read_in_insertion_order() {
        let mut c = SegCsr::new();
        for _ in 0..3 {
            c.push_row();
        }
        for (row, target) in [(1, 9), (0, 4), (1, 2), (2, 7), (1, 5), (0, 1)] {
            assert!(c.push_to_row(row, n(target)));
        }
        assert_eq!(c.row(0), Some(&[n(4), n(1)][..]));
        assert_eq!(c.row(1), Some(&[n(9), n(2), n(5)][..]));
        assert_eq!(c.row(2), Some(&[n(7)][..]));
        assert_eq!(c.row(3), None);
        assert_eq!(c.target_count(), 6);
    }

    #[test]
    fn push_row_spans_segments() {
        let c = filled(3 * SEG_SIZE + 7);
        assert_eq!(c.segment_count(), 4);
        for r in 0..3 * SEG_SIZE + 7 {
            assert_eq!(c.row(r).map(<[NodeId]>::len), Some(r % 3));
        }
        assert_eq!(c.row(3 * SEG_SIZE + 7), None);
    }

    #[test]
    fn clone_shares_every_segment() {
        let c = filled(5 * SEG_SIZE);
        let d = c.clone();
        assert_eq!(d.shared_segments_with(&c), c.segment_count());
        assert_eq!(as_vecs(&c), as_vecs(&d));
    }

    #[test]
    fn append_copies_only_its_own_segment() {
        let c = filled(4 * SEG_SIZE);
        let mut d = c.clone();
        assert!(d.push_to_row(SEG_SIZE + 4, n(99)));
        assert_eq!(d.shared_segments_with(&c), c.segment_count() - 1);
        // The original is unchanged; the clone's row grew at its end.
        assert_eq!(c.row(SEG_SIZE + 4), Some(&[n(0), n(1)][..]));
        assert_eq!(d.row(SEG_SIZE + 4), Some(&[n(0), n(1), n(99)][..]));
        // The later rows of the copied segment read as before.
        for r in SEG_SIZE + 5..2 * SEG_SIZE {
            assert_eq!(c.row(r), d.row(r));
        }
    }

    #[test]
    fn push_row_after_clone_copies_nothing() {
        let c = filled(2 * SEG_SIZE + 5);
        let mut d = c.clone();
        d.push_row();
        assert_eq!(d.shared_segments_with(&c), c.segment_count());
        assert_eq!(d.row(2 * SEG_SIZE + 5), Some(&[][..]));
        assert_eq!(c.row(2 * SEG_SIZE + 5), None);
        assert!(d.push_to_row(2 * SEG_SIZE + 5, n(1)));
        assert_eq!(d.shared_segments_with(&c), c.segment_count() - 1);
    }

    #[test]
    fn push_row_on_a_full_boundary_allocates_a_fresh_segment() {
        let c = filled(SEG_SIZE);
        let mut d = c.clone();
        d.push_row();
        assert_eq!(d.segment_count(), 2);
        assert_eq!(d.shared_segments_with(&c), 1);
    }

    #[test]
    fn out_of_range_append_changes_nothing() {
        let mut c = filled(3);
        assert!(!c.push_to_row(3, n(0)));
        assert!(!c.push_to_row(usize::MAX, n(0)));
        assert_eq!(c.target_count(), 3);
    }
}
