//! `SegCsr`: a persistent adjacency column — compressed sparse rows inside
//! `Arc`-shared segments of `SEG_SIZE` rows. Two of them, children and
//! parents, make an [`Adjacency`](crate::Adjacency), the adjacency of both
//! `DataGraph` and the index graphs of `dkindex-core`; a third holds
//! `DataGraph`'s reference children.
//!
//! Each segment holds its rows as CSR: `offsets[r]..offsets[r + 1]` is row
//! `r`'s slice of one `targets` array. Reading a row is one segment lookup
//! and one slice, with no per-row heap allocation to chase. Writing into a
//! row inserts or removes inside that row and shifts the later offsets of
//! the same segment, so every row keeps the order its writes gave it.
//!
//! ## COW invariants
//!
//! The column keeps four invariants:
//!
//! 1. **Clone is shallow**: `clone()` never copies a row, only segment
//!    handles.
//! 2. **Mutation is localized**: [`SegCsr::push_to_row`],
//!    [`SegCsr::insert_into_row`] and [`SegCsr::remove_from_row`]
//!    deep-copy at most the one segment holding the row, only when that
//!    segment is shared (`Arc` refcount > 1), and only when they change the
//!    row. [`SegCsr::push_row`] copies nothing: a new row starts empty, and
//!    the unused tail of a segment already reads as empty rows.
//! 3. **Sharing is observable**: [`SegCsr::shared_segments_with`] counts
//!    positionally pointer-equal segments.
//! 4. **Representation never leaks into answers**: every row reads, in
//!    order, exactly as a `Vec<Vec<NodeId>>` given the same writes.
//!
//! A write costs the targets of the later rows of its own segment (at most
//! 63 rows), never more of the column.
//!
//! ## Bulk build
//!
//! A loader that has every edge up front lays the column out once:
//! [`SegCsr::from_pairs`] groups `(row, target)` pairs by a stable counting
//! sort straight into the segments, each allocated once, in segment order,
//! at exactly the capacity it needs, and drops repeats within each row
//! before it hands the column out. Appending the same pairs one at a time
//! (skipping a target its row already holds) gives the same rows, but
//! reallocates each segment as it grows and, when a wide row follows a
//! wide row of the same segment, moves the later row's targets once per
//! append.
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
use std::ops::Range;
use std::sync::Arc;

/// log2 of [`SEG_SIZE`].
const SEG_SHIFT: usize = 6;
/// Rows per segment. A shallow clone of the column costs one refcount bump
/// per 64 rows instead of a copy of every row, and a write copies the
/// targets of at most 64 rows.
pub const SEG_SIZE: usize = 1 << SEG_SHIFT;
const SEG_MASK: usize = SEG_SIZE - 1;

/// One segment: rows `0..SEG_SIZE` as CSR over `targets`. Rows past the
/// column's length are empty, so `offsets` ends at `targets.len()`.
#[derive(Clone, Debug)]
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

    /// Keep the first occurrence of each target within each row, in row
    /// order. `seen` holds one mark per target id, zero on entry and on
    /// return; inside the pass, `seen[t]` is one more than the local row
    /// that last kept `t`.
    fn drop_repeats(&mut self, seen: &mut [u8]) {
        let Segment { offsets, targets } = self;
        let (mut kept, mut start) = (0, 0);
        for (mark, end) in (1u8..).zip(offsets.iter_mut().skip(1)) {
            for read in start..*end as usize {
                let Some(target) = targets.get(read).copied() else {
                    break;
                };
                let first = match seen.get_mut(target.index()) {
                    Some(seen) if *seen == mark => false,
                    Some(seen) => {
                        *seen = mark;
                        true
                    }
                    None => true,
                };
                if first {
                    if let Some(slot) = targets.get_mut(kept) {
                        *slot = target;
                    }
                    kept += 1;
                }
            }
            start = *end as usize;
            *end = kept as u32; // at most the old end
        }
        if kept < targets.len() {
            targets.truncate(kept);
            targets.shrink_to_fit();
        }
        for target in targets.iter() {
            if let Some(seen) = seen.get_mut(target.index()) {
                *seen = 0;
            }
        }
    }
}

/// Rows of `NodeId`s stored as per-segment CSR, segments `Arc`-shared
/// between clones and copied on write. See the module docs for the COW
/// invariants.
#[derive(Clone, Debug, Default)]
pub struct SegCsr {
    segments: Vec<Arc<Segment>>,
    rows: usize,
}

impl SegCsr {
    /// A column with no rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The targets of `row` in insertion order, or `None` when out of range.
    #[inline]
    pub fn row(&self, row: usize) -> Option<&[NodeId]> {
        if row >= self.rows {
            return None;
        }
        self.segments.get(row >> SEG_SHIFT)?.row(row & SEG_MASK)
    }

    /// A column of `rows` rows holding `pairs` grouped by row: row `r`
    /// holds the distinct targets of the pairs `(r, _)`, each at its first
    /// occurrence in `pairs` order, as appending only the targets a row
    /// does not yet hold would leave it. A stable counting sort straight
    /// into the segments: one walk over `pairs` counts each row, every
    /// segment is then allocated once, in segment order, at the capacity
    /// its rows need, a second walk places the targets, and each segment
    /// then drops its rows' repeats in place (one mark per target id, so
    /// no hashing; only a segment that held a repeat is shrunk). A partial
    /// last segment takes later [`SegCsr::push_row`] and
    /// [`SegCsr::push_to_row`] as an incrementally built one does. `None`
    /// when a pair's row is `rows` or more, or one segment's rows hold more
    /// than `u32::MAX` targets.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Option<SegCsr>
    where
        I: Iterator<Item = (NodeId, NodeId)> + Clone,
    {
        let mut segments: Vec<Arc<Segment>> = (0..rows.div_ceil(SEG_SIZE))
            .map(|_| {
                Arc::new(Segment {
                    offsets: [0; SEG_SIZE + 1],
                    targets: Vec::new(),
                })
            })
            .collect();
        // Row r's count goes to its segment's slot r + 1; the running sum
        // then turns that slot into row r's start, and placing a target
        // there advances it to row r's end.
        let mut width = 0;
        for (row, target) in pairs.clone() {
            if row.index() >= rows {
                return None;
            }
            width = width.max(target.index() + 1);
            let segment = Arc::get_mut(segments.get_mut(row.index() >> SEG_SHIFT)?)?;
            let count = segment.offsets.get_mut((row.index() & SEG_MASK) + 1)?;
            *count = count.checked_add(1)?;
        }
        for segment in segments.iter_mut() {
            let segment = Arc::get_mut(segment)?;
            let mut start = 0u32;
            for offset in segment.offsets.iter_mut().skip(1) {
                let count = *offset;
                *offset = start;
                start = start.checked_add(count)?;
            }
            segment.targets = vec![NodeId(0); start as usize];
        }
        for (row, target) in pairs {
            let segment = Arc::get_mut(segments.get_mut(row.index() >> SEG_SHIFT)?)?;
            let next = segment.offsets.get_mut((row.index() & SEG_MASK) + 1)?;
            *segment.targets.get_mut(*next as usize)? = target;
            *next += 1;
        }
        let mut seen = vec![0u8; width];
        for segment in segments.iter_mut() {
            Arc::get_mut(segment)?.drop_repeats(&mut seen);
        }
        Some(SegCsr { segments, rows })
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

    /// `row`'s segment, its local row and its range of the segment's
    /// `targets`, or `None` when `row` is out of range.
    fn locate(&self, row: usize) -> Option<(usize, usize, Range<usize>)> {
        if row >= self.rows {
            return None;
        }
        let (seg, local) = (row >> SEG_SHIFT, row & SEG_MASK);
        let segment = self.segments.get(seg)?;
        let start = *segment.offsets.get(local)? as usize;
        let end = *segment.offsets.get(local + 1)? as usize;
        Some((seg, local, start..end))
    }

    /// Segment `seg`, copied first when it is shared: the one write path.
    fn segment_mut(&mut self, seg: usize) -> Option<&mut Segment> {
        self.segments.get_mut(seg).map(Arc::make_mut)
    }

    /// Append `target` at the end of `row`, copying the row's segment first
    /// when it is shared. Returns `false` (and changes nothing) when `row`
    /// is out of range.
    pub fn push_to_row(&mut self, row: usize, target: NodeId) -> bool {
        let Some(len) = self.row(row).map(<[NodeId]>::len) else {
            return false;
        };
        self.insert_into_row(row, len, target)
    }

    /// Insert `target` into `row` at position `at` (`0` is the front, the
    /// row's length its end), copying the row's segment first when it is
    /// shared. Returns `false` (and changes nothing) when `row` is out of
    /// range or `at` is past the row's end.
    pub fn insert_into_row(&mut self, row: usize, at: usize, target: NodeId) -> bool {
        let Some((seg, local, range)) = self.locate(row) else {
            return false;
        };
        if at > range.len() {
            return false;
        }
        let Some(segment) = self.segment_mut(seg) else {
            return false;
        };
        segment.targets.insert(range.start + at, target);
        for offset in segment.offsets.iter_mut().skip(local + 1) {
            *offset += 1;
        }
        true
    }

    /// Remove and return the target at position `at` of `row`; the row's
    /// later targets move up one place, so the rest of the row keeps its
    /// order. Copies the row's segment first when it is shared. `None` (and
    /// nothing changed) when `row` or `at` is out of range.
    pub fn remove_from_row(&mut self, row: usize, at: usize) -> Option<NodeId> {
        let (seg, local, range) = self.locate(row)?;
        if at >= range.len() {
            return None;
        }
        let segment = self.segment_mut(seg)?;
        let removed = segment.targets.remove(range.start + at);
        for offset in segment.offsets.iter_mut().skip(local + 1) {
            *offset -= 1;
        }
        Some(removed)
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

    /// One write on a clone of a four-segment column: the write's own
    /// segment is the only one copied, the original still reads as before,
    /// and every other row of the written segment reads as before.
    fn write_copies_only_its_segment(row: usize, write: impl FnOnce(&mut SegCsr), want: &[NodeId]) {
        let c = filled(4 * SEG_SIZE);
        let before = as_vecs(&c);
        let mut d = c.clone();
        write(&mut d);
        assert_eq!(d.shared_segments_with(&c), c.segment_count() - 1);
        assert_eq!(as_vecs(&c), before, "the original must not see the write");
        assert_eq!(d.row(row), Some(want));
        for r in (0..4 * SEG_SIZE).filter(|&r| r != row) {
            assert_eq!(d.row(r), c.row(r), "row {r}");
        }
    }

    #[test]
    fn insert_copies_only_its_segment_and_lands_at_its_position() {
        let row = SEG_SIZE + 4; // holds [0, 1]
        for (at, want) in [
            (0, [n(7), n(0), n(1)]),
            (1, [n(0), n(7), n(1)]),
            (2, [n(0), n(1), n(7)]),
        ] {
            write_copies_only_its_segment(
                row,
                |d| assert!(d.insert_into_row(row, at, n(7))),
                &want,
            );
        }
    }

    #[test]
    fn remove_copies_only_its_segment_and_keeps_the_rows_order() {
        let row = 2 * SEG_SIZE; // holds [0, 1]
        for (at, removed, want) in [(0, n(0), n(1)), (1, n(1), n(0))] {
            write_copies_only_its_segment(
                row,
                |d| assert_eq!(d.remove_from_row(row, at), Some(removed)),
                &[want],
            );
        }
    }

    #[test]
    fn writes_that_change_nothing_copy_nothing() {
        let c = filled(2 * SEG_SIZE);
        let mut d = c.clone();
        assert!(!d.insert_into_row(4, 3, n(0)), "past the row's end");
        assert!(!d.insert_into_row(2 * SEG_SIZE, 0, n(0)), "no such row");
        assert_eq!(d.remove_from_row(4, 2), None);
        assert_eq!(d.remove_from_row(2 * SEG_SIZE, 0), None);
        assert_eq!(d.shared_segments_with(&c), c.segment_count());
        assert_eq!(as_vecs(&d), as_vecs(&c));
    }

    /// The pairs of `c`'s rows, interleaved across rows: every row's first
    /// target, then every row's second, and so on.
    fn interleaved_pairs(c: &SegCsr) -> Vec<(NodeId, NodeId)> {
        let rows = as_vecs(c);
        let width = rows.iter().map(Vec::len).max().unwrap_or(0);
        (0..width)
            .flat_map(|at| {
                rows.iter()
                    .enumerate()
                    .filter_map(move |(r, row)| row.get(at).map(|&t| (n(r), t)))
            })
            .collect()
    }

    #[test]
    fn from_pairs_reads_like_appends_and_takes_later_writes() {
        for rows in [0, 1, SEG_SIZE - 1, SEG_SIZE, 2 * SEG_SIZE + 7] {
            let want = filled(rows);
            let pairs = interleaved_pairs(&want);
            let mut c = SegCsr::from_pairs(rows, pairs.iter().copied()).unwrap();
            assert_eq!(as_vecs(&c), as_vecs(&want), "{rows} rows");
            let shape = |c: &SegCsr| (c.segment_count(), c.target_count());
            assert_eq!(shape(&c), shape(&want));
            // A partial last segment takes new rows and appends in place.
            c.push_row();
            assert!(c.push_to_row(rows, n(5)));
            assert_eq!(c.row(rows), Some(&[n(5)][..]));
            if rows > 0 {
                assert!(c.push_to_row(rows - 1, n(6)));
                assert_eq!(c.row(rows - 1).and_then(<[NodeId]>::last), Some(&n(6)));
            }
            assert_eq!(c.row(rows + 1), None);
        }
        assert!(SegCsr::from_pairs(2, [(n(2), n(0))].into_iter()).is_none(), "row 2 of 2");
    }

    #[test]
    fn from_pairs_keeps_each_rows_first_occurrences() {
        let pairs = [
            (2, 1), (0, 3), (2, 0), (0, 3), (1, 3), (2, 1), (0, 0), (2, 2), (64, 3), (64, 3),
        ];
        let mut c = SegCsr::from_pairs(65, pairs.iter().map(|&(r, t)| (n(r), n(t)))).unwrap();
        assert_eq!(c.row(0), Some(&[n(3), n(0)][..]));
        assert_eq!(c.row(1), Some(&[n(3)][..]), "a target kept by an earlier row");
        assert_eq!(c.row(2), Some(&[n(1), n(0), n(2)][..]));
        assert_eq!(c.row(3), Some(&[][..]));
        assert_eq!(c.row(64), Some(&[n(3)][..]), "marks reset between segments");
        assert_eq!(c.target_count(), 7);
        // The shrunk segment still takes writes in place.
        assert!(c.push_to_row(0, n(9)));
        assert!(c.insert_into_row(2, 0, n(9)));
        assert_eq!(c.row(0), Some(&[n(3), n(0), n(9)][..]));
        assert_eq!(c.row(1), Some(&[n(3)][..]));
        assert_eq!(c.row(2), Some(&[n(9), n(1), n(0), n(2)][..]));
    }

    #[test]
    fn out_of_range_append_changes_nothing() {
        let mut c = filled(3);
        assert!(!c.push_to_row(3, n(0)));
        assert!(!c.push_to_row(usize::MAX, n(0)));
        assert_eq!(c.target_count(), 3);
    }
}
