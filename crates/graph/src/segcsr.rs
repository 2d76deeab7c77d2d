//! `SegCsr`: a persistent column of node-id rows — compressed sparse rows
//! inside `Arc`-shared segments of `SEG_SIZE` rows. Two of them, children
//! and parents, make an [`Adjacency`](crate::Adjacency), the adjacency of
//! both `DataGraph` and the index graphs of `dkindex-core`; a third holds
//! `DataGraph`'s reference children, and an index graph's extents (each
//! index node's data nodes, ascending) are one more.
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
//!    [`SegCsr::insert_into_row`] and [`SegCsr::retain_row`] deep-copy at
//!    most the one segment holding the row, only when that segment is
//!    shared (`Arc` refcount > 1), and only when they change the row. [`SegCsr::push_row`] copies nothing: a new row starts empty, and
//!    the unused tail of a segment already reads as empty rows.
//! 3. **Sharing is observable**: [`SegCsr::census_with`] counts the rows
//!    in segments positionally pointer-equal to an older snapshot's, and
//!    the rows of copied segments that changed nothing.
//! 4. **Representation never leaks into answers**: every row reads, in
//!    order, exactly as a `Vec<Vec<NodeId>>` given the same writes.
//!
//! A write costs the targets of the later rows of its own segment (at most
//! 63 rows), never more of the column.
//!
//! ## Bulk build
//!
//! A loader that holds the rows in order (each row's end, then every
//! target) lays the column out once: [`SegCsr::from_rows`] takes each
//! segment's targets straight from its source into one allocation of
//! exactly the capacity it needs, and `SegCsr::transpose` builds the
//! parent column from the child column by one counting pass into the
//! segments' offsets and one placing pass. Appending the same targets one
//! at a time gives the same rows, but reallocates each segment as it grows
//! and, when a wide row follows a wide row of the same segment, moves the
//! later row's targets once per append.
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

/// One column's copy-on-write census against an older snapshot, in rows.
/// The storage unit is the whole column for a flat `Arc` column and one
/// segment for a [`SegCsr`]: a unit is shared when both snapshots hold the
/// same allocation, and otherwise was copied or built since. A copied unit
/// whose rows all read as in the older snapshot is a copy no write asked
/// for. Diagnostics only: contents never depend on sharing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnCensus {
    /// Its rows.
    pub rows: usize,
    /// The rows still in storage shared with the older snapshot.
    pub shared: usize,
    /// The rows in a copied unit none of whose rows changed.
    pub copied_unchanged: usize,
}

impl ColumnCensus {
    /// A flat column: shared when both snapshots hold the same allocation,
    /// copied unchanged when they hold equal ones.
    pub fn flat<T: PartialEq>(this: &Arc<Vec<T>>, older: &Arc<Vec<T>>) -> Self {
        let rows = this.len();
        let (shared, copied_unchanged) = match Arc::ptr_eq(this, older) {
            true => (rows, 0),
            false if this == older => (0, rows),
            false => (0, 0),
        };
        ColumnCensus {
            rows,
            shared,
            copied_unchanged,
        }
    }

    /// The rows not shared: copied or built since the older snapshot.
    pub fn copied(&self) -> usize {
        self.rows - self.shared
    }
}

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

    /// A column laid out from its rows in order, as compressed sparse
    /// rows: `ends` yields each row's end (the first row starts at 0) and
    /// `targets` every row's targets, row by row. Each segment takes its
    /// rows' targets straight from `targets` into one allocation of exactly
    /// the capacity it needs; a partial last segment takes later
    /// [`SegCsr::push_row`] and [`SegCsr::push_to_row`] as an incrementally
    /// built one does. `None` when the ends descend or `targets` does not
    /// hold exactly as many targets as the last end says.
    pub fn from_rows(
        ends: impl ExactSizeIterator<Item = u32>,
        mut targets: impl Iterator<Item = NodeId>,
    ) -> Option<SegCsr> {
        let rows = ends.len();
        let mut ends = ends.fuse();
        let mut segments = Vec::with_capacity(rows.div_ceil(SEG_SIZE));
        let mut base = 0;
        for _ in 0..rows.div_ceil(SEG_SIZE) {
            // Rows past the column's end read as empty: their ends repeat
            // the last row's.
            let mut offsets = [0; SEG_SIZE + 1];
            let mut end = base;
            for slot in offsets.iter_mut().skip(1) {
                let next = ends.next().unwrap_or(end);
                if next < end {
                    return None;
                }
                end = next;
                *slot = end - base;
            }
            let len = (end - base) as usize;
            let targets: Vec<NodeId> = targets.by_ref().take(len).collect();
            if targets.len() != len {
                return None;
            }
            segments.push(Arc::new(Segment { offsets, targets }));
            base = end;
        }
        targets.next().is_none().then_some(SegCsr { segments, rows })
    }

    /// The transposed column over as many rows: row `t` lists, ascending,
    /// each row that holds `t`, once per time it holds it. One pass counts
    /// each row's sources into its segment's offsets, every segment is then
    /// allocated once at exactly the capacity it needs, and a second pass
    /// over the rows in order places the sources. `None` when a target is
    /// not a row.
    pub(crate) fn transpose(&self) -> Option<SegCsr> {
        let mut segments: Vec<Arc<Segment>> = (0..self.segments.len())
            .map(|_| Arc::new(Segment { offsets: [0; SEG_SIZE + 1], targets: Vec::new() }))
            .collect();
        let mut fresh: Vec<&mut Segment> =
            segments.iter_mut().map(Arc::get_mut).collect::<Option<_>>()?;
        // Row t's count goes to its segment's slot t + 1; the running sum
        // then turns that slot into row t's start, and placing a source
        // there advances it to row t's end.
        for &target in self.segments.iter().flat_map(|segment| &segment.targets) {
            if target.index() >= self.rows {
                return None;
            }
            let segment = fresh.get_mut(target.index() >> SEG_SHIFT)?;
            *segment.offsets.get_mut((target.index() & SEG_MASK) + 1)? += 1;
        }
        for segment in fresh.iter_mut() {
            let mut start = 0;
            for offset in segment.offsets.iter_mut().skip(1) {
                let count = *offset;
                *offset = start;
                start += count;
            }
            segment.targets = vec![NodeId(0); start as usize];
        }
        for from in 0..self.rows {
            for &target in self.row(from)? {
                let segment = fresh.get_mut(target.index() >> SEG_SHIFT)?;
                let next = segment.offsets.get_mut((target.index() & SEG_MASK) + 1)?;
                *segment.targets.get_mut(*next as usize)? = NodeId(from as u32);
                *next += 1;
            }
        }
        drop(fresh);
        Some(SegCsr { segments, rows: self.rows })
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

    /// Keep the targets of `row` for which `keep` holds, in order, in one
    /// pass that asks `keep` once per target. Copies the row's segment
    /// first when it is shared, and only when the row loses a target: a
    /// rewrite that keeps the whole row copies nothing. Returns `false`
    /// (and changes nothing) when `row` is out of range.
    pub fn retain_row(&mut self, row: usize, mut keep: impl FnMut(NodeId) -> bool) -> bool {
        let Some((seg, local, range)) = self.locate(row) else {
            return false;
        };
        let current = self.row(row).unwrap_or_default();
        let Some(first) = current.iter().position(|&target| !keep(target)) else {
            return true;
        };
        let Some(segment) = self.segment_mut(seg) else {
            return false;
        };
        // Targets before `first` stay where they are; each later kept one
        // moves down to `end`.
        let mut end = range.start + first;
        for at in end + 1..range.end {
            let Some(&target) = segment.targets.get(at) else {
                break;
            };
            if keep(target) {
                if let Some(slot) = segment.targets.get_mut(end) {
                    *slot = target;
                }
                end += 1;
            }
        }
        segment.targets.drain(end..range.end);
        for offset in segment.offsets.iter_mut().skip(local + 1) {
            *offset -= (range.end - end) as u32;
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

    /// This column's [`ColumnCensus`] against an older snapshot of it. A
    /// shared segment counts the rows both columns have in it; a copied
    /// one that held rows of `older` counts as unchanged when each of its
    /// rows reads as there, a row one column lacks reading empty.
    pub fn census_with(&self, older: &SegCsr) -> ColumnCensus {
        let span = |rows: usize, seg: usize| rows.saturating_sub(seg * SEG_SIZE).min(SEG_SIZE);
        let (mut shared, mut copied_unchanged) = (0, 0);
        for (seg, (this, old)) in self.segments.iter().zip(older.segments.iter()).enumerate() {
            if Arc::ptr_eq(this, old) {
                shared += span(self.rows.min(older.rows), seg);
                continue;
            }
            let start = seg * SEG_SIZE;
            let end = start + span(self.rows.max(older.rows), seg);
            let same = |r: usize| self.row(r).unwrap_or_default() == older.row(r).unwrap_or_default();
            if (start..end).all(same) {
                copied_unchanged += span(self.rows, seg);
            }
        }
        ColumnCensus {
            rows: self.rows,
            shared,
            copied_unchanged,
        }
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
        assert_eq!(d.census_with(&c).shared, c.rows());
        assert_eq!(as_vecs(&c), as_vecs(&d));
    }

    #[test]
    fn append_copies_only_its_own_segment() {
        let c = filled(4 * SEG_SIZE);
        let mut d = c.clone();
        assert!(d.push_to_row(SEG_SIZE + 4, n(99)));
        assert_eq!(d.census_with(&c).copied(), SEG_SIZE);
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
        assert_eq!(d.census_with(&c).shared, c.rows());
        assert_eq!(d.row(2 * SEG_SIZE + 5), Some(&[][..]));
        assert_eq!(c.row(2 * SEG_SIZE + 5), None);
        assert!(d.push_to_row(2 * SEG_SIZE + 5, n(1)));
        assert_eq!(d.census_with(&c).shared, 2 * SEG_SIZE);
    }

    #[test]
    fn push_row_on_a_full_boundary_allocates_a_fresh_segment() {
        let c = filled(SEG_SIZE);
        let mut d = c.clone();
        d.push_row();
        assert_eq!(d.segment_count(), 2);
        assert_eq!(d.census_with(&c).shared, SEG_SIZE);
    }

    /// One write on a clone of a four-segment column: the write's own
    /// segment is the only one copied, the original still reads as before,
    /// and every other row of the written segment reads as before.
    fn write_copies_only_its_segment(row: usize, write: impl FnOnce(&mut SegCsr), want: &[NodeId]) {
        let c = filled(4 * SEG_SIZE);
        let before = as_vecs(&c);
        let mut d = c.clone();
        write(&mut d);
        assert_eq!(d.census_with(&c).copied(), SEG_SIZE);
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
    fn retain_copies_only_its_segment_and_keeps_the_rows_order() {
        let row = SEG_SIZE + 4; // holds [0, 1]
        for (dropped, want) in [(n(0), n(1)), (n(1), n(0))] {
            write_copies_only_its_segment(
                row,
                |d| assert!(d.retain_row(row, |t| t != dropped)),
                &[want],
            );
        }
    }

    #[test]
    fn the_census_counts_shared_rows_and_copies_that_changed_nothing() {
        let c = filled(3 * SEG_SIZE + 7);
        let mut d = c.clone();
        d.push_row();
        let census = |d: &SegCsr| {
            let census = d.census_with(&c);
            assert_eq!(census.rows, d.rows());
            (census.shared, census.copied_unchanged)
        };
        assert_eq!(census(&d), (c.rows(), 0));
        assert!(d.retain_row(SEG_SIZE + 4, |_| false));
        assert_eq!(census(&d), (c.rows() - SEG_SIZE, 0));
        assert!(d.push_to_row(3 * SEG_SIZE + 7, n(0)));
        assert_eq!(census(&d), (2 * SEG_SIZE, 0));
        // A copy of a segment whose rows all read as before is one no write
        // asked for: a deep copy of the column counts every unwritten row.
        let mut deep = c.clone();
        deep.segments.iter_mut().for_each(|seg| *seg = Arc::new(Segment::clone(seg)));
        assert_eq!(census(&deep), (0, c.rows()));
        assert!(deep.push_to_row(SEG_SIZE, n(0)));
        assert_eq!(census(&deep), (0, c.rows() - SEG_SIZE));
    }

    #[test]
    fn writes_that_change_nothing_copy_nothing() {
        let c = filled(2 * SEG_SIZE);
        let mut d = c.clone();
        assert!(!d.insert_into_row(4, 3, n(0)), "past the row's end");
        assert!(!d.insert_into_row(2 * SEG_SIZE, 0, n(0)), "no such row");
        assert!(d.retain_row(5, |_| true), "keeps the whole row");
        assert!(!d.retain_row(2 * SEG_SIZE, |_| false), "no such row");
        assert_eq!(d.census_with(&c).shared, c.rows());
        assert_eq!(as_vecs(&d), as_vecs(&c));
    }

    /// `c`'s rows in compressed sparse form: each row's end, and the
    /// targets.
    fn csr(c: &SegCsr) -> (Vec<u32>, Vec<NodeId>) {
        let rows = as_vecs(c);
        let ends = rows.iter().scan(0, |end, row| {
            *end += row.len() as u32;
            Some(*end)
        });
        (ends.collect(), rows.concat())
    }

    #[test]
    fn from_rows_reads_like_appends_and_takes_later_writes() {
        for rows in [0, 1, SEG_SIZE - 1, SEG_SIZE, 2 * SEG_SIZE + 7] {
            let want = filled(rows);
            let (ends, targets) = csr(&want);
            let mut c = SegCsr::from_rows(ends.into_iter(), targets.into_iter()).unwrap();
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
    }

    #[test]
    fn from_rows_refuses_ends_that_are_not_a_layout() {
        let targets = [n(1), n(2), n(3)];
        let build = |ends: &[u32]| SegCsr::from_rows(ends.iter().copied(), targets.into_iter());
        for ends in [&[][..], &[2, 1, 3], &[2], &[4], &[3, 2]] {
            assert!(build(ends).is_none(), "{ends:?}");
        }
        let c = build(&[0, 3, 3]).unwrap();
        assert_eq!(as_vecs(&c), [vec![], targets.to_vec(), vec![]]);
    }

    #[test]
    fn transpose_lists_each_rows_sources_ascending() {
        let c = filled(2 * SEG_SIZE + 7);
        let t = c.transpose().unwrap();
        let mut want = vec![Vec::new(); c.rows()];
        for (from, row) in as_vecs(&c).into_iter().enumerate() {
            for target in row {
                want[target.index()].push(n(from));
            }
        }
        assert_eq!(as_vecs(&t), want);
        assert_eq!(t.segment_count(), c.segment_count());
        let mut d = SegCsr::new();
        d.push_row();
        assert!(d.push_to_row(0, n(1)));
        assert!(d.transpose().is_none(), "row 1 of 1");
    }

    #[test]
    fn out_of_range_append_changes_nothing() {
        let mut c = filled(3);
        assert!(!c.push_to_row(3, n(0)));
        assert!(!c.push_to_row(usize::MAX, n(0)));
        assert_eq!(c.target_count(), 3);
    }
}
