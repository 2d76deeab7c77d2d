//! `SegVec`: a persistent, segment-shared vector — the copy-on-write
//! storage primitive behind delta epochs.
//!
//! A [`SegVec<T>`] stores its elements in fixed-size segments of
//! [`SEG_SIZE`] elements, each behind an [`Arc`]. Cloning a `SegVec` is a
//! shallow copy — one refcount bump per segment — and mutating an element
//! copies **only the one segment it lives in** (via [`Arc::make_mut`]),
//! leaving every other segment pointer-shared with the clones. Two
//! consecutive epochs of a graph built on `SegVec` storage therefore share
//! all state a maintenance batch did not touch, which is what makes an
//! epoch publish O(touched) instead of O(graph).
//!
//! ## COW invariants
//!
//! 1. **Clone is shallow**: `clone()` never copies elements, only segment
//!    handles.
//! 2. **Mutation is localized**: a write through [`SegVec::get_mut`] or
//!    [`SegVec::push`] deep-copies at most one segment, and only when that
//!    segment is shared (`Arc` refcount > 1).
//! 3. **Sharing is observable**: [`SegVec::shared_segments_with`] counts
//!    positionally pointer-equal segments, so tests can assert that a
//!    representation change really shares instead of re-copying.
//! 4. **Representation never leaks into answers**: iteration order and
//!    element values are identical to a flat `Vec<T>` with the same
//!    contents.
//!
//! This module denies clippy's panic and hash-iteration lints (below):
//! every accessor is `Option`-returning (no indexing, no `unwrap`), and
//! iteration follows declared element order only.

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

use std::fmt;
use std::sync::Arc;

/// log2 of [`SEG_SIZE`].
pub(crate) const SEG_SHIFT: usize = 6;
/// Elements per segment. 64 keeps a segment within a cache line or two for
/// small `T` while making a shallow clone of a million-element vector cost
/// ~16k refcount bumps instead of a million element copies.
pub const SEG_SIZE: usize = 1 << SEG_SHIFT;
pub(crate) const SEG_MASK: usize = SEG_SIZE - 1;

/// A chunked vector whose segments are `Arc`-shared between clones and
/// copied on write. See the module docs for the COW invariants.
pub struct SegVec<T> {
    /// Every segment except the last holds exactly [`SEG_SIZE`] elements;
    /// the last holds `len - (segments.len() - 1) * SEG_SIZE`.
    segments: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> SegVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        SegVec {
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, or `None` when out of range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        self.segments.get(index >> SEG_SHIFT)?.get(index & SEG_MASK)
    }

    /// Iterate the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.segments.iter().flat_map(|s| s.iter())
    }

    /// Number of segments currently backing the vector.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Count of segments positionally pointer-shared with `other` — the
    /// structural-sharing census used by the delta-epoch tests and the
    /// publish counters. A segment counts when slot `i` of both vectors is
    /// the **same allocation** (`Arc::ptr_eq`), i.e. neither side copied it
    /// since they diverged.
    pub fn shared_segments_with(&self, other: &SegVec<T>) -> usize {
        self.segments
            .iter()
            .zip(other.segments.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

impl<T: Clone> SegVec<T> {
    /// Mutable access to the element at `index`, or `None` when out of
    /// range. Copies the containing segment first when it is shared with
    /// another `SegVec` (COW invariant 2); all other segments stay shared.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let segment = self.segments.get_mut(index >> SEG_SHIFT)?;
        Arc::make_mut(segment).get_mut(index & SEG_MASK)
    }

    /// Append an element, copying at most the trailing segment.
    pub fn push(&mut self, value: T) {
        if self.len & SEG_MASK == 0 {
            self.segments.push(Arc::new(Vec::with_capacity(SEG_SIZE)));
        }
        if let Some(last) = self.segments.last_mut() {
            Arc::make_mut(last).push(value);
            self.len += 1;
        }
    }

    /// Grow to `new_len` elements, filling new slots with clones of
    /// `value`; a vector already that long is left as it is.
    pub fn grow_to(&mut self, new_len: usize, value: T) {
        while self.len < new_len {
            self.push(value.clone());
        }
    }
}

/// Shallow clone: one refcount bump per segment, zero element copies
/// (COW invariant 1). Written by hand so `SegVec<T>: Clone` holds without
/// requiring `T: Clone`.
impl<T> Clone for SegVec<T> {
    fn clone(&self) -> Self {
        SegVec {
            segments: self.segments.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> FromIterator<T> for SegVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SegVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

/// `Debug` as a flat element list, hiding the segmentation.
impl<T: fmt::Debug> fmt::Debug for SegVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> SegVec<usize> {
        (0..n).collect()
    }

    #[test]
    fn push_get_len_round_trip() {
        let v = filled(3 * SEG_SIZE + 7);
        assert_eq!(v.len(), 3 * SEG_SIZE + 7);
        assert_eq!(v.segment_count(), 4);
        for i in 0..v.len() {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(v.len()), None);
    }

    #[test]
    fn iter_matches_index_order() {
        let v = filled(2 * SEG_SIZE + 1);
        let collected: Vec<usize> = v.iter().copied().collect();
        let expected: Vec<usize> = (0..v.len()).collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn clone_shares_every_segment() {
        let v = filled(5 * SEG_SIZE);
        let w = v.clone();
        assert_eq!(w.shared_segments_with(&v), v.segment_count());
        assert!(v.iter().eq(w.iter()));
    }

    #[test]
    fn mutation_copies_only_the_touched_segment() {
        let v = filled(4 * SEG_SIZE);
        let mut w = v.clone();
        *w.get_mut(SEG_SIZE + 3).unwrap() = 999;
        // Exactly one segment diverged.
        assert_eq!(w.shared_segments_with(&v), v.segment_count() - 1);
        // The original is untouched.
        assert_eq!(v.get(SEG_SIZE + 3), Some(&(SEG_SIZE + 3)));
        assert_eq!(w.get(SEG_SIZE + 3), Some(&999));
    }

    #[test]
    fn push_after_clone_copies_only_the_tail_segment() {
        let v = filled(2 * SEG_SIZE + 5);
        let mut w = v.clone();
        w.push(12345);
        assert_eq!(w.shared_segments_with(&v), v.segment_count() - 1);
        assert_eq!(v.len(), 2 * SEG_SIZE + 5);
        assert_eq!(w.len(), 2 * SEG_SIZE + 6);
    }

    #[test]
    fn push_on_a_full_boundary_allocates_a_fresh_segment() {
        let v = filled(SEG_SIZE);
        let mut w = v.clone();
        w.push(777);
        // The old segment stays fully shared; only the new one is unshared.
        assert_eq!(w.shared_segments_with(&v), 1);
        assert_eq!(w.segment_count(), 2);
    }

    #[test]
    fn grow_to_fills_new_slots_and_never_shrinks() {
        let mut v = filled(10);
        v.grow_to(SEG_SIZE + 2, 42);
        assert_eq!(v.len(), SEG_SIZE + 2);
        assert_eq!((v.get(9), v.get(10), v.get(SEG_SIZE + 1)), (Some(&9), Some(&42), Some(&42)));
        v.grow_to(5, 0);
        assert_eq!(v.len(), SEG_SIZE + 2);
    }

    #[test]
    fn get_mut_out_of_range_is_none() {
        let mut v = filled(3);
        assert!(v.get_mut(3).is_none());
        assert!(v.get_mut(usize::MAX).is_none());
    }

    #[test]
    fn debug_prints_flat_contents() {
        let v: SegVec<u32> = [1u32, 2, 3].into_iter().collect();
        assert_eq!(format!("{v:?}"), "[1, 2, 3]");
    }
}
