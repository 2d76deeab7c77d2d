//! Epoch-stamped visited marks: a reusable replacement for the
//! `vec![false; n]` idiom in hot traversal loops.
//!
//! A [`Marks`] holds one `u32` stamp per slot and a current epoch. Clearing
//! all marks is a single epoch increment — O(1) instead of re-zeroing the
//! whole vector — so a long batch of traversals over the same graph performs
//! no steady-state allocation and no per-traversal memset. The evaluation
//! arena in `dkindex-pathexpr` builds on it.

/// Reusable set of visited flags over dense `usize` ids.
///
/// ```
/// use dkindex_graph::Marks;
///
/// let mut m = Marks::new();
/// m.reset(10);
/// assert!(m.mark(3)); // newly marked
/// assert!(!m.mark(3)); // already marked
/// m.reset(10); // O(1): bumps the epoch, no re-zeroing
/// assert!(!m.is_marked(3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Marks {
    /// Empty mark set; call [`reset`](Self::reset) before use.
    pub fn new() -> Self {
        Marks::default()
    }

    /// Begin a fresh traversal over ids `0..n`: every slot becomes unmarked.
    ///
    /// Grows the backing store on first use (or when `n` exceeds the previous
    /// capacity); afterwards this is just an epoch bump.
    pub fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrapped: re-zero once every 2^32 - 1 resets.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Mark slot `i`; returns `true` iff it was unmarked before.
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let slot = &mut self.stamp[i];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Is slot `i` marked in the current epoch?
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// Number of addressable slots in the current epoch's backing store.
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_reports_first_visit_only() {
        let mut m = Marks::new();
        m.reset(4);
        assert!(m.mark(0));
        assert!(m.mark(3));
        assert!(!m.mark(0));
        assert!(m.is_marked(0) && m.is_marked(3));
        assert!(!m.is_marked(1));
    }

    #[test]
    fn reset_clears_without_rezeroing() {
        let mut m = Marks::new();
        m.reset(3);
        m.mark(1);
        m.reset(3);
        assert!(!m.is_marked(1));
        assert!(m.mark(1));
    }

    #[test]
    fn reset_grows_capacity() {
        let mut m = Marks::new();
        m.reset(2);
        m.mark(1);
        m.reset(5);
        assert!(m.mark(4));
        assert!(!m.is_marked(1));
        assert!(m.capacity() >= 5);
    }

    #[test]
    fn epoch_wraparound_stays_correct() {
        let mut m = Marks::new();
        m.reset(2);
        m.mark(0);
        m.epoch = u32::MAX - 1;
        // Slot stamped at an old epoch is unmarked in later epochs.
        m.reset(2);
        assert!(!m.is_marked(0));
        m.mark(1);
        m.reset(2); // crosses the wraparound re-zero path
        assert!(!m.is_marked(1));
        assert!(m.mark(1));
    }
}
