//! Visited marks as a bitset that is all clear between traversals: a
//! reusable replacement for the `vec![false; n]` idiom in hot traversal
//! loops.
//!
//! A [`Marks`] holds one bit per slot. A traversal that keeps a list of the
//! slots it marked (its own queue, as every walk does) clears them again
//! with [`unmark`](Marks::unmark) when it ends and says so with
//! [`cleared`](Marks::cleared), so the next [`reset`](Marks::reset) does no
//! work: a long batch of traversals over the same graph performs no
//! steady-state allocation and no per-traversal memset. A traversal that
//! never got to say so (one that panicked) leaves the set dirty, and the
//! next `reset` zero-fills the whole set once. The evaluation arena in
//! `dkindex-pathexpr` builds on it.

/// Reusable set of visited flags over dense `usize` ids.
///
/// ```
/// use dkindex_graph::Marks;
///
/// let mut m = Marks::new();
/// m.reset(10);
/// assert!(m.mark(3)); // newly marked
/// assert!(!m.mark(3)); // already marked
/// m.unmark(3); // the traversal clears what it marked
/// m.cleared(); // ... and says so
/// m.reset(10); // nothing left set: no re-zeroing
/// assert!(!m.is_marked(3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Marks {
    bits: Vec<u64>,
    /// A traversal began at the last `reset` and has not yet declared its
    /// bits [`cleared`](Self::cleared).
    dirty: bool,
}

impl Marks {
    /// Empty mark set; call [`reset`](Self::reset) before use.
    pub fn new() -> Self {
        Marks::default()
    }

    /// Begin a fresh traversal over ids `0..n`: every slot becomes unmarked.
    ///
    /// Grows the backing store on first use (or when `n` exceeds the previous
    /// capacity). A set its last traversal declared cleared is left as it
    /// is; a dirty one is zero-filled.
    pub fn reset(&mut self, n: usize) {
        if self.dirty {
            self.bits.fill(0);
        }
        self.dirty = true;
        let words = n.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Mark slot `i`; returns `true` iff it was unmarked before.
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.bits[i / 64], 1 << (i % 64));
        let first = *word & bit == 0;
        *word |= bit;
        first
    }

    /// Clear slot `i` (a no-op when it is not marked).
    #[inline]
    pub fn unmark(&mut self, i: usize) {
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// End the traversal begun by the last [`reset`](Self::reset): the
    /// caller has unmarked every slot it marked, so the next `reset` need
    /// not zero-fill. Debug builds check that every bit is clear.
    pub fn cleared(&mut self) {
        debug_assert!(self.bits.iter().all(|&word| word == 0), "a traversal left marks set");
        self.dirty = false;
    }

    /// Is slot `i` marked?
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.bits[i / 64] & 1 << (i % 64) != 0
    }

    /// Bytes of the backing store.
    pub fn bytes(&self) -> usize {
        8 * self.bits.len()
    }

    /// Is the set as a traversal that cleared up leaves it: not dirty, every
    /// bit clear? Reads the whole store: for tests.
    pub fn is_clear(&self) -> bool {
        !self.dirty && self.bits.iter().all(|&word| word == 0)
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
    fn unmark_clears_and_leaves_the_rest() {
        let mut m = Marks::new();
        m.reset(130);
        for i in [0, 63, 64, 129] {
            assert!(m.mark(i));
        }
        m.unmark(63);
        m.unmark(63); // clearing a clear slot changes nothing
        m.unmark(1);
        assert!(!m.is_marked(63) && m.is_marked(0) && m.is_marked(64) && m.is_marked(129));
        for i in [0, 64, 129] {
            m.unmark(i);
        }
        assert!(!m.is_clear(), "clear bits, but the traversal has not said so");
        m.cleared();
        assert!(m.is_clear());
        m.reset(130);
        assert!(m.mark(63), "a cleared slot marks anew");
    }

    #[test]
    fn a_dirty_reset_zero_fills() {
        let mut m = Marks::new();
        m.reset(100);
        m.mark(1);
        m.mark(99);
        assert!(!m.is_clear());
        m.reset(100); // a traversal that did not clear up
        assert!(!m.is_marked(1) && !m.is_marked(99));
        assert!(m.mark(99));
        m.unmark(99);
        m.cleared();
        assert!(m.is_clear());
    }

    #[test]
    fn growth_keeps_bits_clear() {
        let mut m = Marks::new();
        m.reset(2);
        m.mark(1);
        m.reset(200); // dirty and growing
        assert!(!m.is_marked(1) && !m.is_marked(199));
        assert!(m.mark(199));
        m.unmark(199);
        m.cleared();
        m.reset(1000); // clean and growing
        assert!((0..1000).all(|i| !m.is_marked(i)));
        assert!(m.bytes() >= 1000 / 8);
        assert!(m.mark(999) && m.mark(1));
    }
}
