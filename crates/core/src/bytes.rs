//! Panic-free byte reading for the durability formats.
//!
//! [`snapshot`](crate::snapshot) and [`wal`](crate::wal) parse
//! attacker-adjacent bytes (truncated files, torn writes, bit flips) and
//! deny `clippy::indexing_slicing` and `clippy::unwrap_used`. This cursor is the shared safe substrate: every read returns
//! `Option` and the callers translate `None` into their typed error.

/// A forward-only reader over a byte slice. Reads either consume exactly
/// what they return or leave the cursor untouched and yield `None`.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `bytes` from the front.
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, offset: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.offset)
    }

    /// Consume and return the next `n` bytes, or `None` (without consuming
    /// anything) when fewer remain.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.offset.checked_add(n)?;
        let slice = self.bytes.get(self.offset..end)?;
        self.offset = end;
        Some(slice)
    }

    /// Consume one byte.
    pub(crate) fn u8(&mut self) -> Option<u8> {
        let slice = self.take(1)?;
        slice.first().copied()
    }

    /// Consume a little-endian `u32`.
    pub(crate) fn u32_le(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.array4()?))
    }

    /// Consume four bytes as an array (magic numbers, section tags).
    pub(crate) fn array4(&mut self) -> Option<[u8; 4]> {
        let slice = self.take(4)?;
        let mut out = [0u8; 4];
        for (dst, src) in out.iter_mut().zip(slice) {
            *dst = *src;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_consume_exactly_or_not_at_all() {
        let data = [1u8, 2, 3, 4, 5];
        let mut c = Cursor::new(&data);
        assert_eq!(c.u8(), Some(1));
        assert_eq!(c.u32_le(), Some(u32::from_le_bytes([2, 3, 4, 5])));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.u8(), None);

        let mut c = Cursor::new(&data);
        assert_eq!(c.take(4).map(<[u8]>::len), Some(4));
        // Only 1 byte left: a 4-byte read fails and consumes nothing.
        assert_eq!(c.array4(), None);
        assert_eq!(c.offset(), 4);
        assert_eq!(c.u8(), Some(5));
    }
}
