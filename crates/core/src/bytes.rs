//! Panic-free byte reading for every format that parses untrusted bytes.
//!
//! The snapshot container ([`snapshot`](crate::snapshot)) and its `GRPH`,
//! `INDX` and `REQS` section decoders ([`store`](crate::store)), the
//! write-ahead log ([`wal`](crate::wal)) and the DKNP frame decoder
//! (`dkindex_server::protocol`) parse attacker-adjacent bytes (truncated
//! files, torn writes, bit flips, hostile sockets) and deny
//! `clippy::indexing_slicing` and `clippy::unwrap_used`. This cursor is the
//! one reader under all of them: every read returns `Option` and the
//! callers translate `None` into their typed error. It denies the same
//! panic and hash-iteration lints they do (below).

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

/// A forward-only reader over a byte slice. Reads either consume exactly
/// what they return or leave the cursor untouched and yield `None`.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `bytes` from the front.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, offset: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.offset)
    }

    /// Consume and return the next `n` bytes, or `None` (without consuming
    /// anything) when fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.offset.checked_add(n)?;
        let slice = self.bytes.get(self.offset..end)?;
        self.offset = end;
        Some(slice)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let slice = self.take(1)?;
        slice.first().copied()
    }

    /// Consume a little-endian `u16`.
    pub fn u16_le(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Consume a little-endian `u32`.
    pub fn u32_le(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Consume a little-endian `u64`.
    pub fn u64_le(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Consume four bytes as an array (magic numbers, section tags).
    pub fn array4(&mut self) -> Option<[u8; 4]> {
        self.array()
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
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
        assert_eq!(c.u16_le(), Some(0x0201));
        assert_eq!(c.take(2).map(<[u8]>::len), Some(2));
        // Only 1 byte left: wider reads fail and consume nothing.
        assert_eq!((c.u16_le(), c.array4(), c.u64_le()), (None, None, None));
        assert_eq!(c.offset(), 4);
        assert_eq!(c.u8(), Some(5));
        let wide = Cursor::new(&[1, 0, 0, 0, 0, 0, 0, 2]).u64_le();
        assert_eq!(wide, Some(0x0200_0000_0000_0001));
    }
}
