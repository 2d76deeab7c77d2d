//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) for the durability layer.
//!
//! The snapshot container and the write-ahead log both checksum their
//! payloads so corruption is *detected* rather than surfacing as a panic or
//! a silently-wrong index. The checksum runs slice-by-8: eight tables,
//! generated at compile time, fold one 8-byte word per step, and the tail
//! goes byte by byte through the first (the classic bytewise table). The
//! values are the bytewise ones. The whole implementation is
//! dependency-free by design (the container image bans new crates).

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC state that
/// byte `b` leaves after `k` more zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `bytes` (standard init `!0`, final xor `!0` — matches zlib).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut c = !0u32;
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time, with no table.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// xorshift64: a fixed stream of test bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard zlib/IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Every length up to eight words, starting at every offset mod 8 (so
    /// the word loop meets every alignment and every tail length), and one
    /// mebibyte.
    #[test]
    fn slice_by_8_equals_the_bitwise_definition() {
        let bytes = noise(1 << 20);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(crc32(slice), bitwise(slice), "start {start}, length {len}");
            }
        }
        assert_eq!(crc32(&bytes), bitwise(&bytes));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"dkindex snapshot payload".to_vec();
        let reference = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
