//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! Used to detect torn writes in the NoSQL commit log and to validate
//! SSTable / heap-file footers.
//!
//! The kernel is slice-by-16: sixteen 256-entry tables, built at compile
//! time, fold sixteen input bytes per step with independent lookups instead
//! of one dependent lookup per byte. The checksum is the same function of
//! the same bytes as the bytewise loop (table 0 alone), which the tests keep
//! as the reference.

/// Reflected IEEE polynomial used by zlib, Ethernet, Cassandra commit logs.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// register contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = make_tables();

const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(lo & 0xff) as usize]
                ^ t[14][((lo >> 8) & 0xff) as usize]
                ^ t[13][((lo >> 16) & 0xff) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &byte in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        self.state = crc;
        self
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// Convenience: checksum of a single buffer.
    pub fn of(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise kernel slice-by-16 replaced, bit by bit from the
    /// polynomial: the reference every other test compares against.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE test vectors.
        assert_eq!(Crc32::of(b""), 0x0000_0000);
        assert_eq!(Crc32::of(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            Crc32::of(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slice_by_16_matches_the_bytewise_reference_at_every_length_and_offset() {
        let mut rng = crate::Rng::new(0x5116);
        let buffer: Vec<u8> = (0..316).map(|_| rng.next_u64() as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                let data = &buffer[start..start + len];
                assert_eq!(Crc32::of(data), reference(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"smart city data cube";
        let mut c = Crc32::new();
        c.update(&data[..5]).update(&data[5..]);
        assert_eq!(c.finish(), Crc32::of(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = vec![0u8; 64];
        let base = Crc32::of(&data);
        for i in 0..64 {
            let mut corrupt = data.clone();
            corrupt[i] ^= 1;
            assert_ne!(Crc32::of(&corrupt), base, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn split_points_agree() {
        // Deterministic randomized sweep (seeded xorshift, no proptest — the
        // build is offline): any cut of the input into pieces, each fed to
        // `update` in turn, must checksum like the whole.
        let mut rng = crate::Rng::new(0xC5C5);
        for _ in 0..512 {
            let data = rng.gen_bytes(600);
            let mut c = Crc32::new();
            let mut at = 0;
            while at < data.len() {
                let piece = (1 + rng.gen_range(40) as usize).min(data.len() - at);
                c.update(&data[at..at + piece]);
                at += piece;
            }
            assert_eq!(c.finish(), reference(&data));
        }
    }
}
