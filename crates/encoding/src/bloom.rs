//! Bloom filters over byte keys, used by SSTables to answer point misses
//! without touching data blocks.
//!
//! The filter uses double hashing over a single FNV-1a base hash
//! (Kirsch–Mitzenmacher): probe *i* tests bit `h1 + i·h2 mod m`. With the
//! default 10 bits per key and 7 probes the false-positive rate is ~0.8%,
//! comfortably under the 2% budget the read path is tested against.
//!
//! Encoding is part of the SSTable meta region: the probe count followed
//! by the length-prefixed bit array. Decoding validates the probe count and
//! rejects an empty bit array, so a corrupt filter surfaces as a
//! [`DecodeError`] instead of dividing by zero at query time.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::hash::fnv1a_64;

/// Default filter density: 10 bits per key (~0.8% false positives with the
/// derived 7 probes).
pub const DEFAULT_BITS_PER_KEY: usize = 10;

/// Probe counts outside `1..=MAX_PROBES` are rejected as corrupt.
const MAX_PROBES: u32 = 30;

/// A fixed-size Bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    probes: u32,
}

impl Bloom {
    /// Creates a filter sized for `keys` keys at `bits_per_key` density.
    /// The probe count is the optimal `bits_per_key · ln 2`, clamped to
    /// `1..=MAX_PROBES`.
    pub fn with_capacity(keys: usize, bits_per_key: usize) -> Bloom {
        let bits_per_key = bits_per_key.max(1);
        // At least one byte so `bit_len` is never zero, even for an empty
        // table (the filter then simply rejects everything).
        let bytes = (keys.max(1) * bits_per_key).div_ceil(8).max(1);
        // 69/100 ≈ ln 2; integer math keeps the construction deterministic.
        let probes = ((bits_per_key * 69 / 100).max(1) as u32).min(MAX_PROBES);
        Bloom {
            bits: vec![0; bytes],
            probes,
        }
    }

    /// Number of bits in the filter.
    pub fn bit_len(&self) -> u64 {
        self.bits.len() as u64 * 8
    }

    /// Number of probe positions tested per key.
    pub fn probes(&self) -> u32 {
        self.probes
    }

    fn probe_pair(key: &[u8]) -> (u64, u64) {
        let h1 = fnv1a_64(key);
        // A second, decorrelated hash derived from the first; forcing it odd
        // makes it a generator modulo any power of two and harmless
        // otherwise.
        let h2 = h1.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (h1, h2)
    }

    /// Inserts `key` into the filter.
    pub fn insert(&mut self, key: &[u8]) {
        let m = self.bit_len();
        let (h1, h2) = Self::probe_pair(key);
        for i in 0..u64::from(self.probes) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    /// Whether `key` may be present. `false` is definitive; `true` may be a
    /// false positive.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let m = self.bit_len();
        let (h1, h2) = Self::probe_pair(key);
        (0..u64::from(self.probes)).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.bits[(bit / 8) as usize] & (1 << (bit % 8)) != 0
        })
    }

    /// Appends the filter (probe count + length-prefixed bit array).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.probes);
        enc.put_bytes(&self.bits);
    }

    /// Reads a filter written by [`Bloom::encode`], validating the probe
    /// count and rejecting an empty bit array.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Bloom, DecodeError> {
        let probes = dec.get_u32()?;
        if probes == 0 || probes > MAX_PROBES {
            return Err(DecodeError::BadTag {
                tag: probes.min(255) as u8,
                context: "bloom probe count",
            });
        }
        let bits = dec.get_bytes()?.to_vec();
        if bits.is_empty() {
            return Err(DecodeError::UnexpectedEof {
                wanted: "bloom bit array",
            });
        }
        Ok(Bloom { bits, probes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    #[test]
    fn no_false_negatives() {
        let mut bloom = Bloom::with_capacity(1000, DEFAULT_BITS_PER_KEY);
        for i in 0..1000 {
            bloom.insert(&key(i));
        }
        for i in 0..1000 {
            assert!(bloom.may_contain(&key(i)), "false negative on key {i}");
        }
    }

    #[test]
    fn false_positive_rate_under_two_percent() {
        let mut bloom = Bloom::with_capacity(2000, DEFAULT_BITS_PER_KEY);
        for i in 0..2000 {
            bloom.insert(&key(i));
        }
        let mut rng = Rng::new(0xB100_F11E);
        let probes = 20_000u64;
        let fp = (0..probes)
            .filter(|_| {
                // Keys disjoint from the inserted set.
                let absent = 1_000_000 + rng.gen_range(1_000_000);
                bloom.may_contain(&key(absent))
            })
            .count();
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.02, "false-positive rate {rate:.4} >= 2%");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bloom = Bloom::with_capacity(0, DEFAULT_BITS_PER_KEY);
        assert!(!bloom.may_contain(b"anything"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut bloom = Bloom::with_capacity(100, DEFAULT_BITS_PER_KEY);
        for i in 0..100 {
            bloom.insert(&key(i));
        }
        let mut enc = Encoder::new();
        bloom.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Bloom::decode(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(back, bloom);
    }

    #[test]
    fn decode_rejects_bad_probe_counts_and_empty_bits() {
        let mut enc = Encoder::new();
        enc.put_u32(0).put_bytes(&[1, 2]);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Bloom::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::BadTag { .. })
        ));

        let mut enc = Encoder::new();
        enc.put_u32(99).put_bytes(&[1, 2]);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Bloom::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::BadTag { .. })
        ));

        let mut enc = Encoder::new();
        enc.put_u32(7).put_bytes(&[]);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Bloom::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }
}
