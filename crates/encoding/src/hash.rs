//! FNV-1a hashing and hasher-plumbing for fast small-key maps.
//!
//! SipHash (the std default) is overkill for the interned `u32` ids that
//! dominate DWARF construction; FNV-1a is a simple, fast, well-known
//! alternative. HashDoS is not a concern for an embedded analytical engine
//! processing its own ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a of a byte slice.
#[inline]
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streaming FNV-1a [`Hasher`].
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// `HashMap` keyed with FNV-1a.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// `HashSet` keyed with FNV-1a.
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_matches_oneshot() {
        let mut h = FnvHasher::default();
        h.write(b"smart");
        h.write(b"city");
        assert_eq!(h.finish(), fnv1a_64(b"smartcity"));
    }

    #[test]
    fn map_basics() {
        let mut m: FnvHashMap<u32, &str> = FnvHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);

        let mut s: FnvHashSet<u64> = FnvHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
    }
}
