//! LEB128-style variable-length integers and zig-zag signed encoding.
//!
//! Varints keep SSTable and heap-file records compact: most ids in a DWARF
//! cube are small, so a `u32` node id usually costs one or two bytes on disk
//! instead of four.

/// Maximum number of bytes a `u64` varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `out` as an unsigned LEB128 varint.
///
/// Returns the number of bytes written.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from the front of `buf`.
///
/// Returns `(value, bytes_consumed)` or `None` if `buf` is truncated or the
/// encoding overflows 64 bits.
#[inline]
pub fn read_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return None;
        }
        let low = u64::from(byte & 0x7f);
        // The 10th byte may only contribute a single bit.
        if shift == 63 && low > 1 {
            return None;
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Zig-zag encodes a signed integer so small magnitudes get small varints.
#[inline]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends a signed integer as a zig-zag varint.
pub fn write_i64(out: &mut Vec<u8>, value: i64) -> usize {
    write_u64(out, zigzag(value))
}

/// Reads a signed zig-zag varint from the front of `buf`.
#[inline]
pub fn read_i64(buf: &[u8]) -> Option<(i64, usize)> {
    read_u64(buf).map(|(v, n)| (unzigzag(v), n))
}

/// Number of bytes `value` occupies as a varint, without encoding it.
pub fn len_u64(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    (64 - value.leading_zeros()).div_ceil(7) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn zero_is_one_byte() {
        let mut buf = Vec::new();
        assert_eq!(write_u64(&mut buf, 0), 1);
        assert_eq!(buf, [0]);
        assert_eq!(read_u64(&buf), Some((0, 1)));
    }

    #[test]
    fn boundary_values() {
        for &v in &[0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, len_u64(v), "len_u64 mismatch for {v}");
            assert_eq!(read_u64(&buf), Some((v, n)));
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert_eq!(read_u64(&buf[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert_eq!(read_u64(&buf), None);
        // A 10-byte encoding whose final byte overflows bit 63.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(read_u64(&buf), None);
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        assert_eq!(unzigzag(u64::MAX), i64::MIN);
    }

    #[test]
    fn signed_roundtrip_extremes() {
        for &v in &[i64::MIN, -1, 0, 1, i64::MAX] {
            let mut buf = Vec::new();
            let n = write_i64(&mut buf, v);
            assert_eq!(read_i64(&buf), Some((v, n)));
        }
    }

    // Deterministic randomized sweeps (seeded xorshift, no proptest — the
    // build is offline). Values are drawn across the full u64/i64 range.

    #[test]
    fn roundtrip_u64_random() {
        let mut rng = crate::Rng::new(0x0A11);
        for _ in 0..4096 {
            let v = rng.next_u64();
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            assert_eq!(n, len_u64(v));
            assert_eq!(read_u64(&buf), Some((v, n)));
        }
    }

    #[test]
    fn roundtrip_i64_random() {
        let mut rng = crate::Rng::new(0x0A12);
        for _ in 0..4096 {
            let v = rng.gen_i64();
            let mut buf = Vec::new();
            let n = write_i64(&mut buf, v);
            assert_eq!(read_i64(&buf), Some((v, n)));
        }
    }

    #[test]
    fn reads_ignore_trailing_bytes() {
        let mut rng = crate::Rng::new(0x0A13);
        for _ in 0..1024 {
            let v = rng.next_u64();
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            buf.extend_from_slice(&rng.gen_bytes(7));
            assert_eq!(read_u64(&buf), Some((v, n)));
        }
    }
}
