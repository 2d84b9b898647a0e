//! Length-prefixed record encoder/decoder used by the storage engines.
//!
//! Records written by [`Encoder`] are read back by [`Decoder`]; each engine
//! layers its own row/cell format on top. All multi-byte fixed-width values
//! are little-endian; variable-width values use [`crate::varint`].
//!
//! Logs (both engines' write-ahead logs, the NoSQL manifest) append their
//! records as CRC frames — `[len: u32][crc: u32][payload]`, the CRC over the
//! payload — written by [`Encoder::put_frame`] and read back by [`Frames`],
//! which tells a torn frame from a corrupt one.

use crate::{varint, Crc32};
use std::fmt;

/// Error produced when decoding a corrupt or truncated record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// What the decoder was trying to read.
        wanted: &'static str,
    },
    /// A varint was malformed (overlong or overflowing).
    BadVarint,
    /// A string field did not contain valid UTF-8.
    BadUtf8,
    /// A tag/enum discriminant had no known meaning.
    BadTag {
        /// The unknown discriminant value.
        tag: u8,
        /// Context for error messages.
        context: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { wanted } => {
                write!(f, "unexpected end of buffer while reading {wanted}")
            }
            DecodeError::BadVarint => write!(f, "malformed varint"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadTag { tag, context } => {
                write!(f, "unknown tag {tag} while decoding {context}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates an encoder with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Empties the buffer, keeping its allocation (scratch-buffer reuse in
    /// per-record hot loops).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Writes a single raw byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u8(v as u8)
    }

    /// Writes a fixed-width little-endian `u32`.
    pub fn put_u32_fixed(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a fixed-width little-endian `u64`.
    pub fn put_u64_fixed(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes an unsigned varint.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        varint::write_u64(&mut self.buf, v);
        self
    }

    /// Writes a `u32` as a varint.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.put_u64(u64::from(v))
    }

    /// Writes a signed zig-zag varint.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        varint::write_i64(&mut self.buf, v);
        self
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Writes raw bytes with no length prefix (caller knows the framing).
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes one CRC frame whose payload is whatever `payload` writes.
    pub fn put_frame(&mut self, payload: impl FnOnce(&mut Encoder)) -> &mut Self {
        let header = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        payload(self);
        let body = header + 8;
        let len = (self.buf.len() - body) as u32;
        let crc = Crc32::of(&self.buf[body..]);
        self.buf[header..header + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[header + 4..body].copy_from_slice(&crc.to_le_bytes());
        self
    }
}

/// Why a run of CRC frames ends before its bytes do, and where the frame
/// that ends it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes stop inside the frame's header or short of the payload its
    /// header declares: the tail a crash mid-append leaves.
    Torn {
        /// Byte offset of the torn frame.
        at: usize,
    },
    /// The frame is complete but its payload fails its CRC.
    Corrupt {
        /// Byte offset of the corrupt frame.
        at: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Torn { at } => write!(f, "torn frame at byte {at}"),
            FrameError::Corrupt { at } => write!(f, "frame at byte {at} fails its CRC"),
        }
    }
}

/// The CRC frames ([`Encoder::put_frame`]) of a byte slice, in order: each
/// intact payload, then — when the frames end before the bytes do — one
/// [`FrameError`] saying why, after which iteration stops.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    /// Starts at the first byte of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<&'a [u8], FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        let at = self.pos;
        if at == self.data.len() {
            return None;
        }
        // Whatever ends the run, nothing past it is read.
        self.pos = self.data.len();
        let mut dec = Decoder::new(&self.data[at..]);
        let (Ok(len), Ok(crc)) = (dec.get_u32_fixed(), dec.get_u32_fixed()) else {
            return Some(Err(FrameError::Torn { at }));
        };
        let Ok(payload) = dec.get_raw(len as usize) else {
            return Some(Err(FrameError::Torn { at }));
        };
        if Crc32::of(payload) != crc {
            return Some(Err(FrameError::Corrupt { at }));
        }
        self.pos = at + dec.position();
        Some(Ok(payload))
    }
}

/// Cursor-style decoder over a byte slice.
///
/// The per-value reads are `#[inline]`: block decoders in other crates call
/// them once per cell, and a call per varint is a measurable share of a
/// block decode.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize, wanted: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof { wanted });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one raw byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool written by [`Encoder::put_bool`].
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag {
                tag,
                context: "bool",
            }),
        }
    }

    /// Reads a fixed-width little-endian `u32`.
    pub fn get_u32_fixed(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn get_u64_fixed(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an unsigned varint.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let (v, n) = varint::read_u64(&self.buf[self.pos..]).ok_or(DecodeError::BadVarint)?;
        self.pos += n;
        Ok(v)
    }

    /// Reads a `u32` varint, rejecting values that overflow `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let v = self.get_u64()?;
        u32::try_from(v).map_err(|_| DecodeError::BadVarint)
    }

    /// Reads a signed zig-zag varint.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        let (v, n) = varint::read_i64(&self.buf[self.pos..]).ok_or(DecodeError::BadVarint)?;
        self.pos += n;
        Ok(v)
    }

    /// Reads a length-prefixed byte slice.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u64()? as usize;
        self.take(len, "bytes body")
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads `n` raw bytes with no length prefix.
    #[inline]
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n, "raw bytes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn mixed_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u8(7)
            .put_bool(true)
            .put_u32_fixed(0xdead_beef)
            .put_u64(300)
            .put_i64(-42)
            .put_str("Fenian St")
            .put_bytes(&[1, 2, 3]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_u32_fixed().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), 300);
        assert_eq!(dec.get_i64().unwrap(), -42);
        assert_eq!(dec.get_str().unwrap(), "Fenian St");
        assert_eq!(dec.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn frames_roundtrip_and_stop_at_a_torn_or_corrupt_tail() {
        let mut enc = Encoder::new();
        enc.put_frame(|p| {
            p.put_str("one");
        })
        .put_frame(|_| {})
        .put_frame(|p| {
            p.put_raw(&[9; 5]);
        });
        let bytes = enc.into_bytes();
        // The layout the logs have always written.
        assert_eq!(&bytes[..4], &4u32.to_le_bytes());
        assert_eq!(&bytes[4..8], &Crc32::of(b"\x03one").to_le_bytes());
        assert_eq!(&bytes[8..12], b"\x03one");

        let frames: Vec<_> = Frames::new(&bytes).collect();
        assert_eq!(frames, [Ok(&b"\x03one"[..]), Ok(&[]), Ok(&[9; 5])]);

        // Torn anywhere inside the last frame: the first two survive, and
        // the tear is reported where the last frame starts.
        for cut in 21..bytes.len() {
            let frames: Vec<_> = Frames::new(&bytes[..cut]).collect();
            assert_eq!(frames.len(), 3, "cut at {cut}");
            assert_eq!(frames[2], Err(FrameError::Torn { at: 20 }), "cut at {cut}");
        }
        // One flipped payload bit: the frame is whole, so it is corrupt,
        // not torn, and nothing after it is read.
        let mut flipped = bytes.clone();
        flipped[9] ^= 1;
        let frames: Vec<_> = Frames::new(&flipped).collect();
        assert_eq!(frames, [Err(FrameError::Corrupt { at: 0 })]);
    }

    #[test]
    fn eof_errors_name_the_field() {
        let mut dec = Decoder::new(&[]);
        assert_eq!(
            dec.get_u32_fixed(),
            Err(DecodeError::UnexpectedEof { wanted: "u32" })
        );
    }

    #[test]
    fn bool_rejects_junk() {
        let mut dec = Decoder::new(&[2]);
        assert!(matches!(
            dec.get_bool(),
            Err(DecodeError::BadTag { tag: 2, .. })
        ));
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn u32_varint_rejects_overflow() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::from(u32::MAX) + 1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u32(), Err(DecodeError::BadVarint));
    }

    #[test]
    fn truncated_string_body_is_eof() {
        let mut enc = Encoder::new();
        enc.put_str("hello");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..3]);
        assert!(matches!(
            dec.get_str(),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    // Deterministic randomized sweeps (seeded xorshift, no proptest — the
    // build is offline).

    #[test]
    fn string_roundtrip_random() {
        let mut rng = crate::Rng::new(0xC0DE);
        for _ in 0..1024 {
            // Mix plain ASCII with multi-byte UTF-8 scalars.
            let len = rng.gen_range(65) as usize;
            let s: String = (0..len)
                .map(|_| match rng.gen_range(4) {
                    0 => 'é',
                    1 => '€',
                    2 => '🚲',
                    _ => (b' ' + rng.gen_range(95) as u8) as char,
                })
                .collect();
            let mut enc = Encoder::new();
            enc.put_str(&s);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_str().unwrap(), s.as_str());
            assert!(dec.is_exhausted());
        }
    }

    #[test]
    fn numeric_sequence_roundtrip_random() {
        let mut rng = crate::Rng::new(0xC0DF);
        for _ in 0..512 {
            let vals: Vec<i64> = (0..rng.gen_range(32)).map(|_| rng.gen_i64()).collect();
            let mut enc = Encoder::new();
            enc.put_u64(vals.len() as u64);
            for &v in &vals {
                enc.put_i64(v);
            }
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let n = dec.get_u64().unwrap() as usize;
            let mut back = Vec::with_capacity(n);
            for _ in 0..n {
                back.push(dec.get_i64().unwrap());
            }
            assert_eq!(back, vals);
            assert!(dec.is_exhausted());
        }
    }
}
