//! # sc-encoding
//!
//! Byte-level encoding primitives shared by every smartcube storage engine.
//!
//! Both the columnar NoSQL engine (`sc-nosql`) and the relational engine
//! (`sc-relational`) serialize records to real bytes so that the paper's
//! `size_as_mb` measurements (Table 4) are derived from actual serialized
//! data rather than formulas. This crate provides:
//!
//! * [`varint`] — LEB128-style unsigned varints and zig-zag signed varints,
//! * [`codec`] — a small [`codec::Encoder`]/[`codec::Decoder`]
//!   pair with length-prefixed strings and byte slices, and the CRC frame
//!   ([`codec::Frames`]) the journals append their records in,
//! * [`columnar`] — the column-run primitives (packed bitmaps, zig-zag
//!   delta runs, byte-string dictionaries) SSTables build their
//!   column-major blocks from,
//! * [`bloom`] — Bloom filters answering SSTable point misses without
//!   touching data blocks,
//! * [`checksum`] — a from-scratch CRC-32 (IEEE) used by commit logs and
//!   SSTable footers,
//! * [`hash`] — FNV-1a hashing and a [`BuildHasher`](std::hash::BuildHasher)
//!   for fast integer-keyed maps,
//! * [`lex`] — the one statement tokenizer and token cursor the CQL and SQL
//!   parsers share,
//! * [`bytesize`] — human-readable byte quantities (the paper reports sizes
//!   in MB),
//! * [`rng`] — the workspace's deterministic xorshift64* PRNG (no `rand`
//!   dependency; datasets and randomized tests are bit-identical per seed).

pub mod bloom;
pub mod bytesize;
pub mod checksum;
pub mod codec;
pub mod columnar;
pub mod hash;
pub mod lex;
pub mod rng;
pub mod varint;

pub use bloom::Bloom;
pub use bytesize::ByteSize;
pub use checksum::Crc32;
pub use codec::{DecodeError, Decoder, Encoder, FrameError, Frames};
pub use columnar::{decode_dict, decode_i64_deltas, encode_i64_deltas, Bitmap, DictBuilder};
pub use hash::{fnv1a_64, FnvBuildHasher, FnvHashMap, FnvHashSet};
pub use rng::Rng;

/// Row-major bytes an SSTable data block holds before it closes: the
/// classic 4 KiB data-block size.
pub const BLOCK_TARGET_BYTES: usize = 4096;
