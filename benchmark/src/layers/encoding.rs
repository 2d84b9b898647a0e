//! sc-encoding: the codecs v3 blocks, the commit log and the bloom filters
//! are built from. Decode moves `read_p50_us` on `point_read` and
//! `scan_mixed`; encode moves `write_items_per_s` on `row_ingest`.

use super::{mb_per_s, median_ns};
use crate::metrics::Report;
use sc_encoding::{
    decode_dict, decode_i64_deltas, encode_i64_deltas, Bloom, Crc32, Decoder, DictBuilder, Encoder,
    Rng,
};

const PASSES: usize = 5;
/// Values per delta run: 4 MB of raw `i64`s.
const INTS: usize = 500_000;
const DICT_ROWS: usize = 200_000;
const CRC_BYTES: usize = 4 << 20;
const BLOOM_KEYS: usize = 100_000;

pub fn run(seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed);
    let n = PASSES as u64;

    // A timestamp-like column: increasing, with small irregular steps.
    let mut next = 1_446_336_000_000i64;
    let ints: Vec<i64> = (0..INTS)
        .map(|_| {
            next += rng.gen_between(1, 60_000);
            next
        })
        .collect();
    let raw_bytes = INTS * std::mem::size_of::<i64>();
    let ns = median_ns(PASSES, || {
        let mut enc = Encoder::with_capacity(INTS * 3);
        encode_i64_deltas(&mut enc, &ints);
        enc.len()
    });
    report.set(
        "encoding.i64_delta_encode_mb_per_s",
        mb_per_s(raw_bytes, ns),
        n,
    );
    let mut enc = Encoder::new();
    encode_i64_deltas(&mut enc, &ints);
    let encoded = enc.into_bytes();
    let ns = median_ns(PASSES, || {
        decode_i64_deltas(&mut Decoder::new(&encoded), INTS)
            .expect("decodes")
            .len()
    });
    report.set(
        "encoding.i64_delta_decode_mb_per_s",
        mb_per_s(raw_bytes, ns),
        n,
    );

    // A station-name column: 40 distinct values.
    let mut dict = DictBuilder::new();
    let mut cell_bytes = 0;
    for _ in 0..DICT_ROWS {
        let name = format!("station-{:02}", rng.gen_range(40));
        cell_bytes += name.len();
        dict.push(name.as_bytes());
    }
    let mut enc = Encoder::new();
    dict.encode(&mut enc);
    let encoded = enc.into_bytes();
    let ns = median_ns(PASSES, || {
        decode_dict(&mut Decoder::new(&encoded), DICT_ROWS)
            .expect("decodes")
            .len()
    });
    report.set("encoding.dict_decode_mb_per_s", mb_per_s(cell_bytes, ns), n);

    let buffer: Vec<u8> = (0..CRC_BYTES).map(|_| rng.next_u64() as u8).collect();
    let ns = median_ns(PASSES, || Crc32::of(&buffer));
    report.set("encoding.crc32_mb_per_s", mb_per_s(CRC_BYTES, ns), n);

    // Half the probed keys are present, half absent.
    let mut bloom = Bloom::with_capacity(BLOOM_KEYS, 10);
    for i in 0..BLOOM_KEYS as u64 {
        bloom.insert(&(2 * i).to_be_bytes());
    }
    let probes: Vec<[u8; 8]> = (0..2 * BLOOM_KEYS as u64)
        .map(|_| rng.gen_range(2 * BLOOM_KEYS as u64).to_be_bytes())
        .collect();
    let ns = median_ns(PASSES, || {
        probes.iter().filter(|k| bloom.may_contain(&k[..])).count()
    });
    report.set("encoding.bloom_probe_ns", ns / probes.len() as f64, n);
}
