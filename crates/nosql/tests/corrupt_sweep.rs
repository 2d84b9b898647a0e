//! Exhaustive byte-corruption sweep over a small SSTable.
//!
//! For every byte position of a freshly written table, three mutations are
//! tried — flip one bit, overwrite with 0xFF, truncate the file at that
//! position — and for each mutant the full read surface (`open`, `get` on
//! present and absent keys, `scan`, a prefix `iter` and a projected `iter`)
//! is driven. The invariant under test is the hardening goal: a corrupt or
//! truncated file must surface as `Err(NosqlError::Corrupt)` or behave
//! correctly — it may never panic, never allocate unboundedly, and (every
//! region being CRC- or geometry-checked) never silently return wrong rows.
//!
//! The fixture meets the varint-delta, dictionary and null-bitmap codecs
//! and a tombstone, so those decoders face the mutants too.

use sc_nosql::error::NosqlError;
use sc_nosql::row::Row;
use sc_nosql::sstable::{write_sstable, SsTable, SstEntry};
use sc_nosql::BlockCache;
use sc_nosql::CqlValue;
use sc_storage::Vfs;

fn entries() -> Vec<SstEntry> {
    (0..12u8)
        .map(|i| SstEntry {
            key: vec![b'k', i],
            row: (i % 5 != 0).then(|| {
                Row::new(vec![
                    CqlValue::Int(i as i64),
                    CqlValue::Text(format!("city-{}", i % 3)),
                    if i % 4 == 0 {
                        CqlValue::Null
                    } else {
                        CqlValue::Int(1000 + i as i64)
                    },
                ])
            }),
            timestamp: i as u64,
        })
        .collect()
}

/// A table of several blocks whose columns between them use every run
/// encoding: ints (delta), a few city names (dictionary), booleans
/// (bitmap), unique long readings and `set<int>`s (both raw), with nulls in
/// every column and a tombstone in every few rows.
fn multi_block_entries() -> Vec<SstEntry> {
    (0..80u32)
        .map(|i| SstEntry {
            key: format!("m{i:03}").into_bytes(),
            row: (i % 7 != 3).then(|| {
                let null_or = |v: CqlValue| if i % 5 == 2 { CqlValue::Null } else { v };
                Row::new(vec![
                    null_or(CqlValue::Int(i64::from(i) * 1_000)),
                    if i % 6 == 1 {
                        CqlValue::Null
                    } else {
                        CqlValue::Text(format!("city-{}", i % 3))
                    },
                    if i % 4 == 0 {
                        CqlValue::Null
                    } else {
                        CqlValue::Boolean(i % 3 == 0)
                    },
                    null_or(CqlValue::Text(format!("reading-{i}-{}", "ü".repeat(40)))),
                    if i % 9 == 5 {
                        CqlValue::Null
                    } else {
                        CqlValue::int_set([i64::from(i), -1])
                    },
                ])
            }),
            timestamp: 1_000 + u64::from(i),
        })
        .collect()
}

/// Drives every read path of one (possibly corrupt) file. Returns `Ok` with
/// the scan result when every operation succeeded, `Err` when any surfaced
/// an error. A point read that succeeds must answer exactly its entry (or
/// nothing, for an absent key). Panics and wrong-size allocations abort the
/// test run itself.
fn exercise(vfs: &Vfs, file: &str, es: &[SstEntry]) -> Result<Vec<SstEntry>, NosqlError> {
    let sst = SsTable::open(vfs.clone(), file)?;
    for e in es {
        let got = sst.get(&e.key)?;
        assert_eq!(got.as_ref(), Some(e), "{file}: wrong point answer");
    }
    assert_eq!(
        sst.get(b"absent-key")?,
        None,
        "{file}: an absent key was found"
    );
    sst.iter(Some(b"k"), None).collect::<Result<Vec<_>, _>>()?;
    sst.iter(None, Some(&[1])).collect::<Result<Vec<_>, _>>()?;
    sst.scan()
}

fn mutants(original: &[u8], pos: usize) -> Vec<Vec<u8>> {
    let mut flipped = original.to_vec();
    flipped[pos] ^= 0x01;
    let mut smashed = original.to_vec();
    smashed[pos] = 0xFF;
    vec![flipped, smashed, original[..pos].to_vec()]
}

#[test]
fn sweep_never_panics_and_never_lies() {
    let es = entries();
    let vfs = Vfs::memory();
    write_sstable(&vfs, "sweep/base", &es).unwrap();
    let original = vfs.read_all("sweep/base").unwrap();
    let baseline = exercise(&vfs, "sweep/base", &es).unwrap();
    assert_eq!(baseline, es, "uncorrupted table must read back exactly");

    let mut rejected = 0usize;
    for pos in 0..original.len() {
        for (kind, mutant) in mutants(&original, pos).into_iter().enumerate() {
            let file = format!("sweep/mut-{pos}-{kind}");
            vfs.append(&file, &mutant).unwrap();
            match exercise(&vfs, &file, &es) {
                Err(_) => rejected += 1,
                // Every region is CRC- or geometry-checked, so a mutation
                // that goes unnoticed must be byte-neutral in effect: the
                // reads still return the exact data.
                Ok(result) => assert_eq!(
                    result, es,
                    "undetected mutation at byte {pos} (kind {kind}) \
                     changed the read result"
                ),
            }
        }
    }
    // Sanity on the sweep itself: corruption was overwhelmingly detected.
    assert!(
        rejected > original.len(),
        "only {rejected} of {} mutants rejected",
        3 * original.len()
    );
}

#[test]
fn multi_block_sweep_never_panics_and_never_lies() {
    let es = multi_block_entries();
    let vfs = Vfs::memory();
    write_sstable(&vfs, "sweep/blocks", &es).unwrap();
    let original = vfs.read_all("sweep/blocks").unwrap();
    assert_eq!(exercise(&vfs, "sweep/blocks", &es).unwrap(), es);
    // A full scan through a cache leaves one resident block per data block.
    let cache = BlockCache::new(1 << 20);
    let sst = SsTable::open_with_cache(vfs.clone(), "sweep/blocks", cache.clone()).unwrap();
    sst.scan().unwrap();
    assert!(
        cache.stats().blocks >= 3,
        "fixture must span several blocks, got {}",
        cache.stats().blocks
    );

    let mut rejected = 0usize;
    for pos in 0..original.len() {
        for (kind, mutant) in mutants(&original, pos).into_iter().enumerate() {
            let file = format!("sweep/blocks-{pos}-{kind}");
            vfs.append(&file, &mutant).unwrap();
            match exercise(&vfs, &file, &es) {
                Err(_) => rejected += 1,
                Ok(result) => assert_eq!(
                    result, es,
                    "undetected mutation at byte {pos} (kind {kind}) \
                     changed the read result"
                ),
            }
            vfs.delete(&file).unwrap();
        }
    }
    assert!(
        rejected > 2 * original.len(),
        "only {rejected} of {} mutants rejected",
        3 * original.len()
    );
}
