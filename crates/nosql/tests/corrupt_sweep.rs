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

/// Drives every read path of one (possibly corrupt) file. Returns `Ok` with
/// the scan result when every operation succeeded, `Err` when any surfaced
/// an error. Panics and wrong-size allocations abort the test run itself.
fn exercise(vfs: &Vfs, file: &str, es: &[SstEntry]) -> Result<Vec<SstEntry>, NosqlError> {
    let sst = SsTable::open(vfs.clone(), file)?;
    for e in es {
        sst.get(&e.key)?;
    }
    sst.get(b"absent-key")?;
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
