//! The SSTable file as the engine writes it: pinned bytes, exact typed
//! round trips, and the writer's input checks.

use sc_encoding::{Crc32, Rng};
use sc_nosql::error::NosqlError;
use sc_nosql::row::Row;
use sc_nosql::sstable::{write_sstable, SsTable, SstEntry};
use sc_nosql::CqlValue;
use sc_storage::Vfs;

/// A fixed seeded table that spans several blocks and meets every column
/// encoding: delta ints, dictionary text (8 distinct stations), raw text
/// (a unique note per row), boolean bitmaps, raw `set<int>` cells, nulls in
/// two columns, and a tombstone every 11th key.
fn seeded_entries() -> Vec<SstEntry> {
    let mut rng = Rng::new(0x5354_4233);
    (0..600i64)
        .map(|i| {
            let timestamp = 1_000 + i as u64 * 3 + rng.gen_range(3);
            let row = (i % 11 != 7).then(|| {
                Row::new(vec![
                    CqlValue::Int(i),
                    CqlValue::Text(format!("station-{}", rng.gen_range(8))),
                    CqlValue::Text(format!("note-{i}-{}", rng.gen_ascii(12))),
                    CqlValue::Boolean(rng.gen_bool(0.3)),
                    CqlValue::int_set((0..rng.gen_range(4)).map(|k| i * 10 + k as i64)),
                    if i % 5 == 0 {
                        CqlValue::Null
                    } else {
                        CqlValue::Int(rng.gen_between(-500, 40_000))
                    },
                    if i % 3 == 0 {
                        CqlValue::Null
                    } else {
                        CqlValue::Text(format!("zone-{}", i % 40))
                    },
                ])
            });
            SstEntry {
                key: CqlValue::Int(i).encode_key(),
                row,
                timestamp,
            }
        })
        .collect()
}

/// Length and CRC-32 of the file the writer produces for
/// [`seeded_entries`], a text run dictionary-coded exactly when that comes
/// out smaller than its raw cells.
const GOLDEN_LEN: usize = 28_765;
const GOLDEN_CRC: u32 = 0xf5f1_fda9;

#[test]
fn written_bytes_are_pinned() {
    let vfs = Vfs::memory();
    write_sstable(&vfs, "t/golden", &seeded_entries()).unwrap();
    let bytes = vfs.read_all("t/golden").unwrap();
    assert_eq!(
        (bytes.len(), Crc32::of(&bytes)),
        (GOLDEN_LEN, GOLDEN_CRC),
        "the on-disk format moved"
    );
}

#[test]
fn typed_entries_round_trip_exactly() {
    let vfs = Vfs::memory();
    let entries = seeded_entries();
    write_sstable(&vfs, "t/typed", &entries).unwrap();
    let sst = SsTable::open(vfs, "t/typed").unwrap();
    assert_eq!(sst.scan().unwrap(), entries);
    for e in &entries {
        let probe = sst.probe(&e.key).unwrap();
        assert_eq!(probe.entry.as_ref(), Some(e));
        assert_eq!(probe.blocks_read, 1);
    }
}

#[test]
fn mixed_arity_rows_are_rejected_and_nothing_is_written() {
    let vfs = Vfs::memory();
    let mut entries = seeded_entries();
    entries[3].row.as_mut().unwrap().values.pop();
    let err = write_sstable(&vfs, "t/ragged", &entries).unwrap_err();
    assert!(
        matches!(&err, NosqlError::Corrupt(m) if m.contains("column")),
        "{err:?}"
    );
    assert!(vfs.list("t/ragged").unwrap().is_empty());
}
