//! The manifest: the engine's one catalog log, the atomic publication of
//! DDL, flush and compaction results.
//!
//! Every `CREATE KEYSPACE/TABLE/INDEX` is a record, fully qualified since
//! recovery has no session, and so is every change to the live SSTable
//! set. An SSTable file only *exists*, as far as the engine is concerned,
//! once a manifest record names it. Flush writes the SSTable bytes first
//! and appends the add record second, so a crash mid-flush leaves an orphan
//! file that recovery deletes — never a half-table that recovery opens.
//! Compaction commits its swap (one add + the replaced files' removes) as a
//! single append before deleting anything, so the transition is atomic:
//! recovery sees either the old run or the merged table, never both.
//!
//! Records use the commit log's framing — `[len: u32][crc: u32][payload]`
//! — and [`Manifest::repair`] reads them back through the commit log's one
//! frame reader, under its one rule: a torn tail is truncated away, a
//! corrupt frame is an error.
//!
//! The per-table file lists preserve **age order**, which is not id order:
//! a tiered merge splices its output into the middle of the age sequence
//! (the merged data is older than the tables after the run). Each edit
//! therefore inserts its adds at the position of the first file it removes,
//! reproducing the in-memory splice exactly across restarts.

use crate::commitlog::repair_frames;
use crate::error::Result;
use sc_encoding::{DecodeError, Decoder, Encoder};
use sc_storage::Vfs;
use std::collections::BTreeMap;

/// The manifest's file name in the VFS namespace.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Record tags, the first byte of a record's payload.
const EDIT: u8 = 0;
const DDL: u8 = 1;

/// One atomic change to the live SSTable set. Entries are
/// `(qualified table name, file name)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManifestEdit {
    /// Files published by this edit, in age order.
    pub adds: Vec<(String, String)>,
    /// Files retired by this edit.
    pub removes: Vec<(String, String)>,
}

impl ManifestEdit {
    /// An edit publishing one freshly flushed SSTable.
    pub fn add(table: impl Into<String>, file: impl Into<String>) -> ManifestEdit {
        ManifestEdit {
            adds: vec![(table.into(), file.into())],
            removes: Vec::new(),
        }
    }

    /// Whether the edit changes nothing.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }
}

/// What the manifest holds, read back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    /// Every DDL statement, fully qualified CQL, in commit order.
    pub ddl: Vec<String>,
    /// The live SSTable files of each qualified table, in age order.
    pub tables: BTreeMap<String, Vec<String>>,
}

/// Append/repair handle for one engine's manifest. Cheap to clone.
#[derive(Debug, Clone)]
pub struct Manifest {
    vfs: Vfs,
}

impl Manifest {
    /// Opens (or lazily creates) the manifest over `vfs`.
    pub fn open(vfs: Vfs) -> Manifest {
        Manifest { vfs }
    }

    /// Appends one edit as a single CRC-framed record (the atomic publish).
    pub fn commit(&self, edit: &ManifestEdit) -> Result<()> {
        if edit.is_empty() {
            return Ok(());
        }
        self.append(EDIT, |p| {
            for list in [&edit.adds, &edit.removes] {
                p.put_u64(list.len() as u64);
                for (table, file) in list {
                    p.put_str(table).put_str(file);
                }
            }
        })
    }

    /// Appends one DDL statement, fully qualified CQL, as a record.
    pub fn commit_ddl(&self, cql: &str) -> Result<()> {
        self.append(DDL, |p| {
            p.put_str(cql);
        })
    }

    fn append(&self, tag: u8, body: impl FnOnce(&mut Encoder)) -> Result<()> {
        let mut frame = Encoder::new();
        frame.put_frame(|p| {
            body(p.put_u8(tag));
        });
        self.vfs.append(MANIFEST_FILE, frame.bytes())?;
        Ok(())
    }

    /// Reads every record back into the [`Catalog`] — a missing manifest is
    /// an empty one — and truncates a torn tail off the file, so
    /// post-recovery commits never land beyond a tear. A corrupt record is
    /// `NosqlError::Corrupt`, and the file is left as it is.
    pub fn repair(&self) -> Result<Catalog> {
        let mut catalog = Catalog::default();
        repair_frames(&self.vfs, MANIFEST_FILE, true, |payload| {
            let mut p = Decoder::new(payload);
            match p.get_u8()? {
                EDIT => Self::apply(&mut catalog.tables, &Self::decode_edit(&mut p)?),
                DDL => catalog.ddl.push(p.get_str()?.to_string()),
                tag => {
                    let context = "manifest record";
                    return Err(DecodeError::BadTag { tag, context }.into());
                }
            }
            Ok(())
        })?;
        Ok(catalog)
    }

    fn decode_edit(p: &mut Decoder<'_>) -> Result<ManifestEdit> {
        let mut edit = ManifestEdit::default();
        for list in [&mut edit.adds, &mut edit.removes] {
            for _ in 0..p.get_u64()? {
                list.push((p.get_str()?.to_string(), p.get_str()?.to_string()));
            }
        }
        Ok(edit)
    }

    /// Applies one edit to the live lists, reproducing the engine's splice:
    /// adds land at the position of the table's first removed file (at the
    /// end when the edit removes nothing, i.e. a flush).
    fn apply(tables: &mut BTreeMap<String, Vec<String>>, edit: &ManifestEdit) {
        let mut touched: Vec<&str> = edit
            .adds
            .iter()
            .chain(&edit.removes)
            .map(|(t, _)| t.as_str())
            .collect();
        touched.dedup();
        for table in touched {
            let files = tables.entry(table.to_string()).or_default();
            let removed: Vec<&str> = edit
                .removes
                .iter()
                .filter(|(t, _)| t == table)
                .map(|(_, f)| f.as_str())
                .collect();
            let pos = files
                .iter()
                .position(|f| removed.contains(&f.as_str()))
                .unwrap_or(files.len());
            files.retain(|f| !removed.contains(&f.as_str()));
            let pos = pos.min(files.len());
            let adds = edit
                .adds
                .iter()
                .filter(|(t, _)| t == table)
                .map(|(_, f)| f.clone());
            files.splice(pos..pos, adds);
        }
        tables.retain(|_, files| !files.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NosqlError;

    fn live(m: &Manifest) -> BTreeMap<String, Vec<String>> {
        m.repair().unwrap().tables
    }

    #[test]
    fn flush_edits_append_in_age_order() {
        let m = Manifest::open(Vfs::memory());
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000000"))
            .unwrap();
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000001"))
            .unwrap();
        m.commit(&ManifestEdit::add("ks.u", "ks/u/sst-000000"))
            .unwrap();
        let tables = live(&m);
        assert_eq!(tables["ks.t"], vec!["ks/t/sst-000000", "ks/t/sst-000001"]);
        assert_eq!(tables["ks.u"], vec!["ks/u/sst-000000"]);
    }

    #[test]
    fn swap_edit_splices_at_the_run_position() {
        let m = Manifest::open(Vfs::memory());
        for i in 0..4 {
            m.commit(&ManifestEdit::add("ks.t", format!("ks/t/sst-{i:06}")))
                .unwrap();
        }
        // Merge the middle run [1..=2] into sst-000004: the merged file
        // must sit *between* sst-000000 and sst-000003 in age order.
        m.commit(&ManifestEdit {
            adds: vec![("ks.t".into(), "ks/t/sst-000004".into())],
            removes: vec![
                ("ks.t".into(), "ks/t/sst-000001".into()),
                ("ks.t".into(), "ks/t/sst-000002".into()),
            ],
        })
        .unwrap();
        assert_eq!(
            live(&m)["ks.t"],
            vec!["ks/t/sst-000000", "ks/t/sst-000004", "ks/t/sst-000003"]
        );
    }

    #[test]
    fn remove_only_edit_can_empty_a_table() {
        let m = Manifest::open(Vfs::memory());
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000000"))
            .unwrap();
        m.commit(&ManifestEdit {
            adds: vec![],
            removes: vec![("ks.t".into(), "ks/t/sst-000000".into())],
        })
        .unwrap();
        assert!(live(&m).is_empty());
    }

    #[test]
    fn ddl_and_edits_read_back_in_commit_order() {
        let m = Manifest::open(Vfs::memory());
        m.commit_ddl("CREATE KEYSPACE ks").unwrap();
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000000"))
            .unwrap();
        m.commit_ddl("CREATE INDEX ON ks.t (v)").unwrap();
        let catalog = m.repair().unwrap();
        assert_eq!(
            catalog.ddl,
            ["CREATE KEYSPACE ks", "CREATE INDEX ON ks.t (v)"]
        );
        assert_eq!(catalog.tables["ks.t"], ["ks/t/sst-000000"]);
    }

    #[test]
    fn torn_tail_is_dropped_and_repaired_away() {
        let vfs = Vfs::memory();
        let m = Manifest::open(vfs.clone());
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000000"))
            .unwrap();
        let good = vfs.len(MANIFEST_FILE).unwrap();
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000001"))
            .unwrap();
        vfs.truncate(MANIFEST_FILE, vfs.len(MANIFEST_FILE).unwrap() - 2)
            .unwrap();
        let tables = live(&m);
        assert_eq!(tables["ks.t"], vec!["ks/t/sst-000000"]);
        assert_eq!(vfs.len(MANIFEST_FILE).unwrap(), good, "tail truncated");
        // A post-repair commit reads back cleanly.
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000002"))
            .unwrap();
        assert_eq!(live(&m)["ks.t"], vec!["ks/t/sst-000000", "ks/t/sst-000002"]);
    }

    #[test]
    fn a_corrupt_record_is_an_error_and_the_file_is_kept() {
        let vfs = Vfs::memory();
        let m = Manifest::open(vfs.clone());
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000000"))
            .unwrap();
        let second = vfs.len(MANIFEST_FILE).unwrap();
        m.commit(&ManifestEdit::add("ks.t", "ks/t/sst-000001"))
            .unwrap();
        let mut data = vfs.read_all(MANIFEST_FILE).unwrap();
        *data.last_mut().unwrap() ^= 1;
        vfs.delete(MANIFEST_FILE).unwrap();
        vfs.append(MANIFEST_FILE, &data).unwrap();
        let err = m.repair().unwrap_err();
        let want = format!("MANIFEST: frame at byte {second} fails its CRC");
        assert!(
            matches!(&err, NosqlError::Corrupt(m) if *m == want),
            "{err}"
        );
        assert_eq!(vfs.read_all(MANIFEST_FILE).unwrap(), data);
    }

    #[test]
    fn missing_manifest_is_empty() {
        let m = Manifest::open(Vfs::memory());
        assert_eq!(m.repair().unwrap(), Catalog::default());
    }

    #[test]
    fn empty_edit_writes_nothing() {
        let vfs = Vfs::memory();
        let m = Manifest::open(vfs.clone());
        m.commit(&ManifestEdit::default()).unwrap();
        assert!(!vfs.exists(MANIFEST_FILE));
    }
}
