//! The redo log (write-ahead log).
//!
//! InnoDB writes every row change to its redo log before the change reaches
//! a data page; the paper's MySQL insert times include that cost, so ours
//! must too. Each mutation is framed as `[len u32][crc u32][payload]`
//! (payload = table name, primary-key bytes, row image) and appended before
//! the heap and indexes are touched.
//!
//! The log is truncated at checkpoints — once pages and indexes are
//! persisted the redo entries are redundant, exactly like InnoDB's
//! checkpoint advancing the log's low-water mark. Nothing reads it back:
//! the relational engine does not recover from a crash, and the log is here
//! for its write cost.

use crate::error::Result;
use sc_encoding::Encoder;
use sc_storage::Vfs;

/// One redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoRecord {
    /// Qualified `db.table` the change applies to.
    pub table: String,
    /// Encoded primary key.
    pub key: Vec<u8>,
    /// Encoded row image (empty for a delete).
    pub row: Vec<u8>,
}

/// Append handle for the engine-wide redo log.
#[derive(Debug)]
pub struct RedoLog {
    vfs: Vfs,
    file: String,
}

impl RedoLog {
    /// Opens (or creates) the log.
    pub fn open(vfs: Vfs, file: impl Into<String>) -> RedoLog {
        RedoLog {
            vfs,
            file: file.into(),
        }
    }

    /// Appends one record.
    pub fn append(&self, record: &RedoRecord) -> Result<()> {
        let mut frame = Encoder::new();
        frame.put_frame(|p| {
            p.put_str(&record.table)
                .put_bytes(&record.key)
                .put_bytes(&record.row);
        });
        self.vfs.append(&self.file, frame.bytes())?;
        Ok(())
    }

    /// Current log size in bytes.
    pub fn size(&self) -> u64 {
        self.vfs.len(&self.file).unwrap_or(0)
    }

    /// Truncates the log (after a checkpoint).
    pub fn truncate(&self) -> Result<()> {
        self.vfs.delete(&self.file)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u8) -> RedoRecord {
        RedoRecord {
            table: "d.t".into(),
            key: vec![i],
            row: vec![i; 4],
        }
    }

    #[test]
    fn each_append_is_one_frame_and_truncate_empties_the_log() {
        let vfs = Vfs::memory();
        let log = RedoLog::open(vfs.clone(), "redo");
        log.append(&rec(1)).unwrap();
        let one = log.size() as usize;
        log.append(&rec(2)).unwrap();
        assert_eq!(log.size() as usize, 2 * one);
        // `[len][crc][payload]`, the payload being table, key and row image.
        let mut payload = Encoder::new();
        payload.put_str("d.t").put_bytes(&[1]).put_bytes(&[1; 4]);
        let data = vfs.read_all("redo").unwrap();
        assert_eq!(data[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(&data[8..one], payload.bytes());
        log.truncate().unwrap();
        assert_eq!(log.size(), 0);
    }
}
