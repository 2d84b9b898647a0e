//! The redo log (write-ahead log).
//!
//! InnoDB writes every row change to its redo log before the change reaches
//! a data page; the paper's MySQL insert times include that cost, so ours
//! must too. Each mutation is framed as `[len u32][crc u32][payload]`
//! (payload = table name, primary-key bytes, row image) and appended before
//! the heap/B+tree are touched.
//!
//! The log is truncated at checkpoints — once pages and indexes are
//! persisted the redo entries are redundant, exactly like InnoDB's
//! checkpoint advancing the log's low-water mark.

use crate::error::Result;
use sc_encoding::{Decoder, Encoder, Frames};
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

    /// Replays intact records (diagnostics / tests); a torn tail ends the
    /// replay silently.
    pub fn replay(&self) -> Result<Vec<RedoRecord>> {
        let data = match self.vfs.read_all(&self.file) {
            Ok(d) => d,
            Err(sc_storage::StorageError::NotFound(_)) => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for payload in Frames::new(&data) {
            let mut p = Decoder::new(payload);
            out.push(RedoRecord {
                table: p.get_str()?.to_string(),
                key: p.get_bytes()?.to_vec(),
                row: p.get_bytes()?.to_vec(),
            });
        }
        Ok(out)
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
    fn append_replay_truncate() {
        let log = RedoLog::open(Vfs::memory(), "redo");
        log.append(&rec(1)).unwrap();
        log.append(&rec(2)).unwrap();
        assert!(log.size() > 0);
        assert_eq!(log.replay().unwrap(), vec![rec(1), rec(2)]);
        log.truncate().unwrap();
        assert_eq!(log.size(), 0);
        assert!(log.replay().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let vfs = Vfs::memory();
        let log = RedoLog::open(vfs.clone(), "redo");
        log.append(&rec(1)).unwrap();
        log.append(&rec(2)).unwrap();
        let data = vfs.read_all("redo").unwrap();
        vfs.delete("redo").unwrap();
        vfs.append("redo", &data[..data.len() - 2]).unwrap();
        assert_eq!(log.replay().unwrap(), vec![rec(1)]);
    }
}
