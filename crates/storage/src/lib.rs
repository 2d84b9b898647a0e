//! # sc-storage
//!
//! A minimal virtual file system shared by the NoSQL and relational engines.
//!
//! Both engines measure the paper's `size_as_mb` (Table 4) from **real
//! serialized bytes**; this crate gives them a common place to put those
//! bytes. Two backends are provided:
//!
//! * [`Vfs::memory`] — an in-memory file map. Fast and hermetic; the default
//!   for tests and benchmarks (the byte counts are identical to the disk
//!   backend's).
//! * [`Vfs::disk`] — real files under a root directory, for examples and
//!   anyone who wants to inspect SSTables/heap files on disk.
//!
//! The API is deliberately tiny: append-only writes plus positioned reads,
//! which is all a commit log, SSTable or heap file needs.
//!
//! A third backend, [`Vfs::with_faults`], wraps any other VFS with
//! deterministic fault injection (torn appends, lost deletes) for
//! crash-recovery testing; see the [`fault`] module.

pub mod fault;
mod obs;

pub use fault::{FaultHandle, FaultOp};

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
// A poisoned file-map lock is taken over with `into_inner`: every update
// under it is one map operation that leaves the map valid, so a thread that
// panicked holding it must not turn every later VFS call into a panic.
use std::sync::{Mutex, PoisonError};

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// The named file does not exist.
    NotFound(String),
    /// A read went past the end of the file.
    ShortRead {
        /// File name.
        file: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
    },
    /// An underlying I/O error (disk backend).
    Io(std::io::Error),
    /// A fault injected by [`Vfs::with_faults`]: the simulated process
    /// "crashed" at mutating operation `op` (power loss). Every later
    /// mutating operation on the same VFS also fails with this error.
    Injected {
        /// Index of the mutating operation the crash was injected at.
        op: u64,
        /// File the failed operation targeted.
        file: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(name) => write!(f, "file not found: {name}"),
            StorageError::ShortRead { file, offset, len } => {
                write!(f, "short read: {file} at {offset} (+{len})")
            }
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Injected { op, file } => {
                write!(f, "injected crash at op {op} ({file})")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[derive(Debug)]
enum Backend {
    Memory(Mutex<BTreeMap<String, Vec<u8>>>),
    Disk(PathBuf),
    Fault(fault::FaultState),
}

/// A handle to a file namespace. Cheap to clone (shared).
#[derive(Debug, Clone)]
pub struct Vfs {
    backend: Arc<Backend>,
}

impl Vfs {
    /// Creates an in-memory VFS.
    pub fn memory() -> Vfs {
        Vfs {
            backend: Arc::new(Backend::Memory(Mutex::new(BTreeMap::new()))),
        }
    }

    /// Creates a disk-backed VFS rooted at `root` (created if missing).
    pub fn disk(root: impl Into<PathBuf>) -> Result<Vfs> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Vfs {
            backend: Arc::new(Backend::Disk(root)),
        })
    }

    /// Wraps `inner` with deterministic fault injection seeded by `seed`.
    ///
    /// Returns the wrapping VFS plus a [`FaultHandle`] used to arm a crash
    /// point and inspect the op trace. Reads pass through; mutating
    /// operations (`append`, `delete`, `truncate`) are counted and can be
    /// made to fail. See the [`fault`] module docs for the fault model.
    pub fn with_faults(inner: Vfs, seed: u64) -> (Vfs, FaultHandle) {
        let (state, handle) = fault::FaultState::new(inner, seed);
        (
            Vfs {
                backend: Arc::new(Backend::Fault(state)),
            },
            handle,
        )
    }

    fn disk_path(root: &Path, name: &str) -> PathBuf {
        // File names may contain '/' separators; map them to subdirectories.
        root.join(name)
    }

    /// Appends `data` to `name`, creating it if missing. Returns the offset
    /// the data was written at.
    pub fn append(&self, name: &str, data: &[u8]) -> Result<u64> {
        // Only the Memory/Disk leaf arms record I/O metrics: the fault
        // backend re-enters this method on its wrapped VFS, whose leaf arm
        // then counts the operation exactly once.
        match &*self.backend {
            Backend::Memory(files) => {
                self.record_append(data.len());
                let mut files = files.lock().unwrap_or_else(PoisonError::into_inner);
                let file = files.entry(name.to_string()).or_default();
                let offset = file.len() as u64;
                file.extend_from_slice(data);
                Ok(offset)
            }
            Backend::Disk(root) => {
                self.record_append(data.len());
                let path = Self::disk_path(root, name);
                if let Some(parent) = path.parent() {
                    fs::create_dir_all(parent)?;
                }
                let mut f = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?;
                let offset = f.seek(SeekFrom::End(0))?;
                f.write_all(data)?;
                Ok(offset)
            }
            Backend::Fault(state) => state.append(name, data),
        }
    }

    fn record_append(&self, len: usize) {
        if sc_obs::enabled() {
            let o = obs::vfs();
            o.append_ops.inc();
            o.append_bytes.add(len as u64);
        }
        sc_obs::trace::add(sc_obs::trace::Attr::VfsWriteBytes, len as u64);
    }

    fn record_read(&self, len: usize) {
        if sc_obs::enabled() {
            let o = obs::vfs();
            o.read_ops.inc();
            o.read_bytes.add(len as u64);
        }
        sc_obs::trace::add(sc_obs::trace::Attr::VfsReadBytes, len as u64);
    }

    /// Reads `len` bytes at `offset` from `name`.
    pub fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        match &*self.backend {
            Backend::Memory(files) => {
                self.record_read(len);
                let files = files.lock().unwrap_or_else(PoisonError::into_inner);
                let file = files
                    .get(name)
                    .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
                let start = offset as usize;
                let end = start.checked_add(len).filter(|&e| e <= file.len());
                match end {
                    Some(end) => Ok(file[start..end].to_vec()),
                    None => Err(StorageError::ShortRead {
                        file: name.to_string(),
                        offset,
                        len,
                    }),
                }
            }
            Backend::Disk(root) => {
                self.record_read(len);
                let path = Self::disk_path(root, name);
                let mut f =
                    fs::File::open(&path).map_err(|_| StorageError::NotFound(name.to_string()))?;
                f.seek(SeekFrom::Start(offset))?;
                let mut buf = vec![0u8; len];
                f.read_exact(&mut buf)
                    .map_err(|_| StorageError::ShortRead {
                        file: name.to_string(),
                        offset,
                        len,
                    })?;
                Ok(buf)
            }
            Backend::Fault(state) => state.inner().read_at(name, offset, len),
        }
    }

    /// Reads the whole file.
    pub fn read_all(&self, name: &str) -> Result<Vec<u8>> {
        let len = self.len(name)?;
        self.read_at(name, 0, len as usize)
    }

    /// Length of `name` in bytes.
    pub fn len(&self, name: &str) -> Result<u64> {
        match &*self.backend {
            Backend::Memory(files) => files
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(name)
                .map(|f| f.len() as u64)
                .ok_or_else(|| StorageError::NotFound(name.to_string())),
            Backend::Disk(root) => {
                let path = Self::disk_path(root, name);
                Ok(fs::metadata(&path)
                    .map_err(|_| StorageError::NotFound(name.to_string()))?
                    .len())
            }
            Backend::Fault(state) => state.inner().len(name),
        }
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.len(name).is_ok()
    }

    /// Deletes `name` (idempotent).
    pub fn delete(&self, name: &str) -> Result<()> {
        match &*self.backend {
            Backend::Memory(files) => {
                if sc_obs::enabled() {
                    obs::vfs().delete_ops.inc();
                }
                files
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(name);
                Ok(())
            }
            Backend::Disk(root) => {
                if sc_obs::enabled() {
                    obs::vfs().delete_ops.inc();
                }
                let path = Self::disk_path(root, name);
                match fs::remove_file(path) {
                    Ok(()) => Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(e.into()),
                }
            }
            Backend::Fault(state) => state.delete(name),
        }
    }

    /// Truncates `name` to `len` bytes. A `len` at or past the current end
    /// is a no-op; a missing file is `NotFound`.
    pub fn truncate(&self, name: &str, len: u64) -> Result<()> {
        match &*self.backend {
            Backend::Memory(files) => {
                if sc_obs::enabled() {
                    obs::vfs().truncate_ops.inc();
                }
                let mut files = files.lock().unwrap_or_else(PoisonError::into_inner);
                let file = files
                    .get_mut(name)
                    .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
                if (len as usize) < file.len() {
                    file.truncate(len as usize);
                }
                Ok(())
            }
            Backend::Disk(root) => {
                if sc_obs::enabled() {
                    obs::vfs().truncate_ops.inc();
                }
                let path = Self::disk_path(root, name);
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|_| StorageError::NotFound(name.to_string()))?;
                if f.metadata()?.len() > len {
                    f.set_len(len)?;
                }
                Ok(())
            }
            Backend::Fault(state) => state.truncate(name, len),
        }
    }

    /// Lists files whose names start with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Result<Vec<String>> {
        match &*self.backend {
            Backend::Memory(files) => Ok(files
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .keys()
                .filter(|k| k.starts_with(prefix))
                .cloned()
                .collect()),
            Backend::Disk(root) => {
                let mut out = Vec::new();
                fn walk(
                    dir: &Path,
                    root: &Path,
                    prefix: &str,
                    out: &mut Vec<String>,
                ) -> Result<()> {
                    if !dir.exists() {
                        return Ok(());
                    }
                    for entry in fs::read_dir(dir)? {
                        let entry = entry?;
                        let path = entry.path();
                        if path.is_dir() {
                            walk(&path, root, prefix, out)?;
                        } else if let Ok(rel) = path.strip_prefix(root) {
                            let name = rel.to_string_lossy().replace('\\', "/");
                            if name.starts_with(prefix) {
                                out.push(name);
                            }
                        }
                    }
                    Ok(())
                }
                walk(root, root, prefix, &mut out)?;
                out.sort();
                Ok(out)
            }
            Backend::Fault(state) => state.inner().list(prefix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(vfs: Vfs) {
        assert!(!vfs.exists("a/log"));
        assert_eq!(vfs.append("a/log", b"hello").unwrap(), 0);
        assert_eq!(vfs.append("a/log", b" world").unwrap(), 5);
        assert_eq!(vfs.len("a/log").unwrap(), 11);
        assert_eq!(vfs.read_at("a/log", 6, 5).unwrap(), b"world");
        assert_eq!(vfs.read_all("a/log").unwrap(), b"hello world");
        assert!(matches!(
            vfs.read_at("a/log", 8, 10),
            Err(StorageError::ShortRead { .. })
        ));
        assert!(matches!(
            vfs.read_all("missing"),
            Err(StorageError::NotFound(_))
        ));
        vfs.append("a/other", b"x").unwrap();
        vfs.append("b/log", b"yy").unwrap();
        assert_eq!(vfs.list("a/").unwrap(), vec!["a/log", "a/other"]);
        vfs.delete("a/other").unwrap();
        assert!(!vfs.exists("a/other"));
        vfs.delete("a/other").unwrap(); // idempotent
    }

    #[test]
    fn memory_backend() {
        exercise(Vfs::memory());
    }

    #[test]
    fn disk_backend() {
        let dir = std::env::temp_dir().join(format!("sc-storage-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        exercise(Vfs::disk(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backends_agree_on_sizes() {
        let mem = Vfs::memory();
        let dir = std::env::temp_dir().join(format!("sc-storage-size-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let disk = Vfs::disk(&dir).unwrap();
        for i in 0..10 {
            let data = vec![i as u8; (i * 37) % 100 + 1];
            mem.append("f", &data).unwrap();
            disk.append("f", &data).unwrap();
        }
        assert_eq!(mem.len("f").unwrap(), disk.len("f").unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panic_holding_the_file_map_lock_leaves_the_vfs_working() {
        let vfs = Vfs::memory();
        vfs.append("f", b"before").unwrap();
        let Backend::Memory(files) = &*vfs.backend else {
            unreachable!("a memory VFS")
        };
        let panicked = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = files.lock().unwrap();
                panic!("a thread dies holding the file map");
            });
            holder.join().is_err()
        });
        assert!(panicked && files.is_poisoned());
        vfs.append("f", b" after").unwrap();
        assert_eq!(vfs.read_all("f").unwrap(), b"before after");
        assert_eq!(vfs.list("").unwrap(), ["f"]);
        vfs.truncate("f", 6).unwrap();
        assert_eq!(vfs.len("f").unwrap(), 6);
        vfs.delete("f").unwrap();
        assert!(!vfs.exists("f"));
    }

    #[test]
    fn clones_share_state() {
        let a = Vfs::memory();
        let b = a.clone();
        a.append("x", b"1").unwrap();
        assert_eq!(b.read_all("x").unwrap(), b"1");
    }
}
