//! Shared, bounded block cache for SSTable data blocks.
//!
//! One [`BlockCache`] is created per engine and threaded through every
//! table's SSTables, so hot blocks are shared across column families and a
//! warm read path never touches the VFS. Entries are keyed by
//! `(file, block offset)` and hold the verified block bytes behind an
//! `Arc`, so a cached block is handed out without copying while an eviction
//! can race a reader safely.
//!
//! Eviction is strict LRU over a byte budget: inserting past the budget
//! evicts least-recently-used blocks until the new block fits. A capacity
//! of zero disables caching entirely (every lookup misses, nothing is
//! retained). SSTable file names are never reused within an engine
//! instance, so deleted files simply age out; a merged-away SSTable still
//! calls [`BlockCache::evict_file`] as it deletes its file, to hand the
//! space back at once.
//!
//! Obs metrics (gated on [`sc_obs::enabled`]): `nosql.block_cache.hit`,
//! `nosql.block_cache.miss`, `nosql.block_cache.evict`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default byte budget for an engine's shared block cache (4 MiB ≈ one
/// thousand 4 KiB blocks).
pub const DEFAULT_BLOCK_CACHE_BYTES: usize = 4 * 1024 * 1024;

/// Cheaply cloneable handle to one shared cache.
#[derive(Debug, Clone)]
pub struct BlockCache {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug)]
struct Slot {
    bytes: Arc<Vec<u8>>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    capacity_bytes: usize,
    resident_bytes: usize,
    tick: u64,
    /// file → block offset → slot.
    files: HashMap<String, HashMap<u64, Slot>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to read the VFS.
    pub misses: u64,
    /// Blocks evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// Blocks currently resident.
    pub blocks: usize,
}

impl BlockCache {
    /// Creates a cache bounded to `capacity_bytes` (0 disables caching).
    pub fn new(capacity_bytes: usize) -> BlockCache {
        BlockCache {
            inner: Arc::new(Mutex::new(Inner {
                capacity_bytes,
                ..Inner::default()
            })),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.lock().capacity_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every update leaves the maps and byte totals consistent, so a
        // panic elsewhere under the lock poisons nothing worth refusing.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up the block at `(file, offset)`, refreshing its recency.
    pub fn get(&self, file: &str, offset: u64) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner
            .files
            .get_mut(file)
            .and_then(|blocks| blocks.get_mut(&offset));
        match slot {
            Some(slot) => {
                slot.last_used = tick;
                let bytes = Arc::clone(&slot.bytes);
                inner.hits += 1;
                if sc_obs::enabled() {
                    crate::obs::nosql().block_cache_hit.inc();
                }
                sc_obs::trace::add(sc_obs::trace::Attr::BlockCacheHits, 1);
                Some(bytes)
            }
            None => {
                inner.misses += 1;
                if sc_obs::enabled() {
                    crate::obs::nosql().block_cache_miss.inc();
                }
                sc_obs::trace::add(sc_obs::trace::Attr::BlockCacheMisses, 1);
                None
            }
        }
    }

    /// Inserts a verified block, evicting LRU blocks to fit. Blocks larger
    /// than the whole budget are not retained.
    pub fn insert(&self, file: &str, offset: u64, bytes: Arc<Vec<u8>>) {
        let len = bytes.len();
        let mut inner = self.lock();
        if len > inner.capacity_bytes {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let slot = Slot {
            bytes,
            last_used: tick,
        };
        let previous = inner
            .files
            .entry(file.to_string())
            .or_default()
            .insert(offset, slot);
        inner.resident_bytes += len;
        if let Some(old) = previous {
            inner.resident_bytes -= old.bytes.len();
        }
        while inner.resident_bytes > inner.capacity_bytes {
            // LRU scan: the cache holds at most a few thousand blocks, so a
            // linear sweep per eviction stays cheap and avoids a second
            // index structure.
            let Some((file, off)) = inner
                .files
                .iter()
                .flat_map(|(f, blocks)| blocks.iter().map(move |(o, s)| (s.last_used, f, *o)))
                .min_by_key(|(used, _, _)| *used)
                .map(|(_, f, o)| (f.clone(), o))
            else {
                break;
            };
            inner.remove(&file, off);
            inner.evictions += 1;
            if sc_obs::enabled() {
                crate::obs::nosql().block_cache_evict.inc();
            }
        }
    }

    /// Drops every cached block of `file` (the file is being deleted).
    pub fn evict_file(&self, file: &str) {
        let mut inner = self.lock();
        if let Some(blocks) = inner.files.remove(file) {
            let freed: usize = blocks.values().map(|s| s.bytes.len()).sum();
            inner.resident_bytes -= freed;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.resident_bytes,
            blocks: inner.files.values().map(HashMap::len).sum(),
        }
    }
}

impl Inner {
    fn remove(&mut self, file: &str, offset: u64) {
        if let Some(blocks) = self.files.get_mut(file) {
            if let Some(slot) = blocks.remove(&offset) {
                self.resident_bytes -= slot.bytes.len();
            }
            if blocks.is_empty() {
                self.files.remove(file);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; n])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = BlockCache::new(1024);
        assert!(cache.get("a", 0).is_none());
        cache.insert("a", 0, block(10, 1));
        assert_eq!(cache.get("a", 0).unwrap().as_slice(), &[1; 10]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, 10);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = BlockCache::new(30);
        cache.insert("f", 0, block(10, 0));
        cache.insert("f", 1, block(10, 1));
        cache.insert("f", 2, block(10, 2));
        // Touch block 0 so block 1 is the LRU victim.
        assert!(cache.get("f", 0).is_some());
        cache.insert("f", 3, block(10, 3));
        assert!(cache.get("f", 0).is_some(), "recently used survives");
        assert!(cache.get("f", 1).is_none(), "LRU block evicted");
        assert!(cache.get("f", 3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= 30);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = BlockCache::new(0);
        cache.insert("f", 0, block(10, 0));
        assert!(cache.get("f", 0).is_none());
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn oversized_block_not_retained() {
        let cache = BlockCache::new(16);
        cache.insert("f", 0, block(64, 0));
        assert!(cache.get("f", 0).is_none());
        assert_eq!(cache.stats().blocks, 0);
    }

    #[test]
    fn evict_file_frees_all_its_blocks() {
        let cache = BlockCache::new(1024);
        cache.insert("a", 0, block(10, 0));
        cache.insert("a", 1, block(10, 1));
        cache.insert("b", 0, block(10, 2));
        cache.evict_file("a");
        assert!(cache.get("a", 0).is_none());
        assert!(cache.get("a", 1).is_none());
        assert!(cache.get("b", 0).is_some());
        assert_eq!(cache.stats().resident_bytes, 10);
    }

    #[test]
    fn reinsert_same_block_keeps_accounting_straight() {
        let cache = BlockCache::new(64);
        cache.insert("f", 0, block(10, 0));
        cache.insert("f", 0, block(20, 1));
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 20);
        assert_eq!(stats.blocks, 1);
        assert_eq!(cache.get("f", 0).unwrap().len(), 20);
    }
}
