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
//! evicts least-recently-used blocks until the new block fits. A block a
//! key probe read goes in as the most recently used
//! ([`BlockCache::insert`]); one a scan or a merge read goes in at the
//! least recently used end ([`BlockCache::insert_cold`]), so a sequential
//! pass over more than the budget cycles through one slot at the cold end
//! instead of flushing the cache: the blocks it found room for stay for
//! the next pass, and the blocks probes made hot stay for the probes. A
//! hit refreshes a block however it came in. A capacity
//! of zero disables caching entirely (every lookup misses, nothing is
//! retained). SSTable file names are never reused within an engine
//! instance, so deleted files simply age out; a merged-away SSTable still
//! calls [`BlockCache::evict_file`] as it deletes its file, to hand the
//! space back at once.
//!
//! Every operation is O(1) in the number of resident blocks
//! ([`BlockCache::evict_file`]: in the file's blocks): an index maps
//! `(file, offset)` to a slot of a slab, and the slots form a doubly linked
//! recency list through slab indices — a hit moves its slot to the front,
//! an eviction pops the back.
//!
//! Obs metrics (gated on [`sc_obs::enabled`]): `nosql.block_cache.hit`,
//! `nosql.block_cache.miss`, `nosql.block_cache.evict`.

use sc_encoding::FnvHashMap;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default byte budget for an engine's shared block cache (4 MiB ≈ one
/// thousand 4 KiB blocks).
pub const DEFAULT_BLOCK_CACHE_BYTES: usize = 4 * 1024 * 1024;

/// No slot: the end of the recency list.
const NIL: usize = usize::MAX;

/// Cheaply cloneable handle to one shared cache.
#[derive(Debug, Clone)]
pub struct BlockCache {
    inner: Arc<Mutex<Inner>>,
}

/// One resident block.
#[derive(Debug)]
struct Slot {
    file: Arc<str>,
    offset: u64,
    bytes: Arc<Vec<u8>>,
}

/// A slab index's neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Toward the most recently used end.
    newer: usize,
    /// Toward the least recently used end.
    older: usize,
}

#[derive(Debug, Default)]
struct Inner {
    capacity_bytes: usize,
    resident_bytes: usize,
    /// file → block offset → slab index (FNV for the integer offsets).
    index: HashMap<Arc<str>, FnvHashMap<u64, usize>>,
    /// Resident blocks by slab index; `None` marks a vacant index, listed
    /// in `vacant` for reuse.
    slots: Vec<Option<Slot>>,
    links: Vec<Link>,
    vacant: Vec<usize>,
    /// Most and least recently used slab indices (`NIL` when empty).
    newest: usize,
    oldest: usize,
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
                newest: NIL,
                oldest: NIL,
                ..Inner::default()
            })),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.lock().capacity_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // No update panics part-way through (they index only slab slots
        // the index and list hand them), so a panic elsewhere under the
        // lock poisons nothing worth refusing.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up the block at `(file, offset)`, refreshing its recency.
    pub fn get(&self, file: &str, offset: u64) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.lock();
        let hit = inner.slot_of(file, offset).and_then(|i| {
            inner.touch(i);
            inner.slots[i].as_ref().map(|s| Arc::clone(&s.bytes))
        });
        match hit {
            Some(bytes) => {
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

    /// Inserts a verified block as the most recently used, evicting LRU
    /// blocks to fit. Blocks larger than the whole budget are not retained.
    pub fn insert(&self, file: &str, offset: u64, bytes: Arc<Vec<u8>>) {
        self.put(file, offset, bytes, false);
    }

    /// [`BlockCache::insert`] at the least recently used end: the block
    /// is the next to go unless a hit refreshes it first.
    pub fn insert_cold(&self, file: &str, offset: u64, bytes: Arc<Vec<u8>>) {
        self.put(file, offset, bytes, true);
    }

    /// Replaces any resident copy of the block, evicts LRU blocks until it
    /// fits, then links it at the cold or the hot end.
    fn put(&self, file: &str, offset: u64, bytes: Arc<Vec<u8>>, cold: bool) {
        let len = bytes.len();
        let mut guard = self.lock();
        let inner = &mut *guard;
        if len > inner.capacity_bytes {
            return;
        }
        if let Some(i) = inner.slot_of(file, offset) {
            inner.remove(i);
        }
        while inner.resident_bytes + len > inner.capacity_bytes && inner.remove(inner.oldest) {
            inner.evictions += 1;
            if sc_obs::enabled() {
                crate::obs::nosql().block_cache_evict.inc();
            }
        }
        inner.push_new(file, offset, bytes, cold);
    }

    /// Drops every cached block of `file` (the file is being deleted).
    pub fn evict_file(&self, file: &str) {
        let mut inner = self.lock();
        if let Some(blocks) = inner.index.remove(file) {
            for &i in blocks.values() {
                inner.vacate(i);
            }
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
            blocks: inner.slots.len() - inner.vacant.len(),
        }
    }
}

impl Inner {
    fn slot_of(&self, file: &str, offset: u64) -> Option<usize> {
        self.index.get(file)?.get(&offset).copied()
    }

    /// Takes slab index `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let Link { newer, older } = self.links[i];
        match newer {
            NIL => self.newest = older,
            n => self.links[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.links[o].newer = newer,
        }
    }

    /// Puts slab index `i` at the least recently used end.
    fn link_oldest(&mut self, i: usize) {
        self.links[i] = Link {
            newer: self.oldest,
            older: NIL,
        };
        match self.oldest {
            NIL => self.newest = i,
            o => self.links[o].older = i,
        }
        self.oldest = i;
    }

    /// Puts slab index `i` at the most recently used end.
    fn link_newest(&mut self, i: usize) {
        self.links[i] = Link {
            newer: NIL,
            older: self.newest,
        };
        match self.newest {
            NIL => self.oldest = i,
            n => self.links[n].newer = i,
        }
        self.newest = i;
    }

    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.link_newest(i);
        }
    }

    /// Stores a block not yet resident, as the least recently used when
    /// `cold`, else as the most.
    fn push_new(&mut self, file: &str, offset: u64, bytes: Arc<Vec<u8>>, cold: bool) {
        let file = match self.index.get_key_value(file) {
            Some((name, _)) => Arc::clone(name),
            None => Arc::from(file),
        };
        let i = self.vacant.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.links.push(Link {
                newer: NIL,
                older: NIL,
            });
            self.slots.len() - 1
        });
        self.index
            .entry(Arc::clone(&file))
            .or_default()
            .insert(offset, i);
        self.resident_bytes += bytes.len();
        self.slots[i] = Some(Slot {
            file,
            offset,
            bytes,
        });
        match cold {
            true => self.link_oldest(i),
            false => self.link_newest(i),
        }
    }

    /// Frees slab index `i` without touching the index; returns its block.
    fn vacate(&mut self, i: usize) -> Option<Slot> {
        let slot = self.slots[i].take()?;
        self.unlink(i);
        self.vacant.push(i);
        self.resident_bytes -= slot.bytes.len();
        Some(slot)
    }

    /// Frees slab index `i` and forgets its key; `false` when `i` is
    /// [`NIL`] or vacant.
    fn remove(&mut self, i: usize) -> bool {
        if i == NIL {
            return false;
        }
        let Some(slot) = self.vacate(i) else {
            return false;
        };
        if let Some(blocks) = self.index.get_mut(&*slot.file) {
            blocks.remove(&slot.offset);
            if blocks.is_empty() {
                self.index.remove(&*slot.file);
            }
        }
        true
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

    /// The obviously correct LRU: resident blocks in a `Vec`, least
    /// recently used first, every operation a linear search.
    struct ModelLru {
        capacity_bytes: usize,
        blocks: Vec<(String, u64, Arc<Vec<u8>>)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ModelLru {
        fn get(&mut self, file: &str, offset: u64) -> Option<Arc<Vec<u8>>> {
            match self
                .blocks
                .iter()
                .position(|b| b.0 == file && b.1 == offset)
            {
                Some(p) => {
                    let b = self.blocks.remove(p);
                    let bytes = Arc::clone(&b.2);
                    self.blocks.push(b);
                    self.hits += 1;
                    Some(bytes)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn resident_bytes(&self) -> usize {
            self.blocks.iter().map(|b| b.2.len()).sum()
        }

        /// Evicts to make room first, then places the block at the cold
        /// or the hot end.
        fn insert(&mut self, file: &str, offset: u64, bytes: Arc<Vec<u8>>, cold: bool) {
            if bytes.len() > self.capacity_bytes {
                return;
            }
            self.blocks.retain(|b| !(b.0 == file && b.1 == offset));
            while self.resident_bytes() + bytes.len() > self.capacity_bytes {
                self.blocks.remove(0);
                self.evictions += 1;
            }
            let at = if cold { 0 } else { self.blocks.len() };
            self.blocks.insert(at, (file.to_string(), offset, bytes));
        }

        fn evict_file(&mut self, file: &str) {
            self.blocks.retain(|b| b.0 != file);
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                hits: self.hits,
                misses: self.misses,
                evictions: self.evictions,
                resident_bytes: self.resident_bytes(),
                blocks: self.blocks.len(),
            }
        }
    }

    #[test]
    fn cold_inserts_go_first_and_hits_refresh_them() {
        let cache = BlockCache::new(30);
        cache.insert("f", 0, block(10, 0));
        cache.insert_cold("f", 1, block(10, 1));
        cache.insert_cold("f", 2, block(10, 2));
        // Full: a cold block evicts the coldest (2) and takes its place.
        cache.insert_cold("f", 3, block(10, 3));
        assert!(cache.get("f", 2).is_none(), "the previous cold block went");
        // A hit refreshes 3, so 1 is now the coldest.
        assert!(cache.get("f", 3).is_some());
        cache.insert_cold("f", 4, block(10, 4));
        assert!(cache.get("f", 1).is_none(), "the coldest went");
        for offset in [0, 3, 4] {
            assert!(cache.get("f", offset).is_some(), "block {offset} stays");
        }
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn matches_a_naive_lru_model() {
        const FILES: [&str; 4] = ["ks/t/sst-1", "ks/t/sst-2", "ks/u/sst-1", "ks/u/sst-9"];
        let mut rng = sc_encoding::Rng::new(0xB10C);
        for capacity_bytes in [0, 1, 64, 300, 900] {
            let cache = BlockCache::new(capacity_bytes);
            let mut model = ModelLru {
                capacity_bytes,
                blocks: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            };
            let mut fill = 0u8;
            for step in 0..4_000 {
                let file = *rng.choice(&FILES);
                let offset = rng.gen_range(12);
                fill = fill.wrapping_add(1);
                let op = rng.gen_range(100);
                let cold = rng.gen_bool(0.5);
                let insert = |file: &str, offset: u64, bytes: &Arc<Vec<u8>>| match cold {
                    true => cache.insert_cold(file, offset, Arc::clone(bytes)),
                    false => cache.insert(file, offset, Arc::clone(bytes)),
                };
                match op {
                    0..=44 => {
                        let (got, want) = (cache.get(file, offset), model.get(file, offset));
                        assert_eq!(got, want, "step {step}: get({file}, {offset})");
                    }
                    45..=79 => {
                        let bytes = block(1 + rng.gen_range(60) as usize, fill);
                        insert(file, offset, &bytes);
                        model.insert(file, offset, bytes, cold);
                    }
                    80..=89 => {
                        // Re-insert a resident block at a new size.
                        if !model.blocks.is_empty() {
                            let pick = rng.gen_range(model.blocks.len() as u64) as usize;
                            let (f, o, _) = model.blocks[pick].clone();
                            let bytes = block(1 + rng.gen_range(60) as usize, fill);
                            insert(&f, o, &bytes);
                            model.insert(&f, o, bytes, cold);
                        }
                    }
                    90..=94 => {
                        let bytes = block(capacity_bytes + 1 + rng.gen_range(8) as usize, fill);
                        insert(file, offset, &bytes);
                        model.insert(file, offset, bytes, cold);
                    }
                    _ => {
                        cache.evict_file(file);
                        model.evict_file(file);
                    }
                }
                assert_eq!(
                    cache.stats(),
                    model.stats(),
                    "capacity {capacity_bytes}, step {step}, op {op}"
                );
            }
            let stats = cache.stats();
            if capacity_bytes >= 300 {
                assert!(
                    stats.hits > 0 && stats.evictions > 0 && stats.blocks > 0,
                    "the sequence exercised hits, evictions and residency: {stats:?}"
                );
            }
        }
    }
}
