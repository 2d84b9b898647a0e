//! FNV-sharded, multi-versioned in-memory write buffer.
//!
//! The memtable is split into [`SHARD_COUNT`] shards, each guarded by its
//! own mutex; a key's shard is chosen by FNV-1a hash, so concurrent writers
//! to different keys almost never contend. Within a shard each key maps to
//! a **version chain**: a vector of [`Version`]s sorted newest-first by
//! MVCC sequence number.
//!
//! Every version records the sequence of the version that *shadowed* it
//! (`u64::MAX` while it is the key's newest write anywhere in the engine).
//! The shadow sequence drives two decisions:
//!
//! - **Garbage collection.** A shadowed version may be dropped once its
//!   shadow is at or below the engine's GC floor — the minimum of the
//!   visible watermark and the oldest pinned read bound — because every
//!   current and future reader will then see the newer version instead.
//! - **Read short-circuiting.** A point read that lands on a version whose
//!   chain is intact above it (every newer link present in the shard, the
//!   newest unshadowed) knows no frozen run or SSTable can hold anything
//!   newer, and skips the disk entirely. This keeps the warm-read
//!   "0 SSTables consulted" property of the single-threaded engine.
//!
//! Flushing is two-phase: [`ShardedMemtable::drain_up_to`] removes, per
//! key, the newest version at or below the flush boundary (always a fully
//! committed sequence) and returns the drained entries for the caller to
//! publish as a frozen run while the SSTable is written. Older versions
//! that a pinned snapshot might still need stay behind in the shard.

use crate::row::Row;
use crate::sstable::SstEntry;
use sc_encoding::Encoder;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of memtable shards. A small power of two: enough to make
/// same-shard collisions rare for the session counts the server sees,
/// small enough that draining every shard for a flush stays cheap.
pub(crate) const SHARD_COUNT: usize = 16;

/// One MVCC version of a row. `row == None` is a tombstone.
#[derive(Debug, Clone)]
pub(crate) struct Version {
    /// MVCC sequence number of the write that produced this version.
    pub seq: u64,
    /// The row body, or `None` for a delete.
    pub row: Option<Row>,
    /// Sequence of the next-newer version of this key anywhere in the
    /// engine, or `u64::MAX` while this is the newest.
    pub shadow: u64,
    /// Approximate heap cost charged against the flush threshold.
    pub cost: usize,
}

/// A point-read hit from the memtable.
#[derive(Debug)]
pub(crate) struct MemHit {
    pub row: Option<Row>,
    pub seq: u64,
    /// True when the chain above the hit is complete in the shard: no
    /// frozen run or SSTable can hold a newer version, so the caller may
    /// skip them.
    pub definitive: bool,
}

#[derive(Debug, Default)]
struct Shard {
    entries: BTreeMap<Vec<u8>, Vec<Version>>,
}

/// The sharded memtable. All methods take `&self`; synchronization is one
/// mutex per shard plus a relaxed byte counter.
#[derive(Debug)]
pub(crate) struct ShardedMemtable {
    shards: Box<[Mutex<Shard>]>,
    bytes: AtomicUsize,
}

fn fnv1a(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl ShardedMemtable {
    pub fn new() -> ShardedMemtable {
        let shards = (0..SHARD_COUNT)
            .map(|_| Mutex::new(Shard::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedMemtable {
            shards,
            bytes: AtomicUsize::new(0),
        }
    }

    fn shard_for(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Inserts a version and garbage-collects the key's chain.
    ///
    /// `gc_floor` must be `min(visible watermark, oldest pinned bound)` at
    /// call time; versions whose shadow is at or below it are unreachable
    /// by every current and future reader and are dropped.
    pub fn put(&self, key: Vec<u8>, row: Option<Row>, seq: u64, cost: usize, gc_floor: u64) {
        let mut shard = self
            .shard_for(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let versions = shard.entries.entry(key).or_default();
        insert_version(
            versions,
            Version {
                seq,
                row,
                shadow: u64::MAX,
                cost,
            },
        );
        self.bytes.fetch_add(cost, Ordering::Relaxed);
        let freed = gc_chain(versions, gc_floor);
        if freed > 0 {
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    /// Newest version of `key` at or below `bound`, if the shard holds one.
    pub fn get(&self, key: &[u8], bound: u64) -> Option<MemHit> {
        let shard = self
            .shard_for(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let versions = shard.entries.get(key)?;
        let mut chained = true;
        let mut expected_shadow = u64::MAX;
        for v in versions {
            if v.shadow != expected_shadow {
                // A newer version of this key was flushed out of the shard.
                chained = false;
            }
            if v.seq <= bound {
                return Some(MemHit {
                    row: v.row.clone(),
                    seq: v.seq,
                    definitive: chained,
                });
            }
            expected_shadow = v.seq;
        }
        None
    }

    /// The memtable's layer of a merging cursor: per key starting with
    /// `prefix` (`None` = all), the newest version at or below `bound`,
    /// tombstones included, sorted by key.
    ///
    /// A version whose shadow is itself at or below `bound` is left out:
    /// its successor was flushed and wins anyway — unless that successor
    /// is a tombstone a compaction drops between this call and the
    /// cursor's look at the SSTable list, in which case emitting the stale
    /// version would resurrect the row.
    pub fn snapshot(&self, bound: u64, prefix: Option<&[u8]>) -> Vec<SstEntry> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (key, versions) in &shard.entries {
                if prefix.is_some_and(|p| !key.starts_with(p)) {
                    continue;
                }
                let newest = versions.iter().find(|v| v.seq <= bound);
                if let Some(v) = newest.filter(|v| v.shadow == u64::MAX || v.shadow > bound) {
                    out.push(SstEntry {
                        key: key.clone(),
                        row: v.row.clone(),
                        timestamp: v.seq,
                    });
                }
            }
        }
        out.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Approximate bytes buffered across all shards.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of keys with at least one buffered version (planner row
    /// estimates, test observability).
    pub fn key_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Flush phase zero: the entries [`ShardedMemtable::drain_up_to`]
    /// would remove at `boundary`, cloned without removing anything. The
    /// flush publishes these as the frozen run *first* and only then
    /// drains, so every acked version is findable in at least one layer at
    /// every instant. Draining before publishing had a window — after a
    /// shard gave up its versions, before the frozen run appeared — where
    /// a concurrent point read fell through every layer and served an
    /// *older* version of an acknowledged write.
    ///
    /// A version committed between the peek and the drain has a sequence
    /// above `boundary` (the visible watermark at flush start), so it can
    /// shadow a peeked version but never changes the peeked set itself;
    /// the drain then leaves the newly-shadowed version in its shard,
    /// which is merely a duplicate of what the frozen run (and then the
    /// SSTable) already serves.
    pub fn peek_up_to(&self, boundary: u64) -> BTreeMap<Vec<u8>, (Option<Row>, u64)> {
        let mut staged = BTreeMap::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (key, versions) in &shard.entries {
                if let Some(v) = versions.iter().find(|v| v.seq <= boundary) {
                    if v.shadow == u64::MAX {
                        staged.insert(key.clone(), (v.row.clone(), v.seq));
                    }
                }
            }
        }
        staged
    }

    /// Flush phase one: removes, per key, the newest version at or below
    /// `boundary` (the visible watermark at flush start, so every drained
    /// sequence is fully committed) — but only when that version is the
    /// key's **globally newest** (`shadow == u64::MAX`). Returns the
    /// drained entries sorted by key.
    ///
    /// The globally-newest restriction is what keeps per-key sequence
    /// order monotone across SSTable age order: a shadowed version never
    /// reaches disk (its shadow already has, or will first), so a
    /// newest-SSTable-first read can stop at its first hit. Shadowed
    /// versions exist only to serve pinned readers and die in memory when
    /// the GC floor passes their shadow; the WAL, not the SSTable, is
    /// their durability story. Older retained versions are GC'd against
    /// `gc_floor` on the way through; empty chains are dropped.
    pub fn drain_up_to(
        &self,
        boundary: u64,
        gc_floor: u64,
    ) -> BTreeMap<Vec<u8>, (Option<Row>, u64)> {
        let mut drained = BTreeMap::new();
        let mut freed = 0usize;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.entries.retain(|key, versions| {
                if let Some(pos) = versions.iter().position(|v| v.seq <= boundary) {
                    if versions[pos].shadow == u64::MAX {
                        let v = versions.remove(pos);
                        freed += v.cost;
                        drained.insert(key.clone(), (v.row, v.seq));
                    }
                }
                freed += gc_chain(versions, gc_floor);
                !versions.is_empty()
            });
        }
        if freed > 0 {
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        drained
    }

    /// Garbage-collects every shard against `floor`: versions shadowed at
    /// or below it are unreachable by every current and future reader and
    /// are dropped; emptied chains disappear.
    ///
    /// Chain GC is otherwise lazy (it runs when a key is touched by a put
    /// or a drain), so a snapshot-retained version can outlive its
    /// snapshot indefinitely. Tombstone-dropping compaction runs this
    /// eagerly first: a stale live version left behind a flushed tombstone
    /// would otherwise resurface once the tombstone leaves the SSTables.
    pub fn gc(&self, floor: u64) {
        let mut freed = 0usize;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.entries.retain(|_, versions| {
                freed += gc_chain(versions, floor);
                !versions.is_empty()
            });
        }
        if freed > 0 {
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    /// Flush undo: re-inserts entries drained by
    /// [`ShardedMemtable::drain_up_to`] after a failed SSTable write, so
    /// the data stays readable and a later flush can retry. Shadow links
    /// are recomputed from the chain neighbors.
    pub fn reinsert(&self, entries: BTreeMap<Vec<u8>, (Option<Row>, u64)>) {
        let mut scratch = Encoder::new();
        for (key, (row, seq)) in entries {
            let cost = key.len() + row.as_ref().map_or(1, |r| r.encoded_size(&mut scratch));
            self.put(key, row, seq, cost, 0);
        }
    }
}

/// Inserts `v` into a newest-first chain, fixing up the shadow links of
/// the inserted version and its older neighbor. Replaces in place when the
/// sequence is already present (idempotent WAL replay).
fn insert_version(versions: &mut Vec<Version>, mut v: Version) {
    let pos = versions.partition_point(|existing| existing.seq > v.seq);
    if let Some(existing) = versions.get_mut(pos) {
        if existing.seq == v.seq {
            v.shadow = existing.shadow;
            v.cost = existing.cost;
            *existing = v;
            return;
        }
    }
    v.shadow = if pos == 0 {
        u64::MAX
    } else {
        versions[pos - 1].seq
    };
    if let Some(older) = versions.get_mut(pos) {
        // Only claim the older neighbor if it was unshadowed: a non-MAX
        // shadow means a version between the two already exists elsewhere
        // (flushed), and repointing it would make a bound below that
        // flushed sequence wrongly treat the chain as complete.
        if older.shadow == u64::MAX {
            older.shadow = v.seq;
        }
    }
    versions.insert(pos, v);
}

/// Drops chain versions unreachable by every current and future reader:
/// those shadowed at or below `gc_floor`. Returns the freed cost.
fn gc_chain(versions: &mut Vec<Version>, gc_floor: u64) -> usize {
    let mut freed = 0;
    versions.retain(|v| {
        if v.shadow != u64::MAX && v.shadow <= gc_floor {
            freed += v.cost;
            false
        } else {
            true
        }
    });
    freed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CqlValue;

    fn row(v: i64) -> Row {
        Row::new(vec![CqlValue::Int(v)])
    }

    fn put(m: &ShardedMemtable, key: &[u8], v: i64, seq: u64, gc_floor: u64) {
        m.put(key.to_vec(), Some(row(v)), seq, 8, gc_floor);
    }

    #[test]
    fn reads_respect_the_bound() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 5, 0);
        put(&m, b"k", 2, 9, 0);
        assert!(m.get(b"k", 4).is_none(), "nothing visible below seq 5");
        let hit = m.get(b"k", 5).unwrap();
        assert_eq!(hit.seq, 5);
        assert_eq!(hit.row.unwrap(), row(1));
        let hit = m.get(b"k", u64::MAX).unwrap();
        assert_eq!(hit.seq, 9);
        assert!(hit.definitive, "intact chain short-circuits");
    }

    #[test]
    fn out_of_order_insert_fixes_shadow_links() {
        let m = ShardedMemtable::new();
        // Two writers race: the higher sequence reaches the shard first.
        put(&m, b"k", 2, 9, 0);
        put(&m, b"k", 1, 5, 0);
        let hit = m.get(b"k", 5).unwrap();
        assert_eq!(hit.seq, 5);
        assert!(
            hit.definitive,
            "chain 9→5 is intact, nothing can be newer elsewhere"
        );
    }

    #[test]
    fn gc_drops_versions_below_the_floor() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 5, 0);
        // Floor 9 ≥ shadow (9) of the old version: it is unreachable.
        put(&m, b"k", 2, 9, 9);
        assert!(m.get(b"k", 5).is_none(), "seq-5 version was GC'd");
        assert!(m.get(b"k", u64::MAX).is_some());
    }

    #[test]
    fn gc_keeps_versions_a_pinned_reader_needs() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 5, 0);
        // A reader is pinned at bound 7 (< shadow 9): keep the old version.
        put(&m, b"k", 2, 9, 7);
        let hit = m.get(b"k", 7).unwrap();
        assert_eq!(hit.seq, 5);
        assert_eq!(hit.row.unwrap(), row(1));
    }

    #[test]
    fn drain_takes_committed_versions_and_leaves_the_rest() {
        let m = ShardedMemtable::new();
        put(&m, b"a", 1, 3, 0);
        put(&m, b"a", 2, 8, 0);
        put(&m, b"b", 3, 4, 0);
        // Boundary 5: b@4 flushes. a@3 is at or below the boundary too,
        // but it is shadowed by the in-memory a@8 — flushing it would put
        // an older sequence in a younger SSTable, so it must stay.
        let drained = m.drain_up_to(5, 0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[&b"b".to_vec()].1, 4);
        assert!(m.get(b"b", u64::MAX).is_none());
        let hit = m.get(b"a", u64::MAX).unwrap();
        assert_eq!(hit.seq, 8);
        assert!(hit.definitive);
        let hit = m.get(b"a", 3).unwrap();
        assert_eq!(hit.seq, 3, "the shadowed version still serves its bound");
        // A later flush with an advanced boundary takes a@8 and GC's a@3.
        let drained = m.drain_up_to(8, 8);
        assert_eq!(drained[&b"a".to_vec()].1, 8);
        assert!(m.get(b"a", u64::MAX).is_none());
        assert_eq!(m.key_count(), 0);
    }

    #[test]
    fn hole_above_a_version_defeats_short_circuiting() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 3, 0);
        put(&m, b"k", 2, 8, 0);
        // Flush the newest committed version (8); the snapshot-retained
        // version 3 stays with shadow 8 — a hole above it.
        let drained = m.drain_up_to(8, 0);
        assert_eq!(drained[&b"k".to_vec()].1, 8);
        let hit = m.get(b"k", u64::MAX).unwrap();
        assert_eq!(hit.seq, 3);
        assert!(
            !hit.definitive,
            "a flushed newer version exists; SSTables must be consulted"
        );
    }

    #[test]
    fn gc_pass_purges_stale_shadowed_versions() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 5, 0);
        put(&m, b"k", 2, 9, 0);
        // Drain the newest at a floor that keeps the pinned-era version.
        let drained = m.drain_up_to(9, 5);
        assert_eq!(drained[&b"k".to_vec()].1, 9);
        assert_eq!(m.get(b"k", 5).unwrap().seq, 5, "retained for the pin");
        // Pin released: an explicit pass reclaims it (shadow 9 <= floor 9).
        m.gc(9);
        assert!(m.get(b"k", 5).is_none());
        assert_eq!(m.key_count(), 0);
        assert_eq!(m.approx_bytes(), 0);
    }

    #[test]
    fn reinsert_restores_drained_entries() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 3, 0);
        let drained = m.drain_up_to(5, 0);
        assert!(m.get(b"k", u64::MAX).is_none());
        m.reinsert(drained);
        let hit = m.get(b"k", u64::MAX).unwrap();
        assert_eq!(hit.seq, 3);
        assert!(hit.definitive);
    }

    #[test]
    fn byte_accounting_tracks_live_versions() {
        let m = ShardedMemtable::new();
        assert_eq!(m.approx_bytes(), 0);
        put(&m, b"k", 1, 1, 0);
        put(&m, b"j", 2, 2, 0);
        assert!(m.approx_bytes() >= 16);
        m.drain_up_to(2, 0);
        assert_eq!(m.approx_bytes(), 0);
        assert_eq!(m.key_count(), 0);
    }

    #[test]
    fn snapshot_picks_newest_at_or_below_bound_in_key_order() {
        let m = ShardedMemtable::new();
        put(&m, b"a", 1, 2, 0);
        put(&m, b"a", 2, 6, 0);
        put(&m, b"b", 3, 4, 0);
        m.put(b"c".to_vec(), None, 5, 8, 0); // tombstone
        let vis = m.snapshot(5, None);
        assert_eq!(vis.len(), 3);
        assert_eq!(vis[0].timestamp, 2, "a@6 is above the bound");
        assert_eq!(vis[1].timestamp, 4);
        assert!(
            vis[2].row.is_none(),
            "tombstones are reported to the merger"
        );
        assert_eq!(m.snapshot(u64::MAX, Some(b"b")).len(), 1);
        // a@6 flushes away; a@2 stays for a reader below 6 but is no
        // longer anyone else's newest.
        m.drain_up_to(6, 0);
        assert_eq!(m.snapshot(5, Some(b"a")).len(), 1);
        assert!(m.snapshot(6, Some(b"a")).is_empty());
    }
}
