//! FNV-sharded, multi-versioned in-memory write buffer.
//!
//! The memtable is split into `SHARD_COUNT` shards, each guarded by its
//! own mutex; a key's shard is chosen by FNV-1a hash, so concurrent writers
//! to different keys almost never contend. Within a shard each key maps to
//! a **version chain**: a vector of `Version`s sorted newest-first by
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
//! - **Which version a bound sees.** One rule, `visible_at`, serves point
//!   reads, cursor snapshots and both halves of a flush: the newest version
//!   at or below the bound, unless its shadow is at or below the bound too —
//!   then a newer visible version exists outside the shard (it was flushed)
//!   and the memtable has no answer for that key. A point read that lands on
//!   a version whose chain is intact above it (every newer link present in
//!   the shard, the newest unshadowed) additionally knows no SSTable can
//!   hold anything newer, and skips the disk entirely.
//!
//! A flush copies before it removes: `ShardedMemtable::peek_up_to` clones,
//! per key, the globally newest version at or below the flush boundary
//! (always a fully committed sequence) for the caller to write out, and
//! `ShardedMemtable::drain_up_to` removes the same versions once their
//! SSTable is attached. Older versions that a pinned snapshot might still
//! need stay behind in the shard.

use crate::row::Row;
use crate::sstable::SstEntry;
use sc_encoding::fnv1a_64;
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
    /// SSTable can hold a newer version, so the caller may skip them.
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
        &self.shards[(fnv1a_64(key) % self.shards.len() as u64) as usize]
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

    /// The version of `key` a reader at `bound` sees ([`visible_at`]), if
    /// the shard holds it.
    pub fn get(&self, key: &[u8], bound: u64) -> Option<MemHit> {
        let shard = self
            .shard_for(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let versions = shard.entries.get(key)?;
        let pos = visible_at(versions, bound)?;
        // Intact above the hit: the head is the key's newest anywhere and
        // every link down to the hit points at the version before it.
        let definitive = versions[0].shadow == u64::MAX
            && versions[..=pos].windows(2).all(|w| w[1].shadow == w[0].seq);
        let v = &versions[pos];
        Some(MemHit {
            row: v.row.clone(),
            seq: v.seq,
            definitive,
        })
    }

    /// The memtable's layer of a merging cursor: per key starting with
    /// `prefix` (`None` = all), the version a reader at `bound` sees
    /// ([`visible_at`]), tombstones included, sorted by key.
    pub fn snapshot(&self, bound: u64, prefix: Option<&[u8]>) -> Vec<SstEntry> {
        self.collect(|key, versions| {
            if prefix.is_some_and(|p| !key.starts_with(p)) {
                return None;
            }
            visible_at(versions, bound)
        })
    }

    /// Flush, first half: the entries [`ShardedMemtable::drain_up_to`] will
    /// remove at `boundary`, cloned without removing anything and sorted by
    /// key — what the flush hands to the SSTable writer. Every acked version
    /// stays readable in its shard until its SSTable is attached.
    ///
    /// A version committed between the peek and the drain has a sequence
    /// above `boundary` (the visible watermark at flush start), so it can
    /// shadow a peeked version but never changes the peeked set itself;
    /// the drain then leaves the newly-shadowed version in its shard,
    /// which is merely a duplicate of what the SSTable already serves.
    pub fn peek_up_to(&self, boundary: u64) -> Vec<SstEntry> {
        self.collect(|_, versions| flushable_at(versions, boundary))
    }

    /// Per key, the version `pick` chooses from the key's chain (by index),
    /// cloned out of the shards and sorted by key.
    fn collect(&self, pick: impl Fn(&[u8], &[Version]) -> Option<usize>) -> Vec<SstEntry> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (key, versions) in &shard.entries {
                if let Some(pos) = pick(key, versions) {
                    let v = &versions[pos];
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

    /// Flush, second half: removes, per key, the version visible at
    /// `boundary` (the visible watermark at flush start, so every drained
    /// sequence is fully committed) — but only when that version is the
    /// key's **globally newest** (`shadow == u64::MAX`).
    ///
    /// The globally-newest restriction is what keeps per-key sequence
    /// order monotone across SSTable age order: a shadowed version never
    /// reaches disk (its shadow already has, or will first), so a
    /// newest-SSTable-first read can stop at its first hit. Shadowed
    /// versions exist only to serve pinned readers and die in memory when
    /// the GC floor passes their shadow; the WAL, not the SSTable, is
    /// their durability story. Older retained versions are GC'd against
    /// `gc_floor` on the way through; empty chains are dropped.
    pub fn drain_up_to(&self, boundary: u64, gc_floor: u64) {
        let mut freed = 0usize;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.entries.retain(|_, versions| {
                if let Some(pos) = flushable_at(versions, boundary) {
                    freed += versions.remove(pos).cost;
                }
                freed += gc_chain(versions, gc_floor);
                !versions.is_empty()
            });
        }
        if freed > 0 {
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
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
}

/// The one version rule. Index, in a newest-first chain, of the version a
/// reader at `bound` sees: the newest at or below `bound` — unless that
/// version was itself superseded at or below `bound`. Its successor is then
/// not in the chain (it was flushed), so the chain has no answer and the
/// SSTables do; answering with the stale version would resurrect a deleted
/// row once a merge drops the successor's tombstone.
fn visible_at(versions: &[Version], bound: u64) -> Option<usize> {
    let pos = versions.iter().position(|v| v.seq <= bound)?;
    let shadow = versions[pos].shadow;
    (shadow == u64::MAX || shadow > bound).then_some(pos)
}

/// What a flush at `boundary` takes from a chain: the version visible there,
/// when it is the key's globally newest. Both halves of the flush ask this,
/// so the drain removes what the peek copied.
fn flushable_at(versions: &[Version], boundary: u64) -> Option<usize> {
    visible_at(versions, boundary).filter(|&pos| versions[pos].shadow == u64::MAX)
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
        let peeked = m.peek_up_to(5);
        assert_eq!(peeked.len(), 1);
        assert_eq!(
            (peeked[0].key.as_slice(), peeked[0].timestamp),
            (&b"b"[..], 4)
        );
        assert_eq!(
            m.get(b"b", u64::MAX).unwrap().seq,
            4,
            "a peek removes nothing"
        );
        m.drain_up_to(5, 0);
        assert!(m.get(b"b", u64::MAX).is_none());
        let hit = m.get(b"a", u64::MAX).unwrap();
        assert_eq!(hit.seq, 8);
        assert!(hit.definitive);
        let hit = m.get(b"a", 3).unwrap();
        assert_eq!(hit.seq, 3, "the shadowed version still serves its bound");
        // A later flush with an advanced boundary takes a@8 and GC's a@3.
        assert_eq!(m.peek_up_to(8)[0].timestamp, 8);
        m.drain_up_to(8, 8);
        assert!(m.get(b"a", u64::MAX).is_none());
        assert_eq!(m.key_count(), 0);
    }

    #[test]
    fn a_version_superseded_at_the_bound_is_a_miss() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 3, 0);
        m.put(b"k".to_vec(), None, 8, 8, 0);
        // The delete (8) flushes; version 3 stays for a reader pinned below
        // 8, with shadow 8 and a hole above it.
        m.drain_up_to(8, 0);
        for bound in [8, 9, u64::MAX] {
            assert!(
                m.get(b"k", bound).is_none(),
                "bound {bound}: the flushed successor wins, the disk answers"
            );
        }
        let hit = m.get(b"k", 7).unwrap();
        assert_eq!(hit.seq, 3, "below its shadow the version still serves");
        assert!(
            !hit.definitive,
            "a hole above the hit: SSTables must be consulted"
        );
        // A newer write makes the head unshadowed and the chain to it intact.
        put(&m, b"k", 2, 11, 0);
        let hit = m.get(b"k", u64::MAX).unwrap();
        assert_eq!(hit.seq, 11);
        assert!(hit.definitive);
        assert!(m.get(b"k", 10).is_none(), "8 is still the answer at 10");
    }

    #[test]
    fn gc_pass_purges_stale_shadowed_versions() {
        let m = ShardedMemtable::new();
        put(&m, b"k", 1, 5, 0);
        put(&m, b"k", 2, 9, 0);
        // Drain the newest at a floor that keeps the pinned-era version.
        m.drain_up_to(9, 5);
        assert_eq!(m.get(b"k", 5).unwrap().seq, 5, "retained for the pin");
        // Pin released: an explicit pass reclaims it (shadow 9 <= floor 9).
        m.gc(9);
        assert!(m.get(b"k", 5).is_none());
        assert_eq!(m.key_count(), 0);
        assert_eq!(m.approx_bytes(), 0);
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
