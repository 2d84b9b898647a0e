//! Ordered, multi-versioned in-memory write buffer.
//!
//! The memtable is one `BTreeMap` from key to **version chain** behind one
//! read-write lock: writers and drains take it exclusively, point reads,
//! cursor snapshots and flush peeks share it. Ordered readers therefore
//! walk the map in key order and never sort; a key-prefix snapshot is a
//! range seek. A chain is a vector of `Version`s sorted newest-first by
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
//!   then a newer visible version exists outside the memtable (it was
//!   flushed) and the memtable has no answer for that key. A point read that
//!   lands on a version whose chain is intact above it (every newer link
//!   present in the memtable, the newest unshadowed) additionally knows no
//!   SSTable can hold anything newer, and skips the disk entirely.
//!
//! A flush copies before it removes: `Memtable::peek_up_to` clones, per
//! key, the globally newest version at or below the flush boundary (always
//! a fully committed sequence) for the caller to write out, and
//! `Memtable::drain_up_to` removes the same versions once their SSTable is
//! attached. Older versions that a pinned snapshot might still need stay
//! behind in the memtable.

use crate::row::Row;
use crate::sstable::SstEntry;
use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

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
    /// True when the chain above the hit is complete in the memtable: no
    /// SSTable can hold a newer version, so the caller may skip them.
    pub definitive: bool,
}

type Chains = BTreeMap<Vec<u8>, Vec<Version>>;

/// The memtable. All methods take `&self`; synchronization is one
/// read-write lock over the ordered map plus a relaxed byte counter.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    entries: RwLock<Chains>,
    bytes: AtomicUsize,
}

impl Memtable {
    pub fn new() -> Memtable {
        Memtable::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, Chains> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Chains> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts a version and garbage-collects the key's chain.
    ///
    /// `gc_floor` must be `min(visible watermark, oldest pinned bound)` at
    /// call time; versions whose shadow is at or below it are unreachable
    /// by every current and future reader and are dropped.
    pub fn put(&self, key: Vec<u8>, row: Option<Row>, seq: u64, cost: usize, gc_floor: u64) {
        let mut entries = self.write();
        let versions = entries.entry(key).or_default();
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
    /// the memtable holds it.
    #[cfg(test)]
    pub fn get(&self, key: &[u8], bound: u64) -> Option<MemHit> {
        hit(&self.read(), key, bound)
    }

    /// [`Memtable::get`] for each of `keys` under one read lock: `found(i,
    /// hit)` for the `i`th key when the memtable holds a version of it.
    pub fn get_each<'k>(
        &self,
        keys: impl Iterator<Item = &'k [u8]>,
        bound: u64,
        mut found: impl FnMut(usize, MemHit),
    ) {
        let entries = self.read();
        if entries.is_empty() {
            return;
        }
        for (i, key) in keys.enumerate() {
            if let Some(hit) = hit(&entries, key, bound) {
                found(i, hit);
            }
        }
    }

    /// The index of the first of `keys` the memtable holds any version of,
    /// a tombstone included.
    pub fn first_held(&self, keys: &[&[u8]]) -> Option<usize> {
        let entries = self.read();
        keys.iter().position(|key| entries.contains_key(*key))
    }

    /// The memtable's layer of a merging cursor: per key starting with
    /// `prefix` (`None` = all), the version a reader at `bound` sees
    /// ([`visible_at`]), tombstones included, in key order. A prefix seeks
    /// to its first key and stops at the first key outside it.
    pub fn snapshot(&self, bound: u64, prefix: Option<&[u8]>) -> Vec<SstEntry> {
        let entries = self.read();
        let prefix = prefix.unwrap_or_default();
        let chains = entries
            .range::<[u8], _>((Included(prefix), Unbounded))
            .take_while(|(key, _)| key.starts_with(prefix));
        collect(chains, |versions| visible_at(versions, bound))
    }

    /// Flush, first half: the entries [`Memtable::drain_up_to`] will remove
    /// at `boundary`, cloned without removing anything, in key order — what
    /// the flush hands to the SSTable writer. Every acked version stays
    /// readable in the memtable until its SSTable is attached.
    ///
    /// A version committed between the peek and the drain has a sequence
    /// above `boundary` (the visible watermark at flush start), so it can
    /// shadow a peeked version but never changes the peeked set itself;
    /// the drain then leaves the newly-shadowed version in the memtable,
    /// which is merely a duplicate of what the SSTable already serves.
    pub fn peek_up_to(&self, boundary: u64) -> Vec<SstEntry> {
        collect(self.read().iter(), |versions| {
            flushable_at(versions, boundary)
        })
    }

    /// Approximate bytes buffered.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of keys with at least one buffered version (planner row
    /// estimates, test observability).
    pub fn key_count(&self) -> usize {
        self.read().len()
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
        self.write().retain(|_, versions| {
            if let Some(pos) = flushable_at(versions, boundary) {
                freed += versions.remove(pos).cost;
            }
            freed += gc_chain(versions, gc_floor);
            !versions.is_empty()
        });
        if freed > 0 {
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    /// Garbage-collects every chain against `floor`: versions shadowed at
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
        self.write().retain(|_, versions| {
            freed += gc_chain(versions, floor);
            !versions.is_empty()
        });
        if freed > 0 {
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
    }
}

/// Per chain, in the order given, the version `pick` chooses (by index),
/// cloned out as an entry.
fn collect<'a>(
    chains: impl Iterator<Item = (&'a Vec<u8>, &'a Vec<Version>)>,
    pick: impl Fn(&[Version]) -> Option<usize>,
) -> Vec<SstEntry> {
    chains
        .filter_map(|(key, versions)| {
            let v = &versions[pick(versions)?];
            Some(SstEntry {
                key: key.clone(),
                row: v.row.clone(),
                timestamp: v.seq,
            })
        })
        .collect()
}

/// The version of `key` a reader at `bound` sees in `entries`.
fn hit(entries: &Chains, key: &[u8], bound: u64) -> Option<MemHit> {
    let versions = entries.get(key)?;
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

    fn put(m: &Memtable, key: &[u8], v: i64, seq: u64, gc_floor: u64) {
        m.put(key.to_vec(), Some(row(v)), seq, 8, gc_floor);
    }

    #[test]
    fn reads_respect_the_bound() {
        let m = Memtable::new();
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
        let m = Memtable::new();
        // Two writers race: the higher sequence reaches the memtable first.
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
        let m = Memtable::new();
        put(&m, b"k", 1, 5, 0);
        // Floor 9 ≥ shadow (9) of the old version: it is unreachable.
        put(&m, b"k", 2, 9, 9);
        assert!(m.get(b"k", 5).is_none(), "seq-5 version was GC'd");
        assert!(m.get(b"k", u64::MAX).is_some());
    }

    #[test]
    fn gc_keeps_versions_a_pinned_reader_needs() {
        let m = Memtable::new();
        put(&m, b"k", 1, 5, 0);
        // A reader is pinned at bound 7 (< shadow 9): keep the old version.
        put(&m, b"k", 2, 9, 7);
        let hit = m.get(b"k", 7).unwrap();
        assert_eq!(hit.seq, 5);
        assert_eq!(hit.row.unwrap(), row(1));
    }

    #[test]
    fn drain_takes_committed_versions_and_leaves_the_rest() {
        let m = Memtable::new();
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
        let m = Memtable::new();
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
        let m = Memtable::new();
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
        let m = Memtable::new();
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
        let m = Memtable::new();
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

    #[test]
    fn prefix_snapshots_equal_filtered_full_snapshots_in_key_order() {
        // Keys over an alphabet with both extreme bytes, some of them
        // prefixes of others; drains leave shadowed versions and holes.
        let alphabet = [0x00, 0x01, 0x7F, 0xFF];
        let mut rng = sc_encoding::Rng::new(0x5EED);
        let ascending = |entries: &[SstEntry]| entries.windows(2).all(|w| w[0].key < w[1].key);
        for _ in 0..32 {
            let m = Memtable::new();
            let mut keys = Vec::new();
            let mut seq = 0u64;
            for _ in 0..24 {
                let len = 1 + rng.gen_range(3) as usize;
                let key: Vec<u8> = (0..len).map(|_| *rng.choice(&alphabet)).collect();
                seq += 1;
                let value = rng.gen_bool(0.8).then(|| row(seq as i64));
                m.put(key.clone(), value, seq, 8, 0);
                keys.push(key);
                if rng.gen_bool(0.15) {
                    m.drain_up_to(1 + rng.gen_range(seq), 0);
                }
            }
            let mut prefixes = vec![Vec::new(), vec![0xFF], vec![0xFF, 0xFF]];
            prefixes.extend(keys.iter().cloned());
            prefixes.extend(keys.iter().map(|k| k[..1].to_vec()));
            for bound in (0..=seq).chain([u64::MAX]) {
                let full = m.snapshot(bound, None);
                assert!(ascending(&full), "bound {bound}");
                assert!(ascending(&m.peek_up_to(bound)), "bound {bound}");
                for p in &prefixes {
                    let expected: Vec<SstEntry> = full
                        .iter()
                        .filter(|e| e.key.starts_with(p))
                        .cloned()
                        .collect();
                    assert_eq!(m.snapshot(bound, Some(p)), expected, "{p:?} @ {bound}");
                }
            }
        }
    }
}
