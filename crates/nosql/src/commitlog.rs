//! The commit log: durability journal of the write path.
//!
//! Every mutation is framed and appended before it touches the memtable,
//! exactly as Cassandra does; Table 5's insertion time therefore pays real
//! serialization per row, and one append per commit — a statement, or a
//! chunk of a multi-row insert (`WalBatch` encodes its frames in place).
//!
//! Frame format: `[len: u32][crc: u32][payload]` where `crc` covers the
//! payload (`sc_encoding`'s `put_frame` / `Frames`). `repair_frames` is
//! the one routine that reads a log file back — this log's segments and
//! the manifest — and holds the one rule for a frame that is not intact.
//!
//! The log is **segmented**: appends go to an active segment file which is
//! rotated out once it reaches [`DEFAULT_SEGMENT_BYTES`]
//! (`OpenOptions::wal_segment_bytes`). Closed segments are immutable and
//! record the highest sequence they contain, so a checkpoint after a
//! memtable flush can delete exactly the segments made redundant —
//! without segmentation the log would only ever shrink at an explicit
//! `flush_all`, growing without bound under sustained writes.

use crate::error::{NosqlError, Result};
use sc_encoding::{varint, Decoder, Encoder, FrameError, Frames};
use sc_storage::{StorageError, Vfs};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default byte size at which the active segment is rotated out.
pub const DEFAULT_SEGMENT_BYTES: u64 = 512 * 1024;

/// A mutation record as stored in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Qualified table name the mutation applies to.
    pub table: String,
    /// Encoded partition key.
    pub key: Vec<u8>,
    /// Encoded row body, empty for a tombstone.
    pub body: Vec<u8>,
    /// Write timestamp.
    pub timestamp: u64,
}

/// Commit-log frames written in place: a group of mutations encoded
/// straight into the one buffer a single storage write appends — byte for
/// byte the frames [`CommitLog::append_batch`] writes for the same records,
/// without a [`LogRecord`] per mutation.
#[derive(Debug, Default)]
pub(crate) struct WalBatch {
    bytes: Encoder,
    records: usize,
    max_seq: u64,
}

impl WalBatch {
    /// An empty batch with room for `bytes` of frames.
    pub fn with_capacity(bytes: usize) -> WalBatch {
        WalBatch {
            bytes: Encoder::with_capacity(bytes),
            ..WalBatch::default()
        }
    }

    /// Bytes one mutation's frame takes, given its table name and its key
    /// and body lengths.
    pub fn frame_len(table: &str, key: usize, body: usize) -> usize {
        let field = |n: usize| varint::len_u64(n as u64) + n;
        8 + field(table.len()) + field(key) + field(body) + 8
    }

    /// Appends one mutation's frame: `[len][crc]` over table, key, the
    /// `body_len` bytes `body` writes, and `timestamp`.
    pub fn push(
        &mut self,
        table: &str,
        key: &[u8],
        body_len: usize,
        timestamp: u64,
        body: impl FnOnce(&mut Encoder),
    ) {
        self.bytes.put_frame(|p| {
            p.put_str(table).put_bytes(key).put_u64(body_len as u64);
            let start = p.len();
            body(p);
            debug_assert_eq!(p.len() - start, body_len, "body length mismatch");
            p.put_u64_fixed(timestamp);
        });
        self.records += 1;
        self.max_seq = self.max_seq.max(timestamp);
    }

    fn push_record(&mut self, r: &LogRecord) {
        self.push(&r.table, &r.key, r.body.len(), r.timestamp, |p| {
            p.put_raw(&r.body);
        });
    }

    /// Moves `other`'s frames after this batch's.
    fn extend(&mut self, other: WalBatch) {
        if self.records == 0 {
            *self = other;
            return;
        }
        self.bytes.put_raw(other.bytes.bytes());
        self.records += other.records;
        self.max_seq = self.max_seq.max(other.max_seq);
    }
}

/// A closed (rotated-out) segment: immutable on disk, checkpointable once
/// every record at or below `max_seq` is covered by SSTables.
#[derive(Debug)]
struct Segment {
    name: String,
    /// Highest record sequence in the segment.
    max_seq: u64,
}

/// Mutable segment bookkeeping, behind one mutex. The group commit admits
/// a single appender at a time, so the lock is uncontended on the write
/// path; checkpoints and truncation serialize against it.
#[derive(Debug)]
struct SegState {
    /// Closed segments, oldest first.
    closed: Vec<Segment>,
    /// Active segment file name (the unsuffixed base for a fresh log).
    active: String,
    active_bytes: u64,
    active_max_seq: u64,
    /// Suffix index the next rotation will use.
    next_index: u64,
}

impl SegState {
    /// A log with no segments: the next append creates `base`.
    fn empty(base: &str) -> SegState {
        SegState {
            closed: Vec::new(),
            active: base.to_string(),
            active_bytes: 0,
            active_max_seq: 0,
            next_index: 2,
        }
    }
}

/// Append handle for one engine's commit log.
#[derive(Debug)]
pub struct CommitLog {
    vfs: Vfs,
    base: String,
    segment_bytes: u64,
    segs: Mutex<SegState>,
}

impl CommitLog {
    /// A handle on the log at `base` (segments `base`, `base.000002`, ...).
    /// It reads nothing: appends start a fresh log at `base` until
    /// [`CommitLog::repair`] adopts the segments on disk.
    pub fn open(vfs: Vfs, base: impl Into<String>) -> CommitLog {
        let base = base.into();
        CommitLog {
            segs: Mutex::new(SegState::empty(&base)),
            vfs,
            base,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }

    /// Sets the rotation threshold (builder-style, before first use).
    pub fn with_segment_bytes(mut self, bytes: u64) -> CommitLog {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// `base` → 1, `base.NNN` (all digits) → NNN; anything else is not a
    /// segment of this log.
    fn segment_index(base: &str, name: &str) -> Option<u64> {
        if name == base {
            return Some(1);
        }
        let suffix = name.strip_prefix(base)?.strip_prefix('.')?;
        if suffix.is_empty() || !suffix.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        suffix.parse().ok()
    }

    fn lock_segs(&self) -> std::sync::MutexGuard<'_, SegState> {
        self.segs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one mutation.
    pub fn append(&self, record: &LogRecord) -> Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Appends a group of mutations in one write (batch commit), rotating
    /// the active segment first when it is full. Rotation is pure
    /// bookkeeping — the new segment file is created by this very append —
    /// so a batch is still exactly one storage write.
    pub fn append_batch(&self, records: &[LogRecord]) -> Result<()> {
        let mut batch = WalBatch::default();
        for r in records {
            batch.push_record(r);
        }
        self.append_frames(&batch)
    }

    /// Bytes the active segment takes before it is full, so that the
    /// append after the one reaching it rotates: a whole segment when the
    /// next append rotates anyway.
    pub(crate) fn room(&self) -> u64 {
        let segs = self.lock_segs();
        if segs.active_bytes >= self.segment_bytes {
            self.segment_bytes
        } else {
            self.segment_bytes - segs.active_bytes
        }
    }

    /// [`CommitLog::append_batch`] for frames already encoded.
    fn append_frames(&self, batch: &WalBatch) -> Result<()> {
        if batch.records == 0 {
            return Ok(());
        }
        let bytes = batch.bytes.bytes();
        let mut segs = self.lock_segs();
        if segs.active_bytes >= self.segment_bytes {
            let closed = Segment {
                name: segs.active.clone(),
                max_seq: segs.active_max_seq,
            };
            segs.closed.push(closed);
            segs.active = format!("{}.{:06}", self.base, segs.next_index);
            segs.next_index += 1;
            segs.active_bytes = 0;
            segs.active_max_seq = 0;
        }
        self.record_append(bytes.len());
        self.vfs.append(&segs.active, bytes)?;
        segs.active_bytes += bytes.len() as u64;
        segs.active_max_seq = segs.active_max_seq.max(batch.max_seq);
        Ok(())
    }

    fn record_append(&self, framed_len: usize) {
        if sc_obs::enabled() {
            let o = crate::obs::nosql();
            o.commitlog_appends.inc();
            o.commitlog_append_bytes.add(framed_len as u64);
        }
    }

    /// Bytes currently in the log, across every segment.
    pub fn size(&self) -> u64 {
        let segs = self.lock_segs();
        segs.closed
            .iter()
            .map(|s| self.vfs.len(&s.name).unwrap_or(0))
            .sum::<u64>()
            + self.vfs.len(&segs.active).unwrap_or(0)
    }

    /// Number of live segments including the active one (observability).
    pub fn segment_count(&self) -> usize {
        self.lock_segs().closed.len() + 1
    }

    /// Deletes every segment and resets to a fresh log (after a full
    /// checkpoint makes the whole log redundant).
    pub fn truncate(&self) -> Result<()> {
        let mut segs = self.lock_segs();
        for seg in &segs.closed {
            self.vfs.delete(&seg.name)?;
        }
        self.vfs.delete(&segs.active)?;
        *segs = SegState::empty(&self.base);
        Ok(())
    }

    /// Deletes closed segments whose every record is at or below `floor`
    /// (redundant once flushed to SSTables). The active segment is never
    /// deleted. Returns the number of segments removed.
    pub fn checkpoint(&self, floor: u64) -> Result<usize> {
        let mut segs = self.lock_segs();
        let mut deleted = 0usize;
        let mut err = None;
        segs.closed.retain(|seg| {
            if err.is_some() || seg.max_seq > floor {
                return true;
            }
            match self.vfs.delete(&seg.name) {
                Ok(()) => {
                    deleted += 1;
                    false
                }
                Err(e) => {
                    // Keep the segment listed: its records must stay
                    // replayable until the file is actually gone.
                    err = Some(e);
                    true
                }
            }
        });
        drop(segs);
        if sc_obs::enabled() {
            let o = crate::obs::nosql();
            o.commitlog_checkpoints.inc();
            o.commitlog_segments_deleted.add(deleted as u64);
        }
        match err {
            Some(e) => Err(e.into()),
            None => Ok(deleted),
        }
    }

    /// Reads every segment on disk back, in index order, and returns their
    /// records; a torn tail of the last segment is truncated away. Then the
    /// segment bookkeeping (per-segment max sequences, the active segment)
    /// is rebuilt from what is on disk. A corrupt frame in any segment, or
    /// a tear in any but the last, is `Corrupt` and changes nothing.
    ///
    /// The truncation matters: if the tear stayed on disk, the next
    /// appended record would land *after* it and be unreachable on the next
    /// repair — an acknowledged write silently lost one crash later.
    pub fn repair(&self) -> Result<Vec<LogRecord>> {
        let mut segments: Vec<(u64, String)> = self
            .vfs
            .list(&self.base)?
            .into_iter()
            .filter_map(|n| Self::segment_index(&self.base, &n).map(|i| (i, n)))
            .collect();
        segments.sort_unstable();
        let mut records = Vec::new();
        let mut state = SegState::empty(&self.base);
        for (i, (index, name)) in segments.iter().enumerate() {
            let mut max_seq = 0;
            let last = i + 1 == segments.len();
            let len = repair_frames(&self.vfs, name, last, |payload| {
                let mut p = Decoder::new(payload);
                let record = LogRecord {
                    table: p.get_str()?.to_string(),
                    key: p.get_bytes()?.to_vec(),
                    body: p.get_bytes()?.to_vec(),
                    timestamp: p.get_u64_fixed()?,
                };
                max_seq = max_seq.max(record.timestamp);
                records.push(record);
                Ok(())
            })?;
            if i > 0 {
                state.closed.push(Segment {
                    name: std::mem::take(&mut state.active),
                    max_seq: state.active_max_seq,
                });
            }
            state.active = name.clone();
            state.active_bytes = len;
            state.active_max_seq = max_seq;
            state.next_index = index + 1;
        }
        *self.lock_segs() = state;
        Ok(records)
    }
}

/// Reads the CRC frames of one log file back — an absent file is an empty
/// one — handing each intact payload to `record`, and returns where the
/// intact prefix ends. `Manifest::repair` and [`CommitLog::repair`] read
/// the engine's logs through it, so it holds their one rule:
///
/// * a frame whose bytes stop short of what its header declares is a tear,
///   what a crash mid-append leaves. In the log's `last` file it is
///   truncated away, so that later appends never land beyond it; in any
///   other file it is corruption;
/// * a complete frame whose CRC fails is corruption.
///
/// Corruption is [`NosqlError::Corrupt`], naming the file and the offset,
/// and leaves the file as it is.
pub(crate) fn repair_frames(
    vfs: &Vfs,
    file: &str,
    last: bool,
    mut record: impl FnMut(&[u8]) -> Result<()>,
) -> Result<u64> {
    let data = match vfs.read_all(file) {
        Ok(data) => data,
        Err(StorageError::NotFound(_)) => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    for frame in Frames::new(&data) {
        match frame {
            Ok(payload) => record(payload)?,
            Err(FrameError::Torn { at }) if last => {
                vfs.truncate(file, at as u64)?;
                return Ok(at as u64);
            }
            Err(e) => return Err(NosqlError::Corrupt(format!("{file}: {e}"))),
        }
    }
    Ok(data.len() as u64)
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// Cloneable image of a WAL append failure, so one leader's error can be
/// delivered to every session in its batch. [`StorageError`] itself is not
/// `Clone` (it can wrap an `io::Error`), so the two cases the crash matrix
/// distinguishes are preserved exactly and everything else keeps its
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalError {
    /// Round-trips [`StorageError::Injected`] losslessly: fault-injection
    /// tests still see the crash op they armed.
    Injected { op: u64, file: String },
    /// Any other failure, flattened to its message.
    Other(String),
}

impl WalError {
    fn of(e: &NosqlError) -> WalError {
        match e {
            NosqlError::Storage(StorageError::Injected { op, file }) => WalError::Injected {
                op: *op,
                file: file.clone(),
            },
            other => WalError::Other(other.to_string()),
        }
    }

    pub fn into_nosql(self) -> NosqlError {
        match self {
            WalError::Injected { op, file } => {
                NosqlError::Storage(StorageError::Injected { op, file })
            }
            WalError::Other(msg) => {
                NosqlError::Storage(StorageError::Io(std::io::Error::other(msg)))
            }
        }
    }
}

#[derive(Debug)]
struct Outcome {
    result: Option<WalError>,
    /// Followers still due to read this outcome; the last one removes it.
    readers_left: usize,
}

#[derive(Debug)]
struct GcState {
    /// Frames accumulated for the batch generation `buf_gen`.
    buf: WalBatch,
    /// Sessions with records in `buf`.
    waiters: usize,
    /// Generation currently accepting joiners.
    buf_gen: u64,
    /// Highest generation whose append has finished (ok or failed).
    completed_gen: u64,
    /// A leader is between taking a batch and publishing its outcome.
    leader_active: bool,
    /// Outcomes awaiting follower pickup, keyed by generation.
    outcomes: HashMap<u64, Outcome>,
}

/// Group-commit front end over [`CommitLog`]: concurrent sessions' appends
/// are coalesced into one storage write using a leader/follower protocol.
///
/// The first session to find no leader running becomes the leader for the
/// current batch generation: it may linger `max_delay` to let followers
/// pile in, then takes the buffer, bumps the generation (late joiners
/// start the next batch), appends every record in **one** VFS write, and
/// publishes the shared outcome. Followers just enqueue their records and
/// wait for their generation to complete. Because a batch is a single
/// append, a crash preserves a prefix of whole batches: every acked write
/// is in a completed batch (durable), and an un-acked batch is at worst a
/// torn tail that replay drops cleanly.
#[derive(Debug)]
pub(crate) struct GroupCommitLog {
    log: CommitLog,
    state: Mutex<GcState>,
    cond: Condvar,
    max_delay: Duration,
}

impl GroupCommitLog {
    /// Wraps `log`; `max_delay` is the latency the leader may add while
    /// waiting for followers (zero = commit immediately, batches still
    /// form naturally while a leader's append is in flight).
    pub fn new(log: CommitLog, max_delay: Duration) -> GroupCommitLog {
        GroupCommitLog {
            log,
            // Generation 1 is the first batch; completed_gen starts below
            // it so no waiter can observe its batch as already done.
            state: Mutex::new(GcState {
                buf: WalBatch::default(),
                waiters: 0,
                buf_gen: 1,
                completed_gen: 0,
                leader_active: false,
                outcomes: HashMap::new(),
            }),
            cond: Condvar::new(),
            max_delay,
        }
    }

    /// The wrapped log, for repair/size/truncate during recovery
    /// and flush (single-caller phases), and the segment room a write chunk
    /// is sized against (locked internally, safe beside appends).
    pub fn plain(&self) -> &CommitLog {
        &self.log
    }

    /// Deletes closed segments fully covered by `floor` (see
    /// [`CommitLog::checkpoint`]). Safe concurrently with appends: the
    /// segment bookkeeping serializes internally and the active segment is
    /// never touched.
    pub fn checkpoint(&self, floor: u64) -> Result<usize> {
        self.log.checkpoint(floor)
    }

    /// Durably appends `frames` (one session's commit: a statement's
    /// mutations, or a chunk of a multi-row insert), sharing the storage
    /// write with every concurrent session. Returns only after the carrying
    /// batch's append has completed; on failure every session of the batch
    /// gets the same error.
    pub fn append_group(&self, frames: WalBatch) -> std::result::Result<(), WalError> {
        let enter = Instant::now();
        crate::mvcc::perturb(21);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let my_gen = st.buf_gen;
        st.buf.extend(frames);
        st.waiters += 1;
        loop {
            if st.completed_gen >= my_gen {
                // A leader finished our generation: pick up the outcome.
                let result = match st.outcomes.get_mut(&my_gen) {
                    Some(o) => {
                        o.readers_left -= 1;
                        let r = o.result.clone();
                        if o.readers_left == 0 {
                            st.outcomes.remove(&my_gen);
                        }
                        r
                    }
                    None => None,
                };
                drop(st);
                let waited = enter.elapsed();
                crate::mvcc::add_queue_wait(waited);
                if sc_obs::enabled() {
                    crate::obs::nosql()
                        .group_commit_wait_ns
                        .record_duration(waited);
                }
                return match result {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
            }
            if !st.leader_active && st.buf_gen == my_gen {
                return self.lead(st, my_gen, enter);
            }
            crate::mvcc::perturb(22);
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn lead(
        &self,
        mut st: std::sync::MutexGuard<'_, GcState>,
        my_gen: u64,
        enter: Instant,
    ) -> std::result::Result<(), WalError> {
        st.leader_active = true;
        if !self.max_delay.is_zero() && st.waiters == 1 {
            // Alone so far: linger briefly so concurrent sessions can join
            // this batch. The wait is deliberate queueing, not execution.
            let delay_start = Instant::now();
            let (s, _) = self
                .cond
                .wait_timeout(st, self.max_delay)
                .unwrap_or_else(|e| e.into_inner());
            st = s;
            crate::mvcc::add_queue_wait(delay_start.elapsed());
        }
        let batch = std::mem::take(&mut st.buf);
        let batch_waiters = std::mem::take(&mut st.waiters);
        // Late joiners from here on belong to the next generation.
        st.buf_gen += 1;
        drop(st);

        crate::mvcc::perturb(23);
        let result = self
            .log
            .append_frames(&batch)
            .err()
            .map(|e| WalError::of(&e));
        if sc_obs::enabled() {
            let o = crate::obs::nosql();
            o.group_commit_batches.inc();
            o.group_commit_records.add(batch.records as u64);
            o.group_commit_records_per_batch
                .record(batch.records as u64);
            o.group_commit_wait_ns.record_duration(enter.elapsed());
        }

        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.completed_gen = my_gen;
        if batch_waiters > 1 {
            st.outcomes.insert(
                my_gen,
                Outcome {
                    result: result.clone(),
                    readers_left: batch_waiters - 1,
                },
            );
        }
        st.leader_active = false;
        drop(st);
        self.cond.notify_all();
        match result {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u8) -> LogRecord {
        LogRecord {
            table: "ks.t".into(),
            key: vec![i],
            body: vec![i; i as usize],
            timestamp: i as u64,
        }
    }

    fn frames(records: &[LogRecord]) -> WalBatch {
        let mut batch = WalBatch::default();
        for r in records {
            batch.push_record(r);
        }
        batch
    }

    #[test]
    fn append_and_replay() {
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs, "ks/commitlog");
        log.append(&rec(1)).unwrap();
        log.append_batch(&[rec(2), rec(3)]).unwrap();
        assert_eq!(log.repair().unwrap(), vec![rec(1), rec(2), rec(3)]);
        assert!(log.size() > 0);
    }

    #[test]
    fn repair_of_missing_log_is_empty() {
        let log = CommitLog::open(Vfs::memory(), "nope");
        assert!(log.repair().unwrap().is_empty());
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs.clone(), "log");
        log.append(&rec(1)).unwrap();
        let second = vfs.len("log").unwrap();
        log.append(&rec(2)).unwrap();
        let mut data = vfs.read_all("log").unwrap();
        *data.last_mut().unwrap() ^= 0xff;
        vfs.delete("log").unwrap();
        vfs.append("log", &data).unwrap();
        // A whole frame failing its CRC is corruption, not a tear: an error
        // naming the file and the frame's offset, and every byte is kept.
        let err = log.repair().unwrap_err();
        let want = format!("log: frame at byte {second} fails its CRC");
        assert!(
            matches!(&err, NosqlError::Corrupt(m) if *m == want),
            "{err}"
        );
        assert_eq!(vfs.read_all("log").unwrap(), data);
    }

    #[test]
    fn a_tear_before_the_last_segment_is_corruption() {
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs.clone(), "log").with_segment_bytes(1);
        for i in 1..=3 {
            log.append(&rec(i)).unwrap();
        }
        let torn = vfs.len("log.000002").unwrap() - 2;
        vfs.truncate("log.000002", torn).unwrap();
        let err = log.repair().unwrap_err();
        let want = "log.000002: torn frame at byte 0";
        assert!(matches!(&err, NosqlError::Corrupt(m) if m == want), "{err}");
        // Nothing truncated, nothing deleted.
        assert_eq!(vfs.list("log").unwrap().len(), 3);
        assert_eq!(vfs.len("log.000002").unwrap(), torn);
    }

    #[test]
    fn repair_truncates_torn_tail_physically() {
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs.clone(), "log");
        log.append(&rec(1)).unwrap();
        let good = vfs.len("log").unwrap();
        log.append(&rec(2)).unwrap();
        vfs.truncate("log", vfs.len("log").unwrap() - 3).unwrap();
        assert_eq!(log.repair().unwrap(), vec![rec(1)]);
        assert_eq!(log.size(), good, "torn bytes removed from disk");
        // Regression: without the physical truncation, this append would
        // land beyond the tear and be unreachable on the next repair.
        log.append(&rec(3)).unwrap();
        assert_eq!(log.repair().unwrap(), vec![rec(1), rec(3)]);
    }

    #[test]
    fn truncate_resets() {
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs, "log");
        log.append(&rec(1)).unwrap();
        log.truncate().unwrap();
        assert_eq!(log.size(), 0);
        assert!(log.repair().unwrap().is_empty());
    }

    #[test]
    fn appends_rotate_into_segments_and_replay_in_order() {
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs.clone(), "log").with_segment_bytes(64);
        for i in 1..=12 {
            log.append(&rec(i)).unwrap();
        }
        assert!(log.segment_count() > 1, "64-byte segments must rotate");
        assert_eq!(log.repair().unwrap(), (1..=12).map(rec).collect::<Vec<_>>());
        let files = vfs.list("log").unwrap();
        assert_eq!(files.len(), log.segment_count());
        assert!(files.contains(&"log".to_string()), "base is segment one");
        // A new handle adopts the same segments on repair.
        let reopened = CommitLog::open(vfs, "log");
        assert_eq!(
            reopened.repair().unwrap(),
            (1..=12).map(rec).collect::<Vec<_>>()
        );
        assert_eq!(reopened.segment_count(), log.segment_count());
    }

    #[test]
    fn checkpoint_deletes_only_fully_covered_closed_segments() {
        let vfs = Vfs::memory();
        // 1-byte threshold: every append rotates, one record per segment.
        let log = CommitLog::open(vfs.clone(), "log").with_segment_bytes(1);
        for i in 1..=5 {
            log.append(&rec(i)).unwrap();
        }
        assert_eq!(log.segment_count(), 5);
        assert_eq!(log.checkpoint(3).unwrap(), 3);
        assert_eq!(log.repair().unwrap(), vec![rec(4), rec(5)]);
        // The active segment survives even a floor above everything.
        assert_eq!(log.checkpoint(u64::MAX).unwrap(), 1);
        assert_eq!(log.repair().unwrap(), vec![rec(5)]);
        assert!(log.size() > 0);
        // And appends continue on it.
        log.append(&rec(6)).unwrap();
        assert_eq!(log.repair().unwrap(), vec![rec(5), rec(6)]);
    }

    #[test]
    fn repair_rebuilds_segment_state_after_a_torn_active_segment() {
        let vfs = Vfs::memory();
        {
            let log = CommitLog::open(vfs.clone(), "log").with_segment_bytes(1);
            for i in 1..=3 {
                log.append(&rec(i)).unwrap();
            }
        }
        // Tear the active (newest) segment mid-frame, as a power cut would.
        vfs.truncate("log.000003", vfs.len("log.000003").unwrap() - 2)
            .unwrap();
        let log = CommitLog::open(vfs.clone(), "log").with_segment_bytes(1);
        assert_eq!(log.repair().unwrap(), vec![rec(1), rec(2)]);
        // Post-repair appends stay reachable, and checkpoints work off the
        // per-segment sequences repair computed.
        log.append(&rec(4)).unwrap();
        assert_eq!(log.repair().unwrap(), vec![rec(1), rec(2), rec(4)]);
        assert_eq!(log.checkpoint(2).unwrap(), 2);
        assert_eq!(log.repair().unwrap(), vec![rec(4)]);
    }

    #[test]
    fn truncate_removes_every_segment() {
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs.clone(), "log").with_segment_bytes(1);
        for i in 1..=4 {
            log.append(&rec(i)).unwrap();
        }
        log.truncate().unwrap();
        assert_eq!(log.size(), 0);
        assert!(log.repair().unwrap().is_empty());
        assert!(vfs.list("log").unwrap().is_empty(), "all segments deleted");
        log.append(&rec(9)).unwrap();
        assert_eq!(log.repair().unwrap(), vec![rec(9)]);
    }

    #[test]
    fn group_commit_single_caller_appends_immediately() {
        let vfs = Vfs::memory();
        let gc = GroupCommitLog::new(CommitLog::open(vfs, "log"), Duration::ZERO);
        gc.append_group(frames(&[rec(1)])).unwrap();
        gc.append_group(frames(&[rec(2), rec(3)])).unwrap();
        assert_eq!(gc.plain().repair().unwrap(), vec![rec(1), rec(2), rec(3)]);
    }

    #[test]
    fn group_commit_coalesces_concurrent_sessions() {
        let vfs = Vfs::memory();
        let gc = std::sync::Arc::new(GroupCommitLog::new(
            CommitLog::open(vfs, "log"),
            Duration::from_millis(2),
        ));
        let threads: Vec<_> = (0..8u8)
            .map(|i| {
                let gc = std::sync::Arc::clone(&gc);
                std::thread::spawn(move || gc.append_group(frames(&[rec(i + 1)])).unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut replayed = gc.plain().repair().unwrap();
        replayed.sort_by_key(|r| r.timestamp);
        assert_eq!(replayed, (1..=8).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn group_commit_failure_reaches_every_waiter() {
        // Crash on the first mutating operation: every session's append
        // fails, and the error stays an injected-crash error end to end.
        let (vfs, faults) = Vfs::with_faults(Vfs::memory(), 7);
        faults.crash_at(0);
        let gc = std::sync::Arc::new(GroupCommitLog::new(
            CommitLog::open(vfs, "log"),
            Duration::from_millis(2),
        ));
        let threads: Vec<_> = (0..4u8)
            .map(|i| {
                let gc = std::sync::Arc::clone(&gc);
                std::thread::spawn(move || gc.append_group(frames(&[rec(i + 1)])))
            })
            .collect();
        for t in threads {
            let err = t.join().unwrap().unwrap_err();
            assert!(
                matches!(err, WalError::Injected { .. }),
                "expected injected-crash error, got {err:?}"
            );
        }
    }

    #[test]
    fn frames_written_in_place_match_record_frames() {
        use crate::row::Row;
        use crate::types::CqlValue;
        let row = Row::new(vec![
            CqlValue::Int(-7),
            CqlValue::Text("Fenian St".into()),
            CqlValue::Null,
            CqlValue::int_set([3, 300, -2]),
            CqlValue::Boolean(true),
        ]);
        let mut body = Encoder::new();
        row.encode(&mut body, 99);
        let records = [
            LogRecord {
                table: "ks.t".into(),
                key: vec![1, 2],
                body: body.into_bytes(),
                timestamp: 99,
            },
            LogRecord {
                table: "ks.t".into(),
                key: vec![3],
                body: Vec::new(),
                timestamp: 100,
            },
        ];
        let mut in_place = WalBatch::with_capacity(0);
        for (r, row) in records.iter().zip([Some(&row), None]) {
            let body_len = row.map_or(0, Row::encoded_len);
            assert_eq!(
                WalBatch::frame_len(&r.table, r.key.len(), body_len),
                frames(std::slice::from_ref(r)).bytes.len()
            );
            in_place.push(&r.table, &r.key, body_len, r.timestamp, |p| {
                if let Some(row) = row {
                    row.encode(p, r.timestamp);
                }
            });
        }
        assert_eq!(in_place.bytes.bytes(), frames(&records).bytes.bytes());
        let vfs = Vfs::memory();
        let log = CommitLog::open(vfs, "log");
        log.append_frames(&in_place).unwrap();
        assert_eq!(log.repair().unwrap(), records);
    }

    #[test]
    fn batch_is_one_storage_write() {
        // The batch framing writes the same record bytes; total size of a
        // batch equals the sum of individual frames.
        let vfs1 = Vfs::memory();
        let single = CommitLog::open(vfs1, "a");
        single.append(&rec(1)).unwrap();
        single.append(&rec(2)).unwrap();
        let vfs2 = Vfs::memory();
        let batched = CommitLog::open(vfs2, "b");
        batched.append_batch(&[rec(1), rec(2)]).unwrap();
        assert_eq!(single.size(), batched.size());
    }
}
