//! Deterministic crash-matrix harness: simulated power loss at every
//! mutating storage operation.
//!
//! A seeded workload drives an engine — puts, deletes, flushes, compactions
//! and, in the bulk sweep, multi-row inserts — over a fault-injecting VFS
//! ([`Vfs::with_faults`]). For each crash point the harness arms a crash at
//! that mutating-op index, runs the workload until the injected failure,
//! checks that the failed commit left no sequence outstanding (the
//! watermark never stalls), then "restarts" (disarm + recover) and checks
//! the recovered state against an oracle of acknowledged writes:
//!
//! * every write acknowledged before the crash must be readable,
//! * nothing else may appear — **except** the single in-flight statement,
//!   which may or may not have become durable (its ack was lost; a real
//!   client faces the same ambiguity); an in-flight multi-row insert
//!   survives as a prefix of whole rows in row order, which holds at least
//!   every chunk whose commit-log append completed and at most the chunk
//!   the crash tore,
//! * no key comes back twice,
//! * a post-recovery flush + compaction must not change the state,
//! * a second recovery must reproduce the state again, and the recovered
//!   engine takes new writes.
//!
//! [`sweep`] runs the statement matrix, [`sweep_bulk`] the one that mixes
//! multi-row inserts in, [`sweep_concurrent`] the group-commit one; `repro
//! crashtest` runs all three on the command line.

use crate::commitlog::WalBatch;
use crate::engine::{Db, OpenOptions, SharedDb};
use crate::error::{NosqlError, Result};
use crate::row::Row;
use crate::types::CqlValue;
use sc_encoding::Rng;
use sc_storage::fault::FaultKind;
use sc_storage::{FaultHandle, StorageError, Vfs};
use std::collections::BTreeMap;
use std::time::Duration;

/// Statements per workload run (tuned so a run performs well over 100
/// mutating storage ops at the tiny flush threshold the harness uses).
pub const WORKLOAD_STEPS: usize = 140;

/// Steps per bulk-sweep run: fewer than [`WORKLOAD_STEPS`], since about
/// half of them insert a few chunks' worth of rows.
pub const BULK_WORKLOAD_STEPS: usize = 60;

/// Ids the workload writes over (small, so overwrites and deletes are
/// frequent and compaction has real work).
const KEY_SPACE: u64 = 40;

#[derive(Debug, Clone)]
enum Step {
    Put {
        id: i64,
        v: String,
    },
    Delete {
        id: i64,
    },
    /// One multi-row insert ([`Db::insert_rows`]): rows in order, an id
    /// possibly twice.
    Bulk {
        rows: Vec<(i64, String)>,
    },
    Flush,
    Compact,
}

/// The seeded statement sequence. Identical for every crash point of a
/// sweep — only the crash index varies — so op indices line up across runs.
fn workload(seed: u64) -> Vec<Step> {
    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..WORKLOAD_STEPS)
        .map(|i| {
            let roll = rng.gen_range(100);
            let id = rng.gen_range(KEY_SPACE) as i64;
            if roll < 76 {
                Step::Put {
                    id,
                    v: format!("v{i}k{id}"),
                }
            } else if roll < 88 {
                Step::Delete { id }
            } else if roll < 95 {
                Step::Flush
            } else {
                Step::Compact
            }
        })
        .collect()
}

/// The bulk sweep's sequence: single statements as in [`workload`] between
/// multi-row inserts of 4 to 31 rows — at the harness's flush threshold and
/// segment size, one to several chunks each.
fn bulk_workload(seed: u64) -> Vec<Step> {
    let mut rng = Rng::new(seed ^ 0xb5ad_4ece_da1c_e2a9);
    (0..BULK_WORKLOAD_STEPS)
        .map(|i| {
            let roll = rng.gen_range(100);
            let id = rng.gen_range(KEY_SPACE) as i64;
            if roll < 30 {
                Step::Put {
                    id,
                    v: format!("v{i}k{id}"),
                }
            } else if roll < 40 {
                Step::Delete { id }
            } else if roll < 85 {
                let n = 4 + rng.gen_range(28);
                let rows = (0..n)
                    .map(|j| {
                        let id = rng.gen_range(KEY_SPACE) as i64;
                        (id, format!("b{i}.{j}k{id}"))
                    })
                    .collect();
                Step::Bulk { rows }
            } else if roll < 93 {
                Step::Flush
            } else {
                Step::Compact
            }
        })
        .collect()
}

fn tiny_open(vfs: Vfs) -> OpenOptions {
    OpenOptions::default()
        .vfs(vfs)
        .memtable_flush_bytes(512)
        .compaction_threshold(3)
        // Small segments so the matrix crosses WAL rotation and post-flush
        // checkpoint deletion, not just single-file append.
        .wal_segment_bytes(1024)
        // Inline compaction: the sweep counts every mutating storage op and
        // crashes at each one deterministically, so nothing may run off the
        // driving thread (a background merge would also outlive the crashed
        // engine and mutate the VFS during the *recovering* engine's open).
        .compaction_threads(0)
}

/// The statement that was executing when the crash fired.
#[derive(Debug, Clone, PartialEq)]
enum InFlight {
    /// A put (`Some`) or delete (`None`) whose ack was lost; it may or may
    /// not have reached the commit log intact.
    Write { id: i64, row: Option<String> },
    /// A multi-row insert whose ack was lost: the rows the crash may have
    /// left durable, in order, at least `min` of which it did.
    Bulk {
        rows: Vec<(i64, String)>,
        min: usize,
    },
    /// Flush or compaction — changes no logical state either way.
    Neutral,
    /// Schema DDL; the table may or may not exist after recovery.
    Ddl,
}

struct RunResult {
    /// Last acknowledged write per id (`None` = acknowledged delete).
    acked: BTreeMap<i64, Option<String>>,
    /// `Some` iff the crash fired mid-run.
    in_flight: Option<InFlight>,
}

fn is_injected(e: &NosqlError) -> bool {
    matches!(e, NosqlError::Storage(StorageError::Injected { .. }))
}

fn bulk_rows(rows: &[(i64, String)]) -> impl Iterator<Item = [CqlValue; 2]> + '_ {
    rows.iter()
        .map(|(id, v)| [CqlValue::Int(*id), CqlValue::Text(v.clone())])
}

/// Runs `steps` until completion or the first injected failure, tracking
/// the acked-write oracle. Any non-injected error is a real bug.
fn drive(db: &Db, steps: &[Step], faults: &FaultHandle) -> Result<RunResult> {
    let mut acked: BTreeMap<i64, Option<String>> = BTreeMap::new();
    for ddl in [
        "CREATE KEYSPACE m",
        "CREATE TABLE m.t (id int, v text, PRIMARY KEY (id))",
    ] {
        if let Err(e) = db.execute_cql(ddl) {
            if is_injected(&e) {
                return Ok(RunResult {
                    acked,
                    in_flight: Some(InFlight::Ddl),
                });
            }
            return Err(e);
        }
    }
    for step in steps {
        let from_op = faults.ops();
        let (outcome, in_flight) = match step {
            Step::Put { id, v } => (
                db.execute_cql(&format!("INSERT INTO m.t (id, v) VALUES ({id}, '{v}')"))
                    .map(drop),
                InFlight::Write {
                    id: *id,
                    row: Some(v.clone()),
                },
            ),
            Step::Delete { id } => (
                db.execute_cql(&format!("DELETE FROM m.t WHERE id = {id}"))
                    .map(drop),
                InFlight::Write { id: *id, row: None },
            ),
            Step::Bulk { rows } => (
                db.insert_rows("m", "t", &["id", "v"], bulk_rows(rows))
                    .map(drop),
                InFlight::Bulk {
                    rows: rows.clone(),
                    min: 0,
                },
            ),
            Step::Flush => (db.flush_all(), InFlight::Neutral),
            Step::Compact => (db.compact_all(), InFlight::Neutral),
        };
        match outcome {
            Ok(()) => match in_flight {
                InFlight::Write { id, row } => {
                    acked.insert(id, row);
                }
                InFlight::Bulk { rows, .. } => {
                    acked.extend(rows.into_iter().map(|(id, v)| (id, Some(v))));
                }
                InFlight::Neutral | InFlight::Ddl => {}
            },
            Err(e) if is_injected(&e) => {
                let in_flight = match in_flight {
                    InFlight::Bulk { rows, .. } => {
                        let (min, max) = durable_prefix(&rows, from_op, faults)?;
                        InFlight::Bulk {
                            rows: rows[..max].to_vec(),
                            min,
                        }
                    }
                    other => other,
                };
                return Ok(RunResult {
                    acked,
                    in_flight: Some(in_flight),
                });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(RunResult {
        acked,
        in_flight: None,
    })
}

/// Full table read; `None` when the table itself never became durable.
/// Errors on duplicate ids — recovery must never resurrect two versions.
fn read_state(db: &Db) -> Result<Option<BTreeMap<i64, String>>> {
    let r = match db.execute_cql("SELECT id, v FROM m.t") {
        Ok(r) => r,
        Err(NosqlError::UnknownKeyspace(_)) | Err(NosqlError::UnknownTable(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut map = BTreeMap::new();
    let total = r.len();
    for row in r.rows() {
        let id = row.get_int("id")?;
        let v = row.get_text("v")?.to_string();
        map.insert(id, v);
    }
    if map.len() != total {
        return Err(NosqlError::Corrupt(format!(
            "duplicate row ids after recovery ({total} rows, {} distinct)",
            map.len()
        )));
    }
    Ok(Some(map))
}

fn materialize(acked: &BTreeMap<i64, Option<String>>) -> BTreeMap<i64, String> {
    acked
        .iter()
        .filter_map(|(k, v)| v.clone().map(|v| (*k, v)))
        .collect()
}

/// How many leading rows of a multi-row insert that started at mutating op
/// `from_op` the crash that just fired may have left durable: at least the
/// rows of every commit-log append the insert completed (those chunks
/// committed), at most those plus the rows of the append the crash tore.
/// Each append must end on a whole row.
fn durable_prefix(
    rows: &[(i64, String)],
    from_op: u64,
    faults: &FaultHandle,
) -> Result<(usize, usize)> {
    let crashed = faults.crashed_at();
    let (mut appended, mut torn) = (0usize, 0usize);
    for op in faults.trace().iter().filter(|op| op.index >= from_op) {
        let FaultKind::Append { len } = op.kind else {
            continue;
        };
        if !op.file.starts_with(crate::engine::COMMIT_LOG) {
            continue;
        }
        match crashed {
            Some(at) if op.index == at => torn = len,
            Some(at) if op.index > at => {}
            _ => appended += len,
        }
    }
    // Where each row's frame ends in the insert's commit-log bytes.
    let frame_ends = rows.iter().scan(0usize, |end, (id, v)| {
        let key = CqlValue::Int(*id).encode_key();
        let body = Row::new(vec![CqlValue::Int(*id), CqlValue::Text(v.clone())]).encoded_len();
        *end += WalBatch::frame_len("m.t", key.len(), body);
        Some(*end)
    });
    let ends: Vec<usize> = std::iter::once(0).chain(frame_ends).collect();
    let lo = ends.iter().rposition(|&end| end <= appended).unwrap_or(0);
    if ends[lo] != appended {
        return Err(NosqlError::Corrupt(format!(
            "a multi-row insert appended {appended} commit-log bytes, not a whole number of rows"
        )));
    }
    let hi = ends
        .iter()
        .rposition(|&end| end <= appended + torn)
        .unwrap_or(0);
    Ok((lo, hi))
}

/// Asserts the recovered state is exactly the acked writes, or the acked
/// writes plus what the in-flight statement may have left. Returns whether
/// the in-flight statement left anything.
fn check_state(
    recovered: &Option<BTreeMap<i64, String>>,
    run: &RunResult,
    context: &str,
) -> Result<bool> {
    let Some(state) = recovered else {
        // No table at all is legal only if not even the DDL was acked.
        if run.acked.is_empty() && run.in_flight == Some(InFlight::Ddl) {
            return Ok(false);
        }
        return Err(NosqlError::Corrupt(format!(
            "{context}: table lost despite acknowledged writes"
        )));
    };
    // The states the crash may legally leave, each with whether the
    // in-flight statement left anything in it.
    let with = |writes: &[(i64, Option<String>)]| {
        let mut acked = run.acked.clone();
        acked.extend(writes.iter().cloned());
        materialize(&acked)
    };
    let candidates: Vec<(bool, BTreeMap<i64, String>)> = match &run.in_flight {
        Some(InFlight::Write { id, row }) => {
            vec![(false, with(&[])), (true, with(&[(*id, row.clone())]))]
        }
        Some(InFlight::Bulk { rows, min }) => {
            let rows: Vec<(i64, Option<String>)> =
                rows.iter().map(|(id, v)| (*id, Some(v.clone()))).collect();
            (*min..=rows.len())
                .map(|p| (p > 0, with(&rows[..p])))
                .collect()
        }
        _ => vec![(false, with(&[]))],
    };
    match candidates.iter().find(|(_, c)| c == state) {
        Some(&(survived, _)) => Ok(survived),
        None => Err(NosqlError::Corrupt(format!(
            "{context}: recovered state diverges from the acknowledged writes"
        ))),
    }
}

/// What one crash-matrix cell observed.
#[derive(Debug, Clone, Copy)]
pub struct PointOutcome {
    /// Whether the armed crash actually fired (it always does for indices
    /// below the workload's total op count).
    pub fired: bool,
    /// Whether the unacknowledged in-flight write turned out durable.
    pub in_flight_survived: bool,
}

/// Runs one cell of the matrix: crash at mutating-op index `crash_at`,
/// recover, verify, flush+compact, verify, recover again, verify.
pub fn run_point(seed: u64, crash_at: u64) -> Result<PointOutcome> {
    run_cell(&workload(seed), seed, crash_at)
}

/// [`run_point`] over the bulk sweep's workload.
pub fn run_bulk_point(seed: u64, crash_at: u64) -> Result<PointOutcome> {
    run_cell(&bulk_workload(seed), seed, crash_at)
}

fn run_cell(steps: &[Step], seed: u64, crash_at: u64) -> Result<PointOutcome> {
    let fault_seed = seed ^ crash_at.wrapping_mul(0x6a09_e667_f3bc_c909);
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), fault_seed);
    // Arm before opening, so the very first mutating op is a valid crash
    // point too.
    handle.crash_at(crash_at);
    let run = match Db::open(tiny_open(vfs.clone())) {
        Ok(db) => {
            let run = drive(&db, steps, &handle)?;
            // A commit that failed anywhere — WAL, flush, merge — must
            // still have completed its sequences.
            if !db.sequences_settled() {
                return Err(NosqlError::Corrupt(
                    "a failed commit left its sequences outstanding: the watermark stalls".into(),
                ));
            }
            run
        }
        Err(e) if is_injected(&e) => RunResult {
            acked: BTreeMap::new(),
            in_flight: Some(InFlight::Ddl),
        },
        Err(e) => return Err(e),
    };
    let fired = handle.crashed_at().is_some();
    handle.disarm();

    // Restart 1: recover over the surviving bytes.
    let db = Db::open(tiny_open(vfs.clone()).recover(true))?;
    let recovered = read_state(&db)?;
    let in_flight_survived = check_state(&recovered, &run, "after recovery")?;

    // Absent-key point reads over the recovered tables must come back
    // empty — this drives the fence/bloom miss path (and any torn
    // SSTable the recovery sweep should have removed would surface here
    // as a phantom row or a Corrupt error).
    if recovered.is_some() {
        for id in [KEY_SPACE as i64 + 1, KEY_SPACE as i64 + 17, -3] {
            let r = db.execute_cql(&format!("SELECT v FROM m.t WHERE id = {id}"))?;
            if !r.is_empty() {
                return Err(NosqlError::Corrupt(format!(
                    "phantom row for never-written id {id}"
                )));
            }
        }
    }

    // The recovered engine must keep working: a flush + full compaction
    // round-trip may not change what is readable.
    if recovered.is_some() {
        db.flush_all()?;
        db.compact_all()?;
        let after = read_state(&db)?;
        if after != recovered {
            return Err(NosqlError::Corrupt(
                "flush+compact changed the recovered state".into(),
            ));
        }
    }
    drop(db);

    // Restart 2: recovery is idempotent, and the engine takes new writes.
    let db = Db::open(tiny_open(vfs).recover(true))?;
    if read_state(&db)? != recovered {
        return Err(NosqlError::Corrupt("second recovery diverged".into()));
    }
    if recovered.is_some() {
        let fresh = [(KEY_SPACE as i64 + 5, "after".to_string())];
        db.insert_rows("m", "t", &["id", "v"], bulk_rows(&fresh))?;
        let r = db.execute_cql(&format!("SELECT v FROM m.t WHERE id = {}", fresh[0].0))?;
        if r.len() != 1 {
            return Err(NosqlError::Corrupt(
                "a write after recovery is not visible".into(),
            ));
        }
    }
    Ok(PointOutcome {
        fired,
        in_flight_survived,
    })
}

/// Mutating storage ops the full (uninjected) workload performs.
pub fn total_ops(seed: u64) -> Result<u64> {
    steps_ops(&workload(seed), seed)
}

/// Mutating storage ops the full (uninjected) bulk workload performs.
pub fn bulk_total_ops(seed: u64) -> Result<u64> {
    steps_ops(&bulk_workload(seed), seed)
}

fn steps_ops(steps: &[Step], seed: u64) -> Result<u64> {
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), seed);
    let db = Db::open(tiny_open(vfs))?;
    drive(&db, steps, &handle)?;
    Ok(handle.ops())
}

/// Sweep summary.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Workload seed.
    pub seed: u64,
    /// Mutating ops the full workload performs.
    pub total_ops: u64,
    /// Distinct crash points exercised.
    pub points_tested: usize,
    /// Points where the armed crash actually fired.
    pub crashes_fired: usize,
    /// Points where the unacknowledged in-flight write turned out durable
    /// (torn write that happened to complete) — for a multi-row insert, at
    /// least one of its rows.
    pub in_flight_survived: usize,
}

/// Runs the crash matrix: every mutating-op index when `limit` is `None`,
/// otherwise `limit` indices evenly spaced across the workload.
pub fn sweep(seed: u64, limit: Option<usize>) -> Result<CrashReport> {
    sweep_cells(seed, limit, total_ops(seed)?, run_point)
}

/// The crash matrix over a workload that mixes multi-row inserts, each one
/// to several chunks, with single statements ([`sweep`]'s arguments).
pub fn sweep_bulk(seed: u64, limit: Option<usize>) -> Result<CrashReport> {
    sweep_cells(seed, limit, bulk_total_ops(seed)?, run_bulk_point)
}

fn sweep_cells(
    seed: u64,
    limit: Option<usize>,
    total: u64,
    run: fn(u64, u64) -> Result<PointOutcome>,
) -> Result<CrashReport> {
    let points: Vec<u64> = match limit {
        Some(n) if (n as u64) < total => (0..n as u64).map(|i| i * total / n as u64).collect(),
        _ => (0..total).collect(),
    };
    let mut report = CrashReport {
        seed,
        total_ops: total,
        points_tested: points.len(),
        crashes_fired: 0,
        in_flight_survived: 0,
    };
    for &point in &points {
        let outcome = run(seed, point)
            .map_err(|e| NosqlError::Corrupt(format!("crash point {point}: {e}")))?;
        if outcome.fired {
            report.crashes_fired += 1;
        }
        if outcome.in_flight_survived {
            report.in_flight_survived += 1;
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Concurrent variant: writer sessions crashing mid-group-commit
// ---------------------------------------------------------------------------

/// Writer sessions racing in one concurrent crash cell.
pub const CONCURRENT_WRITERS: usize = 4;

/// Inserts each writer session attempts.
const WRITES_PER_WRITER: usize = 24;

/// A non-zero linger makes leaders wait for followers, so crash points
/// reliably land inside multi-session group-commit batches.
fn concurrent_open(vfs: Vfs) -> OpenOptions {
    tiny_open(vfs).group_commit_delay(Duration::from_micros(150))
}

struct ConcurrentRun {
    /// Acknowledged inserts, across all writer sessions (disjoint id
    /// ranges, so the union is well-defined).
    acked: BTreeMap<i64, String>,
    /// Inserts whose ack the crash swallowed. A torn multi-frame batch may
    /// leave *several* of these durable: the torn prefix can contain any
    /// number of complete frames from the batch the crash interrupted.
    in_flight: BTreeMap<i64, String>,
    /// Whether both DDL statements were acknowledged.
    ddl_acked: bool,
}

/// One writer session's outcome: its acknowledged inserts, plus the insert
/// whose ack the crash swallowed, if any.
type WriterOutcome = (Vec<(i64, String)>, Option<(i64, String)>);

/// Runs the concurrent workload: DDL, then [`CONCURRENT_WRITERS`] writer
/// sessions inserting disjoint id ranges until completion or the first
/// injected failure. The fault VFS fails every mutating op after the crash
/// point, so each writer stops deterministically at its first error.
fn drive_concurrent(db: &SharedDb, seed: u64) -> Result<ConcurrentRun> {
    let mut run = ConcurrentRun {
        acked: BTreeMap::new(),
        in_flight: BTreeMap::new(),
        ddl_acked: false,
    };
    for ddl in [
        "CREATE KEYSPACE m",
        "CREATE TABLE m.t (id int, v text, PRIMARY KEY (id))",
    ] {
        match db.execute_cql(ddl) {
            Ok(_) => {}
            Err(e) if is_injected(&e) => return Ok(run),
            Err(e) => return Err(e),
        }
    }
    run.ddl_acked = true;
    let results: Vec<Result<WriterOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONCURRENT_WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let mut session = db.session();
                    session.execute_cql("USE m")?;
                    let mut acked = Vec::new();
                    for i in 0..WRITES_PER_WRITER {
                        let id = (w * WRITES_PER_WRITER + i) as i64;
                        let v = format!("s{seed}w{w}i{i}");
                        match session
                            .execute_cql(&format!("INSERT INTO t (id, v) VALUES ({id}, '{v}')"))
                        {
                            Ok(_) => acked.push((id, v)),
                            Err(e) if is_injected(&e) => {
                                // Lost ack: the frame may sit in the
                                // torn batch's durable prefix.
                                return Ok((acked, Some((id, v))));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Ok((acked, None))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer session panicked"))
            .collect()
    });
    for result in results {
        let (acked, in_flight) = result?;
        run.acked.extend(acked);
        run.in_flight.extend(in_flight);
    }
    Ok(run)
}

/// Asserts `acked ⊆ recovered ⊆ acked ∪ in-flight`, values included.
/// Returns how many lost-ack inserts turned out durable.
fn check_concurrent(
    recovered: &Option<BTreeMap<i64, String>>,
    run: &ConcurrentRun,
    context: &str,
) -> Result<usize> {
    let Some(state) = recovered else {
        if run.acked.is_empty() && !run.ddl_acked {
            return Ok(0);
        }
        return Err(NosqlError::Corrupt(format!(
            "{context}: table lost despite acknowledged statements"
        )));
    };
    for (id, v) in &run.acked {
        match state.get(id) {
            Some(got) if got == v => {}
            Some(got) => {
                return Err(NosqlError::Corrupt(format!(
                    "{context}: acked insert id {id} recovered wrong value {got:?} (want {v:?})"
                )))
            }
            None => {
                return Err(NosqlError::Corrupt(format!(
                    "{context}: acked insert id {id} lost"
                )))
            }
        }
    }
    let mut survived = 0;
    for (id, got) in state {
        if run.acked.contains_key(id) {
            continue;
        }
        match run.in_flight.get(id) {
            Some(v) if v == got => survived += 1,
            _ => {
                return Err(NosqlError::Corrupt(format!(
                    "{context}: phantom row id {id} = {got:?} was never acked nor in flight"
                )))
            }
        }
    }
    Ok(survived)
}

/// What one concurrent crash cell observed.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentOutcome {
    /// Whether the armed crash actually fired.
    pub fired: bool,
    /// Acknowledged inserts across all writer sessions.
    pub acked: usize,
    /// Lost-ack inserts that turned out durable.
    pub in_flight_survived: usize,
}

/// One cell of the concurrent matrix: [`CONCURRENT_WRITERS`] writer
/// sessions race over a fault VFS armed to crash at mutating-op index
/// `crash_at` — with group commit coalescing their appends, the crash
/// typically tears a multi-session batch. After recovery the state must
/// satisfy `acked ⊆ recovered ⊆ acked ∪ in-flight` exactly, a post-recovery
/// flush + compaction must not change it, and a second recovery must
/// reproduce it.
pub fn run_concurrent_point(seed: u64, crash_at: u64) -> Result<ConcurrentOutcome> {
    let fault_seed = seed ^ crash_at.wrapping_mul(0x6a09_e667_f3bc_c909);
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), fault_seed);
    handle.crash_at(crash_at);
    let run = match SharedDb::open(concurrent_open(vfs.clone())) {
        Ok(db) => drive_concurrent(&db, seed)?,
        Err(e) if is_injected(&e) => ConcurrentRun {
            acked: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            ddl_acked: false,
        },
        Err(e) => return Err(e),
    };
    let fired = handle.crashed_at().is_some();
    handle.disarm();

    let db = Db::open(tiny_open(vfs.clone()).recover(true))?;
    let recovered = read_state(&db)?;
    let in_flight_survived = check_concurrent(&recovered, &run, "after recovery")?;
    if recovered.is_some() {
        db.flush_all()?;
        db.compact_all()?;
        if read_state(&db)? != recovered {
            return Err(NosqlError::Corrupt(
                "flush+compact changed the recovered state".into(),
            ));
        }
    }
    drop(db);

    let db = Db::open(tiny_open(vfs).recover(true))?;
    if read_state(&db)? != recovered {
        return Err(NosqlError::Corrupt("second recovery diverged".into()));
    }
    Ok(ConcurrentOutcome {
        fired,
        acked: run.acked.len(),
        in_flight_survived,
    })
}

/// Mutating storage ops a full uninjected concurrent run performs. Thread
/// scheduling makes the count approximate across runs (batch boundaries and
/// flush timing shift with the interleaving) — crash points past a given
/// run's actual count simply never fire.
pub fn concurrent_total_ops(seed: u64) -> Result<u64> {
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), seed);
    let db = SharedDb::open(concurrent_open(vfs))?;
    drive_concurrent(&db, seed)?;
    Ok(handle.ops())
}

/// Concurrent sweep summary.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Workload seed.
    pub seed: u64,
    /// Mutating ops the uninjected calibration run performed.
    pub total_ops: u64,
    /// Distinct crash points exercised.
    pub points_tested: usize,
    /// Points where the armed crash actually fired.
    pub crashes_fired: usize,
    /// Lost-ack inserts that turned out durable, summed over all cells.
    pub in_flight_survived: usize,
}

/// Runs the concurrent crash matrix: `limit` crash indices evenly spaced
/// across the calibration run's op count (every index when `None`). Unlike
/// the single-threaded matrix, an op index does not map to a fixed
/// statement — scheduling decides which sessions share the batch that
/// tears — but every interleaving must satisfy the acked-write oracle.
pub fn sweep_concurrent(seed: u64, limit: Option<usize>) -> Result<ConcurrentReport> {
    let total = concurrent_total_ops(seed)?;
    let points: Vec<u64> = match limit {
        Some(n) if (n as u64) < total => (0..n as u64).map(|i| i * total / n as u64).collect(),
        _ => (0..total).collect(),
    };
    let mut report = ConcurrentReport {
        seed,
        total_ops: total,
        points_tested: points.len(),
        crashes_fired: 0,
        in_flight_survived: 0,
    };
    for &point in &points {
        let outcome = run_concurrent_point(seed, point)
            .map_err(|e| NosqlError::Corrupt(format!("concurrent crash point {point}: {e}")))?;
        if outcome.fired {
            report.crashes_fired += 1;
        }
        report.in_flight_survived += outcome.in_flight_survived;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = workload(5);
        let b = workload(5);
        assert_eq!(a.len(), b.len());
        let puts = a.iter().filter(|s| matches!(s, Step::Put { .. })).count();
        let deletes = a
            .iter()
            .filter(|s| matches!(s, Step::Delete { .. }))
            .count();
        let flushes = a.iter().filter(|s| matches!(s, Step::Flush)).count();
        assert!(puts > 50 && deletes > 5 && flushes > 2);
    }

    #[test]
    fn workload_generates_enough_crash_points() {
        assert!(
            total_ops(1).unwrap() >= 100,
            "ops {}",
            total_ops(1).unwrap()
        );
    }

    #[test]
    fn early_and_late_points_pass() {
        // The full matrix runs in tests/crash_matrix.rs; smoke a few cells
        // here, including DDL-time crashes.
        let total = total_ops(2).unwrap();
        for point in [0, 1, 2, total / 2, total - 1] {
            let outcome = run_point(2, point).unwrap();
            assert!(outcome.fired, "crash at {point} must fire");
        }
    }

    #[test]
    fn uninjected_run_recovers_exactly() {
        // Crash point beyond the op count: nothing fires, recovery must
        // reproduce the full acked state.
        let total = total_ops(3).unwrap();
        let outcome = run_point(3, total + 10).unwrap();
        assert!(!outcome.fired);
        assert!(!outcome.in_flight_survived);
    }

    #[test]
    fn bulk_workload_spreads_inserts_over_several_chunks() {
        let steps = bulk_workload(6);
        let count = |pick: fn(&Step) -> bool| steps.iter().filter(|s| pick(s)).count();
        let bulks = count(|s| matches!(s, Step::Bulk { .. }));
        let statements = count(|s| matches!(s, Step::Put { .. } | Step::Delete { .. }));
        assert!(
            bulks > 15 && statements > 10,
            "{bulks} bulks, {statements} statements"
        );
        // Uninjected: more commit-log appends than statements plus bulks,
        // so inserts span chunks.
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 6);
        let db = Db::open(tiny_open(vfs)).unwrap();
        drive(&db, &steps, &handle).unwrap();
        let appends = handle
            .trace()
            .iter()
            .filter(|op| {
                op.file.starts_with(crate::engine::COMMIT_LOG)
                    && matches!(op.kind, FaultKind::Append { .. })
            })
            .count();
        assert!(appends > bulks + statements + 20, "{appends} appends");
    }

    #[test]
    fn bulk_cells_pass_early_mid_late() {
        let total = bulk_total_ops(7).unwrap();
        assert!(total >= 100, "ops {total}");
        for point in [0, 1, 2, total / 3, total / 2, total - 1] {
            let outcome = run_bulk_point(7, point).unwrap();
            assert!(outcome.fired, "crash at {point} must fire");
        }
        assert!(!run_bulk_point(7, total + 10).unwrap().fired);
    }

    #[test]
    fn concurrent_cells_pass_early_mid_late() {
        // The fuller concurrent sweep runs in tests/crash_matrix.rs; smoke
        // a few cells here, including a DDL-time crash (point 0) and an
        // uninjected run (point far past the op count).
        let total = concurrent_total_ops(4).unwrap();
        assert!(total >= 20, "concurrent workload too small: {total} ops");
        for point in [0, 2, total / 2, total - 2, total + 100] {
            run_concurrent_point(4, point).unwrap();
        }
    }

    #[test]
    fn concurrent_uninjected_run_acks_every_insert() {
        let total = concurrent_total_ops(5).unwrap();
        let outcome = run_concurrent_point(5, total + 50).unwrap();
        assert!(!outcome.fired);
        assert_eq!(outcome.acked, CONCURRENT_WRITERS * WRITES_PER_WRITER);
        assert_eq!(outcome.in_flight_survived, 0);
    }
}
