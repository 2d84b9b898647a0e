//! Deterministic crash-matrix harness: simulated power loss at every
//! mutating storage operation.
//!
//! A [`Sweep`] picks the writers and the engine options. Each writer runs
//! its own seeded step list — puts, deletes, multi-row inserts, flushes,
//! compactions — on its own thread, over a fault-injecting VFS
//! ([`Vfs::with_faults`]), and the driver records per writer the
//! acknowledged writes and the one statement whose ack the crash swallowed.
//!
//! * [`Sweep::Statements`]: one writer of single statements.
//! * [`Sweep::Bulk`]: one writer mixing multi-row inserts, each one to
//!   several chunks, and sorted-run ingests between single statements.
//! * [`Sweep::Concurrent`]: [`CONCURRENT_WRITERS`] writers inserting
//!   disjoint ids through a lingering group commit, so crashes tear
//!   multi-writer batches.
//!
//! For each crash point the harness arms a crash at that mutating-op
//! index, drives the writers until the injected failure and then, in every
//! cell of every sweep, checks that
//!
//! * the failed commit left no sequence outstanding (the watermark never
//!   stalls),
//! * after a "restart" (disarm + recover) the state is exactly the
//!   acknowledged writes plus, for each in-flight statement, one of what it
//!   may have left (its ack was lost; a real client faces the same
//!   ambiguity): nothing or all of a put, a delete or an ingest, and a
//!   prefix of whole rows of a multi-row insert, holding at least every
//!   chunk whose commit-log append completed and at most the chunk the
//!   crash tore,
//! * no key comes back twice and absent-key probes find nothing,
//! * a post-recovery flush + compaction does not change the state,
//! * a second recovery reproduces the state, and the recovered engine
//!   takes a new write — over an ingested key too, which must win over
//!   the ingested row through a flush and a merge.
//!
//! [`sweep`] runs the matrix, [`run_point`] one cell of it; `repro
//! crashtest` runs all three sweeps on the command line.

use crate::commitlog::WalBatch;
use crate::engine::{Db, OpenOptions};
use crate::error::{NosqlError, Result};
use crate::row::Row;
use crate::types::CqlValue;
use sc_encoding::Rng;
use sc_storage::fault::FaultKind;
use sc_storage::{FaultHandle, StorageError, Vfs};
use std::collections::BTreeMap;
use std::time::Duration;

/// Ids the single-writer workloads write over (small, so overwrites and
/// deletes are frequent and compaction has real work).
const KEY_SPACE: u64 = 40;

/// Writers racing in one concurrent crash cell.
pub const CONCURRENT_WRITERS: usize = 4;

/// Puts each concurrent writer attempts, over its own ids.
const WRITES_PER_WRITER: usize = 24;

/// One past the largest id a statement writes: absent-key probes and the
/// post-recovery write use ids outside `0..ID_END`, and below
/// [`INGEST_IDS`].
const ID_END: i64 = (CONCURRENT_WRITERS * WRITES_PER_WRITER) as i64;
const _: () = assert!(KEY_SPACE as i64 <= ID_END);

/// Where the bulk sweep's ingests start: each takes a fresh range of ids
/// from here up, above every id a statement or a probe uses.
const INGEST_IDS: i64 = 1000;

/// Bulk-sweep steps after which an ingest runs.
const INGEST_AFTER: [usize; 3] = [12, 30, 48];

/// Which crash matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// One writer of 140 puts, deletes, flushes and compactions.
    Statements,
    /// One writer of 60 steps, about half of them multi-row inserts of 4
    /// to 31 rows — at the harness's flush threshold and segment size, one
    /// to several chunks each — plus three ingests ([`Db::ingest_sorted`])
    /// of fresh ids, one of them in descending order.
    Bulk,
    /// [`CONCURRENT_WRITERS`] writers of 24 puts each behind a 150 µs
    /// group-commit linger. Scheduling decides which writers share the
    /// batch a crash tears, and shifts the op count a little between runs.
    Concurrent,
}

impl Sweep {
    /// Every sweep, in the order `tests/crash_matrix.rs` runs them.
    pub const ALL: [Sweep; 3] = [Sweep::Statements, Sweep::Bulk, Sweep::Concurrent];

    /// Each writer's step list. Identical for every crash point of a sweep
    /// — only the crash index varies — so op indices line up across runs.
    fn writers(self, seed: u64) -> Vec<Vec<Step>> {
        match self {
            Sweep::Statements => vec![workload(
                seed ^ 0x9e37_79b9_7f4a_7c15,
                140,
                [76, 88, 88, 95],
            )],
            Sweep::Bulk => {
                let mut steps = workload(seed ^ 0xb5ad_4ece_da1c_e2a9, 60, [30, 40, 85, 93]);
                for (k, &at) in INGEST_AFTER.iter().enumerate().rev() {
                    steps.insert(at, ingest(seed, k));
                }
                vec![steps]
            }
            Sweep::Concurrent => (0..CONCURRENT_WRITERS)
                .map(|w| {
                    (0..WRITES_PER_WRITER)
                        .map(|i| Step::Put {
                            id: (w * WRITES_PER_WRITER + i) as i64,
                            v: format!("s{seed}w{w}i{i}"),
                        })
                        .collect()
                })
                .collect(),
        }
    }

    fn open(self, vfs: Vfs) -> OpenOptions {
        let options = OpenOptions::default()
            .vfs(vfs)
            .memtable_flush_bytes(512)
            .compaction_threshold(3)
            // Small segments so the matrix crosses WAL rotation and
            // post-flush checkpoint deletion, not just single-file append.
            .wal_segment_bytes(1024)
            // Inline compaction: a background merge would also outlive the
            // crashed engine and mutate the VFS during the *recovering*
            // engine's open, and would make single-writer op counts
            // nondeterministic.
            .compaction_threads(0);
        match self {
            // A non-zero linger makes leaders wait for followers, so crash
            // points reliably land inside multi-writer batches.
            Sweep::Concurrent => options.group_commit_delay(Duration::from_micros(150)),
            Sweep::Statements | Sweep::Bulk => options,
        }
    }
}

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
    /// One ingest ([`Db::ingest_sorted`]) of ids no other step writes.
    Ingest {
        rows: Vec<(i64, String)>,
    },
    Flush,
    Compact,
}

impl Step {
    /// The writes the step makes, in order (`None` = a delete).
    fn writes(&self) -> Vec<(i64, Option<String>)> {
        match self {
            Step::Put { id, v } => vec![(*id, Some(v.clone()))],
            Step::Delete { id } => vec![(*id, None)],
            Step::Bulk { rows } | Step::Ingest { rows } => {
                rows.iter().map(|(id, v)| (*id, Some(v.clone()))).collect()
            }
            Step::Flush | Step::Compact => Vec::new(),
        }
    }
}

/// A seeded single-writer sequence over [`KEY_SPACE`]. Each step rolls out
/// of 100 against cumulative thresholds: below the first a put, then a
/// delete, a multi-row insert and a flush; at or above the last a
/// compaction.
fn workload(salted_seed: u64, steps: usize, [put, delete, bulk, flush]: [u64; 4]) -> Vec<Step> {
    let mut rng = Rng::new(salted_seed);
    (0..steps)
        .map(|i| {
            let roll = rng.gen_range(100);
            let id = rng.gen_range(KEY_SPACE) as i64;
            if roll < put {
                Step::Put {
                    id,
                    v: format!("v{i}k{id}"),
                }
            } else if roll < delete {
                Step::Delete { id }
            } else if roll < bulk {
                let n = 4 + rng.gen_range(28);
                let rows = (0..n)
                    .map(|j| {
                        let id = rng.gen_range(KEY_SPACE) as i64;
                        (id, format!("b{i}.{j}k{id}"))
                    })
                    .collect();
                Step::Bulk { rows }
            } else if roll < flush {
                Step::Flush
            } else {
                Step::Compact
            }
        })
        .collect()
}

/// The `k`th ingest of the bulk sweep: 6 to 20 rows over its own id
/// range, the second in descending order.
fn ingest(seed: u64, k: usize) -> Step {
    let mut rng = Rng::new(seed ^ 0x1f83_d9ab_fb41_bd6b ^ k as u64);
    let base = INGEST_IDS + 100 * k as i64;
    let mut rows: Vec<(i64, String)> = (0..6 + rng.gen_range(15) as i64)
        .map(|j| (base + j, format!("g{k}.{j}")))
        .collect();
    if k == 1 {
        rows.reverse();
    }
    Step::Ingest { rows }
}

/// A statement whose ack the crash swallowed: any prefix of its writes
/// from `min` writes up may have become durable — or, for an ingest
/// (`whole`), all of them or none.
#[derive(Debug, Clone, PartialEq)]
struct InFlight {
    writes: Vec<(i64, Option<String>)>,
    min: usize,
    whole: bool,
}

/// What the writers saw before the crash (or completion).
#[derive(Debug, Default)]
struct Run {
    /// Whether both DDL statements were acknowledged.
    ddl_acked: bool,
    /// Write statements acknowledged.
    acks: usize,
    /// Last acknowledged write per id (`None` = acknowledged delete).
    /// Writers touch disjoint ids, so their maps merge without conflict.
    acked: BTreeMap<i64, Option<String>>,
    /// At most one per writer.
    in_flight: Vec<InFlight>,
}

fn is_injected(e: &NosqlError) -> bool {
    matches!(e, NosqlError::Storage(StorageError::Injected { .. }))
}

fn bulk_rows(rows: &[(i64, String)]) -> impl Iterator<Item = [CqlValue; 2]> + '_ {
    rows.iter()
        .map(|(id, v)| [CqlValue::Int(*id), CqlValue::Text(v.clone())])
}

/// Creates the table, then runs each writer's steps on its own scoped
/// thread until completion or the writer's first injected failure (the
/// fault VFS fails every mutating op after the crash point). Any
/// non-injected error is a real bug.
fn drive(db: &Db, writers: &[Vec<Step>], faults: &FaultHandle) -> Result<Run> {
    let mut run = Run::default();
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
    let writer_runs: Vec<Result<Run>> = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter()
            .map(|steps| s.spawn(move || drive_writer(db, steps, faults)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crash-matrix writer panicked"))
            .collect()
    });
    for writer in writer_runs {
        let writer = writer?;
        run.acks += writer.acks;
        run.acked.extend(writer.acked);
        run.in_flight.extend(writer.in_flight);
    }
    Ok(run)
}

fn drive_writer(db: &Db, steps: &[Step], faults: &FaultHandle) -> Result<Run> {
    let mut run = Run::default();
    for step in steps {
        let from_op = faults.ops();
        let outcome = match step {
            Step::Put { id, v } => db
                .execute_cql(&format!("INSERT INTO m.t (id, v) VALUES ({id}, '{v}')"))
                .map(drop),
            Step::Delete { id } => db
                .execute_cql(&format!("DELETE FROM m.t WHERE id = {id}"))
                .map(drop),
            Step::Bulk { rows } => db
                .insert_rows("m", "t", &["id", "v"], bulk_rows(rows))
                .map(drop),
            Step::Ingest { rows } => db
                .ingest_sorted("m", "t", &["id", "v"], bulk_rows(rows))
                .map(drop),
            Step::Flush => db.flush_all(),
            Step::Compact => db.compact_all(),
        };
        let mut writes = step.writes();
        match outcome {
            Ok(()) => {
                run.acks += usize::from(!writes.is_empty());
                run.acked.extend(writes);
            }
            Err(e) if is_injected(&e) => {
                // Multi-row inserts run only in single-writer sweeps, so
                // every commit-log append since `from_op` is this one's.
                let min = match step {
                    Step::Bulk { rows } => {
                        let (min, max) = durable_prefix(rows, from_op, faults)?;
                        writes.truncate(max);
                        min
                    }
                    _ => 0,
                };
                let whole = matches!(step, Step::Ingest { .. });
                run.in_flight.push(InFlight { writes, min, whole });
                return Ok(run);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(run)
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

/// The oracle: the recovered state must be `acked ⊕ c`, where `c` picks for
/// each in-flight statement one prefix of its writes from `min` writes up
/// (for an ingest, none or all).
/// Writers touch disjoint ids, so their choices combine independently.
/// Returns how many in-flight statements left something — the fewest over
/// every choice that matches.
fn check(recovered: &Option<BTreeMap<i64, String>>, run: &Run) -> Result<usize> {
    let Some(state) = recovered else {
        // No table at all is legal only if the DDL was never acked.
        if !run.ddl_acked {
            return Ok(0);
        }
        return Err(NosqlError::Corrupt(
            "table lost despite acknowledged DDL".into(),
        ));
    };
    // Every state the crash may legally leave, with its survivor count.
    let mut candidates = vec![(0, run.acked.clone())];
    for statement in &run.in_flight {
        candidates = candidates
            .into_iter()
            .flat_map(|(survivors, acked)| {
                let all = statement.writes.len();
                let prefixes = statement.min..=all;
                let prefixes = prefixes.filter(move |&p| !statement.whole || p == 0 || p == all);
                prefixes.map(move |p| {
                    let mut acked = acked.clone();
                    acked.extend(statement.writes[..p].iter().cloned());
                    (survivors + usize::from(p > 0), acked)
                })
            })
            .collect();
    }
    candidates
        .iter()
        .filter(|(_, candidate)| materialize(candidate) == *state)
        .map(|&(survivors, _)| survivors)
        .min()
        .ok_or_else(|| diverged(state, run))
}

/// Names the first id where `state` departs from the acked writes alone,
/// preferring an id no in-flight statement wrote.
fn diverged(state: &BTreeMap<i64, String>, run: &Run) -> NosqlError {
    let acked = materialize(&run.acked);
    let in_flight = |id: i64| {
        run.in_flight
            .iter()
            .any(|s| s.writes.iter().any(|&(w, _)| w == id))
    };
    let mut ids: Vec<i64> = acked
        .keys()
        .chain(state.keys())
        .copied()
        .filter(|id| acked.get(id) != state.get(id))
        .collect();
    ids.sort_unstable();
    let Some(&id) = ids.iter().find(|&&id| !in_flight(id)).or(ids.first()) else {
        return NosqlError::Corrupt(
            "recovered state lacks the committed rows of an in-flight multi-row insert".into(),
        );
    };
    NosqlError::Corrupt(format!(
        "recovered id {id} = {:?}, acknowledged {:?}{}",
        state.get(&id),
        acked.get(&id),
        if in_flight(id) {
            " (written by an in-flight statement)"
        } else {
            ""
        }
    ))
}

/// What one crash-matrix cell observed.
#[derive(Debug, Clone, Copy)]
pub struct PointOutcome {
    /// Whether the armed crash actually fired (it always does for indices
    /// below a single-writer workload's total op count).
    pub fired: bool,
    /// Write statements (puts, deletes, multi-row inserts) acknowledged.
    pub acked: usize,
    /// Statements whose ack the crash swallowed (at most one per writer).
    pub in_flight: usize,
    /// In-flight statements that turned out to have left something
    /// durable — for a multi-row insert, at least one of its rows.
    pub in_flight_survived: usize,
}

/// Runs one cell of the matrix: crash at mutating-op index `crash_at`,
/// recover, verify, flush+compact, verify, recover again, verify.
pub fn run_point(kind: Sweep, seed: u64, crash_at: u64) -> Result<PointOutcome> {
    run_cell(kind, &kind.writers(seed), seed, crash_at)
}

fn run_cell(kind: Sweep, writers: &[Vec<Step>], seed: u64, crash_at: u64) -> Result<PointOutcome> {
    let fault_seed = seed ^ crash_at.wrapping_mul(0x6a09_e667_f3bc_c909);
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), fault_seed);
    // Arm before opening, so the very first mutating op is a valid crash
    // point too.
    handle.crash_at(crash_at);
    let run = match Db::open(kind.open(vfs.clone())) {
        Ok(db) => {
            let run = drive(&db, writers, &handle)?;
            // A commit that failed anywhere — WAL, flush, merge — must
            // still have completed its sequences.
            if !db.sequences_settled() {
                return Err(NosqlError::Corrupt(
                    "a failed commit left its sequences outstanding: the watermark stalls".into(),
                ));
            }
            run
        }
        Err(e) if is_injected(&e) => Run::default(),
        Err(e) => return Err(e),
    };
    let fired = handle.crashed_at().is_some();
    handle.disarm();

    // Restart 1: recover over the surviving bytes.
    let db = Db::open(kind.open(vfs.clone()))?;
    let recovered = read_state(&db)?;
    let in_flight_survived = check(&recovered, &run)?;

    if recovered.is_some() {
        // Absent-key point reads over the recovered tables must come back
        // empty — this drives the fence/bloom miss path (and any torn
        // SSTable the recovery sweep should have removed would surface
        // here as a phantom row or a Corrupt error).
        for id in [ID_END + 1, ID_END + 17, -3] {
            let r = db.execute_cql(&format!("SELECT v FROM m.t WHERE id = {id}"))?;
            if !r.is_empty() {
                return Err(NosqlError::Corrupt(format!(
                    "phantom row for never-written id {id}"
                )));
            }
        }
        // The recovered engine must keep working: a flush + full
        // compaction round-trip may not change what is readable.
        db.flush_all()?;
        db.compact_all()?;
        if read_state(&db)? != recovered {
            return Err(NosqlError::Corrupt(
                "flush+compact changed the recovered state".into(),
            ));
        }
    }
    drop(db);

    // Restart 2: recovery is idempotent, and the engine takes new writes.
    let db = Db::open(kind.open(vfs))?;
    if read_state(&db)? != recovered {
        return Err(NosqlError::Corrupt("second recovery diverged".into()));
    }
    if let Some(state) = &recovered {
        let fresh = [(ID_END + 5, "after".to_string())];
        db.insert_rows("m", "t", &["id", "v"], bulk_rows(&fresh))?;
        let r = db.execute_cql(&format!("SELECT v FROM m.t WHERE id = {}", fresh[0].0))?;
        if r.len() != 1 {
            return Err(NosqlError::Corrupt(
                "a write after recovery is not visible".into(),
            ));
        }
        // Sequences restart above the newest ingested row: an overwrite of
        // it wins through a flush and a merge, which keep the higher
        // sequence.
        if let Some((&id, _)) = state.range(INGEST_IDS..).next_back() {
            let cql = format!("INSERT INTO m.t (id, v) VALUES ({id}, 'after')");
            db.execute_cql(&cql)?;
            db.flush_all()?;
            db.compact_all()?;
            let r = db.execute_cql(&format!("SELECT v FROM m.t WHERE id = {id}"))?;
            if r.first().map(|row| row.get_text("v")).transpose()? != Some("after") {
                return Err(NosqlError::Corrupt(format!(
                    "an overwrite of ingested id {id} after recovery lost to the ingested row"
                )));
            }
        }
    }
    Ok(PointOutcome {
        fired,
        acked: run.acks,
        in_flight: run.in_flight.len(),
        in_flight_survived,
    })
}

/// Mutating storage ops a full uninjected run of the sweep performs. For
/// [`Sweep::Concurrent`] the count shifts a little with scheduling, so
/// crash points near it may not fire in a given run.
pub fn total_ops(kind: Sweep, seed: u64) -> Result<u64> {
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), seed);
    let db = Db::open(kind.open(vfs))?;
    drive(&db, &kind.writers(seed), &handle)?;
    Ok(handle.ops())
}

/// Sweep summary.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Workload seed.
    pub seed: u64,
    /// Mutating ops the full (uninjected) workload performs.
    pub total_ops: u64,
    /// Distinct crash points exercised.
    pub points_tested: usize,
    /// Points where the armed crash actually fired.
    pub crashes_fired: usize,
    /// In-flight statements that turned out to have left something
    /// durable, summed over all cells.
    pub in_flight_survived: usize,
}

/// Runs the crash matrix: every mutating-op index when `limit` is `None`,
/// otherwise `limit` indices evenly spaced across the workload.
pub fn sweep(kind: Sweep, seed: u64, limit: Option<usize>) -> Result<CrashReport> {
    let total = total_ops(kind, seed)?;
    let writers = kind.writers(seed);
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
        let outcome = run_cell(kind, &writers, seed, point)
            .map_err(|e| NosqlError::Corrupt(format!("{kind:?} crash point {point}: {e}")))?;
        report.crashes_fired += usize::from(outcome.fired);
        report.in_flight_survived += outcome.in_flight_survived;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = Sweep::Statements.writers(5);
        let b = Sweep::Statements.writers(5);
        assert_eq!(a.len(), 1);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let a = &a[0];
        let puts = a.iter().filter(|s| matches!(s, Step::Put { .. })).count();
        let deletes = a
            .iter()
            .filter(|s| matches!(s, Step::Delete { .. }))
            .count();
        let flushes = a.iter().filter(|s| matches!(s, Step::Flush)).count();
        let bulks = a.iter().filter(|s| matches!(s, Step::Bulk { .. })).count();
        assert!(puts > 50 && deletes > 5 && flushes > 2 && bulks == 0);
    }

    #[test]
    fn workload_generates_enough_crash_points() {
        let ops = total_ops(Sweep::Statements, 1).unwrap();
        assert!(ops >= 100, "ops {ops}");
    }

    #[test]
    fn bulk_workload_spreads_inserts_over_several_chunks() {
        let writers = Sweep::Bulk.writers(6);
        let steps = &writers[0];
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
        let db = Db::open(Sweep::Bulk.open(vfs)).unwrap();
        drive(&db, &writers, &handle).unwrap();
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
    fn every_sweep_passes_early_mid_late_and_uninjected_cells() {
        // The full matrices run in tests/crash_matrix.rs; smoke a few
        // cells of each here, including DDL-time crashes.
        for kind in Sweep::ALL {
            let total = total_ops(kind, 7).unwrap();
            let floor = match kind {
                Sweep::Concurrent => 20,
                Sweep::Statements | Sweep::Bulk => 100,
            };
            assert!(total >= floor, "{kind:?}: {total} ops");
            // Concurrent op counts shift with scheduling, so its late
            // point stays clear of the calibrated total and must pass but
            // may still land past a cell's op count.
            let late = match kind {
                Sweep::Concurrent => total * 3 / 4,
                Sweep::Statements | Sweep::Bulk => total - 1,
            };
            for point in [0, 1, 2, total / 3, total / 2, late] {
                let outcome = run_point(kind, 7, point).unwrap();
                let must_fire = kind != Sweep::Concurrent || point < late;
                assert!(
                    outcome.fired || !must_fire,
                    "{kind:?}: crash at {point} must fire"
                );
            }
            // Far past the op count: nothing fires, every write is acked
            // and recovery reproduces the full acked state.
            let writes = kind
                .writers(7)
                .iter()
                .flatten()
                .filter(|s| !s.writes().is_empty())
                .count();
            let outcome = run_point(kind, 7, 2 * total).unwrap();
            assert!(!outcome.fired, "{kind:?}");
            assert_eq!(outcome.acked, writes, "{kind:?}");
            assert_eq!(outcome.in_flight, 0, "{kind:?}");
            assert_eq!(outcome.in_flight_survived, 0, "{kind:?}");
        }
    }

    fn put(id: i64, v: &str) -> (i64, Option<String>) {
        (id, Some(v.to_string()))
    }

    fn acked_run(in_flight: Vec<InFlight>) -> Run {
        Run {
            ddl_acked: true,
            acks: 3,
            acked: BTreeMap::from([put(1, "a"), put(2, "b"), (3, None)]),
            in_flight,
        }
    }

    fn state(writes: &[(i64, Option<String>)]) -> Option<BTreeMap<i64, String>> {
        Some(materialize(&writes.iter().cloned().collect()))
    }

    fn lost_put(id: i64, v: &str) -> InFlight {
        InFlight {
            writes: vec![put(id, v)],
            min: 0,
            whole: false,
        }
    }

    fn bulk(min: usize) -> InFlight {
        InFlight {
            writes: vec![put(10, "r1"), put(11, "r2"), put(1, "r3"), put(12, "r4")],
            min,
            whole: false,
        }
    }

    #[test]
    fn oracle_rejects_states_no_crash_can_leave() {
        let rejected = |run: &Run, recovered: &[(i64, Option<String>)]| {
            assert!(
                matches!(check(&state(recovered), run), Err(NosqlError::Corrupt(_))),
                "accepted {recovered:?}"
            );
        };
        let run = acked_run(Vec::new());
        // A lost acked write.
        rejected(&run, &[put(1, "a")]);
        // A wrong value on an acked key.
        rejected(&run, &[put(1, "a"), put(2, "x")]);
        // A never-written key.
        rejected(&run, &[put(1, "a"), put(2, "b"), put(7, "z")]);
        // An acked table that vanished.
        assert!(check(&None, &run).is_err());

        // Row 2 of a multi-row insert without row 1.
        rejected(
            &acked_run(vec![bulk(0)]),
            &[put(1, "a"), put(2, "b"), put(11, "r2")],
        );
        // Fewer rows than the completed chunks hold.
        rejected(
            &acked_run(vec![bulk(2)]),
            &[put(1, "a"), put(2, "b"), put(10, "r1")],
        );

        // Two writers' lost-ack puts, one back with another value.
        let run = acked_run(vec![lost_put(20, "x"), lost_put(30, "y")]);
        rejected(
            &run,
            &[put(1, "a"), put(2, "b"), put(20, "x"), put(30, "z")],
        );

        // The error names the diverging id, an acked one first.
        let message = |run: &Run, recovered: &[(i64, Option<String>)]| {
            check(&state(recovered), run).unwrap_err().to_string()
        };
        let lost = message(&run, &[put(1, "a"), put(20, "x")]);
        assert!(lost.contains("id 2 = None"), "{lost}");
        let wrong = message(&run, &[put(1, "a"), put(2, "b"), put(30, "z")]);
        assert!(
            wrong.contains("id 30") && wrong.contains("in-flight"),
            "{wrong}"
        );
    }

    #[test]
    fn oracle_accepts_every_combination_of_lost_acks() {
        let lost = [(20, "w"), (30, "x"), (40, "y"), (50, "z")];
        let run = acked_run(lost.iter().map(|&(id, v)| lost_put(id, v)).collect());
        for mask in 0u32..16 {
            let mut recovered = vec![put(1, "a"), put(2, "b")];
            recovered.extend(
                (0..4)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| put(lost[i].0, lost[i].1)),
            );
            assert_eq!(
                check(&state(&recovered), &run).unwrap(),
                mask.count_ones() as usize,
                "mask {mask:#06b}"
            );
        }
    }

    #[test]
    fn an_in_flight_ingest_is_all_or_nothing() {
        let ingest = InFlight {
            writes: vec![put(1000, "g0"), put(1001, "g1"), put(1002, "g2")],
            min: 0,
            whole: true,
        };
        let run = acked_run(vec![ingest.clone()]);
        let acked = [put(1, "a"), put(2, "b")];
        assert_eq!(check(&state(&acked), &run).unwrap(), 0);
        let all = [&acked[..], &ingest.writes].concat();
        assert_eq!(check(&state(&all), &run).unwrap(), 1);
        for p in 1..3 {
            let part = [&acked[..], &ingest.writes[..p]].concat();
            assert!(check(&state(&part), &run).is_err(), "prefix {p}");
        }
    }

    #[test]
    fn the_bulk_sweep_ingests_fresh_ids_without_the_commit_log() {
        let steps = &Sweep::Bulk.writers(6)[0];
        let ingests: Vec<&Vec<(i64, String)>> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Ingest { rows } => Some(rows),
                _ => None,
            })
            .collect();
        assert_eq!(ingests.len(), INGEST_AFTER.len());
        assert!(ingests[1].windows(2).all(|w| w[0].0 > w[1].0));
        let statement_ids = steps
            .iter()
            .filter(|s| !matches!(s, Step::Ingest { .. }))
            .flat_map(Step::writes);
        assert!(statement_ids.into_iter().all(|(id, _)| id < ID_END));
        // Uninjected: after the two DDL records, an ingest is one SSTable
        // append and one manifest record, and no commit-log append.
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 6);
        let db = Db::open(Sweep::Bulk.open(vfs)).unwrap();
        let rows = ingests[0].clone();
        drive(&db, &[vec![Step::Ingest { rows }]], &handle).unwrap();
        let trace = handle.trace();
        let files: Vec<&str> = trace.iter().map(|op| op.file.as_str()).collect();
        assert_eq!(files.len(), 4, "{files:?}");
        assert!(
            files[2].starts_with("m/t/sst-") && files[3] == "MANIFEST",
            "{files:?}"
        );
    }

    #[test]
    fn oracle_accepts_every_durable_prefix() {
        for min in 0..=4 {
            let run = acked_run(vec![bulk(min)]);
            for p in min..=4 {
                let mut recovered = vec![put(1, "a"), put(2, "b")];
                recovered.extend(bulk(min).writes[..p].iter().cloned());
                assert_eq!(
                    check(&state(&recovered), &run).unwrap(),
                    usize::from(p > 0),
                    "min {min}, prefix {p}"
                );
            }
        }
        // A lost put equal to the acked value: the state with no survivor
        // wins.
        let run = acked_run(vec![lost_put(1, "a")]);
        assert_eq!(check(&state(&[put(1, "a"), put(2, "b")]), &run).unwrap(), 0);
    }
}
