//! `scan_mixed` — analytics beside writes on data 2× the block cache; an
//! item is a row.
//!
//! Set-up loads 60,000 rows and flushes. Before each repetition the table is
//! put back into one SSTable and an empty memtable (untimed, like the fresh
//! engine `row_ingest` opens), so every repetition does identical work: five
//! cycles of: overwrite 4,000 existing rows (ten inline
//! flushes and one merge per repetition fall in the timed region and evict
//! cached blocks; the row count stays constant, so every repetition scans
//! the same amount), then one `GROUP BY` aggregate over the whole table.
//! Without the reset the SSTable count — and with it the scan's cost — climbs
//! for twelve repetitions and drops at a major merge: per-repetition scan
//! p50s ranged 56–120 ms within one run.
//!
//! The exec operators, projection pruning and the memtable + SSTable merge
//! on scan dominate. Same engine as `point_read` and `row_ingest` in the
//! opposite proportions: a scan gain paid for by writes, or the reverse,
//! shows as a regression in the other column.

use super::{engine_policy, exec_cql, load, ns_since, open_table, Rep, Workload};
use crate::gen::{shuffled_ids, ObsRow, STATIONS, TABLE};
use crate::trace::Tracer;
use sc_encoding::Rng;
use sc_nosql::{CqlValue, QueryResult, Session, SharedDb};
use std::time::Instant;

/// Timed repetitions of an untraced run.
pub const REPS: usize = 16;

const ROWS: usize = 60_000;
const CYCLES: usize = 5;
const OVERWRITES_PER_CYCLE: usize = 4000;

pub struct ScanMixed {
    seed: u64,
    db: SharedDb,
    session: Session,
    rng: Rng,
    /// Oracle: the row last written under each key (index = key).
    rows: Vec<ObsRow>,
    /// How many times each key has been written.
    versions: Vec<u64>,
    /// Oracle: `(COUNT(*), SUM(bikes))` per station, kept as rows change.
    aggregate: Vec<(i64, i64)>,
    scan_cql: String,
}

pub fn setup(seed: u64) -> ScanMixed {
    let mut rng = Rng::new(seed);
    let (db, mut session) = open_table(engine_policy());
    let ids = shuffled_ids(&mut rng, ROWS);
    load(&mut session, ids.iter().map(|&id| ObsRow::new(seed, id, 0)));
    db.flush_all().expect("flush_all");
    db.drain_compactions();
    let rows: Vec<ObsRow> = (0..ROWS as i64)
        .map(|id| ObsRow::new(seed, id, 0))
        .collect();
    let mut aggregate = vec![(0, 0); STATIONS as usize];
    for row in &rows {
        let slot = &mut aggregate[row.station as usize];
        slot.0 += 1;
        slot.1 += row.bikes;
    }
    ScanMixed {
        seed,
        db,
        session,
        rng,
        rows,
        versions: vec![0; ROWS],
        aggregate,
        scan_cql: format!("SELECT station, COUNT(*), SUM(bikes) FROM {TABLE} GROUP BY station"),
    }
}

impl ScanMixed {
    fn next_overwrite(&mut self) -> ObsRow {
        let id = self.rng.gen_range(ROWS as u64) as usize;
        self.versions[id] += 1;
        let new = ObsRow::new(self.seed, id as i64, self.versions[id]);
        let old = std::mem::replace(&mut self.rows[id], new.clone());
        let slot = &mut self.aggregate[old.station as usize];
        slot.0 -= 1;
        slot.1 -= old.bikes;
        let slot = &mut self.aggregate[new.station as usize];
        slot.0 += 1;
        slot.1 += new.bikes;
        new
    }

    /// Whether a GROUP BY answer is exactly the oracle's aggregate.
    fn aggregate_matches(&self, result: &QueryResult) -> bool {
        let mut got: Vec<(String, i64, i64)> = Vec::with_capacity(result.len());
        for row in result.rows() {
            match row.values() {
                [CqlValue::Text(station), CqlValue::Int(count), CqlValue::Int(sum)] => {
                    got.push((station.clone(), *count, *sum));
                }
                _ => return false,
            }
        }
        got.sort();
        let want: Vec<(String, i64, i64)> = self
            .aggregate
            .iter()
            .enumerate()
            .filter(|(_, (count, _))| *count > 0)
            .map(|(station, (count, sum))| (format!("station-{station:02}"), *count, *sum))
            .collect();
        got == want
    }
}

impl Workload for ScanMixed {
    fn prepare(&mut self) {
        self.db.flush_all().expect("flush_all");
        self.db.compact_all().expect("compact_all");
    }

    fn repetition(&mut self, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        let mut rep = Rep {
            write_ns: Vec::with_capacity(CYCLES * OVERWRITES_PER_CYCLE),
            read_ns: Vec::with_capacity(CYCLES),
            ..Rep::default()
        };
        for _ in 0..CYCLES {
            let stretch = rep.stretch();
            for _ in 0..OVERWRITES_PER_CYCLE {
                let cql = self.next_overwrite().insert_cql();
                tr.begin_op();
                let t = Instant::now();
                let done = exec_cql(&mut self.session, &cql, tr);
                rep.write_ns.push(ns_since(t));
                rep.failed += u64::from(done.is_err());
                tr.end_op();
            }
            rep.close(stretch);
            let stretch = rep.stretch();
            tr.begin_op();
            let t = Instant::now();
            let got = exec_cql(&mut self.session, &self.scan_cql, tr);
            rep.read_ns.push(ns_since(t));
            rep.close(stretch);
            if !got.is_ok_and(|r| self.aggregate_matches(&r)) {
                rep.failed += 1;
            }
            tr.end_op();
        }
        rep.items_written = rep.write_ns.len() as u64;
        rep.attempted = (rep.write_ns.len() + rep.read_ns.len()) as u64;
        rep.wall_ns = ns_since(started);
        rep
    }

    fn footprint(&mut self) -> (u64, u64) {
        self.db.flush_all().expect("flush_all");
        self.db.drain_compactions();
        let bytes = self.db.keyspace_size("bench").expect("keyspace exists");
        (bytes.as_bytes(), ROWS as u64)
    }

    fn host_span(&self) -> &'static str {
        "session_execute"
    }
}
