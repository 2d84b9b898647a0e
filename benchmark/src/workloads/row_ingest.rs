//! `row_ingest` — the write path; an item is a row.
//!
//! Each repetition opens a fresh engine and issues single-row CQL INSERTs
//! in seeded random key order, ending with `flush_all` + drain inside the
//! timed region; one operation in 20 reads back one of the last 1,000 keys
//! (a memtable hit). Operations come in blocks, 475 writes then 25 reads, so
//! that each kind's time is taken over stretches of its own (`Rep::close`).
//! CQL parse, commit log, memtable, flush and merge dominate; the SSTable
//! side of the read path is bypassed.

use super::{engine_policy, exec_cql, ns_since, open_table, point_answer_matches, Rep, Workload};
use crate::gen::{select_cql, shuffled_ids, ObsRow};
use crate::trace::Tracer;
use sc_encoding::Rng;
use sc_nosql::{Session, SharedDb};
use std::time::Instant;

/// Timed repetitions of an untraced run.
pub const REPS: usize = 16;

const WRITES_PER_BLOCK: usize = 475;
const READS_PER_BLOCK: usize = 25;
const ROWS: usize = 120 * WRITES_PER_BLOCK;
/// Reads pick among this many most recently written keys.
const RECENT: u64 = 1000;

struct ReadBack {
    cql: String,
    row: ObsRow,
}

pub struct RowIngest {
    inserts: Vec<String>,
    /// `READS_PER_BLOCK` for each block of writes, in order.
    reads: Vec<ReadBack>,
    /// The repetition's engine: fresh from `prepare`, full afterwards.
    engine: Option<(SharedDb, Session)>,
}

pub fn setup(seed: u64) -> RowIngest {
    let mut rng = Rng::new(seed);
    let ids = shuffled_ids(&mut rng, ROWS);
    let inserts = ids
        .iter()
        .map(|&id| ObsRow::new(seed, id, 0).insert_cql())
        .collect();
    let reads = (0..ROWS / WRITES_PER_BLOCK * READS_PER_BLOCK)
        .map(|i| {
            let written = ((i / READS_PER_BLOCK + 1) * WRITES_PER_BLOCK) as u64;
            let back = rng.gen_range(written.min(RECENT));
            let id = ids[(written - 1 - back) as usize];
            ReadBack {
                cql: select_cql(id),
                row: ObsRow::new(seed, id, 0),
            }
        })
        .collect();
    RowIngest {
        inserts,
        reads,
        engine: None,
    }
}

impl Workload for RowIngest {
    fn prepare(&mut self) {
        // Free the previous repetition's store before building the next.
        self.engine = None;
        self.engine = Some(open_table(engine_policy()));
    }

    fn repetition(&mut self, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        let (db, session) = self.engine.as_mut().expect("prepared");
        let mut rep = Rep {
            write_ns: Vec::with_capacity(self.inserts.len()),
            read_ns: Vec::with_capacity(self.reads.len()),
            ..Rep::default()
        };
        let blocks = self
            .inserts
            .chunks(WRITES_PER_BLOCK)
            .zip(self.reads.chunks(READS_PER_BLOCK));
        for (inserts, reads) in blocks {
            let stretch = rep.stretch();
            for insert in inserts {
                tr.begin_op();
                let t = Instant::now();
                let done = exec_cql(session, insert, tr);
                rep.write_ns.push(ns_since(t));
                rep.failed += u64::from(done.is_err());
                tr.end_op();
            }
            rep.close(stretch);
            let stretch = rep.stretch();
            for read in reads {
                tr.begin_op();
                let t = Instant::now();
                let got = exec_cql(session, &read.cql, tr);
                rep.read_ns.push(ns_since(t));
                if !got.is_ok_and(|r| point_answer_matches(&r, Some(&read.row))) {
                    rep.failed += 1;
                }
                tr.end_op();
            }
            rep.close(stretch);
        }
        let stretch = rep.stretch();
        tr.begin_op();
        let t = Instant::now();
        tr.flush_span(|| {
            db.flush_all().expect("flush_all");
            db.drain_compactions();
        });
        rep.write_tail_ns = ns_since(t);
        tr.end_op();
        rep.close(stretch);

        rep.items_written = self.inserts.len() as u64;
        rep.attempted = (rep.write_ns.len() + rep.read_ns.len()) as u64;
        rep.wall_ns = ns_since(started);
        rep
    }

    fn footprint(&mut self) -> (u64, u64) {
        // The repetition ended flushed and drained.
        let (db, _) = self.engine.as_ref().expect("a repetition ran");
        let bytes = db.keyspace_size("bench").expect("keyspace exists");
        (bytes.as_bytes(), self.inserts.len() as u64)
    }

    fn host_span(&self) -> &'static str {
        "session_execute"
    }
}
