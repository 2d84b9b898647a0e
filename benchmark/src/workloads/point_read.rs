//! `point_read` — the read path on data 5× the block cache; an item is a
//! row.
//!
//! Set-up loads 160,000 rows under the engine policy and flushes, leaving
//! the SSTable shape as the inline policy leaves it. Each repetition issues
//! point SELECTs with uniform keys, one in ten absent (the bloom/fence
//! path); one operation in 20 overwrites one of a fixed set of 500 existing
//! rows, which stays under the flush threshold, so writes here are WAL +
//! memtable only and no flush or merge lands in the timed region.
//! Operations come in blocks, 475 reads then 25 overwrites, so that each
//! kind's time is taken over stretches of its own (`Rep::close`). Plan,
//! `SsTable::probe`, bloom, block cache, block decode and VFS reads
//! dominate.

use super::{
    engine_policy, exec_cql, load, ns_since, open_table, point_answer_matches, Rep, Workload,
};
use crate::gen::{select_cql, shuffled_ids, ObsRow};
use crate::trace::Tracer;
use sc_encoding::Rng;
use sc_nosql::{Session, SharedDb};
use std::collections::HashMap;
use std::time::Instant;

/// Timed repetitions of an untraced run.
pub const REPS: usize = 16;

const ROWS: usize = 160_000;
const READS_PER_BLOCK: usize = 475;
const WRITES_PER_BLOCK: usize = 25;
const BLOCKS: usize = 20;
const READS: usize = BLOCKS * READS_PER_BLOCK;
/// One read in this many asks for a key that was never written.
const ABSENT_ONE_IN: u64 = 10;
/// Distinct keys the overwrites cycle through. The memtable keeps at most
/// two versions of each (the older one goes when the next write of the key
/// arrives), about 140 B apiece: ~140 KiB, under the 256 KiB flush
/// threshold however many repetitions run.
const OVERWRITTEN_KEYS: u64 = 500;

struct Read {
    cql: String,
    id: i64,
}

struct Overwrite {
    cql: String,
    row: ObsRow,
}

pub struct PointRead {
    db: SharedDb,
    session: Session,
    /// Oracle: the row last written under each key.
    oracle: HashMap<i64, ObsRow>,
    reads: Vec<Read>,
    /// The same keys and values every repetition.
    overwrites: Vec<Overwrite>,
}

pub fn setup(seed: u64) -> PointRead {
    let mut rng = Rng::new(seed);
    let (db, mut session) = open_table(engine_policy());
    // Present keys are even, absent ones odd: an absent key lies between
    // present ones, so key fences cannot reject it and the bloom filter is
    // what answers.
    let ids: Vec<i64> = shuffled_ids(&mut rng, ROWS)
        .into_iter()
        .map(|i| i * 2)
        .collect();
    load(&mut session, ids.iter().map(|&id| ObsRow::new(seed, id, 0)));
    db.flush_all().expect("flush_all");
    db.drain_compactions();
    let oracle = ids
        .iter()
        .map(|&id| (id, ObsRow::new(seed, id, 0)))
        .collect();

    let reads = (0..READS)
        .map(|_| {
            let absent = rng.gen_range(ABSENT_ONE_IN) == 0;
            let id = 2 * rng.gen_range(ROWS as u64) as i64 + i64::from(absent);
            Read {
                cql: select_cql(id),
                id,
            }
        })
        .collect();
    let overwritten: Vec<i64> = (0..OVERWRITTEN_KEYS)
        .map(|_| 2 * rng.gen_range(ROWS as u64) as i64)
        .collect();
    let overwrites = (0..BLOCKS * WRITES_PER_BLOCK)
        .map(|i| {
            let row = ObsRow::new(seed, overwritten[i % overwritten.len()], 1);
            Overwrite {
                cql: row.insert_cql(),
                row,
            }
        })
        .collect();
    PointRead {
        db,
        session,
        oracle,
        reads,
        overwrites,
    }
}

impl Workload for PointRead {
    fn repetition(&mut self, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        let mut rep = Rep {
            write_ns: Vec::with_capacity(self.overwrites.len()),
            read_ns: Vec::with_capacity(self.reads.len()),
            ..Rep::default()
        };
        let blocks = self
            .reads
            .chunks(READS_PER_BLOCK)
            .zip(self.overwrites.chunks(WRITES_PER_BLOCK));
        for (reads, overwrites) in blocks {
            let stretch = rep.stretch();
            for read in reads {
                tr.begin_op();
                let t = Instant::now();
                let got = exec_cql(&mut self.session, &read.cql, tr);
                rep.read_ns.push(ns_since(t));
                if !got.is_ok_and(|r| point_answer_matches(&r, self.oracle.get(&read.id))) {
                    rep.failed += 1;
                }
                tr.end_op();
            }
            rep.close(stretch);
            let stretch = rep.stretch();
            for write in overwrites {
                tr.begin_op();
                let t = Instant::now();
                let done = exec_cql(&mut self.session, &write.cql, tr);
                rep.write_ns.push(ns_since(t));
                rep.failed += u64::from(done.is_err());
                self.oracle.insert(write.row.id, write.row.clone());
                tr.end_op();
            }
            rep.close(stretch);
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
        (bytes.as_bytes(), self.oracle.len() as u64)
    }

    fn host_span(&self) -> &'static str {
        "session_execute"
    }

    fn flushes_allowed(&self) -> bool {
        false
    }
}
