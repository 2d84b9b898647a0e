//! The four workloads. Each is one client thread in a closed loop doing a
//! fixed, seeded amount of work per repetition.

mod cube_window;
mod point_read;
mod row_ingest;
mod scan_mixed;

use crate::cpu::thread_cpu_ns;
use crate::gen::{ObsRow, CREATE_KEYSPACE, CREATE_TABLE};
use crate::trace::Tracer;
use sc_nosql::{
    parse_statement, NosqlError, OpenOptions, QueryResult, QueryRow, Session, SharedDb,
};
use sc_storage::Vfs;
use std::time::{Duration, Instant};

/// A workload's name and the reason it exists (`BENCHMARK.json`'s `why`).
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "cube_window",
        why: "The paper's path, XML to stored cube: 12 reps of one Day window (7,358 tuples) \
              into a fresh store + 600 store-backed point selections. Items are source tuples; \
              bytes_per_item is Table 4's cell.",
    },
    WorkloadInfo {
        name: "row_ingest",
        why: "Write path: 16 reps of 57,000 single-row CQL INSERTs into a fresh engine, flush \
              and merges inline, one op in 20 a memtable-hit SELECT. Bypasses the SSTable read \
              side.",
    },
    WorkloadInfo {
        name: "point_read",
        why: "Read path on 160,000 rows, 5x the 1 MiB block cache: 16 reps of 9,500 point \
              SELECTs (10% absent), one op in 20 an overwrite that never flushes. Bypasses flush \
              and merge.",
    },
    WorkloadInfo {
        name: "scan_mixed",
        why: "Analytics beside writes on 60,000 rows, 2x the cache: 16 reps, each from one \
              SSTable, of 5 cycles of 4,000 overwrites then one GROUP BY scan. Same engine as the \
              row workloads, opposite proportions.",
    },
];

/// Engine policy: identical on every commit, printed in the run header.
pub const MEMTABLE_FLUSH_BYTES: usize = 256 * 1024;
pub const BLOCK_CACHE_BYTES: usize = 1024 * 1024;

pub fn engine_policy() -> OpenOptions {
    OpenOptions::default()
        .vfs(Vfs::memory())
        .memtable_flush_bytes(MEMTABLE_FLUSH_BYTES)
        .block_cache_bytes(BLOCK_CACHE_BYTES)
        .group_commit_delay(Duration::ZERO)
        // Merges run inline on the client thread: flush, merge and byte
        // counts repeat exactly and no second thread competes for a core.
        .compaction_threads(0)
}

pub fn policy_header() -> String {
    format!(
        "engine policy: Vfs::memory, memtable_flush_bytes={MEMTABLE_FLUSH_BYTES}, \
         compaction_threshold=default, block_cache_bytes={BLOCK_CACHE_BYTES}, \
         group_commit_delay=0, compaction_threads=0 (inline), sc_obs stats={}, tracing={}; \
         one client thread, closed loop, {} cores",
        if sc_obs::enabled() { "on" } else { "off" },
        if sc_obs::trace_enabled() {
            "armed"
        } else {
            "disarmed"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Latency of each write operation.
    pub write_ns: Vec<u64>,
    /// Time inside write-side calls that are not an operation of their own
    /// (the `flush_all` + drain that ends an ingest).
    pub write_tail_ns: u64,
    /// Items the write operations wrote.
    pub items_written: u64,
    /// Latency of each read operation.
    pub read_ns: Vec<u64>,
    /// Time inside write operations (the tail included) and inside read
    /// operations, net of what the host took away: see [`Rep::close`].
    pub write_busy_ns: f64,
    pub read_busy_ns: f64,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations whose answer differed from the oracle.
    pub failed: u64,
    /// Wall time of the repetition.
    pub wall_ns: u64,
}

/// Where a stretch of a repetition began, on both clocks.
pub struct Stretch {
    wall: Instant,
    cpu_ns: u64,
    writes: usize,
    reads: usize,
    write_tail_ns: u64,
}

impl Rep {
    /// Opens a stretch: a run of operations, of one kind where the workload
    /// can arrange it, short enough that the host treats all of it alike.
    pub fn stretch(&self) -> Stretch {
        Stretch {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
            writes: self.write_ns.len(),
            reads: self.read_ns.len(),
            write_tail_ns: self.write_tail_ns,
        }
    }

    /// Closes a stretch: the latencies of the operations issued since it
    /// opened, scaled by the share of the stretch's wall time this thread
    /// was on a CPU, go to the busy times. The host takes the core away for
    /// milliseconds at a time, so whichever operation it lands in reads
    /// that much longer by the wall clock; the thread's CPU time leaves it
    /// out (see `cpu.rs`). Throughput is computed from these; a latency
    /// stays the wall clock's, since the median operation meets no burst.
    pub fn close(&mut self, stretch: Stretch) {
        let wall_ns = ns_since(stretch.wall).max(1) as f64;
        let on_cpu = ((thread_cpu_ns() - stretch.cpu_ns) as f64 / wall_ns).min(1.0);
        let writes: u64 = self.write_ns[stretch.writes..].iter().sum();
        let tail = self.write_tail_ns - stretch.write_tail_ns;
        let reads: u64 = self.read_ns[stretch.reads..].iter().sum();
        self.write_busy_ns += (writes + tail) as f64 * on_cpu;
        self.read_busy_ns += reads as f64 * on_cpu;
    }
}

/// A set-up workload. `repetition` does the same seeded work every call.
pub trait Workload {
    /// Puts the store into the state every repetition starts from (a fresh
    /// engine, a table back in one SSTable). The harness's arrangement:
    /// outside the timed region, the trace and the counters.
    fn prepare(&mut self) {}

    fn repetition(&mut self, tr: &mut Tracer) -> Rep;

    /// Flushes and drains, then `(store bytes, live items)`.
    fn footprint(&mut self) -> (u64, u64);

    /// The span inline flushes and merges hide in.
    fn host_span(&self) -> &'static str;

    /// Whether flushes may land in the timed region.
    fn flushes_allowed(&self) -> bool {
        true
    }
}

/// Sets up the named workload; also how many timed repetitions an untraced
/// run of it makes.
pub fn build(name: &str, seed: u64) -> Option<(Box<dyn Workload>, usize)> {
    Some(match name {
        "cube_window" => (Box::new(cube_window::setup(seed)), cube_window::REPS),
        "row_ingest" => (Box::new(row_ingest::setup(seed)), row_ingest::REPS),
        "point_read" => (Box::new(point_read::setup(seed)), point_read::REPS),
        "scan_mixed" => (Box::new(scan_mixed::setup(seed)), scan_mixed::REPS),
        _ => return None,
    })
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One CQL statement through a session: the two calls `execute_cql` makes,
/// called separately so that a traced repetition splits parse from execute.
#[inline]
pub fn exec_cql(
    session: &mut Session,
    cql: &str,
    tr: &mut Tracer,
) -> Result<QueryResult, NosqlError> {
    let stmt = tr.span("cql_parse", || parse_statement(cql))?;
    tr.span("session_execute", || session.execute(&stmt))
}

/// Whether a point SELECT's answer is exactly `expected` (`None`: the key
/// is absent and the answer must have no rows).
pub fn point_answer_matches(result: &QueryResult, expected: Option<&ObsRow>) -> bool {
    match (expected, result.rows()) {
        (None, []) => true,
        (Some(want), [row]) => row_matches(row, want),
        _ => false,
    }
}

fn row_matches(row: &QueryRow, want: &ObsRow) -> bool {
    row.get_int("id").ok() == Some(want.id)
        && row.get_text("station").ok() == Some(want.station_name().as_str())
        && row.get_int("ts").ok() == Some(want.ts)
        && row.get_int("bikes").ok() == Some(want.bikes)
        && row.get_int("docks").ok() == Some(want.docks)
}

/// Opens an engine per `options` with an empty `bench.obs` in it.
pub fn open_table(options: OpenOptions) -> (SharedDb, Session) {
    let db = SharedDb::open(options).expect("engine opens");
    let mut session = db.session();
    session.execute_cql(CREATE_KEYSPACE).expect("keyspace");
    session.execute_cql(CREATE_TABLE).expect("table");
    (db, session)
}

/// Loads `rows` through `session` (set-up, untimed).
pub fn load(session: &mut Session, rows: impl Iterator<Item = ObsRow>) {
    for row in rows {
        session
            .execute_cql(&row.insert_cql())
            .expect("set-up insert");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_shares_out_the_stretchs_own_operations_by_their_wall_time() {
        let mut rep = Rep::default();
        rep.write_ns.push(1_000_000); // before the stretch: not its operation
        let stretch = rep.stretch();
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(5) {
            std::hint::black_box(t);
        }
        rep.write_ns.push(500);
        rep.write_tail_ns += 200;
        rep.read_ns.push(300);
        rep.close(stretch);
        // Spinning is on-CPU time, so most of the wall time counts, never more.
        assert!(rep.write_busy_ns > 70.0 && rep.write_busy_ns <= 700.0);
        assert!((rep.write_busy_ns / rep.read_busy_ns - 700.0 / 300.0).abs() < 1e-9);
    }
}
