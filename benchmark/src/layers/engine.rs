//! sc-nosql and sc-storage, one component at a time, on a 60,000-row table
//! loaded under the engine policy (twice the block cache).
//!
//! The memtable is private to sc-nosql, so `nosql.memtable.put_ns` and
//! `get_ns` are the narrowest public path to it: a pre-parsed single-row
//! INSERT / point SELECT through `Session::execute` on an engine that never
//! flushes (put = commit-log append + memtable put; get = plan + memtable
//! get + row materialisation). `nosql.commitlog.append_ns` times the log
//! alone, so the memtable's part of a put is the difference.

use super::{median_ns, per_second};
use crate::gen::{select_cql, shuffled_ids, ObsRow, TABLE};
use crate::metrics::Report;
use crate::obsx::{ratio, ObsSnapshot};
use crate::stats::percentile;
use crate::workloads::{engine_policy, load, open_table, point_answer_matches};
use sc_encoding::Rng;
use sc_nosql::cache::BlockCache;
use sc_nosql::commitlog::{CommitLog, LogRecord};
use sc_nosql::plan::{plan_select, TableStats};
use sc_nosql::sstable::{write_sstable, SsTable, SstEntry};
use sc_nosql::{
    parse_statement, ColumnDef, CqlType, CqlValue, Session, SharedDb, Statement, TableDef,
};
use sc_storage::Vfs;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 60_000;
/// Statements per pass of the parse / plan / put / get probes.
const STATEMENTS: usize = 20_000;
const PASSES: usize = 3;
/// Passes of the probes that read or write a whole table.
const TABLE_PASSES: usize = 3;
/// Keys of the hot set: ~500 rows in well under 1 MiB of blocks.
const HOT_KEYS: usize = 500;

pub fn run(seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed);
    // Even keys present, odd keys absent, as in `point_read`.
    let ids: Vec<i64> = shuffled_ids(&mut rng, ROWS)
        .into_iter()
        .map(|i| i * 2)
        .collect();
    let rows: Vec<ObsRow> = ids.iter().map(|&id| ObsRow::new(seed, id, 0)).collect();
    let inserts: Vec<String> = rows[..STATEMENTS].iter().map(ObsRow::insert_cql).collect();
    let selects: Vec<String> = ids[..STATEMENTS].iter().map(|&id| select_cql(id)).collect();
    let n = PASSES as u64;

    parse_and_plan(report, &inserts, &selects);
    foreground_write_and_memtable(report, &inserts, &selects, &rows);

    let vfs = Vfs::memory();
    let (db, mut session) = open_table(engine_policy().vfs(vfs.clone()));
    load(&mut session, rows.iter().cloned());
    db.flush_all().expect("flush_all");
    db.drain_compactions();

    sstable_probes(report, &vfs, &mut rng);
    hot_reads(report, &mut session, &rows, &mut rng);
    scans(report, &mut session);

    // The block cache alone: hits on a full 1 MiB cache.
    let cache = BlockCache::new(crate::workloads::BLOCK_CACHE_BYTES);
    let block = Arc::new(vec![0u8; 4096]);
    for i in 0..200u64 {
        cache.insert("probe", i * 4096, Arc::clone(&block));
    }
    let offsets: Vec<u64> = (0..100_000).map(|_| rng.gen_range(200) * 4096).collect();
    let ns = median_ns(PASSES, || {
        offsets
            .iter()
            .filter(|&&o| cache.get("probe", o).is_some())
            .count()
    });
    report.set("nosql.block_cache.get_ns", ns / offsets.len() as f64, n);

    background_ingest(report, &rows);
    recovery(report, &rows);
}

fn parse_all(texts: &[String]) -> Vec<Statement> {
    texts
        .iter()
        .map(|t| parse_statement(t).expect("parses"))
        .collect()
}

/// CQL text to statement, and statement to plan.
fn parse_and_plan(report: &mut Report, inserts: &[String], selects: &[String]) {
    let n = PASSES as u64;
    let ns = median_ns(PASSES, || parse_all(inserts));
    report.set("nosql.cql.parse_insert_ns", ns / inserts.len() as f64, n);
    let ns = median_ns(PASSES, || parse_all(selects));
    report.set("nosql.cql.parse_select_ns", ns / selects.len() as f64, n);

    let column = |name: &str, ty: CqlType| ColumnDef {
        name: name.to_string(),
        ty,
    };
    let def = TableDef::new(
        "bench",
        "obs",
        vec![
            column("id", CqlType::Int),
            column("station", CqlType::Text),
            column("ts", CqlType::Int),
            column("bikes", CqlType::Int),
            column("docks", CqlType::Int),
        ],
        "id",
    )
    .expect("valid definition");
    let stats = TableStats {
        rows: ROWS as u64,
        sstables: 4,
        cache_hit_rate: 0.5,
    };
    let parsed = parse_all(selects);
    let ns = median_ns(PASSES, || {
        parsed
            .iter()
            .filter(|stmt| match stmt {
                Statement::Select {
                    columns,
                    where_clause,
                    group_by,
                    order_by,
                    limit,
                    ..
                } => plan_select(
                    &def,
                    columns,
                    where_clause,
                    group_by,
                    order_by.as_ref(),
                    *limit,
                    &stats,
                )
                .is_ok(),
                _ => false,
            })
            .count()
    });
    report.set("nosql.plan.plan_select_ns", ns / parsed.len() as f64, n);
}

/// The write a client waits for (commit log + memtable), the log alone,
/// and a read the memtable answers.
fn foreground_write_and_memtable(
    report: &mut Report,
    inserts: &[String],
    selects: &[String],
    rows: &[ObsRow],
) {
    let (puts, gets) = (parse_all(inserts), parse_all(selects));
    let mut put_ns = Vec::new();
    let mut get_ns = Vec::new();
    for _ in 0..3 {
        // Never flushes: the threshold is far above what the probe writes.
        let (_db, mut session) = open_table(engine_policy().memtable_flush_bytes(1 << 30));
        let t = Instant::now();
        for stmt in &puts {
            session.execute(stmt).expect("insert");
        }
        put_ns.push(t.elapsed().as_nanos() as f64 / puts.len() as f64);
        let t = Instant::now();
        let mut right = 0;
        for (stmt, row) in gets.iter().zip(rows) {
            let got = session.execute(stmt).expect("select");
            right += usize::from(point_answer_matches(&got, Some(row)));
        }
        get_ns.push(t.elapsed().as_nanos() as f64 / gets.len() as f64);
        assert_eq!(right, gets.len(), "memtable reads returned wrong rows");
    }
    report.set("nosql.memtable.put_ns", crate::stats::median(&put_ns), 3);
    report.set("nosql.memtable.get_ns", crate::stats::median(&get_ns), 3);

    let records: Vec<LogRecord> = rows[..STATEMENTS]
        .iter()
        .enumerate()
        .map(|(i, row)| LogRecord {
            table: TABLE.to_string(),
            key: CqlValue::Int(row.id).encode_key(),
            // The size of an encoded `bench.obs` row body.
            body: vec![0x5a; 40],
            timestamp: i as u64 + 1,
        })
        .collect();
    let ns = median_ns(PASSES, || {
        let log = CommitLog::open(Vfs::memory(), "commitlog");
        for record in &records {
            log.append(record).expect("append");
        }
        log.size()
    });
    report.set(
        "nosql.commitlog.append_ns",
        ns / records.len() as f64,
        PASSES as u64,
    );
}

/// One SSTable of the loaded table, read and written directly.
fn sstable_probes(report: &mut Report, vfs: &Vfs, rng: &mut Rng) {
    let n = PASSES as u64;
    let table_n = TABLE_PASSES as u64;
    let files = vfs.list("bench/obs/sst-").expect("list");
    // The largest file: the one most lookups land in.
    let file = files
        .iter()
        .max_by_key(|f| vfs.len(f).expect("len"))
        .expect("the load flushed");
    let table = SsTable::open(vfs.clone(), file.as_str()).expect("opens");
    let ns = median_ns(TABLE_PASSES, || table.scan().expect("scans").len());
    let entries: Vec<SstEntry> = table.scan().expect("scans");
    report.set(
        "nosql.sstable.scan_rows_per_s",
        per_second(entries.len(), ns),
        table_n,
    );
    let ns = median_ns(TABLE_PASSES, || {
        let out = Vfs::memory();
        write_sstable(&out, "probe", &entries).expect("writes");
        out
    });
    report.set(
        "nosql.sstable.write_rows_per_s",
        per_second(entries.len(), ns),
        table_n,
    );

    // Uncached probes: bloom, index search, one block read and decode for a
    // present key; the bloom alone (bar false positives) for an absent one.
    let present: Vec<&[u8]> = (0..5000)
        .map(|_| {
            entries[rng.gen_range(entries.len() as u64) as usize]
                .key
                .as_slice()
        })
        .collect();
    let ns = median_ns(PASSES, || {
        present
            .iter()
            .filter(|k| table.probe(k).expect("probes").entry.is_some())
            .count()
    });
    report.set("nosql.sstable.probe_hit_ns", ns / present.len() as f64, n);
    let absent: Vec<Vec<u8>> = (0..5000)
        .map(|_| CqlValue::Int(2 * rng.gen_range(ROWS as u64) as i64 + 1).encode_key())
        .collect();
    let ns = median_ns(PASSES, || {
        absent
            .iter()
            .filter(|k| table.probe(k).expect("probes").entry.is_none())
            .count()
    });
    report.set("nosql.sstable.probe_absent_ns", ns / absent.len() as f64, n);
}

/// Point reads of a key set small enough to stay in the block cache.
fn hot_reads(report: &mut Report, session: &mut Session, rows: &[ObsRow], rng: &mut Rng) {
    let hot: Vec<&ObsRow> = (0..HOT_KEYS)
        .map(|_| &rows[rng.gen_range(rows.len() as u64) as usize])
        .collect();
    let mut ns = Vec::with_capacity(HOT_KEYS * 10);
    for pass in 0..11 {
        for row in &hot {
            let cql = select_cql(row.id);
            let t = Instant::now();
            let got = session.execute_cql(&cql).expect("select");
            // The first pass fills the cache.
            if pass > 0 {
                ns.push(t.elapsed().as_nanos() as u64);
            }
            assert!(point_answer_matches(&got, Some(row)), "hot read is wrong");
        }
    }
    let samples = ns.len() as u64;
    report.set(
        "nosql.read.hot_p50_us",
        percentile(&mut ns, 0.5) as f64 / 1e3,
        samples,
    );
}

/// The exec operators over the whole table, a key range and a LIMIT.
fn scans(report: &mut Report, session: &mut Session) {
    let n = TABLE_PASSES as u64;
    let group_by = format!("SELECT station, COUNT(*), SUM(bikes) FROM {TABLE} GROUP BY station");
    let ns = median_ns(TABLE_PASSES, || {
        session.execute_cql(&group_by).expect("scan").len()
    });
    report.set("nosql.exec.scan_rows_per_s", per_second(ROWS, ns), n);
    let count = format!("SELECT COUNT(*) FROM {TABLE}");
    let ns = median_ns(TABLE_PASSES, || {
        session.execute_cql(&count).expect("count").len()
    });
    report.set("nosql.exec.count_us", ns / 1e3, n);

    // Blocks a statement touched: block-cache lookups, hit or miss.
    let blocks_of = |session: &mut Session, cql: &str| -> (f64, f64) {
        let before = ObsSnapshot::take();
        let ns = median_ns(TABLE_PASSES, || {
            session.execute_cql(cql).expect("select").len()
        });
        let d = ObsSnapshot::take().since(before);
        let lookups = d.counter("nosql.block_cache.hit") + d.counter("nosql.block_cache.miss");
        (ns / 1e3, ratio(lookups, TABLE_PASSES as u64))
    };
    let (us, blocks) = blocks_of(
        session,
        &format!("SELECT * FROM {TABLE} WHERE id >= 40000 AND id < 40200"),
    );
    report.set("nosql.exec.range_read_us", us, n);
    report.set("nosql.exec.range_blocks_per_read", blocks, n);
    let (us, blocks) = blocks_of(session, &format!("SELECT * FROM {TABLE} LIMIT 10"));
    report.set("nosql.exec.limit10_us", us, n);
    report.set("nosql.exec.limit10_blocks_read", blocks, n);
}

/// The `row_ingest` write loop with merges on one background thread, the
/// program's shipped arrangement; the gated runs keep them inline.
fn background_ingest(report: &mut Report, rows: &[ObsRow]) {
    let inserts: Vec<String> = rows[..ROWS / 2].iter().map(ObsRow::insert_cql).collect();
    let (db, mut session) = open_table(engine_policy().compaction_threads(1));
    let t = Instant::now();
    for cql in &inserts {
        session.execute_cql(cql).expect("insert");
    }
    db.flush_all().expect("flush_all");
    db.drain_compactions();
    report.set(
        "nosql.ingest_rows_per_s.background_1t",
        per_second(inserts.len(), t.elapsed().as_nanos() as f64),
        inserts.len() as u64,
    );
}

/// Reopening an engine whose rows are all still in the commit log.
fn recovery(report: &mut Report, rows: &[ObsRow]) {
    let vfs = Vfs::memory();
    let unflushed = || {
        engine_policy()
            .vfs(vfs.clone())
            .memtable_flush_bytes(1 << 30)
    };
    {
        let (_db, mut session) = open_table(unflushed());
        load(&mut session, rows[..STATEMENTS].iter().cloned());
    }
    let before = ObsSnapshot::take();
    let t = Instant::now();
    let db = SharedDb::open(unflushed().recover(true)).expect("recovers");
    let ns = t.elapsed().as_nanos() as f64;
    let replayed = ObsSnapshot::take()
        .since(before)
        .counter("nosql.recovery.replayed_records");
    assert_eq!(
        replayed, STATEMENTS as u64,
        "recovery lost or invented rows"
    );
    drop(db);
    report.set(
        "nosql.recovery.replay_rows_per_s",
        per_second(STATEMENTS, ns),
        replayed,
    );
}
