//! The work ledger: exact allocation counts of the paper's write path,
//! pinned against a committed golden (`tests/ledger.txt`), so that a change
//! in the work an operation does shows as a diff however noisy the host.
//!
//! Each line is one operation: its name, the heap allocations it made (a
//! `realloc` counts as one), the bytes those asked for, and the rows it
//! handled, which the failure message divides by. Everything runs on this
//! one thread — one `#[test]`, an engine with `compaction_threads = 0` —
//! and each operation runs once to warm lazily built state before the run
//! that is counted, so every count repeats exactly.
//!
//! `WORK_LEDGER_UPDATE=1 cargo test -p sc-bench --test work_ledger`
//! rewrites the golden; quote its diff with the change that moved it.

use sc_core::{MappedDwarf, NosqlDwarfModel, SchemaModel};
use sc_datagen::{BikesGenerator, DatasetSpec};
use sc_dwarf::{Dwarf, TupleSet};
use sc_ingest::extract::ParsedDoc;
use sc_ingest::{extract_into, MissingPolicy, Window};
use sc_nosql::row::Row;
use sc_nosql::sstable::{write_sstable, SstEntry};
use sc_nosql::{CqlValue, Db, OpenOptions};
use sc_storage::Vfs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocations and bytes `op` makes on its second run (the first warms
/// it), and what it returns.
fn counted<T>(mut op: impl FnMut() -> T) -> (u64, u64, T) {
    drop(op());
    let (allocations, bytes) = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    let out = op();
    let allocations = ALLOCATIONS.load(Relaxed) - allocations;
    (allocations, BYTES.load(Relaxed) - bytes, out)
}

const GOLDEN: &str = include_str!("ledger.txt");

#[test]
fn the_write_path_does_the_work_the_ledger_says() {
    let spec = DatasetSpec::for_window(Window::Day).bikes_spec();
    let docs: Vec<String> = BikesGenerator::new(spec).map(|s| s.xml).collect();
    let def = BikesGenerator::cube_def();
    let mut ledger = String::new();
    let mut line = |op: &str, (allocations, bytes): (u64, u64), rows: usize| {
        writeln!(ledger, "{op} {allocations} {bytes} {rows}").unwrap();
    };

    // Feed documents to tuples, as `StreamPipeline::ingest` makes them.
    let (allocations, bytes, tuples) = counted(|| {
        let mut tuples = TupleSet::new(&def.schema());
        for doc in &docs {
            let parsed = ParsedDoc::parse(def.format, doc).expect("well-formed");
            extract_into(&def, &parsed, &mut tuples, MissingPolicy::Skip).expect("extracts");
        }
        tuples
    });
    line("parse_extract.day", (allocations, bytes), docs.len());
    // The owned tree of the same documents.
    let (allocations, bytes, _) = counted(|| {
        let trees = docs
            .iter()
            .map(|d| sc_xml::Document::parse(d).expect("well-formed"));
        trees.map(|doc| doc.root.children.len()).sum::<usize>()
    });
    line("dom_parse.day", (allocations, bytes), docs.len());

    // The mapped cube into a fresh NoSQL-DWARF store.
    let cube = Dwarf::build(def.schema(), tuples);
    let mapped = MappedDwarf::try_new(&cube).expect("maps");
    let options = || OpenOptions::default().compaction_threads(0);
    let mut models = (0..2).map(|_| {
        let mut model = NosqlDwarfModel::with_db(Db::open(options()).expect("opens"));
        model.create_schema().expect("schema");
        model
    });
    let (allocations, bytes, report) = counted(|| {
        let mut model = models.next().expect("one model per run");
        model.store(&mapped, &cube, true).expect("stores")
    });
    line(
        "nosql_dwarf.store.day",
        (allocations, bytes),
        report.node_rows + report.cell_rows,
    );

    // A flush's SSTable: the row workloads' five-column rows.
    let entries: Vec<SstEntry> = (0..4000i64)
        .map(|id| SstEntry {
            key: CqlValue::Int(id).encode_key(),
            row: Some(Row::new(vec![
                CqlValue::Int(id),
                CqlValue::Text(format!("station-{:02}", id % 40)),
                CqlValue::Int(1_446_336_000_000 + id * 60_000),
                CqlValue::Int(id % 41),
                CqlValue::Int(15 + id % 6 * 5),
            ])),
            timestamp: id as u64 + 1,
        })
        .collect();
    let (allocations, bytes, _) =
        counted(|| write_sstable(&Vfs::memory(), "ledger/sst", &entries).expect("writes"));
    line("write_sstable.rows", (allocations, bytes), entries.len());

    if std::env::var_os("WORK_LEDGER_UPDATE").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/ledger.txt");
        std::fs::write(path, &ledger).expect("golden written");
        return;
    }
    let per_row = |text: &str| -> Vec<String> {
        let per = |l: &str| {
            let f: Vec<&str> = l.split(' ').collect();
            let n = |i: usize| f[i].parse::<f64>().unwrap_or(f64::NAN);
            format!("{} {:.2}/row {:.0} B/row", f[0], n(1) / n(3), n(2) / n(3))
        };
        text.lines().map(per).collect()
    };
    assert_eq!(
        ledger,
        GOLDEN,
        "the work moved:\nnow  {:?}\nwas  {:?}\n(rewrite with WORK_LEDGER_UPDATE=1)",
        per_row(&ledger),
        per_row(GOLDEN)
    );
}
