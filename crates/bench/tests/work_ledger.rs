//! The work ledger: exact allocation counts of the paper's write path and
//! of its store-backed reads, pinned against a committed golden
//! (`tests/ledger.txt`), so that a change in the work an operation does
//! shows as a diff however noisy the host.
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

use sc_core::{MappedDwarf, NosqlDwarfModel, SchemaModel, StoreBackedCube};
use sc_datagen::{BikesGenerator, DatasetSpec};
use sc_dwarf::{Dwarf, Selection, TupleSet};
use sc_encoding::Rng;
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

    // The read side: the cube's store read back, as `cube_window` reads it
    // (a 1 MiB block cache, a 64-node cache, 600 seeded point selections
    // over real facts with about one dimension in three aggregated out).
    let mut model =
        NosqlDwarfModel::with_db(Db::open(options().block_cache_bytes(1 << 20)).expect("opens"));
    model.create_schema().expect("schema");
    let schema_id = model.store(&mapped, &cube, true).expect("stores").schema_id;
    let mut rng = Rng::new(1);
    let facts = cube.extract_tuples();
    let selections: Vec<Vec<Selection>> = (0..600)
        .map(|_| {
            let (path, _) = &facts[rng.gen_range(facts.len() as u64) as usize];
            let pick = |v: &String| match rng.gen_range(3) {
                0 => Selection::All,
                _ => Selection::value(v.as_str()),
            };
            path.iter().map(pick).collect()
        })
        .collect();
    let mut stored = StoreBackedCube::open_with_cache(&mut model, schema_id, 64).expect("opens");
    let (allocations, bytes, _) = counted(|| {
        (selections.iter())
            .map(|sel| stored.point(sel).expect("point").unwrap_or(0))
            .sum::<i64>()
    });
    line(
        "store_backed.point.day",
        (allocations, bytes),
        selections.len(),
    );
    // `Db::get_rows` alone, as a node fetch asks: the node row's cell ids
    // by one key, present and absent, then the cells of the node with the
    // most of them in one batch.
    let db = model.db_mut();
    let nodes = db
        .execute_cql("SELECT id, childrenIds FROM smartcity.dwarf_node")
        .expect("nodes");
    let node = (nodes.iter())
        .max_by_key(|row| row.get_int_set("childrenIds").expect("cell ids").len())
        .expect("nodes stored");
    let id = node.get_int("id").expect("node id");
    let cells = node.get_int_set("childrenIds").expect("cell ids").to_vec();
    let node_row = |id: i64| {
        db.get_rows(
            "smartcity",
            "dwarf_node",
            &["childrenIds"],
            [CqlValue::Int(id)],
        )
        .expect("reads")
    };
    let (allocations, bytes, _) = counted(|| node_row(id));
    line("get_rows.present.1key", (allocations, bytes), 1);
    let (allocations, bytes, _) = counted(|| node_row(-1));
    line("get_rows.absent.1key", (allocations, bytes), 1);
    let columns = ["key", "measure", "pointerNode"];
    let (allocations, bytes, _) = counted(|| {
        let keys = cells.iter().map(|&id| CqlValue::Int(id));
        db.get_rows("smartcity", "dwarf_cell", &columns, keys)
            .expect("reads")
    });
    line("get_rows.cells.in", (allocations, bytes), cells.len());

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
