//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [table2|table4|table5|fig2|fig3|fig4|query|serve|all]
//!       [--scale F] [--full] [--stats] [--explain]
//!       [--port N] [--metrics-port N] [--token TENANT=TOKEN] [--slow-ms N]
//! ```
//!
//! * `--scale F` runs each dataset at fraction `F` of the paper's tuple
//!   count (default 0.1).
//! * `--full` is shorthand for `--scale 1.0` (SMonth = 1 181 344 tuples;
//!   expect minutes).
//! * `query` stores a cube in the NoSQL-DWARF model and answers point and
//!   range queries straight from the stored rows through the cached,
//!   batched store cursor, reporting per-query read counters (rows
//!   fetched, batched SELECTs, cache hit ratio) cold and warm, and the
//!   data blocks the cold point query read; then times the same point
//!   on NoSQL-Min, which reads through its secondary index (§5.1's
//!   contrast). `--explain` first prints the planner trees of the store's
//!   query shapes.
//! * `serve` starts the sc-server network front door and serves until
//!   interrupted: `--port`/`--metrics-port` (default 0 = ephemeral),
//!   `--token TENANT=TOKEN` (repeatable; default `demo=demo-token`),
//!   `--slow-ms N` slow-query threshold.
//! * `all` prints Figures 2–4, Table 2, Tables 4 and 5, then runs `query`.
//! * `--stats` appends the registry text report after any subcommand.
//!   After `table4`/`table5` it first prints NoSQL-DWARF's store path per
//!   window: its node and cell tables' rows, memtable puts, commit-log
//!   bytes and flushes.
//!
//! Absolute numbers differ from the paper (different hardware, embedded
//! engines instead of server processes); the *shape* — who wins, by what
//! factor, where the crossovers are — is the reproduction target. See
//! EXPERIMENTS.md for a recorded comparison.

use sc_bench::{prepare_dataset, run_model, PreparedDataset};
use sc_core::models::{
    ModelKind, MysqlDwarfModel, NosqlDwarfModel, NosqlMinModel, SchemaModel, StoreReport,
};
use sc_core::transform::cell_to_cql;
use sc_core::MappedDwarf;
use sc_dwarf::{CubeSchema, Dwarf, TupleSet};
use sc_ingest::Window;
use sc_nosql::TableWrites;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_string();
    let mut scale = 0.1f64;
    let mut stats = false;
    let mut port = 0u16;
    let mut metrics_port = 0u16;
    let mut tokens: Vec<(String, String)> = Vec::new();
    let mut slow_ms = 100u64;
    let mut explain = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                i += 1;
                port = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--port needs a port number"));
            }
            "--metrics-port" => {
                i += 1;
                metrics_port = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--metrics-port needs a port number"));
            }
            "--token" => {
                i += 1;
                let pair = args
                    .get(i)
                    .and_then(|s| s.split_once('='))
                    .unwrap_or_else(|| usage("--token needs TENANT=TOKEN"));
                tokens.push((pair.0.to_string(), pair.1.to_string()));
            }
            "--slow-ms" => {
                i += 1;
                slow_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--slow-ms needs a non-negative integer"));
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number in (0, 1]"));
            }
            "--full" => scale = 1.0,
            "--stats" => stats = true,
            "--explain" => explain = true,
            c @ ("table2" | "table4" | "table5" | "fig2" | "fig3" | "fig4" | "query" | "serve"
            | "all") => {
                command = c.to_string();
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if !(scale > 0.0 && scale <= 1.0) {
        usage("--scale must be in (0, 1]");
    }

    match command.as_str() {
        "table2" => table2(scale),
        "table4" | "table5" => tables45(scale, command == "table4", command == "table5", stats),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "query" => query(scale, explain),
        "serve" => serve(port, metrics_port, tokens, slow_ms),
        "all" => {
            fig2();
            fig3();
            fig4();
            table2(scale);
            tables45(scale, true, true, stats);
            query(scale, explain);
        }
        _ => unreachable!(),
    }
    if stats {
        header("Observability: registry report (--stats)");
        print!("{}", sc_obs::Registry::global().snapshot().to_text_report());
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [table2|table4|table5|fig2|fig3|fig4|query|serve|all] \
         [--scale F] [--full] [--stats] [--explain] \
         [--port N] [--metrics-port N] [--token TENANT=TOKEN] [--slow-ms N]"
    );
    std::process::exit(2);
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Table 2: the dataset catalog (raw XML size + tuple counts).
fn table2(scale: f64) {
    header(&format!(
        "Table 2: The datasets used in the experiments (scale {scale})"
    ));
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "", "Day", "Week", "Month", "TMonth", "SMonth"
    );
    let mut sizes = Vec::new();
    let mut counts = Vec::new();
    let mut paper_sizes = Vec::new();
    let mut paper_counts = Vec::new();
    for w in Window::ALL {
        let d = prepare_dataset(w, scale, true);
        sizes.push(format!("{:.1}", d.raw_xml_bytes as f64 / (1024.0 * 1024.0)));
        counts.push(format!("{}", d.generated_tuples));
        paper_sizes.push(format!("{}", d.spec.paper_size_mb));
        paper_counts.push(format!("{}", d.spec.paper_tuples));
    }
    print_row("Size (MB), measured", &sizes);
    print_row("Size (MB), paper", &paper_sizes);
    print_row("Tuples, generated", &counts);
    print_row("Tuples, paper", &paper_counts);
}

fn print_row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>8}");
    }
    println!();
}

/// Tables 4 and 5: storage size and insertion time for the four models;
/// with `stats`, what NoSQL-DWARF's node and cell rows cost the engine.
fn tables45(scale: f64, show4: bool, show5: bool, stats: bool) {
    let datasets: Vec<PreparedDataset> = Window::ALL
        .into_iter()
        .map(|w| {
            eprintln!("preparing {w} at scale {scale}...");
            prepare_dataset(w, scale, false)
        })
        .collect();
    let mut sizes: Vec<Vec<String>> = vec![Vec::new(); ModelKind::ALL.len()];
    let mut times: Vec<Vec<String>> = vec![Vec::new(); ModelKind::ALL.len()];
    let store_rows = ["rows", "memtable puts", "commit-log bytes", "flushes"];
    let mut store_path: Vec<Vec<String>> = vec![Vec::new(); store_rows.len()];
    for d in &datasets {
        eprintln!(
            "storing {} ({} facts, {} nodes, {} cells)...",
            d.spec.window,
            d.cube.tuple_count(),
            d.cube.node_count(),
            d.cube.cell_count()
        );
        for (k, kind) in ModelKind::ALL.into_iter().enumerate() {
            let report = match kind {
                ModelKind::NosqlDwarf => {
                    let (report, tables) = store_nosql_dwarf(&d.cube);
                    let sum = |f: fn(&TableWrites) -> u64| tables.iter().map(f).sum::<u64>();
                    let cells = [
                        (report.node_rows + report.cell_rows) as u64,
                        sum(|w| w.memtable_puts),
                        sum(|w| w.commitlog_bytes),
                        sum(|w| w.flushes),
                    ];
                    for (row, cell) in store_path.iter_mut().zip(cells) {
                        row.push(cell.to_string());
                    }
                    report
                }
                _ => run_model(kind, &d.cube),
            };
            sizes[k].push(report.size.paper_mb());
            times[k].push(format!("{}", report.elapsed.as_millis()));
        }
    }
    let labels: Vec<&str> = ModelKind::ALL.iter().map(|k| k.label()).collect();
    if show4 {
        header(&format!(
            "Table 4: DWARF storage performance — Size (MB) used to store a \
             DWARF cube (scale {scale})"
        ));
        println!(
            "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "", "Day", "Week", "Month", "TMonth", "SMonth"
        );
        for (label, row) in labels.iter().zip(&sizes) {
            print_row14(label, row);
        }
        println!("\nPaper's full-scale reference:");
        print_row14("MySQL-DWARF", &strs(&["2", "20", "80", "169", "424"]));
        print_row14("MySQL-Min", &strs(&["< 1", "8", "33", "70", "178"]));
        print_row14("NoSQL-DWARF", &strs(&["< 1", "9", "35", "73", "182"]));
        print_row14("NoSQL-Min", &strs(&["< 1", "11", "45", "96", "243"]));
    }
    if show5 {
        header(&format!(
            "Table 5: DWARF storage time performance — Time (ms) taken to \
             insert a DWARF cube (scale {scale})"
        ));
        println!(
            "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "", "Day", "Week", "Month", "TMonth", "SMonth"
        );
        for (label, row) in labels.iter().zip(&times) {
            print_row14(label, row);
        }
        println!("\nPaper's full-scale reference:");
        print_row14(
            "MySQL-DWARF",
            &strs(&["1768", "12501", "47247", "100466", "255098"]),
        );
        print_row14(
            "MySQL-Min",
            &strs(&["1107", "5955", "22243", "47936", "121221"]),
        );
        print_row14(
            "NoSQL-DWARF",
            &strs(&["927", "4368", "15955", "34203", "89257"]),
        );
        print_row14(
            "NoSQL-Min",
            &strs(&["5699", "57153", "222044", "484498", "1219887"]),
        );
    }
    if stats {
        header("NoSQL-DWARF store path (--stats): its node and cell tables' writes");
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "", "Day", "Week", "Month", "TMonth", "SMonth"
        );
        for (label, row) in store_rows.iter().zip(&store_path) {
            print_row(label, row);
        }
    }
}

/// Stores `cube` in a fresh NoSQL-DWARF model, as [`run_model`] does, and
/// reads back what the writes of its node and cell tables cost the engine.
fn store_nosql_dwarf(cube: &Dwarf) -> (StoreReport, [TableWrites; 2]) {
    let mut model = NosqlDwarfModel::in_memory();
    model.create_schema().expect("schema creation");
    let report = model
        .store(&MappedDwarf::new(cube), cube, false)
        .expect("store");
    let db = model.db_mut();
    let tables = ["dwarf_node", "dwarf_cell"];
    (
        report,
        tables.map(|t| db.table_writes("smartcity", t).expect("table")),
    )
}

fn strs(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|s| s.to_string()).collect()
}

fn print_row14(label: &str, cells: &[String]) {
    print!("{label:<14}");
    for c in cells {
        print!(" {c:>8}");
    }
    println!();
}

fn figure1_cube() -> Dwarf {
    let schema = CubeSchema::new(["country", "city", "station"], "bikes");
    let mut ts = TupleSet::new(&schema);
    ts.push(["Ireland", "Dublin", "Fenian St"], 3);
    ts.push(["Ireland", "Dublin", "Smithfield"], 5);
    ts.push(["Ireland", "Cork", "Patrick St"], 2);
    ts.push(["France", "Paris", "Bastille"], 7);
    Dwarf::build(schema, ts)
}

/// Figure 2: the sample DWARF cube, rendered as Graphviz dot.
fn fig2() {
    header("Figures 1 + 2: sample input tuples and the DWARF they produce");
    println!("input (Figure 1): 4 tuples over (country, city, station) with a bikes measure");
    let cube = figure1_cube();
    println!(
        "resulting DWARF: {} nodes, {} cells\n",
        cube.node_count(),
        cube.cell_count()
    );
    println!("{}", cube.to_dot());
}

/// Figure 3: the generated CQL INSERT for the 'Fenian St' cell.
fn fig3() {
    header("Figure 3: sample DWARF cell values and generated CQL");
    let cube = figure1_cube();
    let mapped = MappedDwarf::new(&cube);
    let fenian = mapped
        .cells
        .iter()
        .find(|c| c.key == "Fenian St")
        .expect("cell exists");
    println!("parentNode: DWARF Node (id {})", fenian.parent_node);
    println!("pointerNode: {:?}", fenian.pointer_node);
    println!("key: {:?}", fenian.key);
    println!("measure: {}", fenian.measure);
    println!("id: {}\n", fenian.id);
    println!("{};", cell_to_cql(fenian, "smartcity", 1));
    // Prove it executes.
    let mut model = NosqlDwarfModel::in_memory();
    model.create_schema().expect("schema");
    model
        .db_mut()
        .execute_cql(&cell_to_cql(fenian, "smartcity", 1))
        .expect("generated CQL executes");
    println!("\n(statement parsed and executed by the engine: ✓)");
}

/// Figure 4: the MySQL-DWARF relational schema.
fn fig4() {
    header("Figure 4: MySQL-DWARF schema for a DWARF cube");
    for ddl in MysqlDwarfModel::ddl() {
        println!("{ddl};\n");
    }
}

/// Data blocks the NoSQL engine's point reads have read so far: the sum of
/// `nosql.read.blocks_per_get`, where a block read for several keys of one
/// batch counts once.
fn blocks_read() -> u64 {
    let snap = sc_obs::Registry::global().snapshot();
    let blocks = snap.histogram("nosql.read.blocks_per_get");
    blocks.map_or(0, |h| h.sum)
}

/// Store-backed querying: point and range answered straight from stored
/// NoSQL rows through the cached, batched node cursor.
fn query(scale: f64, explain: bool) {
    use sc_core::StoreBackedCube;
    use sc_dwarf::{RangeSel, Selection};

    header(&format!(
        "repro query: store-backed point + range through the cached cursor \
         (Day, scale {scale})"
    ));
    let d = prepare_dataset(Window::Day, scale, false);
    let cube = &d.cube;
    let mut model = NosqlDwarfModel::in_memory();
    model.create_schema().expect("schema creation");
    let report = model
        .store(&MappedDwarf::new(cube), cube, false)
        .expect("store");
    println!(
        "stored: schema id {}, {} node rows, {} cell rows",
        report.schema_id, report.node_rows, report.cell_rows
    );
    if explain {
        header("repro query --explain: planner trees for the store's query shapes");
        let db = model.db_mut();
        for cql in [
            format!(
                "EXPLAIN SELECT childrenIds FROM smartcity.dwarf_node WHERE id = {}",
                report.schema_id
            ),
            "EXPLAIN SELECT key, measure, pointerNode FROM smartcity.dwarf_cell \
             WHERE id IN (1, 2, 3)"
                .to_string(),
            "EXPLAIN SELECT COUNT(*) FROM smartcity.dwarf_cell".to_string(),
        ] {
            println!("\n{cql}");
            let r = db.execute_cql(&cql).expect("explain");
            for row in r.rows() {
                println!("  {}", row.get_text("plan").expect("plan line"));
            }
        }
    }
    let mut sbc = StoreBackedCube::open(&mut model, report.schema_id).expect("open stored schema");

    // A real fact to query for: the first extracted tuple.
    let tuples = cube.extract_tuples();
    let (path, _) = tuples.first().expect("dataset is non-empty");
    let sel: Vec<Selection> = path.iter().map(|v| Selection::value(v.as_str())).collect();
    let before = blocks_read();
    let got = sbc.point(&sel).expect("store-backed point");
    let cold_blocks = blocks_read() - before;
    assert_eq!(got, cube.point(&sel), "store disagrees with in-memory cube");
    println!("\npoint {path:?} = {got:?} (matches in-memory: ✓)");
    let cold = sbc.stats();
    println!(
        "cold point query: store rows fetched {}, data blocks read {cold_blocks}, \
         SELECTs {} ({} batched), cache hit ratio {:.2}",
        cold.rows_fetched,
        cold.store_selects,
        cold.batched_selects,
        cold.hit_ratio()
    );

    // Range over the last dimension, everything above aggregated out.
    let dims = cube.num_dims();
    let last_keys: Vec<&String> = tuples.iter().map(|(p, _)| &p[dims - 1]).collect();
    let lo = last_keys.iter().min().expect("non-empty");
    let hi = last_keys.iter().max().expect("non-empty");
    let mut rsel = vec![RangeSel::All; dims];
    rsel[dims - 1] = RangeSel::between(lo.as_str(), hi.as_str());
    sbc.reset_stats();
    let rv = sbc.range(&rsel).expect("store-backed range");
    assert_eq!(rv, cube.range(&rsel), "store disagrees with in-memory cube");
    let rstats = sbc.stats();
    println!(
        "\nrange [{lo} .. {hi}] over {:?} = {rv:?} (matches in-memory: ✓)",
        cube.schema().dimension(dims - 1)
    );
    println!(
        "cold range query: store rows fetched {}, batched SELECTs {} for {} \
         node misses (at most one batched SELECT per distinct node: {})",
        rstats.rows_fetched,
        rstats.batched_selects,
        rstats.node_cache_misses,
        if rstats.batched_selects <= rstats.node_cache_misses {
            "✓"
        } else {
            "✗"
        }
    );
    assert!(
        rstats.batched_selects <= rstats.node_cache_misses,
        "batching regressed: more cell SELECTs than node misses"
    );

    // NoSQL-Min answers the same point with no node cache: each node's
    // cells are a posting scan of the parent index, then one batch of
    // base-table probes.
    let mut min = NosqlMinModel::in_memory();
    min.create_schema().expect("schema creation");
    let min_report = min
        .store(&MappedDwarf::new(cube), cube, false)
        .expect("store");
    let mut min_sbc =
        StoreBackedCube::open(&mut min, min_report.schema_id).expect("open stored schema");
    let mut us: Vec<f64> = (0..21)
        .map(|_| {
            let start = std::time::Instant::now();
            let min_got = min_sbc.point(&sel).expect("NoSQL-Min point");
            assert_eq!(min_got, got, "NoSQL-Min disagrees with NoSQL-DWARF");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    let min_stats = min_sbc.stats();
    println!(
        "\nNoSQL-Min point query: store rows fetched {}, median {:.0} µs over {} runs",
        min_stats.rows_fetched / us.len() as u64,
        us[us.len() / 2],
        us.len()
    );

    // The same point query again: the node cache answers it entirely.
    sbc.reset_stats();
    let warm_got = sbc.point(&sel).expect("warm point");
    assert_eq!(warm_got, got, "warm answer diverged");
    let warm = sbc.stats();
    println!(
        "\nwarm point query: store rows fetched {}, cache hit ratio {:.2}",
        warm.rows_fetched,
        warm.hit_ratio()
    );
    assert_eq!(
        warm.rows_fetched, 0,
        "warm identical query touched the store"
    );
}

/// The sc-server network front door: serve until interrupted.
fn serve(port: u16, metrics_port: u16, tokens: Vec<(String, String)>, slow_ms: u64) -> ! {
    use sc_server::{Server, ServerConfig};
    use std::time::Duration;

    let tokens = if tokens.is_empty() {
        vec![("demo".to_string(), "demo-token".to_string())]
    } else {
        tokens
    };
    let mut config = ServerConfig::default().slow_query_threshold(Duration::from_millis(slow_ms));
    config.addr = format!("127.0.0.1:{port}");
    config.metrics_addr = format!("127.0.0.1:{metrics_port}");
    for (tenant, token) in &tokens {
        config = config.tenant(tenant, token);
    }

    let db = sc_nosql::Db::open(sc_nosql::OpenOptions::default()).expect("open engine");
    let server = Server::start(config, db).expect("start server");
    header(&format!(
        "repro serve: CQL protocol on {}, metrics on {}",
        server.addr(),
        server.metrics_addr()
    ));
    for (tenant, _) in &tokens {
        println!("tenant registered: {tenant}");
    }
    println!("serving; interrupt (Ctrl-C) to stop");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
