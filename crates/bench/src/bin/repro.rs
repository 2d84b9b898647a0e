//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [table2|table4|table5|fig2|fig3|fig4|stream|crashtest|obs|query|serve|trace|all]
//!       [--scale F] [--full] [--threads N] [--points N] [--seed S] [--stats]
//!       [--port N] [--metrics-port N] [--token TENANT=TOKEN] [--slow-ms N] [--smoke]
//!       [--rows N] [--out PATH]
//! ```
//!
//! * `--scale F` runs each dataset at fraction `F` of the paper's tuple
//!   count (default 0.1).
//! * `--full` is shorthand for `--scale 1.0` (SMonth = 1 181 344 tuples;
//!   expect minutes).
//! * `stream` demonstrates the sharded streaming-ingestion runtime:
//!   `--threads N` (default 4) workers parse the feed in parallel, and the
//!   run reports per-stage counters plus equivalence against the
//!   sequential pipeline.
//! * `crashtest` runs the NoSQL engine's crash matrix, one sweep each for
//!   single statements, multi-row inserts between them and concurrent
//!   sessions: a seeded workload is killed at `--points N` (default 64;
//!   at most 32 for the concurrent sweep) evenly spaced storage operations
//!   (`--points 0` = every operation), recovered, and checked with the
//!   same cell checks against the acknowledged writes. `--seed S` varies
//!   the workloads.
//! * `obs` runs a small end-to-end workload (streaming ingest → NoSQL
//!   flush → cube queries → crash/recovery) and emits the full `sc-obs`
//!   metric registry as a text report, Prometheus exposition and JSON.
//! * `query` stores a cube in the NoSQL-DWARF model and answers point and
//!   range queries straight from the stored rows through the cached,
//!   batched store cursor, reporting per-query read counters (rows
//!   fetched, batched SELECTs, cache hit ratio) cold and warm, and the
//!   data blocks the cold point query read; then times the same point
//!   on NoSQL-Min, which reads through its secondary index.
//! * `serve` starts the sc-server network front door: `--port`/
//!   `--metrics-port` (default 0 = ephemeral), `--token TENANT=TOKEN`
//!   (repeatable; default `demo=demo-token`), `--slow-ms N` slow-query
//!   threshold. `--smoke` runs a self-contained round trip (connect,
//!   INSERT/SELECT, scrape `/metrics`, drained shutdown) and exits.
//! * `trace` runs a traced loopback workload (`--rows N` inserts, point
//!   SELECTs off SSTables, one full scan) and dumps the worst retained
//!   trace: a span tree with engine attribution on stdout, and the Chrome
//!   trace-event JSON (load in `chrome://tracing`) to `--out PATH`.
//! * `--stats` appends the registry text report after any subcommand.
//!
//! Absolute numbers differ from the paper (different hardware, embedded
//! engines instead of server processes); the *shape* — who wins, by what
//! factor, where the crossovers are — is the reproduction target. See
//! EXPERIMENTS.md for a recorded comparison.

use sc_bench::{prepare_dataset, run_model, PreparedDataset};
use sc_core::models::{ModelKind, MysqlDwarfModel, NosqlDwarfModel, NosqlMinModel, SchemaModel};
use sc_core::transform::cell_to_cql;
use sc_core::MappedDwarf;
use sc_dwarf::{CubeSchema, Dwarf, TupleSet};
use sc_ingest::Window;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_string();
    let mut scale = 0.1f64;
    let mut threads = 4usize;
    let mut points = 64usize;
    let mut seed = 0xC0FFEEu64;
    let mut stats = false;
    let mut port = 0u16;
    let mut metrics_port = 0u16;
    let mut tokens: Vec<(String, String)> = Vec::new();
    let mut slow_ms = 100u64;
    let mut smoke = false;
    let mut rows = 4000usize;
    let mut out: Option<String> = None;
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
            "--smoke" => smoke = true,
            "--rows" => {
                i += 1;
                rows = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--rows needs a positive integer"));
            }
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a path")),
                );
            }
            "--points" => {
                i += 1;
                points = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--points needs a non-negative integer"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an unsigned integer"));
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
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
            }
            c @ ("table2" | "table4" | "table5" | "fig2" | "fig3" | "fig4" | "stream"
            | "crashtest" | "obs" | "query" | "serve" | "trace" | "all") => {
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
        "table4" | "table5" => tables45(scale, command == "table4", command == "table5"),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "stream" => stream(scale, threads),
        "crashtest" => crashtest(seed, points),
        "obs" => obs(threads, seed),
        "query" => query(scale, explain),
        "serve" => serve(port, metrics_port, tokens, slow_ms, smoke),
        "trace" => trace_cmd(rows, out.as_deref()),
        "all" => {
            fig2();
            fig3();
            fig4();
            table2(scale);
            tables45(scale, true, true);
            stream(scale, threads);
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
        "usage: repro [table2|table4|table5|fig2|fig3|fig4|stream|crashtest|obs|query|serve|trace|all] \
         [--scale F] [--full] [--threads N] [--points N] [--seed S] [--stats] [--explain] \
         [--port N] [--metrics-port N] [--token TENANT=TOKEN] [--slow-ms N] [--smoke] \
         [--rows N] [--out PATH]"
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

/// Tables 4 and 5: storage size and insertion time for the four models.
fn tables45(scale: f64, show4: bool, show5: bool) {
    let datasets: Vec<PreparedDataset> = Window::ALL
        .into_iter()
        .map(|w| {
            eprintln!("preparing {w} at scale {scale}...");
            prepare_dataset(w, scale, false)
        })
        .collect();
    let mut sizes: Vec<Vec<String>> = vec![Vec::new(); ModelKind::ALL.len()];
    let mut times: Vec<Vec<String>> = vec![Vec::new(); ModelKind::ALL.len()];
    for d in &datasets {
        eprintln!(
            "storing {} ({} facts, {} nodes, {} cells)...",
            d.spec.window,
            d.cube.tuple_count(),
            d.cube.node_count(),
            d.cube.cell_count()
        );
        for (k, kind) in ModelKind::ALL.into_iter().enumerate() {
            let report = run_model(kind, &d.cube);
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

/// Crash matrix: kill the engine at injected storage faults, recover, and
/// verify that exactly the acknowledged writes survive.
fn crashtest(seed: u64, points: usize) {
    use sc_nosql::crashtest::{self as ct, Sweep};
    use std::time::Instant;

    header(&format!(
        "Crash matrix: NoSQL engine power-loss injection (seed {seed})"
    ));
    for kind in Sweep::ALL {
        let title = match kind {
            Sweep::Statements => "statement matrix (puts, deletes, flushes, compactions):".into(),
            Sweep::Bulk => "bulk matrix (multi-row inserts of one to several chunks):".into(),
            Sweep::Concurrent => format!(
                "concurrent matrix ({} writer sessions, group commit):",
                ct::CONCURRENT_WRITERS
            ),
        };
        let limit = match (kind, points) {
            (_, 0) => None,
            (Sweep::Concurrent, n) => Some(n.min(32)),
            (_, n) => Some(n),
        };
        let start = Instant::now();
        let report = ct::sweep(kind, seed, limit).expect("crash matrix must pass");
        let elapsed = start.elapsed();
        println!("\n{title}");
        println!("workload mutating storage ops {:>8}", report.total_ops);
        println!("crash points tested           {:>8}", report.points_tested);
        println!("crashes fired                 {:>8}", report.crashes_fired);
        println!(
            "in-flight statements durable  {:>8}",
            report.in_flight_survived
        );
        println!("elapsed                       {:>7}ms", elapsed.as_millis());
    }
    println!(
        "\nevery recovery reproduced exactly the acknowledged writes, each in-flight \
         statement allowed to persist a whole-row prefix: ✓"
    );
}

/// Streaming ingestion: the sharded worker pool vs the sequential pipeline.
fn stream(scale: f64, threads: usize) {
    use sc_core::models::ModelKind;
    use sc_core::CubeWarehouse;
    use sc_datagen::{BikesGenerator, DatasetSpec};
    use sc_ingest::StreamPipeline;
    use sc_stream::{StreamConfig, StreamIngestor};
    use std::time::Instant;

    header(&format!(
        "Streaming ingestion: {threads} worker shard(s), Week feed at scale {scale}"
    ));
    let spec = DatasetSpec::for_window(Window::Week).scaled_spec(scale);
    let docs: Vec<String> = BikesGenerator::new(spec).map(|s| s.xml).collect();
    let def = BikesGenerator::cube_def();
    eprintln!("generated {} feed documents...", docs.len());

    let start = Instant::now();
    let mut sequential = StreamPipeline::new(def.clone());
    for doc in &docs {
        sequential.ingest(doc).expect("well-formed generated feed");
    }
    let seq_cube = sequential.build_cube();
    let seq_elapsed = start.elapsed();

    let start = Instant::now();
    let ingestor = StreamIngestor::new(def, StreamConfig::with_shards(threads));
    for doc in &docs {
        ingestor.ingest(doc.clone());
    }
    let result = ingestor.finish();
    let mut warehouse = CubeWarehouse::new(ModelKind::NosqlDwarf.build().expect("schema creation"));
    let report = warehouse.store_window(&result.cube, true).expect("store");
    let par_elapsed = start.elapsed();

    let metrics = result.metrics;
    println!("per-stage counters ({threads} shards):");
    println!("  events in            {:>10}", metrics.events_in);
    println!("  events parsed        {:>10}", metrics.events_parsed);
    println!("  events failed        {:>10}", metrics.events_failed);
    println!("  tuples extracted     {:>10}", metrics.tuples_extracted);
    println!("  micro-cubes sealed   {:>10}", metrics.seals);
    println!("  micro-cubes merged   {:>10}", metrics.merges);
    println!("  windows stored       {:>10}", warehouse.stored().len());
    println!("  backpressure stalls  {:>10}", metrics.backpressure_stalls);
    println!(
        "stored in NoSQL-DWARF: schema id {}, {} node rows, {} cell rows, {}",
        report.schema_id, report.node_rows, report.cell_rows, report.size
    );
    println!(
        "sequential {} ms, sharded-plus-store {} ms",
        seq_elapsed.as_millis(),
        par_elapsed.as_millis()
    );
    let equivalent = result.cube.extract_tuples() == seq_cube.extract_tuples();
    println!(
        "equivalence vs sequential pipeline: {}",
        if equivalent {
            "identical facts ✓"
        } else {
            "MISMATCH ✗"
        }
    );
    assert!(equivalent, "sharded ingestion diverged from sequential");
}

/// Observability demo: run a workload that exercises every instrumented
/// crate (stream → dwarf → nosql → storage, plus the fault injector), then
/// emit the global registry in all three exposition formats.
fn obs(threads: usize, seed: u64) {
    use sc_core::models::ModelKind;
    use sc_core::CubeWarehouse;
    use sc_datagen::{BikesGenerator, DatasetSpec};
    use sc_dwarf::{RangeSel, Selection};
    use sc_stream::{StreamConfig, StreamIngestor};

    header(&format!(
        "repro obs: end-to-end ingest with {threads} shard(s), then registry exposition"
    ));

    // Streaming ingest of a small feed into the NoSQL-DWARF model: covers
    // stream.* (sharded pipeline), dwarf.build (micro-cubes + window cube),
    // nosql.* (CQL inserts, commit log, flush) and storage.vfs.*.
    let spec = DatasetSpec::for_window(Window::Day).scaled_spec(0.05);
    let docs: Vec<String> = BikesGenerator::new(spec).map(|s| s.xml).collect();
    let def = BikesGenerator::cube_def();
    let ingestor = StreamIngestor::new(def, StreamConfig::with_shards(threads));
    for doc in &docs {
        ingestor.ingest(doc.clone());
    }
    let cube = ingestor.finish().cube;
    let mut warehouse = CubeWarehouse::new(ModelKind::NosqlDwarf.build().expect("schema creation"));
    let report = warehouse.store_window(&cube, true).expect("store");
    eprintln!(
        "ingested {} documents -> cube with {} facts -> {} node rows, {} cell rows",
        docs.len(),
        cube.tuple_count(),
        report.node_rows,
        report.cell_rows
    );

    // A few cube queries so the dwarf.query.* histograms have samples.
    let d = cube.num_dims();
    cube.point(&vec![Selection::All; d]);
    cube.range(&vec![RangeSel::All; d]);

    // A 4-point crash matrix: trips the fault injector and times recovery.
    sc_nosql::crashtest::sweep(sc_nosql::crashtest::Sweep::Statements, seed, Some(4))
        .expect("crash matrix must pass");

    let snap = sc_obs::Registry::global().snapshot();
    println!("\n---- text report ----");
    print!("{}", snap.to_text_report());
    println!("\n---- prometheus text exposition ----");
    print!("{}", snap.to_prometheus_text());
    println!("\n---- json exposition ----");
    print!("{}", snap.to_json());
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
    drop(min_sbc);

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
    drop(sbc);

    // Absent-key point lookups with ids beyond every SSTable's min/max key
    // fences: the read path must answer them without consulting a bloom
    // filter or reading a single data block. (In-range absent keys are
    // probabilistic — a bloom false positive may read one block — so the
    // deterministic smoke uses fence-rejected keys only.)
    let db = model.db_mut();
    db.flush_all().expect("flush before fence probes");
    let before = blocks_read();
    for id in [i64::MAX - 7, i64::MAX / 2, -1, -12345] {
        let r = db
            .execute_cql(&format!(
                "SELECT id FROM smartcity.dwarf_node WHERE id = {id}"
            ))
            .expect("fence-probe select");
        assert!(r.is_empty(), "id {id} must not exist");
    }
    let blocks = blocks_read() - before;
    println!("\nabsent point lookups beyond the key fences: data blocks read {blocks}");
    assert_eq!(blocks, 0, "fence-rejected lookups read data blocks");
}

/// Raw HTTP GET against the metrics port (the bench carries no HTTP
/// client; 60 lines of socket code is the whole dependency).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics port");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// The sc-server network front door: serve until interrupted, or run the
/// `--smoke` self-check used by CI.
fn serve(port: u16, metrics_port: u16, tokens: Vec<(String, String)>, slow_ms: u64, smoke: bool) {
    use sc_server::client::Client;
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

    let db = sc_nosql::SharedDb::open(sc_nosql::OpenOptions::default()).expect("open engine");
    let server = Server::start(config, db).expect("start server");
    header(&format!(
        "repro serve: CQL protocol on {}, metrics on {}",
        server.addr(),
        server.metrics_addr()
    ));
    for (tenant, _) in &tokens {
        println!("tenant registered: {tenant}");
    }

    if !smoke {
        println!("serving; interrupt (Ctrl-C) to stop");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    // Smoke: one full client round trip over loopback.
    let (_, token) = &tokens[0];
    let mut client = Client::connect(server.addr()).expect("client connect");
    let tenant = client.hello(token).expect("hello");
    client
        .query("CREATE KEYSPACE smoke")
        .expect("create keyspace");
    client
        .query("CREATE TABLE smoke.t (id int, v text, PRIMARY KEY (id))")
        .expect("create table");
    client
        .query("INSERT INTO smoke.t (id, v) VALUES (1, 'round-trip')")
        .expect("insert");
    let rows = client
        .query("SELECT v FROM smoke.t WHERE id = 1")
        .expect("select");
    assert_eq!(
        rows.first().expect("one row").get_text("v").expect("text"),
        "round-trip"
    );
    println!("server smoke: round-trip ok (tenant {tenant}, INSERT + SELECT verified)");

    // Smoke: the metrics port serves Prometheus text with server.* series.
    let scrape = http_get(server.metrics_addr(), "/metrics");
    assert!(
        scrape.starts_with("HTTP/1.1 200"),
        "metrics scrape failed:\n{scrape}"
    );
    assert!(
        scrape.contains("server_requests"),
        "server_requests series missing from scrape:\n{scrape}"
    );
    let health = http_get(server.metrics_addr(), "/healthz");
    assert!(health.contains("ok"), "healthz failed:\n{health}");
    println!("server smoke: metrics ok (server_requests present, healthz ok)");

    // Smoke: the debug port retained at least one trace for the statements
    // above, and a single trace round-trips as Chrome trace-event JSON.
    let listing = http_get(server.metrics_addr(), "/debug/traces");
    assert!(
        listing.starts_with("HTTP/1.1 200"),
        "trace listing failed:\n{listing}"
    );
    let worst_id = listing
        .split("\"trace_id\": \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("no retained trace in /debug/traces");
    let chrome = http_get(server.metrics_addr(), &format!("/debug/traces/{worst_id}"));
    assert!(
        chrome.starts_with("HTTP/1.1 200"),
        "single-trace fetch failed:\n{chrome}"
    );
    let body = chrome
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.trim())
        .expect("chrome export body");
    assert!(
        body.starts_with('[') && body.ends_with(']') && body.contains("\"ph\": \"X\""),
        "not Chrome trace-event JSON:\n{body}"
    );
    assert_eq!(
        body.matches('{').count(),
        body.matches('}').count(),
        "unbalanced Chrome trace JSON"
    );
    // Some span beyond the root request event must have measurable time.
    let child_has_duration = body
        .lines()
        .skip(2)
        .filter_map(|l| l.split("\"dur\": ").nth(1))
        .filter_map(|rest| rest.split(',').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .any(|d| d > 0.0);
    assert!(
        child_has_duration,
        "trace {worst_id} has no nonzero-duration child span:\n{body}"
    );
    println!(
        "server smoke: traces ok (trace {worst_id} retained, Chrome export round-trips, \
         child span has nonzero duration)"
    );

    // Smoke: drained shutdown joins every thread.
    server.shutdown();
    println!("server smoke: shutdown ok (drained)");
}

/// Request tracing demo: drive a traced loopback workload, then dump the
/// worst retained trace as an attributed span tree plus Chrome trace-event
/// JSON (`--out PATH`, else printed).
fn trace_cmd(rows: usize, out: Option<&str>) {
    use sc_obs::trace::{Attr, TailSampler};
    use sc_server::client::Client;
    use sc_server::{Server, ServerConfig};
    use std::time::Duration;

    header(&format!(
        "repro trace: {rows}-row traced workload, worst retained trace"
    ));
    let db = sc_nosql::SharedDb::open(sc_nosql::OpenOptions::default()).expect("open engine");
    let server = Server::start(
        ServerConfig::default()
            .tenant("demo", "demo-token")
            .slow_query_threshold(Duration::ZERO)
            .trace_policy(32),
        db,
    )
    .expect("start server");

    let mut client = Client::connect(server.addr()).expect("connect");
    client.hello("demo-token").expect("hello");
    client.query("CREATE KEYSPACE traced").expect("keyspace");
    client
        .query("CREATE TABLE traced.readings (id int, station text, bikes int, PRIMARY KEY (id))")
        .expect("table");
    for id in 0..rows {
        client
            .query(&format!(
                "INSERT INTO traced.readings (id, station, bikes) VALUES ({id}, 'station {id}', {})",
                id % 40
            ))
            .expect("insert");
    }
    // Flush so the point reads below pay the SSTable path (bloom probes,
    // block reads, cache misses) and the trace has something to attribute.
    server.db().flush_all().expect("flush");
    for id in (0..rows).step_by((rows / 64).max(1)) {
        client
            .query(&format!(
                "SELECT station, bikes FROM traced.readings WHERE id = {id}"
            ))
            .expect("point select");
    }
    let (scan, scan_id) = client
        .query_traced("SELECT * FROM traced.readings")
        .expect("full scan");
    assert_eq!(scan.len(), rows, "full scan missed rows");
    server.shutdown();

    let sampler = TailSampler::global();
    let traces = sampler.traces();
    println!(
        "sampler: {} requests offered, {} traces retained (client-chosen scan ID {scan_id:016x})",
        sampler.offered(),
        traces.len()
    );
    let worst = traces.first().expect("no retained traces");
    println!(
        "\nworst trace: {} [{}] tenant {} — {:.3} ms — {}",
        worst.id_hex(),
        worst.kind,
        worst.tenant,
        worst.total_ns as f64 / 1e6,
        worst.detail
    );
    // Render the span tree: spans are stored flat with parent indices.
    let depth_of = |mut idx: usize| {
        let mut depth = 1usize;
        while let Some(p) = worst.spans[idx].parent {
            depth += 1;
            idx = p as usize;
        }
        depth
    };
    for (idx, span) in worst.spans.iter().enumerate() {
        let attrs: Vec<String> = Attr::ALL
            .iter()
            .filter(|&&a| span.attrs[a as usize] != 0)
            .map(|&a| format!("{}={}", a.name(), span.attrs[a as usize]))
            .collect();
        println!(
            "  {:indent$}{} — {:.3} ms{}",
            "",
            span.name,
            span.duration_ns as f64 / 1e6,
            if attrs.is_empty() {
                String::new()
            } else {
                format!("  [{}]", attrs.join(", "))
            },
            indent = depth_of(idx) * 2
        );
    }
    let totals: Vec<String> = Attr::ALL
        .iter()
        .filter(|&&a| worst.attr_total(a) != 0)
        .map(|&a| format!("{}={}", a.name(), worst.attr_total(a)))
        .collect();
    if !totals.is_empty() {
        println!("  attribution totals: {}", totals.join(", "));
    }

    let chrome = worst.to_chrome_trace();
    match out {
        Some(path) => {
            std::fs::write(path, &chrome).expect("write --out file");
            println!("\nwrote Chrome trace-event JSON to {path} (open in chrome://tracing)");
        }
        None => {
            println!("\nChrome trace-event JSON (open in chrome://tracing):");
            println!("{chrome}");
        }
    }
}
