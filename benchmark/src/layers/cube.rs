//! sc-xml, sc-json, sc-ingest, sc-dwarf, sc-core, sc-relational and
//! sc-stream, each on Table 2's Day dataset.

use super::{mb_per_s, median_ns, per_second};
use crate::gen::{point_selections, DayFeed};
use crate::metrics::Report;
use crate::workloads::engine_policy;
use sc_core::models::{ModelKind, SchemaModel, StoreReport};
use sc_core::{MappedDwarf, NosqlDwarfModel, StoreBackedCube};
use sc_datagen::BikesGenerator;
use sc_dwarf::{Dwarf, RangeSel, TupleSet};
use sc_encoding::Rng;
use sc_ingest::extract::ParsedDoc;
use sc_ingest::{extract_into, MissingPolicy};
use sc_json::JsonValue;
use sc_nosql::Db;
use sc_stream::{StreamConfig, StreamIngestor};
use std::time::Instant;

const PASSES: usize = 3;
/// Store-backed point selections behind the per-point ratios.
const POINTS: usize = 300;
/// In-memory selections behind `dwarf.point_ns` / `dwarf.range_ns`.
const MEMORY_QUERIES: usize = 2000;
const RELATIONAL_ROWS: usize = 20_000;

pub fn run(seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed);
    let feed = DayFeed::new(&mut rng);
    let def = BikesGenerator::cube_def();
    let n = PASSES as u64;

    // sc-xml and sc-json: text to tree.
    let ns = median_ns(PASSES, || {
        feed.docs
            .iter()
            .map(|d| {
                sc_xml::Document::parse(d)
                    .expect("well-formed")
                    .root
                    .children
                    .len()
            })
            .sum::<usize>()
    });
    report.set("xml.parse_mb_per_s", mb_per_s(feed.xml_bytes, ns), n);
    let json_docs: Vec<String> = feed.docs.iter().map(|d| snapshot_as_json(d)).collect();
    let json_bytes: usize = json_docs.iter().map(String::len).sum();
    let ns = median_ns(PASSES, || {
        json_docs
            .iter()
            .map(|d| {
                sc_json::parse(d)
                    .expect("well-formed")
                    .as_object()
                    .map_or(0, <[_]>::len)
            })
            .sum::<usize>()
    });
    report.set("json.parse_mb_per_s", mb_per_s(json_bytes, ns), n);

    // sc-ingest: tree to tuples.
    let parsed: Vec<ParsedDoc> = feed
        .docs
        .iter()
        .map(|d| ParsedDoc::parse(def.format, d).expect("well-formed"))
        .collect();
    let extract = || {
        let mut tuples = TupleSet::new(&def.schema());
        for doc in &parsed {
            extract_into(&def, doc, &mut tuples, MissingPolicy::Skip).expect("extracts");
        }
        tuples
    };
    let ns = median_ns(PASSES, extract);
    report.set(
        "ingest.extract_tuples_per_s",
        per_second(feed.source_tuples, ns),
        n,
    );

    // sc-dwarf: tuples to cube; sc-core: cube to records.
    let tuples = extract();
    let mut copies: Vec<TupleSet> = (0..PASSES).map(|_| tuples.clone()).collect();
    let ns = median_ns(PASSES, || {
        Dwarf::build(def.schema(), copies.pop().expect("one copy per pass"))
    });
    report.set(
        "dwarf.build_tuples_per_s",
        per_second(feed.source_tuples, ns),
        n,
    );
    let cube = Dwarf::build(def.schema(), tuples);
    let source = feed.source_tuples as f64;
    report.set(
        "dwarf.nodes_per_tuple",
        cube.node_count() as f64 / source,
        1,
    );
    report.set(
        "dwarf.cells_per_tuple",
        cube.cell_count() as f64 / source,
        1,
    );
    let ns = median_ns(PASSES, || MappedDwarf::try_new(&cube).expect("maps"));
    report.set("core.map_ns_per_node", ns / cube.node_count() as f64, n);
    let mapped = MappedDwarf::try_new(&cube).expect("maps");

    // Tables 4 and 5: the four schema models store the same cube. The
    // paper's model runs under the engine policy; the comparison models
    // under their own defaults (sc-core offers no way to inject an engine).
    let store = |model: &mut dyn SchemaModel| -> StoreReport {
        model.store(&mapped, &cube, true).expect("store")
    };
    let mut stored = None;
    let mut reports = Vec::new();
    for _ in 0..3 {
        let mut model =
            NosqlDwarfModel::with_db(Db::open(engine_policy()).expect("in-memory open"));
        model.create_schema().expect("schema");
        reports.push(store(&mut model));
        stored = Some(model);
    }
    set_store_metrics(report, "nosql_dwarf", &reports, source);
    let one = &reports[0];
    report.set(
        "core.store.statements_per_row",
        one.statements as f64 / (one.node_rows + one.cell_rows) as f64,
        1,
    );
    for (kind, label) in [
        (ModelKind::NosqlMin, "nosql_min"),
        (ModelKind::MysqlDwarf, "mysql_dwarf"),
        (ModelKind::MysqlMin, "mysql_min"),
    ] {
        let mut model = kind.build().expect("schema");
        set_store_metrics(report, label, &[store(model.as_mut())], source);
    }
    relational_insert(report);

    // The cube read path, off the stored rows and in memory.
    let mut model = stored.expect("stored above");
    let schema_id = reports[2].schema_id;
    let ns = median_ns(3, || model.rebuild(schema_id).expect("rebuilds"));
    report.set(
        "core.rebuild_rows_per_s",
        per_second(reports[2].cell_rows, ns),
        3,
    );
    let facts = cube.extract_tuples();
    let selections = point_selections(&mut rng, &facts, MEMORY_QUERIES);
    let ranges = range_selections(&mut rng, &facts, MEMORY_QUERIES);
    {
        let mut store_cube =
            StoreBackedCube::open_with_cache(&mut model, schema_id, 64).expect("opens");
        for sel in &selections[..POINTS] {
            assert_eq!(
                store_cube.point(sel).expect("point"),
                cube.point(sel),
                "store-backed point disagrees with the in-memory cube"
            );
        }
        let stats = store_cube.stats();
        let points = POINTS as u64;
        report.set(
            "core.query.statements_per_point",
            stats.store_selects as f64 / POINTS as f64,
            points,
        );
        report.set(
            "core.query.rows_fetched_per_point",
            stats.rows_fetched as f64 / POINTS as f64,
            points,
        );
        report.set("core.node_cache.hit_rate", stats.hit_ratio(), points);
        let mut next = ranges.iter().cycle();
        let ns = median_ns(15, || {
            store_cube
                .range(next.next().expect("cycle"))
                .expect("range")
        });
        report.set("core.query.range_us", ns / 1e3, 15);
    }
    // A fresh cursor per pass: the nodes a GROUP BY walks fit the node cache,
    // so a second pass on the same cursor would not reach the store.
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut store_cube =
            StoreBackedCube::open_with_cache(&mut model, schema_id, 64).expect("opens");
        times.push(median_ns(1, || {
            store_cube.group_by(&["area", "station"]).expect("group by")
        }));
    }
    report.set(
        "core.query.group_by_us",
        crate::stats::median(&times) / 1e3,
        3,
    );
    let ns = median_ns(PASSES, || {
        selections.iter().filter_map(|s| cube.point(s)).sum::<i64>()
    });
    report.set("dwarf.point_ns", ns / MEMORY_QUERIES as f64, n);
    let ns = median_ns(PASSES, || {
        ranges.iter().filter_map(|s| cube.range(s)).sum::<i64>()
    });
    report.set("dwarf.range_ns", ns / MEMORY_QUERIES as f64, n);

    // sc-stream: the same feed through two worker shards.
    let ns = median_ns(3, || {
        let ingestor = StreamIngestor::new(def.clone(), StreamConfig::with_shards(2));
        for doc in &feed.docs {
            ingestor.ingest(doc.clone());
        }
        let result = ingestor.finish();
        assert_eq!(result.cube.extract_tuples(), facts, "sharded cube diverged");
        result.metrics.tuples_extracted
    });
    report.set(
        "stream.tuples_per_s.2t",
        per_second(feed.source_tuples, ns),
        3,
    );
}

fn set_store_metrics(report: &mut Report, label: &str, reports: &[StoreReport], source: f64) {
    let rates: Vec<f64> = reports
        .iter()
        .map(|r| (r.node_rows + r.cell_rows) as f64 / r.elapsed.as_secs_f64())
        .collect();
    report.set(
        &format!("core.store_rows_per_s.{label}"),
        crate::stats::median(&rates),
        reports.len() as u64,
    );
    report.set(
        &format!("core.bytes_per_tuple.{label}"),
        reports[0].size.as_bytes() as f64 / source,
        1,
    );
}

/// sc-relational on its own: single-row INSERTs into one indexed table.
fn relational_insert(report: &mut Report) {
    let mut db = sc_relational::Db::in_memory();
    db.execute_sql("CREATE DATABASE bench").expect("database");
    db.execute_sql(
        "CREATE TABLE bench.obs (id INT NOT NULL, station TEXT, bikes INT, PRIMARY KEY (id))",
    )
    .expect("table");
    let statements: Vec<String> = (0..RELATIONAL_ROWS)
        .map(|i| {
            format!(
                "INSERT INTO bench.obs (id, station, bikes) VALUES ({i}, 'station-{:02}', {})",
                i % 40,
                i % 31
            )
        })
        .collect();
    let t = Instant::now();
    for sql in &statements {
        db.execute_sql(sql).expect("insert");
    }
    report.set(
        "relational.insert_rows_per_s",
        per_second(RELATIONAL_ROWS, t.elapsed().as_nanos() as f64),
        RELATIONAL_ROWS as u64,
    );
}

/// Range selections over real facts: the hour constrained to an interval,
/// station and status pinned, everything else aggregated out.
fn range_selections(rng: &mut Rng, facts: &[(Vec<String>, i64)], n: usize) -> Vec<Vec<RangeSel>> {
    (0..n)
        .map(|_| {
            let (a, _) = &facts[rng.gen_range(facts.len() as u64) as usize];
            let (b, _) = &facts[rng.gen_range(facts.len() as u64) as usize];
            let (lo, hi) = if a[3] <= b[3] {
                (&a[3], &b[3])
            } else {
                (&b[3], &a[3])
            };
            let mut sel = vec![RangeSel::All; a.len()];
            sel[3] = RangeSel::between(lo.as_str(), hi.as_str());
            sel[5] = RangeSel::value(a[5].as_str());
            sel
        })
        .collect()
}

/// The same snapshot as a JSON document, for the sc-json probe: the feed's
/// JSON twin, field for field.
fn snapshot_as_json(xml: &str) -> String {
    let doc = sc_xml::Document::parse(xml).expect("well-formed");
    let stations: Vec<JsonValue> = doc
        .root
        .children_named("station")
        .map(|station| {
            let fields: Vec<(String, JsonValue)> = station
                .child_elements()
                .map(|f| (f.name.clone(), JsonValue::string(f.text())))
                .collect();
            JsonValue::Object(fields)
        })
        .collect();
    JsonValue::object(vec![
        (
            "updated",
            JsonValue::string(doc.root.attr("updated").unwrap_or_default()),
        ),
        ("stations", JsonValue::Array(stations)),
    ])
    .to_json()
}
