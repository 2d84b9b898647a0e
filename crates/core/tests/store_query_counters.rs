//! `core.store_query.rows_fetched` counts every row a store cursor reads,
//! over both NoSQL layouts: a point query moves the global counter by
//! exactly its cursor's `stats().rows_fetched`. A cold Table 1 point query
//! also reads fewer data blocks (the sum of `nosql.read.blocks_per_get`)
//! than it fetches rows: a key batch reads each SSTable block once.
//!
//! Own binary, single `#[test]`: the counters are process-global, so another
//! test reading the store beside this one would blur the deltas.

use sc_core::{MappedDwarf, NosqlDwarfModel, NosqlMinModel, SchemaModel, StoreBackedCube};
use sc_dwarf::{CubeSchema, Dwarf, Selection, TupleSet};

fn cube() -> Dwarf {
    let schema = CubeSchema::new(["country", "city", "station"], "bikes");
    let mut ts = TupleSet::new(&schema);
    ts.push(["Ireland", "Dublin", "Fenian St"], 3);
    ts.push(["Ireland", "Dublin", "Smithfield"], 5);
    ts.push(["Ireland", "Cork", "Patrick St"], 2);
    ts.push(["France", "Paris", "Bastille"], 7);
    Dwarf::build(schema, ts)
}

fn rows_fetched() -> u64 {
    sc_obs::Registry::global()
        .snapshot()
        .counter("core.store_query.rows_fetched")
        .unwrap_or(0)
}

fn blocks_read() -> u64 {
    sc_obs::Registry::global()
        .snapshot()
        .histogram("nosql.read.blocks_per_get")
        .map_or(0, |h| h.sum)
}

#[test]
fn point_queries_publish_the_rows_their_cursor_fetched() {
    let c = cube();
    let sel = [
        Selection::value("Ireland"),
        Selection::value("Dublin"),
        Selection::value("Fenian St"),
    ];

    let mut min = NosqlMinModel::in_memory();
    min.create_schema().unwrap();
    let schema_id = min
        .store(&MappedDwarf::new(&c), &c, false)
        .unwrap()
        .schema_id;
    let mut cursor = StoreBackedCube::open(&mut min, schema_id).unwrap();
    let before = rows_fetched();
    assert_eq!(cursor.point(&sel).unwrap(), Some(3));
    let fetched = cursor.stats().rows_fetched;
    assert!(fetched > 0);
    assert_eq!(rows_fetched() - before, fetched, "Min layout");

    let mut table1 = NosqlDwarfModel::in_memory();
    table1.create_schema().unwrap();
    let schema_id = table1
        .store(&MappedDwarf::new(&c), &c, false)
        .unwrap()
        .schema_id;
    let mut cursor = StoreBackedCube::open(&mut table1, schema_id).unwrap();
    let before = rows_fetched();
    let blocks_before = blocks_read();
    assert_eq!(cursor.point(&sel).unwrap(), Some(3));
    let fetched = cursor.stats().rows_fetched;
    let blocks = blocks_read() - blocks_before;
    assert!(fetched > 0);
    assert_eq!(rows_fetched() - before, fetched, "Table 1 layout");
    assert!(
        0 < blocks && blocks < fetched,
        "cold point read {blocks} data blocks for {fetched} rows"
    );
}
