//! The paper's §5.1 qualitative claims, asserted at test scale.
//!
//! Absolute numbers belong to the authors' testbed; these tests pin the
//! *relationships* the paper reports — which schema is biggest, which
//! loader is slowest, why — so a regression in any engine or model that
//! would change the reproduction's shape fails CI.

use smartcube::core::models::{ModelKind, StoreReport};
use smartcube::core::MappedDwarf;
use smartcube::datagen::{BikesGenerator, DatasetSpec};
use smartcube::dwarf::Dwarf;
use smartcube::ingest::Window;
use std::collections::HashMap;

/// One shared run at a scale big enough for the orderings to stabilize.
fn run_all_models() -> (Dwarf, HashMap<&'static str, StoreReport>) {
    let spec = DatasetSpec::for_window(Window::Day).scaled_spec(0.2);
    let tuples = BikesGenerator::tuples(spec);
    let cube = Dwarf::build(BikesGenerator::cube_def().schema(), tuples);
    let mapped = MappedDwarf::new(&cube);
    let mut out = HashMap::new();
    for kind in ModelKind::ALL {
        let mut model = kind.build().expect("schema");
        let report = model.store(&mapped, &cube, false).expect("store");
        out.insert(kind.label(), report);
    }
    (cube, out)
}

#[test]
fn table4_size_relationships_hold() {
    let (_, reports) = run_all_models();
    let size = |k: &str| reports[k].size.as_bytes();
    // "MySQL-DWARF performed worst overall ... due to its relational design."
    assert!(
        size("MySQL-DWARF") > size("MySQL-Min"),
        "edge tables must inflate MySQL-DWARF ({} vs {})",
        reports["MySQL-DWARF"].size,
        reports["MySQL-Min"].size
    );
    assert!(size("MySQL-DWARF") > size("NoSQL-DWARF"));
    assert!(size("MySQL-DWARF") > size("NoSQL-Min"));
    // "the presence of these indexes increase the resulting ... size of the
    // cube" — NoSQL-Min vs NoSQL-DWARF.
    assert!(
        size("NoSQL-Min") > size("NoSQL-DWARF"),
        "secondary indexes must inflate NoSQL-Min ({} vs {})",
        reports["NoSQL-Min"].size,
        reports["NoSQL-DWARF"].size
    );
    // "The MySQL-Min schema performed best for the small datasets" — true
    // in the paper because Cassandra's per-cell overhead dominated small
    // cubes. Our v3 columnar SSTables (varint-delta ints, dictionary text)
    // eliminate exactly that overhead, so the NoSQL footprints drop *below*
    // MySQL-Min — the one Table 4 ordering that deliberately inverts
    // (DESIGN.md deviation #9). Pin the inversion: a codec regression that
    // silently fell back to row-major blocks would flip it back.
    assert!(
        size("NoSQL-DWARF") < size("MySQL-Min"),
        "columnar NoSQL-DWARF must undercut MySQL-Min ({} vs {})",
        reports["NoSQL-DWARF"].size,
        reports["MySQL-Min"].size
    );
}

#[test]
fn table5_time_relationships_hold() {
    let (_, reports) = run_all_models();
    let time = |k: &str| reports[k].elapsed;
    // "The NoSQL-Min schema performed worst overall" (wide-partition index
    // read-modify-writes).
    assert!(
        time("NoSQL-Min") > time("NoSQL-DWARF"),
        "index maintenance must slow NoSQL-Min ({:?} vs {:?})",
        time("NoSQL-Min"),
        time("NoSQL-DWARF")
    );
    // "The MySQL-DWARF schema had the second largest insertion time ...
    // a large volume of inserts is necessary" — per-edge rows.
    assert!(
        time("MySQL-DWARF") > time("MySQL-Min"),
        "edge rows must slow MySQL-DWARF ({:?} vs {:?})",
        time("MySQL-DWARF"),
        time("MySQL-Min")
    );
    // "The NoSQL-DWARF schema performed best."
    assert!(
        time("NoSQL-DWARF") < time("MySQL-DWARF"),
        "NoSQL-DWARF must beat MySQL-DWARF ({:?} vs {:?})",
        time("NoSQL-DWARF"),
        time("MySQL-DWARF")
    );
}

#[test]
fn set_datatype_collapses_edges_into_single_statements() {
    // "with Cassandra, this construct can be described using a set datatype
    // which can complete in one insert operation."
    let (cube, reports) = run_all_models();
    let mapped = MappedDwarf::new(&cube);
    let edge_count: usize = mapped
        .nodes
        .iter()
        .map(|n| n.child_cell_ids.len())
        .sum::<usize>()
        + mapped
            .cells
            .iter()
            .filter(|c| c.pointer_node.is_some())
            .count();
    // NoSQL-DWARF: one statement per node + per cell + schema row.
    assert_eq!(
        reports["NoSQL-DWARF"].statements,
        1 + mapped.node_count() + mapped.cell_count()
    );
    // MySQL-DWARF (batch=1): those same rows PLUS one per edge.
    assert_eq!(
        reports["MySQL-DWARF"].statements,
        1 + mapped.node_count() + mapped.cell_count() + edge_count
    );
    assert!(edge_count > mapped.cell_count(), "edges dominate");
}

#[test]
fn node_construct_absence_shrinks_min_layouts() {
    // NoSQL-Min/MySQL-Min store no node rows at all (§5: "the construct of
    // a dwarf node does not need to be stored").
    let (_, reports) = run_all_models();
    assert_eq!(reports["NoSQL-Min"].node_rows, 0);
    assert_eq!(reports["MySQL-Min"].node_rows, 0);
    assert!(reports["NoSQL-DWARF"].node_rows > 0);
    assert!(reports["MySQL-DWARF"].node_rows > 0);
}

#[test]
fn dwarf_storage_stays_structure_bounded() {
    // §5.1's storage headline rests on the DWARF materializing all 2^8
    // group-bys while staying linear in the fact count. Absolute B/tuple
    // differs from the paper (the SSTables' column encodings stand in for
    // Cassandra's LZ4 — DESIGN.md deviation #5 — and store 102.3 B per
    // tuple at full-scale Day against the paper's ≈162 B), so the
    // assertions pin the structural relationships instead: cells per tuple
    // stay bounded by coalescing, and bytes per tuple stay within a small
    // constant.
    let spec = DatasetSpec::for_window(Window::Day).scaled_spec(0.5);
    let cube = Dwarf::build(
        BikesGenerator::cube_def().schema(),
        BikesGenerator::tuples(spec),
    );
    // A fully materialized 8-dim cube would need ~2^8 aggregates per fact;
    // coalescing keeps the stored structure to a handful of cells each.
    let mapped = MappedDwarf::new(&cube);
    let cells_per_tuple = mapped.cell_count() as f64 / cube.tuple_count() as f64;
    assert!(
        cells_per_tuple < 8.0,
        "coalescing failed: {cells_per_tuple:.1} cells/tuple"
    );
    let mut model = ModelKind::NosqlDwarf.build().expect("schema");
    let report = model.store(&mapped, &cube, false).expect("store");
    let per_tuple = report.size.as_bytes() as f64 / cube.tuple_count() as f64;
    assert!(
        per_tuple < 2_000.0,
        "stored {per_tuple:.0} B/tuple exceeds the uncompressed bound"
    );
    assert!(cube.cell_count() > cube.tuple_count());
}
