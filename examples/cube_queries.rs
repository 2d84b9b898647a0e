//! Query primitives and cube maintenance — the paper's "current focus is on
//! cube updates through efficient query primitives" (§7), plus the
//! Hierarchical-DWARF extension from the related work (§6, [11]).
//!
//! Shows: point/group-by queries, range queries, slices, sub-cubes (the
//! `is_cube` flag), delta updates (a built delta merged in), and
//! ROLLUP/DRILLDOWN over dimension hierarchies.
//!
//! Run with: `cargo run --example cube_queries`

use smartcube::dwarf::hierarchy::{HierarchicalBuilder, LevelCoord};
use smartcube::dwarf::{AggFn, CubeSchema, Dwarf, Hierarchy, RangeSel, Selection, TupleSet};

fn coord(dim: &str, values: &[&str]) -> LevelCoord {
    LevelCoord {
        dimension: dim.into(),
        values: values.iter().map(|s| s.to_string()).collect(),
    }
}

fn main() {
    // A week of bike hires by (day, area, station).
    let schema = CubeSchema::new(["day", "area", "station"], "hires");
    let mut ts = TupleSet::new(&schema);
    for (day, area, station, hires) in [
        ("mon", "D2", "Fenian St", 31),
        ("mon", "D2", "Merrion Sq", 18),
        ("mon", "D7", "Smithfield", 25),
        ("tue", "D2", "Fenian St", 40),
        ("tue", "D7", "Smithfield", 22),
        ("wed", "D2", "Merrion Sq", 15),
        ("wed", "D7", "Smithfield", 30),
    ] {
        ts.push([day, area, station], hires);
    }
    let cube = Dwarf::build(schema.clone(), ts);

    println!("== Point / group-by queries (materialized, O(depth)) ==");
    let all = Selection::All;
    let v = Selection::value;
    println!(
        "hires on mon, all areas:      {:?}",
        cube.point(&[v("mon"), all.clone(), all.clone()])
    );
    println!(
        "hires at Smithfield, any day: {:?}",
        cube.point(&[all.clone(), all.clone(), v("Smithfield")])
    );

    println!("\n== Range queries ==");
    println!(
        "mon..tue, area D2:            {:?}",
        cube.range(&[
            RangeSel::between("mon", "tue"),
            RangeSel::value("D2"),
            RangeSel::All
        ])
    );

    println!("\n== Slice (the matching base facts) ==");
    for (key, m) in cube.slice(&[RangeSel::All, RangeSel::value("D7"), RangeSel::All]) {
        println!("  {key:?} -> {m}");
    }

    println!("\n== GROUP BY enumeration (any subset of the 2^d lattice) ==");
    for (key, total) in cube.group_by(&["area"]).expect("known dims") {
        println!("  area {key:?}: {total}");
    }
    for (key, total) in cube.group_by(&["day", "area"]).expect("known dims") {
        println!("  (day, area) {key:?}: {total}");
    }

    println!("\n== Sub-cube (stored with is_cube = true in the paper) ==");
    let d2 = cube.subcube(&[RangeSel::All, RangeSel::value("D2"), RangeSel::All]);
    println!(
        "D2 sub-cube: {} facts, total {:?}",
        d2.tuple_count(),
        d2.point(&[all.clone(), all.clone(), all.clone()])
    );

    println!("\n== Incremental update: a delta built and merged in ==");
    let mut delta = TupleSet::new(&schema);
    delta.push(["thu", "D2", "Fenian St"], 27);
    delta.push(["mon", "D2", "Fenian St"], 2); // late-arriving correction
    let updated = cube.merge(&Dwarf::build(schema, delta));
    println!(
        "mon/D2/Fenian St before={:?} after={:?}",
        cube.point(&[v("mon"), v("D2"), v("Fenian St")]),
        updated.point(&[v("mon"), v("D2"), v("Fenian St")])
    );
    println!(
        "new day thu appears:          {:?}",
        updated.point(&[v("thu"), all.clone(), all.clone()])
    );

    println!("\n== Hierarchical DWARF: ROLLUP / DRILL DOWN ==");
    let mut b = HierarchicalBuilder::new(
        [
            Hierarchy::new("time", ["year", "month", "day"]),
            Hierarchy::new("geo", ["area", "station"]),
        ],
        "hires",
        AggFn::Sum,
    );
    b.push(&[vec!["2015", "11", "02"], vec!["D2", "Fenian St"]], 31);
    b.push(&[vec!["2015", "11", "02"], vec!["D7", "Smithfield"]], 25);
    b.push(&[vec!["2015", "11", "03"], vec!["D2", "Fenian St"]], 40);
    b.push(&[vec!["2015", "12", "01"], vec!["D2", "Merrion Sq"]], 12);
    b.push(&[vec!["2016", "01", "04"], vec!["D7", "Smithfield"]], 9);
    let h = b.build();
    println!("rollup to year:");
    for (year, total) in h.drilldown(&[], "time") {
        println!("  {year}: {total}");
    }
    println!("drill into 2015 by month:");
    for (month, total) in h.drilldown(&[coord("time", &["2015"])], "time") {
        println!("  2015-{month}: {total}");
    }
    println!(
        "rollup(time=2015-11, geo=D2):  {:?}",
        h.rollup(&[coord("time", &["2015", "11"]), coord("geo", &["D2"])])
    );
}
