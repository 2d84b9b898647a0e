//! End-to-end integration: XML feed → ingest → DWARF → every store model →
//! rebuild → queries, all agreeing.

use smartcube::core::models::{ModelKind, SchemaModel};
use smartcube::core::{MappedDwarf, StoreBackedCube};
use smartcube::datagen::{BikesGenerator, BikesSpec};
use smartcube::dwarf::{Dwarf, RangeSel, Selection, TupleSet};
use smartcube::ingest::StreamPipeline;

fn day_cube() -> Dwarf {
    let spec = BikesSpec {
        seed: 99,
        stations: 25,
        target_tuples: 1_000,
        ..BikesSpec::small()
    };
    let mut pipeline = StreamPipeline::new(BikesGenerator::cube_def());
    for snap in BikesGenerator::new(spec) {
        pipeline.ingest(&snap.xml).expect("well-formed feed");
    }
    pipeline.build_cube()
}

#[test]
fn feed_to_cube_to_all_stores_and_back() {
    let cube = day_cube();
    cube.validate();
    assert_eq!(cube.num_dims(), 8);
    let mapped = MappedDwarf::new(&cube);
    let expected = cube.extract_tuples();
    for kind in ModelKind::ALL {
        let mut model = kind.build().expect("schema");
        let report = model.store(&mapped, &cube, false).expect("store");
        assert!(report.size.as_bytes() > 0, "{kind}: zero size");
        assert!(report.statements > 0, "{kind}: no statements");
        let rebuilt = model.rebuild(report.schema_id).expect("rebuild");
        assert_eq!(rebuilt.extract_tuples(), expected, "{kind}: facts differ");
        assert_eq!(rebuilt.schema(), cube.schema(), "{kind}: schema differs");
        rebuilt.validate();
    }
}

#[test]
fn all_models_agree_on_queries_after_rebuild() {
    let cube = day_cube();
    let mapped = MappedDwarf::new(&cube);
    let selections: Vec<Vec<Selection>> = vec![
        vec![Selection::All; 8],
        {
            let mut s = vec![Selection::All; 8];
            s[4] = Selection::value("Dublin 2");
            s
        },
        {
            let mut s = vec![Selection::All; 8];
            s[6] = Selection::value("open");
            s[3] = Selection::value("12");
            s
        },
    ];
    let expected: Vec<Option<i64>> = selections.iter().map(|s| cube.point(s)).collect();
    for kind in ModelKind::ALL {
        let mut model = kind.build().expect("schema");
        let report = model.store(&mapped, &cube, false).expect("store");
        let rebuilt = model.rebuild(report.schema_id).expect("rebuild");
        for (sel, want) in selections.iter().zip(&expected) {
            assert_eq!(rebuilt.point(sel), *want, "{kind}: {sel:?}");
        }
    }
}

#[test]
fn store_backed_queries_agree_with_memory() {
    let cube = day_cube();
    let mapped = MappedDwarf::new(&cube);
    let mut model = smartcube::core::models::NosqlDwarfModel::in_memory();
    model.create_schema().expect("schema");
    let report = model.store(&mapped, &cube, false).expect("store");
    let mut sbc = StoreBackedCube::open(&mut model, report.schema_id).expect("open");
    // Spot-check a spread of group-bys.
    for area in ["Dublin 1", "Dublin 2", "Dublin 7", "Nowhere"] {
        let mut sel = vec![Selection::All; 8];
        sel[4] = Selection::value(area);
        assert_eq!(sbc.point(&sel).expect("query"), cube.point(&sel), "{area}");
    }
}

#[test]
fn subcube_survives_a_store_roundtrip_with_is_cube_flag() {
    let cube = day_cube();
    let mut region = vec![RangeSel::All; 8];
    region[4] = RangeSel::value("Dublin 2");
    let sub = cube.subcube(&region);
    assert!(sub.tuple_count() < cube.tuple_count());
    let mapped = MappedDwarf::new(&sub);
    let mut model = ModelKind::NosqlDwarf.build().expect("schema");
    let report = model.store(&mapped, &sub, true).expect("store sub-cube");
    let rebuilt = model.rebuild(report.schema_id).expect("rebuild");
    assert_eq!(rebuilt.extract_tuples(), sub.extract_tuples());
}

#[test]
fn incremental_update_then_store() {
    let cube = day_cube();
    let mut delta = TupleSet::new(cube.schema());
    delta.push(
        [
            "2015",
            "11",
            "01",
            "09",
            "Dublin 2",
            "New Station",
            "open",
            "20",
        ],
        7,
    );
    let updated = cube.merge(&Dwarf::build(cube.schema().clone(), delta));
    assert_eq!(updated.tuple_count(), cube.tuple_count() + 1);
    let mapped = MappedDwarf::new(&updated);
    let mut model = ModelKind::NosqlDwarf.build().expect("schema");
    let report = model.store(&mapped, &updated, false).expect("store");
    let rebuilt = model.rebuild(report.schema_id).expect("rebuild");
    let mut sel = vec![Selection::All; 8];
    sel[5] = Selection::value("New Station");
    assert_eq!(rebuilt.point(&sel), Some(7));
}
