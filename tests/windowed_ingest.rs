//! Window-partitioned ingestion: the paper's evaluation slices the bike
//! feed into Day/Week/... cubes; this test drives that flow through the
//! public APIs — one warehouse window per period, closed as the stream
//! crosses the boundary.

use smartcube::core::models::ModelKind;
use smartcube::core::CubeWarehouse;
use smartcube::datagen::{BikesGenerator, BikesSpec};
use smartcube::dwarf::Selection;
use smartcube::ingest::{DateTime, StreamPipeline, Window};

#[test]
fn stream_splits_into_daily_cubes() {
    // Two days of snapshots, 10 stations, 400 observations.
    let spec = BikesSpec {
        seed: 5,
        stations: 10,
        start: DateTime::parse("2015-11-01T00:00:00").unwrap(),
        duration_minutes: 2 * 24 * 60,
        target_tuples: 400,
    };
    let mut pipeline = StreamPipeline::new(BikesGenerator::cube_def());
    let mut warehouse = CubeWarehouse::new(ModelKind::NosqlDwarf.build().expect("schema"));
    let window = Window::Day;
    let mut window_start = spec.start;
    let mut cubes = Vec::new();
    for snap in BikesGenerator::new(spec) {
        if !window.contains(window_start, snap.time) {
            let cube = pipeline.build_cube();
            warehouse.store_window(&cube, false).expect("close window");
            cubes.push(cube);
            window_start = window.end(window_start);
        }
        pipeline.ingest(&snap.xml).expect("feed");
    }
    let last = pipeline.build_cube();
    warehouse.store_window(&last, false).expect("close last");
    cubes.push(last);

    assert_eq!(cubes.len(), 2, "two day windows");
    // Each daily cube only contains its own day.
    for (i, cube) in cubes.iter().enumerate() {
        let day = format!("{:02}", 1 + i);
        let mut sel = vec![Selection::All; 8];
        sel[2] = Selection::value(day.clone());
        assert!(cube.point(&sel).is_some(), "day {day} present in cube {i}");
        let other = format!("{:02}", 2 - i);
        sel[2] = Selection::value(other.clone());
        assert!(
            cube.point(&sel).is_none(),
            "day {other} must not leak into cube {i}"
        );
    }
    // Both windows are stored with distinct ids and rebuild cleanly.
    assert_eq!(warehouse.stored().len(), 2);
    let ids: Vec<i64> = warehouse.stored().iter().map(|r| r.schema_id).collect();
    assert_ne!(ids[0], ids[1]);
    for (id, cube) in ids.iter().zip(&cubes) {
        let back = warehouse.rebuild(*id).expect("rebuild");
        assert_eq!(back.extract_tuples(), cube.extract_tuples());
    }
}

#[test]
fn merged_daily_cubes_equal_one_big_cube() {
    let make_spec = || BikesSpec {
        seed: 6,
        stations: 8,
        start: DateTime::parse("2015-11-01T00:00:00").unwrap(),
        duration_minutes: 2 * 24 * 60,
        target_tuples: 300,
    };
    // One cube over the whole stream...
    let mut all_pipeline = StreamPipeline::new(BikesGenerator::cube_def());
    for snap in BikesGenerator::new(make_spec()) {
        all_pipeline.ingest(&snap.xml).unwrap();
    }
    let whole = all_pipeline.build_cube();
    // ...versus per-day cubes merged afterwards (the maintenance pattern).
    let window = Window::Day;
    let start = make_spec().start;
    let mut day1 = StreamPipeline::new(BikesGenerator::cube_def());
    let mut day2 = StreamPipeline::new(BikesGenerator::cube_def());
    for snap in BikesGenerator::new(make_spec()) {
        if window.contains(start, snap.time) {
            day1.ingest(&snap.xml).unwrap();
        } else {
            day2.ingest(&snap.xml).unwrap();
        }
    }
    let merged = day1.build_cube().merge(&day2.build_cube());
    assert_eq!(merged.extract_tuples(), whole.extract_tuples());
}
