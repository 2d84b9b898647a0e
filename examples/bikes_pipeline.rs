//! The paper's evaluation pipeline end to end, at example scale:
//! generate a day of bike-share XML snapshots, ingest them through the
//! stream pipeline, build the 8-dimensional DWARF, store it in all four
//! schema models, and compare sizes and insert times (a miniature of
//! Tables 4 and 5). It panics if the cube built from the XML feed differs
//! from the one built from the generator's tuples directly.
//!
//! Run with: `cargo run --release --example bikes_pipeline`

use smartcube::core::models::ModelKind;
use smartcube::core::MappedDwarf;
use smartcube::datagen::{BikesGenerator, BikesSpec};
use smartcube::dwarf::{Dwarf, RangeSel, Selection};
use smartcube::ingest::StreamPipeline;

fn main() {
    // A scaled-down "Day" dataset: 50 stations, ~5 000 observations.
    let spec = BikesSpec {
        seed: 42,
        stations: 50,
        target_tuples: 5_000,
        ..BikesSpec::small()
    };
    println!("Generating a day of bike-share snapshots...");
    let mut pipeline = StreamPipeline::new(BikesGenerator::cube_def());
    let mut documents = 0usize;
    let mut bytes = 0usize;
    for snapshot in BikesGenerator::new(spec.clone()) {
        bytes += snapshot.xml.len();
        pipeline.ingest(&snapshot.xml).expect("well-formed feed");
        documents += 1;
    }
    println!(
        "ingested {documents} XML documents ({:.1} KiB, {} observations, {} skipped)",
        bytes as f64 / 1024.0,
        pipeline.stats().extracted,
        pipeline.stats().skipped,
    );

    let cube = pipeline.build_cube();
    // The XML path (render, parse, extract) must give exactly the cube of
    // the generator's XML-free tuples.
    let direct = Dwarf::build(cube.schema().clone(), BikesGenerator::tuples(spec));
    assert_eq!(
        cube.extract_tuples(),
        direct.extract_tuples(),
        "the cube built from the XML feed differs from the generator's tuples"
    );
    println!("the XML feed's cube has exactly the generator's facts: ✓");
    let stats = cube.stats();
    println!(
        "\nDWARF: {} facts -> {} nodes, {} cells ({} in-memory)",
        stats.tuple_count, stats.node_count, stats.cell_count, stats.memory
    );

    // A few analytical queries planners would run.
    println!("\n== Analytics ==");
    let all = vec![Selection::All; 8];
    println!("total bikes observed (SUM): {:?}", cube.point(&all));
    let mut by_area = all.clone();
    by_area[4] = Selection::value("Dublin 2");
    println!("  ... in Dublin 2:          {:?}", cube.point(&by_area));
    let morning = vec![
        RangeSel::All,
        RangeSel::All,
        RangeSel::All,
        RangeSel::between("06", "09"),
        RangeSel::All,
        RangeSel::All,
        RangeSel::All,
        RangeSel::All,
    ];
    println!("  ... 06:00-09:59 (range):  {:?}", cube.range(&morning));

    // Store in all four models; print a miniature Tables 4 + 5.
    println!("\n== Miniature Tables 4 & 5 (one scaled Day dataset) ==");
    println!(
        "{:<12} {:>10} {:>12} {:>12}",
        "model", "size", "insert ms", "statements"
    );
    let mapped = MappedDwarf::new(&cube);
    for kind in ModelKind::ALL {
        let mut model = kind.build().expect("schema creation");
        let report = model.store(&mapped, &cube, false).expect("store");
        println!(
            "{:<12} {:>10} {:>12.1} {:>12}",
            kind.label(),
            report.size.to_string(),
            report.elapsed.as_secs_f64() * 1000.0,
            report.statements
        );
        // Verify the reverse mapping on every model.
        let back = model.rebuild(report.schema_id).expect("rebuild");
        assert_eq!(back.extract_tuples(), cube.extract_tuples());
    }
    println!("\nAll four models round-tripped the cube: ✓");
}
