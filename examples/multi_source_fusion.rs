//! Multi-source smart-city fusion — the paper's §1 scenario.
//!
//! "The data streams in our research include car parks, bicycle sharing
//! schemes, online auction data, air quality sensor data, and sales data."
//! This example ingests all five feeds (XML *and* JSON) into per-source
//! cubes held in one warehouse, then answers cross-source questions a city
//! planner might ask about a single morning.
//!
//! Run with: `cargo run --example multi_source_fusion`

use smartcube::core::models::ModelKind;
use smartcube::core::{CubeWarehouse, StoreReport};
use smartcube::datagen::{airquality, auction, carpark, sales, BikesGenerator, BikesSpec};
use smartcube::dwarf::{Dwarf, RangeSel, Selection};
use smartcube::ingest::{CubeDef, DateTime, StreamPipeline};

/// Builds one source's cube from its documents and stores it.
fn load(
    warehouse: &mut CubeWarehouse,
    def: CubeDef,
    docs: impl IntoIterator<Item = String>,
) -> (Dwarf, StoreReport) {
    let mut pipeline = StreamPipeline::new(def);
    for doc in docs {
        pipeline.ingest(&doc).expect("well-formed feed");
    }
    let cube = pipeline.build_cube();
    let report = warehouse.store_window(&cube, false).expect("store");
    (cube, report)
}

fn main() {
    let morning = DateTime::parse("2015-11-02T06:00:00").expect("valid");
    let mut warehouse = CubeWarehouse::new(ModelKind::NosqlDwarf.build().expect("schema"));

    // ---- Bikes (XML).
    let spec = BikesSpec {
        seed: 7,
        stations: 30,
        start: morning,
        duration_minutes: 6 * 60,
        target_tuples: 900,
    };
    let bikes = BikesGenerator::new(spec).map(|snap| snap.xml);
    let (bikes_cube, bikes_report) = load(&mut warehouse, BikesGenerator::cube_def(), bikes);

    // ---- Car parks (XML) and air quality (JSON).
    let parks = carpark::generate(11, morning, 12, 30);
    let (parks_cube, _) = load(&mut warehouse, carpark::cube_def(), parks);
    let air = airquality::generate(13, morning, 6, 60, 6);
    let (air_cube, _) = load(&mut warehouse, airquality::cube_def(), air);

    // ---- Auctions (JSON) and sales (XML), daily documents.
    let auctions = [auction::generate_day(17, morning, 120)];
    let (auction_cube, _) = load(&mut warehouse, auction::cube_def(), auctions);
    let retail = [sales::generate_day(19, morning, 6)];
    let (sales_cube, _) = load(&mut warehouse, sales::cube_def(), retail);

    // ---- Cross-source morning report.
    println!("== Smart-city morning report, 2015-11-02 ==\n");
    println!(
        "bike observations stored:   {} facts, {} on disk, loaded in {:?}",
        bikes_cube.tuple_count(),
        bikes_report.size,
        bikes_report.elapsed
    );
    let bikes_total = bikes_cube.point(&vec![Selection::All; 8]);
    println!("total bikes available (sum over snapshots): {bikes_total:?}");

    let parks_morning = parks_cube.range(&[
        RangeSel::All,
        RangeSel::between("06", "08"),
        RangeSel::All,
        RangeSel::All,
    ]);
    println!("car-park free spaces, 06-08h (sum):         {parks_morning:?}");

    let mut no2 = vec![Selection::All; 5];
    no2[4] = Selection::value("NO2");
    println!(
        "NO2 readings (sum µg/m³):                   {:?}",
        air_cube.point(&no2)
    );

    let mut dublin_auctions = vec![Selection::All; 4];
    dublin_auctions[3] = Selection::value("Dublin");
    println!(
        "auction turnover in county Dublin:          {:?}",
        auction_cube.point(&dublin_auctions)
    );

    let mut bakery = vec![Selection::All; 3];
    bakery[2] = Selection::value("bakery");
    println!(
        "bakery units sold:                          {:?}",
        sales_cube.point(&bakery)
    );

    // Cross-source drill: per-area bikes vs air quality.
    println!("\n== Per-area: bikes available vs NO2 ==");
    for area in ["Dublin 1", "Dublin 2", "Dublin 7"] {
        let mut b = vec![Selection::All; 8];
        b[4] = Selection::value(area);
        let mut a = vec![Selection::All; 5];
        a[2] = Selection::value(area);
        a[4] = Selection::value("NO2");
        println!(
            "{area:>9}: bikes={:?} no2={:?}",
            bikes_cube.point(&b),
            air_cube.point(&a)
        );
    }
    println!(
        "\nFive sources (3 XML + 2 JSON) fused through one canonical pipeline, {} cubes in one store: ✓",
        warehouse.stored().len()
    );
}
