//! Car-park occupancy feed (XML), one of the intro's fused sources.

use crate::names;
use sc_encoding::Rng;
use sc_ingest::cube_def::TimeField;
use sc_ingest::{CubeDef, DateTime};
use sc_xml::XmlWriter;

/// Generates `snapshots` car-park documents starting at `start`, one every
/// `interval_minutes`.
pub fn generate(
    seed: u64,
    start: DateTime,
    snapshots: usize,
    interval_minutes: i64,
) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut spaces: Vec<i64> = names::CARPARKS
        .iter()
        .map(|_| rng.gen_between(50, 400))
        .collect();
    let capacities: Vec<i64> = spaces
        .iter()
        .map(|s| s + rng.gen_between(50, 200))
        .collect();
    let mut out = Vec::with_capacity(snapshots);
    for i in 0..snapshots {
        let time = start.add_minutes(i as i64 * interval_minutes);
        let mut w = XmlWriter::new();
        w.write_declaration("1.0", Some("UTF-8"));
        w.start("carparks").attr("updated", &time.to_string());
        for (j, name) in names::CARPARKS.iter().enumerate() {
            spaces[j] = rng.walk(spaces[j], 25, 0, capacities[j]);
            w.start("carpark").attr("id", &(j + 1).to_string());
            w.leaf("name", name);
            w.leaf("zone", names::ZONES[j % names::ZONES.len()]);
            w.leaf("spaces", &spaces[j].to_string());
            w.leaf("capacity", &capacities[j].to_string());
            w.end();
        }
        w.end();
        out.push(w.into_string());
    }
    out
}

/// Cube definition for the car-park feed: `(day, hour, zone, carpark)` with
/// free `spaces` as the measure.
pub fn cube_def() -> CubeDef {
    CubeDef::xml("/carparks/carpark")
        .timestamp("@updated")
        .time_dimension("day", TimeField::Day)
        .time_dimension("hour", TimeField::Hour)
        .dimension("zone", "zone/text()")
        .dimension("carpark", "name/text()")
        .measure("spaces", "spaces/text()")
        .build()
        .expect("static definition is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dwarf::{Dwarf, Selection, TupleSet};
    use sc_ingest::extract::extract_text;
    use sc_ingest::MissingPolicy;

    #[test]
    fn feed_extracts_into_a_cube() {
        let start = DateTime::parse("2016-03-15T08:00:00").unwrap();
        let docs = generate(5, start, 4, 30);
        assert_eq!(docs.len(), 4);
        let def = cube_def();
        let mut tuples = TupleSet::new(&def.schema());
        for d in &docs {
            extract_text(&def, d, &mut tuples, MissingPolicy::Fail).unwrap();
        }
        let cube = Dwarf::build(def.schema(), tuples);
        cube.validate();
        assert_eq!(cube.num_dims(), 4);
        // 4 snapshots x 12 car parks, all on day 15.
        assert!(cube.tuple_count() > 0);
        assert!(cube
            .point(&[
                Selection::value("15"),
                Selection::All,
                Selection::All,
                Selection::All
            ])
            .is_some());
    }
}
