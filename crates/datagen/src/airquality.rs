//! Air-quality sensor feed (JSON), one of the intro's fused sources.

use crate::names;
use sc_encoding::Rng;
use sc_ingest::cube_def::TimeField;
use sc_ingest::{CubeDef, DateTime};
use sc_json::JsonValue;

/// Generates `snapshots` JSON documents from `sensors` sensors.
pub fn generate(
    seed: u64,
    start: DateTime,
    snapshots: usize,
    interval_minutes: i64,
    sensors: usize,
) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let sensor_ids: Vec<String> = (0..sensors).map(|i| format!("AQ-{:02}", i + 1)).collect();
    let sensor_areas: Vec<&'static str> = (0..sensors).map(|_| *rng.choice(names::AREAS)).collect();
    let mut out = Vec::with_capacity(snapshots);
    for i in 0..snapshots {
        let time = start.add_minutes(i as i64 * interval_minutes);
        let mut readings = Vec::new();
        for (s, id) in sensor_ids.iter().enumerate() {
            for pollutant in names::POLLUTANTS {
                let base = match *pollutant {
                    "NO2" => 40,
                    "PM10" => 20,
                    "PM2.5" => 12,
                    "O3" => 60,
                    _ => 5,
                };
                readings.push(JsonValue::object(vec![
                    ("sensor", JsonValue::string(id.clone())),
                    ("area", JsonValue::string(sensor_areas[s])),
                    ("pollutant", JsonValue::string(*pollutant)),
                    (
                        "value",
                        JsonValue::Number(rng.gen_between(base / 2, base * 2) as f64),
                    ),
                ]));
            }
        }
        let doc = JsonValue::object(vec![
            ("updated", JsonValue::string(time.to_string())),
            ("city", JsonValue::string("Dublin")),
            ("readings", JsonValue::Array(readings)),
        ]);
        out.push(doc.to_json());
    }
    out
}

/// Cube definition: `(day, hour, area, sensor, pollutant)`, measure =
/// reading value (µg/m³, rounded to integers).
pub fn cube_def() -> CubeDef {
    CubeDef::json("/readings/*")
        .timestamp("/updated")
        .time_dimension("day", TimeField::Day)
        .time_dimension("hour", TimeField::Hour)
        .dimension("area", "/area")
        .dimension("sensor", "/sensor")
        .dimension("pollutant", "/pollutant")
        .measure("level", "/value")
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
        let docs = generate(9, start, 3, 60, 4);
        let def = cube_def();
        let mut tuples = TupleSet::new(&def.schema());
        for d in &docs {
            extract_text(&def, d, &mut tuples, MissingPolicy::Fail).unwrap();
        }
        let cube = Dwarf::build(def.schema(), tuples);
        cube.validate();
        assert_eq!(cube.num_dims(), 5);
        // 3 snapshots x 4 sensors x 5 pollutants = 60 observations.
        let no2 = cube.point(&[
            Selection::All,
            Selection::All,
            Selection::All,
            Selection::All,
            Selection::value("NO2"),
        ]);
        assert!(no2.is_some());
    }
}
