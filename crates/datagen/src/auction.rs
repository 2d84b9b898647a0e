//! Online-auction feed (JSON), one of the intro's fused sources.

use crate::names;
use sc_encoding::Rng;
use sc_ingest::cube_def::TimeField;
use sc_ingest::{CubeDef, DateTime};
use sc_json::JsonValue;

/// Generates one auction-day document with `listings` closed listings.
pub fn generate_day(seed: u64, day: DateTime, listings: usize) -> String {
    let mut rng = Rng::new(seed ^ day.to_epoch_seconds() as u64);
    let mut sales = Vec::with_capacity(listings);
    for _ in 0..listings {
        let category = *rng.choice(names::AUCTION_CATEGORIES);
        let county = *rng.choice(names::COUNTIES);
        let price = match category {
            "vehicles" => rng.gen_between(500, 25_000),
            "jewellery" | "art" => rng.gen_between(50, 5_000),
            _ => rng.gen_between(5, 800),
        };
        sales.push(JsonValue::object(vec![
            ("category", JsonValue::string(category)),
            ("county", JsonValue::string(county)),
            ("price", JsonValue::Number(price as f64)),
        ]));
    }
    JsonValue::object(vec![
        ("closed", JsonValue::string(day.to_string())),
        ("sales", JsonValue::Array(sales)),
    ])
    .to_json()
}

/// Cube definition: `(month, day, category, county)`, measure = sale price.
pub fn cube_def() -> CubeDef {
    CubeDef::json("/sales/*")
        .timestamp("/closed")
        .time_dimension("month", TimeField::Month)
        .time_dimension("day", TimeField::Day)
        .dimension("category", "/category")
        .dimension("county", "/county")
        .measure("price", "/price")
        .build()
        .expect("static definition is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dwarf::{Dwarf, RangeSel, TupleSet};
    use sc_ingest::extract::extract_text;
    use sc_ingest::MissingPolicy;

    #[test]
    fn feed_extracts_into_a_cube() {
        let def = cube_def();
        let mut tuples = TupleSet::new(&def.schema());
        for d in 0..3 {
            let day = DateTime::parse("2016-03-14").unwrap().add_days(d);
            let doc = generate_day(7, day, 50);
            extract_text(&def, &doc, &mut tuples, MissingPolicy::Fail).unwrap();
        }
        let cube = Dwarf::build(def.schema(), tuples);
        cube.validate();
        // Range over the three days must equal the grand total.
        let all = cube.range(&[RangeSel::All, RangeSel::All, RangeSel::All, RangeSel::All]);
        let days = cube.range(&[
            RangeSel::All,
            RangeSel::between("14", "16"),
            RangeSel::All,
            RangeSel::All,
        ]);
        assert_eq!(all, days);
        assert!(all.unwrap() > 0);
    }
}
