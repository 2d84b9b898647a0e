//! Retail sales feed (XML), one of the intro's fused sources.

use crate::names;
use sc_encoding::Rng;
use sc_ingest::cube_def::TimeField;
use sc_ingest::{CubeDef, DateTime};
use sc_xml::XmlWriter;

/// Generates one day's sales report for `stores` stores.
pub fn generate_day(seed: u64, day: DateTime, stores: usize) -> String {
    let mut rng = Rng::new(seed ^ day.to_epoch_seconds() as u64);
    let mut w = XmlWriter::new();
    w.write_declaration("1.0", Some("UTF-8"));
    w.start("sales_report").attr("date", &day.to_string());
    for s in 0..stores {
        w.start("store").attr("id", &format!("S{:02}", s + 1));
        for category in names::PRODUCT_CATEGORIES {
            w.start("line");
            w.leaf("category", category);
            w.leaf("units", &rng.gen_between(10, 500).to_string());
            w.end();
        }
        w.end();
    }
    w.end();
    w.into_string()
}

/// Cube definition: `(month, day, category)`, measure = units sold.
///
/// The record path uses the descendant axis (`//line`) — sale lines nest
/// inside `store` elements, so this feed exercises deep record selection.
pub fn cube_def() -> CubeDef {
    CubeDef::xml("//line")
        .timestamp("@date")
        .time_dimension("month", TimeField::Month)
        .time_dimension("day", TimeField::Day)
        .dimension("category", "category/text()")
        .measure("units", "units/text()")
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
        let def = cube_def();
        let mut tuples = TupleSet::new(&def.schema());
        let day = DateTime::parse("2016-03-15").unwrap();
        let doc = generate_day(3, day, 4);
        let stats = extract_text(&def, &doc, &mut tuples, MissingPolicy::Fail).unwrap();
        assert_eq!(stats.extracted, 4 * names::PRODUCT_CATEGORIES.len());
        let cube = Dwarf::build(def.schema(), tuples);
        cube.validate();
        assert!(cube
            .point(&[
                Selection::value("03"),
                Selection::value("15"),
                Selection::value("dairy"),
            ])
            .is_some());
    }
}
