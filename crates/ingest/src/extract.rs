//! Evaluating a [`CubeDef`] over parsed documents.

use crate::cube_def::{CubeDef, DimensionSpec, MeasureSpec, SourceFormat, ValuePath};
use crate::datetime::DateTime;
use sc_dwarf::TupleSet;
use sc_json::JsonValue;
use sc_xml::{FlatDocument, FlatElement};
use std::borrow::Cow;
use std::fmt;

/// What to do when a record lacks a dimension or measure value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissingPolicy {
    /// Skip the record, counting it in [`ExtractStats::skipped`].
    #[default]
    Skip,
    /// Fail the extraction.
    Fail,
}

/// Counters from one extraction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Records that produced a tuple.
    pub extracted: usize,
    /// Records skipped for missing/unparseable values.
    pub skipped: usize,
}

impl ExtractStats {
    /// Merges counters from another pass.
    pub fn merge(&mut self, other: ExtractStats) {
        self.extracted += other.extracted;
        self.skipped += other.skipped;
    }
}

/// Extraction failure (under [`MissingPolicy::Fail`], or malformed input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractError {
    /// Description naming the record and field.
    pub message: String,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "extraction failed: {}", self.message)
    }
}

impl std::error::Error for ExtractError {}

fn err(message: impl Into<String>) -> ExtractError {
    ExtractError {
        message: message.into(),
    }
}

/// A parsed document of either format. An XML document is in the flat form,
/// which borrows from `text`: element records, attributes and text runs in
/// three lists, with no owned tree built.
#[derive(Debug)]
pub enum ParsedDoc<'a> {
    /// Parsed XML.
    Xml(FlatDocument<'a>),
    /// Parsed JSON.
    Json(JsonValue),
}

impl<'a> ParsedDoc<'a> {
    /// Parses `text` according to `format`.
    pub fn parse(format: SourceFormat, text: &'a str) -> Result<ParsedDoc<'a>, ExtractError> {
        match format {
            SourceFormat::Xml => FlatDocument::parse(text)
                .map(ParsedDoc::Xml)
                .map_err(|e| err(e.to_string())),
            SourceFormat::Json => sc_json::parse(text)
                .map(ParsedDoc::Json)
                .map_err(|e| err(e.to_string())),
        }
    }
}

/// A record, or a document root, of one source format, as extraction reads
/// it. Values are borrowed from the parsed document where it holds them
/// verbatim.
trait Record<'a>: Copy {
    /// The [`MissingPolicy::Fail`] message for a record without a measure.
    const MISSING_MEASURE: &'static str;

    /// The first value at `path`.
    fn value(self, path: &ValuePath) -> Option<Cow<'a, str>>;

    /// The dimension value at `path`.
    fn dimension(self, path: &ValuePath) -> Option<Cow<'a, str>> {
        self.value(path)
    }

    /// The measure at `path`.
    fn measure(self, path: &ValuePath) -> Option<i64>;
}

impl<'a> Record<'a> for FlatElement<'a, '_> {
    const MISSING_MEASURE: &'static str = "record missing or non-integer measure";

    fn value(self, path: &ValuePath) -> Option<Cow<'a, str>> {
        match path {
            ValuePath::Xml(p) => p.first(self),
            ValuePath::Json(_) => None,
        }
    }

    fn measure(self, path: &ValuePath) -> Option<i64> {
        self.value(path).and_then(|raw| raw.trim().parse().ok())
    }
}

impl<'a> Record<'a> for &'a JsonValue {
    const MISSING_MEASURE: &'static str = "record missing numeric measure";

    fn value(self, path: &ValuePath) -> Option<Cow<'a, str>> {
        let ValuePath::Json(p) = path else {
            return None;
        };
        p.select(self).first().map(|v| match v {
            JsonValue::String(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.to_json()),
        })
    }

    fn dimension(self, path: &ValuePath) -> Option<Cow<'a, str>> {
        self.value(path).filter(|v| v != "null")
    }

    fn measure(self, path: &ValuePath) -> Option<i64> {
        let ValuePath::Json(p) = path else {
            return None;
        };
        p.select(self)
            .first()
            .and_then(|v| v.as_f64())
            .map(|f| f.round() as i64)
    }
}

/// Extracts every record of `doc` into `tuples`.
///
/// The document must have been parsed with the definition's format; a
/// mismatch is an error.
pub fn extract_into(
    def: &CubeDef,
    doc: &ParsedDoc,
    tuples: &mut TupleSet,
    policy: MissingPolicy,
) -> Result<ExtractStats, ExtractError> {
    match (def.format, doc) {
        (SourceFormat::Xml, ParsedDoc::Xml(document)) => extract_xml(def, document, tuples, policy),
        (SourceFormat::Json, ParsedDoc::Json(value)) => extract_json(def, value, tuples, policy),
        _ => Err(err("document format does not match the cube definition")),
    }
}

/// Convenience: parse text and extract.
pub fn extract_text(
    def: &CubeDef,
    text: &str,
    tuples: &mut TupleSet,
    policy: MissingPolicy,
) -> Result<ExtractStats, ExtractError> {
    let doc = ParsedDoc::parse(def.format, text)?;
    extract_into(def, &doc, tuples, policy)
}

/// The document's calendar fields, rendered once per document: entry `i`
/// is dimension `i`'s value when that is a [`DimensionSpec::TimeField`] and
/// the definition has a timestamp path, and `None` otherwise.
fn time_fields<'a>(
    def: &CubeDef,
    root: impl Record<'a>,
) -> Result<Vec<Option<String>>, ExtractError> {
    let ts = match &def.timestamp_path {
        None => None,
        Some(p) => {
            let raw = root
                .value(p)
                .ok_or_else(|| err("document timestamp not found"))?;
            Some(
                DateTime::parse(&raw)
                    .ok_or_else(|| err(format!("unparseable timestamp {raw:?}")))?,
            )
        }
    };
    Ok(def
        .dimensions
        .iter()
        .map(|spec| match spec {
            DimensionSpec::TimeField { field, .. } => ts.as_ref().map(|dt| field.render(dt)),
            DimensionSpec::Path { .. } => None,
        })
        .collect())
}

/// Extracts `records` of the document rooted at `root`; both formats run
/// this loop.
fn extract_records<'a, R: Record<'a>>(
    def: &CubeDef,
    root: R,
    records: Vec<R>,
    tuples: &mut TupleSet,
    policy: MissingPolicy,
) -> Result<ExtractStats, ExtractError> {
    let times = time_fields(def, root)?;
    let mut stats = ExtractStats::default();
    let mut dims: Vec<Cow<'_, str>> = Vec::with_capacity(def.dimensions.len());
    'records: for record in records {
        dims.clear();
        for (spec, time) in def.dimensions.iter().zip(&times) {
            let value = match spec {
                DimensionSpec::Path { path, .. } => record.dimension(path),
                DimensionSpec::TimeField { .. } => time.as_deref().map(Cow::Borrowed),
            };
            match value {
                Some(v) => dims.push(v),
                None => match policy {
                    MissingPolicy::Skip => {
                        stats.skipped += 1;
                        continue 'records;
                    }
                    MissingPolicy::Fail => {
                        return Err(err(format!("record missing dimension {:?}", spec.name())))
                    }
                },
            }
        }
        let measure = match &def.measure {
            MeasureSpec::One => Some(1),
            MeasureSpec::Path(p) => record.measure(p),
        };
        match measure {
            Some(m) => {
                tuples.push(&dims, m);
                stats.extracted += 1;
            }
            None => match policy {
                MissingPolicy::Skip => stats.skipped += 1,
                MissingPolicy::Fail => return Err(err(R::MISSING_MEASURE)),
            },
        }
    }
    Ok(stats)
}

fn extract_xml(
    def: &CubeDef,
    document: &FlatDocument<'_>,
    tuples: &mut TupleSet,
    policy: MissingPolicy,
) -> Result<ExtractStats, ExtractError> {
    let ValuePath::Xml(record_path) = &def.record_path else {
        return Err(err("record path is not an XML path"));
    };
    let root = document.root();
    extract_records(def, root, record_path.select(root), tuples, policy)
}

fn extract_json(
    def: &CubeDef,
    root: &JsonValue,
    tuples: &mut TupleSet,
    policy: MissingPolicy,
) -> Result<ExtractStats, ExtractError> {
    let ValuePath::Json(record_path) = &def.record_path else {
        return Err(err("record path is not a JSON path"));
    };
    extract_records(def, root, record_path.select(root), tuples, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_def::TimeField;
    use sc_dwarf::{Dwarf, Selection};

    const FEED: &str = r#"<stations updated="2016-03-15T10:00:00">
      <station id="17"><name>Fenian St</name><area>D2</area><bikes>3</bikes></station>
      <station id="42"><name>Smithfield</name><area>D7</area><bikes>11</bikes></station>
      <station id="43"><name>Broken</name><area>D7</area></station>
    </stations>"#;

    fn bikes_def() -> CubeDef {
        CubeDef::xml("/stations/station")
            .timestamp("@updated")
            .time_dimension("day", TimeField::Day)
            .time_dimension("hour", TimeField::Hour)
            .dimension("area", "area/text()")
            .dimension("station", "name/text()")
            .measure("bikes", "bikes/text()")
            .build()
            .unwrap()
    }

    #[test]
    fn xml_extraction_end_to_end() {
        let def = bikes_def();
        let mut tuples = TupleSet::new(&def.schema());
        let stats = extract_text(&def, FEED, &mut tuples, MissingPolicy::Skip).unwrap();
        assert_eq!(stats.extracted, 2);
        assert_eq!(stats.skipped, 1, "the measureless station is skipped");
        let cube = Dwarf::build(def.schema(), tuples);
        assert_eq!(
            cube.point(&[
                Selection::value("15"),
                Selection::value("10"),
                Selection::value("D7"),
                Selection::value("Smithfield"),
            ]),
            Some(11)
        );
        assert_eq!(
            cube.point(&[
                Selection::All,
                Selection::All,
                Selection::All,
                Selection::All
            ]),
            Some(14)
        );
    }

    #[test]
    fn fail_policy_raises() {
        let def = bikes_def();
        let mut tuples = TupleSet::new(&def.schema());
        let e = extract_text(&def, FEED, &mut tuples, MissingPolicy::Fail).unwrap_err();
        assert!(e.message.contains("measure"), "{e}");
    }

    #[test]
    fn missing_timestamp_is_an_error() {
        let def = bikes_def();
        let mut tuples = TupleSet::new(&def.schema());
        let doc =
            "<stations><station><name>x</name><area>a</area><bikes>1</bikes></station></stations>";
        assert!(extract_text(&def, doc, &mut tuples, MissingPolicy::Skip).is_err());
    }

    #[test]
    fn json_extraction() {
        let def = CubeDef::json("/readings/*")
            .timestamp("/updated")
            .time_dimension("hour", TimeField::Hour)
            .dimension("sensor", "/sensor")
            .dimension("pollutant", "/pollutant")
            .measure("level", "/value")
            .build()
            .unwrap();
        let feed = r#"{
          "updated": "2016-03-15T08:30:00",
          "readings": [
            {"sensor": "AQ1", "pollutant": "NO2", "value": 41.4},
            {"sensor": "AQ1", "pollutant": "PM10", "value": 18},
            {"sensor": "AQ2", "pollutant": "NO2", "value": null}
          ]
        }"#;
        let mut tuples = TupleSet::new(&def.schema());
        let stats = extract_text(&def, feed, &mut tuples, MissingPolicy::Skip).unwrap();
        assert_eq!(stats.extracted, 2);
        assert_eq!(stats.skipped, 1);
        let cube = Dwarf::build(def.schema(), tuples);
        assert_eq!(
            cube.point(&[
                Selection::value("08"),
                Selection::value("AQ1"),
                Selection::All
            ]),
            Some(41 + 18)
        );
    }

    #[test]
    fn count_records_measure() {
        let def = CubeDef::json("/events/*")
            .dimension("kind", "/kind")
            .count_records("events")
            .build()
            .unwrap();
        let feed = r#"{"events": [{"kind": "sale"}, {"kind": "sale"}, {"kind": "bid"}]}"#;
        let mut tuples = TupleSet::new(&def.schema());
        extract_text(&def, feed, &mut tuples, MissingPolicy::Skip).unwrap();
        let cube = Dwarf::build(def.schema(), tuples);
        assert_eq!(cube.point(&[Selection::value("sale")]), Some(2));
        assert_eq!(cube.point(&[Selection::value("bid")]), Some(1));
    }

    #[test]
    fn format_mismatch_is_an_error() {
        let def = bikes_def();
        let doc = ParsedDoc::parse(SourceFormat::Json, "{}").unwrap();
        let mut tuples = TupleSet::new(&def.schema());
        assert!(extract_into(&def, &doc, &mut tuples, MissingPolicy::Skip).is_err());
    }

    #[test]
    fn malformed_document_is_an_error() {
        let def = bikes_def();
        let mut tuples = TupleSet::new(&def.schema());
        assert!(extract_text(&def, "<broken", &mut tuples, MissingPolicy::Skip).is_err());
    }
}
