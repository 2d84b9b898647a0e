//! The stream pipeline: documents in, cubes out.
//!
//! This is the orchestration the paper's §1 describes — "read and transform
//! data streams and ... create the structures (cubes) that higher level
//! applications can exploit". Feed documents (XML/JSON text) are extracted
//! incrementally; when the owner asks, the accumulated tuples become a
//! [`Dwarf`].

use crate::cube_def::CubeDef;
use crate::extract::{extract_text, ExtractError, ExtractStats, MissingPolicy};
use sc_dwarf::{Dwarf, TupleSet};

/// Accumulates extracted tuples across many feed documents.
#[derive(Debug)]
pub struct StreamPipeline {
    def: CubeDef,
    tuples: TupleSet,
    stats: ExtractStats,
    documents: usize,
}

impl StreamPipeline {
    /// Creates a pipeline for a cube definition.
    pub fn new(def: CubeDef) -> StreamPipeline {
        let tuples = TupleSet::new(&def.schema());
        StreamPipeline {
            def,
            tuples,
            stats: ExtractStats::default(),
            documents: 0,
        }
    }

    /// Ingests one feed document; a record missing a value is skipped and
    /// counted.
    pub fn ingest(&mut self, text: &str) -> Result<ExtractStats, ExtractError> {
        let stats = extract_text(&self.def, text, &mut self.tuples, MissingPolicy::Skip)?;
        self.stats.merge(stats);
        self.documents += 1;
        Ok(stats)
    }

    /// Documents ingested so far.
    pub fn document_count(&self) -> usize {
        self.documents
    }

    /// Tuples accumulated so far (before deduplication).
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// Rough heap footprint of the accumulated tuples (see
    /// `TupleSet::approximate_bytes`).
    pub fn approximate_bytes(&self) -> usize {
        self.tuples.approximate_bytes()
    }

    /// Cumulative extraction counters.
    pub fn stats(&self) -> ExtractStats {
        self.stats
    }

    /// The cube definition.
    pub fn def(&self) -> &CubeDef {
        &self.def
    }

    /// Builds the cube from everything ingested, resetting the pipeline for
    /// the next window.
    pub fn build_cube(&mut self) -> Dwarf {
        let tuples = std::mem::replace(&mut self.tuples, TupleSet::new(&self.def.schema()));
        self.stats = ExtractStats::default();
        self.documents = 0;
        Dwarf::build(self.def.schema(), tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_def::TimeField;
    use sc_dwarf::Selection;

    fn feed(day: u8, bikes: [i64; 2]) -> String {
        format!(
            r#"<stations updated="2015-11-{day:02}T10:00:00">
              <station><name>A</name><bikes>{}</bikes></station>
              <station><name>B</name><bikes>{}</bikes></station>
            </stations>"#,
            bikes[0], bikes[1]
        )
    }

    fn def() -> CubeDef {
        CubeDef::xml("/stations/station")
            .timestamp("@updated")
            .time_dimension("day", TimeField::Day)
            .dimension("station", "name/text()")
            .measure("bikes", "bikes/text()")
            .build()
            .unwrap()
    }

    #[test]
    fn multi_document_accumulation() {
        let mut p = StreamPipeline::new(def());
        p.ingest(&feed(1, [3, 5])).unwrap();
        p.ingest(&feed(2, [4, 6])).unwrap();
        assert_eq!(p.document_count(), 2);
        assert_eq!(p.tuple_count(), 4);
        let cube = p.build_cube();
        assert_eq!(cube.tuple_count(), 4);
        assert_eq!(
            cube.point(&[Selection::value("01"), Selection::All]),
            Some(8)
        );
        assert_eq!(
            cube.point(&[Selection::All, Selection::value("B")]),
            Some(11)
        );
        // Pipeline reset for the next window.
        assert_eq!(p.document_count(), 0);
        assert_eq!(p.tuple_count(), 0);
        let empty = p.build_cube();
        assert!(empty.is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut p = StreamPipeline::new(def());
        let broken = r#"<stations updated="2015-11-01T10:00:00">
            <station><name>A</name></station>
            <station><name>B</name><bikes>2</bikes></station>
        </stations>"#;
        p.ingest(broken).unwrap();
        p.ingest(broken).unwrap();
        assert_eq!(p.stats().extracted, 2);
        assert_eq!(p.stats().skipped, 2);
    }

    #[test]
    fn bad_document_surfaces_error() {
        let mut p = StreamPipeline::new(def());
        assert!(p.ingest("<oops").is_err());
        assert_eq!(p.document_count(), 0);
    }
}
