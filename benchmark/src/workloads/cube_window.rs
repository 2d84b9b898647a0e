//! `cube_window` — the paper's path; an item is a source tuple.
//!
//! Write op: one Day window of pre-rendered bikes XML through
//! `StreamPipeline::ingest` → `build_cube` → `MappedDwarf::try_new` →
//! `NosqlDwarfModel::store` (which flushes) into a fresh store. Read op: a
//! `StoreBackedCube` point selection with a 64-node cache, so fetches reach
//! the store. sc-xml, sc-ingest, sc-dwarf and sc-core do most of the work
//! here and almost none on the row workloads.

use super::{engine_policy, ns_since, Rep, Workload};
use crate::gen::{point_selections, DayFeed};
use crate::trace::Tracer;
use sc_core::models::SchemaModel;
use sc_core::{MappedDwarf, NosqlDwarfModel, StoreBackedCube};
use sc_datagen::BikesGenerator;
use sc_dwarf::{Dwarf, Selection, TupleSet};
use sc_encoding::Rng;
use sc_ingest::extract::ParsedDoc;
use sc_ingest::{extract_into, CubeDef, MissingPolicy, StreamPipeline};
use sc_nosql::Db;
use std::time::Instant;

/// Timed repetitions of an untraced run.
pub const REPS: usize = 12;

/// Point selections per repetition.
const READS: usize = 600;
/// Node-cache capacity of the store-backed cube: far below the cube's
/// ~5,600 nodes, so most traversal steps fetch from the store.
const NODE_CACHE: usize = 64;

pub struct CubeWindow {
    feed: DayFeed,
    def: CubeDef,
    /// Oracle: the facts the window must hold, from the in-memory cube.
    facts: Vec<(Vec<String>, i64)>,
    selections: Vec<Vec<Selection>>,
    /// Oracle: `Dwarf::point` of each selection on the in-memory cube.
    answers: Vec<Option<i64>>,
    /// The repetition's store: fresh from `prepare`.
    model: Option<NosqlDwarfModel>,
    /// Keyspace bytes of the last repetition's store, as `store` measured
    /// them after its flush.
    last_bytes: Option<u64>,
}

pub fn setup(seed: u64) -> CubeWindow {
    let mut rng = Rng::new(seed);
    let feed = DayFeed::new(&mut rng);
    let def = BikesGenerator::cube_def();
    let mut pipeline = StreamPipeline::new(def.clone());
    for doc in &feed.docs {
        pipeline.ingest(doc).expect("generated feed is well-formed");
    }
    let cube = pipeline.build_cube();
    let facts = cube.extract_tuples();
    let selections = point_selections(&mut rng, &facts, READS);
    let answers = selections.iter().map(|s| cube.point(s)).collect();
    CubeWindow {
        feed,
        def,
        facts,
        selections,
        answers,
        model: None,
        last_bytes: None,
    }
}

impl CubeWindow {
    /// Documents in, cube out. Traced, parse and extract are called
    /// separately — the two calls `StreamPipeline::ingest` makes — so their
    /// spans split.
    fn build_window(&self, tr: &mut Tracer) -> Dwarf {
        if tr.on() {
            let mut tuples = TupleSet::new(&self.def.schema());
            for doc in &self.feed.docs {
                let parsed = tr
                    .span("xml_parse", || ParsedDoc::parse(self.def.format, doc))
                    .expect("generated feed is well-formed");
                tr.span("ingest_extract", || {
                    extract_into(&self.def, &parsed, &mut tuples, MissingPolicy::Skip)
                })
                .expect("generated feed extracts");
            }
            tr.span("dwarf_build", || Dwarf::build(self.def.schema(), tuples))
        } else {
            let mut pipeline = StreamPipeline::new(self.def.clone());
            for doc in &self.feed.docs {
                pipeline.ingest(doc).expect("generated feed is well-formed");
            }
            pipeline.build_cube()
        }
    }
}

impl Workload for CubeWindow {
    fn prepare(&mut self) {
        self.model = None;
        let mut model =
            NosqlDwarfModel::with_db(Db::open(engine_policy()).expect("in-memory open"));
        model.create_schema().expect("schema creation");
        self.model = Some(model);
    }

    fn repetition(&mut self, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        let mut rep = Rep::default();
        let mut model = self.model.take().expect("prepared");

        let stretch = rep.stretch();
        tr.begin_op();
        let t = Instant::now();
        let cube = self.build_window(tr);
        let mapped = tr
            .span("core_map", || MappedDwarf::try_new(&cube))
            .expect("cube maps");
        let report = tr
            .span("core_store", || model.store(&mapped, &cube, true))
            .expect("store");
        model.db_mut().drain_compactions();
        rep.write_ns.push(ns_since(t));
        tr.end_op();
        rep.close(stretch);
        rep.items_written = self.feed.source_tuples as u64;
        let bytes = report.size.as_bytes();

        // The reverse mapping must give back exactly the window's facts.
        tr.begin_op();
        let rebuilt = tr.span("core_query", || model.rebuild(report.schema_id));
        rep.attempted += 2;
        if rebuilt.map_or(true, |c| c.extract_tuples() != self.facts) {
            rep.failed += 1;
        }
        tr.end_op();

        let mut stored = StoreBackedCube::open_with_cache(&mut model, report.schema_id, NODE_CACHE)
            .expect("stored schema opens");
        rep.read_ns.reserve(READS);
        let stretch = rep.stretch();
        for (sel, want) in self.selections.iter().zip(&self.answers) {
            tr.begin_op();
            let t = Instant::now();
            let got = tr.span("core_query", || stored.point(sel));
            rep.read_ns.push(ns_since(t));
            rep.attempted += 1;
            if got.ok() != Some(*want) {
                rep.failed += 1;
            }
            tr.end_op();
        }
        rep.close(stretch);
        self.last_bytes = Some(bytes);
        rep.wall_ns = ns_since(started);
        rep
    }

    fn footprint(&mut self) -> (u64, u64) {
        // With inline compaction nothing is left to drain after `store`.
        let bytes = self.last_bytes.expect("a repetition ran");
        (bytes, self.feed.source_tuples as u64)
    }

    fn host_span(&self) -> &'static str {
        "core_store"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced repetition's split calls must build the cube the gated
    /// run's `StreamPipeline` builds, or the trace describes other work.
    #[test]
    fn split_calls_build_the_pipelines_cube() {
        let workload = setup(5);
        let through_pipeline = workload.build_window(&mut Tracer::new(false));
        let split = workload.build_window(&mut Tracer::new(true));
        assert_eq!(split.extract_tuples(), through_pipeline.extract_tuples());
        assert_eq!(split.node_count(), through_pipeline.node_count());
        assert_eq!(split.cell_count(), through_pipeline.cell_count());
        assert_eq!(through_pipeline.extract_tuples(), workload.facts);
    }
}
