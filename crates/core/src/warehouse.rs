//! The cube warehouse: where every window's cube is stored.
//!
//! A window's cube comes from either front-end — the sequential
//! `sc_ingest::StreamPipeline` (`build_cube`) or the sharded
//! `sc_stream::StreamIngestor` (`finish`), which give the same facts — and
//! the warehouse stores it in one schema model through the paper's cube →
//! store mapping. Stored cubes can be listed and rebuilt, and the store
//! measured.
//! The caller keeps the cube, so a window whose store fails is not lost: it
//! can be stored again, for instance once the model has been reopened.

use crate::error::Result;
use crate::mapping::MappedDwarf;
use crate::models::{SchemaModel, StoreReport};
use sc_dwarf::Dwarf;

/// A warehouse: window cubes stored in one schema model.
pub struct CubeWarehouse {
    model: Box<dyn SchemaModel>,
    stored: Vec<StoreReport>,
}

impl std::fmt::Debug for CubeWarehouse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CubeWarehouse")
            .field("model", &self.model.kind())
            .field("stored_cubes", &self.stored.len())
            .finish()
    }
}

impl CubeWarehouse {
    /// Creates a warehouse over a model whose schema is already created
    /// (see [`crate::models::ModelKind::build`]).
    pub fn new(model: Box<dyn SchemaModel>) -> CubeWarehouse {
        CubeWarehouse {
            model,
            stored: Vec::new(),
        }
    }

    /// Stores one window's cube — [`MappedDwarf::try_new`], which refuses a
    /// value holding the reserved ALL key, then [`SchemaModel::store`] — and
    /// records its report. On error nothing is recorded.
    pub fn store_window(&mut self, cube: &Dwarf, is_cube: bool) -> Result<StoreReport> {
        let mapped = MappedDwarf::try_new(cube)?;
        let report = self.model.store(&mapped, cube, is_cube)?;
        self.stored.push(report.clone());
        Ok(report)
    }

    /// Reports of every cube stored so far.
    pub fn stored(&self) -> &[StoreReport] {
        &self.stored
    }

    /// Rebuilds a stored cube by schema id.
    pub fn rebuild(&mut self, schema_id: i64) -> Result<Dwarf> {
        self.model.rebuild(schema_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ModelKind, NosqlDwarfModel};
    use sc_dwarf::Selection;
    use sc_ingest::cube_def::TimeField;
    use sc_ingest::{CubeDef, StreamPipeline};
    use sc_nosql::{Db, OpenOptions};
    use sc_storage::Vfs;
    use sc_stream::{StreamConfig, StreamIngestor, StreamResult};

    fn def() -> CubeDef {
        CubeDef::xml("/stations/station")
            .timestamp("@updated")
            .time_dimension("day", TimeField::Day)
            .dimension("station", "name/text()")
            .measure("bikes", "bikes/text()")
            .build()
            .unwrap()
    }

    fn feed(day: u8, a: i64, b: i64) -> String {
        format!(
            r#"<stations updated="2015-11-{day:02}T10:00:00">
              <station><name>A</name><bikes>{a}</bikes></station>
              <station><name>B</name><bikes>{b}</bikes></station>
            </stations>"#
        )
    }

    /// One window through the sharded front-end.
    fn sharded(shards: usize, docs: impl IntoIterator<Item = String>) -> StreamResult {
        let ingestor = StreamIngestor::new(def(), StreamConfig::with_shards(shards));
        for doc in docs {
            ingestor.ingest(doc);
        }
        ingestor.finish()
    }

    #[test]
    fn warehouse_flow_on_every_model() {
        for kind in ModelKind::ALL {
            let mut pipeline = StreamPipeline::new(def());
            let mut wh = CubeWarehouse::new(kind.build().unwrap());
            pipeline.ingest(&feed(1, 3, 5)).unwrap();
            pipeline.ingest(&feed(2, 4, 6)).unwrap();
            assert_eq!(pipeline.document_count(), 2);
            let cube = pipeline.build_cube();
            let report = wh.store_window(&cube, false).unwrap();
            assert_eq!(cube.tuple_count(), 4);
            assert!(report.size.as_bytes() > 0, "{kind}: empty store");
            assert_eq!(pipeline.document_count(), 0);
            let back = wh.rebuild(report.schema_id).unwrap();
            assert_eq!(back.extract_tuples(), cube.extract_tuples(), "{kind}");
            assert_eq!(
                back.point(&[Selection::value("01"), Selection::All]),
                Some(8),
                "{kind}"
            );
        }
    }

    #[test]
    fn successive_windows_get_distinct_ids() {
        let mut pipeline = StreamPipeline::new(def());
        let mut wh = CubeWarehouse::new(ModelKind::NosqlDwarf.build().unwrap());
        pipeline.ingest(&feed(1, 1, 1)).unwrap();
        let r1 = wh.store_window(&pipeline.build_cube(), false).unwrap();
        pipeline.ingest(&feed(2, 2, 2)).unwrap();
        let r2 = wh.store_window(&pipeline.build_cube(), false).unwrap();
        assert_ne!(r1.schema_id, r2.schema_id);
        assert_eq!(wh.stored().len(), 2);
    }

    #[test]
    fn streamed_store_matches_sequential_warehouse() {
        let docs: Vec<String> = (1..=6)
            .map(|d| feed(d, i64::from(d), 10 + i64::from(d)))
            .collect();
        // Sequential reference.
        let mut pipeline = StreamPipeline::new(def());
        let mut seq = CubeWarehouse::new(ModelKind::NosqlDwarf.build().unwrap());
        for doc in &docs {
            pipeline.ingest(doc).unwrap();
        }
        let seq_cube = pipeline.build_cube();
        let seq_report = seq.store_window(&seq_cube, true).unwrap();
        // Sharded.
        let mut wh = CubeWarehouse::new(ModelKind::NosqlDwarf.build().unwrap());
        let StreamResult { cube, metrics } = sharded(3, docs.iter().cloned());
        let report = wh.store_window(&cube, true).unwrap();
        assert_eq!(cube.extract_tuples(), seq_cube.extract_tuples());
        assert_eq!(report.node_rows, seq_report.node_rows);
        assert_eq!(report.cell_rows, seq_report.cell_rows);
        assert_eq!(metrics.events_parsed, docs.len() as u64);
        assert_eq!(wh.stored().len(), 1);
        // The stored cube rebuilds to the same facts.
        let rebuilt = wh.rebuild(report.schema_id).unwrap();
        assert_eq!(rebuilt.extract_tuples(), cube.extract_tuples());
    }

    #[test]
    fn stored_windows_survive_a_restart() {
        use crate::store_query::StoreBackedCube;

        let vfs = Vfs::memory();
        let (first_id, second_id, first_tuples, second_tuples) = {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            let mut model = NosqlDwarfModel::with_db(db);
            model.create_schema().unwrap();
            let mut wh = CubeWarehouse::new(Box::new(model));
            let first = sharded(2, [feed(1, 3, 5)]).cube;
            let r1 = wh.store_window(&first, true).unwrap();
            let second = sharded(2, [feed(2, 4, 6)]).cube;
            let r2 = wh.store_window(&second, true).unwrap();
            (
                r1.schema_id,
                r2.schema_id,
                first.extract_tuples(),
                second.extract_tuples(),
            )
            // Warehouse and engine dropped here; nothing survives but the VFS.
        };
        let mut model = NosqlDwarfModel::open(vfs).unwrap();
        assert_eq!(
            model.rebuild(first_id).unwrap().extract_tuples(),
            first_tuples
        );
        assert_eq!(
            model.rebuild(second_id).unwrap().extract_tuples(),
            second_tuples
        );
        // Store-backed queries work against the recovered engine too.
        let mut sbc = StoreBackedCube::open(&mut model, second_id).unwrap();
        assert_eq!(
            sbc.point(&[Selection::All, Selection::value("B")]).unwrap(),
            Some(6)
        );
    }

    #[test]
    fn windows_are_independent() {
        let mut wh = CubeWarehouse::new(ModelKind::NosqlDwarf.build().unwrap());
        let StreamResult {
            cube: first,
            metrics,
        } = sharded(2, [feed(1, 3, 5)]);
        wh.store_window(&first, true).unwrap();
        assert_eq!(metrics.events_in, 1);
        // Second window starts empty.
        let StreamResult {
            cube: second,
            metrics,
        } = sharded(2, [feed(2, 4, 6), feed(3, 7, 8)]);
        wh.store_window(&second, true).unwrap();
        assert_eq!(metrics.events_in, 2, "fresh pool must not inherit counters");
        assert_eq!(first.tuple_count(), 2);
        assert_eq!(second.tuple_count(), 4);
        assert_eq!(wh.stored().len(), 2);
        let v = Selection::value;
        assert_eq!(first.point(&[v("01"), v("A")]), Some(3));
        assert_eq!(second.point(&[v("03"), v("B")]), Some(8));
    }

    #[test]
    fn a_window_whose_store_crashed_is_stored_after_reopen() {
        use crate::models::protocol::Layout;

        let mut pipeline = StreamPipeline::new(def());
        for day in 1..=28 {
            pipeline
                .ingest(&feed(day, i64::from(day), 2 * i64::from(day)))
                .unwrap();
        }
        let cube = pipeline.build_cube();
        let cells = MappedDwarf::new(&cube).cell_count();
        // Small memtables and WAL segments: the meta row's writes cross
        // flushes and rotations. The cell rows are one ingest.
        let open = |vfs: Vfs| {
            let options = OpenOptions::default()
                .vfs(vfs)
                .memtable_flush_bytes(2048)
                .wal_segment_bytes(4096)
                .compaction_threshold(3)
                .compaction_threads(0);
            let mut model = NosqlDwarfModel::with_db(Db::open(options).unwrap());
            model.create_schema().unwrap();
            Box::new(model)
        };
        // The store's mutating ops, counted on an uninjected run.
        let (vfs, faults) = Vfs::with_faults(Vfs::memory(), 0);
        let mut wh = CubeWarehouse::new(open(vfs));
        let first = faults.ops();
        wh.store_window(&cube, true).unwrap();
        let last = faults.ops();

        let (mut no_cells, mut all_cells) = (0, 0);
        for crash_at in first..last {
            let (vfs, faults) = Vfs::with_faults(Vfs::memory(), crash_at);
            let mut wh = CubeWarehouse::new(open(vfs.clone()));
            faults.crash_at(crash_at);
            assert!(wh.store_window(&cube, true).is_err(), "crash at {crash_at}");
            assert!(wh.stored().is_empty(), "crash at {crash_at}");
            drop(wh);
            faults.disarm();
            let mut model = NosqlDwarfModel::open(vfs).unwrap();
            let survived = NosqlDwarfModel::stored_cells(model.db_mut(), 1).unwrap();
            // No crash leaves part of the cell set.
            match survived.len() {
                0 => no_cells += 1,
                n if n == cells => all_cells += 1,
                n => panic!("crash at {crash_at}: {n} of {cells} cells survived"),
            }
            // The window is still in hand: store it over the reopened engine.
            let mut wh = CubeWarehouse::new(Box::new(model));
            let report = wh.store_window(&cube, true).unwrap();
            assert_eq!(
                wh.rebuild(report.schema_id).unwrap().extract_tuples(),
                cube.extract_tuples(),
                "crash at {crash_at}"
            );
        }
        assert!(
            no_cells > 0 && all_cells > 0,
            "{no_cells} without cells, {all_cells} with"
        );
    }
}
