//! The four evaluated schema models (§5 of the paper).
//!
//! Every model implements [`SchemaModel`]: create the physical schema once,
//! then `store` mapped cubes (bulk insert, timed — Table 5), measure `size`
//! (Table 4) and `rebuild` cubes back (the bi-directional mapping).
//!
//! One protocol, four layouts: `protocol` holds the single store driver and
//! the single rebuild driver, written over the two `engine` adapters; each
//! model file keeps only what the paper says differs — its DDL, the tables
//! it writes, its row shapes and how its rows become stored cells.

/// Declares a schema model: a struct owning its engine, with the
/// constructor and the accessor every model offers.
macro_rules! schema_model {
    ($(#[$doc:meta])* $name:ident, $db:ty, $fresh:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            db: $db,
        }

        impl $name {
            /// Creates a model over a fresh in-memory engine.
            pub fn in_memory() -> $name {
                $name { db: $fresh }
            }

            /// Access to the underlying engine (store-backed queries,
            /// diagnostics).
            pub fn db_mut(&mut self) -> &mut $db {
                &mut self.db
            }
        }
    };
}

pub(crate) mod engine;
mod mysql_dwarf;
mod mysql_min;
pub(crate) mod nosql_dwarf;
pub(crate) mod nosql_min;
pub(crate) mod protocol;

pub use mysql_dwarf::MysqlDwarfModel;
pub use mysql_min::MysqlMinModel;
pub use nosql_dwarf::NosqlDwarfModel;
pub use nosql_min::NosqlMinModel;

use crate::error::Result;
use crate::mapping::MappedDwarf;
use sc_dwarf::Dwarf;
use sc_encoding::ByteSize;
use std::time::Duration;

/// Which of the paper's four schemas a model implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Table 1 layout on the NoSQL engine (the paper's proposal).
    NosqlDwarf,
    /// Table 3 layout on the NoSQL engine (+2 secondary indexes).
    NosqlMin,
    /// Figure 4 layout on the relational engine.
    MysqlDwarf,
    /// Table 3's layout ported to the relational engine.
    MysqlMin,
}

impl ModelKind {
    /// All four, in the paper's table row order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::MysqlDwarf,
        ModelKind::MysqlMin,
        ModelKind::NosqlDwarf,
        ModelKind::NosqlMin,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::NosqlDwarf => "NoSQL-DWARF",
            ModelKind::NosqlMin => "NoSQL-Min",
            ModelKind::MysqlDwarf => "MySQL-DWARF",
            ModelKind::MysqlMin => "MySQL-Min",
        }
    }

    /// Creates a fresh in-memory model of this kind with its schema created.
    pub fn build(self) -> Result<Box<dyn SchemaModel>> {
        let mut model: Box<dyn SchemaModel> = match self {
            ModelKind::NosqlDwarf => Box::new(NosqlDwarfModel::in_memory()),
            ModelKind::NosqlMin => Box::new(NosqlMinModel::in_memory()),
            ModelKind::MysqlDwarf => Box::new(MysqlDwarfModel::in_memory()),
            ModelKind::MysqlMin => Box::new(MysqlMinModel::in_memory()),
        };
        model.create_schema()?;
        Ok(model)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of storing one cube.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Id assigned to the stored schema/cube.
    pub schema_id: i64,
    /// Node rows written (0 for the Min layouts).
    pub node_rows: usize,
    /// Cell rows written.
    pub cell_rows: usize,
    /// Rows written, each one write: the statements the paper counts, one
    /// INSERT per record, however the engine commits them.
    pub statements: usize,
    /// Wall-clock time of the insert phase (Table 5's measurement).
    pub elapsed: Duration,
    /// Store size after flushing (Table 4's measurement).
    pub size: ByteSize,
}

/// A physical schema that can store and rebuild DWARF cubes.
pub trait SchemaModel {
    /// Which schema this is.
    fn kind(&self) -> ModelKind;

    /// Creates keyspaces/databases, tables and indexes. Call once.
    fn create_schema(&mut self) -> Result<()>;

    /// Stores a mapped cube in bulk, returning id, timing and size.
    ///
    /// `is_cube` is the paper's flag distinguishing a full DWARF schema from
    /// a sub-cube produced by querying one.
    fn store(&mut self, mapped: &MappedDwarf, cube: &Dwarf, is_cube: bool) -> Result<StoreReport>;

    /// Rebuilds a stored cube (the reverse mapping).
    fn rebuild(&mut self, schema_id: i64) -> Result<Dwarf>;

    /// Total on-disk size of the store right now (flushes first).
    fn size(&mut self) -> Result<ByteSize>;
}

/// Id-space separation between stored schemas: record ids are
/// `schema_id * ID_SPAN + mapped id`, so many cubes can share the single-id
/// primary keys the paper's Table 1/3 layouts use.
pub const ID_SPAN: i64 = 10_000_000_000;

/// Offsets a mapped id into a schema's id space.
pub fn offset_id(schema_id: i64, mapped_id: i64) -> i64 {
    schema_id * ID_SPAN + mapped_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use sc_dwarf::{CubeSchema, TupleSet};

    /// The paper's Figure 1 cube.
    fn figure1() -> Dwarf {
        let schema = CubeSchema::new(["country", "city", "station"], "bikes");
        let mut ts = TupleSet::new(&schema);
        ts.push(["Ireland", "Dublin", "Fenian St"], 3);
        ts.push(["Ireland", "Dublin", "Smithfield"], 5);
        ts.push(["Ireland", "Cork", "Patrick St"], 2);
        ts.push(["France", "Paris", "Bastille"], 7);
        Dwarf::build(schema, ts)
    }

    fn hires() -> Dwarf {
        let schema = CubeSchema::new(["day", "station"], "hires");
        let mut ts = TupleSet::new(&schema);
        ts.push(["mon", "a"], 1);
        ts.push(["mon", "b"], 2);
        ts.push(["tue", "a"], 4);
        Dwarf::build(schema, ts)
    }

    fn empty() -> Dwarf {
        let schema = CubeSchema::new(["day", "station"], "hires");
        let ts = TupleSet::new(&schema);
        Dwarf::build(schema, ts)
    }

    #[test]
    fn every_model_stores_and_rebuilds_each_cube_under_its_own_id() {
        let cubes = [figure1(), hires(), empty()];
        for kind in ModelKind::ALL {
            let mut model = kind.build().unwrap();
            for (i, cube) in cubes.iter().enumerate() {
                let mapped = MappedDwarf::new(cube);
                let report = model.store(&mapped, cube, i == 1).unwrap();
                assert_eq!(report.schema_id, i as i64 + 1, "{kind}");
                // One statement per row, plus the meta row: node and cell
                // rows where the layout has them, and Figure 4's edge rows.
                let edges = mapped.cell_count()
                    + mapped
                        .cells
                        .iter()
                        .filter(|c| c.pointer_node.is_some())
                        .count();
                let (node_rows, edge_rows) = match kind {
                    ModelKind::NosqlDwarf => (mapped.node_count(), 0),
                    ModelKind::MysqlDwarf => (mapped.node_count(), edges),
                    ModelKind::NosqlMin | ModelKind::MysqlMin => (0, 0),
                };
                assert_eq!(report.node_rows, node_rows, "{kind} cube {i}");
                assert_eq!(report.cell_rows, mapped.cell_count(), "{kind} cube {i}");
                assert_eq!(
                    report.statements,
                    1 + node_rows + mapped.cell_count() + edge_rows,
                    "{kind} cube {i}"
                );
                assert!(report.size.as_bytes() > 0);
            }
            for (i, cube) in cubes.iter().enumerate() {
                let back = model.rebuild(i as i64 + 1).unwrap();
                assert_eq!(
                    back.extract_tuples(),
                    cube.extract_tuples(),
                    "{kind} cube {i}"
                );
                assert_eq!(back.schema(), cube.schema());
            }
            assert!(matches!(
                model.rebuild(99),
                Err(CoreError::UnknownSchema(99))
            ));
        }
    }

    /// Stores Figure 1, loses the root node's first cell row, and expects
    /// `rebuild` to notice rather than return a smaller cube.
    fn rebuild_notices_a_lost_cell<M: SchemaModel>(mut model: M, delete: impl FnOnce(&mut M, i64)) {
        let cube = figure1();
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&cube), &cube, false).unwrap();
        delete(&mut model, offset_id(report.schema_id, 1));
        assert!(
            matches!(
                model.rebuild(report.schema_id),
                Err(CoreError::Inconsistent(_))
            ),
            "{}",
            model.kind()
        );
    }

    #[test]
    fn a_lost_cell_row_fails_rebuild_in_every_model() {
        rebuild_notices_a_lost_cell(NosqlDwarfModel::in_memory(), |m, id| {
            let cql = format!("DELETE FROM smartcity.dwarf_cell WHERE id = {id}");
            m.db_mut().execute_cql(&cql).unwrap();
        });
        rebuild_notices_a_lost_cell(NosqlMinModel::in_memory(), |m, id| {
            let cql = format!("DELETE FROM smartcity_min.dwarf_cell WHERE id = {id}");
            m.db_mut().execute_cql(&cql).unwrap();
        });
        rebuild_notices_a_lost_cell(MysqlDwarfModel::in_memory(), |m, id| {
            let sql = format!("DELETE FROM dwarf.cell WHERE id = {id}");
            m.db_mut().execute_sql(&sql).unwrap();
        });
        rebuild_notices_a_lost_cell(MysqlMinModel::in_memory(), |m, id| {
            let sql = format!("DELETE FROM dwarf_min.dwarf_cell WHERE id = {id}");
            m.db_mut().execute_sql(&sql).unwrap();
        });
    }

    #[test]
    fn labels_match_paper_rows() {
        let labels: Vec<&str> = ModelKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["MySQL-DWARF", "MySQL-Min", "NoSQL-DWARF", "NoSQL-Min"]
        );
    }

    #[test]
    fn id_spaces_do_not_collide() {
        assert!(offset_id(1, ID_SPAN - 1) < offset_id(2, 1));
        assert_eq!(offset_id(3, 7), 3 * ID_SPAN + 7);
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in ModelKind::ALL {
            let model = kind.build().unwrap();
            assert_eq!(model.kind(), kind);
        }
    }
}
