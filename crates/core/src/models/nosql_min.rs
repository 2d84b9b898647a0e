//! NoSQL-Min: Table 3 on the NoSQL engine.
//!
//! The DWARF Node construct is not stored — cells carry their parent and
//! pointer node ids, and nodes are rebuilt from those when needed. The cost
//! (§5.1): reconstruction needs lookups by `parentNodeId`/`childNodeId`, so
//! the cell table carries **two secondary indexes**. Each cell insert then
//! pays a read-before-write of the old row plus two posting writes (and
//! their commit-log entries), making this the slowest loader in Table 5;
//! the posting rows also inflate its size in Table 4.
//!
//! Table 3 omits a measure column, but leaf cells are meaningless without
//! one; we add `measure int` and record the deviation in DESIGN.md.

use super::engine::{Engine, Table, Value};
use super::protocol::{flat_cells, read_meta, Layout, NodeRows, StoredMeta};
use super::{offset_id, ModelKind};
use crate::error::Result;
use crate::mapping::{MappedDwarf, StoredCell};
use crate::node_source::ReadStats;
use sc_dwarf::source::OwnedCell;
use sc_nosql::{Db, OpenOptions};

const KEYSPACE: &str = "smartcity_min";
const CELLS: Table = Table::new(KEYSPACE, "dwarf_cell");

/// Writes Table 3's cell rows, on either engine: each cell carries its
/// parent and pointer node ids, and `root` marks the entry node's cells.
pub(crate) fn insert_min_cells<E: Engine>(
    db: &mut E,
    table: Table,
    cube_id: i64,
    mapped: &MappedDwarf,
) -> Result<usize> {
    let entry = mapped.entry_node_id;
    db.insert(
        table,
        &[
            "id",
            "item_name",
            "measure",
            "leaf",
            "root",
            "cubeid",
            "parentNodeId",
            "childNodeId",
        ],
        mapped.cells.iter().map(|cell| {
            [
                E::Value::int(offset_id(cube_id, cell.id)),
                E::Value::text(&cell.key),
                E::Value::int(cell.measure),
                E::Value::bool(cell.leaf),
                E::Value::bool(cell.parent_node == entry),
                E::Value::int(cube_id),
                E::Value::int(offset_id(cube_id, cell.parent_node)),
                E::Value::opt_int(cell.pointer_node.map(|p| offset_id(cube_id, p))),
            ]
        }),
    )
}

/// Reads Table 3's cell rows of `cube_id` back, on either engine.
pub(crate) fn stored_min_cells<E: Engine>(
    db: &mut E,
    table: Table,
    cube_id: i64,
) -> Result<Vec<StoredCell>> {
    let columns = &[
        "item_name",
        "measure",
        "parentNodeId",
        "childNodeId",
        "leaf",
    ];
    flat_cells(db, table, columns, "cubeid", cube_id)
}

schema_model!(
    /// The NoSQL-Min schema model.
    NosqlMinModel,
    Db,
    Db::open(OpenOptions::default()).expect("in-memory open cannot fail")
);

impl Layout for NosqlMinModel {
    type Db = Db;
    const KIND: ModelKind = ModelKind::NosqlMin;
    const META: Table = Table::new(KEYSPACE, "dwarf_cube");
    const HAS_IS_CUBE: bool = false;

    fn db(&mut self) -> &mut Db {
        &mut self.db
    }

    fn ddl() -> Vec<String> {
        vec![
            format!("CREATE KEYSPACE {KEYSPACE}"),
            format!(
                "CREATE TABLE {KEYSPACE}.dwarf_cube (id int, node_count int, \
                 cell_count int, size_as_mb int, entry_node_id int, schema_meta text, \
                 PRIMARY KEY (id))"
            ),
            format!(
                "CREATE TABLE {KEYSPACE}.dwarf_cell (id int, item_name text, \
                 measure int, leaf boolean, root boolean, cubeid int, \
                 parentNodeId int, childNodeId int, PRIMARY KEY (id))"
            ),
            // The two secondary indexes §5's Storage Time discussion blames.
            format!("CREATE INDEX ON {KEYSPACE}.dwarf_cell (parentNodeId)"),
            format!("CREATE INDEX ON {KEYSPACE}.dwarf_cell (childNodeId)"),
        ]
    }

    fn insert_cells(db: &mut Db, id: i64, mapped: &MappedDwarf) -> Result<usize> {
        insert_min_cells(db, CELLS, id, mapped)
    }

    fn stored_cells(db: &mut Db, id: i64) -> Result<Vec<StoredCell>> {
        stored_min_cells(db, CELLS, id)
    }
}

impl NodeRows for NosqlMinModel {
    /// Deliberately uncached: the schema stores no node rows, and the
    /// reconstruction every lookup then pays is the cost §5.1 anticipates
    /// ("the absence of a DWARF Node construct will have a significant
    /// impact on query times"), which a cache would hide.
    const NODE_CACHE: usize = 0;

    fn stored_meta(&mut self, id: i64) -> Result<StoredMeta> {
        read_meta(&mut self.db, Self::META, id)
    }

    /// Reconstructs the node through the `parentNodeId` secondary index.
    fn node_cells(&mut self, id: i64, stats: &mut ReadStats) -> Result<Vec<OwnedCell>> {
        stats.store_selects += 1;
        let columns = &["item_name", "measure", "childNodeId"];
        let cells = self
            .db
            .select(CELLS, columns, Some(("parentNodeId", id)), |row| {
                Ok(OwnedCell {
                    key: row.text(0)?.to_string(),
                    measure: row.int(1)?,
                    child: row.opt_int(2)?,
                })
            })?;
        stats.rows_fetched += cells.len() as u64;
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SchemaModel;
    use sc_dwarf::{CubeSchema, Dwarf, TupleSet};

    fn cube() -> Dwarf {
        let schema = CubeSchema::new(["day", "station"], "hires");
        let mut ts = TupleSet::new(&schema);
        ts.push(["mon", "a"], 1);
        ts.push(["mon", "b"], 2);
        ts.push(["tue", "a"], 4);
        Dwarf::build(schema, ts)
    }

    #[test]
    fn secondary_index_supports_node_reconstruction() {
        let c = cube();
        let mut model = NosqlMinModel::in_memory();
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        // Rebuild a node by querying its cells via the parentNodeId index —
        // the access path the schema exists to serve.
        let entry = offset_id(report.schema_id, 1);
        let r = model
            .db_mut()
            .execute_cql(&format!(
                "SELECT item_name FROM smartcity_min.dwarf_cell WHERE parentNodeId = {entry}"
            ))
            .unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn indexes_make_it_bigger_than_nosql_dwarf() {
        let c = cube();
        let mut min = NosqlMinModel::in_memory();
        min.create_schema().unwrap();
        let min_report = min.store(&MappedDwarf::new(&c), &c, false).unwrap();
        let mut full = super::super::NosqlDwarfModel::in_memory();
        full.create_schema().unwrap();
        let full_report = full.store(&MappedDwarf::new(&c), &c, false).unwrap();
        // Same cells stored; Min pays for two index CFs. (On tiny cubes the
        // node CF may still dominate, so compare per-statement sizes only
        // loosely: Min must at minimum not be smaller per cell.)
        assert!(
            min_report.size.as_bytes() * (full_report.cell_rows as u64)
                >= full_report.size.as_bytes() * (min_report.cell_rows as u64) / 2
        );
    }
}
