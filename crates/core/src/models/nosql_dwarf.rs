//! The paper's proposed model: Table 1 on the NoSQL engine.
//!
//! Three column families — `DWARF_Schema`, `DWARF_Node`, `DWARF_Cell` —
//! with one primary-key index each and **no secondary indexes**. Node→cell
//! relationships live in `set<int>` columns, so each node costs one insert
//! regardless of fan-out; that is what wins Tables 4 and 5.

use super::engine::Table;
use super::protocol::{flat_cells, read_meta, Layout, NodeRows, StoredMeta};
use super::{offset_id, ModelKind};
use crate::error::{CoreError, Result};
use crate::mapping::{CellRecord, MappedDwarf, NodeRecord, StoredCell};
use crate::node_source::{ReadStats, DEFAULT_NODE_CACHE_CAPACITY};
use sc_dwarf::source::OwnedCell;
use sc_nosql::{CqlValue, Db, OpenOptions, ValueRef};
use sc_storage::Vfs;

const KEYSPACE: &str = "smartcity";
const NODES: Table = Table::new(KEYSPACE, "dwarf_node");
pub(crate) const CELLS: Table = Table::new(KEYSPACE, "dwarf_cell");

/// `DWARF_Cell`'s columns, in Figure 3's order.
pub(crate) const CELL_COLUMNS: [&str; 8] = [
    "id",
    "key",
    "measure",
    "parentNode",
    "pointerNode",
    "leaf",
    "schema_id",
    "dimension_table_name",
];

/// One mapped cell as a [`CELL_COLUMNS`] row: what `store` writes and what
/// Figure 3 renders. `base` is the origin of the schema's id space (0 gives
/// the figure's bare ids).
pub(crate) fn cell_row(cell: &CellRecord, schema_id: i64, base: i64) -> [ValueRef<'_>; 8] {
    [
        ValueRef::Int(base + cell.id),
        ValueRef::Text(&cell.key),
        ValueRef::Int(cell.measure),
        ValueRef::Int(base + cell.parent_node),
        cell.pointer_node
            .map_or(ValueRef::Null, |p| ValueRef::Int(base + p)),
        ValueRef::Boolean(cell.leaf),
        ValueRef::Int(schema_id),
        ValueRef::Text(&cell.dimension),
    ]
}

/// `rows` column by column: `N` columns of one cell per row.
fn columns<'a, const N: usize>(
    rows: impl ExactSizeIterator<Item = [ValueRef<'a>; N]>,
) -> Vec<Vec<ValueRef<'a>>> {
    let mut columns: Vec<Vec<_>> = (0..N).map(|_| Vec::with_capacity(rows.len())).collect();
    for row in rows {
        for (column, cell) in columns.iter_mut().zip(row) {
            column.push(cell);
        }
    }
    columns
}

schema_model!(
    /// The NoSQL-DWARF schema model.
    NosqlDwarfModel,
    Db,
    Db::open(OpenOptions::default()).expect("in-memory open cannot fail")
);

impl NosqlDwarfModel {
    /// Opens a model over `vfs`, recovering whatever an earlier engine
    /// persisted there (manifest, commit log, SSTables).
    pub fn open(vfs: Vfs) -> Result<NosqlDwarfModel> {
        let db = Db::open(OpenOptions::default().vfs(vfs))?;
        Ok(NosqlDwarfModel { db })
    }

    /// Creates a model over an existing engine (shared keyspaces).
    pub fn with_db(db: Db) -> NosqlDwarfModel {
        NosqlDwarfModel { db }
    }
}

impl Layout for NosqlDwarfModel {
    type Db = Db;
    const KIND: ModelKind = ModelKind::NosqlDwarf;
    const META: Table = Table::new(KEYSPACE, "dwarf_schema");
    const HAS_IS_CUBE: bool = true;

    fn db(&mut self) -> &mut Db {
        &mut self.db
    }

    fn ddl() -> Vec<String> {
        vec![
            format!("CREATE KEYSPACE {KEYSPACE}"),
            format!(
                "CREATE TABLE {KEYSPACE}.dwarf_schema (id int, node_count int, \
                 cell_count int, size_as_mb int, entry_node_id int, is_cube boolean, \
                 schema_meta text, PRIMARY KEY (id))"
            ),
            format!(
                "CREATE TABLE {KEYSPACE}.dwarf_node (id int, parentIds set<int>, \
                 childrenIds set<int>, root boolean, schema_id int, PRIMARY KEY (id))"
            ),
            format!(
                "CREATE TABLE {KEYSPACE}.dwarf_cell (id int, key text, measure int, \
                 parentNode int, pointerNode int, leaf boolean, schema_id int, \
                 dimension_table_name text, PRIMARY KEY (id))"
            ),
        ]
    }

    /// The node rows go in as one sorted run of columns
    /// ([`Db::ingest_columns`]): a new cube's ids are fresh, and the
    /// mapping holds them in id order. Every id set is a run of one
    /// buffer, the mapping's ascending cell ids moved into the schema's id
    /// space.
    fn insert_nodes(db: &mut Db, id: i64, mapped: &MappedDwarf) -> Result<usize> {
        let ids: Vec<i64> = (mapped.nodes.iter())
            .flat_map(|node: &NodeRecord| [&node.parent_cell_ids, &node.child_cell_ids])
            .flat_map(|run| run.iter().map(|&cell| offset_id(id, cell)))
            .collect();
        let mut next = 0;
        let mut run = |len: usize| {
            next += len;
            ValueRef::IntSet(&ids[next - len..next])
        };
        let rows = mapped.nodes.iter().map(|node| {
            [
                ValueRef::Int(offset_id(id, node.id)),
                run(node.parent_cell_ids.len()),
                run(node.child_cell_ids.len()),
                ValueRef::Boolean(node.root),
                ValueRef::Int(id),
            ]
        });
        let names = ["id", "parentIds", "childrenIds", "root", "schema_id"];
        Ok(db.ingest_columns(NODES.space, NODES.name, &names, columns(rows))?)
    }

    /// One sorted run of columns too, as the node rows; `key` and
    /// `dimension_table_name` are borrowed from the mapping.
    fn insert_cells(db: &mut Db, id: i64, mapped: &MappedDwarf) -> Result<usize> {
        let base = offset_id(id, 0);
        let rows = mapped.cells.iter().map(|cell| cell_row(cell, id, base));
        Ok(db.ingest_columns(CELLS.space, CELLS.name, &CELL_COLUMNS, columns(rows))?)
    }

    fn stored_cells(db: &mut Db, id: i64) -> Result<Vec<StoredCell>> {
        let columns = &["key", "measure", "parentNode", "pointerNode", "leaf"];
        flat_cells(db, CELLS, columns, "schema_id", id)
    }
}

impl NodeRows for NosqlDwarfModel {
    const NODE_CACHE: usize = DEFAULT_NODE_CACHE_CAPACITY;

    fn stored_meta(&mut self, id: i64) -> Result<StoredMeta> {
        read_meta(&mut self.db, Self::META, id)
    }

    /// The node row's `childrenIds` set, then every cell of the node in
    /// **one** batched key read ([`Db::get_rows`]: `SELECT ... WHERE id IN
    /// (...)` without the statement), whose keys share their blocks' reads.
    fn node_cells(&mut self, id: i64, stats: &mut ReadStats) -> Result<Vec<OwnedCell>> {
        let db = &self.db;
        stats.store_selects += 1;
        let r = db.get_rows(
            NODES.space,
            NODES.name,
            &["childrenIds"],
            [CqlValue::Int(id)],
        )?;
        let row = r
            .first()
            .ok_or_else(|| CoreError::Inconsistent(format!("node {id} missing from store")))?;
        stats.rows_fetched += 1;
        let children = row.get_int_set("childrenIds")?;
        let expected = children.len();
        if expected == 0 {
            return Ok(Vec::new());
        }
        stats.store_selects += 1;
        stats.batched_selects += 1;
        let columns = ["key", "measure", "pointerNode"];
        let children = children.iter().map(|&c| CqlValue::Int(c));
        let r = db.get_rows(CELLS.space, CELLS.name, &columns, children)?;
        if r.len() != expected {
            return Err(CoreError::Inconsistent(format!(
                "node {id}: fetched {} of {expected} cells",
                r.len(),
            )));
        }
        stats.rows_fetched += r.len() as u64;
        crate::obs::store_query().batch_size.record(r.len() as u64);
        let cells = r.into_iter().map(|mut row| {
            Ok(OwnedCell {
                key: row.take_text("key")?,
                measure: row.get_int("measure")?,
                child: row.get_opt_int("pointerNode")?,
            })
        });
        cells.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SchemaModel;
    use sc_dwarf::{CubeSchema, Dwarf, TupleSet};

    fn cube() -> Dwarf {
        let schema = CubeSchema::new(["country", "city", "station"], "bikes");
        let mut ts = TupleSet::new(&schema);
        ts.push(["Ireland", "Dublin", "Fenian St"], 3);
        ts.push(["Ireland", "Dublin", "Smithfield"], 5);
        ts.push(["Ireland", "Cork", "Patrick St"], 2);
        ts.push(["France", "Paris", "Bastille"], 7);
        Dwarf::build(schema, ts)
    }

    #[test]
    fn size_as_mb_written_back() {
        let c = cube();
        let mut model = NosqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        let r = model
            .db_mut()
            .execute_cql(&format!(
                "SELECT size_as_mb, node_count, cell_count FROM smartcity.dwarf_schema WHERE id = {}",
                report.schema_id
            ))
            .unwrap();
        let row = r.first().unwrap();
        assert_eq!(
            row.get_int("size_as_mb").unwrap(),
            report.size.as_mb_rounded() as i64
        );
        assert_eq!(row.get_int("node_count").unwrap(), report.node_rows as i64);
        assert_eq!(row.get_int("cell_count").unwrap(), report.cell_rows as i64);
    }

    #[test]
    fn a_store_crashed_at_any_op_rebuilds_exactly_or_fails_typed() {
        // ~40 tuples; small memtables and WAL segments, so the meta row's
        // writes go through flushes and rotations; the node and cell rows
        // are one ingest each.
        let schema = CubeSchema::new(["day", "area", "station"], "bikes");
        let mut ts = TupleSet::new(&schema);
        for d in 0..4 {
            for a in 0..3 {
                for s in 0..5 {
                    if (d + a + s) % 3 != 0 {
                        let tuple = [format!("d{d}"), format!("a{a}"), format!("s{a}.{s}")];
                        ts.push(tuple, d * 10 + s);
                    }
                }
            }
        }
        let cube = Dwarf::build(schema, ts);
        let mapped = MappedDwarf::new(&cube);
        let open = |vfs: Vfs| {
            let options = OpenOptions::default()
                .vfs(vfs)
                .memtable_flush_bytes(2048)
                .wal_segment_bytes(4096)
                .compaction_threshold(3)
                .compaction_threads(0);
            let mut model = NosqlDwarfModel::with_db(Db::open(options).unwrap());
            model.create_schema().unwrap();
            model
        };
        // The store's mutating ops, counted on an uninjected run.
        let (vfs, faults) = Vfs::with_faults(Vfs::memory(), 0);
        let mut model = open(vfs);
        let first = faults.ops();
        model.store(&mapped, &cube, true).unwrap();
        let last = faults.ops();
        // Each ingest is one SSTable append and then one manifest record,
        // and the sweep below crashes at both.
        let trace = faults.trace();
        for table in [NODES, CELLS] {
            let prefix = format!("{}/{}/sst-", table.space, table.name);
            let writes: Vec<u64> = (trace.iter())
                .filter(|op| op.file.starts_with(&prefix))
                .map(|op| op.index)
                .collect();
            assert_eq!(writes.len(), 1, "{prefix}: {writes:?}");
            let record = &trace[writes[0] as usize + 1];
            assert_eq!(record.file, "MANIFEST", "{prefix}");
            assert!((first..last).contains(&writes[0]) && (first..last).contains(&record.index));
        }

        let (mut exact, mut refused) = (0, 0);
        for crash_at in first..last {
            let (vfs, faults) = Vfs::with_faults(Vfs::memory(), crash_at);
            let mut model = open(vfs.clone());
            faults.crash_at(crash_at);
            assert!(
                model.store(&mapped, &cube, true).is_err(),
                "crash at {crash_at}"
            );
            drop(model);
            faults.disarm();
            let mut model = NosqlDwarfModel::open(vfs).unwrap();
            match model.rebuild(1) {
                Ok(back) => {
                    let context = format!("crash at {crash_at}: a different cube");
                    assert_eq!(back.extract_tuples(), cube.extract_tuples(), "{context}");
                    exact += 1;
                }
                // Cells short of the meta row's count, or no meta row yet.
                Err(CoreError::Inconsistent(_)) | Err(CoreError::UnknownSchema(1)) => refused += 1,
                Err(e) => panic!("crash at {crash_at}: {e}"),
            }
        }
        assert!(exact > 0 && refused > 0, "{exact} exact, {refused} refused");
    }

    #[test]
    fn node_rows_use_sets() {
        let c = cube();
        let mut model = NosqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        let r = model
            .db_mut()
            .execute_cql("SELECT childrenIds FROM smartcity.dwarf_node LIMIT 1")
            .unwrap();
        assert!(matches!(
            r.rows()[0].get("childrenIds").unwrap(),
            CqlValue::IntSet(_)
        ));
    }
}
