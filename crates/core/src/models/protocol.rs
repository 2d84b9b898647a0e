//! The one store/rebuild protocol all four schema models run.
//!
//! A model is a [`Layout`]: its DDL, which tables it writes, how a mapped
//! node or cell becomes a row of each, and how its stored rows become
//! [`StoredCell`]s. Everything around that — id allocation, the meta row,
//! statement counting, the clock, flush-and-measure, the `size_as_mb`
//! write-back, the cell-count check on the way back — is the blanket
//! [`SchemaModel`] impl below, written once over the [`Engine`] adapters.

use super::engine::{Engine, Table, Value};
use super::{offset_id, ModelKind, SchemaModel, StoreReport};
use crate::error::{CoreError, Result};
use crate::mapping::{
    decode_schema_meta, encode_schema_meta, rebuild_cube, MappedDwarf, StoredCell,
};
use crate::node_source::ReadStats;
use sc_dwarf::source::OwnedCell;
use sc_dwarf::{CubeSchema, Dwarf};
use sc_encoding::ByteSize;
use std::time::Instant;

/// What differs between the paper's four schemas.
pub(crate) trait Layout {
    type Db: Engine;
    const KIND: ModelKind;
    /// The table holding one row per stored cube (`DWARF_Schema`, Table
    /// 1-A; `dwarf_cube` in Table 3). Its namespace is what `size` measures.
    const META: Table;
    /// Whether that table has Table 1-A's `is_cube` column; Table 3's cube
    /// table does not.
    const HAS_IS_CUBE: bool;

    fn db(&mut self) -> &mut Self::Db;

    /// Keyspace/database, tables and indexes, as the engine's DDL text.
    fn ddl() -> Vec<String>;

    /// Writes the node rows; the Min layouts store none.
    fn insert_nodes(_db: &mut Self::Db, _id: i64, _mapped: &MappedDwarf) -> Result<usize> {
        Ok(0)
    }

    fn insert_cells(db: &mut Self::Db, id: i64, mapped: &MappedDwarf) -> Result<usize>;

    /// Writes the relationship rows; only Figure 4 has edge tables.
    fn insert_edges(_db: &mut Self::Db, _id: i64, _mapped: &MappedDwarf) -> Result<usize> {
        Ok(0)
    }

    /// Reads every cell stored under `id` back.
    fn stored_cells(db: &mut Self::Db, id: i64) -> Result<Vec<StoredCell>>;
}

/// A NoSQL model the store-backed cursor
/// ([`StoreNodeSource`](crate::StoreNodeSource)) can walk node by node.
/// Nominally public because it bounds that cursor's public impls; this
/// module is not, so only the two NoSQL models implement it.
pub trait NodeRows {
    /// Node-cache capacity of a cursor opened without an explicit one.
    const NODE_CACHE: usize;

    /// [`read_meta`] over this model's meta table.
    fn stored_meta(&mut self, id: i64) -> Result<StoredMeta>;

    /// Reads the cell rows stored under node `id`, counting into `stats`
    /// the statements issued and the rows they returned.
    fn node_cells(&mut self, id: i64, stats: &mut ReadStats) -> Result<Vec<OwnedCell>>;
}

/// What a reader needs of a stored cube's meta row.
#[derive(Debug)]
pub struct StoredMeta {
    pub entry_node_id: i64,
    pub schema: CubeSchema,
    pub cell_count: i64,
}

/// Reads the meta row of stored cube `id`: the only place that does, for
/// `rebuild` and for the store-backed cursor alike.
pub(crate) fn read_meta<E: Engine>(db: &mut E, meta: Table, id: i64) -> Result<StoredMeta> {
    let columns = &["entry_node_id", "schema_meta", "cell_count"];
    let mut rows = db.select(meta, columns, Some(("id", id)), |row| {
        Ok(StoredMeta {
            entry_node_id: row.int(0)?,
            schema: decode_schema_meta(row.text(1)?)?,
            cell_count: row.int(2)?,
        })
    })?;
    rows.pop().ok_or(CoreError::UnknownSchema(id))
}

/// Reads a cell table whose rows carry their own parent and pointer node ids
/// (every layout but Figure 4's). `columns` name, in order, the key, the
/// measure, the parent node, the pointer node and the leaf flag; `owner` is
/// the column holding the cube id.
pub(crate) fn flat_cells<E: Engine>(
    db: &mut E,
    table: Table,
    columns: &[&str; 5],
    owner: &str,
    id: i64,
) -> Result<Vec<StoredCell>> {
    db.select(table, columns, Some((owner, id)), |row| {
        Ok(StoredCell {
            key: row.text(0)?.to_string(),
            measure: row.int(1)?,
            parent_node: row.int(2)?,
            pointer_node: row.opt_int(3)?,
            leaf: row.bool(4)?,
        })
    })
}

impl<L: Layout> SchemaModel for L {
    fn kind(&self) -> ModelKind {
        L::KIND
    }

    fn create_schema(&mut self) -> Result<()> {
        L::ddl().iter().try_for_each(|ddl| self.db().define(ddl))
    }

    fn store(&mut self, mapped: &MappedDwarf, cube: &Dwarf, is_cube: bool) -> Result<StoreReport> {
        let db = self.db();
        let ids = db.select(L::META, &["id"], None, |row| row.int(0))?;
        let id = ids.into_iter().max().unwrap_or(0) + 1;
        let start = Instant::now();
        let schema_meta = encode_schema_meta(cube.schema());
        // Table 1-A's row; Table 3's cube row is the same without `is_cube`.
        let meta_row = |size_as_mb: i64| -> (Vec<&str>, Vec<<L::Db as Engine>::Value>) {
            let mut row = vec![
                ("id", Value::int(id)),
                ("node_count", Value::int(mapped.node_count() as i64)),
                ("cell_count", Value::int(mapped.cell_count() as i64)),
                ("size_as_mb", Value::int(size_as_mb)),
                (
                    "entry_node_id",
                    Value::int(offset_id(id, mapped.entry_node_id)),
                ),
            ];
            if L::HAS_IS_CUBE {
                row.push(("is_cube", Value::bool(is_cube)));
            }
            row.push(("schema_meta", Value::text(&schema_meta)));
            row.into_iter().unzip()
        };
        // Insertion order: meta, nodes, cells, then edges (the relational
        // layouts' foreign keys need each referenced row to exist).
        let (columns, row) = meta_row(0);
        let mut statements = db.insert(L::META, &columns, std::iter::once(row))?;
        let node_rows = L::insert_nodes(db, id, mapped)?;
        let cell_rows = L::insert_cells(db, id, mapped)?;
        statements += node_rows + cell_rows + L::insert_edges(db, id, mapped)?;
        let elapsed = start.elapsed();
        // The paper's final step: query the store's size and record it on
        // the meta row, which is rewritten whole from the values in hand.
        let size = db.flush_and_size(L::META.space)?;
        db.replace(L::META, &columns, meta_row(size.as_mb_rounded() as i64).1)?;
        Ok(StoreReport {
            schema_id: id,
            node_rows,
            cell_rows,
            statements,
            elapsed,
            size,
        })
    }

    fn rebuild(&mut self, schema_id: i64) -> Result<Dwarf> {
        let db = self.db();
        let meta = read_meta(db, L::META, schema_id)?;
        let cells = L::stored_cells(db, schema_id)?;
        // A lost row must not come back as a smaller cube, and it is what
        // makes "no cells at all" safe to read as the empty cube.
        if cells.len() as i64 != meta.cell_count {
            return Err(CoreError::Inconsistent(format!(
                "schema {schema_id}: fetched {} of {} cells",
                cells.len(),
                meta.cell_count
            )));
        }
        rebuild_cube(meta.schema, meta.entry_node_id, &cells)
    }

    fn size(&mut self) -> Result<ByteSize> {
        self.db().flush_and_size(L::META.space)
    }
}
