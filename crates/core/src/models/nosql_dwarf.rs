//! The paper's proposed model: Table 1 on the NoSQL engine.
//!
//! Three column families — `DWARF_Schema`, `DWARF_Node`, `DWARF_Cell` —
//! with one primary-key index each and **no secondary indexes**. Node→cell
//! relationships live in `set<int>` columns, so each node costs one insert
//! regardless of fan-out; that is what wins Tables 4 and 5.

use super::{offset_id, ModelKind, SchemaModel, StoreReport};
use crate::error::{CoreError, Result};
use crate::mapping::{
    decode_schema_meta, encode_schema_meta, rebuild_cube, MappedDwarf, StoredCell,
};
use sc_dwarf::Dwarf;
use sc_encoding::ByteSize;
use sc_nosql::cql::ast::{SelectColumns, Statement, TableRef, WhereClause};
use sc_nosql::{CqlValue, Db, OpenOptions};
use sc_storage::Vfs;
use std::time::Instant;

const KEYSPACE: &str = "smartcity";
/// Position of `size_as_mb` among the `dwarf_schema` columns `store` binds.
const SIZE_AS_MB: usize = 3;

fn table(name: &str) -> TableRef {
    TableRef {
        keyspace: KEYSPACE.into(),
        table: name.into(),
    }
}

/// The NoSQL-DWARF schema model.
#[derive(Debug)]
pub struct NosqlDwarfModel {
    db: Db,
}

impl NosqlDwarfModel {
    /// Creates a model over a fresh in-memory engine.
    pub fn in_memory() -> NosqlDwarfModel {
        NosqlDwarfModel {
            db: Db::open(OpenOptions::default()).expect("in-memory open cannot fail"),
        }
    }

    /// Opens a model over `vfs`, replaying whatever an earlier engine
    /// persisted there (schema journal, commit log, manifest, SSTables).
    pub fn open(vfs: Vfs) -> Result<NosqlDwarfModel> {
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true))?;
        Ok(NosqlDwarfModel { db })
    }

    /// Creates a model over an existing engine (shared keyspaces).
    pub fn with_db(db: Db) -> NosqlDwarfModel {
        NosqlDwarfModel { db }
    }

    /// Access to the underlying engine (store-backed queries, diagnostics).
    pub fn db_mut(&mut self) -> &mut Db {
        &mut self.db
    }

    fn next_schema_id(&mut self) -> Result<i64> {
        let r = self.db.execute(&Statement::select(
            table("dwarf_schema"),
            SelectColumns::named(["id"]),
            None,
            None,
        ))?;
        Ok(r.iter()
            .filter_map(|row| row.get_int("id").ok())
            .max()
            .unwrap_or(0)
            + 1)
    }

    fn schema_row(&mut self, schema_id: i64) -> Result<(i64, String)> {
        let r = self.db.execute(&Statement::select(
            table("dwarf_schema"),
            SelectColumns::named(["entry_node_id", "schema_meta"]),
            Some(WhereClause::eq("id", CqlValue::Int(schema_id))),
            None,
        ))?;
        let row = r.first().ok_or(CoreError::UnknownSchema(schema_id))?;
        let entry = row.get_int("entry_node_id")?;
        let meta = row.get_text("schema_meta")?.to_string();
        Ok((entry, meta))
    }

    /// The paper's final step: query the store's size and update
    /// `size_as_mb` on the schema row. An upsert re-binding only the changed
    /// column would lose the others in our row-replace model, so
    /// `schema_stmt` — the row `store` inserted — is re-executed whole.
    fn finish_store(
        &mut self,
        mapped: &MappedDwarf,
        schema_id: i64,
        mut schema_stmt: Statement,
        statements: usize,
        elapsed: std::time::Duration,
    ) -> Result<StoreReport> {
        self.db.flush_all()?;
        let size = self.db.keyspace_size(KEYSPACE)?;
        if let Statement::Insert { values, .. } = &mut schema_stmt {
            values[SIZE_AS_MB] = CqlValue::Int(size.as_mb_rounded() as i64);
        }
        self.db.execute(&schema_stmt)?;
        Ok(StoreReport {
            schema_id,
            node_rows: mapped.node_count(),
            cell_rows: mapped.cell_count(),
            statements,
            elapsed,
            size,
        })
    }
}

impl SchemaModel for NosqlDwarfModel {
    fn kind(&self) -> ModelKind {
        ModelKind::NosqlDwarf
    }

    fn create_schema(&mut self) -> Result<()> {
        self.db
            .execute_cql(&format!("CREATE KEYSPACE {KEYSPACE}"))?;
        self.db.execute_cql(&format!(
            "CREATE TABLE {KEYSPACE}.dwarf_schema (id int, node_count int, \
             cell_count int, size_as_mb int, entry_node_id int, is_cube boolean, \
             schema_meta text, PRIMARY KEY (id))"
        ))?;
        self.db.execute_cql(&format!(
            "CREATE TABLE {KEYSPACE}.dwarf_node (id int, parentIds set<int>, \
             childrenIds set<int>, root boolean, schema_id int, PRIMARY KEY (id))"
        ))?;
        self.db.execute_cql(&format!(
            "CREATE TABLE {KEYSPACE}.dwarf_cell (id int, key text, measure int, \
             parentNode int, pointerNode int, leaf boolean, schema_id int, \
             dimension_table_name text, PRIMARY KEY (id))"
        ))?;
        Ok(())
    }

    fn store(&mut self, mapped: &MappedDwarf, cube: &Dwarf, is_cube: bool) -> Result<StoreReport> {
        let schema_id = self.next_schema_id()?;
        // Stream statements: one reusable Insert per table whose value
        // buffer is rebound per record (a prepared statement), so storing a
        // million-cell cube never materializes a million ASTs.
        let mut statements = 0usize;
        let start = Instant::now();
        let schema_stmt = Statement::Insert {
            table: table("dwarf_schema"),
            columns: vec![
                "id".into(),
                "node_count".into(),
                "cell_count".into(),
                "size_as_mb".into(),
                "entry_node_id".into(),
                "is_cube".into(),
                "schema_meta".into(),
            ],
            values: vec![
                CqlValue::Int(schema_id),
                CqlValue::Int(mapped.node_count() as i64),
                CqlValue::Int(mapped.cell_count() as i64),
                CqlValue::Int(0),
                CqlValue::Int(offset_id(schema_id, mapped.entry_node_id)),
                CqlValue::Boolean(is_cube),
                CqlValue::Text(encode_schema_meta(cube.schema())),
            ],
        };
        self.db.execute(&schema_stmt)?;
        statements += 1;
        let mut node_stmt = Statement::Insert {
            table: table("dwarf_node"),
            columns: vec![
                "id".into(),
                "parentIds".into(),
                "childrenIds".into(),
                "root".into(),
                "schema_id".into(),
            ],
            values: vec![CqlValue::Null; 5],
        };
        for node in &mapped.nodes {
            if let Statement::Insert { values, .. } = &mut node_stmt {
                values[0] = CqlValue::Int(offset_id(schema_id, node.id));
                values[1] = CqlValue::int_set(
                    node.parent_cell_ids
                        .iter()
                        .map(|&id| offset_id(schema_id, id)),
                );
                values[2] = CqlValue::int_set(
                    node.child_cell_ids
                        .iter()
                        .map(|&id| offset_id(schema_id, id)),
                );
                values[3] = CqlValue::Boolean(node.root);
                values[4] = CqlValue::Int(schema_id);
            }
            self.db.execute(&node_stmt)?;
            statements += 1;
        }
        let mut cell_stmt = Statement::Insert {
            table: table("dwarf_cell"),
            columns: vec![
                "id".into(),
                "key".into(),
                "measure".into(),
                "parentNode".into(),
                "pointerNode".into(),
                "leaf".into(),
                "schema_id".into(),
                "dimension_table_name".into(),
            ],
            values: vec![CqlValue::Null; 8],
        };
        for cell in &mapped.cells {
            if let Statement::Insert { values, .. } = &mut cell_stmt {
                values[0] = CqlValue::Int(offset_id(schema_id, cell.id));
                values[1] = CqlValue::Text(cell.key.clone());
                values[2] = CqlValue::Int(cell.measure);
                values[3] = CqlValue::Int(offset_id(schema_id, cell.parent_node));
                values[4] = match cell.pointer_node {
                    Some(p) => CqlValue::Int(offset_id(schema_id, p)),
                    None => CqlValue::Null,
                };
                values[5] = CqlValue::Boolean(cell.leaf);
                values[6] = CqlValue::Int(schema_id);
                values[7] = CqlValue::Text(cell.dimension.clone());
            }
            self.db.execute(&cell_stmt)?;
            statements += 1;
        }
        let elapsed = start.elapsed();
        self.finish_store(mapped, schema_id, schema_stmt, statements, elapsed)
    }

    fn rebuild(&mut self, schema_id: i64) -> Result<Dwarf> {
        let (entry, meta) = self.schema_row(schema_id)?;
        let schema = decode_schema_meta(&meta)?;
        let r = self.db.execute(&Statement::select(
            table("dwarf_cell"),
            SelectColumns::named(["key", "measure", "parentNode", "pointerNode", "leaf"]),
            Some(WhereClause::eq("schema_id", CqlValue::Int(schema_id))),
            None,
        ))?;
        let mut cells = Vec::with_capacity(r.len());
        for row in r.rows() {
            cells.push(StoredCell {
                key: row.get_text("key")?.to_string(),
                measure: row.get_int("measure")?,
                parent_node: row.get_int("parentNode")?,
                pointer_node: row.get_opt_int("pointerNode")?,
                leaf: row.get_bool("leaf")?,
            });
        }
        rebuild_cube(schema, entry, &cells)
    }

    fn size(&mut self) -> Result<ByteSize> {
        self.db.flush_all()?;
        Ok(self.db.keyspace_size(KEYSPACE)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dwarf::{CubeSchema, Selection, TupleSet};

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
    fn store_and_rebuild_roundtrip() {
        let c = cube();
        let mut model = NosqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        assert_eq!(report.schema_id, 1);
        assert!(report.node_rows > 0);
        assert!(report.cell_rows > report.node_rows);
        assert!(report.size.as_bytes() > 0);
        let back = model.rebuild(report.schema_id).unwrap();
        assert_eq!(back.extract_tuples(), c.extract_tuples());
        assert_eq!(back.schema(), c.schema());
        // Rebuilt cube answers queries identically.
        let sel = vec![Selection::value("Ireland"), Selection::All, Selection::All];
        assert_eq!(back.point(&sel), c.point(&sel));
    }

    #[test]
    fn multiple_schemas_coexist() {
        let c = cube();
        let mut model = NosqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        let r1 = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        let r2 = model.store(&MappedDwarf::new(&c), &c, true).unwrap();
        assert_eq!(r1.schema_id, 1);
        assert_eq!(r2.schema_id, 2);
        assert_eq!(
            model.rebuild(1).unwrap().extract_tuples(),
            model.rebuild(2).unwrap().extract_tuples()
        );
        assert!(matches!(
            model.rebuild(99),
            Err(CoreError::UnknownSchema(99))
        ));
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
