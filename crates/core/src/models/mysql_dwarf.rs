//! MySQL-DWARF: the Figure 4 relational schema.
//!
//! "This schema was chosen as it most accurately describes a dwarf
//! structure in a relational database" — nodes and cells are entity tables,
//! and because a node contains many cells and many cells point at shared
//! nodes, the `NODE_CHILDREN` and `CELL_CHILDREN` tables record **one row
//! per relationship edge**. Every edge row pays InnoDB record overhead and
//! foreign-key validation, which is why this model is the largest in Table
//! 4 and the second slowest in Table 5.

use super::engine::{Engine, Table};
use super::protocol::Layout;
use super::{offset_id, ModelKind, ID_SPAN};
use crate::error::{CoreError, Result};
use crate::mapping::{MappedDwarf, StoredCell};
use sc_relational::{Db, SqlValue};
use std::collections::HashMap;

const DATABASE: &str = "dwarf";

const fn table(name: &'static str) -> Table {
    Table::new(DATABASE, name)
}

schema_model!(
    /// The MySQL-DWARF schema model.
    MysqlDwarfModel,
    Db,
    Db::in_memory()
);

impl MysqlDwarfModel {
    /// The Figure 4 DDL, exposed so the `repro` binary can print it.
    pub fn ddl() -> Vec<String> {
        <Self as Layout>::ddl()
    }
}

/// Streams `(from, to)` edges into an edge table, numbering them from 1 in
/// the schema's id space.
fn insert_edges(
    db: &mut Db,
    name: &'static str,
    [from, to]: [&str; 2],
    id: i64,
    edges: impl Iterator<Item = (i64, i64)>,
) -> Result<usize> {
    let rows = edges.enumerate().map(|(i, (from, to))| {
        [
            SqlValue::Int(offset_id(id, i as i64 + 1)),
            SqlValue::Int(offset_id(id, from)),
            SqlValue::Int(offset_id(id, to)),
        ]
    });
    db.insert(table(name), &["id", from, to], rows)
}

/// Reads schema `id`'s edges out of an edge table as a `cell -> node` map.
/// Edge rows carry no schema id, so the table is scanned for the ids in the
/// schema's id space.
fn cell_to_node(db: &mut Db, name: &'static str, id: i64) -> Result<HashMap<i64, i64>> {
    let space = offset_id(id, 0)..offset_id(id, ID_SPAN);
    let edges = db.select(table(name), &["cell_id", "node_id"], None, |row| {
        let cell = row.int(0)?;
        Ok(space.contains(&cell).then_some((cell, row.int(1)?)))
    })?;
    Ok(edges.into_iter().flatten().collect())
}

impl Layout for MysqlDwarfModel {
    type Db = Db;
    const KIND: ModelKind = ModelKind::MysqlDwarf;
    const META: Table = table("dwarf_schema");
    const HAS_IS_CUBE: bool = true;

    fn db(&mut self) -> &mut Db {
        &mut self.db
    }

    fn ddl() -> Vec<String> {
        vec![
            format!("CREATE DATABASE {DATABASE}"),
            format!(
                "CREATE TABLE {DATABASE}.dwarf_schema (id INT NOT NULL, \
                 node_count INT, cell_count INT, size_as_mb INT, \
                 entry_node_id INT, is_cube BOOL, schema_meta TEXT, \
                 PRIMARY KEY (id))"
            ),
            format!(
                "CREATE TABLE {DATABASE}.node (id INT NOT NULL, root BOOL, \
                 schema_id INT, PRIMARY KEY (id), INDEX (schema_id), \
                 FOREIGN KEY (schema_id) REFERENCES dwarf_schema (id))"
            ),
            format!(
                "CREATE TABLE {DATABASE}.cell (id INT NOT NULL, item_key TEXT, \
                 measure INT, leaf BOOL, schema_id INT, dimension_table_name TEXT, \
                 PRIMARY KEY (id), INDEX (schema_id), \
                 FOREIGN KEY (schema_id) REFERENCES dwarf_schema (id))"
            ),
            format!(
                "CREATE TABLE {DATABASE}.node_children (id INT NOT NULL, \
                 node_id INT, cell_id INT, PRIMARY KEY (id), INDEX (node_id), \
                 FOREIGN KEY (node_id) REFERENCES node (id), \
                 FOREIGN KEY (cell_id) REFERENCES cell (id))"
            ),
            format!(
                "CREATE TABLE {DATABASE}.cell_children (id INT NOT NULL, \
                 cell_id INT, node_id INT, PRIMARY KEY (id), INDEX (cell_id), \
                 FOREIGN KEY (cell_id) REFERENCES cell (id), \
                 FOREIGN KEY (node_id) REFERENCES node (id))"
            ),
        ]
    }

    fn insert_nodes(db: &mut Db, id: i64, mapped: &MappedDwarf) -> Result<usize> {
        db.insert(
            table("node"),
            &["id", "root", "schema_id"],
            mapped.nodes.iter().map(|node| {
                [
                    SqlValue::Int(offset_id(id, node.id)),
                    SqlValue::Bool(node.root),
                    SqlValue::Int(id),
                ]
            }),
        )
    }

    fn insert_cells(db: &mut Db, id: i64, mapped: &MappedDwarf) -> Result<usize> {
        db.insert(
            table("cell"),
            &[
                "id",
                "item_key",
                "measure",
                "leaf",
                "schema_id",
                "dimension_table_name",
            ],
            mapped.cells.iter().map(|cell| {
                [
                    SqlValue::Int(offset_id(id, cell.id)),
                    SqlValue::Text(cell.key.clone()),
                    SqlValue::Int(cell.measure),
                    SqlValue::Bool(cell.leaf),
                    SqlValue::Int(id),
                    SqlValue::Text(cell.dimension.clone()),
                ]
            }),
        )
    }

    /// One row per node→cell containment edge, then one per cell→node
    /// pointer edge.
    fn insert_edges(db: &mut Db, id: i64, mapped: &MappedDwarf) -> Result<usize> {
        let contains = mapped
            .nodes
            .iter()
            .flat_map(|n| n.child_cell_ids.iter().map(move |&cell| (n.id, cell)));
        let points = mapped
            .cells
            .iter()
            .filter_map(|c| c.pointer_node.map(|node| (c.id, node)));
        let contained = insert_edges(db, "node_children", ["node_id", "cell_id"], id, contains)?;
        let pointed = insert_edges(db, "cell_children", ["cell_id", "node_id"], id, points)?;
        Ok(contained + pointed)
    }

    /// Joins the cell rows (indexed on `schema_id`) with the two edge
    /// tables to recover each cell's parent and pointer node.
    fn stored_cells(db: &mut Db, id: i64) -> Result<Vec<StoredCell>> {
        let parent_of = cell_to_node(db, "node_children", id)?;
        let pointer_of = cell_to_node(db, "cell_children", id)?;
        let columns = &["id", "item_key", "measure", "leaf"];
        db.select(table("cell"), columns, Some(("schema_id", id)), |row| {
            let cell = row.int(0)?;
            let parent = parent_of.get(&cell).ok_or_else(|| {
                CoreError::Inconsistent(format!("cell {cell} has no containment edge"))
            })?;
            Ok(StoredCell {
                key: row.text(1)?.to_string(),
                measure: row.int(2)?,
                parent_node: *parent,
                pointer_node: pointer_of.get(&cell).copied(),
                leaf: row.bool(3)?,
            })
        })
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
    fn ddl_parses_and_applies() {
        let mut model = MysqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        // Fig. 4's five tables exist.
        for t in [
            "dwarf_schema",
            "node",
            "cell",
            "node_children",
            "cell_children",
        ] {
            let r = model
                .db_mut()
                .execute_sql(&format!("SELECT * FROM dwarf.{t}"))
                .unwrap();
            assert!(r.rows.is_empty());
        }
    }

    #[test]
    fn edge_tables_record_every_relationship() {
        let c = cube();
        let mut model = MysqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        let mapped = MappedDwarf::new(&c);
        model.store(&mapped, &c, false).unwrap();
        let containment = model
            .db_mut()
            .execute_sql("SELECT * FROM dwarf.node_children")
            .unwrap();
        // One containment row per cell (every cell lives in exactly one node).
        assert_eq!(containment.rows.len(), mapped.cell_count());
        let pointers = model
            .db_mut()
            .execute_sql("SELECT * FROM dwarf.cell_children")
            .unwrap();
        let expected = mapped
            .cells
            .iter()
            .filter(|c| c.pointer_node.is_some())
            .count();
        assert_eq!(pointers.rows.len(), expected);
    }

    #[test]
    fn join_query_over_figure4_schema() {
        // The relational design's selling point: SQL joins over the
        // structure. Count cells of the root node via a join.
        let c = cube();
        let mut model = MysqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        let mapped = MappedDwarf::new(&c);
        let report = model.store(&mapped, &c, false).unwrap();
        let root_id = offset_id(report.schema_id, mapped.entry_node_id);
        let r = model
            .db_mut()
            .execute_sql(&format!(
                "SELECT c.item_key FROM dwarf.node_children AS e \
                 JOIN dwarf.cell AS c ON e.cell_id = c.id \
                 WHERE e.node_id = {root_id}"
            ))
            .unwrap();
        // Root has France + Ireland + ALL.
        assert_eq!(r.rows.len(), 3);
    }
}
