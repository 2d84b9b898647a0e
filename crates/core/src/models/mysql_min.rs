//! MySQL-Min: the Table 3 layout ported to the relational engine.
//!
//! "Designed to test how well MySQL performs using a schema without joins"
//! — a cube-metadata table plus one flat cell table whose rows carry their
//! parent and pointer node ids. No node table, no edge tables, no secondary
//! indexes: the smallest relational footprint (Table 4's winner for all but
//! the largest dataset) at the cost of node reconstruction work at query
//! time.

use super::engine::Table;
use super::nosql_min::{insert_min_cells, stored_min_cells};
use super::protocol::Layout;
use super::ModelKind;
use crate::error::Result;
use crate::mapping::{MappedDwarf, StoredCell};
use sc_relational::Db;

const DATABASE: &str = "dwarf_min";
const CELLS: Table = Table::new(DATABASE, "dwarf_cell");

schema_model!(
    /// The MySQL-Min schema model.
    MysqlMinModel,
    Db,
    Db::in_memory()
);

impl Layout for MysqlMinModel {
    type Db = Db;
    const KIND: ModelKind = ModelKind::MysqlMin;
    const META: Table = Table::new(DATABASE, "dwarf_cube");
    const HAS_IS_CUBE: bool = false;

    fn db(&mut self) -> &mut Db {
        &mut self.db
    }

    fn ddl() -> Vec<String> {
        vec![
            format!("CREATE DATABASE {DATABASE}"),
            format!(
                "CREATE TABLE {DATABASE}.dwarf_cube (id INT NOT NULL, node_count INT, \
                 cell_count INT, size_as_mb INT, entry_node_id INT, schema_meta TEXT, \
                 PRIMARY KEY (id))"
            ),
            format!(
                "CREATE TABLE {DATABASE}.dwarf_cell (id INT NOT NULL, item_name TEXT, \
                 measure INT, leaf BOOL, root BOOL, cubeid INT, parentNodeId INT, \
                 childNodeId INT, PRIMARY KEY (id))"
            ),
        ]
    }

    fn insert_cells(db: &mut Db, id: i64, mapped: &MappedDwarf) -> Result<usize> {
        insert_min_cells(db, CELLS, id, mapped)
    }

    fn stored_cells(db: &mut Db, id: i64) -> Result<Vec<StoredCell>> {
        stored_min_cells(db, CELLS, id)
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
    fn min_is_smaller_than_mysql_dwarf() {
        let c = cube();
        let mut min = MysqlMinModel::in_memory();
        min.create_schema().unwrap();
        let rmin = min.store(&MappedDwarf::new(&c), &c, false).unwrap();
        let mut full = super::super::MysqlDwarfModel::in_memory();
        full.create_schema().unwrap();
        let rfull = full.store(&MappedDwarf::new(&c), &c, false).unwrap();
        assert!(
            rmin.size < rfull.size,
            "MySQL-Min {} must be smaller than MySQL-DWARF {} (Table 4)",
            rmin.size,
            rfull.size
        );
    }
}
