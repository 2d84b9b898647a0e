//! Figure 3: rendering a DWARF cell as the CQL INSERT the transformation
//! generates.

use crate::mapping::CellRecord;
use crate::models::nosql_dwarf::{cell_row, CELLS, CELL_COLUMNS};
use sc_nosql::cql::ast::{Statement, TableRef};
use sc_nosql::ValueRef;

/// Builds the Figure 3 INSERT statement for one mapped cell: the row
/// NoSQL-DWARF's `store` writes, with the figure's bare ids.
///
/// The paper's example: a cell with key `"Fenian St"`, measure 3, parent
/// node 3, no pointer node, leaf, schema 1, dimension table `Station`
/// becomes
///
/// ```text
/// INSERT INTO DWARF_CELL (id,key,measure,parentNode,pointerNode,leaf,
///     schema_id, dimension_table_name)
/// VALUES (3,"Fenian St", 3,3,null,true,1,"Station");
/// ```
pub fn cell_to_insert(cell: &CellRecord, keyspace: &str, schema_id: i64) -> Statement {
    Statement::Insert {
        table: TableRef {
            keyspace: keyspace.to_string(),
            table: CELLS.name.to_string(),
        },
        columns: CELL_COLUMNS.map(String::from).to_vec(),
        values: cell_row(cell, schema_id, 0)
            .map(ValueRef::to_value)
            .to_vec(),
    }
}

/// Renders the Figure 3 CQL text for one mapped cell.
pub fn cell_to_cql(cell: &CellRecord, keyspace: &str, schema_id: i64) -> String {
    cell_to_insert(cell, keyspace, schema_id).to_cql()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fenian() -> CellRecord {
        CellRecord {
            id: 3,
            key: "Fenian St".into(),
            measure: 3,
            parent_node: 3,
            pointer_node: None,
            leaf: true,
            dimension: "Station".into(),
        }
    }

    #[test]
    fn figure3_text_shape() {
        let cql = cell_to_cql(&fenian(), "ks", 1);
        assert_eq!(
            cql,
            "INSERT INTO ks.dwarf_cell \
             (id,key,measure,parentNode,pointerNode,leaf,schema_id,dimension_table_name) \
             VALUES (3,'Fenian St',3,3,null,true,1,'Station')"
        );
    }

    #[test]
    fn figure3_statement_parses_back() {
        let cql = cell_to_cql(&fenian(), "ks", 1);
        let parsed = sc_nosql::parse_statement(&cql).unwrap();
        assert_eq!(parsed, cell_to_insert(&fenian(), "ks", 1));
    }

    #[test]
    fn pointer_cells_render_ids() {
        let mut c = fenian();
        c.pointer_node = Some(9);
        c.leaf = false;
        let cql = cell_to_cql(&c, "ks", 2);
        assert!(cql.contains(",9,false,2,"));
    }
}
