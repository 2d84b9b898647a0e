//! Recursive-descent SQL parser over the shared [`sc_encoding::lex`] cursor.

use super::ast::{
    ColumnRef, ColumnSpec, ForeignKeySpec, JoinSpec, Predicate, Projection, SqlStatement,
    TableFactor, TableName,
};
use crate::error::{Result, SqlError};
use crate::value::{SqlType, SqlValue};
use sc_encoding::lex::{Cursor, Token};

/// Parses one SQL statement (a trailing `;` is tolerated).
pub fn parse_sql(input: &str) -> Result<SqlStatement> {
    let mut p = Cursor::new(input)?;
    let stmt = statement(&mut p)?;
    p.finish()?;
    Ok(stmt)
}

const RESERVED_AFTER_TABLE: &[&str] = &["join", "on", "where", "limit", "as"];

fn table_name(p: &mut Cursor) -> Result<TableName> {
    let database = p.ident()?;
    p.expect_symbol('.').map_err(|_| {
        SqlError::Parse(format!(
            "table references must be qualified as database.table (got {database:?})"
        ))
    })?;
    let table = p.ident()?;
    Ok(TableName { database, table })
}

fn table_factor(p: &mut Cursor) -> Result<TableFactor> {
    let name = table_name(p)?;
    let explicit_as = p.eat_keyword("as");
    let alias = if explicit_as
        || matches!(p.peek(), Some(Token::Ident(s))
            if !RESERVED_AFTER_TABLE.iter().any(|k| s.eq_ignore_ascii_case(k)))
    {
        Some(p.ident()?)
    } else {
        None
    };
    Ok(TableFactor { name, alias })
}

fn column_ref(p: &mut Cursor) -> Result<ColumnRef> {
    let first = p.ident()?;
    if p.eat_symbol('.') {
        let column = p.ident()?;
        Ok(ColumnRef {
            qualifier: Some(first),
            column,
        })
    } else {
        Ok(ColumnRef {
            qualifier: None,
            column: first,
        })
    }
}

fn literal(p: &mut Cursor) -> Result<SqlValue> {
    match p.bump() {
        Some(Token::Number(n)) => Ok(SqlValue::Int(n)),
        Some(Token::Str(s)) => Ok(SqlValue::Text(s)),
        Some(t) if t.is_keyword("true") => Ok(SqlValue::Bool(true)),
        Some(t) if t.is_keyword("false") => Ok(SqlValue::Bool(false)),
        Some(t) if t.is_keyword("null") => Ok(SqlValue::Null),
        other => Err(SqlError::Parse(format!(
            "expected literal, found {other:?}"
        ))),
    }
}

fn type_name(p: &mut Cursor) -> Result<SqlType> {
    let base = p.ident()?;
    let ty =
        SqlType::parse(&base).ok_or_else(|| SqlError::Parse(format!("unknown type {base:?}")))?;
    // Optional length argument, e.g. VARCHAR(255).
    if p.eat_symbol('(') {
        match p.bump() {
            Some(Token::Number(_)) => {}
            other => {
                return Err(SqlError::Parse(format!(
                    "expected length in type, found {other:?}"
                )))
            }
        }
        p.expect_symbol(')')?;
    }
    Ok(ty)
}

fn statement(p: &mut Cursor) -> Result<SqlStatement> {
    if p.eat_keyword("create") {
        if p.eat_keyword("database") {
            return Ok(SqlStatement::CreateDatabase { name: p.ident()? });
        }
        if p.eat_keyword("table") {
            return create_table(p);
        }
        if p.eat_keyword("index") {
            if !p.peek_keyword("on") {
                let _name = p.ident()?;
            }
            p.expect_keyword("on")?;
            let table = table_name(p)?;
            p.expect_symbol('(')?;
            let column = p.ident()?;
            p.expect_symbol(')')?;
            return Ok(SqlStatement::CreateIndex { table, column });
        }
        return Err(SqlError::Parse(
            "expected DATABASE, TABLE or INDEX after CREATE".into(),
        ));
    }
    if p.eat_keyword("insert") {
        p.expect_keyword("into")?;
        return insert(p);
    }
    if p.eat_keyword("select") {
        return select(p);
    }
    if p.eat_keyword("update") {
        let table = table_name(p)?;
        p.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let column = p.ident()?;
            p.expect_symbol('=')?;
            let value = literal(p)?;
            assignments.push((column, value));
            if !p.eat_symbol(',') {
                break;
            }
        }
        p.expect_keyword("where")?;
        let column = column_ref(p)?;
        p.expect_symbol('=')?;
        let value = literal(p)?;
        return Ok(SqlStatement::Update {
            table,
            assignments,
            predicate: Predicate { column, value },
        });
    }
    if p.eat_keyword("delete") {
        p.expect_keyword("from")?;
        let table = table_name(p)?;
        p.expect_keyword("where")?;
        let column = column_ref(p)?;
        p.expect_symbol('=')?;
        let value = literal(p)?;
        return Ok(SqlStatement::Delete {
            table,
            predicate: Predicate { column, value },
        });
    }
    if p.eat_keyword("truncate") {
        p.eat_keyword("table");
        let table = table_name(p)?;
        return Ok(SqlStatement::Truncate { table });
    }
    Err(SqlError::Parse(format!(
        "unrecognized statement start: {:?}",
        p.peek()
    )))
}

fn create_table(p: &mut Cursor) -> Result<SqlStatement> {
    let name = table_name(p)?;
    p.expect_symbol('(')?;
    let mut columns = Vec::new();
    let mut primary_key = None;
    let mut indexes = Vec::new();
    let mut foreign_keys = Vec::new();
    loop {
        if p.eat_keyword("primary") {
            p.expect_keyword("key")?;
            p.expect_symbol('(')?;
            let pk = p.ident()?;
            p.expect_symbol(')')?;
            if primary_key.replace(pk).is_some() {
                return Err(SqlError::Parse("duplicate PRIMARY KEY clause".into()));
            }
        } else if p.eat_keyword("index") || p.eat_keyword("key") {
            p.expect_symbol('(')?;
            indexes.push(p.ident()?);
            p.expect_symbol(')')?;
        } else if p.eat_keyword("foreign") {
            p.expect_keyword("key")?;
            p.expect_symbol('(')?;
            let column = p.ident()?;
            p.expect_symbol(')')?;
            p.expect_keyword("references")?;
            let ref_table = p.ident()?;
            p.expect_symbol('(')?;
            let ref_column = p.ident()?;
            p.expect_symbol(')')?;
            foreign_keys.push(ForeignKeySpec {
                column,
                ref_table,
                ref_column,
            });
        } else {
            let col_name = p.ident()?;
            let ty = type_name(p)?;
            let not_null = if p.eat_keyword("not") {
                p.expect_keyword("null")?;
                true
            } else {
                false
            };
            columns.push(ColumnSpec {
                name: col_name,
                ty,
                not_null,
            });
        }
        if p.eat_symbol(')') {
            break;
        }
        p.expect_symbol(',')?;
    }
    let primary_key =
        primary_key.ok_or_else(|| SqlError::Parse("CREATE TABLE needs a PRIMARY KEY".into()))?;
    Ok(SqlStatement::CreateTable {
        name,
        columns,
        primary_key,
        indexes,
        foreign_keys,
    })
}

fn insert(p: &mut Cursor) -> Result<SqlStatement> {
    let table = table_name(p)?;
    p.expect_symbol('(')?;
    let mut columns = Vec::new();
    loop {
        columns.push(p.ident()?);
        if p.eat_symbol(')') {
            break;
        }
        p.expect_symbol(',')?;
    }
    p.expect_keyword("values")?;
    let mut rows = Vec::new();
    loop {
        p.expect_symbol('(')?;
        let mut row = Vec::new();
        loop {
            row.push(literal(p)?);
            if p.eat_symbol(')') {
                break;
            }
            p.expect_symbol(',')?;
        }
        if row.len() != columns.len() {
            return Err(SqlError::Parse(format!(
                "row binds {} values for {} columns",
                row.len(),
                columns.len()
            )));
        }
        rows.push(row);
        if !p.eat_symbol(',') {
            break;
        }
    }
    Ok(SqlStatement::Insert {
        table,
        columns,
        rows,
    })
}

fn select(p: &mut Cursor) -> Result<SqlStatement> {
    let projection = if p.eat_symbol('*') {
        Projection::All
    } else if p.eat_keyword("count") {
        p.expect_symbol('(')?;
        p.expect_symbol('*')?;
        p.expect_symbol(')')?;
        Projection::Count
    } else {
        let mut cols = Vec::new();
        loop {
            cols.push(column_ref(p)?);
            if !p.eat_symbol(',') {
                break;
            }
        }
        Projection::Columns(cols)
    };
    p.expect_keyword("from")?;
    let from = table_factor(p)?;
    let join = if p.eat_keyword("join") {
        let factor = table_factor(p)?;
        p.expect_keyword("on")?;
        let on_left = column_ref(p)?;
        p.expect_symbol('=')?;
        let on_right = column_ref(p)?;
        Some(JoinSpec {
            factor,
            on_left,
            on_right,
        })
    } else {
        None
    };
    let mut predicates = Vec::new();
    if p.eat_keyword("where") {
        loop {
            let column = column_ref(p)?;
            p.expect_symbol('=')?;
            let value = literal(p)?;
            predicates.push(Predicate { column, value });
            if !p.eat_keyword("and") {
                break;
            }
        }
    }
    let limit = if p.eat_keyword("limit") {
        match p.bump() {
            Some(Token::Number(n)) if n >= 0 => Some(n as usize),
            other => {
                return Err(SqlError::Parse(format!(
                    "LIMIT needs a non-negative integer, found {other:?}"
                )))
            }
        }
    } else {
        None
    };
    Ok(SqlStatement::Select {
        projection,
        from,
        join,
        predicates,
        limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_node_children_table() {
        // One of the Fig. 4 edge tables that make MySQL-DWARF expensive.
        let stmt = parse_sql(
            "CREATE TABLE dwarf.node_children (
                id INT NOT NULL,
                node_id INT NOT NULL,
                cell_id INT NOT NULL,
                PRIMARY KEY (id),
                INDEX (node_id),
                FOREIGN KEY (node_id) REFERENCES node (id),
                FOREIGN KEY (cell_id) REFERENCES cell (id)
             )",
        )
        .unwrap();
        match stmt {
            SqlStatement::CreateTable {
                columns,
                primary_key,
                indexes,
                foreign_keys,
                ..
            } => {
                assert_eq!(columns.len(), 3);
                assert!(columns[0].not_null);
                assert_eq!(primary_key, "id");
                assert_eq!(indexes, vec!["node_id"]);
                assert_eq!(foreign_keys.len(), 2);
                assert_eq!(foreign_keys[0].ref_table, "node");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_row_insert() {
        let stmt = parse_sql("INSERT INTO d.cell (id, name) VALUES (1, 'a'), (2, 'b'), (3, NULL)")
            .unwrap();
        match stmt {
            SqlStatement::Insert { rows, .. } => {
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[2][1], SqlValue::Null);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_with_join_and_where() {
        let stmt = parse_sql(
            "SELECT c.id, n.id FROM d.cell AS c \
             JOIN d.node AS n ON c.parent_id = n.id \
             WHERE c.leaf = TRUE AND n.root = FALSE LIMIT 5",
        )
        .unwrap();
        match &stmt {
            SqlStatement::Select {
                projection: Projection::Columns(cols),
                from,
                join: Some(j),
                predicates,
                limit: Some(5),
            } => {
                assert_eq!(cols.len(), 2);
                assert_eq!(cols[0].qualifier.as_deref(), Some("c"));
                assert_eq!(from.binding(), "c");
                assert_eq!(j.factor.binding(), "n");
                assert_eq!(j.on_left.column, "parent_id");
                assert_eq!(predicates.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Round-trip through to_sql.
        assert_eq!(parse_sql(&stmt.to_sql()).unwrap(), stmt);
    }

    #[test]
    fn bare_alias_without_as() {
        let stmt = parse_sql("SELECT * FROM d.cell c WHERE c.id = 1").unwrap();
        match stmt {
            SqlStatement::Select { from, .. } => {
                assert_eq!(from.alias.as_deref(), Some("c"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn varchar_length_is_accepted() {
        let stmt = parse_sql("CREATE TABLE d.t (name VARCHAR(255), PRIMARY KEY (name))").unwrap();
        match stmt {
            SqlStatement::CreateTable { columns, .. } => {
                assert_eq!(columns[0].ty, SqlType::Text);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_and_truncate() {
        assert!(matches!(
            parse_sql("DELETE FROM d.t WHERE id = 3").unwrap(),
            SqlStatement::Delete { .. }
        ));
        assert!(matches!(
            parse_sql("TRUNCATE TABLE d.t").unwrap(),
            SqlStatement::Truncate { .. }
        ));
        assert!(matches!(
            parse_sql("TRUNCATE d.t").unwrap(),
            SqlStatement::Truncate { .. }
        ));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "SELECT * FROM t",                        // unqualified
            "INSERT INTO d.t (a, b) VALUES (1)",      // arity
            "CREATE TABLE d.t (id INT)",              // no PK
            "SELECT * FROM d.t WHERE a = 1 OR b = 2", // OR unsupported
            "DELETE FROM d.t",                        // no WHERE
            "SELECT * FROM d.t LIMIT -2",
            "CREATE TABLE d.t (id BLOB, PRIMARY KEY (id))",
            "SELECT * FROM d.t; SELECT * FROM d.t",
        ] {
            assert!(parse_sql(bad).is_err(), "{bad:?} should fail");
        }
    }
}
