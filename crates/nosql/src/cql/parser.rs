//! Recursive-descent CQL parser over the shared [`sc_encoding::lex`] cursor.

use super::ast::{
    AggFunc, CmpOp, OrderBy, SelectColumns, SelectItem, Statement, TableRef, WhereClause,
};
use crate::error::{NosqlError, Result};
use crate::types::{CqlType, CqlValue};
use sc_encoding::lex::{Cursor, Token};

/// Parses one CQL statement (a trailing `;` is tolerated).
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut p = Cursor::new(input)?;
    let stmt = statement(&mut p)?;
    p.finish()?;
    Ok(stmt)
}

fn table_ref(p: &mut Cursor) -> Result<TableRef> {
    let first = p.ident()?;
    if p.eat_symbol('.') {
        let table = p.ident()?;
        Ok(TableRef {
            keyspace: first,
            table,
        })
    } else {
        // Unqualified: a session resolves the keyspace via USE.
        Ok(TableRef {
            keyspace: String::new(),
            table: first,
        })
    }
}

fn literal(p: &mut Cursor) -> Result<CqlValue> {
    match p.bump() {
        Some(Token::Number(n)) => Ok(CqlValue::Int(n)),
        Some(Token::Str(s)) => Ok(CqlValue::Text(s)),
        Some(t) if t.is_keyword("true") => Ok(CqlValue::Boolean(true)),
        Some(t) if t.is_keyword("false") => Ok(CqlValue::Boolean(false)),
        Some(t) if t.is_keyword("null") => Ok(CqlValue::Null),
        Some(Token::Symbol('{')) => {
            let mut set = Vec::new();
            if !p.eat_symbol('}') {
                loop {
                    match p.bump() {
                        Some(Token::Number(n)) => set.push(n),
                        other => {
                            return Err(NosqlError::Parse(format!(
                                "set literals hold integers, found {other:?}"
                            )))
                        }
                    }
                    if p.eat_symbol('}') {
                        break;
                    }
                    p.expect_symbol(',')?;
                }
            }
            Ok(CqlValue::int_set(set))
        }
        other => Err(NosqlError::Parse(format!(
            "expected literal, found {other:?}"
        ))),
    }
}

fn type_name(p: &mut Cursor) -> Result<CqlType> {
    let base = p.ident()?;
    if base.eq_ignore_ascii_case("set") {
        p.expect_symbol('<')?;
        let inner = p.ident()?;
        p.expect_symbol('>')?;
        if !inner.eq_ignore_ascii_case("int") {
            return Err(NosqlError::Parse(format!(
                "only set<int> is supported, found set<{inner}>"
            )));
        }
        return Ok(CqlType::IntSet);
    }
    CqlType::parse(&base).ok_or_else(|| NosqlError::Parse(format!("unknown type {base:?}")))
}

/// One WHERE predicate: `col = v`, `col IN (...)`, or `col <op> v`.
fn where_predicate(p: &mut Cursor) -> Result<WhereClause> {
    let column = p.ident()?;
    if p.eat_keyword("in") {
        p.expect_symbol('(')?;
        let mut values = Vec::new();
        // `IN ()` is legal CQL and matches no rows.
        if !p.eat_symbol(')') {
            loop {
                values.push(literal(p)?);
                if p.eat_symbol(')') {
                    break;
                }
                p.expect_symbol(',')?;
            }
        }
        return Ok(WhereClause::In { column, values });
    }
    if p.eat_symbol('<') {
        let op = if p.eat_symbol('=') {
            CmpOp::Le
        } else {
            CmpOp::Lt
        };
        let value = literal(p)?;
        return Ok(WhereClause::Cmp { column, op, value });
    }
    if p.eat_symbol('>') {
        let op = if p.eat_symbol('=') {
            CmpOp::Ge
        } else {
            CmpOp::Gt
        };
        let value = literal(p)?;
        return Ok(WhereClause::Cmp { column, op, value });
    }
    p.expect_symbol('=')?;
    let value = literal(p)?;
    Ok(WhereClause::Eq { column, value })
}

/// An AND-joined conjunction of predicates (SELECT only; UPDATE and
/// DELETE keep their single primary-key equality).
fn where_conjunction(p: &mut Cursor) -> Result<Vec<WhereClause>> {
    let mut preds = vec![where_predicate(p)?];
    while p.eat_keyword("and") {
        preds.push(where_predicate(p)?);
    }
    Ok(preds)
}

fn statement(p: &mut Cursor) -> Result<Statement> {
    if p.eat_keyword("explain") {
        let inner = statement(p)?;
        return Ok(Statement::Explain {
            statement: Box::new(inner),
        });
    }
    if p.eat_keyword("create") {
        if p.eat_keyword("keyspace") {
            let name = p.ident()?;
            return Ok(Statement::CreateKeyspace { name });
        }
        if p.eat_keyword("table") {
            return create_table(p);
        }
        if p.eat_keyword("index") {
            // Optional index name before ON.
            if !p.peek_keyword("on") {
                let _name = p.ident()?;
            }
            p.expect_keyword("on")?;
            let table = table_ref(p)?;
            p.expect_symbol('(')?;
            let column = p.ident()?;
            p.expect_symbol(')')?;
            return Ok(Statement::CreateIndex { table, column });
        }
        return Err(NosqlError::Parse(
            "expected KEYSPACE, TABLE or INDEX after CREATE".into(),
        ));
    }
    if p.eat_keyword("insert") {
        p.expect_keyword("into")?;
        return insert_body(p);
    }
    if p.eat_keyword("select") {
        return select_body(p);
    }
    if p.eat_keyword("update") {
        let table = table_ref(p)?;
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
        let where_clause = where_predicate(p)?;
        return Ok(Statement::Update {
            table,
            assignments,
            where_clause,
        });
    }
    if p.eat_keyword("delete") {
        p.expect_keyword("from")?;
        let table = table_ref(p)?;
        p.expect_keyword("where")?;
        let where_clause = where_predicate(p)?;
        return Ok(Statement::Delete {
            table,
            where_clause,
        });
    }
    if p.eat_keyword("truncate") {
        let table = table_ref(p)?;
        return Ok(Statement::Truncate { table });
    }
    if p.eat_keyword("use") {
        let keyspace = p.ident()?;
        return Ok(Statement::Use { keyspace });
    }
    if p.eat_keyword("begin") {
        p.expect_keyword("batch")?;
        let mut statements = Vec::new();
        loop {
            if p.eat_keyword("apply") {
                p.expect_keyword("batch")?;
                break;
            }
            let st = if p.eat_keyword("insert") {
                p.expect_keyword("into")?;
                insert_body(p)?
            } else if p.eat_keyword("delete") {
                p.expect_keyword("from")?;
                let table = table_ref(p)?;
                p.expect_keyword("where")?;
                let where_clause = where_predicate(p)?;
                Statement::Delete {
                    table,
                    where_clause,
                }
            } else {
                return Err(NosqlError::Parse(
                    "batches may contain only INSERT and DELETE".into(),
                ));
            };
            statements.push(st);
            p.eat_symbol(';');
        }
        return Ok(Statement::Batch { statements });
    }
    Err(NosqlError::Parse(format!(
        "unrecognized statement start: {:?}",
        p.peek()
    )))
}

fn create_table(p: &mut Cursor) -> Result<Statement> {
    let table = table_ref(p)?;
    p.expect_symbol('(')?;
    let mut columns = Vec::new();
    let mut primary_key: Option<String> = None;
    loop {
        if p.eat_keyword("primary") {
            p.expect_keyword("key")?;
            p.expect_symbol('(')?;
            let pk = p.ident()?;
            p.expect_symbol(')')?;
            if primary_key.replace(pk).is_some() {
                return Err(NosqlError::Parse("duplicate PRIMARY KEY clause".into()));
            }
        } else {
            let name = p.ident()?;
            let ty = type_name(p)?;
            columns.push((name, ty));
        }
        if p.eat_symbol(')') {
            break;
        }
        p.expect_symbol(',')?;
    }
    let primary_key =
        primary_key.ok_or_else(|| NosqlError::Parse("CREATE TABLE needs a PRIMARY KEY".into()))?;
    Ok(Statement::CreateTable {
        table,
        columns,
        primary_key,
    })
}

fn insert_body(p: &mut Cursor) -> Result<Statement> {
    let table = table_ref(p)?;
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
    p.expect_symbol('(')?;
    let mut values = Vec::new();
    loop {
        values.push(literal(p)?);
        if p.eat_symbol(')') {
            break;
        }
        p.expect_symbol(',')?;
    }
    if columns.len() != values.len() {
        return Err(NosqlError::Parse(format!(
            "INSERT binds {} columns but {} values",
            columns.len(),
            values.len()
        )));
    }
    Ok(Statement::Insert {
        table,
        columns,
        values,
    })
}

/// One SELECT-list item: a plain column or an aggregate call. An
/// aggregate keyword only counts as one when `(` follows, so a column
/// named `count` still selects.
fn select_item(p: &mut Cursor) -> Result<SelectItem> {
    const AGGS: [(&str, AggFunc); 5] = [
        ("count", AggFunc::Count),
        ("sum", AggFunc::Sum),
        ("min", AggFunc::Min),
        ("max", AggFunc::Max),
        ("avg", AggFunc::Avg),
    ];
    for (kw, func) in AGGS {
        if p.peek_keyword(kw) && p.peek_at(1) == Some(&Token::Symbol('(')) {
            p.bump();
            p.bump();
            let column = if p.eat_symbol('*') {
                None
            } else {
                Some(p.ident()?)
            };
            p.expect_symbol(')')?;
            if column.is_none() && func != AggFunc::Count {
                return Err(NosqlError::Parse(format!(
                    "{}(*) is not valid; only COUNT accepts *",
                    func.name().to_uppercase()
                )));
            }
            return Ok(SelectItem::Aggregate { func, column });
        }
    }
    Ok(SelectItem::Column(p.ident()?))
}

fn select_body(p: &mut Cursor) -> Result<Statement> {
    let columns = if p.eat_symbol('*') {
        SelectColumns::All
    } else {
        let mut items = vec![select_item(p)?];
        while p.eat_symbol(',') {
            items.push(select_item(p)?);
        }
        SelectColumns::Items(items)
    };
    p.expect_keyword("from")?;
    let table = table_ref(p)?;
    let where_clause = if p.eat_keyword("where") {
        where_conjunction(p)?
    } else {
        Vec::new()
    };
    let group_by = if p.eat_keyword("group") {
        p.expect_keyword("by")?;
        let mut cols = vec![p.ident()?];
        while p.eat_symbol(',') {
            cols.push(p.ident()?);
        }
        cols
    } else {
        Vec::new()
    };
    let order_by = if p.eat_keyword("order") {
        p.expect_keyword("by")?;
        let column = p.ident()?;
        let desc = if p.eat_keyword("desc") {
            true
        } else {
            p.eat_keyword("asc");
            false
        };
        Some(OrderBy { column, desc })
    } else {
        None
    };
    let limit = if p.eat_keyword("limit") {
        match p.bump() {
            Some(Token::Number(n)) if n >= 0 => Some(n as usize),
            other => {
                return Err(NosqlError::Parse(format!(
                    "LIMIT needs a non-negative integer, found {other:?}"
                )))
            }
        }
    } else {
        None
    };
    Ok(Statement::Select {
        table,
        columns,
        where_clause,
        group_by,
        order_by,
        limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_schema_parses() {
        let stmt = parse_statement(
            "CREATE TABLE smartcity.DWARF_CELL (id int, key text, measure int, \
             parentNode int, pointerNode int, leaf boolean, schema_id int, \
             dimension_table_name text, PRIMARY KEY (id))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                table,
                columns,
                primary_key,
            } => {
                assert_eq!(table.table, "DWARF_CELL");
                assert_eq!(columns.len(), 8);
                assert_eq!(columns[5], ("leaf".to_string(), CqlType::Boolean));
                assert_eq!(primary_key, "id");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn node_table_with_sets() {
        let stmt = parse_statement(
            "CREATE TABLE ks.DWARF_Node (id int, parentIds set<int>, \
             childrenIds set<int>, root boolean, schema_id int, PRIMARY KEY (id))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable { columns, .. } => {
                assert_eq!(columns[1], ("parentIds".to_string(), CqlType::IntSet));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn figure3_insert_roundtrips() {
        let text = "INSERT INTO ks.DWARF_CELL (id,key,measure,parentNode,pointerNode,\
                    leaf,schema_id,dimension_table_name) \
                    VALUES (3,'Fenian St',3,3,null,true,1,'Station')";
        let stmt = parse_statement(text).unwrap();
        match &stmt {
            Statement::Insert { values, .. } => {
                assert_eq!(values[1], CqlValue::Text("Fenian St".into()));
                assert_eq!(values[4], CqlValue::Null);
                assert_eq!(values[5], CqlValue::Boolean(true));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Render -> reparse -> same AST.
        let again = parse_statement(&stmt.to_cql()).unwrap();
        assert_eq!(again, stmt);
    }

    #[test]
    fn set_literals() {
        let stmt = parse_statement("INSERT INTO ks.n (id, kids) VALUES (1, {3, 1, 2})").unwrap();
        match stmt {
            Statement::Insert { values, .. } => {
                assert_eq!(values[1], CqlValue::int_set([1, 2, 3]));
            }
            other => panic!("unexpected {other:?}"),
        }
        let stmt = parse_statement("INSERT INTO ks.n (id, kids) VALUES (1, {})").unwrap();
        match stmt {
            Statement::Insert { values, .. } => {
                assert_eq!(values[1], CqlValue::int_set([]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn selects() {
        let stmt = parse_statement("SELECT * FROM ks.t").unwrap();
        match &stmt {
            Statement::Select {
                columns: SelectColumns::All,
                where_clause,
                limit: None,
                ..
            } => assert!(where_clause.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        let stmt = parse_statement("SELECT id, key FROM ks.t WHERE id = 7 LIMIT 10").unwrap();
        match stmt {
            Statement::Select {
                columns: SelectColumns::Items(items),
                where_clause,
                limit: Some(10),
                ..
            } => {
                assert_eq!(
                    items,
                    vec![
                        SelectItem::Column("id".into()),
                        SelectItem::Column("key".into())
                    ]
                );
                assert_eq!(where_clause, vec![WhereClause::eq("id", CqlValue::Int(7))]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_with_in_list() {
        let stmt = parse_statement("SELECT * FROM ks.t WHERE id IN (1, 2, 3)").unwrap();
        match &stmt {
            Statement::Select { where_clause, .. } => {
                assert_eq!(
                    *where_clause,
                    vec![WhereClause::any_of(
                        "id",
                        vec![CqlValue::Int(1), CqlValue::Int(2), CqlValue::Int(3)]
                    )]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Round-trips through to_cql.
        assert_eq!(stmt.to_cql(), "SELECT * FROM ks.t WHERE id IN (1, 2, 3)");
        // Text values and the empty list parse too.
        assert!(parse_statement("SELECT * FROM ks.t WHERE k IN ('a', 'b')").is_ok());
        assert!(parse_statement("SELECT * FROM ks.t WHERE id IN ()").is_ok());
        // Malformed lists fail.
        assert!(parse_statement("SELECT * FROM ks.t WHERE id IN (1,").is_err());
        assert!(parse_statement("SELECT * FROM ks.t WHERE id IN 1").is_err());
    }

    #[test]
    fn comparison_predicates_and_conjunctions() {
        let stmt =
            parse_statement("SELECT * FROM ks.t WHERE bikes >= 3 AND bikes < 10 AND station = 'x'")
                .unwrap();
        match &stmt {
            Statement::Select { where_clause, .. } => {
                assert_eq!(
                    *where_clause,
                    vec![
                        WhereClause::cmp("bikes", CmpOp::Ge, CqlValue::Int(3)),
                        WhereClause::cmp("bikes", CmpOp::Lt, CqlValue::Int(10)),
                        WhereClause::eq("station", CqlValue::Text("x".into())),
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Round-trips through to_cql.
        let again = parse_statement(&stmt.to_cql()).unwrap();
        assert_eq!(again, stmt);
        // <= and > parse too.
        assert!(parse_statement("SELECT * FROM ks.t WHERE n <= 5").is_ok());
        assert!(parse_statement("SELECT * FROM ks.t WHERE n > 5").is_ok());
        // A dangling AND fails.
        assert!(parse_statement("SELECT * FROM ks.t WHERE n = 1 AND").is_err());
        // UPDATE and DELETE keep a single predicate.
        assert!(parse_statement("UPDATE ks.t SET a = 1 WHERE id = 1 AND id = 2").is_err());
        assert!(parse_statement("DELETE FROM ks.t WHERE id = 1 AND id = 2").is_err());
    }

    #[test]
    fn aggregates_group_by_order_by() {
        let stmt = parse_statement(
            "SELECT station, COUNT(*), SUM(bikes), AVG(bikes) FROM ks.t \
             GROUP BY station ORDER BY station DESC LIMIT 5",
        )
        .unwrap();
        match &stmt {
            Statement::Select {
                columns: SelectColumns::Items(items),
                group_by,
                order_by: Some(o),
                limit: Some(5),
                ..
            } => {
                assert_eq!(items.len(), 4);
                assert_eq!(items[0], SelectItem::Column("station".into()));
                assert_eq!(
                    items[1],
                    SelectItem::Aggregate {
                        func: AggFunc::Count,
                        column: None
                    }
                );
                assert_eq!(
                    items[2],
                    SelectItem::Aggregate {
                        func: AggFunc::Sum,
                        column: Some("bikes".into())
                    }
                );
                assert_eq!(group_by, &vec!["station".to_string()]);
                assert_eq!(o.column, "station");
                assert!(o.desc);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Round-trips through to_cql.
        let again = parse_statement(&stmt.to_cql()).unwrap();
        assert_eq!(again, stmt);
        // ASC is accepted and is the default.
        let asc = parse_statement("SELECT id FROM ks.t ORDER BY id ASC").unwrap();
        let bare = parse_statement("SELECT id FROM ks.t ORDER BY id").unwrap();
        assert_eq!(asc, bare);
        // A column named like an aggregate still selects when no `(` follows.
        let stmt = parse_statement("SELECT count FROM ks.t").unwrap();
        match &stmt {
            Statement::Select {
                columns: SelectColumns::Items(items),
                ..
            } => assert_eq!(items, &vec![SelectItem::Column("count".into())]),
            other => panic!("unexpected {other:?}"),
        }
        // SUM(*) is rejected.
        assert!(parse_statement("SELECT SUM(*) FROM ks.t").is_err());
    }

    #[test]
    fn explain_statements() {
        let stmt = parse_statement("EXPLAIN SELECT * FROM ks.t WHERE id = 1").unwrap();
        match &stmt {
            Statement::Explain { statement } => {
                assert!(matches!(**statement, Statement::Select { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Round-trips through to_cql.
        let again = parse_statement(&stmt.to_cql()).unwrap();
        assert_eq!(again, stmt);
        // EXPLAIN with nothing after it fails.
        assert!(parse_statement("EXPLAIN").is_err());
    }

    #[test]
    fn delete_truncate_index() {
        assert!(matches!(
            parse_statement("DELETE FROM ks.t WHERE id = 1").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_statement("TRUNCATE ks.t").unwrap(),
            Statement::Truncate { .. }
        ));
        let stmt = parse_statement("CREATE INDEX ON ks.t (parentNodeId)").unwrap();
        match stmt {
            Statement::CreateIndex { column, .. } => assert_eq!(column, "parentNodeId"),
            other => panic!("unexpected {other:?}"),
        }
        // With an explicit index name.
        assert!(parse_statement("CREATE INDEX by_parent ON ks.t (p)").is_ok());
    }

    #[test]
    fn batch() {
        let stmt = parse_statement(
            "BEGIN BATCH \
             INSERT INTO ks.t (id) VALUES (1); \
             INSERT INTO ks.t (id) VALUES (2); \
             APPLY BATCH",
        )
        .unwrap();
        match stmt {
            Statement::Batch { statements } => assert_eq!(statements.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "SELECT",
            "INSERT INTO ks.t (id, key) VALUES (1)", // arity mismatch
            "CREATE TABLE ks.t (id int)",            // no primary key
            "CREATE TABLE ks.t (id int, PRIMARY KEY (id), PRIMARY KEY (id))",
            "DELETE FROM ks.t", // no WHERE
            "SELECT * FROM ks.t LIMIT -1",
            "CREATE TABLE ks.t (id set<text>, PRIMARY KEY (id))",
            "BEGIN BATCH SELECT * FROM ks.t APPLY BATCH",
            "SELECT * FROM ks.t extra",
            "SELECT * FROM ks.t GROUP station",
            "SELECT * FROM ks.t ORDER id",
            "SELECT COUNT( FROM ks.t",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn use_statement_and_unqualified_refs() {
        let stmt = parse_statement("USE smartcity").unwrap();
        assert_eq!(
            stmt,
            Statement::Use {
                keyspace: "smartcity".into()
            }
        );
        assert_eq!(stmt.to_cql(), "USE smartcity");

        // Unqualified references parse with an empty keyspace; the engine
        // resolves them against the session keyspace.
        let stmt = parse_statement("SELECT * FROM t WHERE id = 1").unwrap();
        match &stmt {
            Statement::Select { table, .. } => {
                assert!(!table.is_qualified());
                assert_eq!(table.table, "t");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
