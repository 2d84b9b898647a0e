//! Recursive-descent CQL parser.

use super::ast::{
    AggFunc, CmpOp, OrderBy, SelectColumns, SelectItem, Statement, TableRef, WhereClause,
};
use super::lexer::{tokenize, Token};
use crate::error::{NosqlError, Result};
use crate::types::{CqlType, CqlValue};
use std::collections::BTreeSet;

/// Parses one CQL statement (a trailing `;` is tolerated).
pub fn parse_statement(input: &str) -> Result<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(';');
    if !p.is_done() {
        return Err(NosqlError::Parse(format!(
            "trailing tokens after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn is_done(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.bump() {
            Some(t) if t.is_keyword(kw) => Ok(()),
            other => Err(NosqlError::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: char) -> Result<()> {
        match self.bump() {
            Some(Token::Symbol(c)) if c == sym => Ok(()),
            other => Err(NosqlError::Parse(format!(
                "expected {sym:?}, found {other:?}"
            ))),
        }
    }

    fn eat_symbol(&mut self, sym: char) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(c)) if *c == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(NosqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let first = self.ident()?;
        if self.eat_symbol('.') {
            let table = self.ident()?;
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

    fn literal(&mut self) -> Result<CqlValue> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(CqlValue::Int(n)),
            Some(Token::Str(s)) => Ok(CqlValue::Text(s)),
            Some(t) if t.is_keyword("true") => Ok(CqlValue::Boolean(true)),
            Some(t) if t.is_keyword("false") => Ok(CqlValue::Boolean(false)),
            Some(t) if t.is_keyword("null") => Ok(CqlValue::Null),
            Some(Token::Symbol('{')) => {
                let mut set = BTreeSet::new();
                if !self.eat_symbol('}') {
                    loop {
                        match self.bump() {
                            Some(Token::Number(n)) => {
                                set.insert(n);
                            }
                            other => {
                                return Err(NosqlError::Parse(format!(
                                    "set literals hold integers, found {other:?}"
                                )))
                            }
                        }
                        if self.eat_symbol('}') {
                            break;
                        }
                        self.expect_symbol(',')?;
                    }
                }
                Ok(CqlValue::IntSet(set))
            }
            other => Err(NosqlError::Parse(format!(
                "expected literal, found {other:?}"
            ))),
        }
    }

    fn type_name(&mut self) -> Result<CqlType> {
        let base = self.ident()?;
        if base.eq_ignore_ascii_case("set") {
            self.expect_symbol('<')?;
            let inner = self.ident()?;
            self.expect_symbol('>')?;
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
    fn where_predicate(&mut self) -> Result<WhereClause> {
        let column = self.ident()?;
        if self.eat_keyword("in") {
            self.expect_symbol('(')?;
            let mut values = Vec::new();
            // `IN ()` is legal CQL and matches no rows.
            if !self.eat_symbol(')') {
                loop {
                    values.push(self.literal()?);
                    if self.eat_symbol(')') {
                        break;
                    }
                    self.expect_symbol(',')?;
                }
            }
            return Ok(WhereClause::In { column, values });
        }
        if self.eat_symbol('<') {
            let op = if self.eat_symbol('=') {
                CmpOp::Le
            } else {
                CmpOp::Lt
            };
            let value = self.literal()?;
            return Ok(WhereClause::Cmp { column, op, value });
        }
        if self.eat_symbol('>') {
            let op = if self.eat_symbol('=') {
                CmpOp::Ge
            } else {
                CmpOp::Gt
            };
            let value = self.literal()?;
            return Ok(WhereClause::Cmp { column, op, value });
        }
        self.expect_symbol('=')?;
        let value = self.literal()?;
        Ok(WhereClause::Eq { column, value })
    }

    /// An AND-joined conjunction of predicates (SELECT only; UPDATE and
    /// DELETE keep their single primary-key equality).
    fn where_conjunction(&mut self) -> Result<Vec<WhereClause>> {
        let mut preds = vec![self.where_predicate()?];
        while self.eat_keyword("and") {
            preds.push(self.where_predicate()?);
        }
        Ok(preds)
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_keyword("explain") {
            let inner = self.statement()?;
            return Ok(Statement::Explain {
                statement: Box::new(inner),
            });
        }
        if self.eat_keyword("create") {
            if self.eat_keyword("keyspace") {
                let name = self.ident()?;
                return Ok(Statement::CreateKeyspace { name });
            }
            if self.eat_keyword("table") {
                return self.create_table();
            }
            if self.eat_keyword("index") {
                // Optional index name before ON.
                if !self.peek_keyword("on") {
                    let _name = self.ident()?;
                }
                self.expect_keyword("on")?;
                let table = self.table_ref()?;
                self.expect_symbol('(')?;
                let column = self.ident()?;
                self.expect_symbol(')')?;
                return Ok(Statement::CreateIndex { table, column });
            }
            return Err(NosqlError::Parse(
                "expected KEYSPACE, TABLE or INDEX after CREATE".into(),
            ));
        }
        if self.eat_keyword("insert") {
            self.expect_keyword("into")?;
            return self.insert_body();
        }
        if self.eat_keyword("select") {
            return self.select_body();
        }
        if self.eat_keyword("update") {
            let table = self.table_ref()?;
            self.expect_keyword("set")?;
            let mut assignments = Vec::new();
            loop {
                let column = self.ident()?;
                self.expect_symbol('=')?;
                let value = self.literal()?;
                assignments.push((column, value));
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_keyword("where")?;
            let where_clause = self.where_predicate()?;
            return Ok(Statement::Update {
                table,
                assignments,
                where_clause,
            });
        }
        if self.eat_keyword("delete") {
            self.expect_keyword("from")?;
            let table = self.table_ref()?;
            self.expect_keyword("where")?;
            let where_clause = self.where_predicate()?;
            return Ok(Statement::Delete {
                table,
                where_clause,
            });
        }
        if self.eat_keyword("truncate") {
            let table = self.table_ref()?;
            return Ok(Statement::Truncate { table });
        }
        if self.eat_keyword("use") {
            let keyspace = self.ident()?;
            return Ok(Statement::Use { keyspace });
        }
        if self.eat_keyword("begin") {
            self.expect_keyword("batch")?;
            let mut statements = Vec::new();
            loop {
                if self.eat_keyword("apply") {
                    self.expect_keyword("batch")?;
                    break;
                }
                let st = if self.eat_keyword("insert") {
                    self.expect_keyword("into")?;
                    self.insert_body()?
                } else if self.eat_keyword("delete") {
                    self.expect_keyword("from")?;
                    let table = self.table_ref()?;
                    self.expect_keyword("where")?;
                    let where_clause = self.where_predicate()?;
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
                self.eat_symbol(';');
            }
            return Ok(Statement::Batch { statements });
        }
        Err(NosqlError::Parse(format!(
            "unrecognized statement start: {:?}",
            self.peek()
        )))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let table = self.table_ref()?;
        self.expect_symbol('(')?;
        let mut columns = Vec::new();
        let mut primary_key: Option<String> = None;
        loop {
            if self.eat_keyword("primary") {
                self.expect_keyword("key")?;
                self.expect_symbol('(')?;
                let pk = self.ident()?;
                self.expect_symbol(')')?;
                if primary_key.replace(pk).is_some() {
                    return Err(NosqlError::Parse("duplicate PRIMARY KEY clause".into()));
                }
            } else {
                let name = self.ident()?;
                let ty = self.type_name()?;
                columns.push((name, ty));
            }
            if self.eat_symbol(')') {
                break;
            }
            self.expect_symbol(',')?;
        }
        let primary_key = primary_key
            .ok_or_else(|| NosqlError::Parse("CREATE TABLE needs a PRIMARY KEY".into()))?;
        Ok(Statement::CreateTable {
            table,
            columns,
            primary_key,
        })
    }

    fn insert_body(&mut self) -> Result<Statement> {
        let table = self.table_ref()?;
        self.expect_symbol('(')?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            if self.eat_symbol(')') {
                break;
            }
            self.expect_symbol(',')?;
        }
        self.expect_keyword("values")?;
        self.expect_symbol('(')?;
        let mut values = Vec::new();
        loop {
            values.push(self.literal()?);
            if self.eat_symbol(')') {
                break;
            }
            self.expect_symbol(',')?;
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
    fn select_item(&mut self) -> Result<SelectItem> {
        const AGGS: [(&str, AggFunc); 5] = [
            ("count", AggFunc::Count),
            ("sum", AggFunc::Sum),
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
            ("avg", AggFunc::Avg),
        ];
        for (kw, func) in AGGS {
            if self.peek_keyword(kw)
                && matches!(self.tokens.get(self.pos + 1), Some(Token::Symbol('(')))
            {
                self.pos += 2;
                let column = if self.eat_symbol('*') {
                    None
                } else {
                    Some(self.ident()?)
                };
                self.expect_symbol(')')?;
                if column.is_none() && func != AggFunc::Count {
                    return Err(NosqlError::Parse(format!(
                        "{}(*) is not valid; only COUNT accepts *",
                        func.name().to_uppercase()
                    )));
                }
                return Ok(SelectItem::Aggregate { func, column });
            }
        }
        Ok(SelectItem::Column(self.ident()?))
    }

    fn select_body(&mut self) -> Result<Statement> {
        let columns = if self.eat_symbol('*') {
            SelectColumns::All
        } else {
            let mut items = vec![self.select_item()?];
            while self.eat_symbol(',') {
                items.push(self.select_item()?);
            }
            SelectColumns::Items(items)
        };
        self.expect_keyword("from")?;
        let table = self.table_ref()?;
        let where_clause = if self.eat_keyword("where") {
            self.where_conjunction()?
        } else {
            Vec::new()
        };
        let group_by = if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            let mut cols = vec![self.ident()?];
            while self.eat_symbol(',') {
                cols.push(self.ident()?);
            }
            cols
        } else {
            Vec::new()
        };
        let order_by = if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            let column = self.ident()?;
            let desc = if self.eat_keyword("desc") {
                true
            } else {
                self.eat_keyword("asc");
                false
            };
            Some(OrderBy { column, desc })
        } else {
            None
        };
        let limit = if self.eat_keyword("limit") {
            match self.bump() {
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
