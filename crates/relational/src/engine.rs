//! The relational engine: catalog, executor, sizes.

use crate::error::{Result, SqlError};
use crate::sql::ast::{
    ColumnRef, JoinSpec, Predicate, Projection, SqlStatement, TableFactor, TableName,
};
use crate::sql::parse_sql;
use crate::table::{TableData, TableMeta};
use crate::value::SqlValue;
use crate::wal::{RedoLog, RedoRecord};
use sc_encoding::ByteSize;
use sc_storage::Vfs;
use std::collections::BTreeMap;

/// Rows returned by a SELECT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Projected column names (qualified as `binding.column` when a join is
    /// present).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<SqlValue>>,
}

impl QueryResult {
    fn empty() -> QueryResult {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }
}

/// An embedded MySQL-like database engine.
#[derive(Debug)]
pub struct Db {
    vfs: Vfs,
    databases: BTreeMap<String, BTreeMap<String, TableData>>,
    redo: RedoLog,
    undo: RedoLog,
    trx: u64,
}

impl Db {
    /// Creates an engine over an in-memory VFS.
    pub fn in_memory() -> Db {
        Db::with_vfs(Vfs::memory())
    }

    /// Creates an engine over an explicit VFS.
    pub fn with_vfs(vfs: Vfs) -> Db {
        let redo = RedoLog::open(vfs.clone(), "redolog");
        let undo = RedoLog::open(vfs.clone(), "undolog");
        Db {
            vfs,
            databases: BTreeMap::new(),
            redo,
            undo,
            trx: 0,
        }
    }

    /// Parses and executes one SQL statement.
    pub fn execute_sql(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_sql(sql)?;
        self.execute(&stmt)
    }

    /// Executes a pre-parsed statement.
    pub fn execute(&mut self, stmt: &SqlStatement) -> Result<QueryResult> {
        match stmt {
            SqlStatement::CreateDatabase { name } => {
                if self.databases.contains_key(name) {
                    return Err(SqlError::AlreadyExists(format!("database {name:?}")));
                }
                self.databases.insert(name.clone(), BTreeMap::new());
                Ok(QueryResult::empty())
            }
            SqlStatement::CreateTable {
                name,
                columns,
                primary_key,
                indexes,
                foreign_keys,
            } => {
                self.create_table(name, columns, primary_key, indexes, foreign_keys)?;
                Ok(QueryResult::empty())
            }
            SqlStatement::CreateIndex { table, column } => {
                self.table_mut(table)?.add_index(column)?;
                Ok(QueryResult::empty())
            }
            SqlStatement::Insert {
                table,
                columns,
                rows,
            } => {
                self.insert(table, columns, rows)?;
                Ok(QueryResult::empty())
            }
            SqlStatement::Select {
                projection,
                from,
                join,
                predicates,
                limit,
            } => self.select(projection, from, join.as_ref(), predicates, *limit),
            SqlStatement::Update {
                table,
                assignments,
                predicate,
            } => {
                self.update(table, assignments, predicate)?;
                Ok(QueryResult::empty())
            }
            SqlStatement::Delete { table, predicate } => {
                self.delete(table, predicate)?;
                Ok(QueryResult::empty())
            }
            SqlStatement::Truncate { table } => {
                self.table_mut(table)?.truncate()?;
                Ok(QueryResult::empty())
            }
        }
    }

    fn table(&self, name: &TableName) -> Result<&TableData> {
        self.databases
            .get(&name.database)
            .ok_or_else(|| SqlError::UnknownDatabase(name.database.clone()))?
            .get(&name.table)
            .ok_or_else(|| SqlError::UnknownTable(name.qualified()))
    }

    fn table_mut(&mut self, name: &TableName) -> Result<&mut TableData> {
        self.databases
            .get_mut(&name.database)
            .ok_or_else(|| SqlError::UnknownDatabase(name.database.clone()))?
            .get_mut(&name.table)
            .ok_or_else(|| SqlError::UnknownTable(name.qualified()))
    }

    fn create_table(
        &mut self,
        name: &TableName,
        columns: &[crate::sql::ast::ColumnSpec],
        primary_key: &str,
        indexes: &[String],
        foreign_keys: &[crate::sql::ast::ForeignKeySpec],
    ) -> Result<()> {
        let db = self
            .databases
            .get(&name.database)
            .ok_or_else(|| SqlError::UnknownDatabase(name.database.clone()))?;
        if db.contains_key(&name.table) {
            return Err(SqlError::AlreadyExists(format!(
                "table {}",
                name.qualified()
            )));
        }
        if columns.is_empty() {
            return Err(SqlError::Parse(format!(
                "table {} must have at least one column",
                name.qualified()
            )));
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(SqlError::Parse(format!("duplicate column {:?}", c.name)));
            }
        }
        let pk = columns
            .iter()
            .position(|c| c.name == primary_key)
            .ok_or_else(|| SqlError::UnknownColumn {
                table: name.table.clone(),
                column: primary_key.to_string(),
            })?;
        for idx in indexes {
            if !columns.iter().any(|c| &c.name == idx) {
                return Err(SqlError::UnknownColumn {
                    table: name.table.clone(),
                    column: idx.clone(),
                });
            }
        }
        // Foreign keys must reference the primary key of an existing table
        // in the same database.
        for fk in foreign_keys {
            if !columns.iter().any(|c| c.name == fk.column) {
                return Err(SqlError::UnknownColumn {
                    table: name.table.clone(),
                    column: fk.column.clone(),
                });
            }
            let target = db.get(&fk.ref_table).ok_or_else(|| {
                SqlError::UnknownTable(format!("{}.{}", name.database, fk.ref_table))
            })?;
            let target_pk = &target.meta().columns[target.meta().primary_key].name;
            if target_pk != &fk.ref_column {
                return Err(SqlError::Unsupported(format!(
                    "foreign keys must reference the primary key ({}.{})",
                    fk.ref_table, target_pk
                )));
            }
        }
        let meta = TableMeta {
            database: name.database.clone(),
            name: name.table.clone(),
            columns: columns.to_vec(),
            primary_key: pk,
            indexes: indexes.to_vec(),
            foreign_keys: foreign_keys.to_vec(),
        };
        let data = TableData::new(meta, self.vfs.clone());
        self.databases
            .get_mut(&name.database)
            .expect("checked above")
            .insert(name.table.clone(), data);
        Ok(())
    }

    fn insert(
        &mut self,
        table: &TableName,
        columns: &[String],
        rows: &[Vec<SqlValue>],
    ) -> Result<()> {
        let meta = self.table(table)?.meta().clone();
        // Map bound columns to positions and type-check once.
        let mut positions = Vec::with_capacity(columns.len());
        for c in columns {
            positions.push(
                meta.column_index(c)
                    .ok_or_else(|| SqlError::UnknownColumn {
                        table: meta.name.clone(),
                        column: c.clone(),
                    })?,
            );
        }
        // The parser checks this for SQL text; a statement built in code
        // reaches here unchecked. Reject it before any row is written.
        if let Some(row) = rows.iter().find(|row| row.len() != columns.len()) {
            return Err(SqlError::Parse(format!(
                "row binds {} values for {} columns",
                row.len(),
                columns.len()
            )));
        }
        for row in rows {
            let mut values = vec![SqlValue::Null; meta.columns.len()];
            for (&pos, v) in positions.iter().zip(row) {
                if !v.matches(meta.columns[pos].ty) {
                    return Err(SqlError::TypeMismatch {
                        column: meta.columns[pos].name.clone(),
                        expected: meta.columns[pos].ty.name().to_string(),
                        found: v.type_name().to_string(),
                    });
                }
                values[pos] = v.clone();
            }
            // Foreign-key validation: each non-null FK value must exist as
            // the referenced table's primary key.
            for fk in &meta.foreign_keys {
                let idx = meta.column_index(&fk.column).expect("validated at create");
                let v = &values[idx];
                if v.is_null() {
                    continue;
                }
                let target = self.table(&TableName {
                    database: meta.database.clone(),
                    table: fk.ref_table.clone(),
                })?;
                if !target.pk_exists(v) {
                    return Err(SqlError::ForeignKeyViolation {
                        constraint: format!(
                            "{}.{} -> {}({}) value {}",
                            meta.name,
                            fk.column,
                            fk.ref_table,
                            fk.ref_column,
                            v.to_sql_literal()
                        ),
                    });
                }
            }
            self.trx += 1;
            let trx = self.trx;
            // Write-ahead: the row image hits the redo log before the heap
            // and indexes, as InnoDB does.
            let mut row_image = sc_encoding::Encoder::new();
            for v in &values {
                v.encode(&mut row_image);
            }
            self.redo.append(&RedoRecord {
                table: meta.qualified(),
                key: values[meta.primary_key].encode_key(),
                row: row_image.into_bytes(),
            })?;
            // Undo record (InnoDB writes one per row for rollback; the undo
            // of an insert is a delete-by-key, so only the key is logged).
            self.undo.append(&RedoRecord {
                table: meta.qualified(),
                key: values[meta.primary_key].encode_key(),
                row: Vec::new(),
            })?;
            self.table_mut(table)?.insert(values, trx)?;
        }
        Ok(())
    }

    /// SQL UPDATE by primary key: reads the current row, applies the
    /// assignments, and rewrites it (delete + reinsert through the normal
    /// paths so indexes and logs stay consistent).
    fn update(
        &mut self,
        table: &TableName,
        assignments: &[(String, SqlValue)],
        predicate: &Predicate,
    ) -> Result<()> {
        let meta = self.table(table)?.meta().clone();
        let pk_name = &meta.columns[meta.primary_key].name;
        if &predicate.column.column != pk_name {
            return Err(SqlError::Unsupported(format!(
                "UPDATE is by primary key ({pk_name})"
            )));
        }
        let Some(mut values) = self.table(table)?.get(&predicate.value)? else {
            return Ok(()); // MySQL updates zero rows silently.
        };
        for (column, value) in assignments {
            let idx = meta
                .column_index(column)
                .ok_or_else(|| SqlError::UnknownColumn {
                    table: meta.name.clone(),
                    column: column.clone(),
                })?;
            if idx == meta.primary_key {
                return Err(SqlError::Unsupported(
                    "the primary key cannot be SET".into(),
                ));
            }
            if !value.matches(meta.columns[idx].ty) {
                return Err(SqlError::TypeMismatch {
                    column: column.clone(),
                    expected: meta.columns[idx].ty.name().to_string(),
                    found: value.type_name().to_string(),
                });
            }
            values[idx] = value.clone();
        }
        self.delete(table, predicate)?;
        let columns: Vec<String> = meta.columns.iter().map(|c| c.name.clone()).collect();
        self.insert(table, &columns, &[values])?;
        Ok(())
    }

    fn delete(&mut self, table: &TableName, predicate: &Predicate) -> Result<()> {
        let meta = self.table(table)?.meta().clone();
        let pk_name = &meta.columns[meta.primary_key].name;
        if &predicate.column.column != pk_name {
            return Err(SqlError::Unsupported(format!(
                "DELETE is by primary key ({pk_name})"
            )));
        }
        self.redo.append(&RedoRecord {
            table: meta.qualified(),
            key: predicate.value.encode_key(),
            row: Vec::new(),
        })?;
        self.table_mut(table)?.delete(&predicate.value)?;
        Ok(())
    }

    /// Resolves which side of the query a column reference binds to.
    /// Returns (side, column index): side 0 = from, 1 = join.
    fn resolve_column(
        from: &TableFactor,
        from_meta: &TableMeta,
        join: Option<(&TableFactor, &TableMeta)>,
        col: &ColumnRef,
    ) -> Result<(usize, usize)> {
        let mut candidates = Vec::new();
        let matches_side = |factor: &TableFactor, q: &Option<String>| match q {
            Some(q) => factor.binding() == q,
            None => true,
        };
        if matches_side(from, &col.qualifier) {
            if let Some(i) = from_meta.column_index(&col.column) {
                candidates.push((0, i));
            }
        }
        if let Some((jf, jm)) = join {
            if matches_side(jf, &col.qualifier) {
                if let Some(i) = jm.column_index(&col.column) {
                    candidates.push((1, i));
                }
            }
        }
        match candidates.len() {
            1 => Ok(candidates[0]),
            0 => Err(SqlError::UnknownColumn {
                table: col
                    .qualifier
                    .clone()
                    .unwrap_or_else(|| from.binding().to_string()),
                column: col.column.clone(),
            }),
            _ => Err(SqlError::Unsupported(format!(
                "ambiguous column {:?}; qualify it",
                col.column
            ))),
        }
    }

    fn select(
        &mut self,
        projection: &Projection,
        from: &TableFactor,
        join: Option<&JoinSpec>,
        predicates: &[Predicate],
        limit: Option<usize>,
    ) -> Result<QueryResult> {
        let from_meta = self.table(&from.name)?.meta().clone();
        let join_meta = match join {
            Some(j) => Some(self.table(&j.factor.name)?.meta().clone()),
            None => None,
        };
        let join_ctx = join.map(|j| (&j.factor, &**join_meta.as_ref().expect("set above")));

        // Split predicates by side.
        let mut from_preds: Vec<(usize, &SqlValue)> = Vec::new();
        let mut join_preds: Vec<(usize, &SqlValue)> = Vec::new();
        for p in predicates {
            let (side, idx) = Self::resolve_column(from, &from_meta, join_ctx, &p.column)?;
            if side == 0 {
                from_preds.push((idx, &p.value));
            } else {
                join_preds.push((idx, &p.value));
            }
        }

        let fetch_side = |db: &Self,
                          name: &TableName,
                          meta: &TableMeta,
                          preds: &[(usize, &SqlValue)]|
         -> Result<Vec<Vec<SqlValue>>> {
            let data = db.table(name)?;
            // Pick the best access path: pk equality, then index, then scan.
            for (idx, value) in preds {
                if *idx == meta.primary_key {
                    let row = data.get(value)?;
                    return Ok(row
                        .into_iter()
                        .filter(|r| preds.iter().all(|(i, v)| &&r[*i] == v))
                        .collect());
                }
            }
            for (idx, value) in preds {
                let col = &meta.columns[*idx].name;
                if let Some(rows) = data.find_by_index(col, value)? {
                    return Ok(rows
                        .into_iter()
                        .filter(|r| preds.iter().all(|(i, v)| &&r[*i] == v))
                        .collect());
                }
            }
            Ok(data
                .scan()?
                .into_iter()
                .filter(|r| preds.iter().all(|(i, v)| &&r[*i] == v))
                .collect())
        };

        let left_rows = fetch_side(self, &from.name, &from_meta, &from_preds)?;

        let mut combined: Vec<(Vec<SqlValue>, Option<Vec<SqlValue>>)> = Vec::new();
        if let (Some(j), Some(jm)) = (join, join_meta.as_ref()) {
            let right_rows = fetch_side(self, &j.factor.name, jm, &join_preds)?;
            // Resolve ON sides.
            let (l_side, l_idx) = Self::resolve_column(from, &from_meta, join_ctx, &j.on_left)?;
            let (r_side, r_idx) = Self::resolve_column(from, &from_meta, join_ctx, &j.on_right)?;
            if l_side == r_side {
                return Err(SqlError::Unsupported(
                    "JOIN ON must compare the two tables".into(),
                ));
            }
            let (from_on, join_on) = if l_side == 0 {
                (l_idx, r_idx)
            } else {
                (r_idx, l_idx)
            };
            // Hash join: build on the right side.
            let mut built: std::collections::HashMap<Vec<u8>, Vec<&Vec<SqlValue>>> =
                std::collections::HashMap::new();
            for r in &right_rows {
                if !r[join_on].is_null() {
                    built.entry(r[join_on].encode_key()).or_default().push(r);
                }
            }
            for l in left_rows {
                if l[from_on].is_null() {
                    continue;
                }
                if let Some(matches) = built.get(&l[from_on].encode_key()) {
                    for r in matches {
                        combined.push((l.clone(), Some((*r).clone())));
                    }
                }
            }
        } else {
            combined = left_rows.into_iter().map(|r| (r, None)).collect();
        }

        if let Some(n) = limit {
            combined.truncate(n);
        }
        if matches!(projection, Projection::Count) {
            return Ok(QueryResult {
                columns: vec!["COUNT(*)".to_string()],
                rows: vec![vec![SqlValue::Int(combined.len() as i64)]],
            });
        }

        // Projection.
        let qualified = join.is_some();
        let name_of = |factor: &TableFactor, col: &str| {
            if qualified {
                format!("{}.{col}", factor.binding())
            } else {
                col.to_string()
            }
        };
        let mut out_names = Vec::new();
        let mut selectors: Vec<(usize, usize)> = Vec::new();
        match projection {
            Projection::Count => unreachable!("handled above"),
            Projection::All => {
                for (i, c) in from_meta.columns.iter().enumerate() {
                    out_names.push(name_of(from, &c.name));
                    selectors.push((0, i));
                }
                if let (Some(j), Some(jm)) = (join, join_meta.as_ref()) {
                    for (i, c) in jm.columns.iter().enumerate() {
                        out_names.push(name_of(&j.factor, &c.name));
                        selectors.push((1, i));
                    }
                }
            }
            Projection::Columns(cols) => {
                for c in cols {
                    let (side, idx) = Self::resolve_column(from, &from_meta, join_ctx, c)?;
                    let factor = if side == 0 {
                        from
                    } else {
                        &join.expect("side 1 only with join").factor
                    };
                    let meta = if side == 0 {
                        &from_meta
                    } else {
                        join_meta.as_ref().expect("side 1 only with join")
                    };
                    out_names.push(name_of(factor, &meta.columns[idx].name));
                    selectors.push((side, idx));
                }
            }
        }
        let rows = combined
            .into_iter()
            .map(|(l, r)| {
                selectors
                    .iter()
                    .map(|(side, idx)| {
                        if *side == 0 {
                            l[*idx].clone()
                        } else {
                            r.as_ref().expect("join row present")[*idx].clone()
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(QueryResult {
            columns: out_names,
            rows,
        })
    }

    /// Checkpoints every table (heap pages + index files) so sizes are
    /// accurate.
    pub fn checkpoint_all(&mut self) -> Result<()> {
        for db in self.databases.values_mut() {
            for t in db.values_mut() {
                t.checkpoint()?;
            }
        }
        // Checkpointed state makes the redo/undo entries redundant.
        self.redo.truncate()?;
        self.undo.truncate()?;
        Ok(())
    }

    /// Bytes currently in the redo log (not part of table sizes).
    pub fn redo_log_size(&self) -> u64 {
        self.redo.size()
    }

    /// On-disk size of one table (checkpoint first).
    pub fn table_size(&self, name: &TableName) -> Result<ByteSize> {
        Ok(ByteSize::bytes(self.table(name)?.disk_size()))
    }

    /// Total on-disk size of a database — the paper's Table 4 measurement
    /// for the MySQL schemas.
    pub fn database_size(&self, database: &str) -> Result<ByteSize> {
        let db = self
            .databases
            .get(database)
            .ok_or_else(|| SqlError::UnknownDatabase(database.to_string()))?;
        Ok(ByteSize::bytes(db.values().map(TableData::disk_size).sum()))
    }

    /// Live row count of a table.
    pub fn row_count(&self, name: &TableName) -> Result<u64> {
        Ok(self.table(name)?.row_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(t: &str) -> TableName {
        TableName {
            database: "d".into(),
            table: t.into(),
        }
    }

    fn setup() -> Db {
        let mut db = Db::in_memory();
        db.execute_sql("CREATE DATABASE d").unwrap();
        db.execute_sql("CREATE TABLE d.node (id INT NOT NULL, root BOOL, PRIMARY KEY (id))")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE d.cell (id INT NOT NULL, name TEXT, node_id INT, \
             PRIMARY KEY (id), INDEX (node_id), \
             FOREIGN KEY (node_id) REFERENCES node (id))",
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_select_pk() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id, root) VALUES (1, TRUE), (2, FALSE)")
            .unwrap();
        let r = db
            .execute_sql("SELECT root FROM d.node WHERE id = 2")
            .unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Bool(false)]]);
    }

    #[test]
    fn insert_rejects_a_row_whose_length_differs_from_its_columns() {
        let mut db = setup();
        let insert = |rows: Vec<Vec<SqlValue>>| SqlStatement::Insert {
            table: name("node"),
            columns: vec!["id".into(), "root".into()],
            rows,
        };
        let short = insert(vec![
            vec![SqlValue::Int(1), SqlValue::Bool(true)],
            vec![SqlValue::Int(2)],
        ]);
        assert!(matches!(db.execute(&short), Err(SqlError::Parse(_))));
        let long = insert(vec![vec![
            SqlValue::Int(3),
            SqlValue::Bool(true),
            SqlValue::Int(4),
        ]]);
        assert!(matches!(db.execute(&long), Err(SqlError::Parse(_))));
        let r = db.execute_sql("SELECT id FROM d.node").unwrap();
        assert!(
            r.rows.is_empty(),
            "no row of a rejected statement is stored"
        );
        db.execute(&insert(vec![vec![SqlValue::Int(1), SqlValue::Bool(true)]]))
            .unwrap();
    }

    #[test]
    fn foreign_keys_validated() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id) VALUES (1)")
            .unwrap();
        db.execute_sql("INSERT INTO d.cell (id, node_id) VALUES (10, 1)")
            .unwrap();
        assert!(matches!(
            db.execute_sql("INSERT INTO d.cell (id, node_id) VALUES (11, 99)"),
            Err(SqlError::ForeignKeyViolation { .. })
        ));
        // NULL FK is allowed.
        db.execute_sql("INSERT INTO d.cell (id) VALUES (12)")
            .unwrap();
    }

    #[test]
    fn fk_must_reference_pk() {
        let mut db = setup();
        assert!(matches!(
            db.execute_sql(
                "CREATE TABLE d.bad (id INT, nid INT, PRIMARY KEY (id), \
                 FOREIGN KEY (nid) REFERENCES node (root))"
            ),
            Err(SqlError::Unsupported(_))
        ));
    }

    #[test]
    fn index_lookup_path() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id) VALUES (1), (2)")
            .unwrap();
        for i in 0..10 {
            db.execute_sql(&format!(
                "INSERT INTO d.cell (id, name, node_id) VALUES ({i}, 'c{i}', {})",
                i % 2 + 1
            ))
            .unwrap();
        }
        let r = db
            .execute_sql("SELECT id FROM d.cell WHERE node_id = 1")
            .unwrap();
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn join_produces_qualified_columns() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id, root) VALUES (1, TRUE), (2, FALSE)")
            .unwrap();
        db.execute_sql(
            "INSERT INTO d.cell (id, name, node_id) VALUES \
             (10, 'a', 1), (11, 'b', 1), (12, 'c', 2)",
        )
        .unwrap();
        let r = db
            .execute_sql(
                "SELECT c.name, n.root FROM d.cell AS c \
                 JOIN d.node AS n ON c.node_id = n.id \
                 WHERE n.root = TRUE",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["c.name", "n.root"]);
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows.iter().all(|row| row[1] == SqlValue::Bool(true)));
    }

    #[test]
    fn join_select_star() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id) VALUES (1)")
            .unwrap();
        db.execute_sql("INSERT INTO d.cell (id, node_id) VALUES (10, 1)")
            .unwrap();
        let r = db
            .execute_sql("SELECT * FROM d.cell JOIN d.node ON cell.node_id = node.id")
            .unwrap();
        assert_eq!(r.columns.len(), 5); // 3 cell + 2 node
        assert!(r.columns[0].starts_with("cell."));
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn ambiguous_column_is_rejected() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id) VALUES (1)")
            .unwrap();
        db.execute_sql("INSERT INTO d.cell (id, node_id) VALUES (10, 1)")
            .unwrap();
        assert!(matches!(
            db.execute_sql("SELECT id FROM d.cell JOIN d.node ON cell.node_id = node.id"),
            Err(SqlError::Unsupported(_))
        ));
    }

    #[test]
    fn delete_by_pk_only() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id) VALUES (1)")
            .unwrap();
        db.execute_sql("DELETE FROM d.node WHERE id = 1").unwrap();
        assert_eq!(db.row_count(&name("node")).unwrap(), 0);
        assert!(matches!(
            db.execute_sql("DELETE FROM d.node WHERE root = TRUE"),
            Err(SqlError::Unsupported(_))
        ));
    }

    #[test]
    fn sizes_require_checkpoint() {
        let mut db = setup();
        for i in 0..500 {
            db.execute_sql(&format!("INSERT INTO d.node (id) VALUES ({i})"))
                .unwrap();
        }
        db.checkpoint_all().unwrap();
        let size = db.database_size("d").unwrap();
        assert!(size.as_bytes() >= 16 * 1024, "got {size}");
        let t = db.table_size(&name("node")).unwrap();
        assert!(t.as_bytes() > 0);
    }

    #[test]
    fn truncate() {
        let mut db = setup();
        db.execute_sql("INSERT INTO d.node (id) VALUES (1)")
            .unwrap();
        db.execute_sql("TRUNCATE TABLE d.node").unwrap();
        assert_eq!(
            db.execute_sql("SELECT * FROM d.node").unwrap().rows.len(),
            0
        );
    }

    #[test]
    fn errors_for_unknown_objects() {
        let mut db = Db::in_memory();
        assert!(matches!(
            db.execute_sql("INSERT INTO d.t (id) VALUES (1)"),
            Err(SqlError::UnknownDatabase(_))
        ));
        db.execute_sql("CREATE DATABASE d").unwrap();
        assert!(matches!(
            db.execute_sql("SELECT * FROM d.t"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            db.execute_sql("CREATE DATABASE d"),
            Err(SqlError::AlreadyExists(_))
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut db = setup();
        assert!(matches!(
            db.execute_sql("INSERT INTO d.node (id, root) VALUES (1, 'yes')"),
            Err(SqlError::TypeMismatch { .. })
        ));
    }
}
