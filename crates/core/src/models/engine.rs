//! The two engine adapters the store/rebuild protocol runs over.
//!
//! The protocol needs four things of a store: run DDL, stream rows into a
//! table through one prepared INSERT, select columns where `col = v`, and
//! flush-then-measure. [`Engine`] is that surface, implemented for the
//! `sc-nosql` and `sc-relational` `Db`s; [`Value`] is what the two engines'
//! literal types have in common, so rows both engines store (the meta row,
//! Table 3's cell row) are written once, and [`Row`] is the one typed
//! accessor every read-back goes through.

use crate::error::{CoreError, Result};
use sc_encoding::ByteSize;
use sc_nosql::cql::ast::{SelectColumns, Statement, TableRef, WhereClause};
use sc_nosql::CqlValue;
use sc_relational::sql::ast::{
    ColumnRef, Predicate, Projection, SqlStatement, TableFactor, TableName,
};
use sc_relational::SqlValue;

/// A table in an engine namespace (NoSQL keyspace / relational database).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table {
    pub space: &'static str,
    pub name: &'static str,
}

impl Table {
    pub const fn new(space: &'static str, name: &'static str) -> Table {
        Table { space, name }
    }
}

impl From<Table> for TableRef {
    fn from(t: Table) -> TableRef {
        TableRef {
            keyspace: t.space.into(),
            table: t.name.into(),
        }
    }
}

impl From<Table> for TableName {
    fn from(t: Table) -> TableName {
        TableName {
            database: t.space.into(),
            table: t.name.into(),
        }
    }
}

/// A literal both engines can store and give back.
pub(crate) trait Value: Clone {
    fn int(v: i64) -> Self;
    fn text(v: &str) -> Self;
    fn bool(v: bool) -> Self;
    /// `None` is the engine's NULL.
    fn opt_int(v: Option<i64>) -> Self;
    fn as_int(&self) -> Option<i64>;
    fn as_text(&self) -> Option<&str>;
    fn as_bool(&self) -> Option<bool>;
    fn is_null(&self) -> bool;
}

macro_rules! impl_value {
    ($ty:ident, $bool:ident) => {
        impl Value for $ty {
            fn int(v: i64) -> Self {
                $ty::Int(v)
            }
            fn text(v: &str) -> Self {
                $ty::Text(v.to_string())
            }
            fn bool(v: bool) -> Self {
                $ty::$bool(v)
            }
            fn opt_int(v: Option<i64>) -> Self {
                v.map_or($ty::Null, $ty::Int)
            }
            fn as_int(&self) -> Option<i64> {
                $ty::as_int(self)
            }
            fn as_text(&self) -> Option<&str> {
                $ty::as_text(self)
            }
            fn as_bool(&self) -> Option<bool> {
                $ty::as_bool(self)
            }
            fn is_null(&self) -> bool {
                $ty::is_null(self)
            }
        }
    };
}
impl_value!(CqlValue, Boolean);
impl_value!(SqlValue, Bool);

/// What the protocol asks of a store.
pub(crate) trait Engine {
    type Value: Value;

    /// Executes one DDL statement given as text.
    fn define(&mut self, ddl: &str) -> Result<()>;

    /// Writes `rows` into `table` and returns how many went in: rows, each
    /// one write, as §4's transformation generates one INSERT per record.
    /// The NoSQL adapter hands the whole stream to the engine's multi-row
    /// apply (`sc_nosql::Db::insert_rows`: each row bound once, rows
    /// committed per memtable chunk); the relational adapter executes one
    /// prepared INSERT per row, rebinding its value buffer, because chunked
    /// multi-row INSERTs barely moved its rate (DESIGN.md §3). NoSQL-DWARF's
    /// node and cell rows bypass this for `sc_nosql::Db::ingest_columns`.
    fn insert<R>(
        &mut self,
        table: Table,
        columns: &[&str],
        rows: impl Iterator<Item = R>,
    ) -> Result<usize>
    where
        R: IntoIterator<Item = Self::Value>,
        R::IntoIter: ExactSizeIterator;

    /// Overwrites the row whose primary key — the first column — is
    /// `row[0]`.
    fn replace(&mut self, table: Table, columns: &[&str], row: Vec<Self::Value>) -> Result<()>;

    /// `SELECT columns FROM table [WHERE filter.0 = filter.1]`, each row
    /// handed to `decode`.
    fn select<T>(
        &mut self,
        table: Table,
        columns: &[&str],
        filter: Option<(&str, i64)>,
        decode: impl FnMut(Row<'_, Self::Value>) -> Result<T>,
    ) -> Result<Vec<T>>;

    /// Makes everything durable, then measures `space` on disk.
    fn flush_and_size(&mut self, space: &str) -> Result<ByteSize>;
}

impl Engine for sc_nosql::Db {
    type Value = CqlValue;

    fn define(&mut self, ddl: &str) -> Result<()> {
        self.execute_cql(ddl)?;
        Ok(())
    }

    fn insert<R>(
        &mut self,
        table: Table,
        columns: &[&str],
        rows: impl Iterator<Item = R>,
    ) -> Result<usize>
    where
        R: IntoIterator<Item = CqlValue>,
        R::IntoIter: ExactSizeIterator,
    {
        Ok(self.insert_rows(table.space, table.name, columns, rows)?)
    }

    fn replace(&mut self, table: Table, columns: &[&str], row: Vec<CqlValue>) -> Result<()> {
        // An INSERT is an upsert of the whole row.
        self.insert(table, columns, std::iter::once(row))?;
        Ok(())
    }

    fn select<T>(
        &mut self,
        table: Table,
        columns: &[&str],
        filter: Option<(&str, i64)>,
        mut decode: impl FnMut(Row<'_, CqlValue>) -> Result<T>,
    ) -> Result<Vec<T>> {
        let result = self.execute(&Statement::select(
            table.into(),
            SelectColumns::named(columns.iter().copied()),
            filter.map(|(column, v)| WhereClause::eq(column, CqlValue::Int(v))),
            None,
        ))?;
        let rows = result.rows().iter();
        rows.map(|row| decode(Row::new(table, columns, row.values())))
            .collect()
    }

    fn flush_and_size(&mut self, space: &str) -> Result<ByteSize> {
        self.flush_all()?;
        Ok(self.keyspace_size(space)?)
    }
}

fn col(name: &str) -> ColumnRef {
    ColumnRef {
        qualifier: None,
        column: name.into(),
    }
}

impl Engine for sc_relational::Db {
    type Value = SqlValue;

    fn define(&mut self, ddl: &str) -> Result<()> {
        self.execute_sql(ddl)?;
        Ok(())
    }

    fn insert<R>(
        &mut self,
        table: Table,
        columns: &[&str],
        rows: impl Iterator<Item = R>,
    ) -> Result<usize>
    where
        R: IntoIterator<Item = SqlValue>,
        R::IntoIter: ExactSizeIterator,
    {
        let mut stmt = SqlStatement::Insert {
            table: table.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: vec![Vec::with_capacity(columns.len())],
        };
        let mut statements = 0;
        for row in rows {
            if let SqlStatement::Insert { rows, .. } = &mut stmt {
                rows[0].clear();
                rows[0].extend(row);
            }
            self.execute(&stmt)?;
            statements += 1;
        }
        Ok(statements)
    }

    fn replace(&mut self, table: Table, columns: &[&str], row: Vec<SqlValue>) -> Result<()> {
        self.execute(&SqlStatement::Delete {
            table: table.into(),
            predicate: Predicate {
                column: col(columns[0]),
                value: row[0].clone(),
            },
        })?;
        self.insert(table, columns, std::iter::once(row))?;
        Ok(())
    }

    fn select<T>(
        &mut self,
        table: Table,
        columns: &[&str],
        filter: Option<(&str, i64)>,
        mut decode: impl FnMut(Row<'_, SqlValue>) -> Result<T>,
    ) -> Result<Vec<T>> {
        let predicate = filter.map(|(column, v)| Predicate {
            column: col(column),
            value: SqlValue::Int(v),
        });
        let result = self.execute(&SqlStatement::Select {
            projection: Projection::Columns(columns.iter().map(|c| col(c)).collect()),
            from: TableFactor {
                name: table.into(),
                alias: None,
            },
            join: None,
            predicates: predicate.into_iter().collect(),
            limit: None,
        })?;
        let rows = result.rows.iter();
        rows.map(|values| decode(Row::new(table, columns, values)))
            .collect()
    }

    fn flush_and_size(&mut self, space: &str) -> Result<ByteSize> {
        self.checkpoint_all()?;
        Ok(self.database_size(space)?)
    }
}

/// One selected row. Column `i` is the select's `columns[i]`; a value of
/// the wrong type is a typed [`CoreError::Inconsistent`] naming the column,
/// never a default.
#[derive(Debug)]
pub(crate) struct Row<'a, V> {
    table: Table,
    columns: &'a [&'a str],
    values: &'a [V],
}

impl<'a, V: Value> Row<'a, V> {
    fn new(table: Table, columns: &'a [&'a str], values: &'a [V]) -> Self {
        Row {
            table,
            columns,
            values,
        }
    }

    fn typed<T>(&self, i: usize, ty: &str, get: impl FnOnce(&'a V) -> Option<T>) -> Result<T> {
        self.values.get(i).and_then(get).ok_or_else(|| {
            let Table { space, name } = self.table;
            let column = self.columns.get(i).unwrap_or(&"?");
            CoreError::Inconsistent(format!("{space}.{name}.{column} is not {ty}"))
        })
    }

    pub fn int(&self, i: usize) -> Result<i64> {
        self.typed(i, "an int", V::as_int)
    }

    /// An int column where NULL means "none".
    pub fn opt_int(&self, i: usize) -> Result<Option<i64>> {
        if self.values.get(i).is_some_and(V::is_null) {
            return Ok(None);
        }
        self.typed(i, "an int or null", V::as_int).map(Some)
    }

    pub fn text(&self, i: usize) -> Result<&'a str> {
        self.typed(i, "text", V::as_text)
    }

    pub fn bool(&self, i: usize) -> Result<bool> {
        self.typed(i, "a boolean", V::as_bool)
    }
}
