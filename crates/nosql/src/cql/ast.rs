//! CQL statement AST.

use crate::types::{CqlType, CqlValue};

/// A table reference. `keyspace` is empty for an unqualified reference
/// (`FROM t`), which a [`crate::Session`] resolves against its current
/// `USE` keyspace before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Keyspace name; empty when the statement left the table unqualified.
    pub keyspace: String,
    /// Table name.
    pub table: String,
}

impl TableRef {
    /// Whether the reference names its keyspace explicitly.
    pub fn is_qualified(&self) -> bool {
        !self.keyspace.is_empty()
    }
}

/// A comparison operator in a range predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The CQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Whether `ord` (cell compared against the literal) satisfies the
    /// operator.
    pub fn accepts(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// One predicate of a `WHERE` conjunction: `column = value`,
/// `column IN (...)`, or `column <op> value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WhereClause {
    /// `WHERE column = value`.
    Eq {
        /// Column constrained.
        column: String,
        /// Required value.
        value: CqlValue,
    },
    /// `WHERE column IN (v1, v2, ...)` — a multi-point read. On the
    /// primary key this probes the memtable/SSTables once per key instead
    /// of issuing one statement per value.
    In {
        /// Column constrained.
        column: String,
        /// Accepted values, in statement order.
        values: Vec<CqlValue>,
    },
    /// `WHERE column < value` (and `<=`, `>`, `>=`).
    Cmp {
        /// Column constrained.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal compared against.
        value: CqlValue,
    },
}

impl WhereClause {
    /// Convenience constructor for [`WhereClause::Eq`].
    pub fn eq(column: impl Into<String>, value: CqlValue) -> WhereClause {
        WhereClause::Eq {
            column: column.into(),
            value,
        }
    }

    /// Convenience constructor for [`WhereClause::In`].
    pub fn any_of(column: impl Into<String>, values: Vec<CqlValue>) -> WhereClause {
        WhereClause::In {
            column: column.into(),
            values,
        }
    }

    /// Convenience constructor for [`WhereClause::Cmp`].
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: CqlValue) -> WhereClause {
        WhereClause::Cmp {
            column: column.into(),
            op,
            value,
        }
    }

    /// The constrained column's name.
    pub fn column(&self) -> &str {
        match self {
            WhereClause::Eq { column, .. }
            | WhereClause::In { column, .. }
            | WhereClause::Cmp { column, .. } => column,
        }
    }

    /// Renders the filter as CQL (without the `WHERE` keyword).
    pub fn to_cql(&self) -> String {
        match self {
            WhereClause::Eq { column, value } => {
                format!("{column} = {}", value.to_cql_literal())
            }
            WhereClause::In { column, values } => {
                let vals: Vec<String> = values.iter().map(CqlValue::to_cql_literal).collect();
                format!("{column} IN ({})", vals.join(", "))
            }
            WhereClause::Cmp { column, op, value } => {
                format!("{column} {} {}", op.symbol(), value.to_cql_literal())
            }
        }
    }
}

/// An aggregate function in a SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(col)`.
    Count,
    /// `SUM(col)` — int columns only.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)` — int columns only, integer division as in Cassandra.
    Avg,
}

impl AggFunc {
    /// Lower-case CQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One item of an explicit SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem {
    /// A plain column reference.
    Column(String),
    /// An aggregate call; `column` is `None` for `COUNT(*)`.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Argument column, `None` for `*` (COUNT only).
        column: Option<String>,
    },
}

impl SelectItem {
    /// The output column name: plain columns keep their name, `COUNT(*)`
    /// stays `count` (pinned by the pre-planner API), other aggregates
    /// render as `func(col)`.
    pub fn output_name(&self) -> String {
        match self {
            SelectItem::Column(name) => name.clone(),
            SelectItem::Aggregate { func, column: None } => func.name().to_string(),
            SelectItem::Aggregate {
                func,
                column: Some(col),
            } => format!("{}({col})", func.name()),
        }
    }

    /// Renders the item as CQL.
    pub fn to_cql(&self) -> String {
        match self {
            SelectItem::Column(name) => name.clone(),
            SelectItem::Aggregate { func, column } => format!(
                "{}({})",
                func.name().to_uppercase(),
                column.as_deref().unwrap_or("*")
            ),
        }
    }
}

/// The column list of a SELECT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectColumns {
    /// `SELECT *`.
    All,
    /// An explicit list of columns and/or aggregates.
    Items(Vec<SelectItem>),
}

impl SelectColumns {
    /// An explicit list of plain (non-aggregate) columns.
    pub fn named<S: Into<String>>(names: impl IntoIterator<Item = S>) -> SelectColumns {
        SelectColumns::Items(
            names
                .into_iter()
                .map(|n| SelectItem::Column(n.into()))
                .collect(),
        )
    }

    /// Whether any item is an aggregate call.
    pub fn has_aggregates(&self) -> bool {
        match self {
            SelectColumns::All => false,
            SelectColumns::Items(items) => items
                .iter()
                .any(|i| matches!(i, SelectItem::Aggregate { .. })),
        }
    }
}

/// `ORDER BY column [ASC|DESC]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderBy {
    /// Sort column.
    pub column: String,
    /// `true` for `DESC`.
    pub desc: bool,
}

impl OrderBy {
    /// Renders the clause as CQL (without the `ORDER BY` keywords).
    pub fn to_cql(&self) -> String {
        format!(
            "{}{}",
            self.column,
            if self.desc { " DESC" } else { " ASC" }
        )
    }
}

/// A parsed CQL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE KEYSPACE name`.
    CreateKeyspace {
        /// Keyspace name.
        name: String,
    },
    /// `CREATE TABLE ks.t (...)`.
    CreateTable {
        /// Target.
        table: TableRef,
        /// Column name/type pairs in declaration order.
        columns: Vec<(String, CqlType)>,
        /// Primary-key column name.
        primary_key: String,
    },
    /// `CREATE INDEX ON ks.t (col)`.
    CreateIndex {
        /// Target.
        table: TableRef,
        /// Indexed column.
        column: String,
    },
    /// `INSERT INTO ks.t (cols) VALUES (vals)`.
    Insert {
        /// Target.
        table: TableRef,
        /// Bound column names.
        columns: Vec<String>,
        /// Literal values, aligned with `columns`.
        values: Vec<CqlValue>,
    },
    /// `SELECT ... FROM ks.t [WHERE ...] [GROUP BY ...] [ORDER BY ...]
    /// [LIMIT n]`.
    Select {
        /// Target.
        table: TableRef,
        /// Projected columns and aggregates.
        columns: SelectColumns,
        /// `WHERE` conjunction (AND-joined); empty means no filter.
        where_clause: Vec<WhereClause>,
        /// `GROUP BY` columns, in statement order; empty when absent.
        group_by: Vec<String>,
        /// Optional `ORDER BY`.
        order_by: Option<OrderBy>,
        /// Optional row limit.
        limit: Option<usize>,
    },
    /// `UPDATE ks.t SET c = v, ... WHERE pk = v` (an upsert, as in
    /// Cassandra).
    Update {
        /// Target.
        table: TableRef,
        /// Column/value assignments.
        assignments: Vec<(String, CqlValue)>,
        /// Key filter (must be the primary key).
        where_clause: WhereClause,
    },
    /// `DELETE FROM ks.t WHERE pk = v`.
    Delete {
        /// Target.
        table: TableRef,
        /// Key filter (must be the primary key).
        where_clause: WhereClause,
    },
    /// `TRUNCATE ks.t`.
    Truncate {
        /// Target.
        table: TableRef,
    },
    /// `BEGIN BATCH ... APPLY BATCH` of inserts/deletes.
    Batch {
        /// The batched statements.
        statements: Vec<Statement>,
    },
    /// `USE keyspace` — sets a session's default keyspace for resolving
    /// unqualified table references. Only meaningful on a
    /// [`crate::Session`]; the bare engine rejects it.
    Use {
        /// Keyspace name.
        keyspace: String,
    },
    /// `EXPLAIN <select>` — plans the inner statement and returns the
    /// plan tree (one `plan` text column) instead of executing it.
    Explain {
        /// The statement being explained (currently SELECT only).
        statement: Box<Statement>,
    },
}

impl Statement {
    /// A `SELECT` with only the target/projection/filter/limit set — the
    /// shape every pre-`ORDER BY`-era caller builds.
    pub fn select(
        table: TableRef,
        columns: SelectColumns,
        where_clause: Option<WhereClause>,
        limit: Option<usize>,
    ) -> Statement {
        Statement::Select {
            table,
            columns,
            where_clause: where_clause.into_iter().collect(),
            group_by: Vec::new(),
            order_by: None,
            limit,
        }
    }

    /// Renders the statement back to CQL text (inverse of parsing; used to
    /// show Figure 3's generated INSERT and in the text-path ablation).
    pub fn to_cql(&self) -> String {
        match self {
            Statement::CreateKeyspace { name } => format!("CREATE KEYSPACE {name}"),
            Statement::CreateTable {
                table,
                columns,
                primary_key,
            } => {
                let cols: Vec<String> = columns.iter().map(|(n, t)| format!("{n} {t}")).collect();
                format!(
                    "CREATE TABLE {}.{} ({}, PRIMARY KEY ({}))",
                    table.keyspace,
                    table.table,
                    cols.join(", "),
                    primary_key
                )
            }
            Statement::CreateIndex { table, column } => {
                format!(
                    "CREATE INDEX ON {}.{} ({})",
                    table.keyspace, table.table, column
                )
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                let vals: Vec<String> = values.iter().map(CqlValue::to_cql_literal).collect();
                format!(
                    "INSERT INTO {}.{} ({}) VALUES ({})",
                    table.keyspace,
                    table.table,
                    columns.join(","),
                    vals.join(",")
                )
            }
            Statement::Select {
                table,
                columns,
                where_clause,
                group_by,
                order_by,
                limit,
            } => {
                let cols = match columns {
                    SelectColumns::All => "*".to_string(),
                    SelectColumns::Items(items) => {
                        let parts: Vec<String> = items.iter().map(SelectItem::to_cql).collect();
                        parts.join(", ")
                    }
                };
                let mut s = format!("SELECT {cols} FROM {}.{}", table.keyspace, table.table);
                if !where_clause.is_empty() {
                    let preds: Vec<String> = where_clause.iter().map(WhereClause::to_cql).collect();
                    s.push_str(&format!(" WHERE {}", preds.join(" AND ")));
                }
                if !group_by.is_empty() {
                    s.push_str(&format!(" GROUP BY {}", group_by.join(", ")));
                }
                if let Some(o) = order_by {
                    s.push_str(&format!(" ORDER BY {}", o.to_cql()));
                }
                if let Some(n) = limit {
                    s.push_str(&format!(" LIMIT {n}"));
                }
                s
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let sets: Vec<String> = assignments
                    .iter()
                    .map(|(c, v)| format!("{c} = {}", v.to_cql_literal()))
                    .collect();
                format!(
                    "UPDATE {}.{} SET {} WHERE {}",
                    table.keyspace,
                    table.table,
                    sets.join(", "),
                    where_clause.to_cql()
                )
            }
            Statement::Delete {
                table,
                where_clause,
            } => format!(
                "DELETE FROM {}.{} WHERE {}",
                table.keyspace,
                table.table,
                where_clause.to_cql()
            ),
            Statement::Truncate { table } => {
                format!("TRUNCATE {}.{}", table.keyspace, table.table)
            }
            Statement::Batch { statements } => {
                let mut s = String::from("BEGIN BATCH ");
                for st in statements {
                    s.push_str(&st.to_cql());
                    s.push_str("; ");
                }
                s.push_str("APPLY BATCH");
                s
            }
            Statement::Use { keyspace } => format!("USE {keyspace}"),
            Statement::Explain { statement } => format!("EXPLAIN {}", statement.to_cql()),
        }
    }
}
