//! The logical plan tree: pure data, no table runtimes.

use crate::cql::ast::{AggFunc, CmpOp};
use crate::types::{CqlValue, ValueRef};

/// Cardinality and cost estimates attached to every plan node. `cost` is
/// cumulative (the node plus everything below it), in the planner's
/// abstract units (see [`crate::plan::planner`] for the constants).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Estimated rows the node emits.
    pub rows: f64,
    /// Estimated cumulative cost of producing them.
    pub cost: f64,
}

/// A resolved single-column predicate test.
#[derive(Debug, Clone, PartialEq)]
pub enum PredTest {
    /// `column = value`.
    Eq(CqlValue),
    /// `column IN (values)`.
    In(Vec<CqlValue>),
    /// `column <op> value`.
    Cmp(CmpOp, CqlValue),
}

/// A predicate with its column resolved to a row index.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column name (for display).
    pub column: String,
    /// Index into the base table's row layout.
    pub index: usize,
    /// The test applied to that cell.
    pub test: PredTest,
}

impl Predicate {
    /// The literals the column is tested against, in statement order.
    pub fn values(&self) -> &[CqlValue] {
        match &self.test {
            PredTest::Eq(value) | PredTest::Cmp(_, value) => std::slice::from_ref(value),
            PredTest::In(values) => values,
        }
    }

    /// Whether `cell`, the row's value in column `index`, satisfies the
    /// predicate. Comparisons follow SQL's null semantics: a null cell
    /// never matches a range test (equality against an explicit null
    /// does).
    pub(crate) fn matches(&self, cell: ValueRef<'_>) -> bool {
        match &self.test {
            PredTest::Eq(value) => cell == ValueRef::from(value),
            PredTest::In(values) => values.iter().any(|v| cell == ValueRef::from(v)),
            PredTest::Cmp(op, value) => {
                !cell.is_null() && !value.is_null() && op.accepts(cell.cmp_sort(value.into()))
            }
        }
    }

    /// Renders the predicate as CQL-ish text for `EXPLAIN`.
    pub fn render(&self) -> String {
        match &self.test {
            PredTest::Eq(v) => format!("{} = {}", self.column, v.to_cql_literal()),
            PredTest::In(vs) => {
                let lits: Vec<String> = vs.iter().map(CqlValue::to_cql_literal).collect();
                format!("{} IN ({})", self.column, lits.join(", "))
            }
            PredTest::Cmp(op, v) => {
                format!("{} {} {}", self.column, op.symbol(), v.to_cql_literal())
            }
        }
    }
}

/// How the scan reaches rows. The probing paths carry the `=` or `IN`
/// predicate they serve.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanKind {
    /// Bloom/fence-checked probes of the primary key: one for `=` (a point
    /// scan), one per distinct `IN` value in statement order, sent to the
    /// table in sorted batches.
    Key(Predicate),
    /// Posting scan of a secondary index for the predicate's values, then a
    /// probe per posted key, each base row re-checked against the
    /// predicate (postings may be stale).
    Index(Predicate),
    /// Key-ordered scan of the whole table.
    Full,
}

impl ScanKind {
    /// The operator that runs this access path, as `EXPLAIN` and traces
    /// name it.
    pub fn operator(&self) -> &'static str {
        match self {
            ScanKind::Key(Predicate {
                test: PredTest::Eq(_),
                ..
            }) => "PointScan",
            ScanKind::Key(_) => "MultiPointScan",
            ScanKind::Index(_) => "IndexScan",
            ScanKind::Full => "FullScan",
        }
    }
}

/// The leaf of every plan: a scan of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanNode {
    /// Qualified base-table name (`ks.table`).
    pub table: String,
    /// Access path.
    pub kind: ScanKind,
    /// The access path's non-null literals as encoded keys, statement
    /// order: checked and encoded by the planner
    /// ([`crate::TableDef::encode_key`]), trusted by the operators.
    pub keys: Vec<Vec<u8>>,
    /// Predicates evaluated inside the scan (full scans only; pushdown).
    pub residual: Vec<Predicate>,
    /// Row cap applied inside the scan, counted after `residual`.
    pub pushed_limit: Option<usize>,
    /// Column pruning applied by the scan (full scans only). `None` means
    /// every column is materialized.
    pub projection: Option<ScanProjection>,
    /// Estimates.
    pub est: Estimate,
}

/// The columns a full scan materializes: the select list plus every
/// predicate and sort-key column. SSTables skip decoding the column
/// runs outside `indices`; pruned cells surface as `Null` and are never
/// read above the scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanProjection {
    /// Base-layout indices to materialize, sorted ascending.
    pub indices: Vec<usize>,
    /// The same columns by name (for `EXPLAIN`).
    pub names: Vec<String>,
    /// Base-layout columns pruned (schema width minus `indices`).
    pub pruned: usize,
}

/// One aggregate computed by an [`PlanNode::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Argument column index in the input layout; `None` for `COUNT(*)`.
    pub input: Option<usize>,
    /// Argument column name (for display).
    pub column: Option<String>,
}

/// One output column of an [`PlanNode::Aggregate`], in select-list order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggOutput {
    /// A grouping column, by input-layout index.
    Group(usize),
    /// An aggregate, by position in the node's `aggs`.
    Agg(usize),
}

/// A logical plan node. The tree is linear (every node has at most one
/// input); rows flow leaf-to-root.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Table access.
    Scan(ScanNode),
    /// Drops rows failing a predicate conjunction.
    Filter {
        /// Input node.
        input: Box<PlanNode>,
        /// AND-joined predicates.
        predicates: Vec<Predicate>,
        /// Estimates.
        est: Estimate,
    },
    /// Narrows rows to the selected columns.
    Project {
        /// Input node.
        input: Box<PlanNode>,
        /// Input-layout indices, in output order.
        indices: Vec<usize>,
        /// Output column names (for display).
        names: Vec<String>,
        /// Estimates.
        est: Estimate,
    },
    /// Total sort on one column ([`CqlValue::cmp_sort`] order; stable, so
    /// ties keep the input's key order).
    Sort {
        /// Input node.
        input: Box<PlanNode>,
        /// Sort-key index in the input layout.
        key: usize,
        /// Sort-key column name (for display).
        column: String,
        /// `true` for `DESC`.
        desc: bool,
        /// Estimates.
        est: Estimate,
    },
    /// Caps the row count.
    Limit {
        /// Input node.
        input: Box<PlanNode>,
        /// Maximum rows emitted.
        limit: usize,
        /// Estimates.
        est: Estimate,
    },
    /// Grouped (or global) aggregation. Output rows follow the group
    /// keys' [`CqlValue::cmp_sort`] order for determinism.
    Aggregate {
        /// Input node.
        input: Box<PlanNode>,
        /// Grouping column indices in the input layout.
        group_by: Vec<usize>,
        /// Aggregates computed per group.
        aggs: Vec<AggSpec>,
        /// Output layout, in select-list order.
        output: Vec<AggOutput>,
        /// Output column names, aligned with `output`.
        names: Vec<String>,
        /// Estimates.
        est: Estimate,
    },
}

impl PlanNode {
    /// The node's estimates.
    pub fn estimate(&self) -> Estimate {
        match self {
            PlanNode::Scan(s) => s.est,
            PlanNode::Filter { est, .. }
            | PlanNode::Project { est, .. }
            | PlanNode::Sort { est, .. }
            | PlanNode::Limit { est, .. }
            | PlanNode::Aggregate { est, .. } => *est,
        }
    }

    /// The scan at the bottom of the tree.
    pub fn scan(&self) -> &ScanNode {
        match self {
            PlanNode::Scan(s) => s,
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Aggregate { input, .. } => input.scan(),
        }
    }
}

/// A planned `SELECT`: the operator tree plus its output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Root of the plan tree.
    pub root: PlanNode,
    /// Output column names, in select-list order.
    pub columns: Vec<String>,
}
