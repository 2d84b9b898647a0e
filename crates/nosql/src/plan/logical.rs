//! The logical plan tree: pure data, no table runtimes.

use crate::cql::ast::{AggFunc, CmpOp};
use crate::error::Result;
use crate::schema::TableDef;
use crate::types::{CqlValue, ValueRef};
use std::sync::Arc;

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

    /// Renders the predicate over `def`'s table as CQL-ish text for
    /// `EXPLAIN`.
    pub fn render(&self, def: &TableDef) -> String {
        let column = &def.columns[self.index].name;
        match &self.test {
            PredTest::Eq(v) => format!("{column} = {}", v.to_cql_literal()),
            PredTest::In(vs) => {
                let lits: Vec<String> = vs.iter().map(CqlValue::to_cql_literal).collect();
                format!("{column} IN ({})", lits.join(", "))
            }
            PredTest::Cmp(op, v) => format!("{column} {} {}", op.symbol(), v.to_cql_literal()),
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

/// The leaf of every plan: a scan of the planned table.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanNode {
    /// Access path.
    pub kind: ScanKind,
    /// The access path's non-null literals as encoded keys, statement
    /// order: checked and encoded by the planner
    /// ([`crate::TableDef::encode_key`]), trusted by the operators.
    pub keys: KeyList,
    /// Predicates evaluated inside the scan (full scans only; pushdown).
    pub residual: Vec<Predicate>,
    /// Row cap applied inside the scan, counted after `residual`.
    pub pushed_limit: Option<usize>,
    /// Column pruning applied by the scan, on every access path. `None`
    /// means every column is materialized.
    pub projection: Option<ScanProjection>,
}

/// Encoded keys end to end in one buffer, in order, each after its
/// length as four little-endian bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyList {
    bytes: Vec<u8>,
    len: usize,
}

impl KeyList {
    /// An empty list with room for `keys` keys of up to eight bytes (an
    /// `int` key's length) before it grows.
    pub(crate) fn with_capacity(keys: usize) -> KeyList {
        KeyList {
            bytes: Vec::with_capacity(keys * (4 + 8)),
            len: 0,
        }
    }

    /// Appends the key `encode` writes, if it writes one (`Ok(true)`).
    pub(crate) fn push_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<bool>,
    ) -> Result<()> {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 4]);
        if !encode(&mut self.bytes)? {
            self.bytes.truncate(at);
            return Ok(());
        }
        let len = u32::try_from(self.bytes.len() - at - 4).expect("a key under 4 GiB");
        self.bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.len += 1;
        Ok(())
    }

    /// Appends a whole key.
    pub fn push(&mut self, key: &[u8]) {
        let len = u32::try_from(key.len()).expect("a key under 4 GiB");
        self.bytes.extend_from_slice(&len.to_le_bytes());
        self.bytes.extend_from_slice(key);
        self.len += 1;
    }

    /// Keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The keys, in order.
    pub fn iter(&self) -> KeyIter<'_> {
        KeyIter {
            rest: &self.bytes,
            left: self.len,
        }
    }
}

impl<'a> FromIterator<&'a [u8]> for KeyList {
    fn from_iter<I: IntoIterator<Item = &'a [u8]>>(keys: I) -> KeyList {
        let mut list = KeyList::default();
        keys.into_iter().for_each(|key| list.push(key));
        list
    }
}

/// The keys of a [`KeyList`], in order.
#[derive(Debug, Clone)]
pub struct KeyIter<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for KeyIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (len, rest) = self.rest.split_first_chunk::<4>()?;
        let (key, rest) = rest.split_at(u32::from_le_bytes(*len) as usize);
        self.rest = rest;
        self.left -= 1;
        Some(key)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for KeyIter<'_> {}

/// The columns a scan materializes: the select list plus every predicate
/// and sort-key column, and for an index scan the indexed column its
/// staleness re-check reads. SSTables skip decoding the column runs
/// outside `indices`; pruned cells surface as `Null` and are never read
/// above the scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanProjection {
    /// Base-layout indices to materialize, sorted ascending; shared with
    /// a `Project` above that selects exactly these.
    pub indices: Arc<[usize]>,
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
    },
    /// Narrows rows to the selected columns.
    Project {
        /// Input node.
        input: Box<PlanNode>,
        /// Input-layout indices, in output order.
        indices: Arc<[usize]>,
        /// Output column names (for display), shared with the plan's.
        names: Arc<[String]>,
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
    },
    /// Caps the row count.
    Limit {
        /// Input node.
        input: Box<PlanNode>,
        /// Maximum rows emitted.
        limit: usize,
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
        /// Output column names, aligned with `output`, shared with the
        /// plan's.
        names: Arc<[String]>,
    },
}

impl PlanNode {
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
    pub columns: Arc<[String]>,
}
