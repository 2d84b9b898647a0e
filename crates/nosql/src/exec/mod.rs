//! The batch operator pipeline that executes planned `SELECT`s (see
//! DESIGN.md §5h).
//!
//! # The batch contract
//!
//! An [`Operator`] is a pull-based iterator over [`RowBatch`]es of up to
//! [`BATCH_ROWS`] rows. `next_batch` returns `Ok(Some(batch))` with at
//! least one row, `Ok(None)` once exhausted (and on every call after
//! that), or an error. Rows are `Vec<CqlValue>` in the operator's output
//! layout: scans emit the base table's full layout; `Project` and
//! `Aggregate` change it.
//!
//! Operators own `Arc` clones of the table runtimes they read, resolved
//! by the engine at build time, and read at one fixed MVCC bound — a
//! pipeline sees a single consistent version of the table no matter how
//! long it runs or what commits meanwhile.
//!
//! Every operator is wrapped in [`traced::Traced`], which records the
//! per-pull span and the rows-in/rows-out attribution counters that
//! surface in `/debug/traces`.

pub mod aggregate;
pub mod scan;
pub mod traced;
pub mod transform;

use crate::error::Result;
use crate::plan::{PlanNode, ScanKind};
use crate::table::TableCore;
use crate::types::CqlValue;
use std::sync::Arc;

/// Target rows per batch. Large enough to amortize per-batch dispatch,
/// small enough to keep a pipeline's working set in cache.
pub const BATCH_ROWS: usize = 1024;

/// One batch of rows flowing between operators.
#[derive(Debug, Default)]
pub struct RowBatch {
    /// The rows, each in the producing operator's output layout.
    pub rows: Vec<Vec<CqlValue>>,
}

impl RowBatch {
    /// A batch with capacity for one full batch.
    pub fn with_capacity(n: usize) -> RowBatch {
        RowBatch {
            rows: Vec::with_capacity(n),
        }
    }
}

/// A pull-based batch operator.
pub trait Operator {
    /// The operator's display name (`PointScan`, `Filter`, …); used as
    /// the trace span name and in `EXPLAIN` output.
    fn name(&self) -> &'static str;

    /// Pulls the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<RowBatch>>;
}

/// The table runtimes a pipeline reads: the base table and, for index
/// scans, the hidden posting table.
#[derive(Debug, Clone)]
pub struct Cores {
    /// The scanned table.
    pub base: Arc<TableCore>,
    /// The posting table, when the plan's scan is an index scan.
    pub index: Option<Arc<TableCore>>,
}

/// Builds the operator pipeline for a plan subtree. `bound` is the MVCC
/// read bound every storage access uses.
pub fn build(plan: &PlanNode, cores: &Cores, bound: u64) -> Box<dyn Operator> {
    let op: Box<dyn Operator> = match plan {
        PlanNode::Scan(node) => match &node.kind {
            ScanKind::Point { key } => Box::new(scan::PointScan::new(
                Arc::clone(&cores.base),
                key.encode_key(),
                bound,
            )),
            ScanKind::MultiPoint { keys } => Box::new(scan::MultiPointScan::new(
                Arc::clone(&cores.base),
                keys,
                bound,
            )),
            ScanKind::Index {
                col_index, values, ..
            } => Box::new(scan::IndexScan::new(
                Arc::clone(&cores.base),
                Arc::clone(
                    cores
                        .index
                        .as_ref()
                        .expect("index scan plans carry a posting core"),
                ),
                *col_index,
                values.clone(),
                bound,
            )),
            ScanKind::Full => Box::new(scan::FullScan::new(
                &cores.base,
                node.residual.clone(),
                node.pushed_limit,
                node.projection.as_ref().map(|p| p.indices.as_slice()),
                bound,
            )),
        },
        PlanNode::Filter {
            input, predicates, ..
        } => Box::new(transform::Filter::new(
            build(input, cores, bound),
            predicates.clone(),
        )),
        PlanNode::Project { input, indices, .. } => Box::new(transform::Project::new(
            build(input, cores, bound),
            indices.clone(),
        )),
        PlanNode::Sort {
            input, key, desc, ..
        } => Box::new(transform::Sort::new(
            build(input, cores, bound),
            *key,
            *desc,
        )),
        PlanNode::Limit { input, limit, .. } => {
            Box::new(transform::Limit::new(build(input, cores, bound), *limit))
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
            output,
            ..
        } => Box::new(aggregate::Aggregate::new(
            build(input, cores, bound),
            group_by.clone(),
            aggs.clone(),
            output.clone(),
        )),
    };
    Box::new(traced::Traced::new(op))
}

/// Drains an operator into a row vector.
pub fn drain(op: &mut dyn Operator) -> Result<Vec<Vec<CqlValue>>> {
    let mut rows = Vec::new();
    while let Some(batch) = op.next_batch()? {
        rows.extend(batch.rows);
    }
    Ok(rows)
}
