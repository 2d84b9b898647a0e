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
//! Operators own `Arc` clones of the table runtimes they read, taken from
//! the engine's table handle at build time, and read at one fixed MVCC bound — a
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
use crate::index::Index;
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

/// Builds the operator pipeline for a plan subtree over the table the plan
/// was made for: `core` is its runtime, `indexes` its secondary indexes.
/// `bound` is the MVCC read bound every storage access uses.
pub(crate) fn build(
    plan: PlanNode,
    core: &Arc<TableCore>,
    indexes: &[Index],
    bound: u64,
) -> Box<dyn Operator> {
    let child = |node: Box<PlanNode>| build(*node, core, indexes, bound);
    let op: Box<dyn Operator> = match plan {
        PlanNode::Scan(node) => {
            let name = node.kind.operator();
            match node.kind {
                ScanKind::Key(_) => Box::new(scan::MultiPointScan::new(
                    Arc::clone(core),
                    name,
                    node.keys,
                    bound,
                )),
                // `indexes` is all the execution side knows of the table's
                // indexes: a posting scan where one covers the predicate's
                // column, the same rows by a filtered scan where none does.
                ScanKind::Index(pred) => match indexes.iter().find(|i| i.column() == pred.index) {
                    Some(index) => Box::new(scan::IndexScan::new(
                        Arc::clone(core),
                        index.clone(),
                        pred,
                        node.keys,
                        bound,
                    )),
                    None => Box::new(scan::FullScan::new(core, vec![pred], None, None, bound)),
                },
                ScanKind::Full => Box::new(scan::FullScan::new(
                    core,
                    node.residual,
                    node.pushed_limit,
                    node.projection.as_ref().map(|p| p.indices.as_slice()),
                    bound,
                )),
            }
        }
        PlanNode::Filter {
            input, predicates, ..
        } => Box::new(transform::Filter::new(child(input), predicates)),
        PlanNode::Project { input, indices, .. } => {
            Box::new(transform::Project::new(child(input), indices))
        }
        PlanNode::Sort {
            input, key, desc, ..
        } => Box::new(transform::Sort::new(child(input), key, desc)),
        PlanNode::Limit { input, limit, .. } => {
            Box::new(transform::Limit::new(child(input), limit))
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
            output,
            ..
        } => Box::new(aggregate::Aggregate::new(
            child(input),
            group_by,
            aggs,
            output,
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
