//! The batch operator pipeline that executes planned `SELECT`s (see
//! DESIGN.md §5h).
//!
//! # The batch contract
//!
//! An [`Operator`] is a pull-based iterator over [`Batch`]es of up to
//! [`BATCH_ROWS`] rows. `next_batch` returns `Ok(Some(batch))` with at
//! least one row, `Ok(None)` once exhausted (and on every call after
//! that), or an error. A batch is column-major: decoded blocks plus a
//! selection vector naming its rows, in order, and the operator's output
//! layout over the blocks' columns. Scans emit the base table's layout;
//! `Project` remaps it and `Aggregate` and `Sort` emit blocks of their
//! own. Operators read cells in place; rows are built only by the
//! operators that hold them past a batch (`Aggregate`'s groups, `Sort`'s
//! input) and when [`drain`] hands the result over.
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

use crate::colblock::ScanBlock;
use crate::error::Result;
use crate::index::Index;
use crate::plan::{PlanNode, ScanKind};
use crate::table::TableCore;
use crate::types::{CqlValue, ValueRef};
use std::rc::Rc;
use std::sync::Arc;

/// Target rows per batch. Large enough to amortize per-batch dispatch,
/// small enough to keep a pipeline's working set in cache.
pub const BATCH_ROWS: usize = 1024;

/// One row of a [`Batch`]: which of its blocks, and which row there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRef {
    pub block: u32,
    pub row: u32,
}

/// One batch flowing between operators, column-major: the rows `sel`
/// picks out of decoded blocks, in order, read through the producing
/// operator's layout over the blocks' columns.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    pub(crate) blocks: Vec<Rc<ScanBlock>>,
    /// Output column `i` is block column `layout[i]`; `None` is the
    /// blocks' own layout.
    pub(crate) layout: Option<Arc<[usize]>>,
    pub(crate) sel: Vec<RowRef>,
}

impl Batch {
    /// A batch of `rows`, held as one block.
    pub(crate) fn of_rows(rows: Vec<Vec<CqlValue>>) -> Batch {
        let n = rows.len() as u32;
        Batch {
            blocks: vec![Rc::new(ScanBlock::from_rows(rows))],
            layout: None,
            sel: (0..n).map(|row| RowRef { block: 0, row }).collect(),
        }
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// The block column behind output column `col`.
    pub(crate) fn column(&self, col: usize) -> usize {
        self.layout.as_ref().map_or(col, |layout| layout[col])
    }

    /// The block `at` lives in.
    pub(crate) fn block(&self, at: RowRef) -> &ScanBlock {
        &self.blocks[at.block as usize]
    }

    /// `at`'s cell in output column `col`.
    pub(crate) fn cell(&self, at: RowRef, col: usize) -> ValueRef<'_> {
        self.block(at).cell(self.column(col), at.row as usize)
    }

    /// Appends the batch's rows to `out`, built in the output layout. The
    /// rows of a batch that alone holds its one block of built rows (a
    /// probe's) move out; everything else is copied out of the blocks.
    fn drain_into(mut self, out: &mut Vec<Vec<CqlValue>>) {
        if let [block] = &mut self.blocks[..] {
            if let Some(block) = Rc::get_mut(block) {
                let rows = self.sel.iter().map(|at| at.row as usize);
                if block.take_rows(rows, self.layout.as_deref(), out) {
                    return;
                }
            }
        }
        let width = |at| match &self.layout {
            Some(layout) => layout.len(),
            None => self.block(at).width(),
        };
        let row = |&at| {
            (0..width(at))
                .map(|c| self.cell(at, c).to_value())
                .collect()
        };
        out.extend(self.sel.iter().map(row));
    }
}

/// A pipeline breaker's result, handed out [`BATCH_ROWS`] rows at a time.
pub(crate) struct Buffered {
    all: Batch,
    next: usize,
}

impl Buffered {
    pub fn new(all: Batch) -> Buffered {
        Buffered { all, next: 0 }
    }

    pub fn next_batch(&mut self) -> Option<Batch> {
        let rows = self.all.sel.get(self.next..)?;
        let rows = &rows[..rows.len().min(BATCH_ROWS)];
        if rows.is_empty() {
            return None;
        }
        self.next += rows.len();
        Some(Batch {
            blocks: self.all.blocks.clone(),
            layout: self.all.layout.clone(),
            sel: rows.to_vec(),
        })
    }
}

/// A pull-based batch operator.
pub trait Operator {
    /// The operator's display name (`PointScan`, `Filter`, …); used as
    /// the trace span name and in `EXPLAIN` output.
    fn name(&self) -> &'static str;

    /// Pulls the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
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
    match plan {
        PlanNode::Scan(node) => {
            let name = node.kind.operator();
            let projection = node.projection.map(|p| p.indices);
            match node.kind {
                ScanKind::Key(_) => traced(scan::MultiPointScan::new(
                    Arc::clone(core),
                    name,
                    node.keys,
                    bound,
                    projection,
                )),
                // `indexes` is all the execution side knows of the table's
                // indexes: a posting scan where one covers the predicate's
                // column, the same rows by a filtered scan where none does.
                ScanKind::Index(pred) => match indexes.iter().find(|i| i.column() == pred.index) {
                    Some(index) => traced(scan::IndexScan::new(
                        Arc::clone(core),
                        index.clone(),
                        pred,
                        node.keys,
                        bound,
                        projection,
                    )),
                    None => traced(scan::FullScan::new(
                        core,
                        vec![pred],
                        None,
                        projection.as_deref(),
                        bound,
                    )),
                },
                ScanKind::Full => traced(scan::FullScan::new(
                    core,
                    node.residual,
                    node.pushed_limit,
                    projection.as_deref(),
                    bound,
                )),
            }
        }
        PlanNode::Filter {
            input, predicates, ..
        } => traced(transform::Filter::new(child(input), predicates)),
        PlanNode::Project { input, indices, .. } => {
            traced(transform::Project::new(child(input), indices))
        }
        PlanNode::Sort {
            input, key, desc, ..
        } => traced(transform::Sort::new(child(input), key, desc)),
        PlanNode::Limit { input, limit, .. } => traced(transform::Limit::new(child(input), limit)),
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
            output,
            ..
        } => traced(aggregate::Aggregate::new(
            child(input),
            group_by,
            aggs,
            output,
        )),
    }
}

/// `op` in its trace wrapper, boxed once.
fn traced(op: impl Operator + 'static) -> Box<dyn Operator> {
    Box::new(traced::Traced::new(op))
}

/// Drains an operator into rows, built here and nowhere earlier.
pub fn drain(op: &mut dyn Operator) -> Result<Vec<Vec<CqlValue>>> {
    let mut rows = Vec::new();
    while let Some(batch) = op.next_batch()? {
        batch.drain_into(&mut rows);
    }
    Ok(rows)
}
