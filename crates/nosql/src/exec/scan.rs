//! Leaf operators: key probes, index scans and full scans.

use super::{Batch, Operator, RowRef, BATCH_ROWS};
use crate::error::Result;
use crate::index::Index;
use crate::plan::Predicate;
use crate::table::{Cursor, TableCore};
use crate::types::{Cell, CqlValue};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

/// Probes of the primary key: one for `=` (EXPLAIN and traces call that a
/// `PointScan`), one per distinct `IN` key in statement order, missing
/// keys skipped (the pinned multi-point semantics). The keys arrive
/// encoded by the planner's bind step.
pub struct MultiPointScan {
    core: Arc<TableCore>,
    name: &'static str,
    keys: Vec<Vec<u8>>,
    pos: usize,
    bound: u64,
}

impl MultiPointScan {
    pub(crate) fn new(
        core: Arc<TableCore>,
        name: &'static str,
        mut keys: Vec<Vec<u8>>,
        bound: u64,
    ) -> MultiPointScan {
        if keys.len() > 1 {
            let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(keys.len());
            keys.retain(|k| seen.insert(k.clone()));
        }
        MultiPointScan {
            core,
            name,
            keys,
            pos: 0,
            bound,
        }
    }
}

impl Operator for MultiPointScan {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        probe(&self.core, &self.keys, &mut self.pos, self.bound, |_| true)
    }
}

/// The next batch of rows stored under `keys[*pos..]` that `keep` accepts,
/// as one block; missing keys are skipped.
fn probe(
    core: &TableCore,
    keys: &[Vec<u8>],
    pos: &mut usize,
    bound: u64,
    keep: impl Fn(&[CqlValue]) -> bool,
) -> Result<Option<Batch>> {
    let mut rows = Vec::with_capacity(BATCH_ROWS.min(keys.len() - *pos));
    while *pos < keys.len() && rows.len() < BATCH_ROWS {
        let row = core.get(&keys[*pos], bound)?;
        *pos += 1;
        rows.extend(row.map(|r| r.values).filter(|v| keep(v)));
    }
    Ok((!rows.is_empty()).then(|| Batch::of_rows(rows)))
}

/// Posting scan of a secondary index, then one base-table probe per
/// posted key with a staleness re-check (postings may trail overwrites
/// racing the index update).
pub struct IndexScan {
    core: Arc<TableCore>,
    index: Index,
    /// The `=` or `IN` test on the indexed column.
    pred: Predicate,
    /// The predicate's literals as the planner's bind step encoded them.
    value_keys: Vec<Vec<u8>>,
    /// Base-table keys, gathered on the first pull.
    keys: Option<Vec<Vec<u8>>>,
    pos: usize,
    bound: u64,
}

impl IndexScan {
    pub(crate) fn new(
        core: Arc<TableCore>,
        index: Index,
        pred: Predicate,
        value_keys: Vec<Vec<u8>>,
        bound: u64,
    ) -> IndexScan {
        IndexScan {
            core,
            index,
            pred,
            value_keys,
            keys: None,
            pos: 0,
            bound,
        }
    }
}

impl Operator for IndexScan {
    fn name(&self) -> &'static str {
        "IndexScan"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let keys = match &mut self.keys {
            Some(keys) => keys,
            None => self
                .keys
                .insert(self.index.base_keys(&self.value_keys, self.bound)?),
        };
        let pred = &self.pred;
        probe(&self.core, keys, &mut self.pos, self.bound, |row| {
            pred.matches(row.get(pred.index).map_or(Cell::Null, Cell::from))
        })
    }
}

/// Key-ordered scan of the whole table, with pushed-down residual
/// predicates and an optional pushed `LIMIT` (counted after filtering).
/// Batches are runs pulled straight off the table's merging cursor, the
/// residuals tested on the decoded columns, so the scan holds the blocks
/// of one batch — at most [`BATCH_ROWS`] rows' worth — and a met `LIMIT`
/// stops reading.
pub struct FullScan {
    /// Opened over the plan's projection: SSTables decode only those
    /// column runs, leaving the rest null. The planner guarantees every
    /// column read above the scan is in the set.
    cursor: Cursor<'static>,
    residual: Vec<Predicate>,
    remaining: Option<usize>,
    /// The cursor's current run.
    run: Vec<u32>,
}

impl FullScan {
    pub(crate) fn new(
        core: &TableCore,
        residual: Vec<Predicate>,
        pushed_limit: Option<usize>,
        projection: Option<&[usize]>,
        bound: u64,
    ) -> FullScan {
        FullScan {
            cursor: core.cursor(bound, None, projection),
            residual,
            remaining: pushed_limit,
            run: Vec::new(),
        }
    }
}

impl Operator for FullScan {
    fn name(&self) -> &'static str {
        "FullScan"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let mut batch = Batch::default();
        // Rows read since the batch's first block: a batch ends once they
        // reach `BATCH_ROWS`, so it holds a few blocks however few of
        // their rows the residual keeps.
        let mut read = 0;
        while self.remaining != Some(0) {
            if read == BATCH_ROWS {
                if !batch.is_empty() {
                    break;
                }
                read = 0;
            }
            let Some(block) = self.cursor.next_run(&mut self.run, BATCH_ROWS - read)? else {
                break;
            };
            read += self.run.len();
            let residual = &self.residual;
            let kept = self.run.iter().filter(|&&row| {
                let row = row as usize;
                residual.iter().all(|p| p.matches(block.cell(p.index, row)))
            });
            // Consecutive runs of one block share its entry.
            let blocks = &batch.blocks;
            let known = blocks.last().is_some_and(|last| Rc::ptr_eq(last, &block));
            let at = (blocks.len() - usize::from(known)) as u32;
            let before = batch.len();
            for &row in kept {
                batch.sel.push(RowRef { block: at, row });
                if let Some(remaining) = &mut self.remaining {
                    *remaining -= 1;
                    if *remaining == 0 {
                        break;
                    }
                }
            }
            if !known && batch.len() > before {
                batch.blocks.push(block);
            }
        }
        Ok((!batch.is_empty()).then_some(batch))
    }
}
