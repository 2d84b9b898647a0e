//! Leaf operators: key probes, index scans and full scans.

use super::{Operator, RowBatch, BATCH_ROWS};
use crate::error::Result;
use crate::index::Index;
use crate::plan::Predicate;
use crate::table::{live_row, Cursor, TableCore};
use crate::types::CqlValue;
use std::collections::HashSet;
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

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        probe(&self.core, &self.keys, &mut self.pos, self.bound, |_| true)
    }
}

/// The next batch of rows stored under `keys[*pos..]` that `keep` accepts;
/// missing keys are skipped.
fn probe(
    core: &TableCore,
    keys: &[Vec<u8>],
    pos: &mut usize,
    bound: u64,
    keep: impl Fn(&[CqlValue]) -> bool,
) -> Result<Option<RowBatch>> {
    let mut batch = RowBatch::with_capacity(BATCH_ROWS.min(keys.len() - *pos));
    while *pos < keys.len() && batch.rows.len() < BATCH_ROWS {
        let row = core.get(&keys[*pos], bound)?;
        *pos += 1;
        batch.rows.extend(row.map(|r| r.values).filter(|v| keep(v)));
    }
    Ok((!batch.rows.is_empty()).then_some(batch))
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

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let keys = match &mut self.keys {
            Some(keys) => keys,
            None => self
                .keys
                .insert(self.index.base_keys(&self.value_keys, self.bound)?),
        };
        let pred = &self.pred;
        probe(&self.core, keys, &mut self.pos, self.bound, |row| {
            pred.matches(row)
        })
    }
}

/// Key-ordered scan of the whole table, with pushed-down residual
/// predicates and an optional pushed `LIMIT` (counted after filtering).
/// Batches are pulled straight off the table's merging cursor, so the scan
/// holds one decoded block per SSTable and a met `LIMIT` stops reading.
pub struct FullScan {
    /// Opened over the plan's projection: SSTables decode only those
    /// column runs, leaving the rest `Null`. The planner guarantees every
    /// column read above the scan is in the set.
    cursor: Cursor,
    residual: Vec<Predicate>,
    remaining: Option<usize>,
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
        }
    }
}

impl Operator for FullScan {
    fn name(&self) -> &'static str {
        "FullScan"
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        let mut batch = RowBatch::with_capacity(BATCH_ROWS);
        for row in self.cursor.by_ref().map(live_row) {
            let row = row?;
            if !self.residual.iter().all(|p| p.matches(&row.values)) {
                continue;
            }
            batch.rows.push(row.values);
            if let Some(remaining) = &mut self.remaining {
                *remaining -= 1;
                if *remaining == 0 {
                    break;
                }
            }
            if batch.rows.len() >= BATCH_ROWS {
                break;
            }
        }
        Ok((!batch.rows.is_empty()).then_some(batch))
    }
}
