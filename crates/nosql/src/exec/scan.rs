//! Leaf operators: key probes, index scans and full scans.

use super::{Batch, Operator, RowRef, BATCH_ROWS};
use crate::error::Result;
use crate::index::Index;
use crate::plan::{KeyList, Predicate};
use crate::row::Row;
use crate::table::{Cursor, TableCore};
use crate::types::{CqlValue, ValueRef};
use std::rc::Rc;
use std::sync::Arc;

/// Probes of the primary key: one for `=` (EXPLAIN and traces call that a
/// `PointScan`), one per distinct `IN` key in statement order, missing
/// keys skipped (the pinned multi-point semantics). The keys arrive
/// encoded by the planner's bind step, and go to the table in batches
/// that read only the plan's projection.
pub struct MultiPointScan {
    core: Arc<TableCore>,
    name: &'static str,
    keys: KeyList,
    pos: usize,
    bound: u64,
    projection: Option<Arc<[usize]>>,
}

impl MultiPointScan {
    pub(crate) fn new(
        core: Arc<TableCore>,
        name: &'static str,
        keys: KeyList,
        bound: u64,
        projection: Option<Arc<[usize]>>,
    ) -> MultiPointScan {
        MultiPointScan {
            core,
            name,
            keys: distinct(keys),
            pos: 0,
            bound,
            projection,
        }
    }
}

impl Operator for MultiPointScan {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let proj = self.projection.as_deref();
        probe(
            &self.core,
            &self.keys,
            &mut self.pos,
            self.bound,
            proj,
            |_| true,
        )
    }
}

/// `keys` without repeats, each at its first place.
fn distinct(keys: KeyList) -> KeyList {
    if keys.iter().is_sorted_by(|a, b| a < b) {
        return keys;
    }
    let all: Vec<&[u8]> = keys.iter().collect();
    // Sorted by key, stably: a repeat sorts right after its first place.
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by_key(|&i| all[i]);
    order.dedup_by_key(|i| all[*i]);
    order.sort_unstable();
    order.into_iter().map(|i| all[i]).collect()
}

/// The next batch of rows stored under `keys[*pos..]` (distinct) that
/// `keep` accepts, as one block, in `keys` order; missing keys are
/// skipped. Each chunk of keys goes to the table as one batch in key
/// order ([`TableCore::get`]), so keys that share a block share its read;
/// stored rows hold the columns in `proj` and nulls elsewhere.
fn probe(
    core: &TableCore,
    keys: &KeyList,
    pos: &mut usize,
    bound: u64,
    proj: Option<&[usize]>,
    keep: impl Fn(&[CqlValue]) -> bool,
) -> Result<Option<Batch>> {
    let mut rows = Vec::new();
    while *pos < keys.len() && rows.len() < BATCH_ROWS {
        let n = (BATCH_ROWS - rows.len()).min(keys.len() - *pos);
        let chunk = keys.iter().skip(*pos).take(n);
        *pos += n;
        let mut push = |row: Row| {
            if keep(&row.values) {
                // The first chunk is as long as the batch can grow.
                if rows.is_empty() {
                    rows.reserve_exact(n);
                }
                rows.push(row.values);
            }
        };
        if chunk.clone().is_sorted() {
            core.get(chunk, bound, proj, &mut |_, row| push(row))?;
            continue;
        }
        // Out of key order: `order[j]` is where the `j`th key in key order
        // sits in the chunk, and the rows wait there.
        let chunk: Vec<&[u8]> = chunk.collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| chunk[i]);
        let sorted = order.iter().map(|&i| chunk[i]);
        let mut found = vec![None; n];
        core.get(sorted, bound, proj, &mut |j, row| {
            found[order[j]] = Some(row)
        })?;
        found.into_iter().flatten().for_each(push);
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
    value_keys: KeyList,
    /// Base-table keys, gathered on the first pull.
    keys: Option<KeyList>,
    pos: usize,
    bound: u64,
    /// The plan's projection, the indexed column included.
    projection: Option<Arc<[usize]>>,
}

impl IndexScan {
    pub(crate) fn new(
        core: Arc<TableCore>,
        index: Index,
        pred: Predicate,
        value_keys: KeyList,
        bound: u64,
        projection: Option<Arc<[usize]>>,
    ) -> IndexScan {
        IndexScan {
            core,
            index,
            pred,
            value_keys,
            keys: None,
            pos: 0,
            bound,
            projection,
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
            None => self.keys.insert(distinct(
                self.index.base_keys(&self.value_keys, self.bound)?,
            )),
        };
        let pred = &self.pred;
        let proj = self.projection.as_deref();
        probe(&self.core, keys, &mut self.pos, self.bound, proj, |row| {
            pred.matches(row.get(pred.index).map_or(ValueRef::Null, ValueRef::from))
        })
    }
}

/// Key-ordered scan of the whole table, with pushed-down residual
/// predicates and an optional pushed `LIMIT` (counted after filtering).
/// Batches are runs pulled straight off the table's merging cursor, the
/// residuals tested on the decoded columns, so the scan holds the blocks
/// of one batch — at most [`BATCH_ROWS`] rows' worth — and a met `LIMIT`
/// stops reading. A block is one entry of its batch however many other
/// layers' runs come between its own.
pub struct FullScan {
    /// Opened over the plan's projection: SSTables decode only those
    /// column runs, leaving the rest null. The planner guarantees every
    /// column read above the scan is in the set.
    cursor: Cursor<'static>,
    residual: Vec<Predicate>,
    remaining: Option<usize>,
    /// The cursor's current run.
    run: Vec<u32>,
    /// Per cursor layer, the batch entry of the block it last gave rows
    /// to (a stale index once a later batch began).
    entries: Vec<u32>,
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
            entries: Vec::new(),
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
            let Some((layer, block)) = self.cursor.next_run(&mut self.run, BATCH_ROWS - read)?
            else {
                break;
            };
            read += self.run.len();
            let residual = &self.residual;
            let kept = self.run.iter().filter(|&&row| {
                let row = row as usize;
                residual.iter().all(|p| p.matches(block.cell(p.index, row)))
            });
            // A layer's latest block is the only one of its blocks that can
            // come again.
            if self.entries.len() <= layer {
                self.entries.resize(layer + 1, 0);
            }
            let entry = self.entries[layer];
            let known = (batch.blocks.get(entry as usize)).is_some_and(|b| Rc::ptr_eq(b, &block));
            let at = match known {
                true => entry,
                false => batch.blocks.len() as u32,
            };
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
                self.entries[layer] = at;
            }
        }
        Ok((!batch.is_empty()).then_some(batch))
    }
}
