//! Leaf operators: the four access paths.

use super::{Operator, RowBatch, BATCH_ROWS};
use crate::error::Result;
use crate::plan::Predicate;
use crate::table::{live_row, Cursor, TableCore};
use crate::types::CqlValue;
use std::collections::HashSet;
use std::sync::Arc;

/// One bloom/fence-checked probe of the primary key.
pub struct PointScan {
    core: Arc<TableCore>,
    key: Vec<u8>,
    bound: u64,
    done: bool,
}

impl PointScan {
    pub(crate) fn new(core: Arc<TableCore>, key: Vec<u8>, bound: u64) -> PointScan {
        PointScan {
            core,
            key,
            bound,
            done: false,
        }
    }
}

impl Operator for PointScan {
    fn name(&self) -> &'static str {
        "PointScan"
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(self.core.get(&self.key, self.bound)?.map(|row| RowBatch {
            rows: vec![row.values],
        }))
    }
}

/// One probe per distinct `IN` key; statement order preserved, duplicates
/// collapsed, missing keys skipped (the pinned multi-point semantics).
pub struct MultiPointScan {
    core: Arc<TableCore>,
    keys: Vec<Vec<u8>>,
    pos: usize,
    bound: u64,
}

impl MultiPointScan {
    pub(crate) fn new(core: Arc<TableCore>, keys: &[CqlValue], bound: u64) -> MultiPointScan {
        let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(keys.len());
        let mut encoded = Vec::with_capacity(keys.len());
        for key in keys {
            let k = key.encode_key();
            if seen.insert(k.clone()) {
                encoded.push(k);
            }
        }
        MultiPointScan {
            core,
            keys: encoded,
            pos: 0,
            bound,
        }
    }
}

impl Operator for MultiPointScan {
    fn name(&self) -> &'static str {
        "MultiPointScan"
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let mut batch = RowBatch::with_capacity(BATCH_ROWS.min(self.keys.len() - self.pos));
        while self.pos < self.keys.len() && batch.rows.len() < BATCH_ROWS {
            let key = &self.keys[self.pos];
            self.pos += 1;
            if let Some(row) = self.core.get(key, self.bound)? {
                batch.rows.push(row.values);
            }
        }
        Ok((!batch.rows.is_empty()).then_some(batch))
    }
}

/// Posting scan of a hidden index table, then one base-table probe per
/// posting id with a staleness re-check (postings may trail overwrites
/// racing the index update).
pub struct IndexScan {
    core: Arc<TableCore>,
    idx_core: Arc<TableCore>,
    col_index: usize,
    values: Vec<CqlValue>,
    /// Posting ids, gathered on the first pull; statement order of
    /// values, key order within a value, duplicates collapsed.
    ids: Option<Vec<i64>>,
    pos: usize,
    bound: u64,
}

impl IndexScan {
    pub(crate) fn new(
        core: Arc<TableCore>,
        idx_core: Arc<TableCore>,
        col_index: usize,
        values: Vec<CqlValue>,
        bound: u64,
    ) -> IndexScan {
        IndexScan {
            core,
            idx_core,
            col_index,
            values,
            ids: None,
            pos: 0,
            bound,
        }
    }

    fn gather_ids(&mut self) -> Result<()> {
        let mut ids = Vec::new();
        let mut seen: HashSet<i64> = HashSet::new();
        for value in &self.values {
            // The write path's posting-key layout: len-prefixed value key
            // ++ id; the value prefix covers every posting of the value.
            let prefix = crate::engine::DbCore::posting_prefix(value);
            let postings = self.idx_core.cursor(self.bound, Some(&prefix), None);
            for posting in postings.map(live_row) {
                if let Some(id) = posting?.values[1].as_int() {
                    if seen.insert(id) {
                        ids.push(id);
                    }
                }
            }
        }
        self.ids = Some(ids);
        Ok(())
    }
}

impl Operator for IndexScan {
    fn name(&self) -> &'static str {
        "IndexScan"
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.ids.is_none() {
            self.gather_ids()?;
        }
        let ids = self.ids.as_ref().expect("ids gathered above");
        let mut batch = RowBatch::with_capacity(BATCH_ROWS.min(ids.len().saturating_sub(self.pos)));
        while self.pos < ids.len() && batch.rows.len() < BATCH_ROWS {
            let id = ids[self.pos];
            self.pos += 1;
            if let Some(row) = self.core.get(&CqlValue::Int(id).encode_key(), self.bound)? {
                if self.values.contains(&row.values[self.col_index]) {
                    batch.rows.push(row.values);
                }
            }
        }
        Ok((!batch.rows.is_empty()).then_some(batch))
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
