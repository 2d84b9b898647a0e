//! Grouped and global aggregation.

use super::{Batch, Buffered, Operator};
use crate::cql::ast::AggFunc;
use crate::error::{NosqlError, Result};
use crate::plan::{AggOutput, AggSpec};
use crate::types::{CqlValue, ValueRef};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Running state of one aggregate within one group.
#[derive(Debug, Default)]
struct AggState {
    /// Rows seen (`COUNT(*)`) or non-null arguments seen (everything
    /// else).
    count: i64,
    /// Running integer sum (`SUM`/`AVG`).
    sum: i64,
    /// Running minimum in [`CqlValue::cmp_sort`] order, nulls skipped.
    min: Option<CqlValue>,
    /// Running maximum, nulls skipped.
    max: Option<CqlValue>,
}

impl AggState {
    /// Adds one row: `value` is its argument cell, `None` for `COUNT(*)`.
    fn accumulate(&mut self, spec: &AggSpec, value: Option<ValueRef<'_>>) -> Result<()> {
        let Some(value) = value else {
            // COUNT(*): every row counts.
            self.count += 1;
            return Ok(());
        };
        if value.is_null() {
            // SQL aggregate semantics: nulls do not participate.
            return Ok(());
        }
        self.count += 1;
        let better = |kept: &Option<CqlValue>, want: Ordering| {
            kept.as_ref()
                .is_none_or(|kept| value.cmp_sort(kept.into()) == want)
        };
        match spec.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                // Checked, not wrapping: a wrapped running total silently
                // returns an arbitrary number (and the old `wrapping_add`
                // hid a debug-build panic behind large SUMs).
                let add = match value {
                    ValueRef::Int(v) => v,
                    _ => 0,
                };
                let overflow = || NosqlError::AggregateOverflow {
                    func: match spec.func {
                        AggFunc::Sum => "SUM",
                        _ => "AVG",
                    },
                };
                self.sum = self.sum.checked_add(add).ok_or_else(overflow)?;
            }
            AggFunc::Min => {
                if better(&self.min, Ordering::Less) {
                    self.min = Some(value.to_value());
                }
            }
            AggFunc::Max => {
                if better(&self.max, Ordering::Greater) {
                    self.max = Some(value.to_value());
                }
            }
        }
        Ok(())
    }

    fn finish(&self, spec: &AggSpec) -> CqlValue {
        match spec.func {
            AggFunc::Count => CqlValue::Int(self.count),
            AggFunc::Sum if self.count == 0 => CqlValue::Null,
            AggFunc::Sum => CqlValue::Int(self.sum),
            // Integer division, as in Cassandra's int avg.
            AggFunc::Avg if self.count == 0 => CqlValue::Null,
            AggFunc::Avg => CqlValue::Int(self.sum / self.count),
            AggFunc::Min => self.min.clone().unwrap_or(CqlValue::Null),
            AggFunc::Max => self.max.clone().unwrap_or(CqlValue::Null),
        }
    }
}

/// Hashes 8-byte words with one multiply-rotate step each, so a group key
/// hashes in a few steps where FNV takes one per byte; FNV, or std's
/// SipHash, added about a sixth to a `scan_mixed` GROUP BY.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        self.write_u64(
            tail.iter()
                .rev()
                .fold(tail.len() as u64, |w, &b| w << 8 | u64::from(b)),
        );
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyHash = BuildHasherDefault<KeyHasher>;

/// The groups seen so far, each a slot: its key and one [`AggState`] per
/// aggregate. A row finds its slot by its key cells' hash; a key is built
/// only when its group is new.
struct Groups {
    keys: Vec<Vec<CqlValue>>,
    /// Slot-major: slot `s`'s states are `states[s * aggs..][..aggs]`.
    states: Vec<AggState>,
    aggs: usize,
    /// The newest slot with each key hash; older slots with the same hash
    /// chain through `older`.
    by_hash: HashMap<u64, u32, KeyHash>,
    older: Vec<Option<u32>>,
}

impl Groups {
    fn new(aggs: usize) -> Groups {
        Groups {
            keys: Vec::new(),
            states: Vec::new(),
            aggs,
            by_hash: HashMap::default(),
            older: Vec::new(),
        }
    }

    /// The slot of the group `key` names, made on first sight.
    fn slot(&mut self, key: &[ValueRef<'_>]) -> u32 {
        let hash = KeyHash::default().hash_one(key);
        let mut at = self.by_hash.get(&hash).copied();
        while let Some(slot) = at {
            let known = &self.keys[slot as usize];
            if known.iter().map(ValueRef::from).eq(key.iter().copied()) {
                return slot;
            }
            at = self.older[slot as usize];
        }
        let slot = self.keys.len() as u32;
        self.older.push(self.by_hash.insert(hash, slot));
        self.keys.push(key.iter().map(|c| c.to_value()).collect());
        self.states
            .extend((0..self.aggs).map(|_| AggState::default()));
        slot
    }

    fn states(&mut self, slot: u32) -> &mut [AggState] {
        &mut self.states[slot as usize * self.aggs..][..self.aggs]
    }
}

/// Drains its input on the first pull, accumulating one [`AggState`] per
/// aggregate per group, then emits one output row per group in group-key
/// order. With no `GROUP BY` there is exactly one output row — even over
/// empty input (`count` 0, other aggregates null).
pub struct Aggregate {
    input: Box<dyn Operator>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    output: Vec<AggOutput>,
    results: Option<Buffered>,
}

impl Aggregate {
    pub(crate) fn new(
        input: Box<dyn Operator>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        output: Vec<AggOutput>,
    ) -> Aggregate {
        Aggregate {
            input,
            group_by,
            aggs,
            output,
            results: None,
        }
    }

    fn run(&mut self) -> Result<Vec<Vec<CqlValue>>> {
        let mut groups = Groups::new(self.aggs.len());
        if self.group_by.is_empty() {
            // A global aggregate emits a row even over nothing.
            groups.slot(&[]);
        }
        // Each row's slot, per run of rows from one block.
        let mut slots = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            let mut key = Vec::with_capacity(self.group_by.len());
            let group_cols: Vec<usize> = self.group_by.iter().map(|&g| batch.column(g)).collect();
            let arg_cols: Vec<Option<usize>> = (self.aggs.iter())
                .map(|spec| spec.input.map(|c| batch.column(c)))
                .collect();
            for run in batch.sel.chunk_by(|a, b| a.block == b.block) {
                let block = batch.block(run[0]);
                slots.clear();
                if group_cols.is_empty() {
                    // The one global group.
                    slots.resize(run.len(), 0);
                } else {
                    for at in run {
                        key.clear();
                        key.extend(group_cols.iter().map(|&c| block.cell(c, at.row as usize)));
                        slots.push(groups.slot(&key));
                    }
                }
                for (i, (spec, arg)) in self.aggs.iter().zip(&arg_cols).enumerate() {
                    for (at, &slot) in run.iter().zip(&slots) {
                        let value = arg.map(|c| block.cell(c, at.row as usize));
                        groups.states(slot)[i].accumulate(spec, value)?;
                    }
                }
            }
        }
        // Groups leave in key order, each key compared column by column.
        let mut order: Vec<usize> = (0..groups.keys.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&groups.keys[a], &groups.keys[b]);
            (a.iter().zip(b).map(|(x, y)| x.cmp_sort(y)))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| a.len().cmp(&b.len()))
        });
        let mut rows = Vec::with_capacity(order.len());
        for slot in order {
            let key = &groups.keys[slot];
            let states = &groups.states[slot * self.aggs.len()..];
            let row: Vec<CqlValue> = self
                .output
                .iter()
                .map(|out| match out {
                    AggOutput::Group(col) => {
                        let pos = self
                            .group_by
                            .iter()
                            .position(|g| g == col)
                            .expect("projected grouping columns are in GROUP BY");
                        key[pos].clone()
                    }
                    AggOutput::Agg(i) => states[*i].finish(&self.aggs[*i]),
                })
                .collect();
            rows.push(row);
        }
        Ok(rows)
    }
}

impl Operator for Aggregate {
    fn name(&self) -> &'static str {
        "Aggregate"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.results.is_none() {
            let rows = self.run()?;
            self.results = Some(Buffered::new(Batch::of_rows(rows)));
        }
        Ok(self.results.as_mut().and_then(Buffered::next_batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NosqlError;

    /// Feeds a fixed row set through the operator interface once.
    struct Rows(Option<Vec<Vec<CqlValue>>>);

    impl Operator for Rows {
        fn name(&self) -> &'static str {
            "Rows"
        }

        fn next_batch(&mut self) -> Result<Option<Batch>> {
            Ok(self.0.take().map(Batch::of_rows))
        }
    }

    fn sum_of(values: Vec<i64>, func: AggFunc) -> Result<Vec<Vec<CqlValue>>> {
        let rows = values.into_iter().map(|v| vec![CqlValue::Int(v)]).collect();
        let mut agg = Aggregate::new(
            Box::new(Rows(Some(rows))),
            Vec::new(),
            vec![AggSpec {
                func,
                input: Some(0),
                column: Some("v".to_string()),
            }],
            vec![AggOutput::Agg(0)],
        );
        super::super::drain(&mut agg)
    }

    #[test]
    fn sum_overflow_is_a_typed_error_not_a_wrap() {
        let err = sum_of(vec![i64::MAX, 1], AggFunc::Sum).unwrap_err();
        assert!(
            matches!(err, NosqlError::AggregateOverflow { func: "SUM" }),
            "{err:?}"
        );
    }

    #[test]
    fn sum_underflow_is_a_typed_error() {
        let err = sum_of(vec![i64::MIN, -1], AggFunc::Sum).unwrap_err();
        assert!(
            matches!(err, NosqlError::AggregateOverflow { func: "SUM" }),
            "{err:?}"
        );
    }

    #[test]
    fn avg_overflow_is_a_typed_error() {
        // AVG's *running sum* overflows even though the mean would fit.
        let err = sum_of(vec![i64::MAX, i64::MAX], AggFunc::Avg).unwrap_err();
        assert!(
            matches!(err, NosqlError::AggregateOverflow { func: "AVG" }),
            "{err:?}"
        );
    }

    #[test]
    fn in_range_sums_still_work() {
        let rows = sum_of(vec![i64::MAX - 1, 1, -2, 2], AggFunc::Sum).unwrap();
        assert_eq!(rows, vec![vec![CqlValue::Int(i64::MAX)]]);
    }

    #[test]
    fn many_groups_leave_once_each_in_key_order() {
        // Enough groups to grow the slot table several times, keyed by an
        // int and a text column that is null for a tenth of the rows.
        let key = |i: i64| match i % 10 {
            0 => CqlValue::Null,
            _ => CqlValue::Text(format!("k{}", i % 7)),
        };
        let rows = (0..5000i64)
            .map(|i| vec![CqlValue::Int(i % 400), key(i)])
            .collect();
        let mut agg = Aggregate::new(
            Box::new(Rows(Some(rows))),
            vec![0, 1],
            vec![AggSpec {
                func: AggFunc::Count,
                input: None,
                column: None,
            }],
            vec![AggOutput::Group(0), AggOutput::Group(1), AggOutput::Agg(0)],
        );
        let got = super::super::drain(&mut agg).unwrap();
        let mut want: Vec<(i64, Option<String>, i64)> = Vec::new();
        for i in 0..5000i64 {
            let k = key(i).as_text().map(str::to_string);
            match want.iter_mut().find(|(g, t, _)| *g == i % 400 && *t == k) {
                Some(group) => group.2 += 1,
                None => want.push((i % 400, k, 1)),
            }
        }
        want.sort();
        let want: Vec<Vec<CqlValue>> = want
            .into_iter()
            .map(|(g, t, n)| {
                let t = t.map_or(CqlValue::Null, CqlValue::Text);
                vec![CqlValue::Int(g), t, CqlValue::Int(n)]
            })
            .collect();
        assert_eq!(got, want);
    }
}
