//! Grouped and global aggregation.

use super::{Batch, Buffered, Operator};
use crate::cql::ast::AggFunc;
use crate::error::{NosqlError, Result};
use crate::plan::{AggOutput, AggSpec};
use crate::types::{CqlValue, ValueRef};
use std::cmp::Ordering;

/// Running state of one aggregate within one group.
#[derive(Debug, Default)]
struct AggState {
    /// Rows seen (`COUNT(*)`) or non-null arguments seen (everything
    /// else).
    count: i64,
    /// Exact integer sum of the arguments seen (`SUM`/`AVG`): an `i128`
    /// cannot overflow on fewer than 2^64 rows, so whether a total fits
    /// is decided once, at [`AggState::finish`], and not by the order the
    /// rows came in.
    sum: i128,
    /// Running minimum in [`CqlValue::cmp_sort`] order, nulls skipped.
    min: Option<CqlValue>,
    /// Running maximum, nulls skipped.
    max: Option<CqlValue>,
}

impl AggState {
    /// Adds one argument cell; SQL aggregate semantics: nulls do not
    /// participate.
    fn accumulate(&mut self, func: AggFunc, value: ValueRef<'_>) {
        match value {
            ValueRef::Null => {}
            ValueRef::Int(v) => self.add_int(func, v),
            value => {
                self.count += 1;
                self.keep(func, value);
            }
        }
    }

    /// Adds one non-null integer argument.
    fn add_int(&mut self, func: AggFunc, v: i64) {
        self.count += 1;
        self.sum += i128::from(v);
        self.keep(func, ValueRef::Int(v));
    }

    /// Keeps `value` as the minimum or maximum if it is one.
    fn keep(&mut self, func: AggFunc, value: ValueRef<'_>) {
        let (kept, want) = match func {
            AggFunc::Min => (&mut self.min, Ordering::Less),
            AggFunc::Max => (&mut self.max, Ordering::Greater),
            _ => return,
        };
        if kept
            .as_ref()
            .is_none_or(|kept| value.cmp_sort(kept.into()) == want)
        {
            *kept = Some(value.to_value());
        }
    }

    /// The aggregate's value; a `SUM` or `AVG` whose total leaves `i64` is
    /// a typed error, not a wrapped number.
    fn finish(&self, spec: &AggSpec) -> Result<CqlValue> {
        let total =
            |func| i64::try_from(self.sum).map_err(|_| NosqlError::AggregateOverflow { func });
        Ok(match spec.func {
            AggFunc::Count => CqlValue::Int(self.count),
            AggFunc::Sum | AggFunc::Avg if self.count == 0 => CqlValue::Null,
            AggFunc::Sum => CqlValue::Int(total("SUM")?),
            // Integer division, as in Cassandra's int avg.
            AggFunc::Avg => CqlValue::Int(total("AVG")? / self.count),
            AggFunc::Min => self.min.clone().unwrap_or(CqlValue::Null),
            AggFunc::Max => self.max.clone().unwrap_or(CqlValue::Null),
        })
    }
}

/// Hashes 8-byte words with one multiply-rotate step each, so a group key
/// hashes in a few steps where FNV takes one per byte; FNV, or std's
/// SipHash, added about a sixth to a `scan_mixed` GROUP BY.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// `bytes` word by word, the last one padded and tagged with its
    /// length.
    fn bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        self.word(
            tail.iter()
                .rev()
                .fold(tail.len() as u64, |w, &b| w << 8 | u64::from(b)),
        );
    }

    /// A group key's hash. Cells of different types may collide (`Int(0)`
    /// and null); the slot's key comparison tells them apart.
    fn key(key: &[ValueRef<'_>]) -> u64 {
        let mut h = KeyHasher::default();
        for cell in key {
            match *cell {
                ValueRef::Null => h.word(0),
                ValueRef::Int(v) => h.word(v as u64),
                ValueRef::Text(text) => h.bytes(text.as_bytes()),
                ValueRef::Boolean(b) => h.word(u64::from(b)),
                ValueRef::IntSet(set) => {
                    set.iter().for_each(|&v| h.word(v as u64));
                    h.word(set.len() as u64);
                }
            }
        }
        h.0
    }
}

/// The groups seen so far, each a slot: its key and one [`AggState`] per
/// aggregate. A row finds its slot by its key cells' hash; a key is built
/// only when its group is new.
struct Groups {
    keys: Vec<Vec<CqlValue>>,
    hashes: Vec<u64>,
    /// Slot-major: slot `s`'s states are `states[s * aggs..][..aggs]`.
    states: Vec<AggState>,
    aggs: usize,
    /// Open addressing over the hashes' high bits (the multiply leaves the
    /// low ones poorly mixed), probing linearly: slot + 1, 0 for empty.
    /// A power of two in length, at most half full.
    table: Vec<u32>,
}

impl Groups {
    fn new(aggs: usize) -> Groups {
        Groups {
            keys: Vec::new(),
            hashes: Vec::new(),
            states: Vec::new(),
            aggs,
            table: vec![0; 16],
        }
    }

    /// Where `hash` starts probing in a table of `len` entries.
    fn home(hash: u64, len: usize) -> usize {
        (hash >> 32) as usize & (len - 1)
    }

    /// The slot of the group `key` names, made on first sight.
    fn slot(&mut self, key: &[ValueRef<'_>]) -> u32 {
        let hash = KeyHasher::key(key);
        let mut at = Groups::home(hash, self.table.len());
        while let Some(slot) = self.table[at].checked_sub(1) {
            let known = &self.keys[slot as usize];
            if self.hashes[slot as usize] == hash
                && known.iter().zip(key).all(|(k, c)| ValueRef::from(k) == *c)
            {
                return slot;
            }
            at = (at + 1) & (self.table.len() - 1);
        }
        let slot = self.keys.len() as u32;
        self.table[at] = slot + 1;
        self.keys.push(key.iter().map(|c| c.to_value()).collect());
        self.hashes.push(hash);
        self.states
            .extend((0..self.aggs).map(|_| AggState::default()));
        if self.keys.len() * 2 > self.table.len() {
            self.table = vec![0; self.table.len() * 2];
            for (slot, &hash) in self.hashes.iter().enumerate() {
                let mut at = Groups::home(hash, self.table.len());
                while self.table[at] != 0 {
                    at = (at + 1) & (self.table.len() - 1);
                }
                self.table[at] = slot as u32 + 1;
            }
        }
        slot
    }

    /// Aggregate `agg`'s state in group `slot`.
    fn state(&mut self, slot: u32, agg: usize) -> &mut AggState {
        &mut self.states[slot as usize * self.aggs + agg]
    }
}

/// A dictionary code no row of the block uses.
const NO_SLOT: u32 = u32::MAX;

/// A batch's rows grouped by block, each block's in batch order: block
/// `b`'s rows are `rows[ends[b - 1]..ends[b]]` (from 0 for the first).
#[derive(Default)]
struct ByBlock {
    ends: Vec<usize>,
    rows: Vec<u32>,
}

impl ByBlock {
    /// Groups `batch`'s selection by a counting sort on the block index.
    fn group(&mut self, batch: &Batch) {
        self.ends.clear();
        self.ends.resize(batch.blocks.len(), 0);
        for at in &batch.sel {
            self.ends[at.block as usize] += 1;
        }
        // Each block's start, which the scatter then moves to its end.
        let mut start = 0;
        for end in &mut self.ends {
            (*end, start) = (start, start + *end);
        }
        self.rows.clear();
        self.rows.resize(batch.sel.len(), 0);
        for at in &batch.sel {
            let next = &mut self.ends[at.block as usize];
            self.rows[*next] = at.row;
            *next += 1;
        }
    }

    /// Each block index that has rows, with its rows.
    fn blocks(&self) -> impl Iterator<Item = (usize, &[u32])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        (starts.zip(&self.ends).enumerate())
            .filter(|(_, (start, &end))| *start < end)
            .map(|(b, (start, &end))| (b, &self.rows[start..end]))
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

    /// Folds every input row into its group. The rows of a batch are
    /// taken block by block (an aggregate does not depend on row order),
    /// and each block's runs are dispatched on once: a dictionary-coded
    /// grouping column maps each code its rows use to a slot first, so a
    /// row then costs an index, and an int-delta argument is read straight off
    /// its `i64`s. Other grouping keys (raw text, ints, several columns,
    /// row-backed blocks) find their slot by hash, and other arguments go
    /// cell by cell.
    fn run(&mut self) -> Result<Vec<Vec<CqlValue>>> {
        let aggs = self.aggs.len();
        let mut groups = Groups::new(aggs);
        if self.group_by.is_empty() {
            // A global aggregate emits a row even over nothing.
            groups.slot(&[]);
        }
        let mut by_block = ByBlock::default();
        // Each of a block's rows' slot, and per dictionary code its slot.
        let (mut slots, mut code_slots) = (Vec::new(), Vec::new());
        while let Some(batch) = self.input.next_batch()? {
            let mut key = Vec::with_capacity(self.group_by.len());
            let group_cols: Vec<usize> = self.group_by.iter().map(|&g| batch.column(g)).collect();
            let arg_cols: Vec<Option<usize>> = (self.aggs.iter())
                .map(|spec| spec.input.map(|c| batch.column(c)))
                .collect();
            by_block.group(&batch);
            for (b, rows) in by_block.blocks() {
                let block = &*batch.blocks[b];
                slots.clear();
                let dict = match group_cols[..] {
                    [col] => block.codes(col),
                    _ => None,
                };
                if group_cols.is_empty() {
                    // The one global group.
                    slots.resize(rows.len(), 0);
                } else if let Some((codes, dict)) = dict {
                    // The codes the rows use are marked first, so that only
                    // they get a slot: the dictionary also holds the values
                    // of rows the merge shadowed.
                    code_slots.clear();
                    code_slots.resize(dict.len(), NO_SLOT);
                    for &row in rows {
                        if let Some(code) = codes.get(row as usize) {
                            code_slots[code as usize] = 0;
                        }
                    }
                    for (code, slot) in (0..).zip(&mut code_slots) {
                        if *slot == 0 {
                            *slot = groups.slot(&[ValueRef::Text(dict.get(code))]);
                        }
                    }
                    let mut null_slot = None;
                    for &row in rows {
                        slots.push(match codes.get(row as usize) {
                            Some(code) => code_slots[code as usize],
                            None => {
                                *null_slot.get_or_insert_with(|| groups.slot(&[ValueRef::Null]))
                            }
                        });
                    }
                } else {
                    for &row in rows {
                        key.clear();
                        key.extend(group_cols.iter().map(|&c| block.cell(c, row as usize)));
                        slots.push(groups.slot(&key));
                    }
                }
                let rows = rows.iter().map(|&row| row as usize).zip(&slots);
                for (i, (spec, &arg)) in self.aggs.iter().zip(&arg_cols).enumerate() {
                    let func = spec.func;
                    match (arg, arg.and_then(|c| block.ints(c))) {
                        // COUNT(*): every row counts.
                        (None, _) => {
                            for (_, &s) in rows.clone() {
                                groups.state(s, i).count += 1;
                            }
                        }
                        (_, Some(ints)) => {
                            for (row, &s) in rows.clone() {
                                if let Some(v) = ints.get(row) {
                                    groups.state(s, i).add_int(func, v);
                                }
                            }
                        }
                        (Some(c), None) => {
                            for (row, &s) in rows.clone() {
                                groups.state(s, i).accumulate(func, block.cell(c, row));
                            }
                        }
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
            let row = self.output.iter().map(|out| match out {
                AggOutput::Group(col) => {
                    let pos = self
                        .group_by
                        .iter()
                        .position(|g| g == col)
                        .expect("projected grouping columns are in GROUP BY");
                    Ok(key[pos].clone())
                }
                AggOutput::Agg(i) => states[*i].finish(&self.aggs[*i]),
            });
            rows.push(row.collect::<Result<Vec<CqlValue>>>()?);
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

    /// Every order of `values`.
    fn permutations(values: &[i64]) -> Vec<Vec<i64>> {
        if values.is_empty() {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for i in 0..values.len() {
            let mut rest = values.to_vec();
            let first = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                all.push(tail);
            }
        }
        all
    }

    #[test]
    fn sums_do_not_depend_on_row_order() {
        // Running sums that leave i64 in some orders and not in others;
        // the answer is the exact total's, a value when it fits and the
        // typed error when it does not, in every order.
        let sets = [
            vec![i64::MAX, 1, -1],
            vec![i64::MIN, -1, 1, 0],
            vec![i64::MAX, 2, -1, -1],
            vec![i64::MAX, i64::MAX, i64::MIN, i64::MIN, 1],
            vec![i64::MIN, i64::MAX, -1, -1],
            vec![i64::MAX, 1, 1, -1],
        ];
        for values in sets {
            let total: i128 = values.iter().map(|&v| i128::from(v)).sum();
            for (func, name) in [(AggFunc::Sum, "SUM"), (AggFunc::Avg, "AVG")] {
                let want = match (i64::try_from(total), func) {
                    (Ok(total), AggFunc::Sum) => Ok(total),
                    (Ok(total), _) => Ok(total / values.len() as i64),
                    (Err(_), _) => Err(name),
                };
                for order in permutations(&values) {
                    let got = match sum_of(order.clone(), func) {
                        Ok(rows) => match rows.concat()[..] {
                            [CqlValue::Int(v)] => Ok(v),
                            _ => panic!("one int: {rows:?}"),
                        },
                        Err(NosqlError::AggregateOverflow { func }) => Err(func),
                        Err(e) => panic!("{e:?}"),
                    };
                    assert_eq!(got, want, "{name} over {order:?}");
                }
            }
        }
    }

    #[test]
    fn a_group_whose_rows_were_all_overwritten_is_gone() {
        // Station `b` is left only in the flushed block's dictionary: its
        // one row was overwritten in the memtable.
        let db = crate::Db::open(crate::OpenOptions::default()).unwrap();
        db.execute_cql("CREATE KEYSPACE ks").unwrap();
        db.execute_cql("CREATE TABLE ks.t (id int, s text, n int, PRIMARY KEY (id))")
            .unwrap();
        for (id, s) in [(1, "a"), (2, "b"), (3, "a")] {
            let cql = format!("INSERT INTO ks.t (id, s, n) VALUES ({id}, '{s}', {id})");
            db.execute_cql(&cql).unwrap();
        }
        db.flush_all().unwrap();
        db.execute_cql("INSERT INTO ks.t (id, s, n) VALUES (2, 'c', 5)")
            .unwrap();
        let got = db
            .execute_cql("SELECT s, COUNT(*), SUM(n) FROM ks.t GROUP BY s")
            .unwrap();
        let text = |s: &str| CqlValue::Text(s.to_string());
        let want = [(text("a"), 2, 4), (text("c"), 1, 5)]
            .map(|(s, count, sum)| vec![s, CqlValue::Int(count), CqlValue::Int(sum)]);
        assert_eq!(got.rows(), want);
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
