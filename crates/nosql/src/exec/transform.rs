//! Row-shape and row-set operators: Filter, Project, Sort, Limit. Filter,
//! Project and Limit work on a batch's selection vector or layout; Sort
//! builds the rows it holds.

use super::{drain, Batch, Buffered, Operator, RowRef};
use crate::error::Result;
use crate::plan::Predicate;

/// Drops rows failing an AND-joined predicate list.
pub struct Filter {
    input: Box<dyn Operator>,
    predicates: Vec<Predicate>,
}

impl Filter {
    pub(crate) fn new(input: Box<dyn Operator>, predicates: Vec<Predicate>) -> Filter {
        Filter { input, predicates }
    }
}

impl Operator for Filter {
    fn name(&self) -> &'static str {
        "Filter"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(mut batch) = self.input.next_batch()? {
            let sel = std::mem::take(&mut batch.sel);
            let keep = |at: &RowRef| {
                let mut tests = self.predicates.iter();
                tests.all(|p| p.matches(batch.cell(*at, p.index)))
            };
            batch.sel = sel.into_iter().filter(keep).collect();
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

/// Narrows each row to the selected column indices.
pub struct Project {
    input: Box<dyn Operator>,
    indices: Vec<usize>,
}

impl Project {
    pub(crate) fn new(input: Box<dyn Operator>, indices: Vec<usize>) -> Project {
        Project { input, indices }
    }
}

impl Operator for Project {
    fn name(&self) -> &'static str {
        "Project"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let layout = self.indices.iter().map(|&i| batch.column(i)).collect();
        batch.layout = Some(layout);
        Ok(Some(batch))
    }
}

/// Total sort on one column. Drains its input into rows on the first pull
/// (sorting is a pipeline breaker), so it holds the rows that reached it
/// and none of the blocks they came from, sorts them, then re-emits them
/// in batches. The sort is stable, so ties keep the input's key order.
pub struct Sort {
    input: Box<dyn Operator>,
    key: usize,
    desc: bool,
    sorted: Option<Buffered>,
}

impl Sort {
    pub(crate) fn new(input: Box<dyn Operator>, key: usize, desc: bool) -> Sort {
        Sort {
            input,
            key,
            desc,
            sorted: None,
        }
    }
}

impl Operator for Sort {
    fn name(&self) -> &'static str {
        "Sort"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.sorted.is_none() {
            let mut rows = drain(self.input.as_mut())?;
            let key = self.key;
            if self.desc {
                rows.sort_by(|a, b| b[key].cmp_sort(&a[key]));
            } else {
                rows.sort_by(|a, b| a[key].cmp_sort(&b[key]));
            }
            self.sorted = Some(Buffered::new(Batch::of_rows(rows)));
        }
        Ok(self.sorted.as_mut().and_then(Buffered::next_batch))
    }
}

/// Caps the number of rows emitted; stops pulling its input once the cap
/// is reached.
pub struct Limit {
    input: Box<dyn Operator>,
    remaining: usize,
}

impl Limit {
    pub(crate) fn new(input: Box<dyn Operator>, limit: usize) -> Limit {
        Limit {
            input,
            remaining: limit,
        }
    }
}

impl Operator for Limit {
    fn name(&self) -> &'static str {
        "Limit"
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        batch.sel.truncate(self.remaining);
        self.remaining -= batch.len();
        Ok(Some(batch))
    }
}
