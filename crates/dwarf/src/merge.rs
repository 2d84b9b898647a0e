//! Cube updates: merging cubes and buffering deltas.
//!
//! The paper's conclusion names "cube updates through efficient query
//! primitives" as the next step. A DWARF's aggressive sharing makes in-place
//! mutation unattractive (one new tuple can invalidate aggregates along
//! every ALL path that covers it), so the standard maintenance strategy —
//! which we implement — is **batch merge**: accumulate incoming facts in a
//! [`DeltaBuffer`], then produce a fresh cube from the union of the existing
//! cube's facts and the buffered delta. Re-extraction is linear in the fact
//! count and construction is a single sorted pass, so the rebuild costs the
//! same as the original load.

use crate::cube::Dwarf;
use crate::schema::{AggFn, CubeSchema};
use crate::tuple::TupleSet;

impl Dwarf {
    /// Merges two cubes over the same schema into a new cube whose facts are
    /// the aggregate-union of both.
    ///
    /// Panics if the schemas differ (dimension names, order, measure or
    /// aggregate function) — merging unlike cubes is a programming error.
    pub fn merge(&self, other: &Dwarf) -> Dwarf {
        assert_eq!(
            self.schema, other.schema,
            "cannot merge cubes with different schemas"
        );
        let rows = self
            .extract_tuples()
            .into_iter()
            .chain(other.extract_tuples());
        Dwarf::from_aggregated_rows(self.schema.clone(), rows)
    }

    /// Applies a delta buffer, returning the updated cube.
    pub fn apply_delta(&self, delta: &DeltaBuffer) -> Dwarf {
        assert_eq!(
            &self.schema, &delta.schema,
            "delta buffer built for a different schema"
        );
        // Delta rows are raw facts: apply the original tuple transform
        // (Count -> 1) so they join the cube's rows as aggregates.
        let agg = self.schema.agg();
        let delta_rows = delta
            .rows
            .iter()
            .map(|(key, measure)| (key.clone(), agg.of_tuple(*measure)));
        let rows = self.extract_tuples().into_iter().chain(delta_rows);
        Dwarf::from_aggregated_rows(self.schema.clone(), rows)
    }

    /// Rebuilds a cube from already-aggregated fact rows (as produced by
    /// [`Dwarf::extract_tuples`] or read back from a store).
    ///
    /// Unlike feeding the rows through a fresh [`TupleSet`] with the
    /// original schema, this handles aggregate-label bookkeeping: rows of a
    /// `Count` cube hold counts that must be *summed*, not re-counted.
    pub fn from_aggregated_rows(
        schema: CubeSchema,
        rows: impl IntoIterator<Item = (Vec<String>, i64)>,
    ) -> Dwarf {
        let build_schema = match schema.agg() {
            AggFn::Count => schema.clone().with_agg(AggFn::Sum),
            _ => schema.clone(),
        };
        let mut ts = TupleSet::new(&build_schema);
        for (key, measure) in rows {
            ts.push(key.iter().map(String::as_str), measure);
        }
        let mut cube = Dwarf::build(build_schema, ts);
        cube.schema = schema;
        cube
    }
}

/// Accumulates already-aggregated fact rows from many cubes and builds the
/// union cube **once**.
///
/// [`Dwarf::merge`] is pairwise: merging `k` sealed micro-cubes by folding
/// costs `k-1` full rebuilds, each re-extracting everything merged so far.
/// The accumulator instead extracts each cube's rows as it arrives and sorts
/// and builds a single time in [`MergeAccumulator::finish`] — the shape the
/// streaming runtime needs, where sealed micro-cubes trickle in from worker
/// shards.
#[derive(Debug)]
pub struct MergeAccumulator {
    schema: CubeSchema,
    rows: Vec<(Vec<String>, i64)>,
    cubes_absorbed: usize,
}

impl MergeAccumulator {
    /// Creates an empty accumulator for `schema`.
    pub fn new(schema: CubeSchema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
            cubes_absorbed: 0,
        }
    }

    /// Absorbs one cube's facts.
    ///
    /// Panics if the cube's schema differs from the accumulator's — merging
    /// unlike cubes is a programming error, as in [`Dwarf::merge`].
    pub fn absorb(&mut self, cube: &Dwarf) {
        assert_eq!(
            &self.schema,
            cube.schema(),
            "cannot merge cubes with different schemas"
        );
        self.rows.extend(cube.extract_tuples());
        self.cubes_absorbed += 1;
    }

    /// Number of cubes absorbed so far.
    pub fn cubes_absorbed(&self) -> usize {
        self.cubes_absorbed
    }

    /// Number of fact rows buffered (duplicates not yet folded).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no facts have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Builds the union cube from everything absorbed.
    ///
    /// Rows are already aggregates, so Count cubes rebuild under Sum
    /// semantics (see [`Dwarf::from_aggregated_rows`]).
    pub fn finish(self) -> Dwarf {
        Dwarf::from_aggregated_rows(self.schema, self.rows)
    }
}

impl Dwarf {
    /// Merges any number of same-schema cubes with a single rebuild.
    ///
    /// Equivalent to folding [`Dwarf::merge`] but linear in total fact count
    /// instead of quadratic. Returns an empty cube for an empty iterator.
    pub fn merge_many<'a>(schema: CubeSchema, cubes: impl IntoIterator<Item = &'a Dwarf>) -> Dwarf {
        let mut acc = MergeAccumulator::new(schema);
        for cube in cubes {
            acc.absorb(cube);
        }
        acc.finish()
    }
}

/// Accumulates raw incoming facts until the owner decides to rebuild.
///
/// The smart-city pipeline appends stream records here as they arrive and
/// calls [`Dwarf::apply_delta`] on a cadence (the paper's datasets are
/// day/week/month windows of exactly this kind).
#[derive(Debug, Clone)]
pub struct DeltaBuffer {
    schema: CubeSchema,
    rows: Vec<(Vec<String>, i64)>,
}

impl DeltaBuffer {
    /// Creates an empty buffer for `schema`.
    pub fn new(schema: CubeSchema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// Appends one raw fact.
    pub fn push<I, S>(&mut self, dims: I, measure: i64)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let key: Vec<String> = dims.into_iter().map(|s| s.as_ref().to_string()).collect();
        assert_eq!(
            key.len(),
            self.schema.num_dims(),
            "wrong number of dimension values"
        );
        self.rows.push((key, measure));
    }

    /// Number of buffered facts.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Discards the buffered facts.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Selection;

    fn schema() -> CubeSchema {
        CubeSchema::new(["day", "station"], "hires")
    }

    fn cube_of(rows: &[(&str, &str, i64)]) -> Dwarf {
        let mut ts = TupleSet::new(&schema());
        for (d, s, m) in rows {
            ts.push([*d, *s], *m);
        }
        Dwarf::build(schema(), ts)
    }

    #[test]
    fn merge_unions_and_aggregates() {
        let a = cube_of(&[("mon", "a", 1), ("mon", "b", 2)]);
        let b = cube_of(&[("mon", "a", 10), ("tue", "c", 4)]);
        let m = a.merge(&b);
        m.validate();
        assert_eq!(m.tuple_count(), 3);
        let v = Selection::value;
        assert_eq!(m.point(&[v("mon"), v("a")]), Some(11));
        assert_eq!(m.point(&[v("mon"), v("b")]), Some(2));
        assert_eq!(m.point(&[v("tue"), v("c")]), Some(4));
        assert_eq!(m.point(&[Selection::All, Selection::All]), Some(17));
    }

    #[test]
    fn merge_with_empty_is_identity_on_facts() {
        let a = cube_of(&[("mon", "a", 1)]);
        let empty = cube_of(&[]);
        let m = a.merge(&empty);
        assert_eq!(m.extract_tuples(), a.extract_tuples());
    }

    #[test]
    fn merge_is_commutative_on_facts() {
        let a = cube_of(&[("mon", "a", 1), ("tue", "b", 2)]);
        let b = cube_of(&[("mon", "a", 5), ("wed", "c", 9)]);
        assert_eq!(a.merge(&b).extract_tuples(), b.merge(&a).extract_tuples());
    }

    #[test]
    #[should_panic(expected = "different schemas")]
    fn merge_rejects_schema_mismatch() {
        let a = cube_of(&[("mon", "a", 1)]);
        let other_schema = CubeSchema::new(["x", "y"], "m");
        let b = Dwarf::build(other_schema.clone(), TupleSet::new(&other_schema));
        let _ = a.merge(&b);
    }

    #[test]
    fn delta_buffer_flow() {
        let base = cube_of(&[("mon", "a", 1)]);
        let mut delta = DeltaBuffer::new(schema());
        assert!(delta.is_empty());
        delta.push(["mon", "a"], 2);
        delta.push(["tue", "b"], 3);
        assert_eq!(delta.len(), 2);
        let updated = base.apply_delta(&delta);
        updated.validate();
        let v = Selection::value;
        assert_eq!(updated.point(&[v("mon"), v("a")]), Some(3));
        assert_eq!(updated.point(&[v("tue"), v("b")]), Some(3));
        delta.clear();
        assert!(delta.is_empty());
    }

    #[test]
    fn count_cubes_merge_by_summing_counts() {
        let schema = CubeSchema::new(["s"], "m").with_agg(AggFn::Count);
        let mut ts = TupleSet::new(&schema);
        ts.push(["a"], 99);
        ts.push(["a"], 99);
        let c1 = Dwarf::build(schema.clone(), ts);
        let mut ts = TupleSet::new(&schema);
        ts.push(["a"], 99);
        let c2 = Dwarf::build(schema.clone(), ts);
        let m = c1.merge(&c2);
        assert_eq!(m.point(&[Selection::value("a")]), Some(3));
        assert_eq!(m.schema().agg(), AggFn::Count);
    }

    #[test]
    fn count_delta_counts_new_rows() {
        let schema = CubeSchema::new(["s"], "m").with_agg(AggFn::Count);
        let mut ts = TupleSet::new(&schema);
        ts.push(["a"], 1);
        let base = Dwarf::build(schema.clone(), ts);
        let mut delta = DeltaBuffer::new(schema);
        delta.push(["a"], 123);
        delta.push(["b"], 456);
        let updated = base.apply_delta(&delta);
        assert_eq!(updated.point(&[Selection::value("a")]), Some(2));
        assert_eq!(updated.point(&[Selection::value("b")]), Some(1));
    }
}
