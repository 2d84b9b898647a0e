//! Cube updates: merging cubes.
//!
//! The paper's conclusion names "cube updates through efficient query
//! primitives" as the next step. A DWARF's aggressive sharing makes in-place
//! mutation unattractive (one new tuple can invalidate aggregates along
//! every ALL path that covers it), so the standard maintenance strategy —
//! which we implement — is **batch merge**: produce a fresh cube from the
//! union of the input cubes' facts. A delta of raw incoming facts is a
//! [`TupleSet`] built into a cube with [`Dwarf::build`] (which applies the
//! tuple transform, Count → 1) and then merged like any other cube.
//! Re-extraction is linear in the fact count and construction is a single
//! sorted pass, so the rebuild costs the same as the original load.

use crate::cube::Dwarf;
use crate::schema::{AggFn, CubeSchema};
use crate::tuple::TupleSet;
use std::borrow::Borrow;

impl Dwarf {
    /// Merges any number of same-schema cubes, owned or borrowed, into one
    /// cube whose facts are the aggregate-union of theirs, with a single
    /// rebuild: each cube's rows are extracted as the iterator yields it, so
    /// the inputs may trickle in (the streaming merger feeds its queue
    /// straight in). Returns an empty cube for an empty iterator.
    ///
    /// Panics if a cube's schema differs from `schema` (dimension names,
    /// order, measure or aggregate function) — merging unlike cubes is a
    /// programming error.
    pub fn merge_many<D: Borrow<Dwarf>>(
        schema: CubeSchema,
        cubes: impl IntoIterator<Item = D>,
    ) -> Dwarf {
        let rows = cubes.into_iter().flat_map(|cube| {
            let cube = cube.borrow();
            assert_eq!(
                &schema, &cube.schema,
                "cannot merge cubes with different schemas"
            );
            cube.extract_tuples()
        });
        Dwarf::from_aggregated_rows(schema.clone(), rows)
    }

    /// Merges two cubes: [`Dwarf::merge_many`] over `self` and `other`.
    pub fn merge(&self, other: &Dwarf) -> Dwarf {
        Dwarf::merge_many(self.schema.clone(), [self, other])
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
        let mut delta = TupleSet::new(&schema());
        assert!(delta.is_empty());
        delta.push(["mon", "a"], 2);
        delta.push(["tue", "b"], 3);
        assert_eq!(delta.len(), 2);
        // Applying takes the buffered facts and leaves an empty buffer.
        let applied = std::mem::replace(&mut delta, TupleSet::new(&schema()));
        let updated = base.merge(&Dwarf::build(schema(), applied));
        updated.validate();
        let v = Selection::value;
        assert_eq!(updated.point(&[v("mon"), v("a")]), Some(3));
        assert_eq!(updated.point(&[v("tue"), v("b")]), Some(3));
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
        let mut delta = TupleSet::new(&schema);
        delta.push(["a"], 123);
        delta.push(["b"], 456);
        let updated = base.merge(&Dwarf::build(schema, delta));
        assert_eq!(updated.point(&[Selection::value("a")]), Some(2));
        assert_eq!(updated.point(&[Selection::value("b")]), Some(1));
    }
}
