//! Point, range and slice queries over a built cube.
//!
//! DWARF answers any of the 2^d group-bys by following value cells for
//! specified dimensions and ALL cells for aggregated ones — no computation
//! happens at query time for point lookups. Range queries descend only the
//! cells whose keys fall in range, combining partial aggregates with the
//! cube's aggregate function.
//!
//! The algorithms themselves live in [`crate::source`] and are generic over
//! any [`crate::source::NodeSource`]; this module is the thin in-memory
//! front door ([`crate::source::ArenaSource`] is the zero-cost source).

use crate::cube::Dwarf;
use crate::source::{self, ArenaSource};

/// Per-dimension coordinate of a point query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Aggregate over the whole dimension (follow the ALL cell).
    All,
    /// A specific dimension value.
    Value(String),
}

impl Selection {
    /// Convenience constructor for [`Selection::Value`].
    pub fn value(v: impl Into<String>) -> Selection {
        Selection::Value(v.into())
    }
}

/// Per-dimension constraint of a range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeSel {
    /// No constraint (aggregate everything).
    All,
    /// Exactly one value.
    Value(String),
    /// A closed lexicographic interval `[lo, hi]` over dimension values.
    Between(String, String),
}

impl RangeSel {
    /// Convenience constructor for [`RangeSel::Value`].
    pub fn value(v: impl Into<String>) -> RangeSel {
        RangeSel::Value(v.into())
    }

    /// Convenience constructor for [`RangeSel::Between`].
    pub fn between(lo: impl Into<String>, hi: impl Into<String>) -> RangeSel {
        RangeSel::Between(lo.into(), hi.into())
    }
}

impl Dwarf {
    /// Point / group-by query: one [`Selection`] per dimension.
    ///
    /// Returns `None` when a named value does not exist in the cube or no
    /// fact matches (including on the empty cube).
    ///
    /// Panics if `sel.len()` differs from the number of dimensions.
    pub fn point(&self, sel: &[Selection]) -> Option<i64> {
        if !sc_obs::enabled() {
            return self.point_inner(sel);
        }
        let _trace = sc_obs::trace::stage("dwarf.query.point");
        let started = std::time::Instant::now();
        let out = self.point_inner(sel);
        crate::obs::dwarf()
            .point_ns
            .record_duration(started.elapsed());
        out
    }

    fn point_inner(&self, sel: &[Selection]) -> Option<i64> {
        source::unwrap_infallible(source::point_over(&mut ArenaSource::new(self), sel))
    }

    /// Range aggregate: one [`RangeSel`] per dimension. Returns `None` when
    /// no fact matches.
    ///
    /// Panics if `sel.len()` differs from the number of dimensions.
    pub fn range(&self, sel: &[RangeSel]) -> Option<i64> {
        if !sc_obs::enabled() {
            return self.range_inner(sel);
        }
        let _trace = sc_obs::trace::stage("dwarf.query.range");
        let started = std::time::Instant::now();
        let out = self.range_inner(sel);
        crate::obs::dwarf()
            .range_ns
            .record_duration(started.elapsed());
        out
    }

    fn range_inner(&self, sel: &[RangeSel]) -> Option<i64> {
        let agg = self.schema().agg();
        source::unwrap_infallible(source::range_over(&mut ArenaSource::new(self), sel, agg))
    }

    /// Slice: the base fact rows (string keys + aggregated measures) that
    /// fall inside `sel`, in sorted key order.
    pub fn slice(&self, sel: &[RangeSel]) -> Vec<(Vec<String>, i64)> {
        source::unwrap_infallible(source::slice_over(&mut ArenaSource::new(self), sel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CubeSchema, TupleSet};

    fn cube() -> Dwarf {
        let schema = CubeSchema::new(["day", "station"], "hires");
        let mut ts = TupleSet::new(&schema);
        ts.push(["mon", "a"], 1);
        ts.push(["mon", "b"], 2);
        ts.push(["tue", "a"], 4);
        ts.push(["tue", "c"], 8);
        ts.push(["wed", "b"], 16);
        Dwarf::build(schema, ts)
    }

    #[test]
    fn range_all_matches_point_all() {
        let c = cube();
        assert_eq!(
            c.range(&[RangeSel::All, RangeSel::All]),
            c.point(&[Selection::All, Selection::All])
        );
        assert_eq!(c.range(&[RangeSel::All, RangeSel::All]), Some(31));
    }

    #[test]
    fn between_over_first_dimension() {
        let c = cube();
        assert_eq!(
            c.range(&[RangeSel::between("mon", "tue"), RangeSel::All]),
            Some(15)
        );
        assert_eq!(
            c.range(&[RangeSel::between("tue", "wed"), RangeSel::All]),
            Some(28)
        );
    }

    #[test]
    fn between_with_absent_bounds() {
        let c = cube();
        // "a".."s" covers only "mon" among {mon,tue,wed}.
        assert_eq!(
            c.range(&[RangeSel::between("a", "s"), RangeSel::All]),
            Some(3)
        );
        // Bounds beyond every value.
        assert_eq!(c.range(&[RangeSel::between("x", "z"), RangeSel::All]), None);
        // Inverted bounds.
        assert_eq!(c.range(&[RangeSel::between("z", "a"), RangeSel::All]), None);
    }

    #[test]
    fn range_on_second_dimension_uses_all_pointer() {
        let c = cube();
        assert_eq!(c.range(&[RangeSel::All, RangeSel::value("a")]), Some(5));
        assert_eq!(
            c.range(&[RangeSel::All, RangeSel::between("b", "c")]),
            Some(26)
        );
    }

    #[test]
    fn mixed_range() {
        let c = cube();
        assert_eq!(
            c.range(&[RangeSel::value("tue"), RangeSel::between("a", "b")]),
            Some(4)
        );
        assert_eq!(
            c.range(&[RangeSel::value("tue"), RangeSel::value("b")]),
            None
        );
    }

    #[test]
    fn unknown_value_is_none() {
        let c = cube();
        assert_eq!(c.range(&[RangeSel::value("fri"), RangeSel::All]), None);
        assert_eq!(c.point(&[Selection::value("fri"), Selection::All]), None);
    }

    #[test]
    fn slice_returns_matching_rows_sorted() {
        let c = cube();
        let rows = c.slice(&[RangeSel::between("mon", "tue"), RangeSel::All]);
        assert_eq!(
            rows,
            vec![
                (vec!["mon".to_string(), "a".into()], 1),
                (vec!["mon".to_string(), "b".into()], 2),
                (vec!["tue".to_string(), "a".into()], 4),
                (vec!["tue".to_string(), "c".into()], 8),
            ]
        );
        let rows = c.slice(&[RangeSel::All, RangeSel::value("b")]);
        assert_eq!(
            rows,
            vec![
                (vec!["mon".to_string(), "b".into()], 2),
                (vec!["wed".to_string(), "b".into()], 16),
            ]
        );
    }

    #[test]
    fn slice_empty_region() {
        let c = cube();
        assert!(c.slice(&[RangeSel::value("xxx"), RangeSel::All]).is_empty());
    }

    #[test]
    fn min_agg_range() {
        let schema = CubeSchema::new(["d", "s"], "m").with_agg(crate::AggFn::Min);
        let mut ts = TupleSet::new(&schema);
        ts.push(["mon", "a"], 5);
        ts.push(["mon", "b"], 3);
        ts.push(["tue", "a"], 9);
        let c = Dwarf::build(schema, ts);
        assert_eq!(c.range(&[RangeSel::All, RangeSel::All]), Some(3));
        assert_eq!(c.range(&[RangeSel::value("tue"), RangeSel::All]), Some(9));
        assert_eq!(c.range(&[RangeSel::All, RangeSel::value("a")]), Some(5));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        cube().point(&[Selection::All]);
    }
}
