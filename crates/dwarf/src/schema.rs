//! Cube schema: dimension names, measure name, aggregate function.

use std::fmt;

/// The aggregate function applied to measures.
///
/// DWARF materializes one aggregate per cell, so the function must be
/// commutative and associative (it is applied during both duplicate
/// pre-aggregation and suffix coalescing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggFn {
    /// Sum of measures (the paper's aggregate).
    #[default]
    Sum,
    /// Number of source tuples (the measure value is ignored).
    Count,
    /// Minimum measure.
    Min,
    /// Maximum measure.
    Max,
}

impl AggFn {
    /// The contribution of one source tuple's measure.
    #[inline]
    pub fn of_tuple(self, measure: i64) -> i64 {
        match self {
            AggFn::Sum | AggFn::Min | AggFn::Max => measure,
            AggFn::Count => 1,
        }
    }

    /// Combines two partial aggregates.
    #[inline]
    pub fn combine(self, a: i64, b: i64) -> i64 {
        match self {
            AggFn::Sum | AggFn::Count => a + b,
            AggFn::Min => a.min(b),
            AggFn::Max => a.max(b),
        }
    }

    /// Combines an iterator of partial aggregates (at least one element).
    pub fn combine_all(self, mut values: impl Iterator<Item = i64>) -> Option<i64> {
        let first = values.next()?;
        Some(values.fold(first, |acc, v| self.combine(acc, v)))
    }

    /// SQL-ish name, used by the dot renderer and reports.
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Sum => "SUM",
            AggFn::Count => "COUNT",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
        }
    }
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Schema of a cube: an ordered list of dimensions plus one measure.
///
/// The paper's input tuples take the form
/// `(dimension_1, ..., dimension_n, measure)`; the schema names those
/// positions. Dimension order matters in a DWARF (it is the level order),
/// and the convention — which the bike datasets follow — is highest
/// cardinality first, which minimizes structure size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeSchema {
    /// Dimension names, level 0 first.
    dimensions: Vec<String>,
    /// Measure name.
    measure: String,
    /// Aggregate function.
    agg: AggFn,
}

impl CubeSchema {
    /// Creates a schema with the default [`AggFn::Sum`] aggregate.
    ///
    /// Panics if `dimensions` is empty or contains duplicates — a schema is
    /// static configuration, so this is a programming error.
    pub fn new<I, S>(dimensions: I, measure: impl Into<String>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let dimensions: Vec<String> = dimensions.into_iter().map(Into::into).collect();
        assert!(
            !dimensions.is_empty(),
            "a cube needs at least one dimension"
        );
        for (i, d) in dimensions.iter().enumerate() {
            assert!(
                !dimensions[..i].contains(d),
                "duplicate dimension name {d:?}"
            );
        }
        Self {
            dimensions,
            measure: measure.into(),
            agg: AggFn::Sum,
        }
    }

    /// Sets the aggregate function.
    pub fn with_agg(mut self, agg: AggFn) -> Self {
        self.agg = agg;
        self
    }

    /// Number of dimensions (`d`).
    pub fn num_dims(&self) -> usize {
        self.dimensions.len()
    }

    /// Dimension names in level order.
    pub fn dimensions(&self) -> &[String] {
        &self.dimensions
    }

    /// Name of dimension `i`.
    pub fn dimension(&self, i: usize) -> &str {
        &self.dimensions[i]
    }

    /// Index of a dimension by name.
    pub fn dimension_index(&self, name: &str) -> Option<usize> {
        self.dimensions.iter().position(|d| d == name)
    }

    /// The GROUP BY mask of `dims` (names in any order): `mask[level]` says
    /// whether that level is grouped. The error is the first unknown name.
    pub fn group_mask<'d, S: AsRef<str>>(&self, dims: &'d [S]) -> Result<Vec<bool>, &'d str> {
        let mut mask = vec![false; self.num_dims()];
        for d in dims {
            let d = d.as_ref();
            mask[self.dimension_index(d).ok_or(d)?] = true;
        }
        Ok(mask)
    }

    /// Measure name.
    pub fn measure(&self) -> &str {
        &self.measure
    }

    /// Aggregate function.
    pub fn agg(&self) -> AggFn {
        self.agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_semantics() {
        assert_eq!(AggFn::Sum.combine(2, 3), 5);
        assert_eq!(AggFn::Count.combine(2, 3), 5);
        assert_eq!(AggFn::Min.combine(2, 3), 2);
        assert_eq!(AggFn::Max.combine(2, 3), 3);
        assert_eq!(AggFn::Sum.of_tuple(7), 7);
        assert_eq!(AggFn::Count.of_tuple(7), 1);
        assert_eq!(AggFn::Sum.combine_all([1, 2, 3].into_iter()), Some(6));
        assert_eq!(AggFn::Min.combine_all(std::iter::empty()), None);
    }

    #[test]
    fn schema_accessors() {
        let s = CubeSchema::new(["a", "b"], "m").with_agg(AggFn::Max);
        assert_eq!(s.num_dims(), 2);
        assert_eq!(s.dimension(1), "b");
        assert_eq!(s.dimension_index("b"), Some(1));
        assert_eq!(s.dimension_index("z"), None);
        assert_eq!(s.measure(), "m");
        assert_eq!(s.agg(), AggFn::Max);
        assert_eq!(s.group_mask(&["b"]), Ok(vec![false, true]));
        assert_eq!(s.group_mask::<&str>(&[]), Ok(vec![false, false]));
        assert_eq!(s.group_mask(&["b", "z", "y"]), Err("z"));
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dimensions_panic() {
        CubeSchema::new(Vec::<String>::new(), "m");
    }

    #[test]
    #[should_panic(expected = "duplicate dimension")]
    fn duplicate_dimensions_panic() {
        CubeSchema::new(["a", "a"], "m");
    }
}
