//! GROUP BY enumeration: materialized lattice → result table.
//!
//! A DWARF answers a `GROUP BY dims ⊆ D` without recomputation: descend
//! value cells at grouped levels and ALL cells at aggregated-out levels.
//! This module enumerates the full result table for any dimension subset —
//! the operation OLAP front-ends issue constantly. The walk itself is
//! [`crate::source::group_by_over`], shared with the store-backed path.

use crate::cube::Dwarf;
use crate::source::{self, ArenaSource};

impl Dwarf {
    /// Enumerates `GROUP BY` over the named dimensions, returning
    /// `(group key, aggregate)` rows sorted by group key.
    ///
    /// Dimension names may be given in any order; keys come back in cube
    /// level order. Unknown names return `None`. An empty list yields the
    /// grand total as a single row with an empty key.
    pub fn group_by<S: AsRef<str>>(&self, dims: &[S]) -> Option<Vec<(Vec<String>, i64)>> {
        let mask = self.schema().group_mask(dims).ok()?;
        Some(source::unwrap_infallible(source::group_by_over(
            &mut ArenaSource::new(self),
            &mask,
        )))
    }
}

#[cfg(test)]
mod tests {
    use crate::{CubeSchema, Dwarf, TupleSet};
    use std::collections::BTreeMap;

    fn cube() -> (Dwarf, Vec<(Vec<String>, i64)>) {
        let schema = CubeSchema::new(["day", "area", "station"], "hires");
        let rows = vec![
            (vec!["mon", "D2", "a"], 1),
            (vec!["mon", "D2", "b"], 2),
            (vec!["mon", "D7", "c"], 4),
            (vec!["tue", "D2", "a"], 8),
            (vec!["tue", "D7", "c"], 16),
            (vec!["wed", "D7", "d"], 32),
        ];
        let mut ts = TupleSet::new(&schema);
        for (k, m) in &rows {
            ts.push(k.iter().copied(), *m);
        }
        let owned = rows
            .into_iter()
            .map(|(k, m)| (k.into_iter().map(str::to_string).collect(), m))
            .collect();
        (Dwarf::build(schema, ts), owned)
    }

    fn oracle(rows: &[(Vec<String>, i64)], dims: &[usize]) -> Vec<(Vec<String>, i64)> {
        let mut acc: BTreeMap<Vec<String>, i64> = BTreeMap::new();
        for (key, m) in rows {
            let group: Vec<String> = dims.iter().map(|&d| key[d].clone()).collect();
            *acc.entry(group).or_insert(0) += m;
        }
        acc.into_iter().collect()
    }

    #[test]
    fn group_by_each_single_dimension() {
        let (cube, rows) = cube();
        assert_eq!(cube.group_by(&["day"]).unwrap(), oracle(&rows, &[0]));
        assert_eq!(cube.group_by(&["area"]).unwrap(), oracle(&rows, &[1]));
        assert_eq!(cube.group_by(&["station"]).unwrap(), oracle(&rows, &[2]));
    }

    #[test]
    fn group_by_pairs_and_full() {
        let (cube, rows) = cube();
        assert_eq!(
            cube.group_by(&["day", "area"]).unwrap(),
            oracle(&rows, &[0, 1])
        );
        assert_eq!(
            cube.group_by(&["day", "station"]).unwrap(),
            oracle(&rows, &[0, 2])
        );
        assert_eq!(
            cube.group_by(&["area", "station"]).unwrap(),
            oracle(&rows, &[1, 2])
        );
        assert_eq!(
            cube.group_by(&["day", "area", "station"]).unwrap(),
            oracle(&rows, &[0, 1, 2])
        );
    }

    #[test]
    fn dimension_order_in_args_is_irrelevant() {
        let (cube, _) = cube();
        assert_eq!(
            cube.group_by(&["area", "day"]),
            cube.group_by(&["day", "area"])
        );
    }

    #[test]
    fn empty_subset_is_grand_total() {
        let (cube, rows) = cube();
        let total: i64 = rows.iter().map(|(_, m)| m).sum();
        assert_eq!(cube.group_by::<&str>(&[]).unwrap(), vec![(vec![], total)]);
    }

    #[test]
    fn unknown_dimension_is_none() {
        let (cube, _) = cube();
        assert!(cube.group_by(&["bogus"]).is_none());
    }

    #[test]
    fn empty_cube_yields_no_groups() {
        let schema = CubeSchema::new(["a"], "m");
        let cube = Dwarf::build(schema.clone(), TupleSet::new(&schema));
        assert_eq!(cube.group_by(&["a"]).unwrap(), vec![]);
    }
}
