//! The Hierarchical-DWARF extension: dimension hierarchies with ROLLUP and
//! DRILL DOWN.
//!
//! Plain DWARF has no notion of dimension hierarchies; the paper's related
//! work (§6, citing Sismanis et al.'s "Hierarchical dwarfs for the rollup
//! cube") notes that XML-sourced cubes need them and sketches how the model
//! extends. We implement the flattening realization: each *logical*
//! dimension declares an ordered list of hierarchy levels
//! (`year > month > day`), and every level becomes a *physical* DWARF
//! dimension, coarsest first. Because DWARF materializes every group-by,
//! rolling up to any level is a point query with ALL in the finer levels —
//! no recomputation, exactly the property \[11\] is after.

use crate::cube::Dwarf;
use crate::query::Selection;
use crate::schema::{AggFn, CubeSchema};
use crate::source::{unwrap_infallible, walk, ArenaSource, Step};
use crate::tuple::TupleSet;

/// A logical dimension with ordered hierarchy levels, coarsest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    /// Logical dimension name (e.g. `time`).
    pub name: String,
    /// Level names, coarsest first (e.g. `["year", "month", "day"]`).
    pub levels: Vec<String>,
}

impl Hierarchy {
    /// Creates a hierarchy. Panics on an empty level list.
    pub fn new<I, S>(name: impl Into<String>, levels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let levels: Vec<String> = levels.into_iter().map(Into::into).collect();
        assert!(!levels.is_empty(), "hierarchy needs at least one level");
        Self {
            name: name.into(),
            levels,
        }
    }

    /// A flat (single-level) dimension.
    pub fn flat(name: impl Into<String>) -> Self {
        let name = name.into();
        Self {
            levels: vec![name.clone()],
            name,
        }
    }
}

/// A coordinate in a rollup query: a logical dimension fixed down to some
/// hierarchy depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelCoord {
    /// Logical dimension name.
    pub dimension: String,
    /// Values for the leading levels, coarsest first. Fewer values than
    /// levels = rolled up at that depth.
    pub values: Vec<String>,
}

/// A cube over hierarchical dimensions.
///
/// Internally this is a plain [`Dwarf`] whose physical dimensions are the
/// concatenated hierarchy levels; this type owns the logical↔physical
/// mapping and exposes rollup/drilldown in logical terms.
#[derive(Debug, Clone)]
pub struct HierarchicalCube {
    hierarchies: Vec<Hierarchy>,
    cube: Dwarf,
}

/// Incremental builder for a [`HierarchicalCube`].
#[derive(Debug)]
pub struct HierarchicalBuilder {
    hierarchies: Vec<Hierarchy>,
    schema: CubeSchema,
    tuples: TupleSet,
}

impl HierarchicalBuilder {
    /// Starts a builder over logical dimensions.
    pub fn new<I>(hierarchies: I, measure: impl Into<String>, agg: AggFn) -> Self
    where
        I: IntoIterator<Item = Hierarchy>,
    {
        let hierarchies: Vec<Hierarchy> = hierarchies.into_iter().collect();
        assert!(!hierarchies.is_empty(), "at least one dimension required");
        let physical: Vec<String> = hierarchies
            .iter()
            .flat_map(|h| h.levels.iter().map(move |l| format!("{}.{}", h.name, l)))
            .collect();
        let schema = CubeSchema::new(physical, measure).with_agg(agg);
        let tuples = TupleSet::new(&schema);
        Self {
            hierarchies,
            schema,
            tuples,
        }
    }

    /// Appends a fact: one fully-specified value list per logical dimension.
    ///
    /// Panics if any dimension's value list does not cover every level.
    pub fn push(&mut self, coords: &[Vec<&str>], measure: i64) {
        assert_eq!(
            coords.len(),
            self.hierarchies.len(),
            "one coordinate list per logical dimension"
        );
        let mut flat: Vec<&str> = Vec::with_capacity(self.schema.num_dims());
        for (h, values) in self.hierarchies.iter().zip(coords) {
            assert_eq!(
                values.len(),
                h.levels.len(),
                "dimension {:?} needs {} level values",
                h.name,
                h.levels.len()
            );
            flat.extend(values.iter().copied());
        }
        self.tuples.push(flat, measure);
    }

    /// Builds the cube.
    pub fn build(self) -> HierarchicalCube {
        HierarchicalCube {
            hierarchies: self.hierarchies,
            cube: Dwarf::build(self.schema, self.tuples),
        }
    }
}

impl HierarchicalCube {
    /// The underlying flat DWARF.
    pub fn dwarf(&self) -> &Dwarf {
        &self.cube
    }

    /// The logical dimensions.
    pub fn hierarchies(&self) -> &[Hierarchy] {
        &self.hierarchies
    }

    fn hierarchy(&self, name: &str) -> Option<(usize, &Hierarchy)> {
        let mut offset = 0;
        for h in &self.hierarchies {
            if h.name == name {
                return Some((offset, h));
            }
            offset += h.levels.len();
        }
        None
    }

    /// ROLLUP: aggregate with each logical dimension fixed only down to the
    /// depth given by its coordinate (missing dimensions roll all the way
    /// up).
    ///
    /// Returns `None` when a named value does not exist / nothing matches.
    pub fn rollup(&self, coords: &[LevelCoord]) -> Option<i64> {
        let mut sel: Vec<Selection> = vec![Selection::All; self.cube.num_dims()];
        for c in coords {
            let (offset, h) = self.hierarchy(&c.dimension)?;
            assert!(
                c.values.len() <= h.levels.len(),
                "dimension {:?} has only {} levels",
                c.dimension,
                h.levels.len()
            );
            for (i, v) in c.values.iter().enumerate() {
                sel[offset + i] = Selection::value(v.clone());
            }
        }
        self.cube.point(&sel)
    }

    /// DRILL DOWN: given a rollup coordinate, enumerate the children one
    /// level finer together with their aggregates.
    ///
    /// Returns `(child value, aggregate)` pairs, sorted by value.
    pub fn drilldown(&self, coords: &[LevelCoord], dimension: &str) -> Vec<(String, i64)> {
        let Some((offset, h)) = self.hierarchy(dimension) else {
            return Vec::new();
        };
        let fixed_depth = coords
            .iter()
            .find(|c| c.dimension == dimension)
            .map(|c| c.values.len())
            .unwrap_or(0);
        if fixed_depth >= h.levels.len() {
            return Vec::new(); // Already at the finest level.
        }
        // One walk: the coordinates' values fixed, the next level of
        // `dimension` keyed, everything else aggregated out.
        let mut steps = vec![Step::All; self.cube.num_dims()];
        for c in coords {
            let Some((off, _)) = self.hierarchy(&c.dimension) else {
                return Vec::new();
            };
            for (i, v) in c.values.iter().enumerate() {
                steps[off + i] = Step::value(v);
            }
        }
        steps[offset + fixed_depth] = Step::EVERY;
        let mut out = Vec::new();
        unwrap_infallible(walk(
            &mut ArenaSource::new(&self.cube),
            &steps,
            &mut |keys, total| out.push((keys[0].clone(), total)),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bike_cube() -> HierarchicalCube {
        let mut b = HierarchicalBuilder::new(
            [
                Hierarchy::new("time", ["year", "month", "day"]),
                Hierarchy::new("geo", ["city", "station"]),
            ],
            "hires",
            AggFn::Sum,
        );
        b.push(&[vec!["2015", "11", "02"], vec!["Dublin", "Fenian St"]], 4);
        b.push(&[vec!["2015", "11", "02"], vec!["Dublin", "Smithfield"]], 6);
        b.push(&[vec!["2015", "11", "03"], vec!["Dublin", "Fenian St"]], 1);
        b.push(&[vec!["2015", "12", "01"], vec!["Cork", "Patrick St"]], 9);
        b.push(&[vec!["2016", "01", "05"], vec!["Dublin", "Fenian St"]], 2);
        b.build()
    }

    fn coord(dim: &str, values: &[&str]) -> LevelCoord {
        LevelCoord {
            dimension: dim.into(),
            values: values.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn physical_schema_flattens_levels() {
        let c = bike_cube();
        assert_eq!(c.dwarf().num_dims(), 5);
        assert_eq!(c.dwarf().schema().dimension(0), "time.year");
        assert_eq!(c.dwarf().schema().dimension(4), "geo.station");
    }

    #[test]
    fn rollup_at_every_depth() {
        let c = bike_cube();
        // Grand total.
        assert_eq!(c.rollup(&[]), Some(22));
        // By year.
        assert_eq!(c.rollup(&[coord("time", &["2015"])]), Some(20));
        assert_eq!(c.rollup(&[coord("time", &["2016"])]), Some(2));
        // By year+month.
        assert_eq!(c.rollup(&[coord("time", &["2015", "11"])]), Some(11));
        // Cross-dimension.
        assert_eq!(
            c.rollup(&[coord("time", &["2015"]), coord("geo", &["Dublin"])]),
            Some(11)
        );
        // Full depth both sides.
        assert_eq!(
            c.rollup(&[
                coord("time", &["2015", "11", "02"]),
                coord("geo", &["Dublin", "Fenian St"])
            ]),
            Some(4)
        );
    }

    #[test]
    fn rollup_missing_value_is_none() {
        let c = bike_cube();
        assert_eq!(c.rollup(&[coord("time", &["2020"])]), None);
        assert_eq!(c.rollup(&[coord("nope", &["x"])]), None);
    }

    #[test]
    fn drilldown_enumerates_children() {
        let c = bike_cube();
        assert_eq!(
            c.drilldown(&[], "time"),
            vec![("2015".to_string(), 20), ("2016".to_string(), 2)]
        );
        assert_eq!(
            c.drilldown(&[coord("time", &["2015"])], "time"),
            vec![("11".to_string(), 11), ("12".to_string(), 9)]
        );
        // Drill into geo while time is constrained.
        assert_eq!(
            c.drilldown(&[coord("time", &["2015", "11"])], "geo"),
            vec![("Dublin".to_string(), 11)]
        );
    }

    #[test]
    fn drilldown_with_another_hierarchy_fixed_below() {
        let c = bike_cube();
        // geo is fixed on levels below the drilled time levels.
        assert_eq!(
            c.drilldown(&[coord("geo", &["Dublin"])], "time"),
            vec![("2015".to_string(), 11), ("2016".to_string(), 2)]
        );
        // A month with no Cork facts drops out.
        assert_eq!(
            c.drilldown(&[coord("time", &["2015"]), coord("geo", &["Cork"])], "time"),
            vec![("12".to_string(), 9)]
        );
    }

    #[test]
    fn drilldown_below_finest_level_is_empty() {
        let c = bike_cube();
        assert!(c
            .drilldown(&[coord("geo", &["Dublin", "Fenian St"])], "geo")
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "needs 3 level values")]
    fn push_requires_full_depth() {
        let mut b =
            HierarchicalBuilder::new([Hierarchy::new("time", ["y", "m", "d"])], "m", AggFn::Sum);
        b.push(&[vec!["2015", "11"]], 1);
    }

    #[test]
    fn flat_hierarchy_behaves_like_plain_dimension() {
        let mut b = HierarchicalBuilder::new([Hierarchy::flat("station")], "hires", AggFn::Sum);
        b.push(&[vec!["a"]], 1);
        b.push(&[vec!["b"]], 2);
        let c = b.build();
        assert_eq!(c.rollup(&[]), Some(3));
        assert_eq!(c.rollup(&[coord("station", &["b"])]), Some(2));
    }
}
