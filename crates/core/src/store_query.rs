//! Store-backed querying: answering cube queries directly from NoSQL rows.
//!
//! The paper stores cubes "for future retrieval and querying"; this module
//! implements the designed access path without rebuilding the whole DWARF
//! in memory. A [`StoreBackedCube`] is the store cursor itself
//! ([`StoreNodeSource`], over either NoSQL layout), given here the *same*
//! walk the in-memory [`sc_dwarf::Dwarf`] uses (`sc_dwarf::source`), so the
//! store path answers point, range, slice and group-by queries with
//! identical semantics and reads only the nodes that walk visits.

use crate::error::{CoreError, Result};
use crate::models::protocol::NodeRows;
use crate::models::NosqlDwarfModel;
use crate::node_source::StoreNodeSource;
use sc_dwarf::source::{group_by_over, point_over, range_over, slice_over};
use sc_dwarf::{RangeSel, Selection};

/// A stored cube opened for querying: [`StoreBackedCube::open`] over a
/// [`NosqlDwarfModel`] or a [`NosqlMinModel`](crate::NosqlMinModel).
pub type StoreBackedCube<'a, M = NosqlDwarfModel> = StoreNodeSource<'a, M>;

impl<'a, M: NodeRows> StoreNodeSource<'a, M> {
    /// Starts a fluent selection over the stored cube. Dimensions left
    /// unmentioned default to ALL, so a point query only names what it
    /// constrains:
    ///
    /// ```ignore
    /// let total = cube.select().dim("station", "Fenian St").run()?;
    /// let by_city = cube.select().dim("city", "Dublin").all("station").run()?;
    /// ```
    pub fn select(&mut self) -> CubeSelect<'_, 'a, M> {
        let sel = vec![Selection::All; self.schema().num_dims()];
        CubeSelect {
            cube: self,
            sel,
            err: None,
        }
    }

    /// Point / group-by query straight off the store (same semantics as
    /// [`sc_dwarf::Dwarf::point`]).
    pub fn point(&mut self, sel: &[Selection]) -> Result<Option<i64>> {
        point_over(self, sel).map_err(CoreError::from)
    }

    /// Range aggregate straight off the store (same semantics as
    /// [`sc_dwarf::Dwarf::range`]).
    pub fn range(&mut self, sel: &[RangeSel]) -> Result<Option<i64>> {
        let agg = self.schema().agg();
        range_over(self, sel, agg).map_err(CoreError::from)
    }

    /// Slice straight off the store (same semantics as
    /// [`sc_dwarf::Dwarf::slice`]): the matching base fact rows in sorted
    /// key order.
    pub fn slice(&mut self, sel: &[RangeSel]) -> Result<Vec<(Vec<String>, i64)>> {
        slice_over(self, sel).map_err(CoreError::from)
    }

    /// GROUP BY straight off the store (same semantics as
    /// [`sc_dwarf::Dwarf::group_by`], except an unknown dimension name is
    /// reported as [`CoreError::UnknownDimension`]).
    pub fn group_by<S: AsRef<str>>(&mut self, dims: &[S]) -> Result<Vec<(Vec<String>, i64)>> {
        let mask = self
            .schema()
            .group_mask(dims)
            .map_err(|name| CoreError::UnknownDimension(name.to_string()))?;
        group_by_over(self, &mask).map_err(CoreError::from)
    }
}

/// A fluent selection being built against a [`StoreBackedCube`].
///
/// Every dimension starts at [`Selection::All`]; [`CubeSelect::dim`] pins
/// one to a value and [`CubeSelect::all`] re-opens it. Naming a dimension
/// the schema doesn't have is remembered and reported by
/// [`CubeSelect::run`], so call chains stay unconditional.
#[derive(Debug)]
pub struct CubeSelect<'c, 'a, M = NosqlDwarfModel> {
    cube: &'c mut StoreNodeSource<'a, M>,
    sel: Vec<Selection>,
    err: Option<CoreError>,
}

impl<M: NodeRows> CubeSelect<'_, '_, M> {
    fn slot(&mut self, name: &str) -> Option<usize> {
        match self.cube.schema().dimension_index(name) {
            Some(i) => Some(i),
            None => {
                if self.err.is_none() {
                    self.err = Some(CoreError::UnknownDimension(name.to_string()));
                }
                None
            }
        }
    }

    /// Constrains dimension `name` to exactly `value`.
    pub fn dim(mut self, name: &str, value: impl Into<String>) -> Self {
        if let Some(i) = self.slot(name) {
            self.sel[i] = Selection::Value(value.into());
        }
        self
    }

    /// Resets dimension `name` to ALL (the default), aggregating over it.
    pub fn all(mut self, name: &str) -> Self {
        if let Some(i) = self.slot(name) {
            self.sel[i] = Selection::All;
        }
        self
    }

    /// Executes the traversal; `Ok(None)` means no tuple matched.
    pub fn run(self) -> Result<Option<i64>> {
        if let Some(err) = self.err {
            return Err(err);
        }
        let sel = self.sel;
        self.cube.point(&sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappedDwarf;
    use crate::models::{NosqlMinModel, SchemaModel};
    use sc_dwarf::{CubeSchema, Dwarf, TupleSet};

    fn cube() -> Dwarf {
        let schema = CubeSchema::new(["country", "city", "station"], "bikes");
        let mut ts = TupleSet::new(&schema);
        ts.push(["Ireland", "Dublin", "Fenian St"], 3);
        ts.push(["Ireland", "Dublin", "Smithfield"], 5);
        ts.push(["Ireland", "Cork", "Patrick St"], 2);
        ts.push(["France", "Paris", "Bastille"], 7);
        Dwarf::build(schema, ts)
    }

    fn stored(model: &mut NosqlDwarfModel) -> i64 {
        let c = cube();
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        report.schema_id
    }

    #[test]
    fn store_backed_point_queries_match_in_memory() {
        let c = cube();
        let mut model = NosqlDwarfModel::in_memory();
        let schema_id = stored(&mut model);
        let mut sbc = StoreBackedCube::open(&mut model, schema_id).unwrap();
        assert_eq!(sbc.schema().num_dims(), 3);
        let all = Selection::All;
        let v = Selection::value;
        let cases: Vec<Vec<Selection>> = vec![
            vec![v("Ireland"), v("Dublin"), v("Fenian St")],
            vec![v("Ireland"), all.clone(), all.clone()],
            vec![all.clone(), v("Dublin"), all.clone()],
            vec![all.clone(), all.clone(), v("Bastille")],
            vec![all.clone(), all.clone(), all.clone()],
            vec![v("Spain"), all.clone(), all.clone()],
            vec![v("Ireland"), v("Paris"), all.clone()],
        ];
        for sel in cases {
            assert_eq!(sbc.point(&sel).unwrap(), c.point(&sel), "selection {sel:?}");
        }
    }

    #[test]
    fn store_backed_range_slice_and_group_by_match_in_memory() {
        let c = cube();
        let mut model = NosqlDwarfModel::in_memory();
        let schema_id = stored(&mut model);
        let mut sbc = StoreBackedCube::open(&mut model, schema_id).unwrap();
        let ra = RangeSel::All;
        let rv = RangeSel::value;
        let rb = RangeSel::between;
        let range_cases: Vec<Vec<RangeSel>> = vec![
            vec![ra.clone(), ra.clone(), ra.clone()],
            vec![rv("Ireland"), rb("Cork", "Dublin"), ra.clone()],
            vec![ra.clone(), ra.clone(), rb("Bastille", "Patrick St")],
            vec![rb("France", "Ireland"), ra.clone(), ra.clone()],
            vec![ra.clone(), rb("Z", "A"), ra.clone()], // inverted interval
        ];
        for sel in range_cases {
            assert_eq!(sbc.range(&sel).unwrap(), c.range(&sel), "range {sel:?}");
            assert_eq!(sbc.slice(&sel).unwrap(), c.slice(&sel), "slice {sel:?}");
        }
        for dims in [
            vec![],
            vec!["country"],
            vec!["city"],
            vec!["country", "station"],
            vec!["country", "city", "station"],
        ] {
            assert_eq!(
                sbc.group_by(&dims).unwrap(),
                c.group_by(&dims).unwrap(),
                "group by {dims:?}"
            );
        }
        assert!(matches!(
            sbc.group_by(&["planet"]),
            Err(CoreError::UnknownDimension(name)) if name == "planet"
        ));
    }

    #[test]
    fn warm_cache_answers_identical_queries_without_the_store() {
        let mut model = NosqlDwarfModel::in_memory();
        let schema_id = stored(&mut model);
        let mut sbc = StoreBackedCube::open(&mut model, schema_id).unwrap();
        let sel = vec![
            Selection::value("Ireland"),
            Selection::value("Dublin"),
            Selection::value("Fenian St"),
        ];
        assert_eq!(sbc.point(&sel).unwrap(), Some(3));
        let cold = sbc.stats();
        assert!(cold.rows_fetched > 0);
        assert!(cold.batched_selects > 0);
        // One batched cell SELECT per distinct node visited, never more.
        assert!(cold.batched_selects <= cold.node_cache_misses);

        sbc.reset_stats();
        assert_eq!(sbc.point(&sel).unwrap(), Some(3));
        let warm = sbc.stats();
        assert_eq!(warm.rows_fetched, 0, "warm traversal must not touch rows");
        assert_eq!(warm.store_selects, 0);
        assert_eq!(warm.node_cache_misses, 0);
        assert!(warm.node_cache_hits > 0);
        assert!((warm.hit_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_cache_refetches_every_node() {
        let mut model = NosqlDwarfModel::in_memory();
        let schema_id = stored(&mut model);
        let mut sbc = StoreBackedCube::open_with_cache(&mut model, schema_id, 0).unwrap();
        let sel = vec![Selection::All, Selection::All, Selection::All];
        assert_eq!(sbc.point(&sel).unwrap(), Some(17));
        let first = sbc.stats();
        sbc.reset_stats();
        assert_eq!(sbc.point(&sel).unwrap(), Some(17));
        let second = sbc.stats();
        assert_eq!(second.rows_fetched, first.rows_fetched);
        assert_eq!(second.node_cache_hits, 0);
    }

    #[test]
    fn walks_stop_where_every_later_step_is_all() {
        let c = cube();
        let mut model = NosqlDwarfModel::in_memory();
        let schema_id = stored(&mut model);
        let mut sbc = StoreBackedCube::open_with_cache(&mut model, schema_id, 0).unwrap();
        // The root's cells carry the answer: no node below it is read.
        let point = [Selection::value("Ireland"), Selection::All, Selection::All];
        assert_eq!(sbc.point(&point).unwrap(), Some(10));
        assert_eq!(sbc.stats().node_cache_misses, 1);
        sbc.reset_stats();
        let range = [RangeSel::between("A", "J"), RangeSel::All, RangeSel::All];
        assert_eq!(sbc.range(&range).unwrap(), Some(17));
        assert_eq!(sbc.stats().node_cache_misses, 1);
        // A slice keys every level, so it still reaches the leaves.
        let slice = [RangeSel::value("Ireland"), RangeSel::All, RangeSel::All];
        assert_eq!(sbc.slice(&slice).unwrap(), c.slice(&slice));
        assert_eq!(sbc.slice(&range).unwrap(), c.extract_tuples());
    }

    #[test]
    fn min_store_backed_queries_match_in_memory() {
        let c = cube();
        let mut model = NosqlMinModel::in_memory();
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        let mut sbc = StoreBackedCube::open(&mut model, report.schema_id).unwrap();
        let all = Selection::All;
        let v = Selection::value;
        let cases: Vec<Vec<Selection>> = vec![
            vec![v("Ireland"), v("Dublin"), v("Fenian St")],
            vec![v("Ireland"), all.clone(), all.clone()],
            vec![all.clone(), v("Dublin"), all.clone()],
            vec![all.clone(), all.clone(), all.clone()],
            vec![v("Spain"), all.clone(), all.clone()],
        ];
        for sel in cases {
            assert_eq!(sbc.point(&sel).unwrap(), c.point(&sel), "selection {sel:?}");
        }
        // Range rides the same traversal; every node lookup reconstructs.
        let rsel = vec![
            RangeSel::value("Ireland"),
            RangeSel::between("Cork", "Dublin"),
            RangeSel::All,
        ];
        assert_eq!(sbc.range(&rsel).unwrap(), c.range(&rsel));
        let s = sbc.stats();
        assert_eq!(
            s.node_cache_hits, 0,
            "the Min path is deliberately uncached"
        );
        assert!(s.rows_fetched > 0);
    }

    #[test]
    fn min_cursor_does_not_read_lost_entry_cells_as_the_empty_cube() {
        let c = cube();
        let mut model = NosqlMinModel::in_memory();
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        let entry = crate::models::offset_id(report.schema_id, 1);
        let lost = model
            .db_mut()
            .execute_cql(&format!(
                "SELECT id FROM smartcity_min.dwarf_cell WHERE parentNodeId = {entry}"
            ))
            .unwrap();
        assert!(!lost.is_empty());
        for row in lost.rows() {
            let id = row.get_int("id").unwrap();
            let cql = format!("DELETE FROM smartcity_min.dwarf_cell WHERE id = {id}");
            model.db_mut().execute_cql(&cql).unwrap();
        }
        let mut sbc = StoreBackedCube::open(&mut model, report.schema_id).unwrap();
        assert!(matches!(
            sbc.select().run(),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn fluent_select_matches_point_queries() {
        let mut model = NosqlDwarfModel::in_memory();
        let schema_id = stored(&mut model);
        let mut sbc = StoreBackedCube::open(&mut model, schema_id).unwrap();

        // Unmentioned dimensions default to ALL.
        assert_eq!(sbc.select().run().unwrap(), Some(17));
        assert_eq!(
            sbc.select()
                .dim("country", "Ireland")
                .dim("city", "Dublin")
                .dim("station", "Fenian St")
                .run()
                .unwrap(),
            Some(3)
        );
        assert_eq!(sbc.select().dim("city", "Dublin").run().unwrap(), Some(8));
        // `all` re-opens a previously pinned dimension.
        assert_eq!(
            sbc.select().dim("city", "Cork").all("city").run().unwrap(),
            Some(17)
        );
        assert_eq!(sbc.select().dim("station", "Nowhere").run().unwrap(), None);
        assert!(matches!(
            sbc.select().dim("planet", "Earth").run(),
            Err(CoreError::UnknownDimension(name)) if name == "planet"
        ));
    }

    #[test]
    fn unknown_schema_is_an_error() {
        let mut model = NosqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        assert!(matches!(
            StoreBackedCube::open(&mut model, 5),
            Err(CoreError::UnknownSchema(5))
        ));
    }
}
