//! Forward mapping: breadth-first traversal of a DWARF with a visited
//! lookup table (§4 of the paper).
//!
//! A DWARF has multiple inheritance — suffix coalescing makes nodes
//! reachable from many parent cells — so the traversal records every Node
//! and Cell in a lookup table keyed by identity and assigns each a unique
//! id exactly once. The result is a flat, store-agnostic record list each
//! schema model serializes its own way.
//!
//! ALL cells are materialized as cell records with the reserved key
//! [`ALL_KEY`] so the structure (including every ALL pointer) is fully
//! recoverable from the store.

use crate::error::{CoreError, Result};
use sc_dwarf::{AggFn, CubeSchema, Dwarf, NodeId, NONE_NODE};
use sc_json::JsonValue;
use std::collections::VecDeque;

/// Reserved cell key marking ALL cells in the store. Uses a control
/// character so real dimension values cannot collide (enforced at mapping
/// time).
pub const ALL_KEY: &str = "\u{1}ALL";

/// One DWARF node as a store-agnostic record (Table 1-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Assigned unique id (1-based, per mapping).
    pub id: i64,
    /// Ids of the cells that point to this node (multi-parent).
    pub parent_cell_ids: Vec<i64>,
    /// Ids of the cells contained in this node, ALL cell last.
    pub child_cell_ids: Vec<i64>,
    /// Whether this is the entry (root) node.
    pub root: bool,
    /// Dimension level (0-based), derived during traversal.
    pub level: usize,
}

/// One DWARF cell as a store-agnostic record (Table 1-C / Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Assigned unique id (1-based, per mapping).
    pub id: i64,
    /// Dimension value, or [`ALL_KEY`] for an ALL cell.
    pub key: String,
    /// The cell's aggregate value (leaf measure, or the pointed sub-dwarf's
    /// total — "the value of a cell is synonymous with its child's
    /// aggregate").
    pub measure: i64,
    /// Id of the node containing this cell.
    pub parent_node: i64,
    /// Id of the node this cell points to (`None` at the leaf level).
    pub pointer_node: Option<i64>,
    /// Whether the cell is at the leaf level.
    pub leaf: bool,
    /// The paper's `dimension_table_name`: the dimension this cell's key
    /// belongs to.
    pub dimension: String,
}

impl CellRecord {
    /// Whether this is an ALL cell.
    pub fn is_all(&self) -> bool {
        self.key == ALL_KEY
    }
}

/// The complete mapped form of one DWARF.
#[derive(Debug, Clone)]
pub struct MappedDwarf {
    /// Node records in BFS order (entry node first).
    pub nodes: Vec<NodeRecord>,
    /// Cell records in BFS order.
    pub cells: Vec<CellRecord>,
    /// Assigned id of the entry node.
    pub entry_node_id: i64,
}

impl MappedDwarf {
    /// Maps a cube. Panics if a dimension value collides with [`ALL_KEY`]
    /// (control characters never appear in real feed values; see
    /// [`MappedDwarf::try_new`] for the fallible form).
    pub fn new(cube: &Dwarf) -> MappedDwarf {
        Self::try_new(cube).expect("dimension values must not use the reserved ALL key")
    }

    /// Maps a cube, reporting reserved-key collisions as errors.
    pub fn try_new(cube: &Dwarf) -> Result<MappedDwarf> {
        for dim in 0..cube.num_dims() {
            if cube.interner(dim).get(ALL_KEY).is_some() {
                return Err(CoreError::ReservedKey(ALL_KEY.to_string()));
            }
        }
        // The lookup table of §4: arena node id -> assigned id (0 = not
        // yet visited).
        let mut assigned: Vec<i64> = vec![0; cube.node_count()];
        let mut parents: Vec<Vec<i64>> = vec![Vec::new(); cube.node_count()];
        let mut order: Vec<NodeId> = Vec::with_capacity(cube.node_count());
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut next_node_id: i64 = 0;

        let mut visit = |queue: &mut VecDeque<NodeId>,
                         assigned: &mut Vec<i64>,
                         order: &mut Vec<NodeId>,
                         target: NodeId|
         -> i64 {
            let slot = &mut assigned[target as usize];
            if *slot == 0 {
                next_node_id += 1;
                *slot = next_node_id;
                order.push(target);
                queue.push_back(target);
            }
            *slot
        };

        let entry = visit(&mut queue, &mut assigned, &mut order, cube.root());
        let mut nodes: Vec<NodeRecord> = Vec::with_capacity(cube.node_count());
        let mut cells: Vec<CellRecord> = Vec::new();
        let mut next_cell_id: i64 = 0;

        while let Some(node_id) = queue.pop_front() {
            let node = cube.node(node_id);
            let my_id = assigned[node_id as usize];
            let level = node.node.level as usize;
            let leaf = level == cube.num_dims() - 1;
            let dimension = cube.schema().dimension(level).to_string();
            let mut child_cell_ids = Vec::with_capacity(node.cells.len() + 1);
            for cell in node.cells {
                next_cell_id += 1;
                let pointer = if cell.child == NONE_NODE {
                    None
                } else {
                    let target_id = visit(&mut queue, &mut assigned, &mut order, cell.child);
                    parents[cell.child as usize].push(next_cell_id);
                    Some(target_id)
                };
                child_cell_ids.push(next_cell_id);
                cells.push(CellRecord {
                    id: next_cell_id,
                    key: cube.interner(level).resolve(cell.key).to_string(),
                    measure: cell.measure,
                    parent_node: my_id,
                    pointer_node: pointer,
                    leaf,
                    dimension: dimension.clone(),
                });
            }
            // The ALL cell, stored like any other cell under the reserved
            // key.
            if !node.cells.is_empty() {
                next_cell_id += 1;
                let pointer = if node.node.all_child == NONE_NODE {
                    None
                } else {
                    let target_id =
                        visit(&mut queue, &mut assigned, &mut order, node.node.all_child);
                    parents[node.node.all_child as usize].push(next_cell_id);
                    Some(target_id)
                };
                child_cell_ids.push(next_cell_id);
                cells.push(CellRecord {
                    id: next_cell_id,
                    key: ALL_KEY.to_string(),
                    measure: node.node.total,
                    parent_node: my_id,
                    pointer_node: pointer,
                    leaf,
                    dimension: dimension.clone(),
                });
            }
            nodes.push(NodeRecord {
                id: my_id,
                parent_cell_ids: Vec::new(), // filled below
                child_cell_ids,
                root: my_id == entry,
                level,
            });
        }
        // Fill in parent cell ids now that every edge has been seen.
        for (arena_id, node_record) in order.iter().zip(nodes.iter_mut()) {
            node_record.parent_cell_ids = std::mem::take(&mut parents[*arena_id as usize]);
        }
        Ok(MappedDwarf {
            nodes,
            cells,
            entry_node_id: entry,
        })
    }

    /// Number of node records (the paper's `node_count`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of cell records (the paper's `cell_count`, ALL cells
    /// included).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

/// A cell as read back from any store: the minimum every model recovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCell {
    /// Dimension value or [`ALL_KEY`].
    pub key: String,
    /// Aggregate value.
    pub measure: i64,
    /// Containing node id.
    pub parent_node: i64,
    /// Pointed node id, if any.
    pub pointer_node: Option<i64>,
    /// Whether the cell sits at the leaf level.
    pub leaf: bool,
}

/// Reconstructs the base fact rows from stored cells.
///
/// A full slice (ALL on every dimension) over a
/// [`crate::node_source::StoredCellSource`]: value cells are walked from
/// the entry node down through the same generic traversal the live store
/// cursors use, and each root-to-leaf path of keys is one fact. This is
/// the reverse mapping that makes the model bi-directional.
pub fn rows_from_cells(
    cells: &[StoredCell],
    entry_node_id: i64,
    num_dims: usize,
) -> Result<Vec<(Vec<String>, i64)>> {
    let mut src = crate::node_source::StoredCellSource::new(cells, entry_node_id, num_dims)?;
    let sel = vec![sc_dwarf::RangeSel::All; num_dims];
    sc_dwarf::slice_over(&mut src, &sel).map_err(CoreError::from)
}

/// Rebuilds a full in-memory [`Dwarf`] from stored cells: the shared tail
/// of every model's `rebuild()` — reverse-map the rows through the
/// [`crate::node_source::StoredCellSource`] traversal, then reconstruct.
pub fn rebuild_cube(schema: CubeSchema, entry_node_id: i64, cells: &[StoredCell]) -> Result<Dwarf> {
    let rows = rows_from_cells(cells, entry_node_id, schema.num_dims())?;
    Ok(Dwarf::from_aggregated_rows(schema, rows))
}

impl StoredCell {
    /// Whether this is an ALL cell.
    pub fn is_all(&self) -> bool {
        self.key == ALL_KEY
    }
}

/// Serializes cube schema metadata (dimension names, measure, aggregate)
/// into the store's `schema_meta` text column — the extension over Table
/// 1-A that makes the reverse mapping self-contained (see DESIGN.md).
pub fn encode_schema_meta(schema: &CubeSchema) -> String {
    JsonValue::object(vec![
        (
            "dimensions",
            JsonValue::Array(
                schema
                    .dimensions()
                    .iter()
                    .map(|d| JsonValue::string(d.clone()))
                    .collect(),
            ),
        ),
        ("measure", JsonValue::string(schema.measure())),
        ("agg", JsonValue::string(schema.agg().name())),
    ])
    .to_json()
}

/// Inverse of [`encode_schema_meta`]. A damaged row — a field missing or
/// not text, no dimensions, an unknown aggregate — is `Inconsistent`.
pub fn decode_schema_meta(text: &str) -> Result<CubeSchema> {
    fn text_of<'a>(v: Option<&'a JsonValue>, what: &str) -> Result<&'a str> {
        let v = v.and_then(JsonValue::as_str);
        v.ok_or_else(|| CoreError::Inconsistent(format!("schema meta: {what} missing or not text")))
    }
    let bad = |what: String| CoreError::Inconsistent(format!("schema meta: {what}"));
    let v = sc_json::parse(text).map_err(|e| bad(e.to_string()))?;
    let dims = v
        .get("dimensions")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad("missing dimensions".into()))?
        .iter()
        .map(|d| text_of(Some(d), "dimension").map(str::to_string))
        .collect::<Result<Vec<_>>>()?;
    if dims.is_empty() {
        return Err(bad("no dimensions".into()));
    }
    let measure = text_of(v.get("measure"), "measure")?;
    let agg = text_of(v.get("agg"), "agg")?;
    let agg = [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max]
        .into_iter()
        .find(|a| a.name() == agg)
        .ok_or_else(|| bad(format!("unknown aggregate {agg:?}")))?;
    Ok(CubeSchema::new(dims, measure).with_agg(agg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dwarf::TupleSet;

    fn cube() -> Dwarf {
        let schema = CubeSchema::new(["country", "city", "station"], "bikes");
        let mut ts = TupleSet::new(&schema);
        ts.push(["Ireland", "Dublin", "Fenian St"], 3);
        ts.push(["Ireland", "Dublin", "Smithfield"], 5);
        ts.push(["Ireland", "Cork", "Patrick St"], 2);
        ts.push(["France", "Paris", "Bastille"], 7);
        Dwarf::build(schema, ts)
    }

    #[test]
    fn mapping_visits_each_node_and_cell_once() {
        let c = cube();
        let m = MappedDwarf::new(&c);
        assert_eq!(m.node_count(), c.node_count());
        // Every arena cell plus one ALL cell per non-empty node.
        assert_eq!(m.cell_count(), c.cell_count() + c.node_count());
        // Ids are unique.
        let mut node_ids: Vec<i64> = m.nodes.iter().map(|n| n.id).collect();
        node_ids.sort_unstable();
        node_ids.dedup();
        assert_eq!(node_ids.len(), m.node_count());
        let mut cell_ids: Vec<i64> = m.cells.iter().map(|c| c.id).collect();
        cell_ids.sort_unstable();
        cell_ids.dedup();
        assert_eq!(cell_ids.len(), m.cell_count());
    }

    #[test]
    fn entry_node_is_root_and_bfs_first() {
        let c = cube();
        let m = MappedDwarf::new(&c);
        assert_eq!(m.nodes[0].id, m.entry_node_id);
        assert!(m.nodes[0].root);
        assert_eq!(m.nodes[0].level, 0);
        assert!(m.nodes.iter().skip(1).all(|n| !n.root));
        // Root has no parents; every other node has at least one.
        assert!(m.nodes[0].parent_cell_ids.is_empty());
        assert!(m
            .nodes
            .iter()
            .skip(1)
            .all(|n| !n.parent_cell_ids.is_empty()));
    }

    #[test]
    fn shared_nodes_have_multiple_parents() {
        let c = cube();
        let m = MappedDwarf::new(&c);
        assert!(
            m.nodes.iter().any(|n| n.parent_cell_ids.len() > 1),
            "suffix coalescing must produce at least one multi-parent node"
        );
    }

    #[test]
    fn figure3_shape_cell_exists() {
        let c = cube();
        let m = MappedDwarf::new(&c);
        let fenian = m
            .cells
            .iter()
            .find(|c| c.key == "Fenian St")
            .expect("Fenian St cell mapped");
        assert_eq!(fenian.measure, 3);
        assert!(fenian.leaf);
        assert_eq!(fenian.pointer_node, None);
        assert_eq!(fenian.dimension, "station");
    }

    #[test]
    fn all_cells_close_every_node() {
        let c = cube();
        let m = MappedDwarf::new(&c);
        let all_cells = m.cells.iter().filter(|c| c.is_all()).count();
        assert_eq!(all_cells, m.node_count());
        // Non-leaf ALL cells point somewhere.
        assert!(m
            .cells
            .iter()
            .filter(|c| c.is_all() && !c.leaf)
            .all(|c| c.pointer_node.is_some()));
    }

    #[test]
    fn roundtrip_via_stored_cells() {
        let c = cube();
        let m = MappedDwarf::new(&c);
        let stored: Vec<StoredCell> = m
            .cells
            .iter()
            .map(|c| StoredCell {
                key: c.key.clone(),
                measure: c.measure,
                parent_node: c.parent_node,
                pointer_node: c.pointer_node,
                leaf: c.leaf,
            })
            .collect();
        let rows = rows_from_cells(&stored, m.entry_node_id, c.num_dims()).unwrap();
        let rebuilt = Dwarf::from_aggregated_rows(c.schema().clone(), rows);
        assert_eq!(rebuilt.extract_tuples(), c.extract_tuples());
    }

    #[test]
    fn inconsistent_stores_are_detected() {
        // No cells at all is the empty cube (`rebuild` checks the meta
        // row's `cell_count` before it gets here)...
        assert_eq!(rows_from_cells(&[], 1, 2).unwrap(), vec![]);
        // ...but value cells without their node's ALL cell are a lost row.
        let no_all = vec![StoredCell {
            key: "x".into(),
            measure: 1,
            parent_node: 1,
            pointer_node: None,
            leaf: true,
        }];
        assert!(matches!(
            rows_from_cells(&no_all, 1, 1),
            Err(CoreError::Inconsistent(_))
        ));
        // Cells that leave the entry node without any are not the empty
        // cube: the entry id (or the root cells' parent) is wrong.
        let all = StoredCell {
            key: ALL_KEY.into(),
            ..no_all[0].clone()
        };
        let rooted_elsewhere = vec![no_all[0].clone(), all];
        assert_eq!(rows_from_cells(&rooted_elsewhere, 1, 1).unwrap().len(), 1);
        assert!(matches!(
            rows_from_cells(&rooted_elsewhere, 2, 1),
            Err(CoreError::Inconsistent(_))
        ));
        // Non-leaf cell without pointer.
        let bad = vec![StoredCell {
            key: "x".into(),
            measure: 1,
            parent_node: 1,
            pointer_node: None,
            leaf: false,
        }];
        assert!(matches!(
            rows_from_cells(&bad, 1, 2),
            Err(CoreError::Inconsistent(_))
        ));
        // Cycle / overlong path.
        let cyclic = vec![StoredCell {
            key: "x".into(),
            measure: 1,
            parent_node: 1,
            pointer_node: Some(1),
            leaf: false,
        }];
        assert!(matches!(
            rows_from_cells(&cyclic, 1, 1),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn schema_meta_roundtrip() {
        let schema = CubeSchema::new(["a", "b"], "m").with_agg(AggFn::Count);
        let text = encode_schema_meta(&schema);
        let back = decode_schema_meta(&text).unwrap();
        assert_eq!(back, schema);
        for damaged in [
            "{}",
            "not json",
            // A non-string dimension would leave fewer dimensions than the
            // stored cube has.
            r#"{"dimensions": ["a", 7], "measure": "m", "agg": "SUM"}"#,
            // encode_schema_meta always writes agg; only a damaged row lacks it.
            r#"{"dimensions": ["a", "b"], "measure": "m"}"#,
        ] {
            assert!(
                matches!(decode_schema_meta(damaged), Err(CoreError::Inconsistent(_))),
                "{damaged}"
            );
        }
    }

    #[test]
    fn reserved_key_is_rejected() {
        let schema = CubeSchema::new(["k"], "m");
        let mut ts = TupleSet::new(&schema);
        ts.push([ALL_KEY], 1);
        let c = Dwarf::build(schema, ts);
        assert!(matches!(
            MappedDwarf::try_new(&c),
            Err(CoreError::ReservedKey(_))
        ));
    }

    #[test]
    fn single_tuple_cube_maps_cleanly() {
        let schema = CubeSchema::new(["a"], "m");
        let mut ts = TupleSet::new(&schema);
        ts.push(["only"], 9);
        let c = Dwarf::build(schema, ts);
        let m = MappedDwarf::new(&c);
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.cell_count(), 2); // value cell + ALL cell
        let stored: Vec<StoredCell> = m
            .cells
            .iter()
            .map(|c| StoredCell {
                key: c.key.clone(),
                measure: c.measure,
                parent_node: c.parent_node,
                pointer_node: c.pointer_node,
                leaf: c.leaf,
            })
            .collect();
        let rows = rows_from_cells(&stored, m.entry_node_id, 1).unwrap();
        assert_eq!(rows, vec![(vec!["only".to_string()], 9)]);
    }
}
