//! The built DWARF structure: arena storage, access, stats, validation.

use crate::builder;
use crate::intern::{Interner, ValueId};
use crate::schema::CubeSchema;
use crate::tuple::TupleSet;
use sc_encoding::ByteSize;

/// Index of a node in the cube's arena.
pub type NodeId = u32;

/// Sentinel for "no node" (leaf cells and the empty cube's ALL pointer).
pub const NONE_NODE: NodeId = u32::MAX;

/// One cell, as stored in the arena.
///
/// * At a **leaf** level, `child == NONE_NODE` and `measure` holds the
///   aggregate for the cell's full dimension key.
/// * At a **non-leaf** level, `child` points to the node holding the next
///   dimension's cells; the cell's own aggregate is that node's
///   [`Node::total`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Interned dimension value this cell is keyed by.
    pub key: ValueId,
    /// Child node, or [`NONE_NODE`] at the leaf level.
    pub child: NodeId,
    /// Aggregate measure (meaningful at the leaf level).
    pub measure: i64,
}

/// Node metadata; the node's cells live contiguously in the cell arena.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Start of the node's cells in the arena.
    pub cells_start: u32,
    /// Number of cells.
    pub cells_len: u32,
    /// The ALL cell's target: the suffix-coalesced sub-dwarf aggregating all
    /// of this node's cells ([`NONE_NODE`] at the leaf level).
    pub all_child: NodeId,
    /// Aggregate of everything below this node (the ALL cell's value).
    pub total: i64,
    /// Dimension level (0 = root dimension).
    pub level: u8,
}

/// Borrowed view of a node plus its cells.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    /// The node's id.
    pub id: NodeId,
    /// The node's metadata.
    pub node: &'a Node,
    /// The node's cells, sorted by `key`.
    pub cells: &'a [Cell],
    /// Dimension count of the owning cube (for leaf-level checks).
    pub num_dims: usize,
}

impl<'a> NodeRef<'a> {
    /// Binary-searches for a cell by key.
    pub fn find(&self, key: ValueId) -> Option<&'a Cell> {
        self.cells
            .binary_search_by_key(&key, |c| c.key)
            .ok()
            .map(|i| &self.cells[i])
    }

    /// Whether this node is at the leaf (last) level of the cube.
    ///
    /// Derived from the node's level so traversal loops don't pay a cell
    /// scan; [`Dwarf::validate`] cross-checks the scan-based definition.
    pub fn is_leaf(&self) -> bool {
        self.node.level as usize + 1 == self.num_dims
    }
}

/// Borrowed view of a cell with its position context (used by traversals).
#[derive(Debug, Clone, Copy)]
pub struct CellRef<'a> {
    /// The node the cell lives in.
    pub node_id: NodeId,
    /// Index of the cell within its node.
    pub index: usize,
    /// The cell itself.
    pub cell: &'a Cell,
}

/// Summary statistics of a built cube (the paper's `node_count` /
/// `cell_count` metadata, plus construction detail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeStats {
    /// Total nodes in the structure (shared nodes counted once).
    pub node_count: usize,
    /// Total cells (shared nodes' cells counted once).
    pub cell_count: usize,
    /// Distinct fact keys the cube was built from.
    pub tuple_count: usize,
    /// Nodes per level, level 0 first.
    pub nodes_per_level: Vec<usize>,
    /// Approximate in-memory footprint.
    pub memory: ByteSize,
}

/// A built DWARF cube.
///
/// Construction is via [`Dwarf::build`]; the structure is immutable
/// afterwards (updates go through [`crate::merge`]).
#[derive(Debug, Clone)]
pub struct Dwarf {
    pub(crate) schema: CubeSchema,
    pub(crate) interners: Vec<Interner>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) tuple_count: usize,
}

impl Dwarf {
    /// Builds a cube from a batch of input tuples.
    pub fn build(schema: CubeSchema, tuples: TupleSet) -> Dwarf {
        builder::build(schema, tuples)
    }

    /// The cube's schema.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// The root node's id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of dimensions.
    pub fn num_dims(&self) -> usize {
        self.schema.num_dims()
    }

    /// Number of distinct fact keys the cube was built from.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Whether the cube contains no facts.
    pub fn is_empty(&self) -> bool {
        self.tuple_count == 0
    }

    /// The interner (value dictionary) of dimension `dim`.
    pub fn interner(&self, dim: usize) -> &Interner {
        &self.interners[dim]
    }

    /// Resolves a node id to a borrowed view.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        let node = &self.nodes[id as usize];
        let start = node.cells_start as usize;
        let end = start + node.cells_len as usize;
        NodeRef {
            id,
            node,
            cells: &self.cells[start..end],
            num_dims: self.num_dims(),
        }
    }

    /// Iterates all node ids (every node is reachable; shared ones appear
    /// once).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len() as NodeId
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Summary statistics.
    pub fn stats(&self) -> CubeStats {
        let mut nodes_per_level = vec![0usize; self.num_dims()];
        for n in &self.nodes {
            nodes_per_level[n.level as usize] += 1;
        }
        let memory = ByteSize::bytes(
            (self.cells.len() * std::mem::size_of::<Cell>()
                + self.nodes.len() * std::mem::size_of::<Node>()
                + self
                    .interners
                    .iter()
                    .map(|i| i.iter().map(|(_, s)| s.len() + 16).sum::<usize>())
                    .sum::<usize>()) as u64,
        );
        CubeStats {
            node_count: self.nodes.len(),
            cell_count: self.cells.len(),
            tuple_count: self.tuple_count,
            nodes_per_level,
            memory,
        }
    }

    /// Re-extracts the base fact tuples (string keys + aggregate measures),
    /// in sorted key order.
    ///
    /// This walks value cells only, so each fact key appears exactly once —
    /// it is the inverse of construction and the backbone of the
    /// round-trip property tests and [`crate::merge`].
    pub fn extract_tuples(&self) -> Vec<(Vec<String>, i64)> {
        // An unconstrained slice through the shared traversal core visits
        // value cells only, so each fact key appears exactly once.
        let region = vec![crate::query::RangeSel::All; self.num_dims()];
        crate::source::unwrap_infallible(crate::source::slice_over(
            &mut crate::source::ArenaSource::new(self),
            &region,
        ))
    }

    /// Exhaustively checks structural invariants; panics with a description
    /// on violation. Intended for tests and debugging, not hot paths.
    pub fn validate(&self) {
        let d = self.num_dims();
        assert!(!self.nodes.is_empty(), "cube must have a root node");
        assert_eq!(
            self.nodes[self.root as usize].level, 0,
            "root must be level 0"
        );
        for id in self.node_ids() {
            let n = self.node(id);
            let level = n.node.level as usize;
            assert!(level < d, "node {id} has level {level} >= d={d}");
            // Cells strictly sorted by key.
            for w in n.cells.windows(2) {
                assert!(w[0].key < w[1].key, "node {id} cells unsorted/duplicated");
            }
            let leaf = level == d - 1;
            for c in n.cells {
                assert!(
                    (c.key as usize) < self.interners[level].len(),
                    "node {id} cell key out of dictionary range"
                );
                if leaf {
                    assert_eq!(c.child, NONE_NODE, "leaf cell with child in node {id}");
                } else {
                    assert_ne!(
                        c.child, NONE_NODE,
                        "non-leaf cell without child in node {id}"
                    );
                    let child = &self.nodes[c.child as usize];
                    assert_eq!(
                        child.level as usize,
                        level + 1,
                        "node {id} child at wrong level"
                    );
                    // A non-leaf cell's aggregate equals its child's total.
                    assert_eq!(
                        c.measure, child.total,
                        "node {id} cell measure != child total"
                    );
                }
            }
            if !n.cells.is_empty() {
                // Level-derived leafness must agree with the scan-based
                // definition (no ALL pointer, no cell children).
                let scanned_leaf =
                    n.node.all_child == NONE_NODE && n.cells.iter().all(|c| c.child == NONE_NODE);
                assert_eq!(n.is_leaf(), scanned_leaf, "node {id} leafness mismatch");
                // The node's total equals the aggregate of its cells.
                let agg = self.schema.agg();
                let combined = agg
                    .combine_all(n.cells.iter().map(|c| c.measure))
                    .expect("non-empty cells");
                assert_eq!(n.node.total, combined, "node {id} total mismatch");
                if leaf {
                    assert_eq!(n.node.all_child, NONE_NODE, "leaf node with ALL child");
                } else {
                    assert_ne!(
                        n.node.all_child, NONE_NODE,
                        "non-leaf node missing ALL child"
                    );
                    let all = &self.nodes[n.node.all_child as usize];
                    assert_eq!(
                        all.level as usize,
                        level + 1,
                        "node {id} ALL child at wrong level"
                    );
                    assert_eq!(
                        all.total, n.node.total,
                        "node {id} ALL child total mismatch"
                    );
                }
            }
        }
    }

    /// Builds a new, standalone cube containing only the facts that fall in
    /// `region` (one [`crate::query::RangeSel`] per dimension).
    ///
    /// This is the "cube constructed from querying a DWARF schema" that the
    /// paper's `is_cube` flag marks in the store.
    pub fn subcube(&self, region: &[crate::query::RangeSel]) -> Dwarf {
        Dwarf::from_aggregated_rows(self.schema.clone(), self.slice(region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Selection;

    fn small_cube() -> Dwarf {
        let schema = CubeSchema::new(["country", "city", "station"], "bikes");
        let mut ts = TupleSet::new(&schema);
        ts.push(["Ireland", "Dublin", "Fenian St"], 3);
        ts.push(["Ireland", "Dublin", "Smithfield"], 5);
        ts.push(["Ireland", "Cork", "Patrick St"], 2);
        ts.push(["France", "Paris", "Bastille"], 7);
        Dwarf::build(schema, ts)
    }

    #[test]
    fn stats_shape() {
        let cube = small_cube();
        let stats = cube.stats();
        assert_eq!(stats.tuple_count, 4);
        assert_eq!(stats.nodes_per_level.len(), 3);
        assert_eq!(
            stats.nodes_per_level.iter().sum::<usize>(),
            stats.node_count
        );
        assert!(stats.cell_count >= 4);
        assert!(stats.memory.as_bytes() > 0);
    }

    #[test]
    fn extract_tuples_roundtrip() {
        let cube = small_cube();
        let tuples = cube.extract_tuples();
        assert_eq!(tuples.len(), 4);
        // Sorted key order.
        assert_eq!(
            tuples[0].0,
            vec!["France".to_string(), "Paris".into(), "Bastille".into()]
        );
        assert_eq!(tuples[0].1, 7);
        assert_eq!(
            tuples[3].0,
            vec!["Ireland".to_string(), "Dublin".into(), "Smithfield".into()]
        );
    }

    #[test]
    fn validate_accepts_built_cube() {
        small_cube().validate();
    }

    #[test]
    fn subcube_restricts_facts() {
        let cube = small_cube();
        let region = vec![
            crate::query::RangeSel::value("Ireland"),
            crate::query::RangeSel::All,
            crate::query::RangeSel::All,
        ];
        let sub = cube.subcube(&region);
        sub.validate();
        assert_eq!(sub.tuple_count(), 3);
        assert_eq!(
            sub.point(&[Selection::All, Selection::All, Selection::All]),
            Some(10)
        );
        assert_eq!(
            sub.point(&[Selection::value("France"), Selection::All, Selection::All]),
            None
        );
    }

    #[test]
    fn subcube_of_a_count_cube_keeps_its_schema_and_merges_back() {
        let schema =
            CubeSchema::new(["country", "station"], "hires").with_agg(crate::schema::AggFn::Count);
        let mut ts = TupleSet::new(&schema);
        for (country, station) in [
            ("Ireland", "Fenian St"),
            ("Ireland", "Fenian St"),
            ("Ireland", "Smithfield"),
            ("France", "Bastille"),
        ] {
            ts.push([country, station], 1);
        }
        let cube = Dwarf::build(schema, ts);
        let sub = cube.subcube(&[crate::query::RangeSel::All, crate::query::RangeSel::All]);
        assert_eq!(sub.schema(), cube.schema());
        let doubled = cube.merge(&sub);
        let want: Vec<_> = cube
            .extract_tuples()
            .into_iter()
            .map(|(key, count)| (key, 2 * count))
            .collect();
        assert_eq!(doubled.extract_tuples(), want);
    }

    #[test]
    fn node_ref_find() {
        let cube = small_cube();
        let root = cube.node(cube.root());
        assert_eq!(root.cells.len(), 2); // France, Ireland
        let ireland = cube.interner(0).get("Ireland").unwrap();
        assert!(root.find(ireland).is_some());
        assert!(root.find(999).is_none());
    }
}
