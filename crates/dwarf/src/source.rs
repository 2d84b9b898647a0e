//! The unified read path: one walk over any node storage.
//!
//! DWARF answers every query with one rule: follow value cells on the
//! constrained dimensions and the ALL cell on the aggregated ones. This
//! module writes that rule once, as a depth-first walk over a
//! [`NodeSource`] driven by one step per level; point, range, slice and
//! group-by are adapters that translate their selection into steps and
//! collect what the walk emits. Sources:
//!
//! * [`ArenaSource`] — the trivial, zero-copy implementation over a built
//!   [`Dwarf`]; `Dwarf::point/range/slice/group_by` delegate here.
//! * `StoreNodeSource` (in `sc-core`) — answers from NoSQL rows with a
//!   batched `WHERE id IN (...)` fetch per node and a bounded LRU cache.
//! * `StoredCellSource` (in `sc-core`) — rows already fetched by a model's
//!   `rebuild()`.
//!
//! Keys are compared as strings. This is sound for the arena because value
//! ids are ranked lexicographically (id order == string order), and it is
//! what lets a store that kept only the strings share the walk.

use std::convert::Infallible;
use std::rc::Rc;

use crate::cube::{Cell, Dwarf, NodeId, NONE_NODE};
use crate::intern::Interner;
use crate::query::{RangeSel, Selection};
use crate::schema::AggFn;

/// Node identifier as seen by a [`NodeSource`]. Wide enough for both arena
/// ids (`u32`) and store row ids (schema-offset `i64`).
pub type SourceNodeId = i64;

/// Rows a slice or group-by returns: `(string keys, aggregated measure)`,
/// sorted by key.
pub type KeyedRows = Vec<(Vec<String>, i64)>;

/// An owned cell of an [`OwnedNode`] (store-backed sources materialize
/// these from fetched rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedCell {
    /// The dimension value this cell is keyed by.
    pub key: String,
    /// Aggregate measure (meaningful at the leaf level).
    pub measure: i64,
    /// Child node, `None` at the leaf level.
    pub child: Option<SourceNodeId>,
}

/// An owned node: value cells sorted by key, plus the ALL pointer and the
/// node total (the ALL cell's measure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedNode {
    /// Value cells, sorted by `key` (the ALL cell is *not* included here).
    pub cells: Vec<OwnedCell>,
    /// The ALL cell's target, `None` at the leaf level.
    pub all_child: Option<SourceNodeId>,
    /// Aggregate of everything below this node.
    pub total: i64,
}

impl OwnedNode {
    /// Builds a node from unsorted value cells (sorts them by key).
    pub fn from_cells(
        mut cells: Vec<OwnedCell>,
        all_child: Option<SourceNodeId>,
        total: i64,
    ) -> OwnedNode {
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        OwnedNode {
            cells,
            all_child,
            total,
        }
    }
}

/// A node view handed out by a [`NodeSource`]: borrowed straight from the
/// arena, or an owned (cache-shared) reconstruction from store rows.
#[derive(Debug, Clone)]
pub enum CowNode<'s> {
    /// Zero-copy view into a [`Dwarf`] arena.
    Arena {
        /// The node's cells (sorted by interned key, which is string order).
        cells: &'s [Cell],
        /// The dictionary of this node's level, for key resolution.
        interner: &'s Interner,
        /// ALL pointer, `None` at the leaf level.
        all_child: Option<SourceNodeId>,
        /// Aggregate of everything below this node.
        total: i64,
    },
    /// Shared owned node (store-backed sources).
    Owned(Rc<OwnedNode>),
}

impl CowNode<'_> {
    /// Number of value cells (the ALL cell is not counted).
    pub fn len(&self) -> usize {
        match self {
            CowNode::Arena { cells, .. } => cells.len(),
            CowNode::Owned(n) => n.cells.len(),
        }
    }

    /// Whether the node has no value cells (only the empty cube's root).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th cell's key, as a string.
    pub fn key(&self, i: usize) -> &str {
        match self {
            CowNode::Arena {
                cells, interner, ..
            } => interner.resolve(cells[i].key),
            CowNode::Owned(n) => &n.cells[i].key,
        }
    }

    /// The `i`-th cell's measure.
    pub fn measure(&self, i: usize) -> i64 {
        match self {
            CowNode::Arena { cells, .. } => cells[i].measure,
            CowNode::Owned(n) => n.cells[i].measure,
        }
    }

    /// The `i`-th cell's child pointer, `None` at the leaf level.
    pub fn child(&self, i: usize) -> Option<SourceNodeId> {
        match self {
            CowNode::Arena { cells, .. } => {
                (cells[i].child != NONE_NODE).then(|| cells[i].child as SourceNodeId)
            }
            CowNode::Owned(n) => n.cells[i].child,
        }
    }

    /// The ALL pointer, `None` at the leaf level.
    pub fn all_child(&self) -> Option<SourceNodeId> {
        match self {
            CowNode::Arena { all_child, .. } => *all_child,
            CowNode::Owned(n) => n.all_child,
        }
    }

    /// Aggregate of everything below this node (the ALL cell's value).
    pub fn total(&self) -> i64 {
        match self {
            CowNode::Arena { total, .. } => *total,
            CowNode::Owned(n) => n.total,
        }
    }

    /// Binary-searches for a cell index by key. The arena looks the key up
    /// in its level's dictionary once and searches value ids.
    pub fn find(&self, key: &str) -> Option<usize> {
        match self {
            CowNode::Arena {
                cells, interner, ..
            } => {
                let id = interner.get(key)?;
                cells.binary_search_by_key(&id, |c| c.key).ok()
            }
            CowNode::Owned(n) => n.cells.binary_search_by(|c| c.key.as_str().cmp(key)).ok(),
        }
    }

    /// First cell index whose key is `>= bound`.
    pub fn lower_bound(&self, bound: &str) -> usize {
        match self {
            CowNode::Arena {
                cells, interner, ..
            } => cells.partition_point(|c| interner.resolve(c.key) < bound),
            CowNode::Owned(n) => n.cells.partition_point(|c| c.key.as_str() < bound),
        }
    }
}

/// Failure of a generic traversal: either the source failed to produce a
/// node, or the produced nodes violate the DWARF shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraverseError<E> {
    /// The node source itself failed (store I/O, missing row, ...).
    Source(E),
    /// The node graph is structurally inconsistent with the schema.
    Inconsistent(String),
}

impl<E: std::fmt::Display> std::fmt::Display for TraverseError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraverseError::Source(e) => write!(f, "node source error: {e}"),
            TraverseError::Inconsistent(msg) => write!(f, "inconsistent cube: {msg}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for TraverseError<E> {}

/// Anything that can resolve node ids to node views.
///
/// The lifetime `'s` is the lifetime of the *underlying data*, not of the
/// `&mut self` borrow: implementations either hand out views borrowing
/// longer-lived storage (the arena) or `'static` owned nodes (store
/// caches). That decoupling is what lets the traversal keep a parent view
/// while fetching children.
pub trait NodeSource<'s> {
    /// Source failure type ([`Infallible`] for the arena).
    type Err;

    /// Number of dimensions of the cube being traversed.
    fn num_dims(&self) -> usize;

    /// The root node, or `None` for an empty cube.
    fn root(&self) -> Option<SourceNodeId>;

    /// Resolves a node id to a view of its cells, ALL pointer and total.
    fn node(&mut self, id: SourceNodeId) -> Result<CowNode<'s>, Self::Err>;
}

/// The trivial [`NodeSource`]: a borrowed in-memory [`Dwarf`] arena.
#[derive(Debug, Clone, Copy)]
pub struct ArenaSource<'c> {
    cube: &'c Dwarf,
}

impl<'c> ArenaSource<'c> {
    /// Wraps a built cube.
    pub fn new(cube: &'c Dwarf) -> ArenaSource<'c> {
        ArenaSource { cube }
    }
}

impl<'c> NodeSource<'c> for ArenaSource<'c> {
    type Err = Infallible;

    fn num_dims(&self) -> usize {
        self.cube.num_dims()
    }

    fn root(&self) -> Option<SourceNodeId> {
        (!self.cube.is_empty()).then(|| self.cube.root() as SourceNodeId)
    }

    fn node(&mut self, id: SourceNodeId) -> Result<CowNode<'c>, Infallible> {
        let nr = self.cube.node(id as NodeId);
        Ok(CowNode::Arena {
            cells: nr.cells,
            interner: self.cube.interner(nr.node.level as usize),
            all_child: (nr.node.all_child != NONE_NODE)
                .then_some(nr.node.all_child as SourceNodeId),
            total: nr.node.total,
        })
    }
}

/// Unwraps a traversal result over an infallible source. The in-memory
/// arena upholds the DWARF invariants by construction, so both error arms
/// are unreachable.
pub(crate) fn unwrap_infallible<T>(r: Result<T, TraverseError<Infallible>>) -> T {
    match r {
        Ok(t) => t,
        Err(TraverseError::Source(never)) => match never {},
        Err(TraverseError::Inconsistent(msg)) => {
            unreachable!("in-memory cube violated traversal invariants: {msg}")
        }
    }
}

/// What the walk does at one level.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step<'a> {
    /// Follow the ALL cell.
    All,
    /// Descend the value cells whose keys fall in `[lo, hi]` (`None`:
    /// unbounded); `keyed` adds each cell's key to the emitted row.
    Cells {
        lo: Option<&'a str>,
        hi: Option<&'a str>,
        keyed: bool,
    },
}

impl<'a> Step<'a> {
    /// Every value cell, keyed: a grouped level, or an unconstrained one of
    /// a slice.
    pub(crate) const EVERY: Step<'static> = Step::Cells {
        lo: None,
        hi: None,
        keyed: true,
    };

    /// Exactly the cell keyed `v`, not keyed in the output.
    pub(crate) fn value(v: &'a str) -> Step<'a> {
        Step::Cells {
            lo: Some(v),
            hi: Some(v),
            keyed: false,
        }
    }

    /// One range coordinate. A slice (`keyed`) lists the rows under an
    /// unconstrained level instead of aggregating it out.
    fn of(sel: &'a RangeSel, keyed: bool) -> Step<'a> {
        let (lo, hi) = match sel {
            RangeSel::All if keyed => return Step::EVERY,
            RangeSel::All => return Step::All,
            RangeSel::Value(v) => (v, v),
            RangeSel::Between(lo, hi) => (lo, hi),
        };
        Step::Cells {
            lo: Some(lo),
            hi: Some(hi),
            keyed,
        }
    }
}

/// The one traversal: a depth-first walk from the root that applies
/// `steps[level]` at each level and calls `emit(keys, measure)` per row it
/// reaches, in key order; `keys` are the keys of the `keyed` levels on the
/// row's path. An inverted interval (`lo > hi`) matches no cell.
///
/// **Stop rule.** Once every later step is [`Step::All`], the walk emits a
/// cell's measure, or on an ALL step the node's total, instead of
/// descending: the DWARF invariant ([`Dwarf::validate`]) makes a cell's
/// measure equal to its child's total. At every level it visits, the walk
/// fails with [`TraverseError::Inconsistent`] on a non-leaf node without an
/// ALL pointer, a non-leaf cell without a pointer and a leaf cell with one.
///
/// Panics if `steps.len()` differs from the source's dimension count.
pub(crate) fn walk<'s, S: NodeSource<'s>>(
    src: &mut S,
    steps: &[Step<'_>],
    emit: &mut impl FnMut(&[String], i64),
) -> Result<(), TraverseError<S::Err>> {
    assert_eq!(
        steps.len(),
        src.num_dims(),
        "selection arity must match dimensions"
    );
    let Some(root) = src.root() else {
        return Ok(());
    };
    // The first level from which every step is ALL.
    let stop = steps
        .iter()
        .rposition(|s| !matches!(s, Step::All))
        .map_or(0, |at| at + 1);
    walk_from(src, root, 0, steps, stop, &mut Vec::new(), emit)
}

/// [`walk`] from node `id` at `level`.
fn walk_from<'s, S: NodeSource<'s>>(
    src: &mut S,
    id: SourceNodeId,
    level: usize,
    steps: &[Step<'_>],
    stop: usize,
    keys: &mut Vec<String>,
    emit: &mut impl FnMut(&[String], i64),
) -> Result<(), TraverseError<S::Err>> {
    let node = src.node(id).map_err(TraverseError::Source)?;
    if node.is_empty() {
        return Ok(());
    }
    let leaf = level + 1 == steps.len();
    let all = node.all_child();
    if all.is_none() && !leaf {
        return Err(inconsistent("non-leaf node has no ALL pointer", level));
    }
    let (lo, hi, keyed) = match steps[level] {
        Step::All => {
            return match all {
                Some(all) if level < stop => {
                    walk_from(src, all, level + 1, steps, stop, keys, emit)
                }
                _ => {
                    emit(keys, node.total());
                    Ok(())
                }
            }
        }
        Step::Cells { lo, hi, keyed } => (lo, hi, keyed),
    };
    // An exact match is one search, with no bound left to check. A value
    // step's bounds are one string, so the pointer test settles it.
    let (cells, hi) = match (lo, hi) {
        (Some(lo), Some(hi)) if std::ptr::eq(lo, hi) || lo == hi => {
            (node.find(lo).map_or(0..0, |i| i..i + 1), None)
        }
        _ => (lo.map_or(0, |lo| node.lower_bound(lo))..node.len(), hi),
    };
    for i in cells {
        if hi.is_some_and(|hi| node.key(i) > hi) {
            break;
        }
        let child = cell_child(&node, i, leaf, level)?;
        if keyed {
            keys.push(node.key(i).to_string());
        }
        match child {
            Some(child) if level + 1 < stop => {
                walk_from(src, child, level + 1, steps, stop, keys, emit)?
            }
            _ => emit(keys, node.measure(i)),
        }
        if keyed {
            keys.pop();
        }
    }
    Ok(())
}

/// The child of cell `i`, which a non-leaf cell must have and a leaf cell
/// must not.
#[inline]
fn cell_child<E>(
    node: &CowNode<'_>,
    i: usize,
    leaf: bool,
    level: usize,
) -> Result<Option<SourceNodeId>, TraverseError<E>> {
    match (node.child(i), leaf) {
        (None, false) => Err(inconsistent("non-leaf cell lacks a pointer node", level)),
        (Some(_), true) => Err(inconsistent("leaf cell has a pointer node", level)),
        (child, _) => Ok(child),
    }
}

/// A structural defect found at `level`.
#[cold]
fn inconsistent<E>(what: &str, level: usize) -> TraverseError<E> {
    TraverseError::Inconsistent(format!("{what} at level {level}"))
}

/// Point / group-by query over any source: one [`Selection`] per dimension.
///
/// Panics if `sel.len()` differs from the source's dimension count.
pub fn point_over<'s, S: NodeSource<'s>>(
    src: &mut S,
    sel: &[Selection],
) -> Result<Option<i64>, TraverseError<S::Err>> {
    let steps: Vec<Step> = sel
        .iter()
        .map(|s| match s {
            Selection::All => Step::All,
            Selection::Value(v) => Step::value(v),
        })
        .collect();
    let mut out = None;
    walk(src, &steps, &mut |_, m| out = Some(m))?;
    Ok(out)
}

/// Range aggregate over any source: one [`RangeSel`] per dimension, the
/// matching measures combined with `agg` (the cube schema's).
///
/// Panics if `sel.len()` differs from the source's dimension count.
pub fn range_over<'s, S: NodeSource<'s>>(
    src: &mut S,
    sel: &[RangeSel],
    agg: AggFn,
) -> Result<Option<i64>, TraverseError<S::Err>> {
    let steps: Vec<Step> = sel.iter().map(|s| Step::of(s, false)).collect();
    let mut acc = None;
    walk(src, &steps, &mut |_, m| {
        acc = Some(acc.map_or(m, |a| agg.combine(a, m)))
    })?;
    Ok(acc)
}

/// Slice over any source: the base fact rows (string keys + aggregated
/// measures) falling inside `sel`, in sorted key order.
///
/// Panics if `sel.len()` differs from the source's dimension count.
pub fn slice_over<'s, S: NodeSource<'s>>(
    src: &mut S,
    sel: &[RangeSel],
) -> Result<KeyedRows, TraverseError<S::Err>> {
    let steps: Vec<Step> = sel.iter().map(|s| Step::of(s, true)).collect();
    let mut out = Vec::new();
    walk(src, &steps, &mut |keys, m| out.push((keys.to_vec(), m)))?;
    Ok(out)
}

/// GROUP BY over any source. `mask[level]` says whether that dimension is
/// grouped (descend value cells) or aggregated out (descend the ALL cell).
/// Returns `(group key, aggregate)` rows sorted by group key.
///
/// Panics if `mask.len()` differs from the source's dimension count.
pub fn group_by_over<'s, S: NodeSource<'s>>(
    src: &mut S,
    mask: &[bool],
) -> Result<KeyedRows, TraverseError<S::Err>> {
    let steps: Vec<Step> = mask
        .iter()
        .map(|&grouped| if grouped { Step::EVERY } else { Step::All })
        .collect();
    let mut out = Vec::new();
    walk(src, &steps, &mut |keys, m| out.push((keys.to_vec(), m)))?;
    Ok(out)
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
        Dwarf::build(schema, ts)
    }

    /// An owned mirror of a cube, exercising the `CowNode::Owned` arm the
    /// way store-backed sources do.
    struct OwnedMirror {
        nodes: std::collections::HashMap<SourceNodeId, Rc<OwnedNode>>,
        root: Option<SourceNodeId>,
        num_dims: usize,
    }

    impl OwnedMirror {
        fn of(cube: &Dwarf) -> OwnedMirror {
            let mut nodes = std::collections::HashMap::new();
            for id in cube.node_ids() {
                let nr = cube.node(id);
                let level = nr.node.level as usize;
                let cells = nr
                    .cells
                    .iter()
                    .map(|c| OwnedCell {
                        key: cube.interner(level).resolve(c.key).to_string(),
                        measure: c.measure,
                        child: (c.child != NONE_NODE).then_some(c.child as SourceNodeId),
                    })
                    .collect();
                let all_child =
                    (nr.node.all_child != NONE_NODE).then_some(nr.node.all_child as SourceNodeId);
                nodes.insert(
                    id as SourceNodeId,
                    Rc::new(OwnedNode::from_cells(cells, all_child, nr.node.total)),
                );
            }
            OwnedMirror {
                nodes,
                root: (!cube.is_empty()).then(|| cube.root() as SourceNodeId),
                num_dims: cube.num_dims(),
            }
        }
    }

    impl NodeSource<'static> for OwnedMirror {
        type Err = String;

        fn num_dims(&self) -> usize {
            self.num_dims
        }

        fn root(&self) -> Option<SourceNodeId> {
            self.root
        }

        fn node(&mut self, id: SourceNodeId) -> Result<CowNode<'static>, String> {
            self.nodes
                .get(&id)
                .cloned()
                .map(CowNode::Owned)
                .ok_or_else(|| format!("no node {id}"))
        }
    }

    #[test]
    fn owned_mirror_matches_arena_queries() {
        let c = cube();
        let mut mirror = OwnedMirror::of(&c);
        let sels = [
            vec![Selection::All, Selection::All],
            vec![Selection::value("mon"), Selection::All],
            vec![Selection::value("mon"), Selection::value("b")],
            vec![Selection::All, Selection::value("a")],
            vec![Selection::value("fri"), Selection::All],
        ];
        for sel in &sels {
            assert_eq!(point_over(&mut mirror, sel).unwrap(), c.point(sel));
        }
        let ranges = [
            vec![RangeSel::All, RangeSel::All],
            vec![RangeSel::between("mon", "tue"), RangeSel::All],
            vec![RangeSel::All, RangeSel::between("b", "c")],
            vec![RangeSel::between("z", "a"), RangeSel::All],
            vec![RangeSel::value("tue"), RangeSel::value("b")],
        ];
        for sel in &ranges {
            assert_eq!(
                range_over(&mut mirror, sel, AggFn::Sum).unwrap(),
                c.range(sel)
            );
            assert_eq!(slice_over(&mut mirror, sel).unwrap(), c.slice(sel));
        }
        for mask in [[false, false], [true, false], [false, true], [true, true]] {
            let dims: Vec<&str> = ["day", "station"]
                .iter()
                .zip(mask)
                .filter_map(|(d, g)| g.then_some(*d))
                .collect();
            assert_eq!(
                group_by_over(&mut mirror, &mask).unwrap(),
                c.group_by(&dims).unwrap()
            );
        }
    }

    #[test]
    fn source_errors_surface() {
        let c = cube();
        let mut mirror = OwnedMirror::of(&c);
        mirror.nodes.remove(&mirror.root.unwrap());
        let r = point_over(&mut mirror, &[Selection::All, Selection::All]);
        assert!(matches!(r, Err(TraverseError::Source(_))));
    }

    #[test]
    fn inconsistent_graphs_are_detected() {
        let c = cube();
        let mut mirror = OwnedMirror::of(&c);
        let root = mirror.root.unwrap();
        let broken = {
            let n = mirror.nodes[&root].as_ref().clone();
            let cells = n
                .cells
                .iter()
                .map(|c| OwnedCell {
                    child: None,
                    ..c.clone()
                })
                .collect();
            Rc::new(OwnedNode::from_cells(cells, n.all_child, n.total))
        };
        mirror.nodes.insert(root, broken);
        let r = point_over(&mut mirror, &[Selection::value("mon"), Selection::All]);
        assert!(matches!(r, Err(TraverseError::Inconsistent(_))));
    }

    #[test]
    fn missing_all_pointers_and_leaf_pointers_are_detected_on_every_walk() {
        let c = cube();
        let root = c.root() as SourceNodeId;
        fn inconsistent<T>(r: Result<T, TraverseError<String>>) -> bool {
            matches!(r, Err(TraverseError::Inconsistent(_)))
        }
        // A root without its ALL pointer fails even a walk that never
        // follows it.
        let mut mirror = OwnedMirror::of(&c);
        let n = mirror.nodes[&root].as_ref().clone();
        let no_all = OwnedNode::from_cells(n.cells.clone(), None, n.total);
        mirror.nodes.insert(root, Rc::new(no_all));
        let slice = [RangeSel::value("mon"), RangeSel::All];
        assert!(inconsistent(slice_over(&mut mirror, &slice)));
        assert!(inconsistent(group_by_over(&mut mirror, &[true, false])));
        // A leaf cell with a pointer fails a walk that reaches it.
        let mut mirror = OwnedMirror::of(&c);
        let leaf = n.cells[0].child.unwrap();
        let l = mirror.nodes[&leaf].as_ref().clone();
        let mut cells = l.cells.clone();
        cells[0].child = Some(root);
        mirror
            .nodes
            .insert(leaf, Rc::new(OwnedNode::from_cells(cells, None, l.total)));
        let point = [Selection::value("mon"), Selection::value("a")];
        assert!(inconsistent(point_over(&mut mirror, &point)));
        let range = [RangeSel::between("a", "z"), RangeSel::value("a")];
        assert!(inconsistent(range_over(&mut mirror, &range, AggFn::Sum)));
    }

    #[test]
    fn empty_cube_is_none_everywhere() {
        let schema = CubeSchema::new(["a", "b"], "m");
        let c = Dwarf::build(schema.clone(), TupleSet::new(&schema));
        let mut src = ArenaSource::new(&c);
        assert_eq!(
            point_over(&mut src, &[Selection::All, Selection::All]).unwrap(),
            None
        );
        assert_eq!(
            range_over(&mut src, &[RangeSel::All, RangeSel::All], AggFn::Sum).unwrap(),
            None
        );
        assert!(slice_over(&mut src, &[RangeSel::All, RangeSel::All])
            .unwrap()
            .is_empty());
        assert!(group_by_over(&mut src, &[true, false]).unwrap().is_empty());
    }
}
