//! The one-pass DWARF construction algorithm.
//!
//! This follows Sismanis et al.'s SIGMOD 2002 algorithm: scan the sorted
//! fact tuples once, keeping the rightmost root-to-leaf path of *open*
//! nodes. When a tuple no longer shares a prefix with its predecessor, the
//! nodes below the shared prefix are *closed* bottom-up; closing a node
//! computes its ALL cell by `SuffixCoalesce`-ing its cells' sub-dwarfs.
//!
//! `SuffixCoalesce` is where both savings happen:
//!
//! * given a **single** input sub-dwarf it returns it unchanged — the ALL
//!   cell *shares* the existing structure (suffix coalescing), and
//! * given several inputs it k-way merges their cells, recursing per key;
//!   a memo cache collapses repeated coalesces of the same input set.

use crate::cube::{Cell, Dwarf, Node, NodeId, NONE_NODE};
use crate::schema::{AggFn, CubeSchema};
use crate::tuple::TupleSet;
use sc_encoding::FnvHashMap;

/// Builds a cube over `tuples`.
pub(crate) fn build(schema: CubeSchema, tuples: TupleSet) -> Dwarf {
    let _span = crate::obs::dwarf().build.start();
    let mut sorted = tuples.into_sorted();
    sorted.check_invariants();
    let interners = sorted.take_interners();
    let d = schema.num_dims();
    let mut b = Builder {
        agg: schema.agg(),
        num_dims: d,
        cells: Vec::new(),
        nodes: Vec::new(),
        cache: FnvHashMap::default(),
        cache_hits: 0,
    };

    let n = sorted.len();
    let root = if n == 0 {
        // Empty cube: a single cell-less root.
        b.push_node(Vec::new(), NONE_NODE, 0, 0)
    } else {
        let mut open: Vec<Vec<TempCell>> = (0..d).map(|_| Vec::new()).collect();
        for t in 0..n {
            let prefix = if t == 0 {
                0
            } else {
                let p = sorted.common_prefix(t - 1, t);
                debug_assert!(p < d, "duplicates were pre-aggregated");
                // Close the levels whose prefix changed, bottom-up.
                for level in ((p + 1)..d).rev() {
                    let sealed = b.seal(std::mem::take(&mut open[level]), level);
                    let parent_cell = open[level - 1]
                        .last_mut()
                        .expect("parent level has an open cell");
                    parent_cell.child = sealed;
                }
                p
            };
            // Extend the open path with the new tuple's suffix.
            let key = sorted.key(t);
            for (level, slot) in open.iter_mut().enumerate().take(d).skip(prefix) {
                slot.push(TempCell {
                    key: key[level],
                    child: NONE_NODE,
                    measure: if level == d - 1 { sorted.measure(t) } else { 0 },
                });
            }
        }
        // End of input: close everything, bottom-up, then the root.
        for level in (1..d).rev() {
            let sealed = b.seal(std::mem::take(&mut open[level]), level);
            let parent_cell = open[level - 1]
                .last_mut()
                .expect("parent level has an open cell");
            parent_cell.child = sealed;
        }
        b.seal(std::mem::take(&mut open[0]), 0)
    };

    if sc_obs::enabled() {
        let o = crate::obs::dwarf();
        o.nodes.add(b.nodes.len() as u64);
        o.cells.add(b.cells.len() as u64);
        o.tuples.add(n as u64);
        o.coalesce_cache_hits.add(b.cache_hits);
    }
    Dwarf {
        schema,
        interners,
        cells: b.cells,
        nodes: b.nodes,
        root,
        tuple_count: n,
    }
}

/// A cell of a still-open node.
#[derive(Debug, Clone, Copy)]
struct TempCell {
    key: u32,
    child: NodeId,
    measure: i64,
}

struct Builder {
    agg: AggFn,
    num_dims: usize,
    cells: Vec<Cell>,
    nodes: Vec<Node>,
    /// Memo: canonical (sorted, deduped) coalesce inputs -> result node.
    cache: FnvHashMap<Box<[NodeId]>, NodeId>,
    cache_hits: u64,
}

impl Builder {
    fn push_node(&mut self, cells: Vec<Cell>, all_child: NodeId, total: i64, level: u8) -> NodeId {
        let cells_start = u32::try_from(self.cells.len()).expect("cell arena overflow");
        let cells_len = cells.len() as u32;
        self.cells.extend(cells);
        let id = u32::try_from(self.nodes.len()).expect("node arena overflow");
        self.nodes.push(Node {
            cells_start,
            cells_len,
            all_child,
            total,
            level,
        });
        id
    }

    fn total_of(&self, id: NodeId) -> i64 {
        self.nodes[id as usize].total
    }

    fn node_cells(&self, id: NodeId) -> &[Cell] {
        let n = &self.nodes[id as usize];
        &self.cells[n.cells_start as usize..(n.cells_start + n.cells_len) as usize]
    }

    /// Closes an open node: computes its ALL cell and commits it to the
    /// arena.
    fn seal(&mut self, open_cells: Vec<TempCell>, level: usize) -> NodeId {
        let leaf = level == self.num_dims - 1;
        debug_assert!(!open_cells.is_empty(), "sealing an empty open node");
        if leaf {
            let total = self
                .agg
                .combine_all(open_cells.iter().map(|c| c.measure))
                .expect("non-empty");
            let cells = open_cells
                .into_iter()
                .map(|c| Cell {
                    key: c.key,
                    child: NONE_NODE,
                    measure: c.measure,
                })
                .collect();
            self.push_node(cells, NONE_NODE, total, level as u8)
        } else {
            let children: Vec<NodeId> = open_cells
                .iter()
                .map(|c| {
                    debug_assert_ne!(c.child, NONE_NODE, "non-leaf open cell unsealed");
                    c.child
                })
                .collect();
            let cells: Vec<Cell> = open_cells
                .into_iter()
                .map(|c| Cell {
                    key: c.key,
                    child: c.child,
                    measure: self.total_of(c.child),
                })
                .collect();
            let all_child = self.suffix_coalesce(&children);
            let total = self.total_of(all_child);
            self.push_node(cells, all_child, total, level as u8)
        }
    }

    /// `SuffixCoalesce`: the sub-dwarf aggregating the union of `inputs`.
    fn suffix_coalesce(&mut self, inputs: &[NodeId]) -> NodeId {
        // Canonicalize so the memo cache hits regardless of input order.
        let mut canon: Vec<NodeId> = inputs.to_vec();
        canon.sort_unstable();
        canon.dedup();
        if canon.len() == 1 {
            // Share the existing sub-dwarf: this is suffix coalescing.
            return canon[0];
        }
        if let Some(&hit) = self.cache.get(canon.as_slice()) {
            self.cache_hits += 1;
            return hit;
        }
        let level = self.nodes[canon[0] as usize].level;
        debug_assert!(
            canon
                .iter()
                .all(|&id| self.nodes[id as usize].level == level),
            "coalesce inputs at mixed levels"
        );
        let leaf = level as usize == self.num_dims - 1;

        // K-way merge of the inputs' (sorted) cell lists.
        let mut heads: Vec<usize> = vec![0; canon.len()];
        let mut merged: Vec<Cell> = Vec::new();
        let mut merged_children: Vec<NodeId> = Vec::new();
        let mut scratch: Vec<NodeId> = Vec::new();
        loop {
            // Find the smallest pending key across inputs.
            let mut min_key: Option<u32> = None;
            for (i, &id) in canon.iter().enumerate() {
                let cells = self.node_cells(id);
                if let Some(c) = cells.get(heads[i]) {
                    min_key = Some(min_key.map_or(c.key, |m: u32| m.min(c.key)));
                }
            }
            let Some(key) = min_key else { break };
            // Gather every input's cell with that key.
            scratch.clear();
            let mut measure_acc: Option<i64> = None;
            for (i, &id) in canon.iter().enumerate() {
                let cell = {
                    let cells = self.node_cells(id);
                    match cells.get(heads[i]) {
                        Some(c) if c.key == key => *c,
                        _ => continue,
                    }
                };
                heads[i] += 1;
                if leaf {
                    measure_acc = Some(match measure_acc {
                        Some(acc) => self.agg.combine(acc, cell.measure),
                        None => cell.measure,
                    });
                } else {
                    scratch.push(cell.child);
                }
            }
            if leaf {
                merged.push(Cell {
                    key,
                    child: NONE_NODE,
                    measure: measure_acc.expect("at least one match per key"),
                });
            } else {
                let child = self.suffix_coalesce(&scratch.clone());
                merged_children.push(child);
                merged.push(Cell {
                    key,
                    child,
                    measure: self.total_of(child),
                });
            }
        }
        debug_assert!(!merged.is_empty(), "coalesce of non-empty nodes");

        let (all_child, total) = if leaf {
            (
                NONE_NODE,
                self.agg
                    .combine_all(merged.iter().map(|c| c.measure))
                    .expect("non-empty"),
            )
        } else {
            let all = self.suffix_coalesce(&merged_children);
            (all, self.total_of(all))
        };
        let result = self.push_node(merged, all_child, total, level);
        self.cache.insert(canon.into_boxed_slice(), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Selection;
    use crate::CubeSchema;

    fn schema() -> CubeSchema {
        CubeSchema::new(["country", "city", "station"], "bikes")
    }

    fn paper_like_tuples() -> TupleSet {
        let mut ts = TupleSet::new(&schema());
        ts.push(["Ireland", "Dublin", "Fenian St"], 3);
        ts.push(["Ireland", "Dublin", "Smithfield"], 5);
        ts.push(["Ireland", "Cork", "Patrick St"], 2);
        ts.push(["France", "Paris", "Bastille"], 7);
        ts
    }

    #[test]
    fn single_tuple_cube() {
        let mut ts = TupleSet::new(&schema());
        ts.push(["Ireland", "Dublin", "Fenian St"], 3);
        let cube = Dwarf::build(schema(), ts);
        cube.validate();
        assert_eq!(
            cube.node_count(),
            3,
            "one node per level, all shared by ALL cells"
        );
        assert_eq!(cube.cell_count(), 3);
        assert_eq!(
            cube.point(&[Selection::All, Selection::All, Selection::All]),
            Some(3)
        );
    }

    #[test]
    fn empty_cube() {
        let ts = TupleSet::new(&schema());
        let cube = Dwarf::build(schema(), ts);
        assert!(cube.is_empty());
        assert_eq!(
            cube.point(&[Selection::All, Selection::All, Selection::All]),
            None
        );
    }

    #[test]
    fn suffix_coalescing_shares_single_child_subdwarfs() {
        let cube = Dwarf::build(schema(), paper_like_tuples());
        cube.validate();
        // France has a single city which has a single station: the ALL
        // pointers at those levels must *share* the value cells' children.
        let france = cube.interner(0).get("France").unwrap();
        let root = cube.node(cube.root());
        let france_cell = root.find(france).unwrap();
        let france_node = cube.node(france_cell.child);
        assert_eq!(france_node.cells.len(), 1);
        assert_eq!(
            france_node.node.all_child, france_node.cells[0].child,
            "ALL cell must share the single child's sub-dwarf"
        );
    }

    #[test]
    fn group_by_aggregates_are_correct() {
        let cube = Dwarf::build(schema(), paper_like_tuples());
        let all = Selection::All;
        let v = Selection::value;
        assert_eq!(
            cube.point(&[v("Ireland"), all.clone(), all.clone()]),
            Some(10)
        );
        assert_eq!(
            cube.point(&[v("France"), all.clone(), all.clone()]),
            Some(7)
        );
        assert_eq!(
            cube.point(&[all.clone(), v("Dublin"), all.clone()]),
            Some(8)
        );
        assert_eq!(
            cube.point(&[all.clone(), all.clone(), v("Bastille")]),
            Some(7)
        );
        assert_eq!(
            cube.point(&[all.clone(), all.clone(), all.clone()]),
            Some(17)
        );
        assert_eq!(
            cube.point(&[v("Ireland"), v("Dublin"), v("Fenian St")]),
            Some(3)
        );
        assert_eq!(cube.point(&[v("Ireland"), v("Paris"), all]), None);
    }

    #[test]
    fn one_dimensional_cube() {
        let schema = CubeSchema::new(["station"], "bikes");
        let mut ts = TupleSet::new(&schema);
        ts.push(["a"], 1);
        ts.push(["b"], 2);
        ts.push(["a"], 4);
        let cube = Dwarf::build(schema, ts);
        cube.validate();
        assert_eq!(cube.node_count(), 1);
        assert_eq!(cube.point(&[Selection::value("a")]), Some(5));
        assert_eq!(cube.point(&[Selection::All]), Some(7));
    }

    #[test]
    fn eight_dimensional_cube_matches_paper_shape() {
        // The paper's cubes all have 8 dimensions.
        let dims: Vec<String> = (0..8).map(|i| format!("d{i}")).collect();
        let schema = CubeSchema::new(dims, "m");
        let mut ts = TupleSet::new(&schema);
        for i in 0..200 {
            let row: Vec<String> = (0..8)
                .map(|d| format!("v{}", (i * (d + 3)) % (4 + d)))
                .collect();
            ts.push(row.iter().map(String::as_str), i as i64);
        }
        let cube = Dwarf::build(schema, ts);
        cube.validate();
        assert_eq!(cube.num_dims(), 8);
        let total: i64 = (0..200).sum();
        assert_eq!(cube.point(&vec![Selection::All; 8]), Some(total));
    }
}
