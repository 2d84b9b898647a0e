//! Store-backed [`NodeSource`] implementations: the cursor layer of the
//! unified read path.
//!
//! [`StoreNodeSource`] answers node lookups from the Table-1 NoSQL layout
//! with one node-row read plus **one batched cell fetch**
//! (`WHERE id IN (...)`) per cold node, and keeps a bounded LRU cache of
//! materialized nodes so warm traversals never touch the store.
//! [`MinStoreNodeSource`] is the same cursor over the Min layout, whose
//! nodes are reconstructed from the `parentNodeId` secondary index
//! (deliberately uncached — the absence of a node construct is the cost
//! §5.1 measures). [`StoredCellSource`] wraps an already-fetched row set,
//! which is how the models' `rebuild()` routes through the same traversal
//! core. All three turn a node's cell rows into an [`OwnedNode`] through
//! one fold, `fold_node`, and the live cursor opens through the one
//! meta-row read the models' `rebuild` uses.

use crate::error::{CoreError, Result};
use crate::mapping::{StoredCell, ALL_KEY};
use crate::models::protocol::NodeRows;
use crate::models::{NosqlDwarfModel, NosqlMinModel};
use sc_dwarf::source::{CowNode, NodeSource, OwnedCell, OwnedNode, SourceNodeId};
use sc_dwarf::CubeSchema;
use sc_encoding::FnvHashMap;
use std::collections::HashMap;
use std::rc::Rc;

/// Default capacity (in nodes) of the [`StoreNodeSource`] LRU cache. Tune
/// per cube with [`StoreNodeSource::open_with_cache`] /
/// [`crate::StoreBackedCube::open_with_cache`].
pub const DEFAULT_NODE_CACHE_CAPACITY: usize = 1024;

/// Per-source read counters, exposed so callers (CLI `--stats`, parity
/// tests) can observe cache behaviour without the global registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Node views answered from the LRU cache.
    pub node_cache_hits: u64,
    /// Node views that had to touch the store.
    pub node_cache_misses: u64,
    /// SELECT statements issued (node rows + cell batches).
    pub store_selects: u64,
    /// Batched `WHERE id IN (...)` cell fetches issued.
    pub batched_selects: u64,
    /// Rows read from the store (node rows + cell rows).
    pub rows_fetched: u64,
}

impl ReadStats {
    /// Fraction of node lookups served from the cache (0 when none ran).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.node_cache_hits + self.node_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.node_cache_hits as f64 / total as f64
        }
    }
}

/// Bounded LRU map of materialized nodes. Eviction scans for the least
/// recently used entry, which is fine at the intended capacities (a few
/// thousand nodes). Hashed with a fixed hasher, so the map's resizes, and
/// with them a query's allocations, repeat exactly from run to run.
#[derive(Debug)]
struct NodeCache {
    cap: usize,
    tick: u64,
    map: FnvHashMap<SourceNodeId, (Rc<OwnedNode>, u64)>,
}

impl NodeCache {
    fn new(cap: usize) -> NodeCache {
        NodeCache {
            cap,
            tick: 0,
            map: FnvHashMap::with_capacity_and_hasher(cap.min(1024), Default::default()),
        }
    }

    fn get(&mut self, id: SourceNodeId) -> Option<Rc<OwnedNode>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&id).map(|(node, stamp)| {
            *stamp = tick;
            node.clone()
        })
    }

    fn put(&mut self, id: SourceNodeId, node: Rc<OwnedNode>) {
        if self.cap == 0 {
            return;
        }
        if self.map.len() >= self.cap && !self.map.contains_key(&id) {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&id, _)| id)
            {
                self.map.remove(&lru);
            }
        }
        self.tick += 1;
        self.map.insert(id, (node, self.tick));
    }
}

/// Folds the cell rows stored under node `id` into a node, splitting off
/// the ALL cell. A cell-less entry node is the empty cube, which is what
/// `empty_entry` says `id` is: the entry node of a cube that stores no cell
/// at all. Any other cell-less node, or value cells with no ALL cell beside
/// them, mean rows were lost.
fn fold_node(id: SourceNodeId, empty_entry: bool, mut cells: Vec<OwnedCell>) -> Result<OwnedNode> {
    let all = cells.iter().position(|cell| cell.key == ALL_KEY);
    match all.map(|at| cells.swap_remove(at)) {
        Some(all) => Ok(OwnedNode::from_cells(cells, all.child, all.measure)),
        None if cells.is_empty() && empty_entry => Ok(OwnedNode::from_cells(cells, None, 0)),
        None if cells.is_empty() => Err(CoreError::Inconsistent(format!(
            "node {id} has no stored cells"
        ))),
        None => Err(CoreError::Inconsistent(format!(
            "node {id} has no ALL cell"
        ))),
    }
}

/// A cube addressed by its stored rows, in NoSQL layout `M`: a cursor whose
/// node lookups read each node's cell rows the way that layout keeps them,
/// behind a bounded LRU cache of materialized nodes. [`crate::store_query`]
/// gives it the query methods of an in-memory cube.
///
/// Over [`NosqlDwarfModel`] (Table 1: `dwarf_node` / `dwarf_cell`) a cold
/// node costs its node row plus one batched cell fetch, and warm
/// traversals never touch the store. Over [`NosqlMinModel`] — see
/// [`MinStoreNodeSource`] — there is no node row to read and no cache.
#[derive(Debug)]
pub struct StoreNodeSource<'a, M = NosqlDwarfModel> {
    model: &'a mut M,
    schema: CubeSchema,
    entry_node_id: i64,
    /// The meta row's `cell_count`: only a cube that stores no cell at all
    /// may have a cell-less entry node.
    cell_count: i64,
    cache: NodeCache,
    stats: ReadStats,
}

/// A cursor over the **NoSQL-Min** layout (`smartcity_min.dwarf_cell`).
///
/// The Min schema stores no node rows, so every lookup must *reconstruct*
/// the node by querying the cell table's `parentNodeId` secondary index —
/// the cost §5.1 anticipates: "the absence of a DWARF Node construct will
/// have a significant impact on query times as DWARF Node reconstruction
/// is required". [`StoreNodeSource::open`] deliberately gives it no cache,
/// so that contrast stays measurable.
pub type MinStoreNodeSource<'a> = StoreNodeSource<'a, NosqlMinModel>;

impl<'a, M: NodeRows> StoreNodeSource<'a, M> {
    /// Opens a stored schema with the layout's node-cache capacity
    /// ([`DEFAULT_NODE_CACHE_CAPACITY`]; none for the Min layout).
    pub fn open(model: &'a mut M, schema_id: i64) -> Result<StoreNodeSource<'a, M>> {
        Self::open_sized(model, schema_id, M::NODE_CACHE)
    }

    fn open_sized(model: &'a mut M, schema_id: i64, cache_capacity: usize) -> Result<Self> {
        let meta = model.stored_meta(schema_id)?;
        Ok(StoreNodeSource {
            model,
            schema: meta.schema,
            entry_node_id: meta.entry_node_id,
            cell_count: meta.cell_count,
            cache: NodeCache::new(cache_capacity),
            stats: ReadStats::default(),
        })
    }

    /// The stored schema's cube schema.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// Read counters accumulated so far (cache hits/misses, SELECTs
    /// issued, rows fetched).
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// Zeroes the read counters; the node cache keeps its contents, so
    /// deltas after a reset measure warm-cache behaviour.
    pub fn reset_stats(&mut self) {
        self.stats = ReadStats::default();
    }
}

impl<'a> StoreNodeSource<'a, NosqlDwarfModel> {
    /// Opens a stored schema with an explicit node-cache capacity in nodes
    /// (`0` disables caching; every traversal step then hits the store).
    /// Table 1's layout only: the Min cursor stays uncached.
    pub fn open_with_cache(
        model: &'a mut NosqlDwarfModel,
        schema_id: i64,
        cache_capacity: usize,
    ) -> Result<StoreNodeSource<'a>> {
        Self::open_sized(model, schema_id, cache_capacity)
    }
}

impl<M: NodeRows> NodeSource<'static> for StoreNodeSource<'_, M> {
    type Err = CoreError;

    fn num_dims(&self) -> usize {
        self.schema.num_dims()
    }

    fn root(&self) -> Option<SourceNodeId> {
        Some(self.entry_node_id)
    }

    fn node(&mut self, id: SourceNodeId) -> std::result::Result<CowNode<'static>, CoreError> {
        let obs = crate::obs::store_query();
        if let Some(node) = self.cache.get(id) {
            self.stats.node_cache_hits += 1;
            obs.node_cache_hits.inc();
            return Ok(CowNode::Owned(node));
        }
        self.stats.node_cache_misses += 1;
        obs.node_cache_misses.inc();
        let _fetch = obs.fetch.start();
        let fetched_before = self.stats.rows_fetched;
        let cells = self.model.node_cells(id, &mut self.stats)?;
        obs.rows_fetched
            .add(self.stats.rows_fetched - fetched_before);
        let empty_entry = id == self.entry_node_id && self.cell_count == 0;
        let node = Rc::new(fold_node(id, empty_entry, cells)?);
        self.cache.put(id, node.clone());
        Ok(CowNode::Owned(node))
    }
}

/// A [`NodeSource`] over an already-fetched row set.
///
/// This is what routes the models' `rebuild()` through the shared
/// traversal core: each model scans its cells into [`StoredCell`]s once,
/// and the reverse mapping walks them with the same generic algorithms the
/// live cursors use.
#[derive(Debug)]
pub struct StoredCellSource {
    nodes: HashMap<SourceNodeId, Rc<OwnedNode>>,
    entry_node_id: i64,
    num_dims: usize,
}

impl StoredCellSource {
    /// Groups fetched cells by their containing node and folds each group
    /// into a node. No cells at all is the empty cube; cells that leave the
    /// entry node without any are an error when the entry node is looked up.
    pub fn new(
        cells: &[StoredCell],
        entry_node_id: i64,
        num_dims: usize,
    ) -> Result<StoredCellSource> {
        let mut grouped: HashMap<SourceNodeId, Vec<OwnedCell>> = HashMap::new();
        if cells.is_empty() {
            grouped.entry(entry_node_id).or_default();
        }
        for c in cells {
            grouped.entry(c.parent_node).or_default().push(OwnedCell {
                key: c.key.clone(),
                measure: c.measure,
                child: c.pointer_node,
            });
        }
        let nodes = grouped
            .into_iter()
            .map(|(id, group)| Ok((id, Rc::new(fold_node(id, cells.is_empty(), group)?))))
            .collect::<Result<_>>()?;
        Ok(StoredCellSource {
            nodes,
            entry_node_id,
            num_dims,
        })
    }
}

impl NodeSource<'static> for StoredCellSource {
    type Err = CoreError;

    fn num_dims(&self) -> usize {
        self.num_dims
    }

    fn root(&self) -> Option<SourceNodeId> {
        Some(self.entry_node_id)
    }

    fn node(&mut self, id: SourceNodeId) -> std::result::Result<CowNode<'static>, CoreError> {
        let node = match self.nodes.get(&id) {
            Some(node) => node.clone(),
            None => Rc::new(fold_node(id, false, Vec::new())?),
        };
        Ok(CowNode::Owned(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: u64) -> Rc<OwnedNode> {
        Rc::new(OwnedNode::from_cells(Vec::new(), None, n as i64))
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache = NodeCache::new(2);
        cache.put(1, node(1));
        cache.put(2, node(2));
        assert!(cache.get(1).is_some()); // 1 is now more recent than 2
        cache.put(3, node(3)); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = NodeCache::new(0);
        cache.put(1, node(1));
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn reinserting_a_cached_id_does_not_evict() {
        let mut cache = NodeCache::new(2);
        cache.put(1, node(1));
        cache.put(2, node(2));
        cache.put(2, node(22));
        assert!(cache.get(1).is_some());
        assert_eq!(cache.get(2).unwrap().total, 22);
    }

    #[test]
    fn read_stats_ratio() {
        let a = ReadStats {
            node_cache_hits: 3,
            node_cache_misses: 1,
            store_selects: 2,
            batched_selects: 1,
            rows_fetched: 9,
        };
        assert!((a.hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(ReadStats::default().hit_ratio(), 0.0);
    }
}
