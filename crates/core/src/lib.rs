//! # sc-core
//!
//! The paper's contribution: a **bi-directional mapping between in-memory
//! DWARF cubes and database storage**, in the four physical schemas the
//! evaluation compares (§5):
//!
//! | Model | Store | Layout |
//! |---|---|---|
//! | [`models::NosqlDwarfModel`] | `sc-nosql` | Table 1: `DWARF_Schema` + `DWARF_Node` (with `set<int>` edges) + `DWARF_Cell` |
//! | [`models::NosqlMinModel`]   | `sc-nosql` | Table 3: cube + cell only, two secondary indexes |
//! | [`models::MysqlDwarfModel`] | `sc-relational` | Figure 4: `NODE`/`CELL` + `NODE_CHILDREN`/`CELL_CHILDREN` edge tables |
//! | [`models::MysqlMinModel`]   | `sc-relational` | MySQL port of the Min layout |
//!
//! The four models share **one store/rebuild protocol**: a model file says
//! only what the paper says differs (DDL, tables, row shapes, how its rows
//! become stored cells), and the drivers in `models` do the rest over two
//! thin engine adapters. The forward direction ([`mapping::MappedDwarf`] +
//! `store`) walks the DWARF breadth-first with a visited-lookup table —
//! nodes are multi-parented, so each is transformed exactly once (§4) — and
//! streams one prepared INSERT per record. The reverse direction (`rebuild`)
//! reads the records back, checks their count against the meta row, and
//! reconstructs a [`sc_dwarf::Dwarf`] that is *identical* to the original
//! (property-tested). [`store_query`] answers point, range, slice and
//! group-by queries directly from stored rows — no full rebuild — through
//! the shared [`sc_dwarf::source::NodeSource`] traversal core:
//! [`StoreBackedCube`] is the [`node_source::StoreNodeSource`] cursor over
//! either NoSQL layout, which for Table 1 batches each node's cell fetch
//! into one `WHERE id IN (...)` round-trip behind a bounded LRU node cache.
//! Every store-side source folds a node's cell rows through one rule, so an
//! empty cube and a lost row mean the same thing on every path.
//! [`CubeWarehouse`] is where a window's cube — from the sequential
//! `sc_ingest::StreamPipeline` or the sharded `sc_stream::StreamIngestor` —
//! is stored: `store_window(&cube, is_cube)` maps and stores it in one
//! schema model and keeps the list of stored reports.
//!
//! ```
//! use sc_core::models::{NosqlDwarfModel, SchemaModel};
//! use sc_core::mapping::MappedDwarf;
//! use sc_dwarf::{CubeSchema, Dwarf, TupleSet, Selection};
//!
//! let schema = CubeSchema::new(["country", "station"], "bikes");
//! let mut ts = TupleSet::new(&schema);
//! ts.push(["Ireland", "Fenian St"], 3);
//! let cube = Dwarf::build(schema, ts);
//!
//! let mut model = NosqlDwarfModel::in_memory();
//! model.create_schema().unwrap();
//! let stored = model.store(&MappedDwarf::new(&cube), &cube, false).unwrap();
//! let back = model.rebuild(stored.schema_id).unwrap();
//! assert_eq!(back.extract_tuples(), cube.extract_tuples());
//! ```

pub mod error;
pub mod mapping;
pub mod models;
pub mod node_source;
mod obs;
pub mod store_query;
pub mod transform;
pub mod warehouse;

pub use error::CoreError;
pub use mapping::{MappedDwarf, ALL_KEY};
pub use models::{
    ModelKind, MysqlDwarfModel, MysqlMinModel, NosqlDwarfModel, NosqlMinModel, SchemaModel,
    StoreReport,
};
pub use node_source::{
    MinStoreNodeSource, ReadStats, StoreNodeSource, StoredCellSource, DEFAULT_NODE_CACHE_CAPACITY,
};
pub use store_query::StoreBackedCube;
pub use warehouse::CubeWarehouse;
