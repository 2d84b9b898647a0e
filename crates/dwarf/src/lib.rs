//! # sc-dwarf
//!
//! An implementation of the **DWARF** data cube (Sismanis, Deligiannakis,
//! Roussopoulos & Kotidis, *Dwarf: Shrinking the PetaCube*, SIGMOD 2002),
//! the structure at the heart of Scriney & Roantree's smart-city cube
//! pipeline (EDBT 2016).
//!
//! A DWARF is a levelled DAG that materializes **all 2^d group-bys** of a
//! d-dimensional fact table while eliminating both kinds of redundancy:
//!
//! * **prefix coalescing** — tuples sharing a dimension-value prefix share
//!   the path that spells that prefix (a by-product of building from sorted
//!   tuples), and
//! * **suffix coalescing** — when a group-by's sub-cube is identical to one
//!   already built (which happens whenever an ALL cell aggregates a single
//!   child), the existing sub-dwarf is *shared*, not copied, so the
//!   duplicate aggregates are never even computed.
//!
//! ## Quick start
//!
//! ```
//! use sc_dwarf::{CubeSchema, TupleSet, Dwarf, Selection};
//!
//! let schema = CubeSchema::new(["country", "city", "station"], "bikes");
//! let mut tuples = TupleSet::new(&schema);
//! tuples.push(["Ireland", "Dublin", "Fenian St"], 3);
//! tuples.push(["Ireland", "Dublin", "Smithfield"], 5);
//! tuples.push(["France", "Paris", "Bastille"], 2);
//!
//! let cube = Dwarf::build(schema, tuples);
//! // Fully-specified point query:
//! assert_eq!(cube.point(&[Selection::value("Ireland"),
//!                         Selection::value("Dublin"),
//!                         Selection::value("Fenian St")]), Some(3));
//! // Group-by with ALLs — answered from materialized aggregates:
//! assert_eq!(cube.point(&[Selection::value("Ireland"),
//!                         Selection::All,
//!                         Selection::All]), Some(8));
//! assert_eq!(cube.point(&[Selection::All, Selection::All, Selection::All]), Some(10));
//! ```
//!
//! ## Module map
//!
//! * [`schema`] — cube schema (dimension names, measure, aggregate function)
//! * [`intern`] — per-dimension string interning with sorted value ids
//! * `tuple` — tuple collection, sorting, duplicate pre-aggregation
//! * [`builder`] — the one-pass construction algorithm + `SuffixCoalesce`
//! * [`cube`] — the built structure, stats, validation, tuple re-extraction
//! * [`query`] — the point, range and slice front door of a built cube
//! * [`groupby`] — `GROUP BY` over any subset of dimensions
//! * [`source`] — the `NodeSource` trait and the one walk behind every
//!   query, shared by the in-memory and store-backed read paths
//! * [`merge`] — cube merging and the delta buffer for incremental updates,
//!   all rebuilt through `Dwarf::from_aggregated_rows`
//! * [`hierarchy`] — the Hierarchical-DWARF extension (rollup / drilldown)
//! * [`dot`] — Graphviz rendering (the paper's Figure 2)

pub mod builder;
pub mod cube;
pub mod dot;
pub mod groupby;
pub mod hierarchy;
pub mod intern;
pub mod merge;
mod obs;
pub mod query;
pub mod schema;
pub mod source;
pub mod tuple;

pub use cube::{CellRef, CubeStats, Dwarf, NodeId, NodeRef, NONE_NODE};
pub use hierarchy::{HierarchicalCube, Hierarchy};
pub use intern::{Interner, ValueId};
pub use merge::{DeltaBuffer, MergeAccumulator};
pub use query::{RangeSel, Selection};
pub use schema::{AggFn, CubeSchema};
pub use source::{
    group_by_over, point_over, range_over, slice_over, ArenaSource, CowNode, NodeSource, OwnedCell,
    OwnedNode, SourceNodeId, TraverseError,
};
pub use tuple::TupleSet;
