//! Query planning: lowering parsed `SELECT`s into a logical plan tree,
//! choosing an access path by a fixed ranking, and rendering `EXPLAIN`
//! output with its cost estimates (see DESIGN.md §5h).
//!
//! The planner (`plan`; [`plan_select`] outside the crate) does it in two
//! steps, from the schema and the statement alone:
//!
//! 1. Resolve: every column reference and every literal is bound against
//!    the [`crate::TableDef`] up front — the *only* place name resolution
//!    and literal checking happen, so an unknown column or a mistyped
//!    literal fails identically whether it appears in the projection,
//!    `WHERE`, `GROUP BY`, or `ORDER BY`, and on every access path.
//! 2. Choose the access path by rank, never by statistics: `=` or `IN` on
//!    the primary key becomes bloom-checked key probes, on an indexed
//!    column a posting scan, with the literals encoded to keys here;
//!    remaining predicates and the `LIMIT` are pushed into full scans.
//!
//! [`explain`] renders the tree and owns the cost model: it estimates the
//! finished tree bottom-up from [`TableStats`], which the engine gathers
//! for an `EXPLAIN` only.
//!
//! Execution is elsewhere (`exec`): the plan is pure data and
//! holds no table runtimes, so it can be built, costed, and printed
//! without touching storage.

pub mod explain;
pub mod logical;
pub mod planner;

pub use explain::TableStats;
pub use logical::{
    AggOutput, AggSpec, KeyList, PlanNode, PredTest, Predicate, ScanKind, ScanNode, SelectPlan,
};
pub(crate) use planner::plan;
pub use planner::plan_select;
