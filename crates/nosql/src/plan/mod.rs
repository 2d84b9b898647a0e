//! Query planning: lowering parsed `SELECT`s into a logical plan tree,
//! choosing an access path from collected statistics, and rendering
//! `EXPLAIN` output (see DESIGN.md §5h).
//!
//! [`plan_select`] does it in three steps:
//!
//! 1. Resolve: every column reference and every literal is bound against
//!    the [`crate::TableDef`] up front — the *only* place name resolution
//!    and literal checking happen, so an unknown column or a mistyped
//!    literal fails identically whether it appears in the projection,
//!    `WHERE`, `GROUP BY`, or `ORDER BY`, and on every access path.
//! 2. Choose the access path from table statistics: `=` or `IN` on the
//!    primary key becomes bloom-checked key probes, on an indexed column a
//!    posting scan, with the literals encoded to keys here; remaining
//!    predicates and the `LIMIT` are pushed into full scans.
//! 3. Annotate every node with row/cost estimates bottom-up; [`explain`]
//!    renders the tree.
//!
//! Execution is elsewhere (`exec`): the plan is pure data and
//! holds no table runtimes, so it can be built, costed, and printed
//! without touching storage.

pub mod explain;
pub mod logical;
pub mod planner;

pub use logical::{
    AggOutput, AggSpec, Estimate, PlanNode, PredTest, Predicate, ScanKind, ScanNode, SelectPlan,
};
pub use planner::{plan_select, TableStats};
