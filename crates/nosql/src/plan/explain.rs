//! `EXPLAIN` rendering: one indented line per plan node, root first, and
//! the cost model that only `EXPLAIN` reads.
//!
//! Every line ends with a `  (cost: rows≈…, total≈…)` suffix carrying the
//! node's estimates. Consumers that want a stable structural view (the
//! sqllogictest `plan` directive) strip the suffix at `"  (cost:"` —
//! estimates move with table statistics, the tree shape does not.
//!
//! # Cost model
//!
//! The planner ranks access paths and does not cost them
//! ([`super::planner`]); the estimates are computed here, bottom-up over
//! the finished tree, from [`TableStats`] the engine gathers for an
//! `EXPLAIN` only. Costs are abstract units anchored to "stream one row
//! out of a memtable/SSTable merge = 1". The constants are deliberately
//! crude — they rank point probes below posting scans below full scans,
//! as the planner's ranking does:
//!
//! * a **point probe** costs `PROBE` plus one data-block read weighted
//!   by the cache miss rate (bloom filters keep a probe to at most one
//!   block, so the SSTable count does not multiply it),
//! * a **full scan** costs one `SEQ_ROW` per row plus the miss-weighted
//!   block reads at an assumed `ROWS_PER_BLOCK` density,
//! * an **index scan** pays a posting row plus a base-table probe per
//!   estimated match,
//! * selectivities are fixed guesses: `EQ_SELECTIVITY` per equality,
//!   `CMP_SELECTIVITY` per range test, `k × eq` for an `IN` of `k`
//!   values,
//! * grouped aggregation estimates `√n` output groups.

use super::logical::{PlanNode, PredTest, Predicate, ScanKind, ScanNode, SelectPlan};
use crate::schema::TableDef;
use crate::types::CqlValue;

/// Streaming one row out of the memtable/SSTable merge: the unit cost.
const SEQ_ROW: f64 = 1.0;
/// Fixed cost of one key probe (memtable lookup + bloom/fence checks).
const PROBE: f64 = 2.0;
/// One block-cache miss: a VFS read plus block decode.
const BLOCK_READ: f64 = 8.0;
/// Assumed rows per data block when costing scan misses.
const ROWS_PER_BLOCK: f64 = 64.0;
/// Per-row cost of evaluating a predicate conjunction.
const FILTER_ROW: f64 = 0.1;
/// Per-row-per-`log₂(n)` cost of sorting.
const SORT_ROW: f64 = 0.2;
/// Per-row cost of aggregate accumulation.
const AGG_ROW: f64 = 0.2;
/// Per-row cost of projection.
const PROJECT_ROW: f64 = 0.05;
/// Assumed fraction of rows matching an equality on a non-key column.
const EQ_SELECTIVITY: f64 = 0.1;
/// Assumed fraction of rows matching a range comparison.
const CMP_SELECTIVITY: f64 = 1.0 / 3.0;

/// The statistics `EXPLAIN`'s estimates are computed from, gathered by the
/// engine from the structures it already maintains.
#[derive(Debug, Clone, Copy)]
pub struct TableStats {
    /// Estimated live rows (memtable keys + SSTable metas; overcounts
    /// overwritten keys).
    pub rows: u64,
    /// Live SSTables backing the table.
    pub sstables: usize,
    /// Shared block cache hit rate in `[0, 1]`; `0` (cold) when the
    /// cache has served nothing yet.
    pub cache_hit_rate: f64,
}

impl TableStats {
    fn miss_rate(&self) -> f64 {
        (1.0 - self.cache_hit_rate).clamp(0.0, 1.0)
    }

    /// Cost of one point probe.
    fn probe_cost(&self) -> f64 {
        if self.sstables == 0 {
            PROBE
        } else {
            PROBE + self.miss_rate() * BLOCK_READ
        }
    }

    /// Cost of streaming `n` rows off a full scan.
    fn scan_cost(&self, n: f64) -> f64 {
        n * SEQ_ROW + (n / ROWS_PER_BLOCK) * self.miss_rate() * BLOCK_READ
    }
}

fn selectivity(pred: &Predicate) -> f64 {
    match &pred.test {
        PredTest::Eq(_) => EQ_SELECTIVITY,
        PredTest::In(values) => (values.len() as f64 * EQ_SELECTIVITY).min(1.0),
        PredTest::Cmp(..) => CMP_SELECTIVITY,
    }
}

fn combined_selectivity(preds: &[Predicate]) -> f64 {
    preds.iter().map(selectivity).product()
}

/// A scan's estimated rows and cost.
fn scan_estimate(scan: &ScanNode, stats: &TableStats) -> (f64, f64) {
    let n = stats.rows as f64;
    match &scan.kind {
        ScanKind::Full => {
            let filtered = n * combined_selectivity(&scan.residual);
            let filter = if scan.residual.is_empty() {
                0.0
            } else {
                n * FILTER_ROW
            };
            let rows = match scan.pushed_limit {
                Some(limit) => filtered.min(limit as f64),
                None => filtered,
            };
            (rows, stats.scan_cost(n) + filter)
        }
        ScanKind::Key(pred) => {
            let k = pred.values().len() as f64;
            (k, k * stats.probe_cost())
        }
        ScanKind::Index(pred) => {
            let matches = (n * EQ_SELECTIVITY).max(1.0) * pred.values().len() as f64;
            (matches, matches * (SEQ_ROW + stats.probe_cost()))
        }
    }
}

/// The estimator: a node's estimated rows and cumulative cost (the node
/// plus everything below it), computed bottom-up from the scan.
fn estimate(node: &PlanNode, stats: &TableStats) -> (f64, f64) {
    match node {
        PlanNode::Scan(scan) => scan_estimate(scan, stats),
        PlanNode::Filter { input, predicates } => {
            let (rows, cost) = estimate(input, stats);
            (
                rows * combined_selectivity(predicates),
                cost + rows * FILTER_ROW,
            )
        }
        PlanNode::Project { input, .. } => {
            let (rows, cost) = estimate(input, stats);
            (rows, cost + rows * PROJECT_ROW)
        }
        PlanNode::Sort { input, .. } => {
            let (rows, cost) = estimate(input, stats);
            (rows, cost + rows * rows.max(2.0).log2() * SORT_ROW)
        }
        PlanNode::Limit { input, limit } => {
            let (rows, cost) = estimate(input, stats);
            (rows.min(*limit as f64), cost)
        }
        PlanNode::Aggregate {
            input, group_by, ..
        } => {
            let (rows, cost) = estimate(input, stats);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                rows.sqrt().max(1.0).min(rows.max(1.0))
            };
            (groups, cost + rows * AGG_ROW)
        }
    }
}

fn preds(list: &[Predicate], def: &TableDef) -> String {
    let parts: Vec<String> = list.iter().map(|p| p.render(def)).collect();
    parts.join(" AND ")
}

fn describe(node: &PlanNode, def: &TableDef) -> String {
    match node {
        PlanNode::Scan(scan) => {
            let (table, operator) = (def.qualified_name(), scan.kind.operator());
            let mut s = match &scan.kind {
                ScanKind::Key(pred) => match &pred.test {
                    PredTest::Eq(key) => format!(
                        "{operator} {table} key={} (bloom+fence checked)",
                        key.to_cql_literal()
                    ),
                    _ => format!("{operator} {table} keys={}", pred.values().len()),
                },
                ScanKind::Index(pred) => {
                    let column = &def.columns[pred.index].name;
                    format!(
                        "{operator} {table} via {} on {column} values={}",
                        crate::index::hidden_name(table, column),
                        pred.values().len()
                    )
                }
                ScanKind::Full => format!("{operator} {table}"),
            };
            if !scan.residual.is_empty() {
                s.push_str(&format!(" where {}", preds(&scan.residual, def)));
            }
            if let Some(n) = scan.pushed_limit {
                s.push_str(&format!(" limit={n}"));
            }
            if let Some(p) = &scan.projection {
                let names: Vec<&str> = (p.indices.iter())
                    .map(|&c| def.columns[c].name.as_str())
                    .collect();
                s.push_str(&format!(
                    " cols=[{}] (+{} pruned)",
                    names.join(", "),
                    p.pruned
                ));
            }
            s
        }
        PlanNode::Filter { predicates, .. } => format!("Filter {}", preds(predicates, def)),
        PlanNode::Project { names, .. } => format!("Project [{}]", names.join(", ")),
        PlanNode::Sort { column, desc, .. } => {
            format!("Sort by {column} {}", if *desc { "desc" } else { "asc" })
        }
        PlanNode::Limit { limit, .. } => format!("Limit {limit}"),
        PlanNode::Aggregate {
            names, group_by, ..
        } => format!("Aggregate [{}] groups={}", names.join(", "), group_by.len()),
    }
}

fn render_node(
    node: &PlanNode,
    def: &TableDef,
    depth: usize,
    stats: &TableStats,
    out: &mut Vec<Vec<CqlValue>>,
) {
    let (rows, cost) = estimate(node, stats);
    out.push(vec![CqlValue::Text(format!(
        "{}{}  (cost: rows≈{rows:.0}, total≈{cost:.1})",
        "  ".repeat(depth),
        describe(node, def),
    ))]);
    match node {
        PlanNode::Scan(_) => {}
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Aggregate { input, .. } => render_node(input, def, depth + 1, stats, out),
    }
}

/// The plan of a statement over `def`'s table as the rows of an `EXPLAIN`
/// result (one `plan` text column): one indented line per node, root
/// first, costed with `stats`.
pub fn result_rows(plan: &SelectPlan, def: &TableDef, stats: &TableStats) -> Vec<Vec<CqlValue>> {
    let mut rows = Vec::new();
    render_node(&plan.root, def, 0, stats, &mut rows);
    rows
}
