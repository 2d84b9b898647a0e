//! `EXPLAIN` rendering: one indented line per plan node, root first.
//!
//! Every line ends with a `  (cost: rows≈…, total≈…)` suffix carrying the
//! planner's estimates. Consumers that want a stable structural view (the
//! sqllogictest `plan` directive) strip the suffix at `"  (cost:"` —
//! estimates move with table statistics, the tree shape does not.

use super::logical::{PlanNode, PredTest, Predicate, ScanKind, SelectPlan};
use crate::types::CqlValue;

fn preds(list: &[Predicate]) -> String {
    let parts: Vec<String> = list.iter().map(Predicate::render).collect();
    parts.join(" AND ")
}

fn describe(node: &PlanNode) -> String {
    match node {
        PlanNode::Scan(scan) => {
            let (table, operator) = (&scan.table, scan.kind.operator());
            let mut s = match &scan.kind {
                ScanKind::Key(pred) => match &pred.test {
                    PredTest::Eq(key) => format!(
                        "{operator} {table} key={} (bloom+fence checked)",
                        key.to_cql_literal()
                    ),
                    _ => format!("{operator} {table} keys={}", pred.values().len()),
                },
                ScanKind::Index(pred) => format!(
                    "{operator} {table} via {} on {} values={}",
                    crate::index::hidden_name(table, &pred.column),
                    pred.column,
                    pred.values().len()
                ),
                ScanKind::Full => format!("{operator} {table}"),
            };
            if !scan.residual.is_empty() {
                s.push_str(&format!(" where {}", preds(&scan.residual)));
            }
            if let Some(n) = scan.pushed_limit {
                s.push_str(&format!(" limit={n}"));
            }
            if let Some(p) = &scan.projection {
                s.push_str(&format!(
                    " cols=[{}] (+{} pruned)",
                    p.names.join(", "),
                    p.pruned
                ));
            }
            s
        }
        PlanNode::Filter { predicates, .. } => format!("Filter {}", preds(predicates)),
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

fn render_node(node: &PlanNode, depth: usize, out: &mut Vec<String>) {
    let est = node.estimate();
    out.push(format!(
        "{}{}  (cost: rows≈{:.0}, total≈{:.1})",
        "  ".repeat(depth),
        describe(node),
        est.rows,
        est.cost
    ));
    match node {
        PlanNode::Scan(_) => {}
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Aggregate { input, .. } => render_node(input, depth + 1, out),
    }
}

/// Renders the plan as indented text lines, root first.
pub fn render(plan: &SelectPlan) -> Vec<String> {
    let mut out = Vec::new();
    render_node(&plan.root, 0, &mut out);
    out
}

/// The lines as the rows of an `EXPLAIN` result (one `plan` text column).
pub fn result_rows(plan: &SelectPlan) -> Vec<Vec<CqlValue>> {
    render(plan)
        .into_iter()
        .map(|line| vec![CqlValue::Text(line)])
        .collect()
}
