//! Lowering and planning: AST → validated logical plan → access path and
//! pushdowns → cost annotations.
//!
//! # Cost model
//!
//! Costs are abstract units anchored to "stream one row out of a
//! memtable/SSTable merge = 1". The inputs are the statistics the engine
//! already collects: the table's estimated row count (memtable key count
//! plus SSTable `entry_count` metadata), its SSTable count, and the shared
//! block cache's hit rate. The constants are deliberately crude — they
//! only need to rank point probes below posting scans below full scans,
//! which they do by construction:
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

use super::logical::{
    AggOutput, AggSpec, Estimate, PlanNode, PredTest, Predicate, ScanKind, ScanNode,
    ScanProjection, SelectPlan,
};
use crate::cql::ast::{AggFunc, OrderBy, SelectColumns, SelectItem, WhereClause};
use crate::error::{NosqlError, Result};
use crate::schema::TableDef;
use crate::types::CqlType;

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

/// Statistics the planner consumes, gathered by the engine from the
/// structures it already maintains.
#[derive(Debug, Clone, Copy)]
pub struct TableStats {
    /// Estimated live rows (memtable keys + SSTable metas; overcounts
    /// overwritten keys, which is fine for ranking).
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

/// Phase 1 of lowering: resolve the `WHERE` conjunction's columns and
/// check every literal against its column's declared type.
fn resolve_predicates(def: &TableDef, where_clause: &[WhereClause]) -> Result<Vec<Predicate>> {
    let mut preds = Vec::with_capacity(where_clause.len());
    for clause in where_clause {
        let column = clause.column().to_string();
        let index = def.column(&column)?;
        let test = match clause {
            WhereClause::Eq { value, .. } => PredTest::Eq(value.clone()),
            WhereClause::In { values, .. } => PredTest::In(values.clone()),
            WhereClause::Cmp { op, value, .. } => {
                if def.columns[index].ty == CqlType::IntSet {
                    return Err(NosqlError::Unsupported(format!(
                        "range comparisons on set<int> column {column:?}"
                    )));
                }
                PredTest::Cmp(*op, value.clone())
            }
        };
        let pred = Predicate {
            column,
            index,
            test,
        };
        for value in pred.values() {
            def.check(index, value)?;
        }
        preds.push(pred);
    }
    Ok(preds)
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

/// How attractive a predicate is as the access path. Primary-key probes
/// beat posting scans beat nothing; equality beats `IN` (fewer probes).
fn access_score(def: &TableDef, pred: &Predicate) -> u8 {
    let on_pk = pred.index == def.primary_key;
    match (&pred.test, on_pk, def.is_indexed(&pred.column)) {
        (PredTest::Eq(_), true, _) => 4,
        (PredTest::In(_), true, _) => 3,
        (PredTest::Eq(_), false, true) => 2,
        (PredTest::In(_), false, true) => 1,
        _ => 0,
    }
}

/// Phase 2: pick the access path and push what the scan can absorb.
/// Returns the scan node (costed) and the predicates that must be
/// filtered above it.
fn choose_access(
    def: &TableDef,
    mut preds: Vec<Predicate>,
    stats: &TableStats,
) -> Result<(ScanNode, Vec<Predicate>)> {
    let scan = |kind, keys, residual, est| ScanNode {
        table: def.qualified_name().to_string(),
        kind,
        keys,
        residual,
        pushed_limit: None,
        projection: None,
        est,
    };
    let best = preds
        .iter()
        .enumerate()
        .max_by_key(|(i, p)| (access_score(def, p), usize::MAX - i))
        .filter(|(_, p)| access_score(def, p) > 0)
        .map(|(i, _)| i);
    let Some(best) = best else {
        // Full scan: every predicate is evaluated inside the scan, which
        // lets a pushed LIMIT stop the stream early.
        let n = stats.rows as f64;
        let filtered = n * combined_selectivity(&preds);
        let cost = stats.scan_cost(n)
            + if preds.is_empty() {
                0.0
            } else {
                n * FILTER_ROW
            };
        let est = Estimate {
            rows: filtered,
            cost,
        };
        return Ok((scan(ScanKind::Full, Vec::new(), preds, est), Vec::new()));
    };
    // Only `=` and `IN` score as access paths; a point is a one-value `IN`.
    let chosen = preds.remove(best);
    let mut keys = Vec::with_capacity(chosen.values().len());
    for value in chosen.values() {
        keys.extend(def.encode_key(chosen.index, value)?);
    }
    let k = chosen.values().len() as f64;
    let (kind, est) = if chosen.index == def.primary_key {
        let est = Estimate {
            rows: k,
            cost: k * stats.probe_cost(),
        };
        (ScanKind::Key(chosen), est)
    } else {
        let matches = (stats.rows as f64 * EQ_SELECTIVITY).max(1.0) * k;
        let est = Estimate {
            rows: matches,
            cost: matches * (SEQ_ROW + stats.probe_cost()),
        };
        (ScanKind::Index(chosen), est)
    };
    Ok((scan(kind, keys, Vec::new(), est), preds))
}

/// Columns a full scan must materialize for this query: the select list
/// (or grouping columns and aggregate inputs), every predicate column, and
/// a base-layout `ORDER BY` key. `None` when the query touches every
/// column (`SELECT *`, or the union covers the schema) — SSTables skip
/// decoding everything outside the returned set.
fn scan_projection(
    def: &TableDef,
    projection: &Projection,
    residual: &[Predicate],
    remaining: &[Predicate],
    order_by: Option<&OrderBy>,
) -> Result<Option<ScanProjection>> {
    let mut needed: std::collections::BTreeSet<usize> = match projection {
        Projection::All => return Ok(None),
        Projection::Columns { indices, .. } => indices.iter().copied().collect(),
        Projection::Aggregate { group_by, aggs, .. } => group_by
            .iter()
            .copied()
            .chain(aggs.iter().filter_map(|a| a.input))
            .collect(),
    };
    for p in residual.iter().chain(remaining) {
        needed.insert(p.index);
    }
    // An aggregate's ORDER BY resolves against its output (already
    // covered); otherwise the sort key reads the base layout.
    if let Some(o) = order_by {
        if !matches!(projection, Projection::Aggregate { .. }) {
            needed.insert(def.column(&o.column)?);
        }
    }
    if needed.len() >= def.columns.len() {
        return Ok(None);
    }
    let indices: Vec<usize> = needed.into_iter().collect();
    let names = indices
        .iter()
        .map(|&i| def.columns[i].name.clone())
        .collect();
    Ok(Some(ScanProjection {
        pruned: def.columns.len() - indices.len(),
        names,
        indices,
    }))
}

/// The validated shape of the select list.
enum Projection {
    /// `SELECT *`: the identity — no Project node needed.
    All,
    /// Plain columns, resolved to base-layout indices.
    Columns {
        indices: Vec<usize>,
        names: Vec<String>,
    },
    /// Aggregates (with or without `GROUP BY`).
    Aggregate {
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        output: Vec<AggOutput>,
        names: Vec<String>,
    },
}

fn resolve_aggregate(def: &TableDef, func: AggFunc, column: Option<&String>) -> Result<AggSpec> {
    let input = match column {
        None => None,
        Some(col) => {
            let idx = def.column(col)?;
            let ty = def.columns[idx].ty;
            if matches!(func, AggFunc::Sum | AggFunc::Avg) && ty != CqlType::Int {
                return Err(NosqlError::TypeMismatch {
                    column: col.clone(),
                    expected: CqlType::Int.name().to_string(),
                    found: ty.name().to_string(),
                });
            }
            Some(idx)
        }
    };
    Ok(AggSpec {
        func,
        input,
        column: column.cloned(),
    })
}

/// Phase 1 of lowering, projection half: validate the select list against
/// the schema and the `GROUP BY` clause.
fn resolve_projection(
    def: &TableDef,
    columns: &SelectColumns,
    group_by: &[String],
) -> Result<Projection> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|c| def.column(c))
        .collect::<Result<_>>()?;
    if !group_by.is_empty() {
        let SelectColumns::Items(items) = columns else {
            return Err(NosqlError::Unsupported(
                "SELECT * with GROUP BY; name the grouping columns and aggregates".into(),
            ));
        };
        let mut aggs = Vec::new();
        let mut output = Vec::with_capacity(items.len());
        let mut names = Vec::with_capacity(items.len());
        for item in items {
            names.push(item.output_name());
            match item {
                SelectItem::Column(name) => {
                    if !group_by.contains(name) {
                        return Err(NosqlError::Unsupported(format!(
                            "column {name:?} must appear in GROUP BY or an aggregate"
                        )));
                    }
                    output.push(AggOutput::Group(def.column(name)?));
                }
                SelectItem::Aggregate { func, column } => {
                    aggs.push(resolve_aggregate(def, *func, column.as_ref())?);
                    output.push(AggOutput::Agg(aggs.len() - 1));
                }
            }
        }
        return Ok(Projection::Aggregate {
            group_by: group_idx,
            aggs,
            output,
            names,
        });
    }
    match columns {
        SelectColumns::All => Ok(Projection::All),
        SelectColumns::Items(items) if columns.has_aggregates() => {
            let mut aggs = Vec::new();
            let mut output = Vec::with_capacity(items.len());
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                let SelectItem::Aggregate { func, column } = item else {
                    return Err(NosqlError::Unsupported(format!(
                        "column {:?} must appear in GROUP BY or an aggregate",
                        item.output_name()
                    )));
                };
                names.push(item.output_name());
                aggs.push(resolve_aggregate(def, *func, column.as_ref())?);
                output.push(AggOutput::Agg(aggs.len() - 1));
            }
            Ok(Projection::Aggregate {
                group_by: Vec::new(),
                aggs,
                output,
                names,
            })
        }
        SelectColumns::Items(items) => {
            let mut indices = Vec::with_capacity(items.len());
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                let SelectItem::Column(name) = item else {
                    unreachable!("has_aggregates was false");
                };
                indices.push(def.column(name)?);
                names.push(name.clone());
            }
            Ok(Projection::Columns { indices, names })
        }
    }
}

fn sort_node(input: PlanNode, key: usize, column: String, desc: bool) -> PlanNode {
    let Estimate { rows, cost } = input.estimate();
    let est = Estimate {
        rows,
        cost: cost + rows * rows.max(2.0).log2() * SORT_ROW,
    };
    PlanNode::Sort {
        input: Box::new(input),
        key,
        column,
        desc,
        est,
    }
}

fn limit_node(input: PlanNode, limit: usize) -> PlanNode {
    let Estimate { rows, cost } = input.estimate();
    let est = Estimate {
        rows: rows.min(limit as f64),
        cost,
    };
    PlanNode::Limit {
        input: Box::new(input),
        limit,
        est,
    }
}

/// Pushes `limit` into the scan when the node *is* the scan (nothing
/// between them reorders or regroups rows); otherwise wraps in a Limit.
fn apply_limit(node: PlanNode, limit: Option<usize>) -> PlanNode {
    let Some(limit) = limit else { return node };
    match node {
        // Only full scans count rows themselves (after residual
        // filtering); probe-based scans keep an explicit Limit above.
        PlanNode::Scan(mut scan) if scan.kind == ScanKind::Full => {
            scan.pushed_limit = Some(limit);
            scan.est.rows = scan.est.rows.min(limit as f64);
            PlanNode::Scan(scan)
        }
        other => limit_node(other, limit),
    }
}

/// Plans one `SELECT`: validation, access-path choice, pushdowns, and
/// cost annotation in one call. Pure — consults only the schema and
/// `stats`, never storage.
pub fn plan_select(
    def: &TableDef,
    columns: &SelectColumns,
    where_clause: &[WhereClause],
    group_by: &[String],
    order_by: Option<&OrderBy>,
    limit: Option<usize>,
    stats: &TableStats,
) -> Result<SelectPlan> {
    let preds = resolve_predicates(def, where_clause)?;
    let projection = resolve_projection(def, columns, group_by)?;
    let (mut scan, remaining) = choose_access(def, preds, stats)?;
    if scan.kind == ScanKind::Full {
        scan.projection = scan_projection(def, &projection, &scan.residual, &remaining, order_by)?;
    }
    let mut node = PlanNode::Scan(scan);
    if !remaining.is_empty() {
        let Estimate { rows, cost } = node.estimate();
        let est = Estimate {
            rows: rows * combined_selectivity(&remaining),
            cost: cost + rows * FILTER_ROW,
        };
        node = PlanNode::Filter {
            input: Box::new(node),
            predicates: remaining,
            est,
        };
    }
    match projection {
        Projection::All => {
            if let Some(o) = order_by {
                let key = def.column(&o.column)?;
                node = sort_node(node, key, o.column.clone(), o.desc);
            }
            node = apply_limit(node, limit);
            Ok(SelectPlan {
                columns: def.columns.iter().map(|c| c.name.clone()).collect(),
                root: node,
            })
        }
        Projection::Columns { indices, names } => {
            if let Some(o) = order_by {
                // The sort runs below the projection, so the key need not
                // be projected.
                let key = def.column(&o.column)?;
                node = sort_node(node, key, o.column.clone(), o.desc);
            }
            node = apply_limit(node, limit);
            let Estimate { rows, cost } = node.estimate();
            let est = Estimate {
                rows,
                cost: cost + rows * PROJECT_ROW,
            };
            node = PlanNode::Project {
                input: Box::new(node),
                indices,
                names: names.clone(),
                est,
            };
            Ok(SelectPlan {
                root: node,
                columns: names,
            })
        }
        Projection::Aggregate {
            group_by: group_idx,
            aggs,
            output,
            names,
        } => {
            let grouped = !group_idx.is_empty();
            if !grouped {
                // Pinned pre-planner semantics: on a global aggregate the
                // LIMIT caps the *input* rows (`SELECT COUNT(*) … LIMIT 3`
                // counts at most 3), so it sits below the Aggregate.
                node = apply_limit(node, limit);
            }
            let Estimate { rows, cost } = node.estimate();
            let groups = if grouped {
                rows.sqrt().max(1.0).min(rows.max(1.0))
            } else {
                1.0
            };
            let est = Estimate {
                rows: groups,
                cost: cost + rows * AGG_ROW,
            };
            node = PlanNode::Aggregate {
                input: Box::new(node),
                group_by: group_idx,
                aggs,
                output,
                names: names.clone(),
                est,
            };
            if let Some(o) = order_by {
                // ORDER BY resolves against the aggregate's output names
                // (grouping columns, or `count` for `COUNT(*)`).
                let key = names.iter().position(|n| *n == o.column).ok_or_else(|| {
                    NosqlError::UnknownColumn {
                        table: def.name.clone(),
                        column: o.column.clone(),
                    }
                })?;
                node = sort_node(node, key, o.column.clone(), o.desc);
            }
            if grouped {
                // A grouped LIMIT caps output groups, not scanned rows.
                if let Some(n) = limit {
                    node = limit_node(node, n);
                }
            }
            Ok(SelectPlan {
                root: node,
                columns: names,
            })
        }
    }
}
