//! Lowering and planning: AST → validated logical plan → access path and
//! pushdowns.
//!
//! The planner reads the schema and the statement, never statistics: the
//! access path is ranked by construction (`access_score`), so a table's
//! size or cache state could not change the choice. The cost model that
//! `EXPLAIN` prints lives in [`super::explain`].

use super::explain::TableStats;
use super::logical::{
    AggOutput, AggSpec, KeyList, PlanNode, PredTest, Predicate, ScanKind, ScanNode, ScanProjection,
    SelectPlan,
};
use crate::cql::ast::{AggFunc, OrderBy, SelectColumns, SelectItem, WhereClause};
use crate::error::{NosqlError, Result};
use crate::schema::TableDef;
use crate::types::CqlType;
use std::sync::Arc;

/// Phase 1 of lowering: resolve a `WHERE` clause's column and check every
/// literal against its column's declared type.
fn resolve_predicate(def: &TableDef, clause: &WhereClause) -> Result<Predicate> {
    let column = clause.column();
    let index = def.column(column)?;
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
    let pred = Predicate { index, test };
    for value in pred.values() {
        def.check(index, value)?;
    }
    Ok(pred)
}

/// How attractive a predicate is as the access path. Primary-key probes
/// beat posting scans beat nothing; equality beats `IN` (fewer probes).
fn access_score(def: &TableDef, pred: &Predicate) -> u8 {
    let on_pk = pred.index == def.primary_key;
    match (
        &pred.test,
        on_pk,
        def.is_indexed(&def.columns[pred.index].name),
    ) {
        (PredTest::Eq(_), true, _) => 4,
        (PredTest::In(_), true, _) => 3,
        (PredTest::Eq(_), false, true) => 2,
        (PredTest::In(_), false, true) => 1,
        _ => 0,
    }
}

/// Phase 2: resolve the `WHERE` conjunction, pick the access path and push
/// what the scan can absorb. Returns the scan node and the predicates that
/// must be filtered above it, in statement order.
fn choose_access(
    def: &TableDef,
    where_clause: &[WhereClause],
) -> Result<(ScanNode, Vec<Predicate>)> {
    let scan = |kind, keys, residual| ScanNode {
        kind,
        keys,
        residual,
        pushed_limit: None,
        projection: None,
    };
    // The first predicate of the highest score, with the place it takes
    // among the others; a lone clause chosen leaves `rest` unallocated.
    let mut best: Option<(u8, usize, Predicate)> = None;
    let mut rest = Vec::new();
    for clause in where_clause {
        let pred = resolve_predicate(def, clause)?;
        let score = access_score(def, &pred);
        if score <= best.as_ref().map_or(0, |(top, ..)| *top) {
            rest.push(pred);
            continue;
        }
        if let Some((_, at, beaten)) = best.take() {
            rest.insert(at, beaten);
        }
        best = Some((score, rest.len(), pred));
    }
    let Some((_, _, chosen)) = best else {
        // Full scan: every predicate is evaluated inside the scan, which
        // lets a pushed LIMIT stop the stream early.
        return Ok((scan(ScanKind::Full, KeyList::default(), rest), Vec::new()));
    };
    // Only `=` and `IN` score as access paths; a point is a one-value `IN`.
    let mut keys = KeyList::with_capacity(chosen.values().len());
    for value in chosen.values() {
        keys.push_with(|out| def.put_key(chosen.index, value, out))?;
    }
    let kind = if chosen.index == def.primary_key {
        ScanKind::Key(chosen)
    } else {
        ScanKind::Index(chosen)
    };
    Ok((scan(kind, keys, Vec::new()), rest))
}

/// Columns a scan must materialize for this query: the select list (or
/// grouping columns and aggregate inputs), every predicate column, a
/// base-layout `ORDER BY` key, and an index scan's indexed column, which
/// its staleness re-check reads. `None` when the query touches every
/// column (`SELECT *`, or the union covers the schema) — SSTables skip
/// decoding everything outside the returned set, on every access path.
fn scan_projection(
    def: &TableDef,
    projection: &Projection,
    scan: &ScanNode,
    remaining: &[Predicate],
    order_by: Option<&OrderBy>,
) -> Result<Option<ScanProjection>> {
    let mut extra: Vec<usize> = Vec::new();
    let base: &[usize] = match projection {
        Projection::All => return Ok(None),
        Projection::Columns { indices, .. } => indices,
        Projection::Aggregate { group_by, aggs, .. } => {
            extra.extend(
                group_by
                    .iter()
                    .copied()
                    .chain(aggs.iter().filter_map(|a| a.input)),
            );
            &[]
        }
    };
    extra.extend(scan.residual.iter().chain(remaining).map(|p| p.index));
    if let ScanKind::Index(pred) = &scan.kind {
        extra.push(pred.index);
    }
    // An aggregate's ORDER BY resolves against its output (already
    // covered); otherwise the sort key reads the base layout.
    if let Some(o) = order_by {
        if !matches!(projection, Projection::Aggregate { .. }) {
            extra.push(def.column(&o.column)?);
        }
    }
    let indices: Arc<[usize]> = match projection {
        // The select list already is the set: it is shared, not copied.
        Projection::Columns { indices, .. }
            if indices.is_sorted_by(|a, b| a < b) && extra.iter().all(|c| indices.contains(c)) =>
        {
            Arc::clone(indices)
        }
        _ => {
            extra.extend_from_slice(base);
            extra.sort_unstable();
            extra.dedup();
            extra.into()
        }
    };
    if indices.len() >= def.columns.len() {
        return Ok(None);
    }
    Ok(Some(ScanProjection {
        pruned: def.columns.len() - indices.len(),
        indices,
    }))
}

/// The validated shape of the select list.
enum Projection {
    /// `SELECT *`: the identity — no Project node needed.
    All,
    /// Plain columns, resolved to base-layout indices.
    Columns {
        indices: Arc<[usize]>,
        names: Arc<[String]>,
    },
    /// Aggregates (with or without `GROUP BY`).
    Aggregate {
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        output: Vec<AggOutput>,
        names: Arc<[String]>,
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
        for item in items {
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
            names: output_names(items),
        });
    }
    match columns {
        SelectColumns::All => Ok(Projection::All),
        SelectColumns::Items(items) if columns.has_aggregates() => {
            let mut aggs = Vec::new();
            let mut output = Vec::with_capacity(items.len());
            for item in items {
                let SelectItem::Aggregate { func, column } = item else {
                    return Err(NosqlError::Unsupported(format!(
                        "column {:?} must appear in GROUP BY or an aggregate",
                        item.output_name()
                    )));
                };
                aggs.push(resolve_aggregate(def, *func, column.as_ref())?);
                output.push(AggOutput::Agg(aggs.len() - 1));
            }
            Ok(Projection::Aggregate {
                group_by: Vec::new(),
                aggs,
                output,
                names: output_names(items),
            })
        }
        SelectColumns::Items(items) => {
            let column = |item: &SelectItem| match item {
                SelectItem::Column(name) => def.column(name),
                SelectItem::Aggregate { .. } => unreachable!("has_aggregates was false"),
            };
            // Resolved once to report the first unknown name, then again
            // into the shared list, whose length is known.
            for item in items {
                column(item)?;
            }
            let indices = items
                .iter()
                .map(|item| column(item).expect("resolved above"));
            Ok(Projection::Columns {
                indices: indices.collect(),
                names: output_names(items),
            })
        }
    }
}

/// The select list's output names, built once and shared by the plan's
/// nodes and its result.
fn output_names(items: &[SelectItem]) -> Arc<[String]> {
    items.iter().map(SelectItem::output_name).collect()
}

fn sort_node(input: PlanNode, key: usize, column: String, desc: bool) -> PlanNode {
    PlanNode::Sort {
        input: Box::new(input),
        key,
        column,
        desc,
    }
}

fn limit_node(input: PlanNode, limit: usize) -> PlanNode {
    PlanNode::Limit {
        input: Box::new(input),
        limit,
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
            PlanNode::Scan(scan)
        }
        other => limit_node(other, limit),
    }
}

/// Plans one `SELECT` for callers outside the crate: the tree the
/// engine's planner (`plan`) builds. `stats` is not read — the access path
/// is ranked, not costed, and `EXPLAIN` costs the finished tree itself
/// ([`super::explain::result_rows`]). The argument stays because callers
/// outside this workspace (the benchmark package's planner probe) pass
/// it.
pub fn plan_select(
    def: &TableDef,
    columns: &SelectColumns,
    where_clause: &[WhereClause],
    group_by: &[String],
    order_by: Option<&OrderBy>,
    limit: Option<usize>,
    _stats: &TableStats,
) -> Result<SelectPlan> {
    plan(def, columns, where_clause, group_by, order_by, limit)
}

/// Plans one `SELECT`: validation, access-path choice and pushdowns in
/// one call. Pure — consults only the schema, never storage or
/// statistics.
pub(crate) fn plan(
    def: &TableDef,
    columns: &SelectColumns,
    where_clause: &[WhereClause],
    group_by: &[String],
    order_by: Option<&OrderBy>,
    limit: Option<usize>,
) -> Result<SelectPlan> {
    let (mut scan, remaining) = choose_access(def, where_clause)?;
    let projection = resolve_projection(def, columns, group_by)?;
    scan.projection = scan_projection(def, &projection, &scan, &remaining, order_by)?;
    let mut node = PlanNode::Scan(scan);
    if !remaining.is_empty() {
        node = PlanNode::Filter {
            input: Box::new(node),
            predicates: remaining,
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
            node = PlanNode::Project {
                input: Box::new(node),
                indices,
                names: Arc::clone(&names),
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
            node = PlanNode::Aggregate {
                input: Box::new(node),
                group_by: group_idx,
                aggs,
                output,
                names: Arc::clone(&names),
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
