//! `sc-benchmark compare <dir-a> <dir-b>`: two sets of runs, side by side.
//!
//! Each directory holds the standard output of `--trace 0` runs, one file
//! per run. For every workload × end-to-end metric the table gives both
//! medians, quartiles and spreads, the relative difference and the bound,
//! judged by the rules the driver applies to the benchmark itself: each
//! set's spread (interquartile distance over median) stays within the bound,
//! and set B's median is not worse than set A's by more than the bound.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::WORKLOADS;
use sc_json::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// `values[workload][metric]`, one entry per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let (workload, metrics) =
            parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let per_metric = set.entry(workload).or_default();
        for (name, value) in metrics {
            per_metric.entry(name).or_default().push(value);
        }
    }
    Ok(set)
}

/// The workload a run's header names and the metrics of its result line.
fn parse_run(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("workload="))
        .and_then(|l| l.split_whitespace().next())
        .ok_or("no `workload=` header line")?;
    let last = text.lines().last().ok_or("empty output")?;
    let doc = sc_json::parse(last).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err("the run was not correct".into());
    }
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("no metrics object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(JsonValue::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok((workload.to_string(), metrics))
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Prints the table; `Ok(false)` when any pair is outside its bound.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_set(dir_a)?, read_set(dir_b)?);
    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | A spread | B spread | B worse by | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let values = |set: &RunSet, which: &str| -> Result<Vec<f64>, String> {
                set.get(workload.name)
                    .and_then(|m| m.get(metric.name))
                    .filter(|v| v.len() >= 2)
                    .cloned()
                    .ok_or_else(|| {
                        format!(
                            "set {which} has fewer than two runs of {} with {}",
                            workload.name, metric.name
                        )
                    })
            };
            let (va, vb) = (values(&a, "A")?, values(&b, "B")?);
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (relative_spread(&va), relative_spread(&vb));
            let worse = worsening(metric, ma, mb);
            let within = sa <= metric.bound && sb <= metric.bound && worse <= metric.bound;
            all_within &= within;
            let cell = |m: f64, v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            println!(
                "| {} | {} | {} | {} | {:.2}% | {:.2}% | {:+.2}% | {:.0}% | {} |",
                workload.name,
                metric.name,
                cell(ma, &va),
                cell(mb, &vb),
                100.0 * sa,
                100.0 * sb,
                100.0 * worse,
                100.0 * metric.bound,
                if within { "within" } else { "OUTSIDE" }
            );
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_run_and_rejects_an_incorrect_one() {
        let out = "engine policy: x\nworkload=point_read seed=3 seconds=30 trace=0\n  setup_s 1\n\
                   {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                   {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
                   \"read_p50_us\": {\"value\": 28.25, \"unit\": \"us\"}}}";
        let (workload, metrics) = parse_run(out).unwrap();
        assert_eq!(workload, "point_read");
        assert_eq!(
            metrics,
            vec![
                ("setup_s".to_string(), 1.5),
                ("read_p50_us".to_string(), 28.25)
            ]
        );
        assert!(parse_run(&out.replace("true", "false")).is_err());
        assert!(parse_run("no header\n{}").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let rate = &END_TO_END[1];
        let latency = &END_TO_END[2];
        assert_eq!((rate.better, latency.better), ("higher", "lower"));
        assert!((worsening(rate, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(latency, 100.0, 110.0) - 0.10).abs() < 1e-12);
    }
}
