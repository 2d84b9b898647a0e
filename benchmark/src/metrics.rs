//! The metric catalogue — the one list `BENCHMARK.json`, the binary's output
//! and the tests agree on — and the report that prints it.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// A metric of one layer, reported by the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_items_per_s",
        unit: "items/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_item",
        unit: "B",
        better: "lower",
        bound: 0.01,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics; layer names are crate names. Grouped as in
/// `benchmark/README.md`'s interaction table.
pub const PER_LAYER: [PerLayer; 90] = [
    // sc-xml, sc-json, sc-ingest, sc-dwarf, sc-core: the cube write path.
    layer("xml.parse_mb_per_s", "MB/s", "higher"),
    layer("json.parse_mb_per_s", "MB/s", "higher"),
    layer("ingest.extract_tuples_per_s", "tuples/s", "higher"),
    layer("dwarf.build_tuples_per_s", "tuples/s", "higher"),
    layer("core.map_ns_per_node", "ns", "lower"),
    layer("core.store_rows_per_s.nosql_dwarf", "rows/s", "higher"),
    // Cube shape and space.
    layer("dwarf.nodes_per_tuple", "ratio", "lower"),
    layer("dwarf.cells_per_tuple", "ratio", "lower"),
    layer("core.store.statements_per_row", "ratio", "lower"),
    layer("core.bytes_per_tuple.nosql_dwarf", "B", "lower"),
    // Tables 4/5 for the three comparison models.
    layer("core.store_rows_per_s.nosql_min", "rows/s", "higher"),
    layer("core.store_rows_per_s.mysql_dwarf", "rows/s", "higher"),
    layer("core.store_rows_per_s.mysql_min", "rows/s", "higher"),
    layer("core.bytes_per_tuple.nosql_min", "B", "lower"),
    layer("core.bytes_per_tuple.mysql_dwarf", "B", "lower"),
    layer("core.bytes_per_tuple.mysql_min", "B", "lower"),
    layer("relational.insert_rows_per_s", "rows/s", "higher"),
    // The cube read path.
    layer("core.query.statements_per_point", "ratio", "lower"),
    layer("core.query.rows_fetched_per_point", "ratio", "lower"),
    layer("core.node_cache.hit_rate", "ratio", "higher"),
    layer("core.query.range_us", "us", "lower"),
    layer("core.query.group_by_us", "us", "lower"),
    layer("core.rebuild_rows_per_s", "rows/s", "higher"),
    layer("dwarf.point_ns", "ns", "lower"),
    layer("dwarf.range_ns", "ns", "lower"),
    // sc-nosql: the foreground write path.
    layer("nosql.cql.parse_insert_ns", "ns", "lower"),
    layer("nosql.memtable.put_ns", "ns", "lower"),
    layer("nosql.commitlog.append_ns", "ns", "lower"),
    layer("nosql.commitlog.bytes_per_row", "B", "lower"),
    // Flush, merge and what they write.
    layer("nosql.flush.count", "count", "lower"),
    layer("nosql.flush.busy_s", "s", "lower"),
    layer("nosql.sstable.write_rows_per_s", "rows/s", "higher"),
    layer("nosql.compaction.count", "count", "lower"),
    layer("nosql.compaction.busy_s", "s", "lower"),
    layer("nosql.compaction.bytes_rewritten", "B", "lower"),
    layer("storage.write_amp", "ratio", "lower"),
    layer("storage.vfs.append_ops_per_row", "ratio", "lower"),
    // Write tails, background compaction, recovery.
    layer("nosql.write.p99_us", "us", "lower"),
    layer("nosql.write.stall_max_us", "us", "lower"),
    layer("nosql.write.stalls_over_1ms", "count", "lower"),
    layer("nosql.ingest_rows_per_s.background_1t", "rows/s", "higher"),
    layer("nosql.recovery.replay_rows_per_s", "rows/s", "higher"),
    layer("nosql.memtable.get_ns", "ns", "lower"),
    // Parse and plan of a point read.
    layer("nosql.cql.parse_select_ns", "ns", "lower"),
    layer("nosql.plan.plan_select_ns", "ns", "lower"),
    // The SSTable side of a point read.
    layer("nosql.sstable.probe_hit_ns", "ns", "lower"),
    layer("nosql.sstable.probe_absent_ns", "ns", "lower"),
    layer("nosql.bloom.false_positive_rate", "ratio", "lower"),
    layer("nosql.read.sstables_per_get", "ratio", "lower"),
    layer("nosql.read.blocks_per_get", "ratio", "lower"),
    layer("nosql.block_cache.hit_rate", "ratio", "higher"),
    layer("nosql.block_cache.evictions", "count", "lower"),
    layer("nosql.block_cache.get_ns", "ns", "lower"),
    layer("storage.vfs.read_ops_per_get", "ratio", "lower"),
    layer("storage.vfs.read_bytes_per_get", "B", "lower"),
    layer("nosql.read.p99_us", "us", "lower"),
    layer("nosql.read.hot_p50_us", "us", "lower"),
    // sc-encoding codecs.
    layer("encoding.i64_delta_decode_mb_per_s", "MB/s", "higher"),
    layer("encoding.i64_delta_encode_mb_per_s", "MB/s", "higher"),
    layer("encoding.dict_decode_mb_per_s", "MB/s", "higher"),
    layer("encoding.crc32_mb_per_s", "MB/s", "higher"),
    layer("encoding.bloom_probe_ns", "ns", "lower"),
    // Scans through the exec operators.
    layer("nosql.exec.scan_rows_per_s", "rows/s", "higher"),
    layer("nosql.read.cols_read_share", "ratio", "lower"),
    layer("nosql.sstable.scan_rows_per_s", "rows/s", "higher"),
    layer("nosql.exec.count_us", "us", "lower"),
    layer("nosql.exec.range_read_us", "us", "lower"),
    layer("nosql.exec.range_blocks_per_read", "count", "lower"),
    layer("nosql.exec.limit10_us", "us", "lower"),
    layer("nosql.exec.limit10_blocks_read", "count", "lower"),
    // sc-server over one loopback client; sc-stream on two shards.
    layer("server.ping_rtt_us", "us", "lower"),
    layer("server.point_read_rtt_us", "us", "lower"),
    layer("server.frame_codec_ns", "ns", "lower"),
    layer("stream.tuples_per_s.2t", "tuples/s", "higher"),
    // What observing costs, and where the traced run's time went.
    layer("obs.stats_overhead_pct", "%", "lower"),
    layer("obs.trace_armed_overhead_pct", "%", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("span.coverage_pct", "%", "higher"),
    layer("span.share.xml_parse", "%", "lower"),
    layer("span.share.ingest_extract", "%", "lower"),
    layer("span.share.dwarf_build", "%", "lower"),
    layer("span.share.core_map", "%", "lower"),
    layer("span.share.core_store", "%", "lower"),
    layer("span.share.core_query", "%", "lower"),
    layer("span.share.cql_parse", "%", "lower"),
    layer("span.share.session_execute", "%", "lower"),
    layer("span.share.flush", "%", "lower"),
    layer("span.share.compaction", "%", "lower"),
    layer("span.share.harness", "%", "lower"),
    layer("span.share.other", "%", "lower"),
];

/// Which tier a run reports: `--trace 0` the end-to-end metrics, `--trace 1`
/// the per-layer ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    EndToEnd,
    PerLayer,
}

impl Tier {
    /// `(name, unit)` of every metric of the tier, in catalogue order.
    pub fn metrics(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Tier::EndToEnd => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            Tier::PerLayer => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        }
    }
}

/// The values one run measured, keyed by catalogue name.
#[derive(Debug)]
pub struct Report {
    tier: Tier,
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Report {
    pub fn new(tier: Tier) -> Report {
        Report {
            tier,
            values: BTreeMap::new(),
        }
    }

    /// Records `name` = `value`, computed from `samples` measurements.
    /// Panics on a name outside the tier's catalogue, a repeat or a
    /// non-finite value: each is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let known = self
            .tier
            .metrics()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(known.0, (value, samples));
        assert!(previous.is_none(), "metric {name} set twice");
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Catalogue names nothing was recorded for.
    pub fn missing(&self) -> Vec<&'static str> {
        self.tier
            .metrics()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    /// Every metric by name, with its unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit) in self.tier.metrics() {
            if let Some((value, samples)) = self.values.get(name) {
                out.push_str(&format!(
                    "  {name:<40} {value:>16.4} {unit:<9} n={samples}\n"
                ));
            }
        }
        out
    }

    /// The `"metrics"` object of the result line.
    pub fn metrics_json(&self) -> String {
        let parts: Vec<String> = self
            .tier
            .metrics()
            .into_iter()
            .filter_map(|(name, unit)| {
                self.values
                    .get(name)
                    .map(|(v, _)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SPAN_NAMES;
    use crate::workloads::WORKLOADS;
    use sc_json::JsonValue;
    use std::collections::BTreeSet;

    /// `run_seconds`: the deadline the workloads' sizes were chosen for.
    const RUN_SECONDS: i64 = 30;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count", "lower")));
        for (name, unit, better) in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(matches!(better, "higher" | "lower"), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        // A timing moves by what this shared machine does between two runs
        // of one build (AA.md), so it has the widest bound the benchmark's
        // contract allows; a count has the issue's.
        for m in &END_TO_END {
            let bound = if m.name == "bytes_per_item" {
                0.01
            } else {
                0.25
            };
            assert_eq!(m.bound, bound, "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_span_name_has_a_share_metric() {
        for span in SPAN_NAMES {
            let name = format!("span.share.{span}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        let shares = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("span.share."))
            .count();
        assert_eq!(shares, SPAN_NAMES.len());
    }

    /// `BENCHMARK.json` at the repo root lists exactly what the binary can
    /// emit: same names, units, directions and bounds, both ways.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = sc_json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_i64),
            Some(RUN_SECONDS)
        );
        let field = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).map(String::from);
        let list = |k: &str| doc.get(k).and_then(JsonValue::as_array).expect("an array");

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                    m.get("bound").and_then(JsonValue::as_f64).unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(per_layer, expected);
    }

    #[test]
    fn report_rejects_unknown_names_and_lists_missing_ones() {
        let mut r = Report::new(Tier::EndToEnd);
        r.set("setup_s", 1.25, 1);
        assert_eq!(r.get("setup_s"), Some(1.25));
        assert_eq!(r.missing().len(), END_TO_END.len() - 1);
        assert!(r
            .metrics_json()
            .contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let unknown = std::panic::catch_unwind(|| {
            let mut r = Report::new(Tier::EndToEnd);
            r.set("xml.parse_mb_per_s", 1.0, 1);
        });
        assert!(unknown.is_err());
    }
}
