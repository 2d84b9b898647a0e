//! Exposition: render a [`RegistrySnapshot`] as Prometheus-style text or
//! a human-oriented report. Both are hand-rolled over the snapshot (no
//! serializer dependency; metric names are dotted identifiers, so escaping
//! reduces to numbers and fixed name characters).

use crate::registry::RegistrySnapshot;
use std::fmt::Write;

fn prom_name(name: &str) -> String {
    name.replace(['.', '-'], "_")
}

impl RegistrySnapshot {
    /// The `# HELP` text for `name`: the registered description
    /// ([`crate::Registry::describe`]) when present, else a fallback
    /// naming the dotted series the family was derived from.
    fn help_line(&self, name: &str) -> String {
        match self.help(name) {
            Some(help) => help.replace('\n', " "),
            None => format!("smartcube series {name}"),
        }
    }

    /// Prometheus text format: one `# HELP` + `# TYPE` pair per family,
    /// counters and gauges as single samples, histograms as `_count` /
    /// `_sum` / cumulative `_bucket{le="..."}` series ending in
    /// `le="+Inf"`. Only non-empty buckets (plus `+Inf`) are emitted.
    /// A synthetic `build_info{version="..."} 1` gauge leads the page so
    /// scrapes are attributable to a binary version.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP build_info smartcube build metadata; the value is always 1\n\
             # TYPE build_info gauge\n\
             build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        );
        for (name, value) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# HELP {n} {}", self.help_line(name));
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# HELP {n} {}", self.help_line(name));
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# HELP {n} {}", self.help_line(name));
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for &(bound, count) in &h.buckets {
                cumulative += count;
                let _ = writeln!(out, "{n}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }

    /// Human-oriented report: aligned name/value lines for counters and
    /// gauges, one summary line per histogram. This is what `repro --stats`
    /// prints.
    pub fn to_text_report(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  count={} sum={} min={} max={} mean={} p50~{} p99~{}",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    fn sample() -> crate::RegistrySnapshot {
        let registry = Registry::new();
        registry.counter("x.ops.total").add(3);
        registry.gauge("x.queue.depth").set(-2);
        let h = registry.histogram("x.put.ns");
        h.record(1);
        h.record(3);
        h.record(900);
        registry.snapshot()
    }

    #[test]
    fn prometheus_text_shape() {
        let text = sample().to_prometheus_text();
        assert!(text.starts_with("# HELP build_info "));
        assert!(text.contains(&format!(
            "build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        // Every family gets a HELP line; undescribed ones use the fallback.
        assert!(text.contains("# HELP x_ops_total smartcube series x.ops.total"));
        assert!(text.contains("# TYPE x_ops_total counter"));
        assert!(text.contains("x_ops_total 3"));
        assert!(text.contains("x_queue_depth -2"));
        // Cumulative buckets: le=1 → 1, le=3 → 2, le=1023 → 3, +Inf → 3.
        assert!(text.contains("x_put_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("x_put_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("x_put_ns_bucket{le=\"1023\"} 3"));
        assert!(text.contains("x_put_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("x_put_ns_sum 904"));
        assert!(text.contains("x_put_ns_count 3"));
    }

    #[test]
    fn prometheus_help_uses_registered_description() {
        let registry = Registry::new();
        registry.counter("x.described.total").add(1);
        registry.describe("x.described.total", "total described\nthings");
        let text = registry.snapshot().to_prometheus_text();
        // Registered text wins over the fallback, newlines flattened.
        assert!(text.contains("# HELP x_described_total total described things"));
    }

    #[test]
    fn text_report_lists_everything() {
        let report = sample().to_text_report();
        assert!(report.contains("x.ops.total"));
        assert!(report.contains("x.queue.depth"));
        assert!(report.contains("count=3"));
        let empty = Registry::new().snapshot().to_text_report();
        assert!(empty.contains("no metrics recorded"));
    }
}
