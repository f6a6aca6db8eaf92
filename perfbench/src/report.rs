//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the catalogue: end-to-end metrics
//! on untraced runs, per-layer metrics on traced runs. A per-layer metric a
//! workload does not exercise reads 0 (for example `shard.*` off the
//! sharded workload).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
];

/// Per-layer metrics: name, unit, whether higher is better.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("rdf.ingest_ms", "ms", false),
    ("prepared.index_ms", "ms", false),
    ("persist.load_ms", "ms", false),
    ("persist.snapshot_bytes", "bytes", false),
    ("shard.prepare_ms", "ms", false),
    ("keyword_index.lookup_ms", "ms", false),
    ("keyword_index.matches_per_keyword", "count", false),
    ("summary.augment_ms", "ms", false),
    ("summary.augmented_elements", "count", false),
    ("exploration.ms", "ms", false),
    ("exploration.first_query_p50_ms", "ms", false),
    ("exploration.queue_pops", "count", false),
    ("exploration.queue_pushes", "count", false),
    ("exploration.pop_ratio", "ratio", true),
    ("exploration.first_query_pop_share", "ratio", false),
    ("exploration.peak_queue_len", "count", false),
    ("query.answer_ms", "ms", false),
    ("query.queries_processed", "count", false),
    ("query.answers_per_query", "count", true),
    ("cache.hit_ratio", "ratio", true),
    ("cache.misses", "count", false),
    ("cache.evictions", "count", false),
    ("cache.invalidations", "count", false),
    ("cache.promotions", "count", true),
    ("cache.heap_bytes", "bytes", false),
    ("serve.queue_wait_p50_ms", "ms", false),
    ("serve.queue_wait_tail_ms", "ms", false),
    ("serve.service_p50_ms", "ms", false),
    ("serve.busy_ratio", "ratio", false),
    ("serve.rejected", "count", false),
    ("serve.peak_queue_depth", "count", false),
    ("serve.max_rate_qps", "1/s", true),
    ("shard.scatter_ms", "ms", false),
    ("shard.merge_ms", "ms", false),
    ("shard.merge_share", "ratio", false),
    ("shard.early_emit_ratio", "ratio", true),
    ("shard.rejected", "count", false),
    ("shard.deadline_exceeded", "count", false),
    ("live.apply_p50_ms", "ms", false),
    ("live.apply_tail_ms", "ms", false),
    ("live.snapshot_wait_tail_ms", "ms", false),
    ("live.read_max_ms", "ms", false),
    ("live.compact_ms", "ms", false),
    ("live.compact_rows", "count", false),
    ("live.promoted_share", "ratio", true),
    ("live.summary_rebuilds", "count", false),
    ("live.write_ack_p50_ms", "ms", false),
    ("live.write_visible_p50_ms", "ms", false),
    ("live.write_visible_tail_ms", "ms", false),
    ("loadgen.failed_ratio", "ratio", false),
    ("loadgen.lag_tail_ms", "ms", false),
    ("loadgen.sent", "count", true),
    ("trace.coverage", "ratio", true),
    ("trace.overhead_ratio", "ratio", false),
];

/// Request counts of one phase of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn ok(&mut self) {
        self.sent += 1;
        self.succeeded += 1;
    }

    pub fn fail(&mut self) {
        self.sent += 1;
        self.failed += 1;
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the result (percentile choices,
    /// sample counts, the tier).
    pub notes: Vec<String>,
    pub setup: Phase,
    pub warmup: Phase,
    pub timed: Phase,
    pub verify: Phase,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable lines and the final JSON result line.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (label, p) in [
            ("setup", &self.setup),
            ("warm-up", &self.warmup),
            ("timed", &self.timed),
            ("verify", &self.verify),
        ] {
            let _ = writeln!(
                out,
                "# phase {label}: sent {} succeeded {} failed {}",
                p.sent, p.succeeded, p.failed
            );
        }
        let selected: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut metrics = Vec::with_capacity(selected.len());
        for (name, unit) in selected {
            let value = self.get(name);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let _ = writeln!(out, "{name} = {value} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.timed.sent.max(1),
            self.timed.failed,
            metrics.join(", ")
        );
        Ok(out)
    }
}

/// A finite float as a JSON number with every digit Rust prints for it.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// The process's peak resident set so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if *higher { "higher" } else { "lower" };
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_is_last_and_carries_every_selected_metric() {
        let mut report = Report::default();
        report.set("setup_s", 1.25);
        report.timed.ok();
        let text = report.render(false).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(last.contains("\"throughput_qps\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
        report.set("latency_p50_ms", f64::NAN);
        assert!(report.render(false).is_err());
    }
}
