//! What a workload run produces, the metric registry `BENCHMARK.json`
//! mirrors, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Outcome;
use crate::trace::Span;

/// The end-to-end metrics, measured with tracing off.  Each is defined on
/// every workload; `README.md` gives the per-workload meaning.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct E2e {
    pub setup_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub mean_ms: f64,
    pub cpu_us_per_op: f64,
    pub peak_heap_mb: f64,
    pub backup_states: f64,
}

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_mean_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_heap_mb", "MB"),
    ("backup_states", "count"),
];

impl E2e {
    pub fn values(&self) -> [f64; 7] {
        [
            self.setup_s,
            self.p50_ms,
            self.p90_ms,
            self.mean_ms,
            self.cpu_us_per_op,
            self.peak_heap_mb,
            self.backup_states,
        ]
    }
}

/// `(name, unit)` of every per-layer metric, in output order.  A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("ingest.pump_us", "us"),
    ("ingest.enqueue_to_flush_ms.p50", "ms"),
    ("ingest.enqueue_to_flush_ms.p90", "ms"),
    ("ingest.batch_events", "count"),
    ("ingest.size_flushes", "count"),
    ("ingest.time_flushes", "count"),
    ("ingest.latency_p99_ms", "ms"),
    ("parallel.send_us", "us"),
    ("parallel.flush_to_ack_ms.p50", "ms"),
    ("parallel.flush_to_ack_ms.p90", "ms"),
    ("parallel.flush_to_ack_ms.p99", "ms"),
    ("parallel.server_cpu_us_per_event", "us"),
    ("parallel.aggregator_cpu_us_per_event", "us"),
    ("wal.durable_apply_ns", "ns"),
    ("server.plain_apply_ns", "ns"),
    ("recovery.restart_ms", "ms"),
    ("recovery.frames_replayed", "count"),
    ("recovery.peer_resyncs", "count"),
    ("recovery.failover_gap_ms", "ms"),
    ("ingest.diverted", "count"),
    ("ingest.replayed", "count"),
    ("ingest.retries", "count"),
    ("generator.lag_ms.p99", "ms"),
    ("generator.lag_ms.max", "ms"),
    ("host.steal_pct", "%"),
    ("product.build_ms", "ms"),
    ("product.states", "count"),
    ("fault_graph.build_ms", "ms"),
    ("fault_graph.edges", "count"),
    ("alg2.generate_ms", "ms"),
    ("alg2.descent_steps", "count"),
    ("alg2.candidates_examined", "count"),
    ("alg2.outer_iterations", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.remapped", "count"),
    ("cache.evicted", "count"),
    ("cache.graph_hits", "count"),
    ("delta.update_ms", "ms"),
    ("delta.closures_remapped", "count"),
    ("delta.states_reexpanded", "count"),
    ("delta.stripes_touched", "count"),
    ("delta.graph_rebuilt", "count"),
    ("self_ms.ingest.pump", "ms"),
    ("self_ms.parallel.send", "ms"),
    ("self_ms.bench.marker", "ms"),
    ("self_ms.recovery.restart", "ms"),
    ("self_ms.product.build", "ms"),
    ("self_ms.alg2.generate", "ms"),
    ("self_ms.delta.update", "ms"),
    ("trace.spans", "count"),
    ("trace.record_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// One workload run.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub outcome: Outcome,
    pub e2e: E2e,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Length of the measured window, ns.
    pub window_ns: u64,
    /// Human-readable lines printed above the result.
    pub lines: Vec<String>,
}

impl WorkloadResult {
    /// A run that could not get as far as measuring.
    pub fn failed(outcome: Outcome, lines: Vec<String>) -> Self {
        WorkloadResult {
            outcome,
            lines,
            ..Default::default()
        }
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the chosen kind, each `{"value": v, "unit": u}`.
pub fn result_json(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            number(*value)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let o = Outcome {
            attempted: 10,
            failed: 0,
        };
        let line = result_json(&o, &[("latency_p50_ms", "ms", 1.25), ("x", "count", 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"x\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        assert!(result_json(&o, &[("nan", "ms", f64::NAN)]).contains("\"value\": 0.0"));
    }

    /// `BENCHMARK.json` at the repository root lists exactly these metrics
    /// with these units.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
