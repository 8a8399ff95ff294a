//! The benchmark's metric names and units, and the result line.
//!
//! These lists mirror `BENCHMARK.json`; the benchmark's tests check
//! that the two agree and that every run emits each name with its unit.

use serde::Serialize;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ingest_sps", "samples/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.crc_ns", "ns"),
    ("wire.bytes_per_sample", "B"),
    ("wire.frames_rejected", "count"),
    ("transport.send_ns", "ns"),
    ("gen.write_blocked_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("host.poll_us.p50", "us"),
    ("host.poll_us.p99", "us"),
    ("host.busy_share", "share"),
    ("host.deliveries_per_poll", "count"),
    ("host.ingress_peak", "count"),
    ("host.vitals_shed", "count"),
    ("host.shed_ratio", "share"),
    ("host.critical_overflow", "count"),
    ("host.critical_sends_dropped", "count"),
    ("host.ticks_fired", "count"),
    ("core.handle_ns.data", "ns"),
    ("core.handle_ns.tick", "ns"),
    ("core.handle_ns.ack", "ns"),
    ("core.commands_sent", "count"),
    ("core.retry_ratio", "share"),
    ("core.data_ignored", "count"),
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p99", "us"),
    ("journal.appends", "count"),
    ("journal.syncs", "count"),
    ("journal.bytes", "B"),
    ("runtime.kernel_ns_per_event", "ns"),
    ("shard.balance", "share"),
    ("shard.idle_share", "share"),
    ("campus.ns_per_event.icu", "ns"),
    ("campus.ns_per_event.general", "ns"),
    ("campus.events", "count"),
    ("campus.data_received", "count"),
    ("campus.sim_rtf", "sim-s/s"),
    ("trace.coverage_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.span_cost_ns", "ns"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name neither list declares: a typo must not silently
    /// drop a metric from the result.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// The last line the benchmark prints.
#[derive(Serialize)]
pub struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

impl ResultLine {
    /// Builds the line for a traced (`per_layer`) or untraced
    /// (`end_to_end`) run. End-to-end metrics must all be measured;
    /// per-layer metrics a workload does not exercise read 0. A value
    /// that is not finite makes the run incorrect.
    pub fn new(traced: bool, correct: bool, attempted: u64, failed: u64, m: &Metrics) -> Self {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = correct;
        let mut metrics = BTreeMap::new();
        for &(name, unit) in list {
            let value = match m.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    eprintln!("perfbench: metric {name} is not finite ({v})");
                    correct = false;
                    0.0
                }
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            metrics.insert(name.to_owned(), MetricValue { value, unit: unit.to_owned() });
        }
        ResultLine { correct, attempted, failed, metrics }
    }

    /// Whether the run's outputs passed every check.
    pub fn correct(&self) -> bool {
        self.correct
    }
}
