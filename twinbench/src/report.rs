//! The metric catalogue and the result line.
//!
//! Every name printed is listed here with its unit, and the tests pin
//! that this catalogue and `BENCHMARK.json` agree.

use std::collections::BTreeMap;

/// (name, unit)
pub type Metric = (&'static str, &'static str);

/// Printed by every untraced run, whatever the workload. The operation
/// is the workload's unit of user-visible work: a client request on
/// serve_hot, an analyst what-if on serve_whatif, a replayed telemetry
/// day on replay_telemetry. Peak memory is a per-layer metric
/// (`process.rss_peak_mb`): on a small shared host the resident set of
/// these processes moves 15–30 % from run to run with the allocator's
/// arena placement, more than any bound here could allow.
pub const END_TO_END: [Metric; 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The event-kernel counters, in registry order.
pub const KERNEL_COUNTERS: [&str; 7] = [
    "kernel.events.job_arrival",
    "kernel.events.job_completion",
    "kernel.events.wet_bulb_breakpoint",
    "kernel.events.cooling_quantum",
    "kernel.events.record_boundary",
    "kernel.gaps_batched",
    "kernel.samples_backfilled",
];

/// Printed by every traced run. A layer that does no work on a workload
/// reads 0 there (the cooling plant on the serving workloads, the
/// service on replay_telemetry).
pub const PER_LAYER: [Metric; 57] = [
    ("transport.rtt_p50_us", "us"),
    ("transport.residual_us", "us"),
    ("transport.residual_pct", "%"),
    ("protocol.client_serialize_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.serialize_us", "us"),
    ("protocol.client_parse_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("pool.queue_wait_p50_us", "us"),
    ("pool.queue_wait_p99_us", "us"),
    ("pool.busy_total", "count"),
    ("pool.wakeups_per_req", "ratio"),
    ("pool.wasted_wakeup_frac", "ratio"),
    ("service.handle_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.evictions", "count"),
    ("snapshot.resolve_us", "us"),
    ("snapshot.take_us", "us"),
    ("snapshot.persist_ms", "ms"),
    ("snapshot.rehydrate_ms", "ms"),
    ("snapshot.file_bytes", "B"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.recover_load_ms", "ms"),
    ("recover.total_s", "s"),
    ("ingest.p50_ms", "ms"),
    ("ingest.late_p50_ms", "ms"),
    ("whatif.run_us", "us"),
    ("whatif.draws_total", "count"),
    ("twin.fork_us", "us"),
    ("twin.run_us_per_sim_h", "us"),
    ("twin.save_state_ms", "ms"),
    ("twin.from_state_ms", "ms"),
    ("kernel.events.job_arrival", "count"),
    ("kernel.events.job_completion", "count"),
    ("kernel.events.wet_bulb_breakpoint", "count"),
    ("kernel.events.cooling_quantum", "count"),
    ("kernel.events.record_boundary", "count"),
    ("kernel.gaps_batched", "count"),
    ("kernel.samples_backfilled", "count"),
    ("kernel.self_ms_per_day", "ms"),
    ("cooling.steps", "count"),
    ("cooling.step_p50_us", "us"),
    ("cooling.step_p99_us", "us"),
    ("cooling.busy_ms_per_day", "ms"),
    ("ensemble.day_p50_ms", "ms"),
    ("ensemble.day_max_ms", "ms"),
    ("ensemble.parallel_eff", "ratio"),
    ("telemetry.record_ms_per_day", "ms"),
    ("telemetry.compare_ms", "ms"),
    ("telemetry.power_nrmse_pct", "%"),
    ("telemetry.pue_bias_pct", "%"),
    ("process.rss_peak_mb", "MB"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The tail percentile of `latency_p90_ms`: the highest one that every
/// workload resolves (10 or more samples beyond it) within a run, and
/// steadier from run to run than p95 on this kind of shared host.
const TAIL: f64 = 90.0;

/// Set the latency and throughput metrics from the durations of a
/// workload's operations over its measured window, and return the table
/// line that states the sample count and how far it resolves.
pub fn set_latency(
    values: &mut Values,
    ops: &str,
    durations_ms: Vec<f64>,
    window_s: f64,
) -> String {
    use crate::stats::{highest_resolved, percentile, sorted};
    let n = durations_ms.len();
    let sorted = sorted(durations_ms);
    let tail = percentile(&sorted, TAIL);
    values.set("latency_p50_ms", percentile(&sorted, 50.0).value());
    values.set("latency_p90_ms", tail.value());
    values.set("throughput_per_s", n as f64 / window_s);
    format!(
        "  {n} {ops} in {window_s:.2} s; highest resolved percentile {}{}",
        highest_resolved(n).map_or("none".into(), |p| format!("p{p}")),
        if tail.is_resolved() {
            ""
        } else {
            "; p90 UNRESOLVED (fewer than 10 samples beyond it)"
        }
    )
}

/// Metric values a workload measured, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set a metric. Panics on a name outside the catalogue: that is a
    /// bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue`. A metric the workload did not set reads 0 — only
/// per-layer metrics of layers the workload never calls can be unset
/// (`main` checks the end-to-end set is complete). Non-finite values
/// are an error.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = values.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn benchmark_json() -> serde::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &serde::Value, section: &str) -> Vec<(String, String)> {
        json.get(section)
            .and_then(serde::Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(serde::Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_valid_and_listed_in_benchmark_json() {
        let json = benchmark_json();
        for (section, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = listed(&json, section);
            let printed: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(printed, listed, "{section} differs from BENCHMARK.json");
            for (name, _) in catalogue {
                assert!(valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
            }
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        for name in KERNEL_COUNTERS {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} is a per-layer metric"
            );
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        let line = json_line(true, 10, 0, &END_TO_END, &values).expect("finite values");
        let parsed: serde::Value = serde_json::from_str(&line).expect("the line is JSON");
        let metrics = parsed.get("metrics").expect("metrics object");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("every metric printed");
            assert_eq!(m.get("unit").and_then(serde::Value::as_str), Some(unit));
        }
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(serde::Value::as_f64),
            Some(0.8127)
        );
        values.set("latency_p50_ms", f64::NAN);
        assert!(json_line(true, 10, 0, &END_TO_END, &values).is_err());
    }
}
