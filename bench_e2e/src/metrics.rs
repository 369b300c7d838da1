//! The metric tables and the result line.
//!
//! `BENCHMARK.json` at the repository root is the authority for names,
//! units, directions and bounds; the tables here mirror it so the program
//! can print every metric by name and `--aa` can show a delta beside its
//! bound. A unit test keeps the two in step.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// The seven end-to-end metrics, measured with tracing off. A bound belongs
/// to a metric, not to a workload, so the noisiest workload sets it. The
/// wall-clock ones carry the widest bound the contract allows: on the
/// shared two-core host the benchmark was sized on, ten runs of the *same*
/// code spread (quartile distance over median) by 5 to 19 % depending on
/// the hour — hyperthread neighbours, not the code. Tighten them on a quiet
/// box, as a change of its own. `served_share` moves on `overload_serve`
/// only, in virtual time, and is what holds that workload to a tight bound.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("goodput_rps", "1/s", Higher, 0.25),
    e2e("served_share", "share", Higher, 0.05),
    e2e("verified_share", "share", Higher, 0.01),
    e2e("adapt_p50_ms", "ms", Lower, 0.25),
];

/// The per-layer metrics of the traced run. A metric a workload does not
/// exercise reads 0.
pub const PER_LAYER: [MetricDef; 60] = [
    layer("monitor.tick_us_p50", "us", Lower),
    layer("monitor.tick_us_p90", "us", Lower),
    layer("monitor.busy_share", "share", Lower),
    layer("decision.hit_us_p50", "us", Lower),
    layer("decision.miss_ms_p50", "ms", Lower),
    layer("decision.hit_share", "share", Higher),
    layer("decision.busy_share", "share", Lower),
    layer("cache.get_ns_p50", "ns", Lower),
    layer("policy.guarded_decide_ms_p50", "ms", Lower),
    layer("estimator.estimate_us_p50", "us", Lower),
    layer("reconfig.deploy_us_p50", "us", Lower),
    layer("reconfig.switch_us_p50", "us", Lower),
    layer("reconfig.switches", "count", Lower),
    layer("lower.us_p50", "us", Lower),
    layer("executor.execute_ms_p50", "ms", Lower),
    layer("executor.noncompute_ms_p50", "ms", Lower),
    layer("executor.jobs_per_req", "count", Lower),
    layer("executor.tiled_units_per_req", "count", Higher),
    layer("executor.remote_units_per_req", "count", Higher),
    layer("executor.retries", "count", Lower),
    layer("executor.failovers", "count", Lower),
    layer("executor.deadline_misses", "count", Lower),
    layer("tile.split_us_p50", "us", Lower),
    layer("tile.merge_us_p50", "us", Lower),
    layer("wire.encode_us_p50.b32", "us", Lower),
    layer("wire.encode_us_p50.b8", "us", Lower),
    layer("wire.decode_us_p50.b32", "us", Lower),
    layer("wire.decode_us_p50.b8", "us", Lower),
    layer("wire.bytes_per_req", "B", Lower),
    layer("transport.submit_us_p50", "us", Lower),
    layer("transport.dispatch_wait_us_p50", "us", Lower),
    layer("transport.reconnects", "count", Lower),
    layer("transport.heartbeats_missed", "count", Lower),
    layer("transport.resends_deduped", "count", Lower),
    layer("transport.backpressure_rejections", "count", Lower),
    layer("compute.unit_ms_p50.f32", "ms", Lower),
    layer("compute.unit_ms_p50.int8", "ms", Lower),
    layer("compute.busy_ms_per_req", "ms", Lower),
    layer("compute.critical_share", "share", Higher),
    layer("compute.macs_per_req", "count", Lower),
    layer("compute.gmacs_per_s", "GMAC/s", Higher),
    layer("serve.queue_ms_p50", "ms", Lower),
    layer("serve.queue_ms_p90", "ms", Lower),
    layer("serve.avg_batch", "count", Higher),
    layer("serve.batched_share", "share", Higher),
    layer("serve.reject_unmeetable_share", "share", Lower),
    layer("serve.reject_expired_share", "share", Lower),
    layer("serve.reject_queue_full_share", "share", Lower),
    layer("serve.cache_hit_share", "share", Higher),
    layer("serve.interactive_p90_ms", "ms", Lower),
    layer("serve.standard_p90_ms", "ms", Lower),
    layer("serve.besteffort_p90_ms", "ms", Lower),
    layer("serve.submit_wait_us_p50", "us", Lower),
    layer("latency_p99_ms", "ms", Lower),
    layer("whole_run.latency_p50_ms", "ms", Lower),
    layer("whole_run.latency_p90_ms", "ms", Lower),
    layer("whole_run.goodput_rps", "1/s", Higher),
    layer("gen_lag_ms_p90", "ms", Lower),
    layer("trace.closure_share", "share", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value, or 0 for a metric the workload does not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Outcome of one measured run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub errors: Vec<String>,
    /// Remarks that do not make the run incorrect.
    pub warnings: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// A float with all its digits, as JSON (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(result: &RunResult, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_num(result.metrics.get(d.name)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// The human-readable table: every metric by name with its unit.
pub fn print_table(result: &RunResult, defs: &[MetricDef]) {
    for d in defs {
        let bound = if d.bound > 0.0 {
            format!("  (better: {}, bound {:.0} %)", d.better.as_str(), d.bound * 100.0)
        } else {
            String::new()
        };
        println!("  {:<36} {:>16.6} {}{bound}", d.name, result.metrics.get(d.name), d.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints,
    /// with the same unit, direction and bound.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let flat: String = json.split_whitespace().collect();
        for d in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = flat.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists extras");
        for w in crate::WORKLOADS {
            assert!(flat.contains(&format!("{{\"name\":\"{w}\",\"why\":")), "workload {w}");
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_all_digits() {
        let mut r = RunResult { attempted: 3, ..Default::default() };
        r.metrics.set("setup_s", 0.8127000000000001);
        r.metrics.set("goodput_rps", f64::NAN);
        let line = result_line(&r, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127000000000001, \"unit\": \"s\"}"));
        assert!(line.contains("\"goodput_rps\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"adapt_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        r.failed = 1;
        assert!(result_line(&r, &END_TO_END).starts_with("{\"correct\": false"));
    }
}
