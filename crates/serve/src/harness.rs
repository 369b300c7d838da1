//! Load-generation harness: open-loop trace replay, closed-loop clients,
//! and the percentile/goodput report both the CLI and the bench binary
//! render.
//!
//! Open loop is the honest way to measure overload — arrivals keep coming
//! whether or not the server keeps up, exactly like an [`ArrivalTrace`]
//! prescribes. Closed loop (each client waits for its response before
//! sending the next) measures the interactive regime instead.

use crate::class::ClassSpec;
use crate::pipeline::PipelineSnapshot;
use crate::request::{RejectReason, Rejection, ServeOutcome};
use crate::server::{ServeHandle, ServeStats};
use murmuration_edgesim::ArrivalTrace;
use std::sync::mpsc::Receiver;

/// Replays an arrival trace against the server, open loop: each arrival
/// is submitted at its trace time (on the virtual clock) regardless of
/// how far behind the server is. Returns one outcome per arrival, in
/// arrival order.
pub fn run_open_loop(handle: &ServeHandle, trace: &ArrivalTrace) -> Vec<ServeOutcome> {
    let clock = handle.clock();
    let mut inflight: Vec<Receiver<ServeOutcome>> = Vec::with_capacity(trace.len());
    for arrival in trace.arrivals() {
        let wait = arrival.t_ms - clock.now_ms();
        clock.sleep_virtual(wait);
        inflight.push(handle.submit(arrival.class));
    }
    inflight.into_iter().map(collect_outcome).collect()
}

/// Closed-loop load: `n_clients` concurrent clients, each cycling through
/// `class_cycle` and waiting for every response, until the virtual clock
/// passes `duration_ms`. Returns all outcomes (unordered across clients).
pub fn run_closed_loop(
    handle: &ServeHandle,
    n_clients: usize,
    duration_ms: f64,
    class_cycle: &[usize],
) -> Vec<ServeOutcome> {
    assert!(n_clients >= 1 && !class_cycle.is_empty());
    let clock = handle.clock();
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..n_clients)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = c; // stagger the starting class per client
                    while clock.now_ms() < duration_ms {
                        out.push(handle.submit_wait(class_cycle[i % class_cycle.len()]));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().unwrap_or_default()).collect()
    })
}

/// Blocks for one outcome; a dropped sender (a panicked server thread) surfaces
/// as a synthetic shutdown rejection rather than a harness panic.
fn collect_outcome(rx: Receiver<ServeOutcome>) -> ServeOutcome {
    rx.recv().unwrap_or(ServeOutcome::Rejected(Rejection {
        id: u64::MAX,
        class: 0,
        reason: RejectReason::Shutdown,
        t_ms: 0.0,
    }))
}

/// Per-class latency/goodput slice of a [`LoadReport`].
#[derive(Clone, Debug)]
pub struct ClassReport {
    pub name: String,
    pub completed: u64,
    /// Completions whose class SLO held end-to-end.
    pub slo_ok: u64,
    pub rejected: u64,
    /// Percentiles of end-to-end latency (virtual ms) over completions.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
}

/// Aggregate result of one load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Virtual duration the rates are normalized by (ms).
    pub duration_ms: f64,
    pub stats: ServeStats,
    pub per_class: Vec<ClassReport>,
    /// Completions per virtual second.
    pub throughput_rps: f64,
    /// SLO-meeting completions per virtual second — the headline metric.
    pub goodput_rps: f64,
    /// Mean dispatched batch size.
    pub avg_batch: f64,
    /// Per-stage occupancy and bottleneck ids when the run routed a
    /// throughput-mode class through the stage-parallel pipeline.
    pub pipeline: Option<PipelineSnapshot>,
}

impl LoadReport {
    /// Builds the report from a run's outcomes and final counter
    /// snapshot.
    pub fn build(
        classes: &[ClassSpec],
        outcomes: &[ServeOutcome],
        stats: ServeStats,
        duration_ms: f64,
    ) -> Self {
        assert!(duration_ms > 0.0);
        let mut per_class = Vec::with_capacity(classes.len());
        let mut good_total = 0u64;
        for (c, spec) in classes.iter().enumerate() {
            let mut totals: Vec<f64> = Vec::new();
            let mut slo_ok = 0u64;
            let mut rejected = 0u64;
            for o in outcomes {
                match o {
                    ServeOutcome::Done(d) if d.class == c => {
                        totals.push(d.total_ms);
                        if d.slo_ok {
                            slo_ok += 1;
                        }
                    }
                    ServeOutcome::Rejected(r) if r.class == c => rejected += 1,
                    _ => {}
                }
            }
            totals.sort_by(f64::total_cmp);
            good_total += slo_ok;
            per_class.push(ClassReport {
                name: spec.name.clone(),
                completed: totals.len() as u64,
                slo_ok,
                rejected,
                p50_ms: percentile(&totals, 0.50),
                p95_ms: percentile(&totals, 0.95),
                p99_ms: percentile(&totals, 0.99),
            });
        }
        let completed: u64 = per_class.iter().map(|c| c.completed).sum();
        LoadReport {
            duration_ms,
            stats,
            per_class,
            throughput_rps: completed as f64 / duration_ms * 1000.0,
            goodput_rps: good_total as f64 / duration_ms * 1000.0,
            avg_batch: stats.avg_batch(),
            pipeline: None,
        }
    }

    /// Attaches the pipeline's per-stage occupancy snapshot, when the
    /// server ran a throughput-mode class
    /// ([`ServeHandle::pipeline_stats`](crate::server::ServeHandle::pipeline_stats)).
    pub fn with_pipeline_stats(mut self, snapshot: Option<PipelineSnapshot>) -> Self {
        self.pipeline = snapshot;
        self
    }

    /// Renders the report as a JSON object (hand-built — the workspace
    /// carries no serialization dependency).
    pub fn to_json(&self, indent: &str) -> String {
        let s = &self.stats;
        let mut j = String::new();
        j.push_str(&format!("{indent}{{\n"));
        j.push_str(&format!("{indent}  \"duration_ms\": {:.1},\n", self.duration_ms));
        j.push_str(&format!("{indent}  \"submitted\": {},\n", s.submitted));
        j.push_str(&format!("{indent}  \"completed\": {},\n", s.completed));
        j.push_str(&format!("{indent}  \"rejected\": {},\n", s.rejected));
        j.push_str(&format!(
            "{indent}  \"rejects\": {{\"queue_full\": {}, \"deadline_unmeetable\": {}, \
             \"expired\": {}, \"not_ready\": {}, \"shutdown\": {}, \"stage_dead\": {}}},\n",
            s.queue_full,
            s.deadline_unmeetable,
            s.expired,
            s.not_ready,
            s.shutdown_rejects,
            s.stage_dead
        ));
        j.push_str(&format!("{indent}  \"throughput_rps\": {:.2},\n", self.throughput_rps));
        j.push_str(&format!("{indent}  \"goodput_rps\": {:.2},\n", self.goodput_rps));
        j.push_str(&format!("{indent}  \"avg_batch\": {:.2},\n", self.avg_batch));
        j.push_str(&format!(
            "{indent}  \"robustness\": {{\"gray_suspects\": {}, \"gray_quarantines\": {}, \
             \"gray_readmissions\": {}}},\n",
            s.gray_suspects, s.gray_quarantines, s.gray_readmissions
        ));
        if let Some(p) = &self.pipeline {
            j.push_str(&format!(
                "{indent}  \"pipeline\": {{\n{indent}    \"submitted\": {}, \"completed\": {}, \
                 \"requeued\": {},\n",
                s.pipeline_submitted, s.pipeline_completed, s.pipeline_requeued
            ));
            j.push_str(&format!(
                "{indent}    \"planned_bottleneck_stage\": {}, \"planned_bottleneck_ms\": {:.2}, \
                 \"observed_bottleneck_stage\": {}, \"fill_ms\": {:.2},\n",
                p.planned_bottleneck_stage,
                p.planned_bottleneck_ms,
                p.observed_bottleneck_stage,
                p.fill_ms
            ));
            j.push_str(&format!("{indent}    \"stages\": [\n"));
            for (i, st) in p.stages.iter().enumerate() {
                let comma = if i + 1 < p.stages.len() { "," } else { "" };
                j.push_str(&format!(
                    "{indent}      {{\"stage\": {i}, \"device\": {}, \"units\": [{}, {}], \
                     \"est_stage_ms\": {:.2}, \"jobs\": {}, \"batches\": {}, \"requeued\": {}, \
                     \"rejected\": {}, \"busy_ms\": {:.1}, \"utilization\": {:.3}, \
                     \"queue_depth\": {}}}{comma}\n",
                    st.device,
                    st.units.0,
                    st.units.1,
                    st.est_stage_ms,
                    st.jobs,
                    st.batches,
                    st.requeued,
                    st.rejected,
                    st.busy_ms,
                    st.utilization,
                    st.queue_depth
                ));
            }
            j.push_str(&format!("{indent}    ]\n{indent}  }},\n"));
        }
        j.push_str(&format!("{indent}  \"classes\": {{\n"));
        for (i, c) in self.per_class.iter().enumerate() {
            let comma = if i + 1 < self.per_class.len() { "," } else { "" };
            j.push_str(&format!(
                "{indent}    \"{}\": {{\"completed\": {}, \"slo_ok\": {}, \"rejected\": {}, \
                 \"p50_ms\": {:.1}, \"p95_ms\": {:.1}, \"p99_ms\": {:.1}}}{comma}\n",
                c.name, c.completed, c.slo_ok, c.rejected, c.p50_ms, c.p95_ms, c.p99_ms
            ));
        }
        j.push_str(&format!("{indent}  }}\n"));
        j.push_str(&format!("{indent}}}"));
        j
    }

    /// A compact human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>9} {:>7} {:>8} {:>9} {:>9} {:>9}\n",
            "class", "completed", "slo_ok", "rejected", "p50_ms", "p95_ms", "p99_ms"
        ));
        for c in &self.per_class {
            out.push_str(&format!(
                "{:<14} {:>9} {:>7} {:>8} {:>9.1} {:>9.1} {:>9.1}\n",
                c.name, c.completed, c.slo_ok, c.rejected, c.p50_ms, c.p95_ms, c.p99_ms
            ));
        }
        out.push_str(&format!(
            "throughput {:.1} rps | goodput {:.1} rps | avg batch {:.2} | rejects: full={} \
             deadline={} expired={}\n",
            self.throughput_rps,
            self.goodput_rps,
            self.avg_batch,
            self.stats.queue_full,
            self.stats.deadline_unmeetable,
            self.stats.expired
        ));
        if let Some(p) = &self.pipeline {
            out.push_str(&format!(
                "pipeline: {} stages | bottleneck planned=s{} ({:.1} ms) observed=s{} | fill \
                 {:.1} ms | requeued={}\n",
                p.stages.len(),
                p.planned_bottleneck_stage,
                p.planned_bottleneck_ms,
                p.observed_bottleneck_stage,
                p.fill_ms,
                self.stats.pipeline_requeued
            ));
            for (i, st) in p.stages.iter().enumerate() {
                out.push_str(&format!(
                    "  stage {i}: dev{} units[{},{}) jobs={} batches={} util={:.0}% busy={:.0} \
                     ms{}\n",
                    st.device,
                    st.units.0,
                    st.units.1,
                    st.jobs,
                    st.batches,
                    st.utilization * 100.0,
                    st.busy_ms,
                    if i == p.observed_bottleneck_stage { "  <- bottleneck" } else { "" }
                ));
            }
        }
        out
    }
}

/// Nearest-rank percentile over a sorted slice (0 for empty input).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn json_report_carries_robustness_counters() {
        let stats = ServeStats {
            submitted: 3,
            completed: 3,
            gray_suspects: 2,
            gray_quarantines: 1,
            ..ServeStats::default()
        };
        let j = LoadReport::build(&[], &[], stats, 1_000.0).to_json("");
        assert!(j.contains("\"gray_suspects\": 2"), "{j}");
        assert!(j.contains("\"gray_quarantines\": 1"), "{j}");
        let bare = LoadReport::build(&[], &[], ServeStats::default(), 1_000.0).to_json("");
        assert!(bare.contains("\"robustness\""), "{bare}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
