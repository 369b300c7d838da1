//! `overload_serve`: an open-loop Poisson ramp to about twice capacity
//! against `serve::ServeHandle`.
//!
//! The benchmark replays the arrival trace itself rather than through the
//! crate's `run_open_loop`, which times a request from its submission: here
//! every arrival is stamped from the moment it was *due*, the generator's
//! lateness is added to its latency, and a generator that runs late fails
//! the run instead of quietly under-loading the server.

use crate::metrics::RunResult;
use crate::schedule::sub_seed;
use crate::stack::{POLICY_HIDDEN, POLICY_SEED};
use crate::stats::{percentile, percentile_guarded, share};
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::{ArrivalTrace, LinkState, RateShape};
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_serve::{
    default_classes, ClassSpec, Completion, EnvModel, RejectReason, ServeConfig, ServeHandle,
    ServeOutcome, ServeStats,
};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "overload_serve";
/// Wall milliseconds per virtual millisecond.
pub const TIME_SCALE: f64 = 0.1;
/// Virtual seconds of the fixed-length run (no `--seconds`).
pub const DEFAULT_VIRTUAL_S: f64 = 300.0;
const RAMP: RateShape = RateShape::Ramp { from_rps: 5.0, to_rps: 40.0 };
const CLASS_MIX: [f64; 3] = [0.4, 0.3, 0.3];
const LINK: LinkState = LinkState { bandwidth_mbps: 300.0, delay_ms: 8.0 };
/// The generator may run late by this share of the tightest deadline.
const MAX_LAG_SHARE: f64 = 0.05;
/// Idle-server requests timed for `serve.submit_wait_us_p50`.
const IDLE_REQUESTS: usize = 2000;
/// Leading share of the ramp (by time) that counts as unloaded: 5 to 8.5
/// rps offered, well under capacity.
const UNLOADED_SHARE: f64 = 0.1;

fn runtime() -> Arc<SharedRuntime> {
    let sc = Scenario::augmented_computing(SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), POLICY_HIDDEN, sc.arities(), POLICY_SEED);
    Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(200.0)))
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        time_scale: TIME_SCALE,
        base_seed: sub_seed(seed, "monitor-noise"),
        ..ServeConfig::engineered(default_classes())
    }
}

/// A warm server and the trace it is about to be offered.
pub struct Rig {
    handle: ServeHandle,
    classes: Vec<ClassSpec>,
    trace: ArrivalTrace,
    virtual_ms: f64,
    pub setup_s: f64,
}

/// Builds runtime and server, serves one request per class on the idle
/// server (filling the strategy cache and the admission estimates), and
/// generates the arrival trace.
pub fn setup(seed: u64, virtual_ms: f64) -> Result<Rig, String> {
    let t0 = Instant::now();
    let cfg = serve_config(seed);
    let classes = cfg.classes.clone();
    let handle = ServeHandle::start(runtime(), EnvModel::constant(LINK, 1), cfg);
    for class in 0..classes.len() {
        if let ServeOutcome::Rejected(r) = handle.submit_wait(class) {
            return Err(format!("idle server refused a class-{class} request: {}", r.reason));
        }
    }
    let trace = ArrivalTrace::poisson(virtual_ms, &RAMP, &CLASS_MIX, sub_seed(seed, "arrivals"));
    Ok(Rig { handle, classes, trace, virtual_ms, setup_s: t0.elapsed().as_secs_f64() })
}

/// How one arrival ended.
enum Fate {
    /// Served; latency is due time to outcome, in virtual ms.
    Done { completion: Completion, latency_ms: f64, in_limit: bool },
    /// Refused or shed by policy.
    Shed,
    /// Lost, or refused for a reason no healthy run has.
    Failed(String),
}

/// One arrival of the trace and what became of it.
struct Arrived {
    class: usize,
    /// When it was due, in virtual ms from the start of the replay.
    due_ms: f64,
    /// How late the generator submitted it (virtual ms).
    lag_ms: f64,
    fate: Fate,
}

/// What the replay leaves behind.
pub struct Replay {
    classes: Vec<ClassSpec>,
    virtual_ms: f64,
    /// In arrival order.
    arrived: Vec<Arrived>,
    stats: ServeStats,
}

/// Replays the trace open loop, then drains and shuts the server down.
pub fn run(rig: Rig) -> Replay {
    let Rig { handle, classes, trace, virtual_ms, .. } = rig;
    let clock = handle.clock().clone();
    let t0 = clock.now_ms();
    let mut pending: Vec<(usize, f64, f64, Receiver<ServeOutcome>)> =
        Vec::with_capacity(trace.len());
    for a in trace.arrivals() {
        let due = t0 + a.t_ms;
        clock.sleep_virtual(due - clock.now_ms());
        let lag = (clock.now_ms() - due).max(0.0);
        pending.push((a.class, a.t_ms, lag, handle.submit(a.class)));
    }
    let mut arrived = Vec::with_capacity(pending.len());
    for (class, due_ms, lag_ms, rx) in pending {
        let fate = match rx.recv_timeout(Duration::from_secs(20)) {
            Err(_) => Fate::Failed("outcome lost".into()),
            Ok(ServeOutcome::Done(c)) => {
                let latency_ms = c.total_ms + lag_ms;
                let in_limit =
                    c.slo_ok && classes[class].deadline_ms().is_none_or(|d| latency_ms <= d);
                Fate::Done { completion: c, latency_ms, in_limit }
            }
            Ok(ServeOutcome::Rejected(r)) => match r.reason {
                RejectReason::QueueFull { .. }
                | RejectReason::DeadlineUnmeetable { .. }
                | RejectReason::Expired { .. } => Fate::Shed,
                other => Fate::Failed(other.to_string()),
            },
        };
        arrived.push(Arrived { class, due_ms, lag_ms, fate });
    }
    let stats = handle.shutdown();
    Replay { classes, virtual_ms, arrived, stats }
}

/// `submit_wait` on an idle server with no service sleep: the serving
/// layer's own cost per request, in wall nanoseconds.
pub fn idle_submit_wait_ns(seed: u64) -> Result<Vec<f64>, String> {
    let cfg = ServeConfig { service_sleep: false, tick_interval_ms: 1_000.0, ..serve_config(seed) };
    let handle = ServeHandle::start(runtime(), EnvModel::constant(LINK, 1), cfg);
    let mut wait_ns = Vec::with_capacity(IDLE_REQUESTS);
    for i in 0..IDLE_REQUESTS + IDLE_REQUESTS / 10 {
        let t = Instant::now();
        let outcome = handle.submit_wait(0);
        let ns = t.elapsed().as_nanos() as f64;
        if let ServeOutcome::Rejected(r) = outcome {
            return Err(format!("idle server refused request {i}: {}", r.reason));
        }
        if i >= IDLE_REQUESTS / 10 {
            wait_ns.push(ns);
        }
    }
    handle.shutdown();
    Ok(wait_ns)
}

/// The guarded percentile where the samples allow it, else the plain one.
fn guarded(values: &[f64], q: f64) -> f64 {
    percentile_guarded(values, q).or(percentile(values, q)).unwrap_or(0.0)
}

impl Replay {
    /// `(arrival, completion, latency, in limit)` of every served arrival.
    fn completions(&self) -> impl Iterator<Item = (&Arrived, &Completion, f64, bool)> {
        self.arrived.iter().filter_map(|a| match &a.fate {
            Fate::Done { completion, latency_ms, in_limit } => {
                Some((a, completion, *latency_ms, *in_limit))
            }
            _ => None,
        })
    }

    /// Failed arrivals (conservation breaks count as one) and reasons, and
    /// the lag check.
    fn verdict(&self, r: &mut RunResult) {
        r.attempted = self.arrived.len() as u64;
        for (i, a) in self.arrived.iter().enumerate() {
            if let Fate::Failed(why) = &a.fate {
                r.failed += 1;
                if r.errors.len() < 5 {
                    r.errors.push(format!("arrival {i}: {why}"));
                }
            }
        }
        let s = &self.stats;
        if s.completed + s.rejected != s.submitted {
            r.failed += 1;
            r.errors.push(format!(
                "conservation broken: completed {} + rejected {} != submitted {}",
                s.completed, s.rejected, s.submitted
            ));
        }
        let tightest =
            self.classes.iter().filter_map(|c| c.deadline_ms()).fold(f64::INFINITY, f64::min);
        let lag_p90 = percentile(&self.lags(), 0.9).unwrap_or(0.0);
        if lag_p90 > MAX_LAG_SHARE * tightest {
            r.errors.push(format!(
                "generator ran late: lag p90 {lag_p90:.2} virtual ms exceeds {:.0} % of the \
                 {tightest:.0} ms deadline",
                MAX_LAG_SHARE * 100.0
            ));
        }
    }

    fn lags(&self) -> Vec<f64> {
        self.arrived.iter().map(|a| a.lag_ms).collect()
    }

    /// Latencies (virtual ms, lateness included) of completions in
    /// deadline-carrying classes that were due before `until_ms`, in
    /// arrival order.
    fn deadline_latencies(&self, until_ms: f64) -> Vec<f64> {
        self.completions()
            .filter(|(a, ..)| a.due_ms < until_ms && self.classes[a.class].deadline_ms().is_some())
            .map(|(_, _, latency, _)| latency)
            .collect()
    }

    /// `(p50, p90)` of the deadline-class latencies and the goodput, over
    /// the whole run: a ramp has no two segments alike, and its latencies
    /// are virtual time, which a busy host does not stretch.
    fn whole_run(&self) -> (f64, f64, f64) {
        let latency = self.deadline_latencies(f64::INFINITY);
        let good = self.completions().filter(|c| c.3).count();
        (guarded(&latency, 0.5), guarded(&latency, 0.9), good as f64 / (self.virtual_ms / 1e3))
    }

    /// The end-to-end metrics.
    pub fn summarize_e2e(&self, setup_s: f64) -> RunResult {
        let mut r = RunResult::default();
        self.verdict(&mut r);
        let arrivals = self.arrived.len() as f64;
        let shed = self.arrived.iter().filter(|a| matches!(a.fate, Fate::Shed)).count();
        let (p50, p90, goodput) = self.whole_run();
        let unloaded = self.deadline_latencies(UNLOADED_SHARE * self.virtual_ms);
        let m = &mut r.metrics;
        m.set("setup_s", setup_s);
        m.set("latency_p50_ms", p50);
        m.set("latency_p90_ms", p90);
        m.set("goodput_rps", goodput);
        m.set("served_share", 1.0 - share(shed as f64, arrivals));
        m.set("verified_share", 1.0 - share(r.failed as f64, arrivals));
        // Nothing ever steps here, so there is no adaptation to time; the
        // slot carries what adaptation is measured against elsewhere — the
        // time to a result with nothing in the way: the head of the ramp,
        // where the server is far from loaded.
        m.set("adapt_p50_ms", guarded(&unloaded, 0.5));
        r
    }

    /// The per-layer metrics: what the program reports about itself
    /// (`ServeStats`, `Completion::{queue_ms, service_ms, batch_size}`)
    /// plus the generator's lag. `idle_wait_ns` is
    /// [`idle_submit_wait_ns`]'s series.
    pub fn summarize_layers(&self, idle_wait_ns: &[f64]) -> RunResult {
        let mut r = RunResult::default();
        self.verdict(&mut r);
        let s = &self.stats;
        let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
        let done: Vec<(&Arrived, &Completion, f64, bool)> = self.completions().collect();
        let queue: Vec<f64> = done.iter().map(|c| c.1.queue_ms).collect();
        let submitted = s.submitted as f64;
        let m = &mut r.metrics;
        m.set("serve.queue_ms_p50", p(&queue, 0.5));
        m.set("serve.queue_ms_p90", p(&queue, 0.9));
        m.set("serve.avg_batch", s.avg_batch());
        m.set("serve.batched_share", share(s.batched_requests as f64, s.completed as f64));
        m.set("serve.reject_unmeetable_share", share(s.deadline_unmeetable as f64, submitted));
        m.set("serve.reject_expired_share", share(s.expired as f64, submitted));
        m.set("serve.reject_queue_full_share", share(s.queue_full as f64, submitted));
        let cached = done.iter().filter(|c| c.1.cached).count();
        m.set("serve.cache_hit_share", share(cached as f64, done.len() as f64));
        m.set("decision.hit_share", share(cached as f64, done.len() as f64));
        for (class, name) in [
            (0, "serve.interactive_p90_ms"),
            (1, "serve.standard_p90_ms"),
            (2, "serve.besteffort_p90_ms"),
        ] {
            let lat: Vec<f64> = done.iter().filter(|c| c.0.class == class).map(|c| c.2).collect();
            m.set(name, p(&lat, 0.9));
        }
        m.set("serve.submit_wait_us_p50", p(idle_wait_ns, 0.5) / 1e3);
        let latency = self.deadline_latencies(f64::INFINITY);
        m.set("latency_p99_ms", guarded(&latency, 0.99));
        m.set("gen_lag_ms_p90", p(&self.lags(), 0.9));
        // The bounded figures of this workload already are whole-run.
        let (p50, p90, goodput) = self.whole_run();
        m.set("whole_run.latency_p50_ms", p50);
        m.set("whole_run.latency_p90_ms", p90);
        m.set("whole_run.goodput_rps", goodput);
        // Queue wait plus service share is all the program reports of a
        // request; what they leave of the due-time latency the benchmark
        // measures is the generator's lateness.
        let parts: f64 = done.iter().map(|c| c.1.queue_ms + c.1.service_ms).sum();
        let total: f64 = done.iter().map(|c| c.2).sum();
        m.set("trace.closure_share", share(parts, total));
        // Nothing is slotted into the server for the traced run.
        m.set("trace.overhead_pct", 0.0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed ⇒ the same arrival trace; a short ramp conserves every
    /// request and keeps the generator on time.
    #[test]
    fn arrival_trace_is_seeded_and_a_short_ramp_conserves() {
        let trace =
            |seed| ArrivalTrace::poisson(5_000.0, &RAMP, &CLASS_MIX, sub_seed(seed, "arrivals"));
        let stamp = |t: &ArrivalTrace| -> Vec<(u64, usize)> {
            t.arrivals().iter().map(|a| (a.t_ms.to_bits(), a.class)).collect()
        };
        assert_eq!(stamp(&trace(3)), stamp(&trace(3)));
        assert_ne!(stamp(&trace(3)), stamp(&trace(4)));

        let rig = setup(3, 5_000.0).unwrap();
        let n = rig.trace.len();
        let replay = run(rig);
        assert_eq!(replay.arrived.len(), n);
        let idle_wait = vec![1e4; 40];
        let e2e = replay.summarize_e2e(0.1);
        assert!(e2e.correct(), "{:?}", e2e.errors);
        assert_eq!(e2e.attempted, n as u64);
        assert_eq!(e2e.metrics.get("verified_share"), 1.0);
        assert!(e2e.metrics.get("adapt_p50_ms") > 0.0);
        assert!(e2e.metrics.get("adapt_p50_ms") <= e2e.metrics.get("latency_p90_ms"));
        let layers = replay.summarize_layers(&idle_wait);
        let closure = layers.metrics.get("trace.closure_share");
        assert!(closure > 0.9 && closure <= 1.0 + 1e-9, "{closure}");
        assert_eq!(layers.metrics.get("serve.submit_wait_us_p50"), 10.0);
    }
}
