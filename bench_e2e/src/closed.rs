//! The closed-loop client: one thread, the next request only after the
//! last one is verified. Set-up, the measured run, and the two summaries
//! (end-to-end from an untraced run, per-layer from a traced one).

use crate::metrics::RunResult;
use crate::schedule::{sub_seed, ClosedWorkload, Schedule, EPOCH};
use crate::spans::{self, Span, Tracer, Waterfall};
use crate::stack::{Served, Stack};
use crate::stats::{percentile, quiet_of, reported_percentile, segments, share};
use murmuration_core::cache::{CachedStrategy, StrategyCache};
use murmuration_core::transport::TransportStats;
use murmuration_core::wire;
use murmuration_partition::LatencyEstimator;
use murmuration_rl::env::decide_guarded;
use murmuration_rl::{Condition, LstmPolicy, Scenario};
use murmuration_supernet::SubnetSpec;
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::{merge_fdsp, split_fdsp, GridSpec};
use murmuration_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// How long a run measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Whole epochs until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many requests, so count metrics repeat exactly.
    Requests(usize),
}

/// A stack that is set up and warm, with its schedule and noise stream.
pub struct Rig {
    pub stack: Stack,
    pub schedule: Schedule,
    rng: StdRng,
    /// Process-side cost of getting here: runtime + policy build, worker
    /// bind/connect, condition scan, cache warm-up, reference outputs.
    pub setup_s: f64,
}

/// Sets a workload up from nothing to its first timed request.
pub fn setup(w: &ClosedWorkload, seed: u64, budget: Budget, traced: bool) -> Result<Rig, String> {
    let t0 = Instant::now();
    let mut stack = Stack::build(w.stack, traced.then(|| Arc::new(Tracer::default())))?;
    let requests = match budget {
        Budget::Requests(n) => n,
        Budget::Seconds(_) => crate::schedule::TIMEBOX_EPOCHS_MAX * EPOCH,
    };
    let schedule = Schedule::build(w, seed, &mut stack, requests)?;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "monitor-noise"));
    for i in -(w.warmup_requests as i64)..0 {
        let s = schedule.step(i);
        let served = stack.serve(0, s.slo_ms, &s.net, s.t_ms, s.input_idx, s.input, &mut rng)?;
        if let Some(why) = served.failure {
            return Err(format!("warm-up request {i}: {why}"));
        }
    }
    if let Some(t) = stack.tracer() {
        t.clear();
    }
    Ok(Rig { stack, schedule, rng, setup_s: t0.elapsed().as_secs_f64() })
}

impl Rig {
    /// The spans a traced rig has recorded since its warm-up.
    pub fn spans(&self) -> Vec<Span> {
        self.stack.tracer().map(|t| t.snapshot()).unwrap_or_default()
    }
}

/// What a measured run leaves behind.
pub struct ClosedRun {
    pub served: Vec<Served>,
    /// Transport counters accumulated over the run.
    pub transport: TransportStats,
    pub probes: Option<Probes>,
}

/// Runs the schedule from its start for `budget`. A traced rig also takes
/// the direct-call probes, between requests, where no timing sees them.
pub fn run(rig: &mut Rig, budget: Budget) -> Result<ClosedRun, String> {
    let cap = rig.schedule.len().unwrap_or(usize::MAX);
    let stats0 = rig.stack.transport_stats();
    let mut probes = rig.stack.tracer().map(|_| Probes::new(&rig.stack.scenario));
    let mut served = Vec::new();
    let start = Instant::now();
    loop {
        let i = served.len();
        let spent = match budget {
            Budget::Seconds(s) => i % EPOCH == 0 && i > 0 && start.elapsed().as_secs_f64() >= s,
            Budget::Requests(n) => i >= n,
        };
        if spent || i >= cap {
            break;
        }
        let s = rig.schedule.step(i as i64);
        let one = rig.stack.serve(
            i as u32,
            s.slo_ms,
            &s.net,
            s.t_ms,
            s.input_idx,
            s.input,
            &mut rig.rng,
        )?;
        if let Some(p) = &mut probes {
            let cond =
                Condition { slo: s.slo_ms, bw_mbps: s.net.bandwidths(), delay_ms: s.net.delays() };
            p.sample(i, &rig.stack.scenario, &cond, s.input);
        }
        served.push(one);
    }
    let transport = rig.stack.transport_stats().since(&stats0);
    Ok(ClosedRun { served, transport, probes })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Verified, in-limit completions per second of client busy time.
fn rate_rps(part: &[Served], limit_ms: f64) -> f64 {
    let good = part.iter().filter(|s| s.failure.is_none() && ms(s.marks.latency_ns()) <= limit_ms);
    let busy_s: f64 = part.iter().map(|s| s.marks.busy_ns() as f64 / 1e9).sum();
    share(good.count() as f64, busy_s)
}

/// [`rate_rps`] in the quiet segment of the run (see [`crate::stats`]).
pub fn goodput_rps(served: &[Served], limit_ms: f64) -> f64 {
    quiet_of(segments(served).map(|part| Some(rate_rps(part, limit_ms))), false)
        .unwrap_or_else(|| rate_rps(served, limit_ms))
}

/// `serve_decide` start to merged result of every request, wall ms.
fn latency_ms(served: &[Served]) -> Vec<f64> {
    served.iter().map(|s| ms(s.marks.latency_ns())).collect()
}

/// Failed requests and the first few reasons.
fn failures(served: &[Served]) -> (u64, Vec<String>) {
    let why: Vec<String> = served
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.failure.as_ref().map(|f| format!("request {i}: {f}")))
        .collect();
    (why.len() as u64, why.into_iter().take(5).collect())
}

/// The end-to-end metrics of an untraced run.
pub fn summarize_e2e(w: &ClosedWorkload, run: &ClosedRun, hold: usize, setup_s: f64) -> RunResult {
    let served = &run.served;
    let (failed, errors) = failures(served);
    let mut r = RunResult { attempted: served.len() as u64, failed, errors, ..Default::default() };
    let latency = latency_ms(served);
    // Start of the tick that first sees a condition to the verified result
    // of the first request served under it. On `churn_decide` the links
    // and the SLO have just stepped; on `swarm_tcp` every request brings a
    // new condition; `steady_inproc` never steps and is sampled once an
    // epoch, reading one tick plus one request.
    let adapt: Vec<f64> = served.iter().step_by(hold).map(|s| ms(s.marks.busy_ns())).collect();
    let m = &mut r.metrics;
    m.set("setup_s", setup_s);
    for (name, values, q) in [
        ("latency_p50_ms", &latency, 0.5),
        ("latency_p90_ms", &latency, 0.9),
        ("adapt_p50_ms", &adapt, 0.5),
    ] {
        let (value, supported) = reported_percentile(values, q);
        if !supported {
            r.warnings.push(format!(
                "{name}: {} samples cannot meet the ≥10-beyond rule; plain percentile shown",
                values.len()
            ));
        }
        m.set(name, value);
    }
    m.set("goodput_rps", goodput_rps(served, w.latency_limit_ms));
    // A closed loop submits nothing the system may refuse.
    m.set("served_share", 1.0);
    m.set("verified_share", 1.0 - share(failed as f64, served.len() as f64));
    r
}

/// Direct timed calls into functions the request path reaches only
/// through other layers. Taken between requests of the traced run, every
/// [`Probes::EVERY`] requests (the policy roll-out every
/// [`Probes::POLICY_EVERY`]), on the request's own input and condition.
pub struct Probes {
    policy: LstmPolicy,
    cache: StrategyCache,
    pub ns: ProbeTimes,
}

/// Nanoseconds per probed call.
#[derive(Default)]
pub struct ProbeTimes {
    pub encode_b32_ns: Vec<f64>,
    pub encode_b8_ns: Vec<f64>,
    pub decode_b32_ns: Vec<f64>,
    pub decode_b8_ns: Vec<f64>,
    pub split_ns: Vec<f64>,
    pub merge_ns: Vec<f64>,
    pub cache_get_ns: Vec<f64>,
    pub guarded_decide_ns: Vec<f64>,
    pub estimate_ns: Vec<f64>,
}

fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(f());
    into.push(t.elapsed().as_nanos() as f64);
    out
}

impl Probes {
    const EVERY: usize = 8;
    const POLICY_EVERY: usize = 64;
    /// Cache lookups timed as one batch (a single one is near the clock's
    /// own cost).
    const CACHE_BATCH: usize = 64;

    fn new(sc: &Scenario) -> Probes {
        Probes {
            policy: LstmPolicy::new(
                sc.input_dim(),
                crate::stack::POLICY_HIDDEN,
                sc.arities(),
                crate::stack::POLICY_SEED,
            ),
            cache: StrategyCache::new(sc.grid_points, 512),
            ns: ProbeTimes::default(),
        }
    }

    fn sample(&mut self, i: usize, sc: &Scenario, cond: &Condition, input: &Tensor) {
        if !i.is_multiple_of(Self::EVERY) {
            return;
        }
        let ns = &mut self.ns;
        let f32_frame = timed(&mut ns.encode_b32_ns, || wire::encode(input, BitWidth::B32));
        let b8_frame = timed(&mut ns.encode_b8_ns, || wire::encode(input, BitWidth::B8));
        let _ = timed(&mut ns.decode_b32_ns, || wire::decode(&f32_frame));
        let _ = timed(&mut ns.decode_b8_ns, || wire::decode(&b8_frame));
        let grid = GridSpec::new(2, 2);
        let tiles = timed(&mut ns.split_ns, || split_fdsp(input, grid));
        let _ = timed(&mut ns.merge_ns, || merge_fdsp(&tiles, grid));

        self.cache.put(sc, cond, CachedStrategy { actions: vec![0] });
        let t = Instant::now();
        for _ in 0..Self::CACHE_BATCH {
            black_box(self.cache.get(sc, black_box(cond)));
        }
        ns.cache_get_ns.push(t.elapsed().as_nanos() as f64 / Self::CACHE_BATCH as f64);

        if i.is_multiple_of(Self::POLICY_EVERY) {
            let decided =
                timed(&mut ns.guarded_decide_ns, || decide_guarded(&self.policy, sc, cond));
            let genome = sc.decode(&decided.actions);
            let subnet = SubnetSpec::lower(&genome.config);
            let plan = genome.plan(&subnet, sc.devices.len());
            let net = sc.network(cond);
            let est = LatencyEstimator::new(&sc.devices, &net);
            let _ = timed(&mut ns.estimate_ns, || est.estimate(&subnet, &plan));
        }
    }
}

fn p(values: &[f64], q: f64) -> f64 {
    percentile(values, q).unwrap_or(0.0)
}

/// Per-request figures the `execute` subtree gives up: jobs, wire bytes,
/// compute busy and critical-path time, dispatch waits.
#[derive(Default)]
struct ExecTree {
    jobs: usize,
    bytes: u64,
    busy_ns: u64,
    critical_ns: u64,
    elems_computed: u64,
    submit_ns: Vec<f64>,
    wait_ns: Vec<f64>,
    f32_unit_ns: Vec<f64>,
    int8_unit_ns: Vec<f64>,
}

impl ExecTree {
    /// Folds one request's `submit` and `compute` spans in (both slices in
    /// start order).
    fn add(&mut self, submits: &[&Span], computes: &[&Span], int8_units: &[bool]) {
        self.jobs += submits.len();
        for s in submits {
            self.bytes += u64::from(s.bytes);
            self.submit_ns.push(s.dur_ns() as f64);
        }
        // Critical path: per unit, the busiest device (its tiles on one
        // device run one after another); units run one after another.
        let mut per_unit_dev: std::collections::BTreeMap<(u16, u16), u64> = Default::default();
        for c in computes {
            self.busy_ns += c.dur_ns();
            self.elems_computed += u64::from(c.elems);
            *per_unit_dev.entry((c.unit, c.dev)).or_default() += c.dur_ns();
            let int8 = int8_units.get(c.unit as usize).copied().unwrap_or(false);
            if int8 { &mut self.int8_unit_ns } else { &mut self.f32_unit_ns }
                .push(c.dur_ns() as f64);
        }
        let mut per_unit: std::collections::BTreeMap<u16, u64> = Default::default();
        for ((unit, _), ns) in per_unit_dev {
            let slot = per_unit.entry(unit).or_default();
            *slot = (*slot).max(ns);
        }
        self.critical_ns += per_unit.values().sum::<u64>();
        // A device serves its jobs in submission order, so the k-th
        // submit to a device pairs with the k-th compute on it.
        for dev in computes.iter().map(|c| c.dev).collect::<std::collections::BTreeSet<_>>() {
            let sub = submits.iter().filter(|s| s.dev == dev);
            let com = computes.iter().filter(|c| c.dev == dev);
            for (s, c) in sub.zip(com) {
                self.wait_ns.push(c.start_ns.saturating_sub(s.end_ns) as f64);
            }
        }
    }
}

/// The per-layer metrics of a traced run. `bare` holds the same requests
/// served with the decorators out (a pass before the traced one and a pass
/// after): the reference for `trace.overhead_pct`, and the source of the
/// `whole_run.*` figures. Figures of the passes are averaged.
pub fn summarize_layers(
    w: &ClosedWorkload,
    run: &ClosedRun,
    spans: &[Span],
    bare: &[&ClosedRun],
) -> (RunResult, Waterfall) {
    let served = &run.served;
    let n = served.len().max(1) as f64;
    let (failed, errors) = failures(served);
    let mut r = RunResult { attempted: served.len() as u64, failed, errors, ..Default::default() };
    let m = &mut r.metrics;
    let col =
        |f: &dyn Fn(&Served) -> u64| -> Vec<f64> { served.iter().map(|s| f(s) as f64).collect() };
    let busy_ns: f64 = served.iter().map(|s| s.marks.busy_ns() as f64).sum();

    let tick = col(&|s| s.marks.tick_ns());
    m.set("monitor.tick_us_p50", p(&tick, 0.5) / 1e3);
    m.set("monitor.tick_us_p90", p(&tick, 0.9) / 1e3);
    m.set("monitor.busy_share", share(tick.iter().sum(), busy_ns));

    let decide_of = |cached: bool| -> Vec<f64> {
        served.iter().filter(|s| s.cached == cached).map(|s| s.marks.decide_ns() as f64).collect()
    };
    let (hits, misses) = (decide_of(true), decide_of(false));
    m.set("decision.hit_us_p50", p(&hits, 0.5) / 1e3);
    m.set("decision.miss_ms_p50", p(&misses, 0.5) / 1e6);
    m.set("decision.hit_share", share(hits.len() as f64, served.len() as f64));
    m.set("decision.busy_share", share(hits.iter().chain(&misses).sum(), busy_ns));

    m.set("reconfig.deploy_us_p50", p(&col(&|s| s.marks.deploy_ns()), 0.5) / 1e3);
    m.set("reconfig.switch_us_p50", p(&col(&|s| s.switch_ns), 0.5) / 1e3);
    m.set("reconfig.switches", served.iter().filter(|s| s.switched).count() as f64);
    m.set("lower.us_p50", p(&col(&|s| s.marks.lower_ns()), 0.5) / 1e3);

    // The execute subtree, request by request (spans arrive grouped by
    // request and ordered by start).
    let mut tree = ExecTree::default();
    let mut noncompute_ns = Vec::with_capacity(served.len());
    let mut execute_total_ns = 0u64;
    for group in spans.chunk_by(|a, b| a.req == b.req) {
        let of = |name: &str| -> Vec<&Span> { group.iter().filter(|s| s.name == name).collect() };
        let before = tree.critical_ns;
        tree.add(&of(spans::SUBMIT), &of(spans::COMPUTE), &w.stack.units.int8_units);
        let execute: u64 = of(spans::EXECUTE).iter().map(|s| s.dur_ns()).sum();
        execute_total_ns += execute;
        noncompute_ns.push(execute.saturating_sub(tree.critical_ns - before) as f64);
    }
    m.set("executor.execute_ms_p50", p(&col(&|s| s.marks.execute_ns()), 0.5) / 1e6);
    m.set("executor.noncompute_ms_p50", p(&noncompute_ns, 0.5) / 1e6);
    m.set("executor.jobs_per_req", tree.jobs as f64 / n);
    let per_req = |f: &dyn Fn(&Served) -> u32| -> f64 {
        served.iter().map(|s| f64::from(f(s))).sum::<f64>() / n
    };
    m.set("executor.tiled_units_per_req", per_req(&|s| s.shape.tiled_units));
    m.set("executor.remote_units_per_req", per_req(&|s| s.shape.remote_units));
    let total = |f: &dyn Fn(&Served) -> u32| per_req(f) * n;
    m.set("executor.retries", total(&|s| s.report.retries));
    m.set("executor.failovers", total(&|s| s.report.failovers));
    m.set("executor.deadline_misses", total(&|s| s.report.deadline_misses));

    m.set("wire.bytes_per_req", tree.bytes as f64 / n);
    m.set("transport.submit_us_p50", p(&tree.submit_ns, 0.5) / 1e3);
    m.set("transport.dispatch_wait_us_p50", p(&tree.wait_ns, 0.5) / 1e3);
    m.set("transport.reconnects", run.transport.reconnects as f64);
    m.set("transport.heartbeats_missed", run.transport.heartbeats_missed as f64);
    m.set("transport.resends_deduped", run.transport.resends_deduped as f64);
    m.set("transport.backpressure_rejections", run.transport.backpressure_rejections as f64);

    m.set("compute.unit_ms_p50.f32", p(&tree.f32_unit_ns, 0.5) / 1e6);
    m.set("compute.unit_ms_p50.int8", p(&tree.int8_unit_ns, 0.5) / 1e6);
    m.set("compute.busy_ms_per_req", tree.busy_ns as f64 / 1e6 / n);
    m.set("compute.critical_share", share(tree.critical_ns as f64, execute_total_ns as f64));
    // Computed from the element counts the workers saw, not measured.
    let macs = w.stack.units.macs(tree.elems_computed as usize) as f64;
    m.set("compute.macs_per_req", macs / n);
    m.set("compute.gmacs_per_s", share(macs, tree.busy_ns as f64));

    if let Some(probes) = run.probes.as_ref().map(|p| &p.ns) {
        m.set("wire.encode_us_p50.b32", p(&probes.encode_b32_ns, 0.5) / 1e3);
        m.set("wire.encode_us_p50.b8", p(&probes.encode_b8_ns, 0.5) / 1e3);
        m.set("wire.decode_us_p50.b32", p(&probes.decode_b32_ns, 0.5) / 1e3);
        m.set("wire.decode_us_p50.b8", p(&probes.decode_b8_ns, 0.5) / 1e3);
        m.set("tile.split_us_p50", p(&probes.split_ns, 0.5) / 1e3);
        m.set("tile.merge_us_p50", p(&probes.merge_ns, 0.5) / 1e3);
        m.set("cache.get_ns_p50", p(&probes.cache_get_ns, 0.5));
        m.set("policy.guarded_decide_ms_p50", p(&probes.guarded_decide_ns, 0.5) / 1e6);
        m.set("estimator.estimate_us_p50", p(&probes.estimate_ns, 0.5) / 1e3);
    }

    m.set("latency_p99_ms", p(&latency_ms(served), 0.99));
    // What the bounded end-to-end figures leave out on purpose: every
    // request of the run, noisy seconds included.
    let over_bare = |f: &dyn Fn(&[Served]) -> f64| -> f64 {
        share(bare.iter().map(|r| f(&r.served)).sum(), bare.len() as f64)
    };
    m.set("whole_run.latency_p50_ms", over_bare(&|s| p(&latency_ms(s), 0.5)));
    m.set("whole_run.latency_p90_ms", over_bare(&|s| p(&latency_ms(s), 0.9)));
    m.set("whole_run.goodput_rps", over_bare(&|s| rate_rps(s, w.latency_limit_ms)));
    let waterfall = Waterfall::build(spans);
    m.set("trace.closure_share", waterfall.closure_share());
    let traced_goodput = goodput_rps(served, w.latency_limit_ms);
    let untraced_goodput = over_bare(&|s| goodput_rps(s, w.latency_limit_ms));
    m.set("trace.overhead_pct", (1.0 - share(traced_goodput, untraced_goodput)) * 100.0);
    (r, waterfall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{closed_workload, Walk};
    use crate::stack::{StackSpec, TransportKind, UnitShape};

    /// `churn_decide` on toy units: same seed ⇒ the same plan digests and
    /// the same hits, request for request; a traced replay decides exactly
    /// what the untraced run decided and its waterfall closes.
    #[test]
    fn same_seed_replays_the_same_decisions_and_plans() {
        let base = closed_workload("churn_decide").unwrap();
        assert_eq!(base.walk, Walk::Churn);
        let w = ClosedWorkload {
            stack: StackSpec {
                transport: TransportKind::InProc,
                units: UnitShape { layers: 1, channels: 2, hw: 8, int8_units: [false; 7] },
                ..base.stack
            },
            ..base
        };
        let budget = Budget::Requests(3 * EPOCH);
        let play = |seed: u64, traced: bool| {
            let mut rig = setup(&w, seed, budget, traced).unwrap();
            let run = run(&mut rig, budget).unwrap();
            let spans = rig.spans();
            rig.stack.shutdown();
            (run, spans)
        };
        let trail = |r: &ClosedRun| -> Vec<(u64, bool)> {
            r.served.iter().map(|s| (s.shape.digest, s.cached)).collect()
        };
        let (a, _) = play(5, false);
        let (b, spans) = play(5, true);
        let (c, _) = play(6, false);
        assert_eq!(a.served.len(), 3 * EPOCH);
        assert!(a.served.iter().all(|s| s.failure.is_none()));
        assert_eq!(trail(&a), trail(&b), "tracing must not change what is decided");
        assert_ne!(trail(&a), trail(&c), "another seed walks other conditions");

        let (layers, waterfall) = summarize_layers(&w, &b, &spans, &[&a]);
        assert!(layers.metrics.get("whole_run.latency_p90_ms") > 0.0);
        let hits = a.served.iter().filter(|s| s.cached).count() as f64;
        assert_eq!(layers.metrics.get("decision.hit_share"), hits / (3 * EPOCH) as f64);
        assert!(layers.metrics.get("executor.jobs_per_req") >= 7.0, "a job per unit at least");
        assert!(waterfall.closure_share() > 0.9, "{}", waterfall.closure_share());
        assert!(layers.correct());

        let e2e = summarize_e2e(&w, &a, crate::schedule::CHURN_HOLD, 0.5);
        assert_eq!(e2e.metrics.get("verified_share"), 1.0);
        assert!(e2e.metrics.get("goodput_rps") > 0.0);
    }
}
