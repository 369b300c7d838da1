//! Campaign engine: replays declarative chaos scenarios against a grid of
//! serving configurations and reports per-scenario Pareto fronts.
//!
//! The engine is a single-threaded, virtual-time discrete-event simulator
//! over [`SharedRuntime`]'s decide/deploy path. It drives the threaded
//! server's own serving cores under the server's own configuration, so a
//! rule changes in both at once: `classic` and `failover` cells the
//! serving policy (`policy`), `pipeline` cells the stage-parallel core
//! (`pipeline`), deployed once from [`SharedRuntime::pipeline_decide`] (a
//! cell without such a plan is classic, as the server falls back). What
//! runs the cores differs, an event loop instead of the server's threads,
//! for two reasons:
//!
//! * **Determinism.** Same `(scenario name, master seed)` ⇒ *identical*
//!   counters, bit for bit — the replay contract the campaign gates rely
//!   on. The threaded server cannot promise that (wall-clock EWMAs,
//!   scheduler races); this engine can, and a proptest pins it.
//! * **Scale.** A campaign is `scenarios × grid cells` full load runs.
//!   Virtual time with no sleeping makes the 20-scenario matrix a CI
//!   gate instead of an overnight job.
//!
//! The driver keeps only what the server cannot see: control ticks,
//! brownout slow factors (on the measured service time, or per pipeline
//! stage), partitions, the crash and the promotion schedule. It has no
//! batching window: an idle worker takes what is queued at the instant it
//! frees (the threaded window ends at the next arrival or after
//! `batch_window_ms`, a wall-clock race). Conservation — `completed +
//! rejected == submitted`, `lost == 0` — is asserted in every cell.

use crate::class::{default_classes, ClassSpec};
use crate::harness::percentile;
use crate::pipeline::Pipeline;
use crate::policy::{Batch, Policy};
use crate::request::{RejectReason, ServeOutcome};
use crate::server::{ServeConfig, ServeStats};
use murmuration_core::fleet::Input;
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::scenario::{FleetKind, LoweredScenario, ScenarioSpec};
use murmuration_edgesim::{DeviceStatus, NetworkState};
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::GridSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Partition-policy axis of the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// The full partition search space: the policy may split tensors
    /// across devices.
    Split,
    /// Single-tile plans only (no distribution of one inference).
    NoSplit,
}

/// Subnet bit-width axis of the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantPolicy {
    /// The policy picks among all supported bit-widths per request.
    Adaptive,
    /// Full-precision subnets only.
    Fixed32,
    /// Int8 subnets only.
    Fixed8,
}

/// Serving-mode axis of the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServingMode {
    /// Admission control + priority queues + adaptive micro-batching.
    Classic,
    /// Stage-parallel pipeline placement, bottleneck-rate draining.
    Pipeline,
    /// Classic serving under a primary+standby coordinator pair.
    Failover,
}

impl PartitionPolicy {
    pub fn as_str(&self) -> &'static str {
        match self {
            PartitionPolicy::Split => "split",
            PartitionPolicy::NoSplit => "no-split",
        }
    }
}

impl QuantPolicy {
    pub fn as_str(&self) -> &'static str {
        match self {
            QuantPolicy::Adaptive => "adaptive",
            QuantPolicy::Fixed32 => "fixed32",
            QuantPolicy::Fixed8 => "fixed8",
        }
    }
}

impl ServingMode {
    pub fn as_str(&self) -> &'static str {
        match self {
            ServingMode::Classic => "classic",
            ServingMode::Pipeline => "pipeline",
            ServingMode::Failover => "failover",
        }
    }
}

/// One grid cell: a serving configuration a scenario is replayed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridCell {
    pub policy: PartitionPolicy,
    pub quant: QuantPolicy,
    pub mode: ServingMode,
}

impl GridCell {
    /// Stable cell label, used as the Pareto-front key in reports.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.policy.as_str(), self.quant.as_str(), self.mode.as_str())
    }
}

/// The full 2×3×3 grid: partition policy × bit-width × serving mode.
pub fn full_grid() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for policy in [PartitionPolicy::Split, PartitionPolicy::NoSplit] {
        for quant in [QuantPolicy::Adaptive, QuantPolicy::Fixed32, QuantPolicy::Fixed8] {
            for mode in [ServingMode::Classic, ServingMode::Pipeline, ServingMode::Failover] {
                cells.push(GridCell { policy, quant, mode });
            }
        }
    }
    cells
}

/// The budgeted smoke grid: one policy/quant point through all three
/// serving modes — enough to exercise every engine path under CI time
/// budgets.
pub fn smoke_grid() -> Vec<GridCell> {
    [ServingMode::Classic, ServingMode::Pipeline, ServingMode::Failover]
        .into_iter()
        .map(|mode| GridCell { policy: PartitionPolicy::Split, quant: QuantPolicy::Adaptive, mode })
        .collect()
}

/// Campaign knobs: only the replay key. Serving runs under the threaded
/// server's own configuration, [`ServeConfig::engineered`] over
/// [`default_classes`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The master seed every scenario lowering and policy init derives
    /// from — the replay key.
    pub master_seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { master_seed: 42 }
    }
}

/// The runtime-global SLO (also the pipeline-planning target).
const SLO: Slo = Slo::LatencyMs(200.0);
/// Monitor-priming ticks before load starts (and at a standby's
/// promotion).
const WARMUP_TICKS: usize = 10;

/// Raw counters and samples from one cell run. All fields are
/// deterministic in `(scenario name, master seed, cell)`.
#[derive(Clone, Debug, Default)]
pub struct CellStats {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub queue_full: u64,
    pub deadline_unmeetable: u64,
    pub expired: u64,
    pub not_ready: u64,
    pub stage_dead: u64,
    pub slo_ok: u64,
    pub degraded_served: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub failovers: u64,
    pub retried: u64,
    pub crash_dropped: u64,
    pub pipeline_requeued: u64,
    pub gray_suspects: u64,
    pub gray_quarantines: u64,
    pub gray_readmissions: u64,
    /// End-to-end latency of every completion (virtual ms), unsorted.
    pub latencies_ms: Vec<f64>,
    pub accuracy_sum_pct: f64,
}

impl CellStats {
    /// Requests unaccounted for — the conservation invariant demands 0.
    pub fn lost(&self) -> i64 {
        self.submitted as i64 - self.completed as i64 - self.rejected as i64
    }

    /// Books one completion with its end-to-end latency.
    fn record(&mut self, spec: &ClassSpec, latency_ms: f64, accuracy_pct: f32) {
        self.completed += 1;
        self.latencies_ms.push(latency_ms);
        self.accuracy_sum_pct += f64::from(accuracy_pct);
        self.slo_ok += u64::from(spec.met(latency_ms, accuracy_pct));
    }
}

/// One cell's scored result: the latency/accuracy/goodput point plus the
/// robustness counters, schema-stable in `to_json`.
#[derive(Clone, Debug)]
pub struct CellResult {
    pub cell: GridCell,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Mean predicted accuracy over completions (%).
    pub accuracy_pct: f64,
    pub throughput_rps: f64,
    pub goodput_rps: f64,
    /// `slo_ok / completed` (0 when nothing completed).
    pub slo_attainment: f64,
    pub stats: CellStats,
    /// Set by [`pareto_mark`]: whether this cell sits on the scenario's
    /// latency/accuracy/goodput Pareto front.
    pub on_front: bool,
}

impl CellResult {
    fn from_stats(cell: GridCell, stats: CellStats, duration_ms: f64) -> Self {
        let mut sorted = stats.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let completed = stats.completed;
        CellResult {
            cell,
            p50_ms: percentile(&sorted, 0.50),
            p95_ms: percentile(&sorted, 0.95),
            p99_ms: percentile(&sorted, 0.99),
            accuracy_pct: if completed > 0 {
                stats.accuracy_sum_pct / completed as f64
            } else {
                0.0
            },
            throughput_rps: completed as f64 / duration_ms * 1000.0,
            goodput_rps: stats.slo_ok as f64 / duration_ms * 1000.0,
            slo_attainment: if completed > 0 {
                stats.slo_ok as f64 / completed as f64
            } else {
                0.0
            },
            stats,
            on_front: false,
        }
    }

    /// A fingerprint for determinism checks: every counter plus the exact
    /// latency stream, rendered losslessly (`f64`'s `Debug` round-trips).
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.stats)
    }

    /// Schema-stable JSON object for this cell.
    pub fn to_json(&self, indent: &str) -> String {
        let s = &self.stats;
        let mut j = String::new();
        j.push_str(&format!("{indent}{{\n"));
        j.push_str(&format!(
            "{indent}  \"policy\": \"{}\", \"quant\": \"{}\", \"mode\": \"{}\",\n",
            self.cell.policy.as_str(),
            self.cell.quant.as_str(),
            self.cell.mode.as_str()
        ));
        j.push_str(&format!(
            "{indent}  \"p50_ms\": {:.2}, \"p95_ms\": {:.2}, \"p99_ms\": {:.2},\n",
            self.p50_ms, self.p95_ms, self.p99_ms
        ));
        j.push_str(&format!(
            "{indent}  \"accuracy_pct\": {:.2}, \"throughput_rps\": {:.2}, \"goodput_rps\": \
             {:.2}, \"slo_attainment\": {:.4},\n",
            self.accuracy_pct, self.throughput_rps, self.goodput_rps, self.slo_attainment
        ));
        j.push_str(&format!(
            "{indent}  \"conservation\": {{\"submitted\": {}, \"completed\": {}, \"rejected\": \
             {}, \"lost\": {}}},\n",
            s.submitted,
            s.completed,
            s.rejected,
            s.lost()
        ));
        j.push_str(&format!(
            "{indent}  \"rejects\": {{\"queue_full\": {}, \"deadline_unmeetable\": {}, \
             \"expired\": {}, \"not_ready\": {}, \"stage_dead\": {}}},\n",
            s.queue_full, s.deadline_unmeetable, s.expired, s.not_ready, s.stage_dead
        ));
        j.push_str(&format!(
            "{indent}  \"robustness\": {{\"gray_suspects\": {}, \"gray_quarantines\": {}, \
             \"gray_readmissions\": {}, \"degraded_served\": {}, \"failovers\": {}, \"retried\": \
             {}, \"crash_dropped\": {}, \"pipeline_requeued\": {}}},\n",
            s.gray_suspects,
            s.gray_quarantines,
            s.gray_readmissions,
            s.degraded_served,
            s.failovers,
            s.retried,
            s.crash_dropped,
            s.pipeline_requeued
        ));
        j.push_str(&format!("{indent}  \"on_front\": {}\n", self.on_front));
        j.push_str(&format!("{indent}}}"));
        j
    }
}

/// All cells of one scenario, Pareto-marked.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    pub name: String,
    pub master_seed: u64,
    pub duration_ms: f64,
    pub offered: usize,
    pub cells: Vec<CellResult>,
}

impl ScenarioResult {
    /// Labels of the cells on the Pareto front, in grid order.
    pub fn front_labels(&self) -> Vec<String> {
        self.cells.iter().filter(|c| c.on_front).map(|c| c.cell.label()).collect()
    }

    pub fn to_json(&self, indent: &str) -> String {
        let mut j = String::new();
        j.push_str(&format!("{indent}{{\n"));
        j.push_str(&format!(
            "{indent}  \"name\": \"{}\", \"seed\": {}, \"duration_ms\": {:.1}, \"offered\": {},\n",
            self.name, self.master_seed, self.duration_ms, self.offered
        ));
        j.push_str(&format!("{indent}  \"cells\": [\n"));
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            j.push_str(&c.to_json(&format!("{indent}    ")));
            j.push_str(comma);
            j.push('\n');
        }
        j.push_str(&format!("{indent}  ],\n"));
        let front: Vec<String> = self.front_labels().iter().map(|l| format!("\"{l}\"")).collect();
        j.push_str(&format!("{indent}  \"pareto_front\": [{}]\n", front.join(", ")));
        j.push_str(&format!("{indent}}}"));
        j
    }
}

/// A whole campaign: every scenario × every grid cell.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    pub master_seed: u64,
    pub scenarios: Vec<ScenarioResult>,
}

impl CampaignResult {
    /// The campaign report (`results/CAMPAIGN_*.json` shape,
    /// `murmuration.campaign.v1`).
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n");
        j.push_str("  \"schema\": \"murmuration.campaign.v1\",\n");
        j.push_str(&format!("  \"seed\": {},\n", self.master_seed));
        j.push_str(&format!(
            "  \"grid_cells\": {},\n",
            self.scenarios.first().map_or(0, |s| s.cells.len())
        ));
        j.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 < self.scenarios.len() { "," } else { "" };
            j.push_str(&s.to_json("    "));
            j.push_str(comma);
            j.push('\n');
        }
        j.push_str("  ]\n}\n");
        j
    }
}

/// Marks the non-dominated cells over (p95 latency ↓, accuracy ↑,
/// goodput ↑). Cells that completed nothing never reach the front (their
/// zero p95 is an artifact, not a win).
pub fn pareto_mark(cells: &mut [CellResult]) {
    let dominates = |a: &CellResult, b: &CellResult| -> bool {
        a.p95_ms <= b.p95_ms
            && a.accuracy_pct >= b.accuracy_pct
            && a.goodput_rps >= b.goodput_rps
            && (a.p95_ms < b.p95_ms
                || a.accuracy_pct > b.accuracy_pct
                || a.goodput_rps > b.goodput_rps)
    };
    for i in 0..cells.len() {
        cells[i].on_front = cells[i].stats.completed > 0
            && (0..cells.len()).all(|j| {
                j == i || cells[j].stats.completed == 0 || !dominates(&cells[j], &cells[i])
            });
    }
}

/// Builds the per-cell runtime: the fleet kind picks the device profile,
/// the grid cell constrains the search space (partition policy,
/// bit-width), and the LSTM policy re-derives its arities from the
/// constrained space. Seeded from the scenario's sub-seed stream.
fn build_runtime(
    spec: &ScenarioSpec,
    cell: &GridCell,
    master_seed: u64,
    salt: u64,
) -> Arc<SharedRuntime> {
    let mut sc = match spec.fleet {
        FleetKind::Augmented => Scenario::augmented_computing(SloKind::Latency),
        FleetKind::Hetero => Scenario::heterogeneous_edge(SloKind::Latency),
        FleetKind::Swarm(n) => Scenario::device_swarm(n, SloKind::Latency),
    };
    if cell.policy == PartitionPolicy::NoSplit {
        sc.space.partitions = vec![GridSpec::new(1, 1)];
    }
    match cell.quant {
        QuantPolicy::Adaptive => {}
        QuantPolicy::Fixed32 => sc.space.quants = vec![BitWidth::B32],
        QuantPolicy::Fixed8 => sc.space.quants = vec![BitWidth::B8],
    }
    let policy_seed = spec.sub_seed(master_seed, 0x70 + salt);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), policy_seed);
    Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), SLO))
}

/// Applies fleet + partition state to the runtime at tick time: one
/// forced status per device — `Down` when the trace says so or the
/// coordinator cannot reach it, otherwise the trace's `Up` or `Slow`.
fn sync_runtime(rt: &SharedRuntime, lowered: &LoweredScenario, t_ms: f64) {
    let forced = (1..lowered.fleet.n_devices()).map(|dev| {
        let status = if lowered.partitions.can_reach(0, dev, t_ms) {
            lowered.fleet.status(dev, t_ms)
        } else {
            DeviceStatus::Down
        };
        Input::Force { dev, status }
    });
    rt.observe(t_ms, forced);
}

/// Max finite compute-slowdown over `devices` at `t` (brownout stretch).
fn slow_mult(lowered: &LoweredScenario, devices: &[usize], t_ms: f64) -> f64 {
    devices
        .iter()
        .map(|&d| lowered.fleet.slow_factor(d, t_ms))
        .filter(|f| f.is_finite())
        .fold(1.0, f64::max)
}

/// A batch in service on one worker.
struct InService {
    done_ms: f64,
    dispatch_ms: f64,
    base_ms: f64,
    accuracy_pct: f32,
    degraded: bool,
    batch: Batch<()>,
}

/// One coordinator in virtual time: the serving policy core, its runtime
/// and its workers, plus the environment the server cannot see coming
/// (ticks, brownouts). Also the tick and stats state the pipeline mode
/// shares.
struct Engine<'a> {
    cfg: ServeConfig,
    lowered: &'a LoweredScenario,
    rt: Arc<SharedRuntime>,
    rng: StdRng,
    policy: Policy<()>,
    /// Per worker: the batch it is serving, if any.
    workers: Vec<Option<InService>>,
    now: f64,
    next_tick: f64,
    stats: CellStats,
    n_remote: usize,
}

impl<'a> Engine<'a> {
    fn new(lowered: &'a LoweredScenario, rt: Arc<SharedRuntime>, seed: u64) -> Self {
        let cfg = ServeConfig::engineered(default_classes());
        let n_remote = lowered.fleet.n_devices().saturating_sub(1).max(1);
        let mut eng = Engine {
            policy: Policy::new(&cfg),
            workers: (0..cfg.n_workers).map(|_| None).collect(),
            cfg,
            lowered,
            rt,
            rng: StdRng::seed_from_u64(seed),
            now: 0.0,
            next_tick: 0.0,
            stats: CellStats::default(),
            n_remote,
        };
        eng.warmup(0.0);
        eng
    }

    fn net_at(&self, t_ms: f64) -> NetworkState {
        NetworkState::uniform(self.n_remote, self.lowered.net.sample(t_ms))
    }

    /// Primes the monitor at `t_ms`; the control cadence starts there.
    fn warmup(&mut self, t_ms: f64) {
        let net = self.net_at(t_ms);
        for _ in 0..WARMUP_TICKS {
            self.rt.tick(&net, t_ms, &mut self.rng);
        }
        self.next_tick = t_ms + self.cfg.tick_interval_ms;
    }

    /// Runs control-plane ticks up to (and including) `t_ms`.
    fn advance_ticks(&mut self, t_ms: f64) {
        while self.next_tick <= t_ms {
            let t = self.next_tick;
            sync_runtime(&self.rt, self.lowered, t);
            let net = self.net_at(t);
            self.rt.tick(&net, t, &mut self.rng);
            self.next_tick += self.cfg.tick_interval_ms;
        }
    }

    /// One arrival of `class` at `t_ms`, after everything due before it.
    fn arrive(&mut self, class: usize, t_ms: f64) {
        self.run_until(t_ms);
        self.advance_ticks(t_ms);
        self.stats.submitted += 1;
        let _ = self.policy.submit(0, class, t_ms, ());
    }

    /// Steps to `horizon`: idle workers take batches at the current
    /// instant, and batches finishing by the horizon complete in time
    /// order (ties to the lower worker).
    fn run_until(&mut self, horizon: f64) {
        loop {
            self.dispatch();
            let next = self
                .workers
                .iter()
                .enumerate()
                .filter_map(|(w, s)| s.as_ref().map(|s| (w, s.done_ms)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match next {
                Some((w, done_ms)) if done_ms <= horizon => {
                    self.now = done_ms;
                    self.complete(w);
                }
                _ => break,
            }
        }
        if horizon.is_finite() {
            self.now = self.now.max(horizon);
        }
    }

    /// Idle workers take batches at the current instant, the way the
    /// threaded workers do, minus the batching window: one decide and one
    /// deploy per prepared batch, with the brownout stretching the
    /// measured base.
    fn dispatch(&mut self) {
        for w in 0..self.workers.len() {
            while self.workers[w].is_none() {
                let Some(mut batch) = self.policy.take() else { return };
                let now = self.now;
                self.advance_ticks(now);
                let _ = self.policy.prepare(&mut batch, now);
                if batch.items.is_empty() {
                    continue;
                }
                let Some(decision) = self.rt.serve_decide(self.cfg.classes[batch.class].slo())
                else {
                    self.policy.refuse(batch, &RejectReason::NotReady);
                    continue;
                };
                let report = self.rt.deploy(&decision, &self.net_at(now));
                let base_ms =
                    report.latency_ms * slow_mult(self.lowered, &report.devices_used, now);
                let cost = self.policy.start(&batch, base_ms);
                self.workers[w] = Some(InService {
                    done_ms: now + cost,
                    dispatch_ms: now,
                    base_ms,
                    accuracy_pct: report.accuracy_pct,
                    degraded: report.degradation.is_degraded(),
                    batch,
                });
            }
        }
    }

    /// Worker `w`'s batch finishes: every member completes.
    fn complete(&mut self, w: usize) {
        let Some(s) = self.workers[w].take() else { return };
        for served in self.policy.finish(s.batch, s.dispatch_ms, s.base_ms, s.degraded) {
            let spec = &self.cfg.classes[served.item.class];
            self.stats.record(spec, served.queue_ms + served.service_ms, s.accuracy_pct);
        }
    }

    /// Folds a serving core's counters into the cell's (completions and
    /// submissions are booked one by one).
    fn fold(&mut self, p: ServeStats) {
        let s = &mut self.stats;
        s.rejected += p.rejected;
        s.queue_full += p.queue_full;
        s.deadline_unmeetable += p.deadline_unmeetable;
        s.expired += p.expired;
        s.not_ready += p.not_ready;
        s.stage_dead += p.stage_dead;
        s.degraded_served += p.degraded_served;
        s.batches += p.batches;
        s.batched_requests += p.batched_requests;
        s.pipeline_requeued += p.pipeline_requeued;
    }

    /// The coordinator dies, as `ServeHandle::kill`: queued requests drop
    /// unresolved (their classes are returned for retry) and batches in
    /// service finish.
    fn crash(&mut self) -> Vec<usize> {
        let dropped: Vec<usize> = self.policy.abort().into_iter().map(|i| i.class).collect();
        self.stats.crash_dropped += dropped.len() as u64;
        for w in 0..self.workers.len() {
            self.complete(w);
        }
        self.fold(self.policy.stats());
        self.stats.failovers += 1;
        dropped
    }

    /// A standby with runtime `rt` promotes at `promote_ms`: a fresh
    /// serving stack (policy, EWMAs, workers), primed, takes `retries`
    /// through its own admission.
    fn promote(&mut self, rt: Arc<SharedRuntime>, promote_ms: f64, retries: &[usize]) {
        self.rt = rt;
        self.policy = Policy::new(&self.cfg);
        self.now = promote_ms;
        self.warmup(promote_ms);
        for &class in retries {
            self.stats.retried += 1;
            let _ = self.policy.submit(0, class, promote_ms, ());
        }
    }

    /// Final counters: the live coordinator's policy plus gray transitions.
    fn finalize(mut self) -> CellStats {
        self.fold(self.policy.stats());
        let gray = self.rt.fleet().transitions;
        self.stats.gray_suspects = gray.suspects;
        self.stats.gray_quarantines = gray.quarantines;
        self.stats.gray_readmissions = gray.readmissions;
        self.stats
    }
}

/// Classic mode: the serving policy driven over the arrival trace.
fn run_classic(
    spec: &ScenarioSpec,
    cell: &GridCell,
    cfg: &CampaignConfig,
    lowered: &LoweredScenario,
) -> CellStats {
    let rt = build_runtime(spec, cell, cfg.master_seed, 0);
    let mut eng = Engine::new(lowered, rt, spec.sub_seed(cfg.master_seed, 0x10));
    for arrival in lowered.arrivals.arrivals() {
        eng.arrive(arrival.class % eng.cfg.classes.len(), arrival.t_ms);
    }
    eng.run_until(f64::INFINITY);
    eng.finalize()
}

/// Failover mode: classic serving with a primary coordinator that dies
/// at the scenario's kill time. Its queued requests, and arrivals during
/// the detection window, retry on a standby that promotes with a fresh
/// serving stack; batches in service at the kill finish. Detection delay
/// derives from the gossip constants (suspect + fail rounds) stretched by
/// the scenario's gossip drop probability.
fn run_failover(
    spec: &ScenarioSpec,
    cell: &GridCell,
    cfg: &CampaignConfig,
    lowered: &LoweredScenario,
) -> CellStats {
    let Some(kill_ms) = lowered.coordinator_death_ms else {
        // No coordinator death in this scenario: the standby never
        // promotes and failover serving degenerates to classic.
        return run_classic(spec, cell, cfg, lowered);
    };
    let primary = build_runtime(spec, cell, cfg.master_seed, 0);
    let mut eng = Engine::new(lowered, primary, spec.sub_seed(cfg.master_seed, 0x10));
    // SWIM-ish detection: suspect_after + fail_after heartbeat rounds at
    // the tick cadence, stretched when gossip frames drop.
    let rounds = 3.0 + 6.0;
    let drop = lowered.gossip.drop_prob.clamp(0.0, 0.9);
    let promote_ms = kill_ms + rounds * eng.cfg.tick_interval_ms / (1.0 - drop);
    let standby = || build_runtime(spec, cell, cfg.master_seed, 1);
    let mut retries: Option<Vec<usize>> = None;
    let mut promoted = false;
    for arrival in lowered.arrivals.arrivals() {
        let (class, t) = (arrival.class % eng.cfg.classes.len(), arrival.t_ms);
        if retries.is_none() && t >= kill_ms {
            eng.run_until(kill_ms);
            retries = Some(eng.crash());
        }
        if let Some(buffer) = retries.as_mut().filter(|_| !promoted) {
            if t < promote_ms {
                // No coordinator serves yet: the submit waits as a retry.
                eng.stats.submitted += 1;
                buffer.push(class);
                continue;
            }
            eng.promote(standby(), promote_ms, buffer);
            promoted = true;
        }
        eng.arrive(class, t);
    }
    if !promoted {
        let buffer = match retries {
            Some(buffer) => buffer,
            None => {
                eng.run_until(kill_ms);
                eng.crash()
            }
        };
        eng.promote(standby(), promote_ms, &buffer);
    }
    eng.run_until(f64::INFINITY);
    eng.finalize()
}

/// Pipeline mode: every arrival streams through the server's
/// stage-parallel core, deployed once at the start; with no such plan the
/// cell is classic, as in the server.
fn run_pipeline(
    spec: &ScenarioSpec,
    cell: &GridCell,
    cfg: &CampaignConfig,
    lowered: &LoweredScenario,
) -> CellStats {
    let rt = build_runtime(spec, cell, cfg.master_seed, 0);
    let mut eng = Engine::new(lowered, rt, spec.sub_seed(cfg.master_seed, 0x10));
    let Some(deploy) = eng.rt.pipeline_decide(SLO, &eng.net_at(0.0)) else {
        return run_classic(spec, cell, cfg, lowered);
    };
    let mut pipe = Pipeline::new(&eng.cfg, &deploy);
    // What a stage sees: the fleet trace's brownout, and death when its
    // device is down or cut off from the coordinator.
    let slow = |dev: usize, t: f64| match lowered.partitions.can_reach(0, dev, t) {
        true => lowered.fleet.slow_factor(dev, t),
        false => f64::INFINITY,
    };
    for arrival in lowered.arrivals.arrivals() {
        eng.advance_ticks(arrival.t_ms);
        eng.stats.submitted += 1;
        let class = arrival.class % eng.cfg.classes.len();
        pipe.submit(0, class, arrival.t_ms, (), &slow);
    }
    pipe.shutdown();
    pipe.advance(f64::INFINITY, &slow);
    for (_, outcome) in pipe.exits() {
        if let ServeOutcome::Done(c) = outcome {
            let spec = &eng.cfg.classes[c.class];
            eng.stats.record(spec, c.total_ms, c.accuracy_pct);
        }
    }
    eng.fold(pipe.stats());
    eng.finalize()
}

/// Runs one scenario × cell under the hard conservation invariant.
pub fn run_cell(spec: &ScenarioSpec, cell: &GridCell, cfg: &CampaignConfig) -> CellResult {
    let lowered = spec.lower(cfg.master_seed);
    let stats = match cell.mode {
        ServingMode::Classic => run_classic(spec, cell, cfg, &lowered),
        ServingMode::Pipeline => run_pipeline(spec, cell, cfg, &lowered),
        ServingMode::Failover => run_failover(spec, cell, cfg, &lowered),
    };
    assert_eq!(
        stats.completed + stats.rejected,
        stats.submitted,
        "conservation violated in {} × {}: {} + {} != {}",
        spec.name,
        cell.label(),
        stats.completed,
        stats.rejected,
        stats.submitted
    );
    assert_eq!(
        stats.submitted,
        lowered.arrivals.len() as u64,
        "every offered arrival must be accounted for in {} × {}",
        spec.name,
        cell.label()
    );
    CellResult::from_stats(*cell, stats, lowered.duration_ms)
}

/// Runs one scenario across a grid and Pareto-marks the cells.
pub fn run_scenario(
    spec: &ScenarioSpec,
    grid: &[GridCell],
    cfg: &CampaignConfig,
) -> ScenarioResult {
    let mut cells: Vec<CellResult> = grid.iter().map(|c| run_cell(spec, c, cfg)).collect();
    pareto_mark(&mut cells);
    ScenarioResult {
        name: spec.name.clone(),
        master_seed: cfg.master_seed,
        duration_ms: spec.duration_ms,
        offered: spec.lower(cfg.master_seed).arrivals.len(),
        cells,
    }
}

/// Runs a whole campaign: every scenario × every grid cell.
pub fn run_campaign(
    specs: &[ScenarioSpec],
    grid: &[GridCell],
    cfg: &CampaignConfig,
) -> CampaignResult {
    CampaignResult {
        master_seed: cfg.master_seed,
        scenarios: specs.iter().map(|s| run_scenario(s, grid, cfg)).collect(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use murmuration_edgesim::scenario::builtin_by_name;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig::default()
    }

    #[test]
    fn steady_cell_serves_and_conserves() {
        let spec = builtin_by_name("steady-augmented").unwrap();
        let cell = smoke_grid()[0];
        let r = run_cell(&spec, &cell, &quick_cfg());
        assert!(r.stats.completed > 0, "steady load must complete requests");
        assert_eq!(r.stats.lost(), 0);
        assert!(r.p95_ms > 0.0);
        assert!(r.accuracy_pct > 0.0);
    }

    #[test]
    fn batched_requests_count_only_batches_of_two_or_more() {
        // The server's rule (`ServeStats::batched_requests`): a batch of
        // one is dispatched, not batched.
        let spec = builtin_by_name("steady-augmented").unwrap();
        let s = run_cell(&spec, &smoke_grid()[0], &quick_cfg()).stats;
        assert!(s.batches > 0 && s.batched_requests < s.completed, "{s:?}");
    }

    #[test]
    fn cell_runs_are_deterministic() {
        let spec = builtin_by_name("flash-crowd").unwrap();
        let cell = smoke_grid()[0];
        let a = run_cell(&spec, &cell, &quick_cfg());
        let b = run_cell(&spec, &cell, &quick_cfg());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seeds_change_the_run() {
        let spec = builtin_by_name("flash-crowd").unwrap();
        let cell = smoke_grid()[0];
        let a = run_cell(&spec, &cell, &quick_cfg());
        let mut cfg = quick_cfg();
        cfg.master_seed = 7;
        let b = run_cell(&spec, &cell, &cfg);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn failover_cell_fails_over_and_conserves() {
        let spec = builtin_by_name("coordinator-death").unwrap();
        let cell = GridCell {
            policy: PartitionPolicy::Split,
            quant: QuantPolicy::Adaptive,
            mode: ServingMode::Failover,
        };
        let r = run_cell(&spec, &cell, &quick_cfg());
        assert_eq!(r.stats.failovers, 1, "the coordinator death must promote the standby");
        assert!(r.stats.retried > 0, "outage work must retry on the standby");
        assert_eq!(r.stats.lost(), 0);
        assert!(r.stats.completed > 0);
    }

    #[test]
    fn pipeline_cell_streams_and_conserves() {
        let spec = builtin_by_name("steady-swarm").unwrap();
        let cell = GridCell {
            policy: PartitionPolicy::Split,
            quant: QuantPolicy::Adaptive,
            mode: ServingMode::Pipeline,
        };
        let r = run_cell(&spec, &cell, &quick_cfg());
        assert!(r.stats.completed > 0);
        assert_eq!(r.stats.lost(), 0);
    }

    #[test]
    fn pareto_front_is_nonempty_and_nondominated() {
        let spec = builtin_by_name("steady-augmented").unwrap();
        let result = run_scenario(&spec, &smoke_grid(), &quick_cfg());
        let front: Vec<&CellResult> = result.cells.iter().filter(|c| c.on_front).collect();
        assert!(!front.is_empty(), "a completed scenario must have a front");
        for a in &front {
            for b in &result.cells {
                if a.cell == b.cell || b.stats.completed == 0 {
                    continue;
                }
                let strictly_worse = b.p95_ms < a.p95_ms
                    && b.accuracy_pct > a.accuracy_pct
                    && b.goodput_rps > a.goodput_rps;
                assert!(!strictly_worse, "front member dominated by {}", b.cell.label());
            }
        }
    }

    #[test]
    fn campaign_json_is_schema_stable() {
        let spec = builtin_by_name("device-death").unwrap();
        let result = run_campaign(&[spec], &smoke_grid(), &quick_cfg());
        let j = result.to_json();
        for key in [
            "\"schema\": \"murmuration.campaign.v1\"",
            "\"seed\"",
            "\"scenarios\"",
            "\"pareto_front\"",
            "\"conservation\"",
            "\"robustness\"",
            "\"p95_ms\"",
            "\"goodput_rps\"",
            "\"accuracy_pct\"",
        ] {
            assert!(j.contains(key), "campaign JSON lost {key}: {j}");
        }
        // And it parses with the schema checker.
        let v = crate::schema::parse(&j).expect("campaign JSON must parse");
        assert!(v.pointer("scenarios/*/cells/*/conservation/lost").is_some());
    }
}
