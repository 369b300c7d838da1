//! Campaign: replays declarative chaos scenarios against a grid of serving
//! configurations and reports per-scenario Pareto fronts.
//!
//! A cell is the threaded server in virtual time: each coordinator boots
//! as `ServeHandle::start` does and its serving `engine` is stepped as the
//! server's dispatch thread steps it, so every serving rule is the
//! server's by construction. The campaign keeps only the environment: the
//! arrival loop, the control ticks, and the coordinator crash and
//! promotion schedule. One thread and no clock give two things the
//! threaded server cannot: the same `(scenario name, master seed)` replays
//! bit for bit (a proptest pins it), and the 28-scenario matrix runs in
//! seconds, as a CI gate. Conservation (`completed + rejected ==
//! submitted`, `lost == 0`) is asserted in every cell.

use crate::class::default_classes;
use crate::engine::Engine;
use crate::failover::{detection_rounds, FailoverConfig};
use crate::harness::percentile;
use crate::request::ServeOutcome;
use crate::server::{add_counters, boot, Control, EnvModel, ServeConfig, ServeStats};
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::scenario::{FleetKind, LoweredScenario, ScenarioSpec};
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::GridSpec;
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

/// The runtime-global SLO every cell's runtime is built with.
const SLO: Slo = Slo::LatencyMs(200.0);

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

    /// Books a coordinator's completions (`add` counts its rejections).
    fn book(&mut self, exits: impl Iterator<Item = ((), ServeOutcome)>) {
        for (_, outcome) in exits {
            if let ServeOutcome::Done(c) = outcome {
                self.completed += 1;
                self.latencies_ms.push(c.total_ms);
                self.accuracy_sum_pct += f64::from(c.accuracy_pct);
                self.slo_ok += u64::from(c.slo_ok);
            }
        }
    }

    /// Adds a coordinator's serving counters.
    fn add(&mut self, s: ServeStats) {
        add_counters!(self, s; rejected, queue_full, deadline_unmeetable, expired, not_ready,
            stage_dead, degraded_served, batches, batched_requests, pipeline_requeued);
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

/// One coordinator in virtual time.
struct Node<'a> {
    rt: Arc<SharedRuntime>,
    env: &'a EnvModel,
    cfg: ServeConfig,
    control: Control,
    engine: Engine<()>,
}

impl<'a> Node<'a> {
    /// Boots coordinator `salt` (0 the primary, 1 the standby) at `t0`.
    fn boot(
        spec: &ScenarioSpec,
        cell: &GridCell,
        seed: u64,
        env: &'a EnvModel,
        salt: u64,
        t0: f64,
    ) -> Self {
        let rt = build_runtime(spec, cell, seed, salt);
        // The server's engineered configuration, every class streamed in
        // pipeline cells, and the coordinator's own monitoring-noise seed.
        let stream = cell.mode == ServingMode::Pipeline;
        let classes =
            default_classes().into_iter().map(|c| if stream { c.with_pipeline() } else { c });
        let base_seed = spec.sub_seed(seed, 0x10 + salt);
        let cfg = ServeConfig { base_seed, ..ServeConfig::engineered(classes.collect()) };
        let (control, engine) = boot(&rt, env, &cfg, t0);
        Node { rt, env, cfg, control, engine }
    }

    /// Runs the ticks and serving events due by `t` in time order (a tick
    /// first at a shared instant), deciding each dispatch at its instant.
    fn run_until(&mut self, t: f64, stats: &mut CellStats) {
        let env = self.env;
        let slow = |dev, at| env.slow(dev, at);
        while let Some(at) = self.engine.next_event().filter(|&at| at <= t) {
            if self.control.next_ms <= at {
                self.control.tick(env, &self.rt, self.control.next_ms);
                continue;
            }
            self.engine.advance(at, &slow);
            while let Some(due) = self.engine.due() {
                let served = env.serve(&self.rt, self.cfg.classes[due.class].slo(), due.at);
                self.engine.start(due.slot, due.at, served, &slow);
            }
            stats.book(self.engine.exits());
        }
    }

    /// One arrival of `class` at `t`, after everything due by then.
    fn arrive(&mut self, class: usize, t: f64, stats: &mut CellStats) {
        self.run_until(t, stats);
        while self.control.next_ms <= t {
            self.control.tick(self.env, &self.rt, self.control.next_ms);
        }
        let env = self.env;
        self.engine.submit(0, class % self.cfg.classes.len(), t, (), &|dev, at| env.slow(dev, at));
        stats.book(self.engine.exits());
    }

    /// Serves out everything the coordinator holds and adds its counters.
    fn drain(mut self, stats: &mut CellStats) -> Arc<SharedRuntime> {
        self.engine.shutdown();
        self.run_until(f64::INFINITY, stats);
        stats.add(self.engine.stats());
        self.rt
    }

    /// The coordinator dies at `t`, as `ServeHandle::kill`: what it had not
    /// dispatched drops unresolved (the classes are returned for retry)
    /// and its dispatched batches finish.
    fn crash(mut self, t: f64, stats: &mut CellStats) -> Vec<usize> {
        self.run_until(t, stats);
        let dropped = self.engine.abort();
        stats.crash_dropped += dropped.len() as u64;
        stats.failovers += 1;
        self.drain(stats);
        dropped
    }
}

/// How long a standby takes to promote over a silent primary: the gossip
/// rounds of [`FailoverCluster`](crate::FailoverCluster)'s detection, one
/// per control tick, stretched when gossip frames drop.
fn detection_ms(lowered: &LoweredScenario, tick_interval_ms: f64) -> f64 {
    let rounds = detection_rounds(&FailoverConfig::default().gossip) as f64;
    let drop = lowered.gossip.drop_prob.clamp(0.0, 0.9);
    rounds * tick_interval_ms / (1.0 - drop)
}

/// Serves one cell's arrivals. In a failover cell whose scenario kills the
/// coordinator, the primary crashes at the kill; what it dropped and the
/// arrivals until the standby promotes retry on the standby, which boots
/// fresh and takes them through its own admission.
fn serve_cell(
    spec: &ScenarioSpec,
    cell: &GridCell,
    seed: u64,
    lowered: &LoweredScenario,
) -> CellStats {
    let n_remote = lowered.fleet.n_devices().saturating_sub(1).max(1);
    let env = EnvModel::new(lowered.net.clone(), n_remote)
        .with_fleet(lowered.fleet.clone())
        .with_partitions(lowered.partitions.clone());
    let mut stats = CellStats::default();
    let mut node = Node::boot(spec, cell, seed, &env, 0, 0.0);
    let mut arrivals = lowered.arrivals.arrivals().iter().peekable();
    let kill = lowered.coordinator_death_ms.filter(|_| cell.mode == ServingMode::Failover);
    if let Some(kill_ms) = kill {
        let promote_ms = kill_ms + detection_ms(lowered, node.cfg.tick_interval_ms);
        while let Some(a) = arrivals.next_if(|a| a.t_ms < kill_ms) {
            stats.submitted += 1;
            node.arrive(a.class, a.t_ms, &mut stats);
        }
        let mut retries = node.crash(kill_ms, &mut stats);
        // No coordinator serves until the promotion: submits wait as retries.
        while let Some(a) = arrivals.next_if(|a| a.t_ms < promote_ms) {
            stats.submitted += 1;
            retries.push(a.class);
        }
        node = Node::boot(spec, cell, seed, &env, 1, promote_ms);
        stats.retried = retries.len() as u64;
        for class in retries {
            node.arrive(class, promote_ms, &mut stats);
        }
    }
    for a in arrivals {
        stats.submitted += 1;
        node.arrive(a.class, a.t_ms, &mut stats);
    }
    let gray = node.drain(&mut stats).fleet().transitions;
    stats.gray_suspects = gray.suspects;
    stats.gray_quarantines = gray.quarantines;
    stats.gray_readmissions = gray.readmissions;
    stats
}

/// Runs one scenario × cell under the hard conservation invariant.
pub fn run_cell(spec: &ScenarioSpec, cell: &GridCell, cfg: &CampaignConfig) -> CellResult {
    let lowered = spec.lower(cfg.master_seed);
    let stats = serve_cell(spec, cell, cfg.master_seed, &lowered);
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
