//! The goal-conditioned sequential decision environment.
//!
//! One episode makes every decision for one inference deployment: the input
//! resolution, then per stage the kernel / depth / expand / quantization /
//! spatial-partition settings and a device for each potential tile, and
//! finally the head placement. The resulting (config, plan) pair is scored
//! with the latency estimator and accuracy model under the episode's
//! network condition, paying the reward of Eq. (2) (latency SLO) or
//! Eq. (3) (accuracy SLO).

use crate::policy::{ActionHead, LstmPolicy, NUM_HEADS};
use murmuration_edgesim::device::{augmented_computing_devices, device_swarm_devices};
use murmuration_edgesim::{Device, LinkState, NetworkState};
use murmuration_partition::evolutionary::Genome;
use murmuration_partition::{ExecutionPlan, LatencyEstimator, UnitPlacement};
use murmuration_supernet::{AccuracyModel, SearchSpace, SubnetConfig, SubnetSpec};
use rand::Rng;

/// Which quantity the SLO constrains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// SLO is a latency ceiling (ms); reward pays accuracy.
    Latency,
    /// SLO is an accuracy floor (%); reward pays low latency.
    Accuracy,
}

/// One task+goal: the SLO value and the per-remote-link network state.
#[derive(Clone, Debug, PartialEq)]
pub struct Condition {
    pub slo: f64,
    pub bw_mbps: Vec<f64>,
    pub delay_ms: Vec<f64>,
}

/// Outcome of one episode.
#[derive(Clone, Debug)]
pub struct EpisodeResult {
    pub actions: Vec<usize>,
    pub latency_ms: f64,
    pub accuracy_pct: f32,
    pub reward: f32,
    pub met: bool,
}

/// An evaluation scenario: devices, search space, SLO kind and ranges.
///
/// ```
/// use murmuration_rl::{Scenario, SloKind};
/// use murmuration_rl::env::bootstrap_actions;
///
/// let sc = Scenario::device_swarm(5, SloKind::Latency);
/// let cond = sc.condition_from_indices(9, &[9; 4], &[0; 4]); // loosest point
/// let result = sc.evaluate(&cond, &bootstrap_actions(&sc)[0]);
/// assert!(result.met && result.accuracy_pct > 79.0);
/// ```
#[derive(Clone, Debug)]
pub struct Scenario {
    pub devices: Vec<Device>,
    pub space: SearchSpace,
    pub slo_kind: SloKind,
    /// SLO range (ms for latency, % for accuracy).
    pub slo_range: (f64, f64),
    /// Bandwidth range (Mbps), log-spaced grid.
    pub bw_range: (f64, f64),
    /// Delay range (ms), linear grid.
    pub delay_range: (f64, f64),
    /// Discretization per metric (the paper uses 10).
    pub grid_points: usize,
    /// Latency normalization for the accuracy-SLO reward.
    pub latency_scale_ms: f64,
    pub accuracy_model: AccuracyModel,
}

impl Scenario {
    /// The paper's Augmented Computing scenario (Pi 4 + desktop GPU).
    pub fn augmented_computing(slo_kind: SloKind) -> Self {
        Scenario {
            devices: augmented_computing_devices(),
            space: SearchSpace::default(),
            slo_kind,
            slo_range: match slo_kind {
                SloKind::Latency => (80.0, 400.0),
                SloKind::Accuracy => (72.0, 79.0),
            },
            bw_range: (50.0, 400.0),
            delay_range: (5.0, 100.0),
            grid_points: 10,
            latency_scale_ms: 300.0,
            accuracy_model: AccuracyModel::new(),
        }
    }

    /// Extension scenario: a heterogeneous fleet (Pi 4 local, two
    /// Jetson-class accelerators, one desktop GPU).
    pub fn heterogeneous_edge(slo_kind: SloKind) -> Self {
        Scenario {
            devices: murmuration_edgesim::device::heterogeneous_edge_devices(),
            space: SearchSpace::default(),
            slo_kind,
            slo_range: match slo_kind {
                SloKind::Latency => (60.0, 500.0),
                SloKind::Accuracy => (72.0, 79.0),
            },
            bw_range: (10.0, 500.0),
            delay_range: (2.0, 100.0),
            grid_points: 10,
            latency_scale_ms: 400.0,
            accuracy_model: AccuracyModel::new(),
        }
    }

    /// The paper's Device Swarm scenario (`n` Raspberry Pi 4s).
    pub fn device_swarm(n: usize, slo_kind: SloKind) -> Self {
        Scenario {
            devices: device_swarm_devices(n),
            space: SearchSpace::default(),
            slo_kind,
            slo_range: match slo_kind {
                SloKind::Latency => (300.0, 2000.0),
                SloKind::Accuracy => (72.0, 79.0),
            },
            bw_range: (5.0, 500.0),
            delay_range: (5.0, 100.0),
            grid_points: 10,
            latency_scale_ms: 1500.0,
            accuracy_model: AccuracyModel::new(),
        }
    }

    /// Number of remote devices.
    pub fn n_remote(&self) -> usize {
        self.devices.len() - 1
    }

    /// Grid value of metric index `i` within `[lo, hi]` (linear).
    fn lin_grid(&self, lo: f64, hi: f64, i: usize) -> f64 {
        lo + (hi - lo) * i as f64 / (self.grid_points - 1) as f64
    }

    /// Grid value, log-spaced.
    fn log_grid(&self, lo: f64, hi: f64, i: usize) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * i as f64 / (self.grid_points - 1) as f64).exp()
    }

    /// A condition from grid indices (`slo_i`, per-remote `bw_i`,
    /// per-remote `delay_i`); each index < `grid_points`.
    pub fn condition_from_indices(
        &self,
        slo_i: usize,
        bw_i: &[usize],
        delay_i: &[usize],
    ) -> Condition {
        assert_eq!(bw_i.len(), self.n_remote());
        assert_eq!(delay_i.len(), self.n_remote());
        Condition {
            slo: self.lin_grid(self.slo_range.0, self.slo_range.1, slo_i),
            bw_mbps: bw_i
                .iter()
                .map(|&i| self.log_grid(self.bw_range.0, self.bw_range.1, i))
                .collect(),
            delay_ms: delay_i
                .iter()
                .map(|&i| self.lin_grid(self.delay_range.0, self.delay_range.1, i))
                .collect(),
        }
    }

    /// Uniform random grid condition.
    pub fn sample_condition<R: Rng>(&self, rng: &mut R) -> Condition {
        let g = self.grid_points;
        let slo_i = rng.gen_range(0..g);
        let bw_i: Vec<usize> = (0..self.n_remote()).map(|_| rng.gen_range(0..g)).collect();
        let delay_i: Vec<usize> = (0..self.n_remote()).map(|_| rng.gen_range(0..g)).collect();
        self.condition_from_indices(slo_i, &bw_i, &delay_i)
    }

    /// Network state induced by a condition.
    pub fn network(&self, cond: &Condition) -> NetworkState {
        NetworkState::from_links(
            cond.bw_mbps
                .iter()
                .zip(cond.delay_ms.iter())
                .map(|(&b, &d)| LinkState { bandwidth_mbps: b, delay_ms: d })
                .collect(),
        )
    }

    /// The decision schedule: which head acts at each step.
    pub fn schedule(&self) -> Vec<ActionHead> {
        let mut s = Vec::with_capacity(2 + 9 * self.space.num_stages);
        s.push(ActionHead::Resolution);
        for _ in 0..self.space.num_stages {
            s.extend([
                ActionHead::Kernel,
                ActionHead::Depth,
                ActionHead::Expand,
                ActionHead::Quant,
                ActionHead::Partition,
                ActionHead::Device,
                ActionHead::Device,
                ActionHead::Device,
                ActionHead::Device,
            ]);
        }
        s.push(ActionHead::Device); // head placement
        s
    }

    fn head_arities(&self) -> [usize; NUM_HEADS] {
        [
            self.space.resolutions.len(),
            self.space.kernels.len(),
            self.space.depths.len(),
            self.space.expands.len(),
            self.space.quants.len(),
            self.space.partitions.len(),
            self.devices.len(),
        ]
    }

    /// Head arities for constructing a matching [`LstmPolicy`].
    pub fn arities(&self) -> Vec<usize> {
        self.head_arities().to_vec()
    }

    /// Option count of one head.
    pub fn arity_of(&self, head: ActionHead) -> usize {
        self.head_arities()[head as usize]
    }

    /// Policy input dimension.
    pub fn input_dim(&self) -> usize {
        1 + 2 * self.n_remote() + self.devices.len() + NUM_HEADS + 2
    }

    /// Builds the policy input for one step.
    pub fn build_input(
        &self,
        cond: &Condition,
        step_idx: usize,
        total_steps: usize,
        head: ActionHead,
        prev_action_frac: f32,
    ) -> Vec<f32> {
        let mut x = Vec::with_capacity(self.input_dim());
        self.write_input(&mut x, cond, step_idx, total_steps, head, prev_action_frac);
        x
    }

    /// [`build_input`](Self::build_input) into a reused buffer.
    pub fn write_input(
        &self,
        x: &mut Vec<f32>,
        cond: &Condition,
        step_idx: usize,
        total_steps: usize,
        head: ActionHead,
        prev_action_frac: f32,
    ) {
        x.clear();
        let (slo_lo, slo_hi) = self.slo_range;
        x.push(((cond.slo - slo_lo) / (slo_hi - slo_lo)) as f32);
        let (bw_lo, bw_hi) = self.bw_range;
        for &b in &cond.bw_mbps {
            x.push(((b / bw_lo).ln() / (bw_hi / bw_lo).ln()) as f32);
        }
        let (d_lo, d_hi) = self.delay_range;
        for &d in &cond.delay_ms {
            x.push(((d - d_lo) / (d_hi - d_lo)) as f32);
        }
        for dev in &self.devices {
            x.push(dev.kind.type_feature());
        }
        for h in 0..NUM_HEADS {
            x.push(f32::from(h == head as usize));
        }
        x.push(prev_action_frac);
        x.push(step_idx as f32 / total_steps as f32);
        debug_assert_eq!(x.len(), self.input_dim());
    }

    /// Decodes an action sequence into a genome (config + placements).
    pub fn decode(&self, actions: &[usize]) -> Genome {
        assert_eq!(actions.len(), 2 + 9 * self.space.num_stages, "action count");
        let mut it = actions.iter().copied();
        let resolution = self.space.resolutions[it.next().unwrap()];
        let mut stages = Vec::with_capacity(self.space.num_stages);
        let mut prefs = vec![[0usize; 4]; 7];
        for si in 0..self.space.num_stages {
            let kernel = self.space.kernels[it.next().unwrap()];
            let depth = self.space.depths[it.next().unwrap()];
            let expand = self.space.expands[it.next().unwrap()];
            let quant = self.space.quants[it.next().unwrap()];
            let partition = self.space.partitions[it.next().unwrap()];
            for slot in prefs[1 + si].iter_mut() {
                *slot = it.next().unwrap();
            }
            stages.push(murmuration_supernet::BlockChoice {
                kernel,
                depth,
                expand,
                partition,
                quant,
            });
        }
        prefs[6][0] = it.next().unwrap();
        Genome { config: SubnetConfig { resolution, stages }, prefs }
    }

    /// The goal-conditioned reward of Eq. (2)/(3).
    pub fn reward(&self, cond: &Condition, latency_ms: f64, accuracy_pct: f32) -> (f32, bool) {
        match self.slo_kind {
            SloKind::Latency => {
                let met = latency_ms <= cond.slo;
                if met {
                    (((accuracy_pct - 71.0) / 6.0).max(0.0), true)
                } else {
                    (0.0, false)
                }
            }
            SloKind::Accuracy => {
                let met = f64::from(accuracy_pct) >= cond.slo;
                if met {
                    ((1.5 - latency_ms / self.latency_scale_ms).max(0.05) as f32, true)
                } else {
                    (0.0, false)
                }
            }
        }
    }

    /// decode → lower → plan, and which remote links the plan uses.
    fn lower(&self, actions: &[usize]) -> (Genome, SubnetSpec, ExecutionPlan, Vec<bool>) {
        let genome = self.decode(actions);
        let spec = SubnetSpec::lower(&genome.config);
        let plan = genome.plan(&spec, self.devices.len());
        let mut used = vec![false; self.n_remote()];
        for p in &plan.placements {
            let devs = match p {
                UnitPlacement::Single(d) => std::slice::from_ref(d),
                UnitPlacement::Tiled(devs) => devs,
            };
            for &d in devs.iter().filter(|&&d| d > 0) {
                used[d - 1] = true;
            }
        }
        (genome, spec, plan, used)
    }

    /// Carries a strategy as far as it goes without a condition.
    fn candidate(&self, actions: Vec<usize>) -> Candidate {
        let (genome, spec, plan, used) = self.lower(&actions);
        let accuracy_pct = self.accuracy_model.predict(&genome.config);
        Candidate { actions, spec, plan, accuracy_pct, used }
    }

    /// Evaluates a full action sequence under a condition.
    pub fn evaluate(&self, cond: &Condition, actions: &[usize]) -> EpisodeResult {
        let net = self.network(cond);
        self.candidate(actions.to_vec()).price(self, cond, &net)
    }

    /// Relabels a finished episode with the goal it *actually* achieved
    /// (GCSL hindsight): the achieved latency (or accuracy) becomes the
    /// SLO, clamped into the scenario range.
    pub fn relabel(&self, cond: &Condition, result: &EpisodeResult) -> Condition {
        let slo = match self.slo_kind {
            SloKind::Latency => result.latency_ms.clamp(self.slo_range.0, self.slo_range.1),
            SloKind::Accuracy => {
                f64::from(result.accuracy_pct).clamp(self.slo_range.0, self.slo_range.1)
            }
        };
        Condition { slo, ..cond.clone() }
    }

    /// Which remote links a decoded strategy actually sends traffic over.
    /// `used[d-1]` is true when device `d` participates in the plan.
    pub fn used_links(&self, actions: &[usize]) -> Vec<bool> {
        self.lower(actions).3
    }

    /// Tightens a condition to what a strategy actually *requires*: links
    /// the plan never touches are set to the tightest grid corner (lowest
    /// bandwidth, highest delay), so the stored strategy is shareable with
    /// every condition on those axes — the paper's lower-bound observation
    /// applied per dimension.
    pub fn tighten_unused_links(&self, cond: &Condition, actions: &[usize]) -> Condition {
        let used = self.used_links(actions);
        let mut out = cond.clone();
        for (i, &u) in used.iter().enumerate() {
            if !u {
                out.bw_mbps[i] = self.bw_range.0;
                out.delay_ms[i] = self.delay_range.1;
            }
        }
        out
    }
}

/// A strategy with everything about it that no condition can change —
/// lowered spec, plan, predicted accuracy, remote links used — so that
/// pricing it under a condition is one [`LatencyEstimator::estimate`].
#[derive(Clone, Debug)]
struct Candidate {
    actions: Vec<usize>,
    spec: SubnetSpec,
    plan: ExecutionPlan,
    accuracy_pct: f32,
    used: Vec<bool>,
}

impl Candidate {
    /// Latency, accuracy and reward under `cond`, whose network is `net`.
    fn price(&self, sc: &Scenario, cond: &Condition, net: &NetworkState) -> EpisodeResult {
        let est = LatencyEstimator::new(&sc.devices, net);
        let latency_ms = est.estimate(&self.spec, &self.plan).total_ms;
        let (reward, met) = sc.reward(cond, latency_ms, self.accuracy_pct);
        let accuracy_pct = self.accuracy_pct;
        EpisodeResult { actions: self.actions.clone(), latency_ms, accuracy_pct, reward, met }
    }
}

/// What a rollout returns: the chosen actions, the per-step (input, head)
/// pairs for supervised replay, and per-step log-probabilities for PPO.
pub type RolloutOutput = (Vec<usize>, Vec<(Vec<f32>, ActionHead)>, Vec<f32>);

/// How actions are chosen during a rollout.
#[derive(Clone, Copy, Debug)]
pub enum RolloutMode {
    /// Greedy argmax (deployment / evaluation).
    Greedy,
    /// Softmax sampling with ε-uniform exploration.
    Sample { epsilon: f32 },
}

/// The episode loop every roll-out shares: builds each step's input in a
/// reused buffer, advances the policy in place and lets `choose` pick from
/// `(input, head, logits)`. Nothing is allocated per step.
fn run_episode(
    policy: &LstmPolicy,
    scenario: &Scenario,
    cond: &Condition,
    mut choose: impl FnMut(&[f32], ActionHead, &[f32]) -> usize,
) -> Vec<usize> {
    let sched = scenario.schedule();
    let mut st = policy.initial_state();
    let mut x = Vec::with_capacity(scenario.input_dim());
    let mut actions = Vec::with_capacity(sched.len());
    let mut prev_frac = 0.0f32;
    for (t, &head) in sched.iter().enumerate() {
        scenario.write_input(&mut x, cond, t, sched.len(), head, prev_frac);
        policy.advance(&x, &mut st, head);
        let a = choose(&x, head, st.logits());
        prev_frac = (a + 1) as f32 / st.logits().len() as f32;
        actions.push(a);
    }
    actions
}

/// Runs the policy through one episode under `cond`.
///
/// Returns the chosen actions, the (input, head) pairs (for supervised
/// replay), and per-step log-probabilities (for PPO).
pub fn rollout<R: Rng>(
    policy: &LstmPolicy,
    scenario: &Scenario,
    cond: &Condition,
    mode: RolloutMode,
    rng: &mut R,
) -> RolloutOutput {
    let (mut steps, mut logps) = (Vec::new(), Vec::new());
    let actions = run_episode(policy, scenario, cond, |x, head, logits| {
        let valid = logits.len();
        let a = match mode {
            RolloutMode::Greedy => LstmPolicy::greedy_action(logits, valid),
            RolloutMode::Sample { epsilon } => {
                LstmPolicy::sample_action(logits, valid, epsilon, rng)
            }
        };
        logps.push(LstmPolicy::logp(logits, valid, a));
        steps.push((x.to_vec(), head));
        a
    });
    (actions, steps, logps)
}

/// The greedy episode alone — what deployment runs: no replay inputs, no
/// log-probabilities.
pub fn greedy_rollout(policy: &LstmPolicy, scenario: &Scenario, cond: &Condition) -> Vec<usize> {
    run_episode(policy, scenario, cond, |_, _, logits| {
        LstmPolicy::greedy_action(logits, logits.len())
    })
}

/// Replays the schedule to regenerate the policy inputs for a stored
/// (condition, actions) pair — used when training on relabeled
/// trajectories, where the goal feature differs from collection time.
pub fn regenerate_inputs(
    scenario: &Scenario,
    cond: &Condition,
    actions: &[usize],
) -> Vec<(Vec<f32>, ActionHead)> {
    let sched = scenario.schedule();
    assert_eq!(actions.len(), sched.len());
    let total = sched.len();
    let mut out = Vec::with_capacity(total);
    let mut prev_frac = 0.0f32;
    for (t, &head) in sched.iter().enumerate() {
        let x = scenario.build_input(cond, t, total, head, prev_frac);
        out.push((x, head));
        prev_frac = (actions[t] + 1) as f32 / scenario.arity_of(head) as f32;
    }
    out
}

/// Bootstrap trajectories the paper seeds GCSL/SUPREME training with: the
/// maximal and minimal subnets, run entirely on the local device.
pub fn bootstrap_actions(scenario: &Scenario) -> Vec<Vec<usize>> {
    let space = &scenario.space;
    let mk = |res_i: usize, k_i: usize, d_i: usize, e_i: usize| {
        let mut a = vec![res_i];
        for _ in 0..space.num_stages {
            a.extend([k_i, d_i, e_i, 0 /* quant B32 */, 0 /* 1x1 */, 0, 0, 0, 0]);
        }
        a.push(0);
        a
    };
    vec![
        mk(
            space.resolutions.len() - 1,
            space.kernels.len() - 1,
            space.depths.len() - 1,
            space.expands.len() - 1,
        ),
        mk(0, 0, 0, 0),
    ]
}

/// Canonical fallback strategies for the decision guard: a ladder of
/// architecture sizes crossed with the placement archetypes (all-local,
/// all on one remote, stem-local split, and 2×2-tiled spread with 8-bit
/// wire). Encoded directly as action sequences.
pub fn fallback_actions(scenario: &Scenario) -> Vec<Vec<usize>> {
    let space = &scenario.space;
    let n_dev = scenario.devices.len();
    let quant_b8 = space.quants.len() - 1;
    let part_2x2 = space.partitions.len() - 1;
    let mk = |res_i: usize,
              arch_i: usize,
              part_i: usize,
              quant_i: usize,
              stage_devs: &dyn Fn(usize) -> [usize; 4],
              head_dev: usize| {
        let mut a = vec![res_i];
        for s in 0..space.num_stages {
            let k = arch_i.min(space.kernels.len() - 1);
            let d = arch_i.min(space.depths.len() - 1);
            let e = arch_i.min(space.expands.len() - 1);
            let devs = stage_devs(s);
            a.extend([k, d, e, quant_i, part_i]);
            a.extend(devs);
        }
        a.push(head_dev);
        a
    };
    let mut out = Vec::new();
    for res_i in [0usize, space.resolutions.len() / 2, space.resolutions.len() - 1] {
        for arch_i in 0..space.kernels.len().min(3) {
            // All-local.
            out.push(mk(res_i, arch_i, 0, 0, &|_| [0; 4], 0));
            for d in 1..n_dev {
                // Stem local (the genome mapping always pins the stem to
                // device 0), body + head on remote d, 8-bit wire.
                out.push(mk(res_i, arch_i, 0, quant_b8, &move |_| [d; 4], d));
                // Same split at full precision (low-delay, high-bw links).
                out.push(mk(res_i, arch_i, 0, 0, &move |_| [d; 4], d));
            }
            // 2×2 spread over the fleet, 8-bit wire.
            if n_dev > 1 {
                out.push(mk(
                    res_i,
                    arch_i,
                    part_2x2,
                    quant_b8,
                    &|_| [0, 1, 2 % n_dev.max(1), 3 % n_dev.max(1)],
                    0,
                ));
            }
        }
    }
    let sched = scenario.schedule();
    for a in &mut out {
        for (slot, &head) in a.iter_mut().zip(&sched) {
            *slot = (*slot).min(scenario.arity_of(head) - 1);
        }
    }
    out
}

/// The fallback ladder of a scenario, lowered once: no rung depends on
/// the condition, so a decision only re-prices them.
#[derive(Clone, Debug)]
pub struct FallbackLadder {
    rungs: Vec<Candidate>,
}

impl FallbackLadder {
    /// Lowers every [`fallback_actions`] rung of `scenario`.
    pub fn new(scenario: &Scenario) -> Self {
        let rungs = fallback_actions(scenario).into_iter().map(|a| scenario.candidate(a)).collect();
        FallbackLadder { rungs }
    }

    /// Estimator-guarded decision over a possibly degraded fleet: runs the
    /// policy greedily, then prices it and every rung under the observed
    /// conditions, discarding strategies that place work on a dead device,
    /// and returns the highest-reward one. This is the runtime's safety
    /// net — the system knows the network state and its own cost model, so
    /// it never deploys a predicted SLO violation when a feasible fallback
    /// exists. `scenario` must be the one the ladder was built for.
    pub fn decide(
        &self,
        policy: &LstmPolicy,
        scenario: &Scenario,
        cond: &Condition,
        alive: &[bool],
    ) -> EpisodeResult {
        let picked = scenario.candidate(greedy_rollout(policy, scenario, cond));
        let net = scenario.network(cond);
        let mut best: Option<EpisodeResult> = None;
        for c in std::iter::once(&picked).chain(&self.rungs).filter(|c| links_alive(&c.used, alive))
        {
            let r = c.price(scenario, cond, &net);
            let better = best
                .as_ref()
                .is_none_or(|b| (r.met && !b.met) || (r.met == b.met && r.reward > b.reward));
            if better {
                best = Some(r);
            }
        }
        // The all-local rungs use no remote link, so with a live
        // coordinator (device 0, without which no request exists at all)
        // `best` is always Some.
        best.unwrap_or_else(|| self.rungs[0].price(scenario, cond, &net))
    }
}

/// One-shot [`FallbackLadder::decide`] on a healthy fleet. A caller that
/// decides repeatedly for one scenario should keep the ladder.
pub fn decide_guarded(policy: &LstmPolicy, scenario: &Scenario, cond: &Condition) -> EpisodeResult {
    let alive = vec![true; scenario.devices.len()];
    decide_guarded_masked(policy, scenario, cond, &alive)
}

/// Whether a strategy only places work on alive devices. `alive[d]` covers
/// the whole fleet; the stem is pinned to device 0, so a dead coordinator
/// makes everything infeasible.
pub fn actions_feasible(scenario: &Scenario, actions: &[usize], alive: &[bool]) -> bool {
    links_alive(&scenario.used_links(actions), alive)
}

fn links_alive(used: &[bool], alive: &[bool]) -> bool {
    let up = |d: usize| alive.get(d).copied().unwrap_or(false);
    up(0) && used.iter().enumerate().all(|(i, &used)| !used || up(i + 1))
}

/// One-shot [`FallbackLadder::decide`].
pub fn decide_guarded_masked(
    policy: &LstmPolicy,
    scenario: &Scenario,
    cond: &Condition,
    alive: &[bool],
) -> EpisodeResult {
    FallbackLadder::new(scenario).decide(policy, scenario, cond, alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn schedule_and_arities_consistent() {
        let sc = Scenario::device_swarm(5, SloKind::Latency);
        let sched = sc.schedule();
        assert_eq!(sched.len(), 1 + 5 * 9 + 1);
        let arities = sc.arities();
        assert_eq!(arities.len(), crate::policy::NUM_HEADS);
        assert_eq!(arities[ActionHead::Device as usize], 5);
    }

    #[test]
    fn decode_round_trips_bootstrap_max() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let boots = bootstrap_actions(&sc);
        let g = sc.decode(&boots[0]);
        assert_eq!(g.config.resolution, 224);
        assert!(g.config.stages.iter().all(|s| s.kernel == 7 && s.depth == 4 && s.expand == 6));
        let g2 = sc.decode(&boots[1]);
        assert_eq!(g2.config.resolution, 160);
    }

    #[test]
    fn evaluate_bootstrap_is_finite_and_consistent() {
        let sc = Scenario::device_swarm(5, SloKind::Latency);
        let cond = sc.condition_from_indices(9, &[9; 4], &[0; 4]); // loosest
        for a in bootstrap_actions(&sc) {
            let r = sc.evaluate(&cond, &a);
            assert!(r.latency_ms.is_finite() && r.latency_ms > 0.0);
            assert!((70.0..81.0).contains(&r.accuracy_pct));
        }
    }

    #[test]
    fn latency_reward_follows_eq2() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let cond = Condition { slo: 140.0, bw_mbps: vec![100.0], delay_ms: vec![10.0] };
        let (r_met, met) = sc.reward(&cond, 120.0, 77.0);
        assert!(met && (r_met - 1.0).abs() < 1e-6);
        let (r_miss, miss) = sc.reward(&cond, 141.0, 79.0);
        assert!(!miss && r_miss == 0.0);
    }

    #[test]
    fn accuracy_reward_prefers_lower_latency() {
        let sc = Scenario::augmented_computing(SloKind::Accuracy);
        let cond = Condition { slo: 75.0, bw_mbps: vec![100.0], delay_ms: vec![10.0] };
        let (fast, _) = sc.reward(&cond, 60.0, 75.5);
        let (slow, _) = sc.reward(&cond, 290.0, 75.5);
        assert!(fast > slow);
        let (fail, met) = sc.reward(&cond, 60.0, 74.9);
        assert!(!met && fail == 0.0);
    }

    #[test]
    fn rollout_is_well_formed() {
        let sc = Scenario::device_swarm(3, SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        let mut rng = StdRng::seed_from_u64(0);
        let cond = sc.sample_condition(&mut rng);
        let (actions, steps, logps) =
            rollout(&policy, &sc, &cond, RolloutMode::Sample { epsilon: 0.1 }, &mut rng);
        assert_eq!(actions.len(), sc.schedule().len());
        assert_eq!(steps.len(), actions.len());
        assert_eq!(logps.len(), actions.len());
        // Every action is decodable and evaluates.
        let r = sc.evaluate(&cond, &actions);
        assert!(r.latency_ms.is_finite());
        // Log-probs are valid.
        assert!(logps.iter().all(|l| *l <= 0.0 && l.is_finite()));
    }

    #[test]
    fn regenerated_inputs_match_rollout_inputs() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let cond = sc.sample_condition(&mut rng);
        let (actions, steps, _) =
            rollout(&policy, &sc, &cond, RolloutMode::Sample { epsilon: 0.0 }, &mut rng);
        let regen = regenerate_inputs(&sc, &cond, &actions);
        for (a, b) in steps.iter().zip(regen.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn relabel_sets_achievable_goal() {
        let sc = Scenario::device_swarm(5, SloKind::Latency);
        let mut rng = StdRng::seed_from_u64(2);
        let cond = sc.condition_from_indices(0, &[5; 4], &[5; 4]); // tightest SLO
        let actions = &bootstrap_actions(&sc)[0]; // max subnet: slow
        let res = sc.evaluate(&cond, actions);
        let relabeled = sc.relabel(&cond, &res);
        let res2 = sc.evaluate(&relabeled, actions);
        assert!(res2.met, "achieved goal must be met after relabeling");
        let _ = rng.gen::<f32>();
    }

    #[test]
    fn grid_extremes_hit_ranges() {
        let sc = Scenario::device_swarm(5, SloKind::Latency);
        let lo = sc.condition_from_indices(0, &[0; 4], &[0; 4]);
        let hi = sc.condition_from_indices(9, &[9; 4], &[9; 4]);
        assert!((lo.slo - 300.0).abs() < 1e-9);
        assert!((hi.slo - 2000.0).abs() < 1e-9);
        assert!((lo.bw_mbps[0] - 5.0).abs() < 1e-6);
        assert!((hi.bw_mbps[0] - 500.0).abs() < 1e-6);
    }

    #[test]
    fn used_links_tracks_plan_devices() {
        let sc = Scenario::device_swarm(5, SloKind::Latency);
        // All-local bootstrap: no remote link used.
        let local = &bootstrap_actions(&sc)[1];
        assert_eq!(sc.used_links(local), vec![false; 4]);
        // Put every stage + head on device 3.
        let mut remote = local.clone();
        let sched = sc.schedule();
        for (t, head) in sched.iter().enumerate() {
            if matches!(head, crate::policy::ActionHead::Device) {
                remote[t] = 3;
            }
        }
        let used = sc.used_links(&remote);
        assert_eq!(used, vec![false, false, true, false]);
    }

    #[test]
    fn tighten_unused_links_pins_to_tightest_corner() {
        let sc = Scenario::device_swarm(5, SloKind::Latency);
        let cond = sc.condition_from_indices(5, &[7; 4], &[3; 4]);
        let local = &bootstrap_actions(&sc)[1];
        let tight = sc.tighten_unused_links(&cond, local);
        // Every link unused: all pinned to (min bw, max delay).
        for i in 0..4 {
            assert_eq!(tight.bw_mbps[i], sc.bw_range.0);
            assert_eq!(tight.delay_ms[i], sc.delay_range.1);
        }
        assert_eq!(tight.slo, cond.slo, "SLO untouched");
    }

    #[test]
    fn fallback_actions_are_valid_and_diverse() {
        for sc in [
            Scenario::augmented_computing(SloKind::Latency),
            Scenario::device_swarm(5, SloKind::Latency),
            Scenario::heterogeneous_edge(SloKind::Accuracy),
        ] {
            let fbs = fallback_actions(&sc);
            assert!(fbs.len() >= 9, "need a real ladder, got {}", fbs.len());
            let mut rng = StdRng::seed_from_u64(0);
            let cond = sc.sample_condition(&mut rng);
            let mut latencies = std::collections::BTreeSet::new();
            for fb in &fbs {
                let r = sc.evaluate(&cond, fb);
                assert!(r.latency_ms.is_finite() && r.latency_ms > 0.0);
                latencies.insert((r.latency_ms * 10.0) as u64);
            }
            assert!(latencies.len() >= 4, "fallbacks must span distinct strategies");
        }
    }

    /// The guard as it was before the ladder was lowered once: every rung
    /// rebuilt through `evaluate`, and through `used_links` again, per call.
    fn decide_by_rebuilding(
        policy: &LstmPolicy,
        sc: &Scenario,
        cond: &Condition,
        alive: &[bool],
    ) -> EpisodeResult {
        let mut best: Option<EpisodeResult> = None;
        for a in std::iter::once(greedy_rollout(policy, sc, cond)).chain(fallback_actions(sc)) {
            if !actions_feasible(sc, &a, alive) {
                continue;
            }
            let r = sc.evaluate(cond, &a);
            let better = match &best {
                None => true,
                Some(b) => (r.met && !b.met) || (r.met == b.met && r.reward > b.reward),
            };
            if better {
                best = Some(r);
            }
        }
        best.unwrap()
    }

    fn assert_same_bits(a: &EpisodeResult, b: &EpisodeResult) {
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
        assert_eq!(a.accuracy_pct.to_bits(), b.accuracy_pct.to_bits());
        assert_eq!((a.reward.to_bits(), a.met), (b.reward.to_bits(), b.met));
    }

    #[test]
    fn ladder_reprices_every_rung_bit_for_bit() {
        for sc in [
            Scenario::device_swarm(4, SloKind::Latency),
            Scenario::augmented_computing(SloKind::Accuracy),
        ] {
            let ladder = FallbackLadder::new(&sc);
            let fbs = fallback_actions(&sc);
            assert_eq!(ladder.rungs.len(), fbs.len());
            let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 3);
            let all_up = vec![true; sc.devices.len()];
            let mut one_dead = all_up.clone();
            one_dead[1] = false;
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..50 {
                let cond = sc.sample_condition(&mut rng);
                let net = sc.network(&cond);
                for (rung, fb) in ladder.rungs.iter().zip(&fbs) {
                    assert_same_bits(&rung.price(&sc, &cond, &net), &sc.evaluate(&cond, fb));
                    assert_eq!(
                        links_alive(&rung.used, &one_dead),
                        actions_feasible(&sc, fb, &one_dead)
                    );
                }
                for alive in [&all_up, &one_dead] {
                    let got = ladder.decide(&policy, &sc, &cond, alive);
                    assert_same_bits(&got, &decide_by_rebuilding(&policy, &sc, &cond, alive));
                    assert!(actions_feasible(&sc, &got.actions, alive));
                }
            }
        }
    }

    #[test]
    fn greedy_rollout_is_the_greedy_mode_of_rollout() {
        let sc = Scenario::device_swarm(3, SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 5);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let cond = sc.sample_condition(&mut rng);
            let (actions, _, _) = rollout(&policy, &sc, &cond, RolloutMode::Greedy, &mut rng);
            assert_eq!(greedy_rollout(&policy, &sc, &cond), actions);
        }
    }

    #[test]
    fn guard_never_returns_worse_than_policy() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let cond = sc.sample_condition(&mut rng);
            let (actions, _, _) = rollout(&policy, &sc, &cond, RolloutMode::Greedy, &mut rng);
            let raw = sc.evaluate(&cond, &actions);
            let guarded = decide_guarded(&policy, &sc, &cond);
            assert!(
                guarded.met >= raw.met && (guarded.met != raw.met || guarded.reward >= raw.reward),
                "guard must not regress: raw met {} r {} vs guarded met {} r {}",
                raw.met,
                raw.reward,
                guarded.met,
                guarded.reward
            );
        }
    }

    #[test]
    fn masked_guard_avoids_dead_devices() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 3);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let cond = sc.sample_condition(&mut rng);
            // Kill every remote: the only feasible strategies are all-local.
            let alive = {
                let mut a = vec![false; sc.devices.len()];
                a[0] = true;
                a
            };
            let r = decide_guarded_masked(&policy, &sc, &cond, &alive);
            assert!(actions_feasible(&sc, &r.actions, &alive), "plan touches a dead device");
            assert!(sc.used_links(&r.actions).iter().all(|&u| !u), "must be all-local");
            assert!(r.latency_ms.is_finite() && r.latency_ms > 0.0);
            // Kill one remote: the chosen plan must avoid just that one.
            let mut one_dead = vec![true; sc.devices.len()];
            one_dead[1] = false;
            let r = decide_guarded_masked(&policy, &sc, &cond, &one_dead);
            assert!(actions_feasible(&sc, &r.actions, &one_dead));
        }
    }

    #[test]
    fn heterogeneous_scenario_is_well_formed() {
        let sc = Scenario::heterogeneous_edge(SloKind::Latency);
        assert_eq!(sc.devices.len(), 4);
        assert_eq!(sc.arities()[crate::policy::ActionHead::Device as usize], 4);
        let mut rng = StdRng::seed_from_u64(0);
        let cond = sc.sample_condition(&mut rng);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        let r = decide_guarded(&policy, &sc, &cond);
        assert!(r.latency_ms.is_finite());
    }
}
