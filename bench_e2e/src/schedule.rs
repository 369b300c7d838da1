//! The workloads and their seeded schedules.
//!
//! `--seed` drives what the program *receives* — input tensors, which grid
//! conditions are visited and in what order, the link trace, the arrival
//! trace, the monitor's observation noise — and nothing about the program
//! itself (policy and weight seeds are constants in [`crate::stack`]). The
//! *shape* of the work does not depend on the seed either: `swarm_tcp`
//! fills fixed quotas of plan classes, so two seeds time the same mix of
//! plans on different data.

use crate::stack::{Fleet, PlanShape, Stack, StackSpec, TransportKind, UnitShape, N_UNITS};
use murmuration_core::scheduler::dispatch_table;
use murmuration_core::RuntimeConfig;
use murmuration_edgesim::{LinkState, NetworkState};
use murmuration_partition::compliance::Slo;
use murmuration_rl::Scenario;
use murmuration_supernet::SubnetSpec;
use murmuration_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests per epoch: runs stop at epoch boundaries, `swarm_tcp` cycles
/// through one epoch of conditions, `steady_inproc` samples `adapt_p50_ms`
/// once an epoch.
pub const EPOCH: usize = 8;
/// Virtual milliseconds between monitoring ticks (one per request).
pub const TICK_MS: f64 = 100.0;
/// Distinct input tensors a closed-loop workload cycles through.
pub const N_INPUTS: usize = 4;
/// Candidate conditions the plan-mix scan decides.
pub const SCAN_CANDIDATES: usize = 40;
/// Epochs generated for a time-boxed `churn_decide` run: more than the
/// longest allowed `--seconds` can visit.
pub const TIMEBOX_EPOCHS_MAX: usize = 8192;

/// A seed for one named stream of a run, so streams never share draws.
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut h = crate::stack::Fnv::default();
    h.write(&[seed]);
    for b in stream.bytes() {
        h.write(&[u64::from(b)]);
    }
    h.0
}

/// How a closed-loop workload walks the condition grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Walk {
    /// One fixed grid condition `(slo, bw, delay)` for the whole run.
    Static { slo_i: usize, bw_i: usize, delay_i: usize },
    /// A cycle of `EPOCH` warmed conditions, one per request, found by the
    /// plan-mix scan so the decided plans fill [`PlanClass`] quotas.
    PlanMixCycle,
    /// A new grid point — SLO and every link — each [`CHURN_HOLD`]
    /// requests, along a seeded billiard path.
    Churn,
}

/// A closed-loop workload: one client, the next request after the last.
#[derive(Clone, Copy, Debug)]
pub struct ClosedWorkload {
    pub name: &'static str,
    pub stack: StackSpec,
    pub walk: Walk,
    /// Requests of the fixed-count run (no `--seconds`).
    pub default_requests: usize,
    /// Untimed requests that end set-up (fill caches, oracle, lazy state).
    pub warmup_requests: usize,
    /// In-limit completions count toward goodput: 4 × the p50 recorded when
    /// the workload was sized (2 cores, AVX2).
    pub latency_limit_ms: f64,
}

const F32_UNITS: [bool; N_UNITS] = [false; N_UNITS];

/// `latency_p50_ms` of the three closed-loop workloads when they were
/// sized; the goodput latency limits are fixed at four times these.
const RECORDED_P50_MS: [f64; 3] = [12.0, 22.0, 10.0];

/// The three closed-loop workloads (README.md says why each exists).
pub fn closed_workloads() -> [ClosedWorkload; 3] {
    let steady_inproc = ClosedWorkload {
        name: "steady_inproc",
        stack: StackSpec {
            fleet: Fleet::Augmented,
            transport: TransportKind::InProc,
            units: UnitShape { layers: 2, channels: 16, hw: 48, int8_units: F32_UNITS },
            runtime: RuntimeConfig::default(),
        },
        walk: Walk::Static { slo_i: 6, bw_i: 6, delay_i: 3 },
        default_requests: 2400,
        warmup_requests: 2 * EPOCH,
        latency_limit_ms: 4.0 * RECORDED_P50_MS[0],
    };
    let swarm_tcp = ClosedWorkload {
        name: "swarm_tcp",
        stack: StackSpec {
            fleet: Fleet::Swarm4,
            transport: TransportKind::AsyncTcp,
            units: UnitShape {
                layers: 1,
                channels: 8,
                hw: 96,
                int8_units: [false, true, false, true, false, true, false],
            },
            // The cycle steps the link on every request, so the monitor
            // must not smooth across steps (alpha 1), and a forecast
            // extrapolated from them means nothing (precompute off).
            runtime: RuntimeConfig {
                monitor_alpha: 1.0,
                precompute_horizon_ms: 0.0,
                ..RuntimeConfig::default()
            },
        },
        walk: Walk::PlanMixCycle,
        default_requests: 1200,
        warmup_requests: EPOCH * N_INPUTS,
        latency_limit_ms: 4.0 * RECORDED_P50_MS[1],
    };
    let churn_decide = ClosedWorkload {
        name: "churn_decide",
        stack: StackSpec {
            fleet: Fleet::Swarm4,
            transport: TransportKind::InProc,
            units: UnitShape { layers: 1, channels: 4, hw: 16, int8_units: F32_UNITS },
            runtime: RuntimeConfig::default(),
        },
        walk: Walk::Churn,
        default_requests: 300 * EPOCH,
        // Long enough that set-up's share of roll-outs evens out.
        warmup_requests: 4 * EPOCH,
        latency_limit_ms: 4.0 * RECORDED_P50_MS[2],
    };
    [steady_inproc, swarm_tcp, churn_decide]
}

pub fn closed_workload(name: &str) -> Option<ClosedWorkload> {
    closed_workloads().into_iter().find(|w| w.name == name)
}

/// One condition the client serves under: the request's SLO and the
/// ground-truth state of every remote link.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    pub slo_ms: f64,
    pub links: Vec<LinkState>,
}

impl Point {
    /// A grid condition from one SLO index and per-link bandwidth and delay
    /// indices.
    fn on_grid(sc: &Scenario, slo_i: usize, bw_i: &[usize], delay_i: &[usize]) -> Point {
        let c = sc.condition_from_indices(slo_i, bw_i, delay_i);
        let links = c
            .bw_mbps
            .iter()
            .zip(&c.delay_ms)
            .map(|(&bandwidth_mbps, &delay_ms)| LinkState { bandwidth_mbps, delay_ms })
            .collect();
        Point { slo_ms: c.slo, links }
    }

    /// A grid condition with every link in the same state.
    fn uniform(sc: &Scenario, slo_i: usize, bw_i: usize, delay_i: usize) -> Point {
        let n = sc.n_remote();
        Point::on_grid(sc, slo_i, &vec![bw_i; n], &vec![delay_i; n])
    }

    fn seeded_uniform(sc: &Scenario, rng: &mut StdRng) -> Point {
        let g = sc.grid_points;
        Point::uniform(sc, rng.gen_range(0..g), rng.gen_range(0..g), rng.gen_range(0..g))
    }

    pub fn net(&self) -> NetworkState {
        NetworkState::from_links(self.links.clone())
    }
}

/// Requests `churn_decide` serves under one condition before the links and
/// the SLO step again: four steps an epoch. Short on purpose. With eight
/// requests to a step the monitor's smoothing settles and `tick`'s
/// precompute has the settled bucket cached by the time a request needs it:
/// a little over half of the decisions then hit, and a p50 that sits on
/// the edge between a 2 µs hit and a 9 ms roll-out jumps from run to run.
/// With two, the estimate is still chasing the last step when the next
/// arrives, nearly every decision misses, and `latency_p50_ms` times a
/// roll-out — not the hit path of toy units, which is thread wake-ups and
/// little else.
pub const CHURN_HOLD: usize = 2;

/// Grid cells per step the `churn_decide` condition moves along each axis:
/// the SLO first, then a bandwidth and a delay axis per remote link.
/// Pairwise incommensurable, so the path never closes on itself, and with
/// every link on its own axes it meets each of the grid's 10⁷ cells at most
/// once in any run — far more than the strategy cache holds.
const CHURN_SPEED: [f64; 7] = [1.3247, 1.4656, 1.7549, 1.2207, 1.6180, 1.3803, 1.5437];

/// `steps` grid points along a billiard path: each axis sweeps the grid at
/// its own constant speed and bounces off the ends, so every step moves
/// the SLO and every link by one or two cells and the path covers the grid
/// evenly instead of lingering anywhere. The seed sets where on the path
/// the run starts (one phase per axis) — every seed meets the same kind of
/// churn, none meets the same conditions.
fn churn_path(sc: &Scenario, steps: usize, rng: &mut StdRng) -> Vec<Point> {
    let n = sc.n_remote();
    assert!(2 * n < CHURN_SPEED.len(), "one speed per axis");
    let top = (sc.grid_points - 1) as f64;
    let phase: Vec<f64> = (0..1 + 2 * n).map(|_| rng.gen_range(0.0..2.0 * top)).collect();
    (0..steps)
        .map(|t| {
            let cell: Vec<usize> = (0..phase.len())
                .map(|k| {
                    let x = (phase[k] + CHURN_SPEED[k] * t as f64) % (2.0 * top);
                    (if x <= top { x } else { 2.0 * top - x }).round() as usize
                })
                .collect();
            Point::on_grid(sc, cell[0], &cell[1..1 + n], &cell[1 + n..])
        })
        .collect()
}

/// What the executor has to do for a plan, as far as its cost goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanClass {
    /// At least one FDSP-tiled unit: fan-out, split/merge, and — the
    /// tiles leaving the coordinator — the 8-bit wire.
    Tiled,
    /// Single placements, some on a remote device.
    Remote,
    /// Everything on the coordinator.
    AllLocal,
}

impl PlanClass {
    pub fn of(shape: &PlanShape) -> PlanClass {
        if shape.tiled_units > 0 {
            PlanClass::Tiled
        } else if shape.remote_units > 0 {
            PlanClass::Remote
        } else {
            PlanClass::AllLocal
        }
    }
}

/// The plan mix of the `swarm_tcp` cycle: how many of its `EPOCH`
/// conditions must decide into each class.
pub const PLAN_MIX: [(PlanClass, usize); 3] =
    [(PlanClass::Tiled, 3), (PlanClass::Remote, 3), (PlanClass::AllLocal, 2)];
/// Plans of the cycle that must put an 8-bit frame on the wire.
pub const MIN_B8_PLANS: usize = 2;

/// Fills `quotas` from a stream of classified candidates: the first
/// candidates of each class, in stream order, up to its quota. Fails —
/// naming what is missing — when the stream ends first.
pub fn fill_quotas<T>(
    candidates: impl Iterator<Item = (PlanClass, T)>,
    quotas: &[(PlanClass, usize)],
) -> Result<Vec<T>, String> {
    let mut left: Vec<(PlanClass, usize)> = quotas.to_vec();
    let mut picked = Vec::new();
    let mut seen = 0usize;
    for (class, item) in candidates {
        seen += 1;
        if let Some(slot) = left.iter_mut().find(|(c, n)| *c == class && *n > 0) {
            slot.1 -= 1;
            picked.push(item);
        }
        if left.iter().all(|(_, n)| *n == 0) {
            return Ok(picked);
        }
    }
    let missing: Vec<String> =
        left.iter().filter(|(_, n)| *n > 0).map(|(c, n)| format!("{n} × {c:?}")).collect();
    Err(format!("plan-mix scan: {seen} candidates decided, still missing {}", missing.join(", ")))
}

/// Decides [`SCAN_CANDIDATES`] seeded grid conditions through the stack's
/// own runtime (tick, then `serve_decide`, which also warms the strategy
/// cache) and picks, in order, the ones whose plans fill [`PLAN_MIX`].
/// Always the full number, so that set-up does the same work for every
/// seed.
fn scan_plan_mix(stack: &mut Stack, rng: &mut StdRng) -> Result<Vec<Point>, String> {
    let sc = stack.scenario.clone();
    let n_dev = sc.devices.len();
    let mut decided = Vec::with_capacity(SCAN_CANDIDATES);
    for k in 0..SCAN_CANDIDATES {
        let p = Point::seeded_uniform(&sc, rng);
        stack.rt.tick(&p.net(), k as f64 * TICK_MS, rng);
        let d = stack
            .rt
            .serve_decide(Slo::LatencyMs(p.slo_ms))
            .ok_or("plan-mix scan: monitor not ready after a tick")?;
        let subnet = SubnetSpec::lower(&d.genome.config);
        let plan = d.genome.plan(&subnet, n_dev);
        let table =
            dispatch_table(&subnet, &plan, n_dev).map_err(|e| format!("plan-mix scan: {e}"))?;
        let shape = PlanShape::of(&plan, &table);
        decided.push((PlanClass::of(&shape), (p, shape.b8_hops > 0)));
    }
    let picked = fill_quotas(decided.into_iter(), &PLAN_MIX)?;
    let b8_plans = picked.iter().filter(|(_, b8)| *b8).count();
    if b8_plans < MIN_B8_PLANS {
        return Err(format!(
            "plan-mix scan: only {b8_plans} of the picked plans use an 8-bit wire, \
             need {MIN_B8_PLANS}"
        ));
    }
    Ok(picked.into_iter().map(|(p, _)| p).collect())
}

/// A closed-loop schedule: which condition and input request `i` gets.
pub struct Schedule {
    points: Vec<Point>,
    /// Requests each point is held for.
    hold: usize,
    cyclic: bool,
    pub inputs: Vec<Tensor>,
    /// Warm-up requests, which take the schedule's first positions.
    warmup: usize,
}

/// What the client needs for one request.
pub struct Step<'a> {
    pub slo_ms: f64,
    pub net: NetworkState,
    pub t_ms: f64,
    pub input_idx: usize,
    pub input: &'a Tensor,
}

impl Schedule {
    /// Generates the workload's schedule from the seed, scanning through
    /// `stack` where the walk needs decided plans. `requests` bounds a
    /// non-cyclic schedule.
    pub fn build(
        w: &ClosedWorkload,
        seed: u64,
        stack: &mut Stack,
        requests: usize,
    ) -> Result<Schedule, String> {
        let sc = stack.scenario.clone();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "conditions"));
        let (points, hold, cyclic) = match w.walk {
            Walk::Static { slo_i, bw_i, delay_i } => {
                (vec![Point::uniform(&sc, slo_i, bw_i, delay_i)], EPOCH, true)
            }
            Walk::PlanMixCycle => {
                let mut picked = scan_plan_mix(stack, &mut rng)?;
                // The scan yields class by class as quotas fill; interleave.
                for i in (1..picked.len()).rev() {
                    picked.swap(i, rng.gen_range(0..=i));
                }
                (picked, 1, true)
            }
            Walk::Churn => {
                let steps = (w.warmup_requests + requests).div_ceil(CHURN_HOLD).max(1);
                (churn_path(&sc, steps, &mut rng), CHURN_HOLD, false)
            }
        };
        let mut input_rng = StdRng::seed_from_u64(sub_seed(seed, "inputs"));
        let inputs = (0..N_INPUTS)
            .map(|_| Tensor::rand_uniform(w.stack.units.input_shape(), 1.0, &mut input_rng))
            .collect();
        let warmup = w.warmup_requests;
        Ok(Schedule { points, hold, cyclic, inputs, warmup })
    }

    /// Measured requests in the schedule (`None`: it cycles for as long as
    /// asked).
    pub fn len(&self) -> Option<usize> {
        (!self.cyclic).then(|| self.points.len() * self.hold - self.warmup)
    }

    /// Requests served under one condition before the next takes over.
    pub fn hold(&self) -> usize {
        self.hold
    }

    /// The points, in schedule order.
    #[cfg(test)]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Request `i` of the measured run. Warm-up requests take negative
    /// positions (`-1` is the last one before the run) and walk the head of
    /// the same schedule, so the warm-up of a stepping schedule does its
    /// share of link steps.
    pub fn step(&self, i: i64) -> Step<'_> {
        let j = (i + self.warmup as i64).max(0) as usize;
        let point = &self.points[(j / self.hold) % self.points.len()];
        let u = j % (EPOCH * N_INPUTS);
        let input_idx = (u + u / EPOCH) % N_INPUTS;
        Step {
            slo_ms: point.slo_ms,
            net: point.net(),
            t_ms: (SCAN_CANDIDATES + j) as f64 * TICK_MS,
            input_idx,
            input: &self.inputs[input_idx],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_eq!(sub_seed(7, "inputs"), sub_seed(7, "inputs"));
        assert_ne!(sub_seed(7, "inputs"), sub_seed(7, "conditions"));
        assert_ne!(sub_seed(7, "inputs"), sub_seed(8, "inputs"));
    }

    #[test]
    fn quotas_fill_in_stream_order_or_fail_loudly() {
        use PlanClass::*;
        let stream = [Remote, Tiled, AllLocal, Tiled, Remote, Tiled, AllLocal];
        let quotas = [(Tiled, 2), (AllLocal, 1)];
        let picked = fill_quotas(stream.iter().copied().zip(0..), &quotas).unwrap();
        // The third Tiled and the second AllLocal are never looked at.
        assert_eq!(picked, vec![1, 2, 3]);

        let err =
            fill_quotas(stream.iter().copied().zip(0..), &[(Tiled, 4), (AllLocal, 3)]).unwrap_err();
        assert!(err.contains("7 candidates"), "{err}");
        assert!(err.contains("1 × Tiled") && err.contains("1 × AllLocal"), "{err}");
    }

    #[test]
    fn plan_mix_is_one_epoch_with_the_promised_classes() {
        assert_eq!(PLAN_MIX.iter().map(|(_, n)| n).sum::<usize>(), EPOCH);
        let quota = |c| PLAN_MIX.iter().find(|(k, _)| *k == c).map_or(0, |(_, n)| *n);
        assert!(quota(PlanClass::Tiled) >= 2 && quota(PlanClass::Tiled) >= MIN_B8_PLANS);
        assert!(quota(PlanClass::Remote) >= 1);
        assert!(quota(PlanClass::AllLocal) >= 1);
    }

    /// Same seed ⇒ identical conditions and inputs; the scan finds its
    /// eight conditions with the promised classes; every (point, input)
    /// pair comes up within `EPOCH * N_INPUTS` requests.
    #[test]
    fn seeded_schedules_are_deterministic() {
        let tiny = UnitShape { layers: 1, channels: 2, hw: 8, int8_units: F32_UNITS };
        for w in closed_workloads().into_iter().filter(|w| !matches!(w.walk, Walk::Static { .. })) {
            let w = ClosedWorkload {
                stack: StackSpec { transport: TransportKind::InProc, units: tiny, ..w.stack },
                ..w
            };
            let build = |seed| {
                let mut stack = Stack::build(w.stack, None).unwrap();
                let s = Schedule::build(&w, seed, &mut stack, 4 * EPOCH).unwrap();
                stack.shutdown();
                s
            };
            let (a, b, c) = (build(11), build(11), build(12));
            assert_eq!(a.points(), b.points(), "{}", w.name);
            assert_ne!(a.points(), c.points(), "{}", w.name);
            assert_eq!(a.inputs[0].data(), b.inputs[0].data());
            assert_ne!(a.inputs[0].data(), c.inputs[0].data());
            if w.walk == Walk::PlanMixCycle {
                assert_eq!(a.points().len(), EPOCH);
                assert_eq!(a.len(), None);
                let mut pairs = std::collections::BTreeSet::new();
                for i in 0..(EPOCH * N_INPUTS) as i64 {
                    pairs.insert((i as usize % EPOCH, a.step(i).input_idx));
                }
                assert_eq!(pairs.len(), EPOCH * N_INPUTS);
            } else {
                assert_eq!(a.len(), Some(4 * EPOCH));
                // The link holds for `CHURN_HOLD` requests and follows the
                // trace; the warm-up walks the head of the same path.
                let first = w.warmup_requests / CHURN_HOLD;
                let links = |i: i64| -> Vec<LinkState> {
                    (1..=3).map(|d| a.step(i).net.link_for(d)).collect()
                };
                assert_eq!(links(0), links(1));
                assert_eq!(links(0), a.points()[first].links);
                assert_eq!(links(2), a.points()[first + 1].links);
                assert_ne!(links(2), links(0), "every step moves every link");
                assert_ne!(links(0)[0], links(0)[1], "each link walks its own axes");
                assert_eq!(a.step(2).slo_ms, a.points()[first + 1].slo_ms);
                assert_eq!(links(-3), a.points()[first - 2].links);
                assert_eq!(a.step(-(w.warmup_requests as i64)).t_ms, a.step(0).t_ms - 3200.0);
            }
        }
    }
}
