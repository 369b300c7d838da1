//! Bit-identity oracle for the runtime's decision path.
//!
//! `decision_golden` (in `murmuration-rl`) pins the roll-out and the
//! estimator guard; this pins what the runtime builds on them: the monitor
//! sample and forecast of every `tick`, the keys, what the strategy cache
//! holds when a request arrives, and so which requests hit. Each sequence
//! drives one `SharedRuntime` through `tick` + `serve_decide` per request,
//! as `bench_e2e`'s closed loops do, and digests every request's
//! `(actions, cached)`. A change that must not move decisions, such as one
//! to when `tick` speculates, must leave every digest and count here as it
//! is. The speculation counts beside them say what `tick`'s precompute
//! spent: they move only when its throttle does.

use murmuration_core::cache::CacheStats;
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::{LinkState, NetworkState};
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Virtual milliseconds between ticks: one tick per request.
const TICK_MS: f64 = 100.0;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One request's condition: its SLO and the ground-truth links.
struct Step {
    slo_ms: f64,
    net: NetworkState,
}

fn scenario() -> Scenario {
    Scenario::device_swarm(4, SloKind::Latency)
}

/// A small policy keeps the debug-build suite fast; the bits it pins are
/// the runtime's, not the kernel's (`decision_golden` pins those).
fn runtime(sc: &Scenario) -> SharedRuntime {
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0x6d75_726d);
    SharedRuntime::new(sc.clone(), policy, RuntimeConfig::default(), Slo::LatencyMs(sc.slo_range.1))
}

/// Drives `steps` through a fresh runtime: per request one `tick` at the
/// step's links, then one `serve_decide` under the step's SLO. Returns the
/// digest of every `(actions, cached)` and the final cache counters.
fn drive(steps: &[Step], seed: u64) -> (u64, CacheStats) {
    let sc = scenario();
    let rt = runtime(&sc);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut digest = Fnv::new();
    for (k, step) in steps.iter().enumerate() {
        rt.tick(&step.net, k as f64 * TICK_MS, &mut rng);
        let d = rt.serve_decide(Slo::LatencyMs(step.slo_ms)).expect("the monitor has sampled");
        for &a in &d.actions {
            digest.word(a as u64);
        }
        digest.word(u64::from(d.cached));
    }
    (digest.0, rt.cache_stats())
}

fn grid_step(sc: &Scenario, slo_i: usize, bw_i: &[usize], delay_i: &[usize]) -> Step {
    let c = sc.condition_from_indices(slo_i, bw_i, delay_i);
    let links = c
        .bw_mbps
        .iter()
        .zip(&c.delay_ms)
        .map(|(&bandwidth_mbps, &delay_ms)| LinkState { bandwidth_mbps, delay_ms })
        .collect();
    Step { slo_ms: c.slo, net: NetworkState::from_links(links) }
}

/// `bench_e2e`'s churn: the SLO and every link step every 2 requests along
/// a billiard path, each axis at its own incommensurable speed, so no cell
/// comes twice. The runtime's own SLO never changes, as in the benchmark.
fn churn(requests: usize, seed: u64) -> Vec<Step> {
    const SPEED: [f64; 7] = [1.3247, 1.4656, 1.7549, 1.2207, 1.6180, 1.3803, 1.5437];
    const HOLD: usize = 2;
    let sc = scenario();
    let n = sc.n_remote();
    let top = (sc.grid_points - 1) as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let phase: Vec<f64> = (0..1 + 2 * n).map(|_| rng.gen_range(0.0..2.0 * top)).collect();
    (0..requests)
        .map(|r| {
            let t = (r / HOLD) as f64;
            let cell: Vec<usize> = phase
                .iter()
                .zip(SPEED)
                .map(|(&p, v)| {
                    let x = (p + v * t) % (2.0 * top);
                    (if x <= top { x } else { 2.0 * top - x }).round() as usize
                })
                .collect();
            grid_step(&sc, cell[0], &cell[1..1 + n], &cell[1 + n..])
        })
        .collect()
}

/// One grid cell for the whole run, under the runtime's own SLO: `tick`'s
/// forecast is the observed cell, so its precomputed entries get read.
fn steady(requests: usize) -> Vec<Step> {
    let sc = scenario();
    let n = sc.n_remote();
    let g = sc.grid_points;
    (0..requests)
        .map(|_| {
            let mut s = grid_step(&sc, g - 1, &vec![g / 2; n], &vec![g / 3; n]);
            s.slo_ms = sc.slo_range.1;
            s
        })
        .collect()
}

/// Every link's bandwidth falls and its delay rises linearly across the
/// grid, under the runtime's own SLO: the forecast runs ahead of the
/// monitor's estimate along the ramp.
fn ramp(requests: usize) -> Vec<Step> {
    let sc = scenario();
    let n = sc.n_remote();
    let (bw_lo, bw_hi) = sc.bw_range;
    let (d_lo, d_hi) = sc.delay_range;
    (0..requests)
        .map(|r| {
            let f = r as f64 / (requests - 1) as f64;
            let link = LinkState {
                bandwidth_mbps: bw_hi + (bw_lo - bw_hi) * f,
                delay_ms: d_lo + (d_hi - d_lo) * f,
            };
            Step { slo_ms: sc.slo_range.1, net: NetworkState::uniform(n, link) }
        })
        .collect()
}

fn check(name: &str, steps: &[Step], seed: u64, want: (u64, u64, u64)) -> CacheStats {
    let (digest, stats) = drive(steps, seed);
    println!("{name}: digest {digest:016x} {stats:?}");
    assert_eq!(
        (digest, stats.hits, stats.misses),
        want,
        "{name}: runtime decisions moved (digest {digest:016x}, hits {}, misses {})",
        stats.hits,
        stats.misses
    );
    stats
}

/// `(speculated, speculative_reads, speculation_skipped)` of a run.
fn speculation(s: &CacheStats) -> (u64, u64, u64) {
    (s.speculated, s.speculative_reads, s.speculation_skipped)
}

/// Roll-outs of the churn sequence before `tick`'s precompute was
/// throttled: 468 misses plus 441 speculative roll-outs, none of them read.
const CHURN_ROLLOUTS_UNTHROTTLED: u64 = 909;

#[test]
fn churn_decisions_are_frozen() {
    const REQUESTS: usize = 480;
    let s = check("churn", &churn(REQUESTS, 1), 11, (0x182b_2aa4_536d_25e2, 12, 468));
    assert_eq!(speculation(&s), (27, 0, 449));
    let per_request = |rollouts: u64| rollouts as f64 / REQUESTS as f64;
    let rollouts = s.misses + s.speculated;
    println!(
        "churn: roll-outs per request {:.3} (unthrottled {:.3})",
        per_request(rollouts),
        per_request(CHURN_ROLLOUTS_UNTHROTTLED)
    );
    assert!(per_request(CHURN_ROLLOUTS_UNTHROTTLED) > 1.85);
    assert!(per_request(rollouts) <= 1.05, "churn pays {rollouts} roll-outs");
}

#[test]
fn steady_decisions_are_frozen() {
    let s = check("steady", &steady(64), 12, (0x5d04_d065_398f_6325, 64, 0));
    assert_eq!(speculation(&s), (3, 1, 0));
}

#[test]
fn ramp_decisions_are_frozen() {
    // A third of the ramp's speculation is read, in bursts: the throttle
    // never engages.
    let s = check("ramp", &ramp(240), 13, (0x1e4b_6875_3234_1925, 220, 20));
    assert_eq!(speculation(&s), (71, 26, 0));
}
