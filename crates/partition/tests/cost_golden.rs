//! Bit-identity oracle for every price the partition crate computes.
//!
//! The estimator guard, the beam planner, the ADCNN baseline and the
//! discrete-event cross-check all feed argmins and SLO comparisons: one
//! re-associated sum flips a near-tie, and with it a decision, a figure row
//! and a campaign fingerprint. These digests were recorded on the
//! implementation that wrote the cost walk out once per caller; any
//! restructuring of the walk must reproduce them exactly.

use murmuration_edgesim::device::{
    augmented_computing_devices, device_swarm_devices, heterogeneous_edge_devices,
};
use murmuration_edgesim::{Device, LinkState, NetworkState};
use murmuration_models::{mobilenet_v3_large, resnet50, vit_b16};
use murmuration_partition::evolutionary::Genome;
use murmuration_partition::{adcnn, beam, des_sim};
use murmuration_partition::{ExecutionPlan, LatencyEstimator, UnitPlacement};
use murmuration_supernet::{SearchSpace, SubnetSpec};
use murmuration_tensor::tile::GridSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Every hashed quantity is widened to 64 bits first.
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ms(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn plan(&mut self, plan: &ExecutionPlan) {
        for p in &plan.placements {
            match p {
                UnitPlacement::Single(d) => {
                    self.word(0);
                    self.word(*d as u64);
                }
                UnitPlacement::Tiled(devs) => {
                    self.word(1);
                    self.word(devs.len() as u64);
                    for &d in devs {
                        self.word(d as u64);
                    }
                }
            }
        }
    }
}

/// A seeded network for `n_remote` links: bandwidth 1–1000 Mbps, delay
/// 0–100 ms, independently per link.
fn random_net(n_remote: usize, rng: &mut StdRng) -> NetworkState {
    NetworkState::from_links(
        (0..n_remote)
            .map(|_| LinkState {
                bandwidth_mbps: rng.gen_range(1.0f64..1000.0),
                delay_ms: rng.gen_range(0.0f64..100.0),
            })
            .collect(),
    )
}

/// 240 seeded `(fleet, spec, plan, network)` cases: 80 per fleet, every
/// fourth one with the stage grids forced to 2×2 and tiles co-located on
/// device 0 in the `[0, 1, 0, 2]` pattern (wrapped to the fleet).
fn triples() -> Vec<(Vec<Device>, SubnetSpec, ExecutionPlan, NetworkState)> {
    let space = SearchSpace::default();
    let mut rng = StdRng::seed_from_u64(0x636f_7374);
    let fleets =
        [device_swarm_devices(5), augmented_computing_devices(), heterogeneous_edge_devices()];
    let mut out = Vec::new();
    for devices in fleets {
        let n = devices.len();
        for i in 0..80 {
            let mut g = Genome::random(&space, n, &mut rng);
            if i % 4 == 3 {
                for s in &mut g.config.stages {
                    s.partition = GridSpec::new(2, 2);
                }
                for p in &mut g.prefs {
                    *p = [0, 1 % n, 0, 2 % n];
                }
            }
            let spec = SubnetSpec::lower(&g.config);
            let plan = g.plan(&spec, n);
            let net = random_net(n - 1, &mut rng);
            out.push((devices.clone(), spec, plan, net));
        }
    }
    out
}

fn estimate_digest() -> u64 {
    let mut h = Fnv::new();
    let mut colocated = 0;
    for (devices, spec, plan, net) in triples() {
        let est = LatencyEstimator::new(&devices, &net);
        let b = est.estimate(&spec, &plan);
        h.ms(b.total_ms);
        h.ms(b.compute_ms);
        h.ms(b.comm_ms);
        let (tb, trace) = est.estimate_with_trace(&spec, &plan);
        assert_eq!(tb, b, "estimate_with_trace's breakdown is estimate's");
        for u in &trace {
            h.ms(u.input_ready_ms);
            h.ms(u.done_ms);
            h.word(u.devices.len() as u64);
            for &d in &u.devices {
                h.word(d as u64);
            }
        }
        colocated += plan
            .placements
            .iter()
            .filter(|p| matches!(p, UnitPlacement::Tiled(v) if v.len() > plan_devices(v)))
            .count();
    }
    assert!(colocated > 50, "the cases must exercise co-located tiles: {colocated}");
    h.0
}

fn plan_devices(tiles: &[usize]) -> usize {
    let mut d = tiles.to_vec();
    d.sort_unstable();
    d.dedup();
    d.len()
}

fn beam_digest() -> u64 {
    let mut h = Fnv::new();
    for (devices, spec, _, net) in triples().into_iter().step_by(4) {
        for width in [1, 4, 8] {
            let (plan, ms) = beam::plan_beam(&spec, &devices, &net, width);
            h.plan(&plan);
            h.ms(ms);
        }
    }
    h.0
}

fn adcnn_digest() -> u64 {
    let mut h = Fnv::new();
    let devices = device_swarm_devices(8);
    let mut rng = StdRng::seed_from_u64(0x6164_636e);
    let nets: Vec<NetworkState> = (0..4).map(|_| random_net(7, &mut rng)).collect();
    for model in [resnet50(224), mobilenet_v3_large(224), vit_b16(224)] {
        for net in &nets {
            for k in 1..=8 {
                h.ms(adcnn::latency_with_workers(&model, &devices, net, k));
            }
        }
    }
    h.0
}

fn des_digest() -> u64 {
    let mut h = Fnv::new();
    for (devices, spec, plan, net) in triples() {
        h.ms(des_sim::simulate(&devices, &net, &spec, &plan));
    }
    h.0
}

fn check(name: &str, got: u64, want: u64) {
    println!("{name}: {got:#018x}");
    assert_eq!(got, want, "{name}: price bits moved ({got:#018x})");
}

#[test]
fn estimate_and_trace_bits_are_frozen() {
    check("estimate", estimate_digest(), 0x7af5_24ac_3467_29c1);
}

#[test]
fn beam_plans_and_prices_are_frozen() {
    check("plan_beam", beam_digest(), 0xefe4_031b_a53b_5719);
}

#[test]
fn adcnn_worker_prices_are_frozen() {
    check("adcnn", adcnn_digest(), 0x56a8_ea77_63e4_ed16);
}

#[test]
fn des_sim_bits_are_frozen() {
    check("des_sim", des_digest(), 0x6bef_ba74_f34c_a2d4);
}
