//! Allocation budget of one price — counted, not timed. The estimator guard
//! prices the policy's pick plus every fallback rung on each decision miss,
//! so `LatencyEstimator::estimate` is the innermost loop of a miss. Before
//! the cost walk became one step over inline holders it allocated 30 times
//! per call on every rung below (participant, destination, arrival and
//! holder vectors, per unit); now it allocates nothing.

#[path = "../../rl/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use murmuration_edgesim::device::device_swarm_devices;
use murmuration_edgesim::{LinkState, NetworkState};
use murmuration_partition::evolutionary::Genome;
use murmuration_partition::{ExecutionPlan, LatencyEstimator};
use murmuration_supernet::{BlockChoice, SearchSpace, SubnetConfig, SubnetSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEVICES: usize = 4;

/// The fallback ladder of a `DEVICES`-Pi swarm, lowered as the guard
/// lowers it: three resolutions × three architecture sizes × (all-local,
/// body on each remote at 8-bit and at full precision, 2×2 spread at
/// 8-bit) — 72 rungs.
fn ladder(space: &SearchSpace) -> Vec<(SubnetSpec, ExecutionPlan)> {
    let b8 = space.quants.len() - 1;
    let grid_2x2 = space.partitions.len() - 1;
    let mut archetypes: Vec<(usize, usize, [usize; 4], usize)> = vec![(0, 0, [0; 4], 0)];
    for d in 1..DEVICES {
        archetypes.push((b8, 0, [d; 4], d));
        archetypes.push((0, 0, [d; 4], d));
    }
    archetypes.push((b8, grid_2x2, [0, 1, 2, 3], 0));
    let mut out = Vec::new();
    for res_i in [0, space.resolutions.len() / 2, space.resolutions.len() - 1] {
        for arch_i in 0..3 {
            for &(quant_i, part_i, stage_devs, head_dev) in &archetypes {
                let stage = BlockChoice {
                    kernel: space.kernels[arch_i],
                    depth: space.depths[arch_i],
                    expand: space.expands[arch_i],
                    partition: space.partitions[part_i],
                    quant: space.quants[quant_i],
                };
                let mut prefs = vec![[0; 4]; 7];
                prefs[1..6].fill(stage_devs);
                prefs[6][0] = head_dev;
                let config = SubnetConfig {
                    resolution: space.resolutions[res_i],
                    stages: vec![stage; space.num_stages],
                };
                let genome = Genome { config, prefs };
                let spec = SubnetSpec::lower(&genome.config);
                let plan = genome.plan(&spec, DEVICES);
                out.push((spec, plan));
            }
        }
    }
    out
}

fn assert_estimates_allocate_nothing(cases: &[(SubnetSpec, ExecutionPlan)]) {
    let devices = device_swarm_devices(DEVICES);
    let net =
        NetworkState::uniform(DEVICES - 1, LinkState { bandwidth_mbps: 50.0, delay_ms: 20.0 });
    let est = LatencyEstimator::new(&devices, &net);
    for (i, (spec, plan)) in cases.iter().enumerate() {
        let (b, n) = allocations_in(|| est.estimate(spec, plan));
        assert!(b.total_ms > 0.0);
        assert_eq!(n, 0, "case {i}: estimate allocated {n} times");
    }
}

#[test]
fn estimate_allocates_nothing_on_any_fallback_rung() {
    let rungs = ladder(&SearchSpace::default());
    assert_eq!(rungs.len(), 72);
    assert_estimates_allocate_nothing(&rungs);
}

#[test]
fn estimate_allocates_nothing_on_random_search_space_plans() {
    let space = SearchSpace::default();
    let mut rng = StdRng::seed_from_u64(5);
    let cases: Vec<_> = (0..100)
        .map(|_| {
            let g = Genome::random(&space, DEVICES, &mut rng);
            let spec = SubnetSpec::lower(&g.config);
            let plan = g.plan(&spec, DEVICES);
            (spec, plan)
        })
        .collect();
    assert_estimates_allocate_nothing(&cases);
}
