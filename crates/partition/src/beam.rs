//! Deterministic beam-search placement planner.
//!
//! For a *fixed* subnet configuration, searches over per-unit placements
//! (every single-device option plus FDSP tile assignments over the fastest
//! devices) keeping the best `beam_width` partial schedules by completion
//! time. Because execution is a linear chain whose cost depends only on
//! the data-holder profile, this explores exactly the structure the
//! problem has — it is the planner a deployment without a trained policy
//! would use, and a strong deterministic oracle for the harness.

use crate::estimator::{Holders, LatencyEstimator};
use crate::plan::{ExecutionPlan, UnitPlacement};
use murmuration_edgesim::{Device, DeviceId, NetworkState};
use murmuration_supernet::SubnetSpec;

/// A partial schedule in the beam.
#[derive(Clone)]
struct BeamState {
    placements: Vec<UnitPlacement>,
    holders: Holders,
    /// Completion time of the slowest holder so far.
    frontier_ms: f64,
}

/// Plans placements for `spec` with beam search; returns the plan and its
/// estimated end-to-end latency.
pub fn plan_beam(
    spec: &SubnetSpec,
    devices: &[Device],
    net: &NetworkState,
    beam_width: usize,
) -> (ExecutionPlan, f64) {
    assert!(beam_width >= 1);
    // Devices ordered fastest-first (by dense-conv rate) for tile choices.
    let mut by_speed: Vec<DeviceId> = (0..devices.len()).collect();
    by_speed.sort_by(|&a, &b| {
        devices[b]
            .profile()
            .conv_macs_per_ms
            .partial_cmp(&devices[a].profile().conv_macs_per_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let est = LatencyEstimator { devices, net };
    let mut beam = vec![BeamState {
        placements: Vec::with_capacity(spec.units.len()),
        holders: Holders::input(),
        frontier_ms: 0.0,
    }];
    let mut bytes_in = spec.input_bytes();

    for unit in &spec.units {
        // Candidate placements for this unit.
        let mut candidates: Vec<UnitPlacement> =
            (0..devices.len()).map(UnitPlacement::Single).collect();
        let tiles = unit.partition.tiles();
        if tiles > 1 && unit.spatially_partitionable() && devices.len() > 1 {
            // Fastest `tiles` devices (cycling if the fleet is smaller).
            let fast: Vec<DeviceId> = (0..tiles).map(|t| by_speed[t % devices.len()]).collect();
            candidates.push(UnitPlacement::Tiled(fast));
            // Same but anchored on the local device (no input scatter cost
            // for tile 0).
            let mut local_first: Vec<DeviceId> = vec![0];
            local_first.extend(by_speed.iter().filter(|&&d| d != 0).take(tiles - 1));
            while local_first.len() < tiles {
                local_first.push(0);
            }
            candidates.push(UnitPlacement::Tiled(local_first));
        }
        // Expand every beam state with every candidate.
        let (layers, bits) = (&unit.layers, unit.compute_bits());
        let mut next: Vec<BeamState> = Vec::with_capacity(beam.len() * candidates.len());
        for state in &beam {
            for cand in &candidates {
                let (holders, _) = est.step(&state.holders, cand.tiles(), bytes_in, layers, bits);
                let frontier_ms = holders.ready_ms();
                let mut placements = state.placements.clone();
                placements.push(cand.clone());
                next.push(BeamState { placements, holders, frontier_ms });
            }
        }
        next.sort_by(|a, b| {
            a.frontier_ms.partial_cmp(&b.frontier_ms).unwrap_or(std::cmp::Ordering::Equal)
        });
        next.truncate(beam_width);
        beam = next;
        bytes_in = unit.out_wire_bytes();
    }

    // Final gather of the logits to device 0 decides the winner.
    let mut best: Option<(ExecutionPlan, f64)> = None;
    for state in beam {
        let done = est.gather_ms(&state.holders, bytes_in);
        if best.as_ref().is_none_or(|(_, b)| done < *b) {
            best = Some((ExecutionPlan { placements: state.placements }, done));
        }
    }
    best.expect("beam is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::LatencyEstimator;
    use murmuration_edgesim::device::{augmented_computing_devices, device_swarm_devices};
    use murmuration_edgesim::LinkState;
    use murmuration_supernet::SearchSpace;
    use murmuration_tensor::tile::GridSpec;
    use rand::{rngs::StdRng, SeedableRng};

    fn lan(n: usize) -> NetworkState {
        NetworkState::uniform(n, LinkState::lan())
    }

    #[test]
    fn beam_matches_estimator_on_its_own_plan() {
        let devices = device_swarm_devices(4);
        let net = lan(3);
        let mut cfg = SearchSpace::default().min_config();
        cfg.stages[2].partition = GridSpec::new(2, 2);
        let spec = SubnetSpec::lower(&cfg);
        let (plan, predicted) = plan_beam(&spec, &devices, &net, 6);
        plan.validate(&spec, 4).unwrap();
        let actual = LatencyEstimator::new(&devices, &net).estimate(&spec, &plan).total_ms;
        assert!((predicted - actual).abs() < 1e-6, "{predicted} vs {actual}");
    }

    #[test]
    fn beam_never_loses_to_canonical_plans() {
        let space = SearchSpace::default();
        let mut rng = StdRng::seed_from_u64(3);
        let devices = augmented_computing_devices();
        for i in 0..15 {
            let cfg = space.sample(&mut rng);
            let spec = SubnetSpec::lower(&cfg);
            let net = NetworkState::uniform(
                1,
                LinkState {
                    bandwidth_mbps: 20.0 + 40.0 * i as f64,
                    delay_ms: 5.0 + 3.0 * i as f64,
                },
            );
            let est = LatencyEstimator::new(&devices, &net);
            let (_, beam_ms) = plan_beam(&spec, &devices, &net, 8);
            for canonical in [
                ExecutionPlan::all_on(&spec, 0),
                ExecutionPlan::all_on(&spec, 1),
                ExecutionPlan::spread(&spec, 2),
            ] {
                let c = est.estimate(&spec, &canonical).total_ms;
                assert!(beam_ms <= c + 1e-6, "iter {i}: beam {beam_ms} must beat canonical {c}");
            }
        }
    }

    #[test]
    fn wider_beams_never_hurt() {
        let devices = device_swarm_devices(5);
        let net = NetworkState::uniform(4, LinkState { bandwidth_mbps: 80.0, delay_ms: 10.0 });
        let mut cfg = SearchSpace::default().max_config();
        for s in &mut cfg.stages {
            s.partition = GridSpec::new(2, 2);
        }
        let spec = SubnetSpec::lower(&cfg);
        let (_, b1) = plan_beam(&spec, &devices, &net, 1);
        let (_, b4) = plan_beam(&spec, &devices, &net, 4);
        let (_, b16) = plan_beam(&spec, &devices, &net, 16);
        assert!(b4 <= b1 + 1e-9);
        assert!(b16 <= b4 + 1e-9);
    }

    #[test]
    fn beam_offloads_on_fast_links_and_stays_local_on_dead_ones() {
        let devices = augmented_computing_devices();
        let spec = SubnetSpec::lower(&SearchSpace::default().max_config());
        let fast = NetworkState::uniform(1, LinkState { bandwidth_mbps: 500.0, delay_ms: 2.0 });
        let (plan, _) = plan_beam(&spec, &devices, &fast, 4);
        assert!(
            plan.placements.iter().any(|p| matches!(p, UnitPlacement::Single(1))),
            "fast link must pull work onto the GPU"
        );
        let dead = NetworkState::uniform(1, LinkState { bandwidth_mbps: 0.2, delay_ms: 500.0 });
        let (plan, _) = plan_beam(&spec, &devices, &dead, 4);
        assert!(
            plan.placements.iter().all(|p| matches!(p, UnitPlacement::Single(0))),
            "dead link must keep everything local"
        );
    }
}
