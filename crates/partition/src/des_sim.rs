//! Discrete-event simulation of plan execution.
//!
//! An independent implementation of the execution semantics on top of
//! `edgesim`'s event queue: compute jobs occupy device timelines, transfer
//! jobs occupy destination links, and unit boundaries synchronize via
//! events. Serving as a cross-check, its end-to-end time must agree with
//! the closed-form [`LatencyEstimator`](crate::estimator::LatencyEstimator)
//! — a strong property test over random specs, plans, and networks.

use crate::estimator::{layers_time_ms_bits, redistribute, Holder};
use crate::plan::{participants, ExecutionPlan};
use murmuration_edgesim::des::EventQueue;
use murmuration_edgesim::{Device, NetworkState};
use murmuration_supernet::SubnetSpec;

/// Events in the plan simulation.
#[derive(Clone, Debug)]
enum Ev {
    /// Data for `unit` has fully arrived at participant `slot`.
    InputReady { unit: usize, slot: usize },
    /// Participant `slot` finished computing `unit`.
    ComputeDone { unit: usize, slot: usize },
}

/// Simulates one inference of `spec` under `plan`; returns the end-to-end
/// latency in ms.
pub fn simulate(
    devices: &[Device],
    net: &NetworkState,
    spec: &SubnetSpec,
    plan: &ExecutionPlan,
) -> f64 {
    debug_assert!(plan.validate(spec, devices.len()).is_ok());
    let mut q: EventQueue<Ev> = EventQueue::new();

    // Per-unit participant lists (same-device tiles merged; they serialize
    // on their device).
    let shares: Vec<Vec<(usize, f64, usize)>> =
        plan.placements.iter().map(|p| participants(p.tiles()).collect()).collect();
    let widths: Vec<usize> = plan.placements.iter().map(|p| p.width()).collect();
    let n_units = spec.units.len();

    // State: per unit, per slot readiness / completion time.
    let mut done_at: Vec<Vec<Option<f64>>> = shares.iter().map(|s| vec![None; s.len()]).collect();
    let mut holders: Vec<Holder> = vec![Holder { dev: 0, frac: 1.0, ready_ms: 0.0 }];
    let mut bytes = spec.input_bytes();

    // Kick off unit 0's input transfers.
    schedule_unit_inputs(&mut q, net, &holders, &shares[0], bytes, 0);

    let mut final_done = 0.0f64;
    while let Some((t, ev)) = q.pop() {
        match ev {
            Ev::InputReady { unit, slot } => {
                let (dev, _frac, count) = shares[unit][slot];
                let tiles = widths[unit];
                let compute = layers_time_ms_bits(
                    &devices[dev].profile(),
                    &spec.units[unit].layers,
                    tiles,
                    spec.units[unit].compute_bits(),
                );
                q.schedule_at(t + compute * count as f64, Ev::ComputeDone { unit, slot });
            }
            Ev::ComputeDone { unit, slot } => {
                done_at[unit][slot] = Some(t);
                // When every participant of this unit has finished, start
                // the next unit's input redistribution.
                if done_at[unit].iter().all(|d| d.is_some()) {
                    holders = shares[unit]
                        .iter()
                        .zip(done_at[unit].iter())
                        .map(|(&(dev, frac, _), d)| Holder { dev, frac, ready_ms: d.unwrap() })
                        .collect();
                    bytes = spec.units[unit].out_wire_bytes();
                    if unit + 1 < n_units {
                        schedule_unit_inputs(
                            &mut q,
                            net,
                            &holders,
                            &shares[unit + 1],
                            bytes,
                            unit + 1,
                        );
                    } else {
                        // Gather the logits back to device 0.
                        if let Some((_, t)) = redistribute(net, &holders, [(0, 1.0)], bytes).next()
                        {
                            final_done = t;
                        }
                    }
                }
            }
        }
    }
    final_done
}

/// Schedules `InputReady` events for every participant of `unit`.
fn schedule_unit_inputs(
    q: &mut EventQueue<Ev>,
    net: &NetworkState,
    holders: &[Holder],
    participants: &[(usize, f64, usize)],
    bytes: u64,
    unit: usize,
) {
    let dsts = participants.iter().map(|&(d, f, _)| (d, f));
    for (slot, (_, ready)) in redistribute(net, holders, dsts, bytes).enumerate() {
        q.schedule_at(ready.max(q.now_ms()), Ev::InputReady { unit, slot });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::LatencyEstimator;
    use crate::evolutionary::Genome;
    use murmuration_edgesim::device::device_swarm_devices;
    use murmuration_edgesim::{LinkState, NetworkState};
    use murmuration_supernet::SearchSpace;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn des_matches_estimator_on_local_plan() {
        let devices = device_swarm_devices(3);
        let net = NetworkState::uniform(2, LinkState::lan());
        let spec = SubnetSpec::lower(&SearchSpace::default().min_config());
        let plan = ExecutionPlan::all_on(&spec, 0);
        let analytic = LatencyEstimator::new(&devices, &net).estimate(&spec, &plan).total_ms;
        let des = simulate(&devices, &net, &spec, &plan);
        assert!((analytic - des).abs() < 1e-6, "{analytic} vs {des}");
    }

    #[test]
    fn des_matches_estimator_on_random_plans() {
        let space = SearchSpace::default();
        let mut rng = StdRng::seed_from_u64(0);
        let devices = device_swarm_devices(5);
        for i in 0..30 {
            let net = NetworkState::uniform(
                4,
                LinkState { bandwidth_mbps: 5.0 + 30.0 * (i as f64), delay_ms: 2.0 + i as f64 },
            );
            let g = Genome::random(&space, 5, &mut rng);
            let spec = SubnetSpec::lower(&g.config);
            let plan = g.plan(&spec, 5);
            let analytic = LatencyEstimator::new(&devices, &net).estimate(&spec, &plan).total_ms;
            let des = simulate(&devices, &net, &spec, &plan);
            assert!(
                (analytic - des).abs() < 1e-6 * analytic.max(1.0),
                "iter {i}: analytic {analytic} vs DES {des}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_des_agrees_with_estimator(seed in 0u64..10_000, bw in 1.0f64..1000.0, delay in 0.0f64..100.0) {
            let space = SearchSpace::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let devices = device_swarm_devices(4);
            let net = NetworkState::uniform(3, LinkState { bandwidth_mbps: bw, delay_ms: delay });
            let g = Genome::random(&space, 4, &mut rng);
            let spec = SubnetSpec::lower(&g.config);
            let plan = g.plan(&spec, 4);
            let analytic = LatencyEstimator::new(&devices, &net).estimate(&spec, &plan).total_ms;
            let des = simulate(&devices, &net, &spec, &plan);
            prop_assert!((analytic - des).abs() < 1e-6 * analytic.max(1.0));
        }
    }
}
