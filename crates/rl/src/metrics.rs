//! Validation metrics: average reward and (normalized) SLO compliance over
//! a fixed condition grid — the quantities plotted in Figs. 11–12.

use crate::env::{greedy_rollout, Condition, Scenario};
use crate::policy::LstmPolicy;
use murmuration_partition::evolutionary;

/// One evaluation snapshot.
#[derive(Clone, Copy, Debug)]
pub struct EvalReport {
    pub avg_reward: f64,
    /// Raw compliance (% of validation conditions met).
    pub compliance_pct: f64,
}

/// A training curve: (episodes-collected, report) samples.
#[derive(Clone, Debug, Default)]
pub struct TrainHistory {
    pub points: Vec<(usize, EvalReport)>,
}

impl TrainHistory {
    /// Final average reward (0 when never evaluated).
    pub fn final_reward(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.1.avg_reward)
    }

    /// Final compliance (%).
    pub fn final_compliance(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.1.compliance_pct)
    }
}

/// Evenly-spread validation conditions: a deterministic scrambled sweep of
/// the grid (the paper uses evenly distributed points). Uses a splitmix
/// hash per (sample, dimension) so no dimension cycles with the sample
/// index.
pub fn validation_conditions(sc: &Scenario, count: usize) -> Vec<Condition> {
    let g = sc.grid_points;
    let k = sc.n_remote();
    let mix = |i: u64, dim: u64| -> usize {
        let mut z =
            i.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(dim.wrapping_mul(0xbf58476d1ce4e5b9));
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58476d1ce4e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z % g as u64) as usize
    };
    (0..count)
        .map(|i| {
            // The SLO axis sweeps the grid evenly; network axes scramble.
            let slo_i = (i * 7 + 3) % g;
            let bw_i: Vec<usize> = (0..k).map(|d| mix(i as u64, 1 + d as u64)).collect();
            let delay_i: Vec<usize> = (0..k).map(|d| mix(i as u64, 101 + d as u64)).collect();
            sc.condition_from_indices(slo_i, &bw_i, &delay_i)
        })
        .collect()
}

/// Greedy-policy evaluation over a condition set.
pub fn evaluate_policy(policy: &LstmPolicy, sc: &Scenario, conds: &[Condition]) -> EvalReport {
    let mut reward_sum = 0.0f64;
    let mut met = 0usize;
    for cond in conds {
        let actions = greedy_rollout(policy, sc, cond);
        let r = sc.evaluate(cond, &actions);
        reward_sum += f64::from(r.reward);
        met += usize::from(r.met);
    }
    EvalReport {
        avg_reward: reward_sum / conds.len() as f64,
        compliance_pct: 100.0 * met as f64 / conds.len() as f64,
    }
}

/// Which validation conditions are achievable at all, determined by a
/// canonical-strategy sweep plus an evolutionary oracle (budgeted). Used
/// to *normalize* compliance as in Fig. 12 ("normalized by the highest
/// achievable compliance rate").
pub fn achievable_mask(sc: &Scenario, conds: &[Condition], budget_generations: usize) -> Vec<bool> {
    use murmuration_partition::{ExecutionPlan, UnitPlacement};
    use murmuration_supernet::SubnetSpec;

    // Canonical candidates: min/mid/max configs × (all-local, all on each
    // remote device, 2×2-partitioned spread). These catch the common
    // feasible cases cheaply and make the oracle robust.
    let mut configs = vec![sc.space.min_config(), sc.space.max_config()];
    let mut mid = sc.space.min_config();
    mid.resolution = sc.space.resolutions[sc.space.resolutions.len() / 2];
    for s in &mut mid.stages {
        s.depth = sc.space.depths[sc.space.depths.len() / 2];
    }
    configs.push(mid);
    let mut partitioned = sc.space.min_config();
    for s in &mut partitioned.stages {
        s.partition = murmuration_tensor::tile::GridSpec::new(2, 2);
        s.quant = murmuration_tensor::quant::BitWidth::B8;
    }
    configs.push(partitioned.clone());
    let mut partitioned_max = sc.space.max_config();
    for s in &mut partitioned_max.stages {
        s.partition = murmuration_tensor::tile::GridSpec::new(2, 2);
        s.quant = murmuration_tensor::quant::BitWidth::B8;
    }
    configs.push(partitioned_max);

    conds
        .iter()
        .enumerate()
        .map(|(i, cond)| {
            let net = sc.network(cond);
            let est = murmuration_partition::LatencyEstimator::new(&sc.devices, &net);
            let acc_model = sc.accuracy_model;
            let meets = |cfg: &murmuration_supernet::SubnetConfig, plan: &ExecutionPlan| -> bool {
                let spec = SubnetSpec::lower(cfg);
                if plan.validate(&spec, sc.devices.len()).is_err() {
                    return false;
                }
                let lat = est.estimate(&spec, plan).total_ms;
                sc.reward(cond, lat, acc_model.predict(cfg)).1
            };
            // Canonical sweep.
            for cfg in &configs {
                let spec = SubnetSpec::lower(cfg);
                let mut plans = vec![ExecutionPlan::all_on(&spec, 0)];
                for d in 1..sc.devices.len() {
                    plans.push(ExecutionPlan::all_on(&spec, d));
                }
                plans.push(ExecutionPlan::spread(&spec, sc.devices.len()));
                // Spread with the head on the strongest remote device.
                let mut spread_remote = ExecutionPlan::spread(&spec, sc.devices.len());
                if sc.devices.len() > 1 {
                    if let Some(p) = spread_remote.placements.last_mut() {
                        *p = UnitPlacement::Single(1);
                    }
                }
                plans.push(spread_remote);
                // Layer-wise splits: first `u` units local, the rest on one
                // remote device (Neurosurgeon-style, with quantized wire).
                for d in 1..sc.devices.len() {
                    for u in 1..spec.units.len() {
                        let placements = (0..spec.units.len())
                            .map(|i| UnitPlacement::Single(if i < u { 0 } else { d }))
                            .collect();
                        plans.push(ExecutionPlan { placements });
                    }
                }
                if plans.iter().any(|p| meets(cfg, p)) {
                    return true;
                }
            }
            // Evolutionary fallback.
            let result = evolutionary::search(
                &sc.space,
                sc.devices.len(),
                16,
                budget_generations,
                1000 + i as u64,
                |cfg, plan| {
                    let spec = SubnetSpec::lower(cfg);
                    let lat = est.estimate(&spec, plan).total_ms;
                    let acc = acc_model.predict(cfg);
                    let (r, met) = sc.reward(cond, lat, acc);
                    if met {
                        1.0 + f64::from(r)
                    } else {
                        // Shaped: closer-to-feasible scores higher.
                        match sc.slo_kind {
                            crate::env::SloKind::Latency => -(lat - cond.slo) / cond.slo,
                            crate::env::SloKind::Accuracy => f64::from(acc) - cond.slo,
                        }
                    }
                },
            );
            result.best_score >= 1.0
        })
        .collect()
}

/// Compliance normalized by the achievable subset.
pub fn normalized_compliance(
    policy: &LstmPolicy,
    sc: &Scenario,
    conds: &[Condition],
    achievable: &[bool],
) -> f64 {
    let achievable_count = achievable.iter().filter(|&&a| a).count();
    if achievable_count == 0 {
        return 0.0;
    }
    let mut met = 0usize;
    for (cond, &ok) in conds.iter().zip(achievable) {
        if !ok {
            continue;
        }
        let actions = greedy_rollout(policy, sc, cond);
        met += usize::from(sc.evaluate(cond, &actions).met);
    }
    // The oracle is budgeted, so a strong policy can in principle exceed
    // it; clamp to keep the normalized rate a rate.
    (100.0 * met as f64 / achievable_count as f64).min(100.0)
}

/// Extracts the accuracy/latency Pareto frontier from a set of outcomes:
/// points no other point dominates (higher accuracy *and* lower latency).
/// Returned sorted by latency ascending — the curve Figs. 13–15 trace.
pub fn pareto_frontier(points: &[(f64, f32)]) -> Vec<(f64, f32)> {
    // (latency_ms, accuracy_pct)
    let mut sorted: Vec<(f64, f32)> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            // Ties in latency: keep the higher accuracy first.
            .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
    });
    let mut front: Vec<(f64, f32)> = Vec::new();
    let mut best_acc = f32::MIN;
    for p in sorted {
        if p.1 > best_acc {
            best_acc = p.1;
            front.push(p);
        }
    }
    front
}

/// The policy's accuracy/latency Pareto frontier over a condition set
/// (each greedy decision contributes one point).
pub fn policy_pareto(policy: &LstmPolicy, sc: &Scenario, conds: &[Condition]) -> Vec<(f64, f32)> {
    let points: Vec<(f64, f32)> = conds
        .iter()
        .map(|cond| {
            let actions = greedy_rollout(policy, sc, cond);
            let r = sc.evaluate(cond, &actions);
            (r.latency_ms, r.accuracy_pct)
        })
        .collect();
    pareto_frontier(&points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SloKind;
    use crate::policy::LstmPolicy;

    #[test]
    fn validation_conditions_are_deterministic_and_diverse() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let a = validation_conditions(&sc, 30);
        let b = validation_conditions(&sc, 30);
        assert_eq!(a.len(), 30);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        // SLO values span the range.
        let min = a.iter().map(|c| c.slo).fold(f64::MAX, f64::min);
        let max = a.iter().map(|c| c.slo).fold(f64::MIN, f64::max);
        assert!(min < 120.0 && max > 350.0, "{min}..{max}");
    }

    #[test]
    fn untrained_policy_reports_finite_metrics() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        let conds = validation_conditions(&sc, 10);
        let r = evaluate_policy(&policy, &sc, &conds);
        assert!(r.avg_reward.is_finite());
        assert!((0.0..=100.0).contains(&r.compliance_pct));
    }

    #[test]
    fn pareto_keeps_only_non_dominated_points() {
        let pts = vec![
            (100.0, 75.0f32),
            (120.0, 74.0), // dominated: slower AND less accurate
            (150.0, 78.0),
            (150.0, 77.0), // dominated by the 78 at same latency
            (80.0, 72.0),
            (200.0, 78.0), // dominated: same accuracy, slower
        ];
        let front = pareto_frontier(&pts);
        assert_eq!(front, vec![(80.0, 72.0), (100.0, 75.0), (150.0, 78.0)]);
        // Frontier is monotone in both coordinates.
        for w in front.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn policy_pareto_is_well_formed() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        let conds = validation_conditions(&sc, 12);
        let front = policy_pareto(&policy, &sc, &conds);
        assert!(!front.is_empty() && front.len() <= 12);
        for w in front.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn loose_conditions_are_achievable() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        // The loosest condition (400 ms SLO, 400 Mbps, 5 ms) must be
        // achievable even with a tiny oracle budget.
        let cond = sc.condition_from_indices(9, &[9], &[0]);
        let mask = achievable_mask(&sc, &[cond], 4);
        assert!(mask[0]);
    }
}
