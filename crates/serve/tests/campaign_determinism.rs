//! Property test for the campaign engine's replay contract: the same
//! scenario spec + the same master seed must produce *identical* load
//! counters across two independent runs — bit for bit, including the
//! full latency stream. This is what makes a `results/CAMPAIGN_*.json`
//! Pareto front reproducible from `(scenario name, seed)` alone, and
//! what lets a regression diff trust that a moved point is a real
//! behavior change rather than scheduler noise.

use murmuration_edgesim::scenario::builtin_matrix;
use murmuration_serve::campaign::{
    run_cell, CampaignConfig, GridCell, PartitionPolicy, QuantPolicy, ServingMode,
};
use proptest::prelude::*;

fn cell_from(p: usize, q: usize, m: usize) -> GridCell {
    GridCell {
        policy: [PartitionPolicy::Split, PartitionPolicy::NoSplit][p],
        quant: [QuantPolicy::Adaptive, QuantPolicy::Fixed32, QuantPolicy::Fixed8][q],
        mode: [ServingMode::Classic, ServingMode::Pipeline, ServingMode::Failover][m],
    }
}

#[test]
fn same_spec_and_seed_replays_bit_for_bit() {
    let specs = builtin_matrix();
    let n = specs.len();
    let mut runner = TestRunner::new(ProptestConfig { cases: 24 });
    runner
        .run(&(0usize..n, 0usize..2, 0usize..3, 0usize..3, 0u64..1_000), |(idx, p, q, m, seed)| {
            let spec = &specs[idx];
            let cell = cell_from(p, q, m);
            let cfg = CampaignConfig { master_seed: seed };
            let a = run_cell(spec, &cell, &cfg);
            let b = run_cell(spec, &cell, &cfg);
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            // The replay also pins the derived Pareto coordinates.
            prop_assert_eq!(a.p95_ms.to_bits(), b.p95_ms.to_bits());
            prop_assert_eq!(a.accuracy_pct.to_bits(), b.accuracy_pct.to_bits());
            prop_assert_eq!(a.goodput_rps.to_bits(), b.goodput_rps.to_bits());
            Ok(())
        })
        .unwrap();
}

/// The other half of the contract: the seed is load-bearing. If two
/// different master seeds produced identical fingerprints for a chaotic
/// scenario, the "seeded" axes would be decorative.
#[test]
fn different_seeds_usually_diverge() {
    let specs = builtin_matrix();
    let spec = specs.iter().find(|s| s.name == "kitchen-sink").expect("kitchen-sink exists");
    let cell = cell_from(0, 0, 0);
    let mut distinct = std::collections::HashSet::new();
    for seed in 0..8u64 {
        let cfg = CampaignConfig { master_seed: seed };
        distinct.insert(run_cell(spec, &cell, &cfg).fingerprint());
    }
    assert!(distinct.len() >= 7, "8 seeds produced only {} distinct runs", distinct.len());
}
