//! Figure 18: decision time — evolutionary search vs Murmuration's RL
//! policy, on the desktop and on a Raspberry Pi 4.
//!
//! Both procedures are measured as wall time on this host, then scaled to
//! each target device with its relative decision-compute factor (the Pi
//! runs the same code ~25–35× slower than a desktop; the paper measured
//! 778 s vs 50.7 s for evolutionary search and 1.05 s vs 0.03 s for RL,
//! i.e. factors of ~15 and ~35).
//!
//! Run: `cargo run -p murmuration-bench --release --bin fig18_search_time`

use murmuration_bench::{train_policy, CsvOut};
use murmuration_partition::evolutionary;
use murmuration_partition::LatencyEstimator;
use murmuration_rl::env::FallbackLadder;
use murmuration_rl::{Condition, Scenario, SloKind};
use murmuration_supernet::{AccuracyModel, SubnetSpec};
use std::time::Instant;

/// Decision-compute slowdown of a Pi 4 relative to the desktop.
const PI_FACTOR: f64 = 30.0;
/// Evolutionary budget comparable to OFA's search (pop 100 × ~250 gens).
const EVO_POP: usize = 100;
const EVO_GENS: usize = 250;

fn main() {
    let scenario = Scenario::augmented_computing(SloKind::Latency);
    eprintln!("training policy (small budget is fine for timing)…");
    let policy = train_policy(&scenario, 500, 0);
    let cond = Condition { slo: 140.0, bw_mbps: vec![200.0], delay_ms: vec![20.0] };

    // RL decision: what the runtime executes per cache miss — one greedy
    // rollout, then the guard re-pricing the ladder it lowered at start-up.
    let ladder = FallbackLadder::new(&scenario);
    let alive = vec![true; scenario.devices.len()];
    let _ = ladder.decide(&policy, &scenario, &cond, &alive); // packs the gate weights
    let t0 = Instant::now();
    let reps = 50;
    for _ in 0..reps {
        let _ = ladder.decide(&policy, &scenario, &cond, &alive);
    }
    let rl_host_s = t0.elapsed().as_secs_f64() / reps as f64;

    // Evolutionary search at OFA-like budget.
    let devices = scenario.devices.clone();
    let net = scenario.network(&cond);
    let est = LatencyEstimator::new(&devices, &net);
    let acc_model = AccuracyModel::new();
    let t0 = Instant::now();
    let result = evolutionary::search(&scenario.space, 2, EVO_POP, EVO_GENS, 3, |cfg, plan| {
        let spec = SubnetSpec::lower(cfg);
        let lat = est.estimate(&spec, plan).total_ms;
        if lat <= cond.slo {
            f64::from(acc_model.predict(cfg))
        } else {
            -lat
        }
    });
    let evo_host_s = t0.elapsed().as_secs_f64();

    let mut out = CsvOut::new("fig18_search_time");
    out.row("device,method,search_time_s,evaluations");
    out.row(&format!("desktop,Evolutionary search,{evo_host_s:.3},{}", result.evaluations));
    out.row(&format!("desktop,Murmuration RL,{rl_host_s:.5},1"));
    out.row(&format!(
        "raspberry_pi,Evolutionary search,{:.3},{}",
        evo_host_s * PI_FACTOR,
        result.evaluations
    ));
    out.row(&format!("raspberry_pi,Murmuration RL,{:.5},1", rl_host_s * PI_FACTOR));
    eprintln!(
        "paper shape: RL decision ~3 orders of magnitude faster than evolutionary \
         search on both devices (paper: 50.7 s vs 0.03 s GPU; 778 s vs 1.05 s Pi)"
    );
    eprintln!("ratio here: {:.0}x", evo_host_s / rl_host_s);
}
