//! Quickstart: train a small SUPREME policy, stand up the runtime, serve
//! requests under changing network conditions.
//!
//! Run with: `cargo run --release --example quickstart`

use murmuration::prelude::*;
use murmuration::rl::supreme::{self, SupremeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Scenario: a Raspberry Pi 4 headset paired with a desktop GPU,
    //    latency-SLO mode.
    let scenario = Scenario::augmented_computing(SloKind::Latency);
    println!(
        "scenario: {} devices, search space of {} configurations",
        scenario.devices.len(),
        scenario.space.cardinality()
    );

    // 2. Stage 2 (offline): train the RL policy with SUPREME. This small
    //    budget is enough to see the behaviour; the benches use more.
    println!("training SUPREME policy (800 episodes)…");
    let cfg = SupremeConfig { steps: 800, eval_every: 200, ..Default::default() };
    let (policy, history) = supreme::train(&scenario, &cfg);
    for (step, report) in &history.points {
        println!(
            "  step {step:>5}: avg reward {:.3}, compliance {:.1} %",
            report.avg_reward, report.compliance_pct
        );
    }

    // 3. Stage 3 (online): the runtime — monitoring, strategy cache,
    //    in-memory supernet reconfig.
    let rt = SharedRuntime::new(scenario, policy, RuntimeConfig::default(), Slo::LatencyMs(140.0));
    let mut rng = StdRng::seed_from_u64(7);

    println!("\nserving requests as the network degrades:");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>10} {:>7} {:>7}",
        "bw Mbps", "delay ms", "lat ms", "accuracy %", "decide µs", "cached", "met"
    );
    for (bw, delay) in
        [(400.0, 5.0), (400.0, 5.0), (200.0, 20.0), (100.0, 40.0), (60.0, 80.0), (60.0, 80.0)]
    {
        let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: bw, delay_ms: delay });
        let report = rt.infer(&net, 0.0, &mut rng);
        println!(
            "{bw:>8.0} {delay:>10.0} {:>10.1} {:>12.2} {:>10.0} {:>7} {:>7}",
            report.latency_ms,
            report.accuracy_pct,
            report.decision_time.as_micros(),
            report.cached,
            report.slo_met
        );
    }
    let stats = rt.cache_stats();
    println!("\nstrategy cache: {} hits / {} misses", stats.hits, stats.misses);
}
