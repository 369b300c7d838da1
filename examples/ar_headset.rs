//! Augmented-computing walk-through (the paper's AR/VR motivating case):
//! a Raspberry Pi 4 "headset" paired with a desktop GPU, latency SLO
//! 140 ms. Compares Murmuration's adaptive strategy against Neurosurgeon
//! and ADCNN with fixed models, across bandwidths — a miniature Fig. 13.
//!
//! Run with: `cargo run --release --example ar_headset`

use murmuration::edgesim::device::augmented_computing_devices;
use murmuration::models::zoo::BaselineModel;
use murmuration::partition::{adcnn, neurosurgeon, single};
use murmuration::prelude::*;
use murmuration::rl::env::greedy_rollout;
use murmuration::rl::supreme::{self, SupremeConfig};

const SLO_MS: f64 = 140.0;

fn main() {
    let devices = augmented_computing_devices();
    let scenario = Scenario::augmented_computing(SloKind::Latency);

    println!("training Murmuration policy (1000 episodes)…");
    let (policy, _) = supreme::train(
        &scenario,
        &SupremeConfig { steps: 1000, eval_every: 500, ..Default::default() },
    );

    println!("\nlatency SLO = {SLO_MS} ms, network delay = 25 ms");
    println!("{:>9} | {:>28} | {:>14} | {:>10}", "bw Mbps", "method", "latency ms", "acc %");
    for bw in [50.0, 100.0, 200.0, 300.0, 400.0] {
        let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: bw, delay_ms: 25.0 });
        println!("{}", "-".repeat(72));

        // Baselines: Neurosurgeon and ADCNN with fixed models.
        for model_id in [BaselineModel::MobileNetV3Large, BaselineModel::ResNet50] {
            let model = model_id.spec();
            let ns = neurosurgeon::plan(&model, &devices, &net);
            print_row(bw, &format!("Neurosurgeon+{}", model_id.label()), ns.latency_ms, model.top1);
            let ad = adcnn::plan(&model, &devices, &net);
            print_row(
                bw,
                &format!("ADCNN+{}", model_id.label()),
                ad.latency_ms,
                adcnn::adcnn_accuracy(&model),
            );
        }
        // A heavyweight baseline for contrast.
        let big = BaselineModel::ResNeXt101.spec();
        let local = single::single_device_latency_ms(&big, &devices[0], &net);
        print_row(bw, "Single-device Resnext101", local, big.top1);

        // Murmuration: adapts model + partitioning to the conditions.
        let cond = Condition { slo: SLO_MS, bw_mbps: vec![bw], delay_ms: vec![25.0] };
        let actions = greedy_rollout(&policy, &scenario, &cond);
        let r = scenario.evaluate(&cond, &actions);
        print_row(bw, "Murmuration (ours)", r.latency_ms, r.accuracy_pct);
    }
    println!(
        "\nA row satisfies the SLO when its latency is at most {SLO_MS} ms; Murmuration \
         trades accuracy for latency only when the network forces it."
    );
}

fn print_row(bw: f64, method: &str, latency_ms: f64, acc: f32) {
    let met = if latency_ms <= SLO_MS { "✓" } else { " " };
    println!("{bw:>9.0} | {method:>28} | {latency_ms:>12.1} {met} | {acc:>10.2}");
}
