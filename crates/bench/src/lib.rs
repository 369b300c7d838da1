//! # murmuration-bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (`cargo run -p murmuration-bench --release --bin figNN`), plus Criterion
//! micro-benchmarks (`cargo bench`).
//!
//! Every binary prints its series as CSV to stdout and mirrors it to
//! `results/<name>.csv`. Budgets (training steps, seeds) are configurable
//! through environment variables so the full paper-scale run and a quick
//! smoke run share the same code:
//!
//! * `MURMURATION_STEPS` — RL training episodes (default 4000)
//! * `MURMURATION_SEEDS` — training seeds (default 2)

use murmuration_edgesim::{Device, LinkState, NetworkState};
use murmuration_models::zoo::BaselineModel;
use murmuration_partition::compliance::Outcome;
use murmuration_partition::{adcnn, neurosurgeon};
use murmuration_rl::env::greedy_rollout;
use murmuration_rl::supreme::{self, SupremeConfig};
use murmuration_rl::{Condition, LstmPolicy, Scenario};
use std::io::Write;
use std::path::PathBuf;

/// RL training episodes for figure runs.
pub fn steps_budget() -> usize {
    std::env::var("MURMURATION_STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(4000)
}

/// Seeds for multi-seed training figures.
pub fn seeds_budget() -> usize {
    std::env::var("MURMURATION_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

/// A CSV sink writing to stdout and `results/<name>.csv`.
pub struct CsvOut {
    file: Option<std::fs::File>,
}

impl CsvOut {
    /// Opens the sink (the results directory is created on demand).
    pub fn new(name: &str) -> Self {
        let dir = PathBuf::from("results");
        let file = std::fs::create_dir_all(&dir)
            .ok()
            .and_then(|_| std::fs::File::create(dir.join(format!("{name}.csv"))).ok());
        CsvOut { file }
    }

    /// Writes one CSV row to both sinks.
    pub fn row(&mut self, line: &str) {
        println!("{line}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Trains the Murmuration policy used by the deployment figures, reusing
/// a cached policy from `results/policies/` when one exists for the same
/// (scenario shape, steps, seed) — Stage 2 runs once, not per figure.
pub fn train_policy(sc: &Scenario, steps: usize, seed: u64) -> LstmPolicy {
    let tag = format!("{}dev_{:?}_{steps}steps_seed{seed}", sc.devices.len(), sc.slo_kind);
    let dir = PathBuf::from("results/policies");
    let path = dir.join(format!("{tag}.bin"));
    if let Ok(policy) = murmuration_rl::serialize::load_policy(&path) {
        if policy.input_dim == sc.input_dim() {
            eprintln!("loaded cached policy {}", path.display());
            return policy;
        }
    }
    let (mut policy, _) =
        supreme::train(sc, &SupremeConfig { steps, eval_every: steps, seed, ..Default::default() });
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = murmuration_rl::serialize::save_policy(&mut policy, &path);
    }
    policy
}

/// Murmuration's outcome under one condition: the estimator-guarded
/// decision (greedy policy checked against canonical fallbacks — what the
/// runtime's decision module deploys).
pub fn murmuration_outcome(policy: &LstmPolicy, sc: &Scenario, cond: &Condition) -> Outcome {
    let r = murmuration_rl::env::decide_guarded(policy, sc, cond);
    Outcome { latency_ms: r.latency_ms, accuracy_pct: r.accuracy_pct }
}

/// The raw greedy-policy outcome (no guard) — used to quantify what the
/// guard contributes.
pub fn murmuration_policy_only_outcome(
    policy: &LstmPolicy,
    sc: &Scenario,
    cond: &Condition,
) -> Outcome {
    let r = sc.evaluate(cond, &greedy_rollout(policy, sc, cond));
    Outcome { latency_ms: r.latency_ms, accuracy_pct: r.accuracy_pct }
}

/// One fixed-model baseline method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineMethod {
    Neurosurgeon(BaselineModel),
    Adcnn(BaselineModel),
}

impl BaselineMethod {
    /// Paper-legend label, e.g. `"Neurosurgeon+MobileNetV3"`.
    pub fn label(&self) -> String {
        match self {
            BaselineMethod::Neurosurgeon(m) => format!("Neurosurgeon+{}", m.label()),
            BaselineMethod::Adcnn(m) => format!("ADCNN+{}", m.label()),
        }
    }

    /// Outcome under the given devices/network.
    pub fn outcome(&self, devices: &[Device], net: &NetworkState) -> Outcome {
        match self {
            BaselineMethod::Neurosurgeon(m) => {
                let model = m.spec();
                let p = neurosurgeon::plan(&model, devices, net);
                Outcome { latency_ms: p.latency_ms, accuracy_pct: model.top1 }
            }
            BaselineMethod::Adcnn(m) => {
                let model = m.spec();
                let p = adcnn::plan(&model, devices, net);
                Outcome { latency_ms: p.latency_ms, accuracy_pct: adcnn::adcnn_accuracy(&model) }
            }
        }
    }
}

/// The Fig. 13 baseline set (augmented computing).
pub fn fig13_baselines() -> Vec<BaselineMethod> {
    vec![
        BaselineMethod::Neurosurgeon(BaselineModel::MobileNetV3Large),
        BaselineMethod::Neurosurgeon(BaselineModel::ResNet50),
        BaselineMethod::Neurosurgeon(BaselineModel::InceptionV3),
        BaselineMethod::Neurosurgeon(BaselineModel::DenseNet161),
        BaselineMethod::Neurosurgeon(BaselineModel::ResNeXt101),
        BaselineMethod::Adcnn(BaselineModel::MobileNetV3Large),
        BaselineMethod::Adcnn(BaselineModel::ResNet50),
    ]
}

/// The Fig. 14 baseline set (device swarm).
pub fn fig14_baselines() -> Vec<BaselineMethod> {
    vec![
        BaselineMethod::Adcnn(BaselineModel::MobileNetV3Large),
        BaselineMethod::Adcnn(BaselineModel::ResNet50),
        BaselineMethod::Adcnn(BaselineModel::DenseNet161),
        BaselineMethod::Adcnn(BaselineModel::ResNeXt101),
        BaselineMethod::Neurosurgeon(BaselineModel::MobileNetV3Large),
        BaselineMethod::Neurosurgeon(BaselineModel::ResNet50),
    ]
}

/// Uniform star network at (bw, delay).
pub fn uniform_net(n_remote: usize, bw: f64, delay: f64) -> NetworkState {
    NetworkState::uniform(n_remote, LinkState { bandwidth_mbps: bw, delay_ms: delay })
}

/// Renders a series as a unicode sparkline (for quick eyeballing of curve
/// shapes on stderr next to the CSV output).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_edgesim::device::augmented_computing_devices;

    #[test]
    fn baseline_methods_produce_outcomes() {
        let devices = augmented_computing_devices();
        let net = uniform_net(1, 200.0, 10.0);
        for m in fig13_baselines() {
            let o = m.outcome(&devices, &net);
            assert!(o.latency_ms > 0.0 && o.latency_ms.is_finite(), "{}", m.label());
            assert!((70.0..81.0).contains(&o.accuracy_pct));
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(
            BaselineMethod::Neurosurgeon(BaselineModel::ResNeXt101).label(),
            "Neurosurgeon+Resnext101"
        );
        assert_eq!(
            BaselineMethod::Adcnn(BaselineModel::MobileNetV3Large).label(),
            "ADCNN+MobileNetV3"
        );
    }

    #[test]
    fn budgets_have_defaults() {
        assert!(steps_budget() >= 1);
        assert!(seeds_budget() >= 1);
    }

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
        assert_eq!(sparkline(&[]), "");
        // Constant series renders without NaN panics.
        assert_eq!(sparkline(&[2.0, 2.0]).chars().count(), 2);
    }
}
