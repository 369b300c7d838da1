//! # murmuration-bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (`cargo run -p murmuration-bench --release --bin figNN`), plus the
//! `bench_*` gates.
//!
//! Every artifact goes through [`emit`] into `target/results/` under the
//! working directory; nothing here rewrites the checked-in `results/`. To
//! bless an artifact, copy it from `target/results/` to `results/`.
//! Figure binaries also print their series as CSV to stdout. Budgets
//! (training steps, seeds) are configurable
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
use murmuration_serve::schema;
use std::path::{Path, PathBuf};

/// Where [`emit`] writes, relative to the working directory.
const OUT_DIR: &str = "target/results";

/// RL training episodes for figure runs.
pub fn steps_budget() -> usize {
    std::env::var("MURMURATION_STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(4000)
}

/// Seeds for multi-seed training figures.
pub fn seeds_budget() -> usize {
    std::env::var("MURMURATION_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

/// Writes one bench or figure artifact to `target/results/<name>` and
/// reports the outcome on stderr. A `.json` body must parse and carry
/// every key `serve::schema::required_keys_for(name)` declares (an
/// unregistered report name is refused too); a refused body writes
/// nothing. Gate binaries fail when this returns `Err`.
pub fn emit(name: &str, body: &str) -> Result<PathBuf, String> {
    let out = emit_to(Path::new(OUT_DIR), name, body);
    match &out {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("REPORT REFUSED: {e}"),
    }
    out
}

/// `emit` into `dir` instead of `OUT_DIR`, without the stderr line.
fn emit_to(dir: &Path, name: &str, body: &str) -> Result<PathBuf, String> {
    if name.ends_with(".json") {
        let required = schema::required_keys_for(name)
            .ok_or_else(|| format!("{name} has no schema in serve::schema::required_keys_for"))?;
        let doc = schema::parse(body).map_err(|e| format!("{name} does not parse: {e}"))?;
        let gaps = schema::missing_keys(&doc, &required);
        if !gaps.is_empty() {
            return Err(format!("{name} is missing required keys {gaps:?}"));
        }
    }
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok(path)
}

/// A CSV sink: each row goes to stdout at once, and the whole table to
/// [`emit`] when the sink drops.
pub struct CsvOut {
    name: String,
    body: String,
}

impl CsvOut {
    /// Opens the sink for `<name>.csv`.
    pub fn new(name: &str) -> Self {
        CsvOut { name: format!("{name}.csv"), body: String::new() }
    }

    /// Writes one CSV row to both sinks.
    pub fn row(&mut self, line: &str) {
        println!("{line}");
        self.body.push_str(line);
        self.body.push('\n');
    }
}

impl Drop for CsvOut {
    fn drop(&mut self) {
        let _ = emit(&self.name, &self.body);
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
    fn emit_refuses_an_incomplete_report_and_writes_the_rest() {
        let dir = std::env::temp_dir().join(format!("murmuration-emit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let incomplete = r#"{"failover": {"recovery_ratio": 1.0}}"#;
        assert!(emit_to(&dir, "BENCH_failover.json", incomplete).is_err());
        assert!(emit_to(&dir, "BENCH_unregistered.json", "{}").is_err());
        assert!(!dir.exists(), "a refused report must write nothing");

        let kernels = r#"{"benchmarks": {}, "threads": 1}"#;
        let json = emit_to(&dir, "BENCH_kernels.json", kernels).unwrap();
        let csv = emit_to(&dir, "fig_test.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(json, dir.join("BENCH_kernels.json"));
        assert_eq!(std::fs::read_to_string(&json).unwrap(), kernels);
        assert_eq!(std::fs::read_to_string(&csv).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
