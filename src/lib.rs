//! # Murmuration
//!
//! A Rust reproduction of *Murmuration: On-the-fly DNN Adaptation for
//! SLO-Aware Distributed Inference in Dynamic Edge Environments*
//! (Lin, Li, Zhang, Leon-Garcia — ICPP '24).
//!
//! Murmuration jointly adapts the **DNN architecture** (a submodel of a
//! partition-ready one-shot-NAS supernet) and the **partitioning/placement
//! strategy** across edge devices, at runtime, to meet user latency or
//! accuracy SLOs under dynamic network conditions.
//!
//! ## Crate map
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`tensor`] | NCHW kernels: parallel GEMM, conv, FDSP tiling, quantization |
//! | [`nn`] | Trainable layers (forward + backward), optimizers, losses |
//! | [`models`] | Per-layer specs of the five baseline CNNs |
//! | [`supernet`] | Search space, subnet lowering, accuracy models, elastic weight sharing |
//! | [`edgesim`] | Device profiles, shaped links, traces, DES engine |
//! | [`partition`] | Plans, latency estimator, Neurosurgeon/ADCNN/evolutionary baselines |
//! | [`rl`] | LSTM policy, PPO, GCSL, and the SUPREME training algorithm |
//! | [`runtime`] | The online stage: monitoring, prediction, caching, reconfig, executor |
//! | [`transport`] | TCP remote-worker transport: supervised connections, heartbeats, resend dedup, chaos proxy |
//! | [`serve`] | SLO-class request serving: admission control, priority queues, micro-batching |
//!
//! ## Quickstart
//!
//! ```no_run
//! use murmuration::prelude::*;
//!
//! // Train a (small) SUPREME policy for the augmented-computing scenario.
//! let scenario = Scenario::augmented_computing(SloKind::Latency);
//! let cfg = SupremeConfig { steps: 500, ..Default::default() };
//! let (policy, history) = murmuration::rl::supreme::train(&scenario, &cfg);
//! println!("final avg reward: {:.3}", history.final_reward());
//!
//! // Stand up the runtime and serve a request under live conditions.
//! let rt = SharedRuntime::new(scenario, policy, RuntimeConfig::default(), Slo::LatencyMs(140.0));
//! let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: 200.0, delay_ms: 10.0 });
//! let mut rng = rand::thread_rng();
//! let report = rt.infer(&net, 0.0, &mut rng);
//! println!("latency {:.1} ms, accuracy {:.1} %, met: {}", report.latency_ms,
//!          report.accuracy_pct, report.slo_met);
//! ```

pub use murmuration_core as runtime;
pub use murmuration_edgesim as edgesim;
pub use murmuration_models as models;
pub use murmuration_nn as nn;
pub use murmuration_partition as partition;
pub use murmuration_rl as rl;
pub use murmuration_serve as serve;
pub use murmuration_supernet as supernet;
pub use murmuration_tensor as tensor;
pub use murmuration_transport as transport;

pub mod testkit;

/// The most common imports in one place.
pub mod prelude {
    pub use murmuration_core::{RuntimeConfig, SharedRuntime};
    pub use murmuration_edgesim::{Device, DeviceKind, LinkState, NetworkState, TrafficControl};
    pub use murmuration_partition::compliance::{Outcome, Slo};
    pub use murmuration_partition::{ExecutionPlan, LatencyEstimator, UnitPlacement};
    pub use murmuration_rl::supreme::SupremeConfig;
    pub use murmuration_rl::{Condition, LstmPolicy, Scenario, SloKind};
    pub use murmuration_supernet::{AccuracyModel, SearchSpace, SubnetConfig, SubnetSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_types_are_reachable() {
        use crate::prelude::*;
        let sc = Scenario::augmented_computing(SloKind::Latency);
        assert_eq!(sc.devices.len(), 2);
        let space = SearchSpace::default();
        assert!(space.cardinality() > 0);
    }
}
