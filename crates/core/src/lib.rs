//! # murmuration-core
//!
//! Stage 3 of Murmuration: the online runtime (paper §5, Fig. 10).
//!
//! * [`slo`] — the SLO API: applications set a latency or accuracy target
//!   as a scalar, thread-safe.
//! * [`monitor`] — the Network Monitoring module: samples per-link
//!   bandwidth/delay with observation noise and EWMA smoothing, keeping a
//!   sliding history window.
//! * [`predictor`] — the Monitoring-data Predictor: per-link linear
//!   regression over the history window, forecasting short-term network
//!   conditions so strategies can be precomputed.
//! * [`cache`] — the Strategy Cache: memoizes (SLO, network-condition
//!   bucket) → (model selection + partition strategy), with hit statistics.
//! * [`decision`] — the Model Selection and Partition Decision module:
//!   runs the trained RL policy greedily (through the cache) on real or
//!   predicted conditions.
//! * [`reconfig`] — Model Reconfig: the in-memory supernet whose submodel
//!   switch is a pointer-level reconfiguration (no weight copies), versus
//!   the weight-reload path other systems pay (Fig. 19).
//! * [`executor`] — the distributed Executor/Scheduler: the coordinator
//!   that drives device workers through a [`transport::Transport`],
//!   executing real tensor computation with FDSP tile scatter/gather and
//!   byte-level wire frames.
//! * [`transport`] — the transport abstraction behind the executor: the
//!   [`transport::Transport`] trait plus the in-process channel
//!   implementation; the TCP remote-worker implementation lives in the
//!   `murmuration-transport` crate.
//! * [`wire`] — the framing protocol those channels carry: packed 8/16-bit
//!   quantized payloads whose sizes match the latency model's accounting.
//! * [`scheduler`] — translates a decided (spec, plan) into the executor's
//!   per-unit dispatch table (grids + wire precisions).
//! * [`fault`] — fault injection ([`fault::FaultyCompute`]): kill, stall,
//!   panic, or slow any device's worker to exercise the recovery paths.
//! * [`fleet`] — the fleet view: liveness, graded gray health, routing
//!   penalties and peer reputation as one clockless state machine, read
//!   by every decision as one snapshot.
//! * [`health`] — the gray-failure vocabulary: robust latency trackers,
//!   the graded `HealthState` and its thresholds.
//! * [`gossip`] — the decentralized control plane: SWIM-style gossip
//!   membership, reputation-weighted trimmed aggregation of peer health
//!   reports, and the deterministic primary-coordinator ranking that
//!   failover leans on.
//! * [`runtime`] — the per-request adaptation loop tying it all together.

pub mod cache;
pub mod decision;
pub mod executor;
pub mod fault;
pub mod fleet;
pub mod gossip;
pub mod health;
pub mod monitor;
pub mod predictor;
pub mod reconfig;
pub mod runtime;
pub mod scheduler;
pub mod slo;
pub mod transport;
pub mod wire;

pub use runtime::{
    Degradation, DeployReport, PipelineDeploy, RequestReport, RuntimeConfig, ServeDecision,
    SharedRuntime,
};
