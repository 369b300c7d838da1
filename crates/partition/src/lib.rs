//! # murmuration-partition
//!
//! Execution planning and latency estimation for distributed DNN inference,
//! plus every baseline the paper compares against:
//!
//! * [`plan`] — [`plan::ExecutionPlan`]: per-unit placements (single device
//!   or FDSP tiles across devices) with validity checking.
//! * [`estimator`] — the latency model: per-device compute timelines plus a
//!   star-topology redistribution model shared by *all* methods, so
//!   comparisons are apples-to-apples.
//! * [`neurosurgeon`] — optimal two-device layer-wise split (Kang et al.,
//!   ASPLOS '17), exhaustive over legal cut points (provably optimal for
//!   the 2-device case, verified by a brute-force property test).
//! * [`adcnn`] — FDSP spatial partitioning across N devices (Zhang et al.,
//!   ICPP '20) with per-segment scatter/gather accounting.
//! * [`single`] — single-device execution baselines.
//! * [`evolutionary`] — evolutionary joint search over subnet config and
//!   placement (the paper's Fig. 18 search-time baseline).
//! * [`compliance`] — SLO compliance-rate computation over condition grids.

pub mod adcnn;
pub mod beam;
pub mod compliance;
pub mod des_sim;
pub mod estimator;
pub mod evolutionary;
pub mod neurosurgeon;
pub mod pipeline;
pub mod plan;
pub mod single;

pub use estimator::{LatencyBreakdown, LatencyEstimator};
pub use pipeline::{PipelinePlan, PipelineStage, StageCost, ThroughputReport};
pub use plan::{ExecutionPlan, UnitPlacement};
