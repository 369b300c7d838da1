//! # murmuration-serve
//!
//! The SLO-class request serving layer over the Murmuration runtime: the
//! piece that turns the paper's per-request adaptation loop into a
//! multi-tenant server that keeps its promises under overload.
//!
//! The paper evaluates one request at a time; a deployed edge node sees a
//! *stream* of requests with different SLOs, and a dynamic environment
//! besides. This crate adds the three mechanisms that matter at that
//! point, all on top of [`SharedRuntime`]'s lock-scoped request path:
//!
//! * **SLO classes & priority dispatch** ([`class`], `queue`) — requests
//!   are tagged with a class (latency deadline or accuracy floor); each
//!   class gets a bounded queue, and workers drain in class-priority
//!   order, so interactive traffic never queues behind best-effort bulk.
//! * **Admission control & load shedding** ([`server`]) — a full queue or
//!   an EWMA-predicted unmeetable deadline rejects at submit time with a
//!   typed reason; requests whose deadline expires while queued are shed
//!   at dispatch. Under overload the server degrades into *choosing* what
//!   it fails, instead of failing everything late.
//! * **Adaptive micro-batching** ([`server`]) — same-class requests
//!   coalesce into one decision + one supernet switch; only the marginal
//!   compute serializes, so batching multiplies capacity under load while
//!   a lone request still takes the idle fast path at direct-infer cost.
//!
//! * **Coordinator failover** ([`failover`]) — a standby coordinator
//!   follows the fleet through gossip and takes over mid-load when the
//!   primary's heartbeats lapse; dropped requests fail over as retries
//!   and conservation is restored at the cluster level.
//!
//! The [`harness`] module drives it: open-loop trace replay (honest
//! overload measurement), closed-loop clients, and percentile/goodput
//! reports. `cli serve` / `cli loadtest` and `bench_serve` are thin
//! wrappers around it.
//!
//! The [`campaign`] module is the regression surface: it replays the
//! declarative chaos scenarios from `edgesim::scenario` against a grid of
//! partition policy × bit-width × serving mode in deterministic virtual
//! time and emits per-scenario Pareto fronts; [`schema`] validates the
//! resulting report files' shape in CI.
//!
//! [`SharedRuntime`]: murmuration_core::SharedRuntime

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod campaign;
pub mod class;
pub mod failover;
pub mod harness;
pub mod pipeline;
mod queue;
pub mod request;
pub mod schema;
pub mod server;

pub use campaign::{
    full_grid, run_campaign, run_cell, run_scenario, smoke_grid, CampaignConfig, CampaignResult,
    CellResult, GridCell, PartitionPolicy, QuantPolicy, ScenarioResult, ServingMode,
};
pub use class::{default_classes, ClassKind, ClassSpec};
pub use failover::{ClusterStats, CoordinatorSpec, FailoverCluster, FailoverConfig, PendingServe};
pub use harness::{run_closed_loop, run_open_loop, ClassReport, LoadReport};
pub use pipeline::{PipelineSnapshot, StageSnapshot};
pub use request::{Completion, RejectReason, Rejection, ServeOutcome};
pub use server::{Clock, EnvModel, ServeConfig, ServeHandle, ServeStats};
