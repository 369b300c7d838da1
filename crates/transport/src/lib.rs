//! # murmuration-transport
//!
//! Real TCP transport for the distributed executor: the wire-v3 frames
//! (`core::wire`, lane-FNV-1a checksummed) that `murmuration-core`
//! round-trips through its in-process channels, carried over actual
//! `std::net` sockets that can fail.
//!
//! * [`frame`] — the outer socket framing: length-delimited, checksummed
//!   messages (hello / request / response / heartbeat / goodbye / cancel /
//!   gossip) and the incremental [`frame::FrameAssembler`] that decodes
//!   them from non-blocking reads.
//! * [`sys`], [`poller`] and [`driver`] — readiness polling (epoll on
//!   Linux) and the [`driver::DriverPool`] event loops that run every
//!   connection's protocol entity on at most one thread per core.
//! * [`aclient`] — [`AsyncTcpTransport`], the coordinator side: one
//!   supervised connection per worker with heartbeats, dead-peer
//!   detection, jittered-backoff reconnect, request-id correlation,
//!   bounded in-flight backpressure, and graceful drain. Implements
//!   `murmuration_core::transport::Transport`, so the executor, the
//!   runtime, and the serve layer work unchanged over it.
//! * [`aworker`] — the worker side: [`AsyncWorkerServer`] hosts one
//!   device's `UnitCompute` behind a listener with at-most-once resend
//!   dedup keyed by `(session, request id)`; [`SwarmWorkerHost`] hosts a
//!   thousand of them on one driver pool.
//! * [`swarm`] — [`run_swarm`], the in-process fleet-scale harness.
//! * [`chaos`] — [`ChaosProxy`], a deterministic seeded TCP chaos proxy
//!   (delay, drop, corrupt, reorder, full partition) for the socket-level
//!   fault suite.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod aclient;
pub mod aworker;
pub mod chaos;
pub mod driver;
pub mod frame;
pub mod poller;
pub mod swarm;
pub mod sys;

pub use aclient::{AsyncTcpTransport, AsyncTcpTransportConfig, TcpTransportConfig};
pub use aworker::{AsyncWorkerServer, SwarmHostConfig, SwarmWorkerHost, WorkerConfig};
pub use chaos::{ChaosConfig, ChaosDirection, ChaosProxy};
pub use swarm::{run_swarm, SwarmConfig, SwarmReport};
