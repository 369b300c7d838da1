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
//! * [`proto`] — the peer protocol with no clock, thread or lock: the
//!   client's per-link [`proto::Peer`] (phase, jittered backoff, dead-peer
//!   declaration, heartbeats, in-flight window, deadlines, resend after
//!   reconnect) and the worker's [`proto::Jobs`] (`(session, request id)`
//!   at-most-once dedup), stepped with explicit instants.
//! * [`aclient`] — [`AsyncTcpTransport`], the coordinator side: drives one
//!   [`proto::Peer`] per worker from the event loop and the executor's
//!   threads. Implements `murmuration_core::transport::Transport`, so the
//!   executor, the runtime, and the serve layer work unchanged over it.
//! * [`aworker`] — the worker side: [`AsyncWorkerServer`] hosts one
//!   device's `UnitCompute` behind a listener, dedup in a
//!   [`proto::Jobs`]; [`SwarmWorkerHost`] hosts a thousand of them on one
//!   driver pool.
//! * [`swarm`] — [`run_swarm`], the in-process fleet-scale harness.
//! * [`chaos`] — [`ChaosProxy`], a deterministic seeded TCP chaos proxy
//!   (delay, drop, corrupt, reorder, full partition) for the socket-level
//!   fault suite.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

pub mod aclient;
pub mod aworker;
pub mod chaos;
pub mod driver;
pub mod frame;
pub mod poller;
pub mod proto;
pub mod swarm;
pub mod sys;

/// Locks a mutex, recovering from poisoning: a panicked holder cannot
/// corrupt the state behind these locks, every critical section leaves it
/// consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cond` for at most `ms` milliseconds, recovering from
/// poisoning like [`lock`].
fn wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>, ms: u64) -> MutexGuard<'a, T> {
    cond.wait_timeout(guard, Duration::from_millis(ms)).unwrap_or_else(PoisonError::into_inner).0
}

pub use aclient::{AsyncTcpTransport, AsyncTcpTransportConfig, TcpTransportConfig};
pub use aworker::{AsyncWorkerServer, SwarmHostConfig, SwarmWorkerHost, WorkerConfig};
pub use chaos::{ChaosConfig, ChaosDirection, ChaosProxy};
pub use swarm::{run_swarm, SwarmConfig, SwarmReport};
