//! Shared test support for the chaos/integration suites.
//!
//! Every `tests/*_chaos.rs` suite used to carry its own copy of the same
//! three pieces of boilerplate: a watchdog wrapper (so a hung loop fails
//! the test instead of wedging CI), a seeded [`SharedRuntime`] factory,
//! and a virtual-time-scaled [`ServeConfig`]. This module is the single
//! home for all of them, plus the lowering from the scenario DSL's
//! [`GossipChaos`] axis onto the transport layer's [`ChaosConfig`], and
//! [`AddCompute`], a unit compute whose results are checkable wherever
//! the units ran.
//!
//! Only the top-level integration tests can use this module (per-crate
//! tests cannot depend on the facade without a cycle).
//!
//! [`SharedRuntime`]: murmuration_core::SharedRuntime
//! [`ServeConfig`]: murmuration_serve::ServeConfig
//! [`GossipChaos`]: murmuration_edgesim::scenario::GossipChaos
//! [`ChaosConfig`]: murmuration_transport::ChaosConfig

use murmuration_core::executor::{UnitCompute, UnitOutcome};
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::scenario::GossipChaos;
use murmuration_edgesim::LinkState;
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_serve::{default_classes, ServeConfig};
use murmuration_tensor::Tensor;
use murmuration_transport::ChaosConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default watchdog budget for a chaos scenario.
pub const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on a worker thread and fails loudly if it neither returns
/// nor panics within `timeout`. A panic inside `f` is re-raised on the
/// caller (not masked as a bogus "hung" report); only a genuine wedge
/// trips the watchdog.
pub fn with_watchdog_for<T: Send + 'static>(
    timeout: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(timeout) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("chaos scenario hung: watchdog fired after {timeout:?}")
        }
        // The closure panicked before sending: surface ITS panic, not a
        // misleading "hung" report.
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Ok(_) => unreachable!("worker exited without sending or panicking"),
            Err(cause) => std::panic::resume_unwind(cause),
        },
    }
}

/// [`with_watchdog_for`] with the standard 60 s budget.
pub fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    with_watchdog_for(WATCHDOG, f)
}

/// The canonical chaos-test runtime: the augmented-computing scenario
/// (coordinator + one remote) under a latency SLO, with a fresh policy
/// seeded by `policy_seed`.
pub fn shared_runtime(policy_seed: u64) -> Arc<SharedRuntime> {
    shared_runtime_for(Scenario::augmented_computing(SloKind::Latency), policy_seed)
}

/// A [`SharedRuntime`] for an arbitrary
/// scenario with the default runtime config and a 200 ms latency SLO.
pub fn shared_runtime_for(sc: Scenario, policy_seed: u64) -> Arc<SharedRuntime> {
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), policy_seed);
    Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(200.0)))
}

/// The chaos suites' shared link: 300 Mbps, 8 ms — comfortable enough
/// that failures come from the injected chaos, not the network floor.
pub fn good_link() -> LinkState {
    LinkState { bandwidth_mbps: 300.0, delay_ms: 8.0 }
}

/// The standard chaos serving config: virtual time at 100× wall speed,
/// no service sleeps, and a 50 ms control tick so fleet-trace events
/// land promptly.
pub fn chaos_serve_config() -> ServeConfig {
    ServeConfig {
        time_scale: 0.01,
        service_sleep: false,
        tick_interval_ms: 50.0,
        ..ServeConfig::engineered(default_classes())
    }
}

/// Lowers the scenario DSL's gossip-chaos axis onto a transport
/// [`ChaosConfig`] for proxy-based
/// tests, preserving the axis seed so the frame schedule replays.
pub fn gossip_chaos_config(gossip: &GossipChaos, seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_prob: gossip.drop_prob,
        dup_prob: gossip.dup_prob,
        dup_copies: 1,
        ..ChaosConfig::default()
    }
}

/// Unit `u` adds `u + 1` to every element, so units `0..n` add
/// `n(n+1)/2` whichever devices ran them; counts the jobs each device ran.
pub struct AddCompute {
    units: usize,
    jobs: Vec<AtomicU64>,
}

impl AddCompute {
    /// `units` units, job counters for `devices` devices.
    pub fn new(units: usize, devices: usize) -> Self {
        AddCompute { units, jobs: (0..devices).map(|_| AtomicU64::new(0)).collect() }
    }

    /// What units `0..n` add to an input.
    pub fn sum(&self) -> f32 {
        (self.units * (self.units + 1) / 2) as f32
    }

    /// Jobs each device has run so far.
    pub fn jobs(&self) -> Vec<u64> {
        self.jobs.iter().map(|j| j.load(Ordering::SeqCst)).collect()
    }
}

impl UnitCompute for AddCompute {
    fn n_units(&self) -> usize {
        self.units
    }

    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        out.data_mut().iter_mut().for_each(|v| *v += (unit + 1) as f32);
        out
    }

    fn run_unit_on(&self, dev: usize, unit: usize, input: &Tensor) -> UnitOutcome {
        self.jobs[dev].fetch_add(1, Ordering::SeqCst);
        UnitOutcome::Output(self.run_unit(unit, input))
    }
}
