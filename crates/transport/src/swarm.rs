//! In-process fleet-scale harness: an [`crate::aclient::AsyncTcpTransport`]
//! coordinator driving ≥ 1 000 [`crate::aworker::SwarmWorkerHost`]-hosted
//! workers over real loopback sockets, through churn waves, a
//! simultaneous-disconnect storm, and the mass-reconnect stampede that
//! follows. This is the robustness proof for the readiness-based core:
//!
//! * **exactly-once, bit-exact** — every request's reply arrives exactly
//!   once, byte-identical to the locally computed expectation, and the
//!   fleet's `computed` total equals the request count (duplicate
//!   deliveries land in dedup, never in compute);
//! * **bounded machinery** — driver threads never exceed core count on
//!   either side, no thread per connection anywhere;
//! * **flat idle cost** — a window with only heartbeats in flight burns
//!   near-zero CPU per connection (epoll wakeups, not poll loops).
//!
//! The harness is a library so both the swarm gate binary
//! (`bench_swarm`) and the integration tests drive the same machinery at
//! different scales.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::aclient::{AsyncTcpTransport, AsyncTcpTransportConfig, TcpTransportConfig};
use crate::aworker::{SwarmHostConfig, SwarmWorkerHost};
use murmuration_core::executor::{UnitCompute, UnitOutcome};
use murmuration_core::transport::{SubmitError, Transport, TransportJob, TransportReply};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic toy compute: affine per unit, shape-preserving, cheap.
/// The harness recomputes the expectation locally and compares bytes.
pub struct EchoCompute {
    units: usize,
}

impl EchoCompute {
    /// A compute with `units` execution units.
    pub fn new(units: usize) -> EchoCompute {
        EchoCompute { units: units.max(1) }
    }
}

impl UnitCompute for EchoCompute {
    fn n_units(&self) -> usize {
        self.units
    }

    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor {
        let k = 1.25 + unit as f32;
        let data = input.data().iter().map(|v| v.mul_add(k, 0.5)).collect();
        Tensor::from_vec(input.shape().clone(), data)
    }

    fn run_unit_on(&self, _dev: usize, unit: usize, input: &Tensor) -> UnitOutcome {
        UnitOutcome::Output(self.run_unit(unit, input))
    }
}

/// Swarm scenario knobs. Defaults are the full 1 000-worker gate; tests
/// shrink `n_workers`/`reqs_per_wave` for speed.
#[derive(Clone, Copy, Debug)]
pub struct SwarmConfig {
    /// Fleet size (one listener + one coordinator connection each).
    pub n_workers: usize,
    /// Requests per wave, spread round-robin across the fleet.
    pub reqs_per_wave: usize,
    /// Churn waves before the storm (each drops ~10% of connections
    /// mid-wave).
    pub churn_waves: usize,
    /// Fraction of connections severed simultaneously in the storm wave.
    pub storm_fraction: f64,
    /// Host-side accept budget during the stampede (accepts/second,
    /// 0 = unlimited).
    pub accept_rate: u32,
    /// Heartbeat interval for the coordinator (long, so the idle window
    /// is mostly heartbeat-free).
    pub heartbeat: Duration,
    /// Idle-CPU measurement window after the storm settles.
    pub idle_window: Duration,
    /// Determinism seed (connection jitter, payloads, storm victims).
    pub seed: u64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            n_workers: 1000,
            reqs_per_wave: 2000,
            churn_waves: 2,
            storm_fraction: 0.30,
            accept_rate: 500,
            heartbeat: Duration::from_secs(2),
            idle_window: Duration::from_secs(2),
            seed: 0x5157_4152,
        }
    }
}

/// What the swarm run measured; the bench gate asserts on these.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwarmReport {
    /// Fleet size actually run.
    pub n_workers: usize,
    /// Event-loop threads on the worker host (must be ≤ cores).
    pub host_driver_threads: usize,
    /// Event-loop threads on the coordinator (must be ≤ cores).
    pub client_driver_threads: usize,
    /// Total requests submitted across all waves.
    pub requests: u64,
    /// Replies that arrived exactly once and bit-exact.
    pub verified_ok: u64,
    /// Units actually computed fleet-wide (exactly-once ⇒ == requests).
    pub computed: u64,
    /// Duplicate deliveries absorbed by worker dedup maps.
    pub deduped: u64,
    /// Connections severed by the churn waves.
    pub churn_dropped: u64,
    /// Connections severed by the storm wave.
    pub storm_dropped: u64,
    /// Reconnections performed by the coordinator.
    pub reconnects: u64,
    /// Accepts refused by host storm control (rate/cap/fd budget).
    pub accepts_shed: u64,
    /// Typed backpressure rejections observed by the coordinator.
    pub backpressure_rejections: u64,
    /// Process CPU seconds burned during the idle window.
    pub idle_cpu_s: f64,
    /// Idle CPU milliseconds per live connection over the window.
    pub idle_cpu_ms_per_conn: f64,
    /// Idle CPU as a fraction of one core over the window.
    pub idle_cpu_frac: f64,
    /// Whole-scenario wall time in seconds.
    pub elapsed_s: f64,
}

/// Process CPU time (user + system) from `/proc/self/stat`, in seconds.
/// Returns 0.0 off Linux or on parse trouble — callers treat the idle
/// numbers as advisory there.
fn proc_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // comm may contain spaces; fields resume after the last ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields after comm: state is index 0, utime is 11, stime is 12.
    let (Some(ut), Some(st)) = (fields.get(11), fields.get(12)) else { return 0.0 };
    let ticks: f64 = ut.parse::<f64>().unwrap_or(0.0) + st.parse::<f64>().unwrap_or(0.0);
    ticks / 100.0 // USER_HZ is 100 on every Linux this repo targets
}

struct PendingReq {
    dev: usize,
    expect: Vec<f32>,
    seen: bool,
}

/// Submits one wave of requests round-robin over the fleet and collects
/// every reply, retrying typed backpressure. `storm` optionally severs
/// connections once a third of the wave is in flight.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    transport: &AsyncTcpTransport,
    compute: &EchoCompute,
    host: &SwarmWorkerHost,
    cfg: &SwarmConfig,
    rng: &mut StdRng,
    wave: usize,
    drop_fraction: f64,
    report: &mut SwarmReport,
) -> Result<(), String> {
    let n = cfg.n_workers;
    let (tx, rx) = crossbeam::channel::unbounded::<TransportReply>();
    let mut pending: Vec<PendingReq> = Vec::with_capacity(cfg.reqs_per_wave);
    let drop_at = if drop_fraction > 0.0 { cfg.reqs_per_wave / 3 } else { usize::MAX };
    let mut dropped_this_wave = 0u64;

    for i in 0..cfg.reqs_per_wave {
        if i == drop_at {
            let severed =
                host.drop_connections(drop_fraction, cfg.seed ^ (wave as u64).wrapping_mul(0x9E37));
            dropped_this_wave = severed as u64;
        }
        let dev = (wave.wrapping_mul(7) + i) % n;
        let unit = i % compute.n_units();
        let input = Arc::new(Tensor::rand_uniform(Shape::nchw(1, 1, 4, 8), 1.0, rng));
        let expect = compute.run_unit(unit, &input).data().to_vec();
        let tag = pending.len();
        pending.push(PendingReq { dev, expect, seen: false });
        loop {
            let job = TransportJob {
                unit,
                input: Arc::clone(&input),
                quant: BitWidth::B32,
                cross_boundary: false,
                tag,
                attempt: 0,
                deadline: Some(Duration::from_secs(60)),
            };
            match transport.submit(dev, job, tx.clone()) {
                Ok(_ticket) => break,
                Err(SubmitError::Backpressure) => {
                    // Typed, not fatal: the fleet is absorbing a storm.
                    report.backpressure_rejections += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("submit dev {dev} failed: {e:?}")),
            }
        }
    }
    drop(tx);

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut outstanding = pending.len();
    while outstanding > 0 {
        if Instant::now() > deadline {
            return Err(format!("wave {wave}: {outstanding} replies missing at deadline"));
        }
        match rx.recv_timeout(Duration::from_millis(500)) {
            Ok(reply) => {
                let Some(p) = pending.get_mut(reply.tag) else {
                    return Err(format!("wave {wave}: reply for unknown tag {}", reply.tag));
                };
                if p.seen {
                    return Err(format!("wave {wave}: duplicate reply for tag {}", reply.tag));
                }
                match reply.result {
                    Ok(t) => {
                        if t.data() != p.expect.as_slice() {
                            return Err(format!(
                                "wave {wave}: tag {} bytes differ (dev {})",
                                reply.tag, p.dev
                            ));
                        }
                        p.seen = true;
                        outstanding -= 1;
                        report.verified_ok += 1;
                    }
                    Err(e) => {
                        return Err(format!(
                            "wave {wave}: tag {} failed on dev {}: {e:?}",
                            reply.tag, p.dev
                        ))
                    }
                }
            }
            Err(_) => continue,
        }
    }
    report.requests += pending.len() as u64;
    if drop_fraction >= cfg.storm_fraction {
        report.storm_dropped += dropped_this_wave;
    } else {
        report.churn_dropped += dropped_this_wave;
    }
    Ok(())
}

/// Runs the full swarm scenario and returns the measurements. Errors are
/// human-readable gate failures (missing/duplicate/mismatched replies,
/// connect timeouts).
pub fn run_swarm(cfg: &SwarmConfig) -> Result<SwarmReport, String> {
    let started = Instant::now();
    let compute = Arc::new(EchoCompute::new(4));
    let host_cfg = SwarmHostConfig {
        accept_rate: cfg.accept_rate,
        // Burst scales with the fleet but stays well under a storm's
        // reconnect volume (~30% of the fleet), so the stampede always
        // exercises the admission control it exists to prove.
        accept_burst: (cfg.n_workers / 16).clamp(8, 64) as u32,
        max_conns_per_worker: 4,
        ..SwarmHostConfig::default()
    };
    let make = {
        let compute = Arc::clone(&compute);
        move |_i: usize| Arc::clone(&compute) as Arc<dyn UnitCompute>
    };
    let mut host =
        SwarmWorkerHost::bind(cfg.n_workers, &make, host_cfg).map_err(|e| format!("bind: {e}"))?;

    let base = TcpTransportConfig {
        heartbeat_interval: cfg.heartbeat,
        heartbeat_miss_limit: 5,
        // Peers must never be declared dead mid-storm: the whole point is
        // riding the reconnect out.
        fails_before_dead: u32::MAX,
        max_in_flight: 64,
        connect_timeout: Duration::from_secs(2),
        drain_timeout: Duration::from_secs(5),
        seed: cfg.seed,
        ..TcpTransportConfig::default()
    };
    let acfg = AsyncTcpTransportConfig {
        base,
        global_max_in_flight: (cfg.n_workers * 8).max(4096),
        ..AsyncTcpTransportConfig::default()
    };
    let mut transport = AsyncTcpTransport::connect(&host.addrs(), acfg);
    // 1k connects through a bounded accept rate take a while; be generous.
    if !transport.wait_connected(Duration::from_secs(120)) {
        return Err("fleet did not fully connect within 120s".to_owned());
    }

    let mut report = SwarmReport {
        n_workers: cfg.n_workers,
        host_driver_threads: host.n_driver_threads(),
        client_driver_threads: transport.n_driver_threads(),
        ..SwarmReport::default()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x77AF);

    // Baseline wave, churn waves (10% drops), then the storm wave.
    run_wave(&transport, &compute, &host, cfg, &mut rng, 0, 0.0, &mut report)?;
    for w in 0..cfg.churn_waves {
        run_wave(&transport, &compute, &host, cfg, &mut rng, 1 + w, 0.10, &mut report)?;
    }
    let storm_wave = 1 + cfg.churn_waves;
    run_wave(
        &transport,
        &compute,
        &host,
        cfg,
        &mut rng,
        storm_wave,
        cfg.storm_fraction,
        &mut report,
    )?;

    // Let the stampede finish re-attaching, then measure the idle window.
    let settle = Instant::now() + Duration::from_secs(30);
    while host.live_conns() < cfg.n_workers as u64 && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(50));
    }
    let cpu0 = proc_cpu_s();
    std::thread::sleep(cfg.idle_window);
    let cpu1 = proc_cpu_s();
    report.idle_cpu_s = (cpu1 - cpu0).max(0.0);
    report.idle_cpu_ms_per_conn = report.idle_cpu_s * 1e3 / cfg.n_workers as f64;
    report.idle_cpu_frac = report.idle_cpu_s / cfg.idle_window.as_secs_f64().max(1e-9);

    let stats = transport.stats();
    report.reconnects = stats.reconnects;
    report.backpressure_rejections =
        report.backpressure_rejections.max(stats.backpressure_rejections);
    report.computed = host.computed_total();
    report.deduped = host.deduped_total();
    report.accepts_shed = host.accepts_shed();

    transport.shutdown();
    host.stop();
    report.elapsed_s = started.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// The full scenario at toy scale: every wave property the 1k gate
    /// asserts must already hold for 8 workers.
    #[test]
    fn mini_swarm_survives_churn_and_storm() {
        let cfg = SwarmConfig {
            n_workers: 8,
            reqs_per_wave: 64,
            churn_waves: 1,
            storm_fraction: 0.5,
            accept_rate: 0,
            heartbeat: Duration::from_millis(200),
            idle_window: Duration::from_millis(200),
            seed: 7,
        };
        let report = run_swarm(&cfg).expect("mini swarm must complete");
        assert_eq!(report.requests, 3 * 64);
        assert_eq!(report.verified_ok, report.requests);
        assert_eq!(report.computed, report.requests, "exactly-once compute");
        assert!(report.storm_dropped > 0, "storm must sever connections");
        assert!(report.reconnects >= report.storm_dropped, "severed links must reconnect");
    }
}
