//! Chaos suite for the stage-parallel pipeline: device death and brownout
//! mid-pipeline, over both layers of the stack.
//!
//! * The **executor** half streams real tensors over real transports
//!   (in-proc channels and TCP loopback workers) and loses a stage device
//!   mid-stream: every submitted input must still resolve exactly once —
//!   failed over to the coordinator, or failed with a *typed*
//!   [`ExecError`] — never hang, never double-complete.
//! * The **rig** half drives the virtual-time serving mode under Poisson
//!   load with a fleet trace that kills one pipeline device and browns
//!   out another: the serve-layer conservation invariant
//!   (`completed + rejected == submitted`) must hold through the
//!   mid-stream rescue and the shutdown drain, and death rejections must
//!   carry the typed [`RejectReason::StageDead`].
//!
//! Every test runs under a watchdog: a stuck queue or a lost drain
//! aborts loudly instead of hanging the suite.

use murmuration_core::executor::{ExecError, UnitCompute};
use murmuration_core::transport::InProcTransport;
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::{
    ArrivalTrace, DeviceTrace, FleetTrace, LinkState, NetworkState, RateShape,
};
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_serve::{
    run_open_loop, ClassSpec, EnvModel, PipelineExecutor, RejectReason, ServeConfig, ServeHandle,
    ServeOutcome, StreamOptions,
};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::{Shape, Tensor};
use murmuration_transport::{
    AsyncTcpTransport, AsyncWorkerServer, TcpTransportConfig, WorkerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Aborts the process if the guarded scope outlives `dur`. Chaos bugs
/// here look like hangs (a stage thread waiting on a queue nobody will
/// drain); a watchdog turns them into a loud bounded failure.
struct Watchdog {
    tx: mpsc::Sender<()>,
}

fn watchdog(label: &'static str, dur: Duration) -> Watchdog {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        if matches!(rx.recv_timeout(dur), Err(mpsc::RecvTimeoutError::Timeout)) {
            eprintln!("watchdog: `{label}` still running after {dur:?}; aborting");
            std::process::abort();
        }
    });
    Watchdog { tx }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let _ = self.tx.send(());
    }
}

// ---------------------------------------------------------------------------
// Executor chaos: real tensors over real transports
// ---------------------------------------------------------------------------

/// Deterministic per-unit compute: adds `unit + 1` to every element, so
/// the end-to-end result of units `0..n` is input + n*(n+1)/2 and output
/// correctness is checkable regardless of which devices ran which units.
struct AddCompute {
    units: usize,
}

impl UnitCompute for AddCompute {
    fn n_units(&self) -> usize {
        self.units
    }
    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        for v in out.data_mut().iter_mut() {
            *v += (unit + 1) as f32;
        }
        out
    }
}

fn stream_inputs(n: usize) -> Vec<Tensor> {
    (0..n).map(|i| Tensor::full(Shape::nchw(1, 1, 2, 2), i as f32)).collect()
}

fn expected_sum(units: usize) -> f32 {
    (units * (units + 1) / 2) as f32
}

#[test]
fn inproc_stream_happy_path_conserves_and_computes() {
    let _wd = watchdog("inproc_stream_happy_path_conserves_and_computes", Duration::from_secs(60));
    let units = 6;
    let compute = Arc::new(AddCompute { units });
    let transport = Box::new(InProcTransport::new(3, compute));
    // Three stages: units 0-1 on dev 0, 2-3 on dev 1, 4-5 on dev 2.
    let exec = PipelineExecutor::new(transport, &[0, 0, 1, 1, 2, 2], StreamOptions::default());
    assert_eq!(exec.n_stages(), 3);
    let n = 24;
    let results = exec.run_stream(stream_inputs(n), BitWidth::B32);
    assert_eq!(results.len(), n, "exactly one result per input");
    for (i, r) in results.iter().enumerate() {
        let t = r.as_ref().unwrap_or_else(|e| panic!("input {i} failed: {e}"));
        assert!(
            (t.data()[0] - (i as f32 + expected_sum(units))).abs() < 1e-4,
            "input {i} produced the wrong logits"
        );
    }
    let stats = exec.stage_stats();
    assert_eq!(stats.len(), 3);
    for (s, st) in stats.iter().enumerate() {
        assert_eq!(st.processed, n as u64, "stage {s} must process the full stream");
        assert_eq!(st.failed, 0);
        assert_eq!(st.requeued, 0);
    }
}

#[test]
fn inproc_death_mid_stream_fails_over_to_coordinator() {
    let _wd =
        watchdog("inproc_death_mid_stream_fails_over_to_coordinator", Duration::from_secs(60));
    let units = 6;
    let compute = Arc::new(AddCompute { units });
    let transport = Box::new(InProcTransport::new(3, compute));
    let exec = PipelineExecutor::new(
        transport,
        &[0, 0, 1, 1, 2, 2],
        StreamOptions { fallback_dev: Some(0), ..StreamOptions::default() },
    );
    // Device 1 (middle stage) dies before the stream starts: every
    // request's stage-1 span must be rescued onto the coordinator.
    exec.kill_device(1);
    let n = 12;
    let results = exec.run_stream(stream_inputs(n), BitWidth::B32);
    assert_eq!(results.len(), n);
    for (i, r) in results.iter().enumerate() {
        let t = r.as_ref().unwrap_or_else(|e| panic!("input {i} failed despite fallback: {e}"));
        assert!(
            (t.data()[0] - (i as f32 + expected_sum(units))).abs() < 1e-4,
            "rescued input {i} produced the wrong logits"
        );
    }
    let stats = exec.stage_stats();
    assert_eq!(stats[1].requeued, n as u64, "every stage-1 span must be requeued");
    assert_eq!(stats[1].failed, 0);
}

#[test]
fn inproc_death_without_fallback_yields_typed_errors() {
    let _wd =
        watchdog("inproc_death_without_fallback_yields_typed_errors", Duration::from_secs(60));
    let compute = Arc::new(AddCompute { units: 4 });
    let transport = Box::new(InProcTransport::new(2, compute));
    let exec = PipelineExecutor::new(
        transport,
        &[0, 0, 1, 1],
        StreamOptions { fallback_dev: None, ..StreamOptions::default() },
    );
    exec.kill_device(1);
    let n = 8;
    let results = exec.run_stream(stream_inputs(n), BitWidth::B32);
    assert_eq!(results.len(), n, "dead stage must still resolve every input");
    for (i, r) in results.iter().enumerate() {
        match r {
            Err(
                ExecError::DeviceDown { dev: 1 }
                | ExecError::AttemptsExhausted { .. }
                | ExecError::NoDevice { .. },
            ) => {}
            other => panic!("input {i}: expected a typed death error, got {other:?}"),
        }
    }
    assert_eq!(exec.stage_stats()[1].failed, n as u64);
}

#[test]
fn tcp_death_mid_stream_resolves_every_request() {
    let _wd = watchdog("tcp_death_mid_stream_resolves_every_request", Duration::from_secs(120));
    let units = 6;
    let compute = Arc::new(AddCompute { units });
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for dev in 0..3 {
        let srv = AsyncWorkerServer::bind(
            "127.0.0.1:0",
            Arc::clone(&compute) as Arc<dyn UnitCompute>,
            WorkerConfig { dev_id: dev, ..WorkerConfig::default() },
        )
        .unwrap_or_else(|e| panic!("bind loopback worker {dev}: {e}"));
        addrs.push(srv.local_addr().to_string());
        servers.push(srv);
    }
    let transport = AsyncTcpTransport::connect(&addrs, TcpTransportConfig::default());
    assert!(transport.wait_connected(Duration::from_secs(10)), "workers must connect");
    let exec = Arc::new(PipelineExecutor::new(
        Box::new(transport),
        &[0, 0, 1, 1, 2, 2],
        StreamOptions { fallback_dev: Some(0), ..StreamOptions::default() },
    ));
    // Kill the middle stage's device mid-stream, from another thread —
    // the race against in-flight requests is the point.
    let killer = {
        let exec = Arc::clone(&exec);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            exec.kill_device(1);
        })
    };
    let n = 60;
    let results = exec.run_stream(stream_inputs(n), BitWidth::B32);
    killer.join().unwrap_or_else(|_| panic!("killer thread panicked"));
    assert_eq!(results.len(), n, "every request resolves exactly once");
    let mut ok = 0usize;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(t) => {
                assert!(
                    (t.data()[0] - (i as f32 + expected_sum(units))).abs() < 1e-4,
                    "input {i}: wrong logits after mid-stream death"
                );
                ok += 1;
            }
            // A request caught at the instant of death may exhaust its
            // budget before the failover engages; the error must be typed.
            Err(
                ExecError::DeviceDown { .. }
                | ExecError::Timeout { .. }
                | ExecError::AttemptsExhausted { .. }
                | ExecError::Wire { .. }
                | ExecError::NoDevice { .. }
                | ExecError::WorkerPanic { .. }
                | ExecError::Backpressure { .. },
            ) => {}
        }
        let _ = i;
    }
    // The kill lands 30ms into a ~real-compute stream: the tail must have
    // kept completing through the coordinator fallback.
    assert!(ok > 0, "some requests must complete across the death");
    for mut srv in servers {
        srv.stop();
    }
}

// ---------------------------------------------------------------------------
// Rig chaos: virtual-time serving under Poisson load with a fleet trace
// ---------------------------------------------------------------------------

const N_DEVICES: usize = 5;

fn swarm_runtime(deadline_ms: f64) -> Arc<SharedRuntime> {
    let sc = Scenario::device_swarm(N_DEVICES, SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 1);
    Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(deadline_ms)))
}

fn lan() -> LinkState {
    LinkState { bandwidth_mbps: 400.0, delay_ms: 2.0 }
}

/// Plans the pipeline the server will build, so the chaos trace can
/// target the devices the planner actually picked.
fn planned_devices(rt: &SharedRuntime, deadline_ms: f64) -> Vec<usize> {
    let net = NetworkState::uniform(N_DEVICES - 1, lan());
    let mut rng = StdRng::seed_from_u64(5);
    rt.tick(&net, 0.0, &mut rng);
    let deploy = rt
        .pipeline_decide(Slo::LatencyMs(deadline_ms), &net)
        .unwrap_or_else(|| panic!("swarm fleet must yield a pipeline plan"));
    deploy.plan.stages.iter().map(|s| s.device).collect()
}

fn serve_cfg(deadline_ms: f64) -> ServeConfig {
    ServeConfig {
        time_scale: 0.01,
        ..ServeConfig::engineered(vec![
            ClassSpec::latency("stream", deadline_ms, 256).with_pipeline()
        ])
    }
}

#[test]
fn rig_death_and_brownout_under_poisson_load_conserves() {
    let _wd =
        watchdog("rig_death_and_brownout_under_poisson_load_conserves", Duration::from_secs(120));
    let deadline_ms = 10_000.0;
    let rt = swarm_runtime(deadline_ms);
    let devs = planned_devices(&rt, deadline_ms);
    assert!(devs.len() >= 2, "swarm LAN fleet must pipeline across devices, got {devs:?}");
    let duration_ms = 8_000.0;
    // Chaos: the last stage's device dies mid-run (in-flight work must be
    // rescued onto the coordinator), and a middle device browns out (its
    // stage slows; completions flag degraded).
    let mut fleet = FleetTrace::always_up(N_DEVICES);
    let dead_dev = *devs.last().unwrap_or(&0);
    fleet.set(dead_dev, DeviceTrace::down_after(duration_ms * 0.4));
    if devs.len() >= 3 {
        fleet.set(devs[1], DeviceTrace::brownout(duration_ms * 0.2, 1.6, 500.0));
    }
    let env = EnvModel::constant(lan(), N_DEVICES - 1).with_fleet(fleet);
    let handle = ServeHandle::start(Arc::clone(&rt), env, serve_cfg(deadline_ms));
    assert!(handle.pipeline_stats().is_some(), "pipeline must come up");

    let trace = ArrivalTrace::poisson(duration_ms, &RateShape::Constant(6.0), &[1.0], 31);
    let outcomes = run_open_loop(&handle, &trace);
    let stats = handle.shutdown();

    assert_eq!(
        stats.completed + stats.rejected,
        stats.submitted,
        "conservation must hold through death + brownout + drain"
    );
    assert_eq!(stats.submitted, trace.len() as u64);
    assert_eq!(outcomes.len(), trace.len(), "every arrival resolves exactly once");
    assert!(stats.completed > 0, "the stream must keep completing through the chaos");
    assert!(
        stats.pipeline_requeued > 0,
        "death with a loose deadline must rescue in-flight work onto the coordinator"
    );
    assert!(stats.degraded_served > 0, "rescued/browned-out completions must flag degraded");
    // Whatever was rejected carries a typed reason (never a hang, never
    // an untyped drop).
    let typed_rejects =
        outcomes.iter().filter(|o| matches!(o, ServeOutcome::Rejected(_))).count() as u64;
    assert_eq!(typed_rejects, stats.rejected);
}

#[test]
fn rig_death_with_tight_deadline_rejects_typed_stage_dead() {
    let _wd = watchdog(
        "rig_death_with_tight_deadline_rejects_typed_stage_dead",
        Duration::from_secs(120),
    );
    // First plan with a loose SLO to learn the fill, then pick a deadline
    // only ~15% above it: once the last stage's device is down from t≈0,
    // requests queue behind the serialized coordinator rescue, and the
    // jobs that reach the dead stage after queueing can no longer fit the
    // rescue in their remaining budget — the typed death rejection is the
    // only correct outcome. Admission is disabled for this test: with it
    // on, the rescue-inflated backlog makes the admission gate pre-shed
    // arrivals as `DeadlineUnmeetable` before they ever travel, and the
    // in-pipeline death path would go unexercised.
    let probe_rt = swarm_runtime(10_000.0);
    let net = NetworkState::uniform(N_DEVICES - 1, lan());
    let mut rng = StdRng::seed_from_u64(5);
    probe_rt.tick(&net, 0.0, &mut rng);
    let deploy = probe_rt
        .pipeline_decide(Slo::LatencyMs(10_000.0), &net)
        .unwrap_or_else(|| panic!("swarm fleet must yield a pipeline plan"));
    if deploy.plan.stages.len() < 2 {
        eprintln!("planner chose a single stage; nothing to kill — skipping");
        return;
    }
    let deadline_ms = deploy.report.fill_ms * 1.15;
    let dead_dev = deploy.plan.stages[deploy.plan.stages.len() - 1].device;

    let rt = swarm_runtime(deadline_ms);
    let devs = planned_devices(&rt, deadline_ms);
    if devs.last() != Some(&dead_dev) {
        // The tighter SLO changed the placement; retarget the kill.
        eprintln!("placement changed under the tight SLO: {devs:?}");
    }
    let dead_dev = *devs.last().unwrap_or(&dead_dev);
    let mut fleet = FleetTrace::always_up(N_DEVICES);
    fleet.set(dead_dev, DeviceTrace::down_after(1.0));
    let env = EnvModel::constant(lan(), N_DEVICES - 1).with_fleet(fleet);
    let cfg = ServeConfig { admission: false, ..serve_cfg(deadline_ms) };
    let handle = ServeHandle::start(Arc::clone(&rt), env, cfg);
    assert!(handle.pipeline_stats().is_some(), "pipeline must come up");

    let duration_ms = 5_000.0;
    let trace = ArrivalTrace::poisson(duration_ms, &RateShape::Constant(4.0), &[1.0], 37);
    let outcomes = run_open_loop(&handle, &trace);
    let stats = handle.shutdown();

    assert_eq!(stats.completed + stats.rejected, stats.submitted, "conservation");
    assert!(
        stats.stage_dead > 0,
        "a dead final stage under a tight deadline must produce typed StageDead rejects \
         (stats: {stats:?})"
    );
    let stage_dead_seen = outcomes.iter().any(|o| {
        matches!(
            o,
            ServeOutcome::Rejected(r) if matches!(r.reason, RejectReason::StageDead { dev, .. } if dev == dead_dev)
        )
    });
    assert!(stage_dead_seen, "the StageDead reason must name the dead device {dead_dev}");
}
