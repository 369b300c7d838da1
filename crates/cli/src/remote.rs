//! The distributed-mode commands: `worker` (host one device's compute
//! behind a TCP listener on the event-loop worker server) and `exec`
//! (drive a plan through the executor over the in-process transport or
//! over TCP to running workers).
//!
//! Both sides build the same deterministic [`ConvStackCompute`] from the
//! same `--compute-seed`, so a coordinator and its remote workers hold
//! bit-identical weights — which is what makes `--transport tcp` vs
//! `--transport inproc` a meaningful parity check: at B32 the printed
//! output digests must match exactly.

use crate::args::{ArgError, Args};
use murmuration_core::executor::{
    ConvStackCompute, ExecOptions, Executor, HedgeOptions, UnitCompute, UnitWire,
};
use murmuration_core::transport::Transport;
use murmuration_partition::{ExecutionPlan, UnitPlacement};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::GridSpec;
use murmuration_tensor::{Shape, Tensor};
use murmuration_transport::frame::fnv1a64;
use murmuration_transport::{
    AsyncTcpTransport, AsyncWorkerServer, TcpTransportConfig, WorkerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `--channels`: every unit's input and output channel count.
fn channels_from(args: &Args) -> Result<usize, ArgError> {
    args.get_parsed_or("channels", 4)
}

fn compute_from(args: &Args) -> Result<Arc<ConvStackCompute>, ArgError> {
    let units: usize = args.get_parsed_or("units", 3)?;
    let layers: usize = args.get_parsed_or("layers", 2)?;
    let channels = channels_from(args)?;
    let seed: u64 = args.get_parsed_or("compute-seed", 7u64)?;
    Ok(Arc::new(ConvStackCompute::random(units, layers, channels, seed)))
}

/// `murmuration worker --listen 127.0.0.1:0` — serve one device's compute
/// until killed. Prints `listening on ADDR` (with the resolved port) so a
/// coordinator script can scrape the address.
pub fn cmd_worker(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let listen = args.require("listen")?;
    let dev: usize = args.get_parsed_or("dev", 0)?;
    let compute = compute_from(args)?;
    let cfg = WorkerConfig { dev_id: dev, ..Default::default() };
    let units: usize = args.get_parsed_or("units", 3)?;
    let server = AsyncWorkerServer::bind(listen, compute, cfg)?;
    println!("listening on {}", server.local_addr());
    // A parent process parses that line; make sure it actually leaves.
    std::io::stdout().flush()?;
    eprintln!("worker dev {dev}: {units} unit(s), serving until killed");
    server.run_until_stopped();
    Ok(())
}

fn quant_from(args: &Args) -> Result<BitWidth, ArgError> {
    match args.get_parsed_or("quant", 32u32)? {
        8 => Ok(BitWidth::B8),
        16 => Ok(BitWidth::B16),
        32 => Ok(BitWidth::B32),
        other => Err(ArgError(format!("--quant: unsupported bit width `{other}`"))),
    }
}

fn plan_from(args: &Args, n_units: usize, n_devices: usize) -> Result<ExecutionPlan, ArgError> {
    let placements = match args.get_or("plan", "pingpong") {
        // Unit u runs on device u mod N: every hop crosses a boundary.
        "pingpong" => (0..n_units).map(|u| UnitPlacement::Single(u % n_devices)).collect(),
        // Everything on device 0: the all-local baseline.
        "single" => vec![UnitPlacement::Single(0); n_units],
        other => return Err(ArgError(format!("--plan: unknown `{other}`"))),
    };
    Ok(ExecutionPlan { placements })
}

/// Digest of a tensor's exact bit pattern, for cross-process parity
/// checks: same plan + same seeds must print the same digest over either
/// transport.
fn tensor_digest(t: &Tensor) -> u64 {
    let mut bytes = Vec::with_capacity(t.numel() * 4);
    for v in t.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// `murmuration exec --transport tcp|inproc` — run a plan through the
/// distributed executor and print one report row per request.
pub fn cmd_exec(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let compute = compute_from(args)?;
    let n_units = compute.n_units();
    let channels = channels_from(args)?;
    let requests: usize = args.get_parsed_or("requests", 3)?;
    let quant = quant_from(args)?;
    let input_seed: u64 = args.get_parsed_or("input-seed", 1u64)?;

    let mode = args.get_or("transport", "inproc");
    let (mut exec, n_devices) = match mode {
        "inproc" => {
            let n: usize = args.get_parsed_or("devices", 2)?;
            (Executor::new(n, compute.clone()), n)
        }
        "tcp" => {
            let addrs: Vec<String> = args
                .require("workers")?
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if addrs.is_empty() {
                return Err(Box::new(ArgError("--workers: need at least one address".into())));
            }
            let cfg = TcpTransportConfig {
                seed: args.get_parsed_or("seed", 0u64)?,
                ..Default::default()
            };
            let transport = AsyncTcpTransport::connect(&addrs, cfg);
            if !transport.wait_connected(Duration::from_secs(10)) {
                return Err(Box::new(ArgError(
                    "not all workers reachable within 10 s (are they running?)".into(),
                )));
            }
            let n = transport.n_devices();
            (Executor::with_transport(Box::new(transport)), n)
        }
        other => return Err(Box::new(ArgError(format!("--transport: unknown `{other}`")))),
    };

    let plan = plan_from(args, n_units, n_devices)?;
    let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: quant }; n_units];
    // `--hedge on` arms speculative retries: when a device's reply is
    // slower than `--hedge-factor` × its own `--hedge-quantile` latency,
    // the request is resent to a backup and the first result wins.
    let hedge = match args.get_or("hedge", "off") {
        "on" => Some(HedgeOptions {
            quantile: args.get_parsed_or("hedge-quantile", 0.9f64)?,
            factor: args.get_parsed_or("hedge-factor", 2.0f64)?,
            ..Default::default()
        }),
        "off" => None,
        other => return Err(Box::new(ArgError(format!("--hedge: unknown `{other}`")))),
    };
    let opts = ExecOptions {
        deadline: Duration::from_secs(5),
        max_attempts: 3,
        backoff: Duration::from_millis(2),
        hedge,
    };
    eprintln!(
        "exec: {requests} request(s), {n_units} unit(s) over {n_devices} device(s), \
         transport {mode}, wire {}b, hedging {}",
        quant.bits(),
        if opts.hedge.is_some() { "on" } else { "off" }
    );
    println!(
        "{:>4} {:>9} {:>7} {:>9} {:>8} {:>7} {:>8} {:>7} {:>6} {:>5} {:>7} {:>18}",
        "req",
        "wall ms",
        "retries",
        "failovers",
        "dl-miss",
        "reconn",
        "hb-miss",
        "dedup",
        "hedges",
        "h-won",
        "cancels",
        "digest"
    );
    let mut all = 0u64;
    for r in 0..requests {
        let mut rng = StdRng::seed_from_u64(input_seed.wrapping_add(r as u64));
        let input = Tensor::rand_uniform(Shape::nchw(1, channels, 12, 12), 1.0, &mut rng);
        let (out, rep) = exec.execute_with(&plan, &wire, input, opts).map_err(|e| {
            Box::new(ArgError(format!("request {r} failed: {e}"))) as Box<dyn std::error::Error>
        })?;
        let digest = tensor_digest(&out);
        all ^= digest.rotate_left((r % 64) as u32);
        println!(
            "{r:>4} {:>9.2} {:>7} {:>9} {:>8} {:>7} {:>8} {:>7} {:>6} {:>5} {:>7} {digest:>18x}",
            rep.wall_ms,
            rep.retries,
            rep.failovers,
            rep.deadline_misses,
            rep.reconnects,
            rep.heartbeats_missed,
            rep.resends_deduped,
            rep.hedges_fired,
            rep.hedges_won,
            rep.cancels_delivered,
        );
    }
    println!("digest-all {all:016x}");
    exec.shutdown();
    Ok(())
}
