//! `murmuration` — the command-line interface.
//!
//! ```text
//! murmuration train    --scenario augmented --slo-kind latency --steps 4000 --out policy.bin
//! murmuration decide   --policy policy.bin --scenario augmented --slo 140 --bw 200 --delay 20
//! murmuration estimate --scenario swarm --config max --bw 1000 --delay 2
//! murmuration models
//! murmuration simulate --policy policy.bin --scenario augmented --slo 140 --requests 10
//! murmuration help
//! ```

mod args;
mod remote;

use args::{ArgError, Args};
use murmuration_core::fleet::Input;
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::trace::NetworkTrace;
use murmuration_edgesim::{
    ArrivalTrace, DeviceStatus, DeviceTrace, FleetTrace, LinkState, NetworkState, RateShape,
};
use murmuration_partition::compliance::Slo;
use murmuration_partition::{ExecutionPlan, LatencyEstimator};
use murmuration_rl::supreme::{self, SupremeConfig};
use murmuration_rl::{serialize, Condition, LstmPolicy, Scenario, SloKind};
use murmuration_serve::{
    default_classes, run_closed_loop, run_open_loop, CoordinatorSpec, EnvModel, FailoverCluster,
    FailoverConfig, LoadReport, ServeConfig, ServeHandle, ServeOutcome,
};
use murmuration_supernet::{AccuracyModel, SearchSpace, SubnetSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("error: {e}");
        eprintln!("run `murmuration help` for usage");
        std::process::exit(1);
    }
}

fn run(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(_) => {
            print_help();
            return Ok(());
        }
    };
    match args.command.as_str() {
        "train" => cmd_train(&args),
        "decide" => cmd_decide(&args),
        "estimate" => cmd_estimate(&args),
        "plan" => cmd_plan(&args),
        "models" => cmd_models(),
        "simulate" => cmd_simulate(&args),
        "serve" => cmd_serve(&args),
        "loadtest" => cmd_loadtest(&args),
        "failover" => cmd_failover(&args),
        "campaign" => cmd_campaign(&args),
        "worker" => remote::cmd_worker(&args),
        "exec" => remote::cmd_exec(&args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(Box::new(ArgError(format!("unknown subcommand `{other}`")))),
    }
}

fn print_help() {
    println!(
        "murmuration — SLO-aware distributed DNN inference (ICPP '24 reproduction)\n\
         \n\
         USAGE: murmuration <command> [--flag value]...\n\
         \n\
         COMMANDS\n\
           train     Train a SUPREME policy.\n\
                     --scenario augmented|swarm|hetero  --slo-kind latency|accuracy\n\
                     --steps N (4000)  --seed S (0)  --out FILE (policy.bin)\n\
           decide    Make one deployment decision with a trained policy.\n\
                     --policy FILE  --scenario ...  --slo V  --bw A[,B..]  --delay A[,B..]\n\
                     --trace true   (print the per-unit timeline)\n\
           estimate  Latency breakdown of canonical strategies for a config.\n\
                     --scenario ...  --config min|mid|max  --bw ...  --delay ...\n\
           plan      Beam-search the best placement for a config (no policy needed).\n\
                     --scenario ...  --config min|mid|max  --bw ...  --delay ...  --beam N (8)\n\
           models    Print the baseline model zoo.\n\
           simulate  Serve requests through the full runtime over a dynamic trace.\n\
                     --policy FILE  --scenario ...  --slo V  --requests N (10)\n\
                     --kill-device D --kill-at-req K (0) --revive-at-req R (never)\n\
                     (injects a device failure window; degraded column shows recovery)\n\
           serve     Closed-loop SLO-class serving demo (concurrent clients).\n\
                     --policy FILE|fresh  --scenario ...  --clients N (4)\n\
                     --duration-ms D (5000)  --time-scale S (0.02)  --workers W (2)\n\
           loadtest  Open-loop load test against the serving layer.\n\
                     --policy FILE|fresh  --scenario ...  --duration-ms D (10000)\n\
                     --rps R (20)  --rps-to R2 (= overload ramp to R2)\n\
                     --mix W0,W1,W2 (0.4,0.3,0.3)  --baseline naive|engineered (engineered)\n\
                     --kill-device D --kill-at-ms T --revive-at-ms R\n\
                     --time-scale S (0.02)  --workers W (2)  --seed S (0)\n\
                     --pipeline true  (best-effort class streams through the\n\
                      stage-parallel pipeline; table gains a per-stage block)\n\
           failover  Primary + standby coordinator demo with gossip failover.\n\
                     --policy FILE|fresh  --scenario ...  --requests N (60)\n\
                     --die-at-req K (N/2; usize::MAX = never)  --seed S (0)\n\
                     (kills the primary mid-load; the standby promotes via\n\
                      gossip and the cluster conserves every request)\n\
           campaign  Replay chaos scenarios against a serving-config grid.\n\
                     --list true  (print the built-in scenario matrix and exit)\n\
                     --scenario NAME (one built-in scenario; default: all)\n\
                     --grid smoke|full (smoke)  --seed S (42)\n\
                     --out FILE (results/CAMPAIGN_cli.json)\n\
                     (deterministic virtual-time replay; emits per-scenario\n\
                      latency/accuracy/goodput Pareto fronts + robustness counters)\n\
           worker    Host one device's compute behind a TCP listener.\n\
                     --listen ADDR (e.g. 127.0.0.1:7070; port 0 = pick free)\n\
                     --dev D (0)  --units N (3)  --layers L (2)  --channels C (4)\n\
                     --compute-seed S (7)   (must match the coordinator)\n\
           exec      Run a plan through the distributed executor.\n\
                     --transport inproc|tcp (inproc)\n\
                     inproc: --devices N (2);  tcp: --workers ADDR[,ADDR..]\n\
                     --plan pingpong|single (pingpong)  --requests N (3)\n\
                     --quant 8|16|32 (32)  --input-seed S (1)\n\
                     --units/--layers/--channels/--compute-seed as for worker\n\
                     (prints per-request transport counters and an output digest;\n\
                      at --quant 32 the digest is identical across transports)\n\
           help      This message.\n\
         \n\
         `--policy fresh` skips loading: an untrained, fallback-guarded policy is\n\
         built on the spot (smoke tests without a training run)."
    );
}

fn scenario_from(args: &Args) -> Result<Scenario, ArgError> {
    let kind = match args.get_or("slo-kind", "latency") {
        "latency" => SloKind::Latency,
        "accuracy" => SloKind::Accuracy,
        other => return Err(ArgError(format!("--slo-kind: unknown `{other}`"))),
    };
    match args.get_or("scenario", "augmented") {
        "augmented" => Ok(Scenario::augmented_computing(kind)),
        "swarm" => Ok(Scenario::device_swarm(5, kind)),
        "hetero" => Ok(Scenario::heterogeneous_edge(kind)),
        other => Err(ArgError(format!("--scenario: unknown `{other}`"))),
    }
}

fn condition_from(args: &Args, sc: &Scenario) -> Result<Condition, ArgError> {
    let slo: f64 = args.get_parsed_or("slo", sc.slo_range.1)?;
    let one = |v: Option<Vec<f64>>, default: f64| -> Vec<f64> {
        match v {
            Some(mut xs) => {
                // A single value broadcasts to every remote link.
                if xs.len() == 1 {
                    xs = vec![xs[0]; sc.n_remote()];
                }
                xs
            }
            None => vec![default; sc.n_remote()],
        }
    };
    let bw = one(args.get_f64_list("bw")?, 100.0);
    let delay = one(args.get_f64_list("delay")?, 20.0);
    if bw.len() != sc.n_remote() || delay.len() != sc.n_remote() {
        return Err(ArgError(format!(
            "scenario has {} remote links; pass 1 or {} comma-separated values",
            sc.n_remote(),
            sc.n_remote()
        )));
    }
    Ok(Condition { slo, bw_mbps: bw, delay_ms: delay })
}

/// Loads `--policy FILE`, or builds an untrained policy for `--policy
/// fresh` — decisions then lean on the guarded fallback, which is enough
/// for smoke-testing the serving stack without a training run.
fn policy_from(args: &Args, sc: &Scenario) -> Result<LstmPolicy, Box<dyn std::error::Error>> {
    match args.require("policy")? {
        "fresh" => {
            let seed: u64 = args.get_parsed_or("seed", 0u64)?;
            Ok(LstmPolicy::new(sc.input_dim(), 16, sc.arities(), seed))
        }
        path => {
            let policy = serialize::load_policy(path)?;
            if policy.input_dim != sc.input_dim() {
                return Err(Box::new(ArgError(
                    "policy was trained for a different scenario shape".into(),
                )));
            }
            Ok(policy)
        }
    }
}

fn cmd_train(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let sc = scenario_from(args)?;
    let steps: usize = args.get_parsed_or("steps", 4000)?;
    let seed: u64 = args.get_parsed_or("seed", 0)?;
    let out = args.get_or("out", "policy.bin").to_string();
    eprintln!("training SUPREME for {steps} episodes on {} devices…", sc.devices.len());
    let eval_every = (steps / 4).max(1);
    let (mut policy, history) =
        supreme::train(&sc, &SupremeConfig { steps, eval_every, seed, ..Default::default() });
    for (step, r) in &history.points {
        eprintln!(
            "  step {step:>6}: avg reward {:.3}, compliance {:.1} %",
            r.avg_reward, r.compliance_pct
        );
    }
    serialize::save_policy(&mut policy, &out)?;
    println!("saved policy to {out}");
    Ok(())
}

fn cmd_decide(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let sc = scenario_from(args)?;
    let policy = policy_from(args, &sc)?;
    let cond = condition_from(args, &sc)?;
    let result = murmuration_rl::env::decide_guarded(&policy, &sc, &cond);
    let genome = sc.decode(&result.actions);
    println!("condition: slo={} bw={:?} delay={:?}", cond.slo, cond.bw_mbps, cond.delay_ms);
    println!(
        "decision : resolution {} | stages {:?}",
        genome.config.resolution,
        genome
            .config
            .stages
            .iter()
            .map(|s| format!(
                "k{} d{} e{} {}x{} {}b",
                s.kernel,
                s.depth,
                s.expand,
                s.partition.rows,
                s.partition.cols,
                s.quant.bits()
            ))
            .collect::<Vec<_>>()
    );
    println!(
        "outcome  : latency {:.1} ms | accuracy {:.2} % | SLO met: {}",
        result.latency_ms, result.accuracy_pct, result.met
    );
    if args.get_or("trace", "false") == "true" {
        let spec = SubnetSpec::lower(&genome.config);
        let plan = genome.plan(&spec, sc.devices.len());
        let net = sc.network(&cond);
        let est = LatencyEstimator::new(&sc.devices, &net);
        let (_, trace) = est.estimate_with_trace(&spec, &plan);
        println!("{:<10} {:>12} {:>10} | devices", "unit", "input@ms", "done@ms");
        for t in trace {
            println!(
                "{:<10} {:>12.1} {:>10.1} | {:?}",
                t.unit, t.input_ready_ms, t.done_ms, t.devices
            );
        }
    }
    Ok(())
}

fn cmd_estimate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let sc = scenario_from(args)?;
    let cond = condition_from(args, &sc)?;
    let cfg = parse_config(args)?;
    let spec = SubnetSpec::lower(&cfg);
    let net = sc.network(&cond);
    let est = LatencyEstimator::new(&sc.devices, &net);
    let acc = AccuracyModel::new().predict(&cfg);
    println!(
        "config: {} MMACs, {:.1} MB params, predicted top-1 {acc:.2} %",
        spec.total_macs() / 1_000_000,
        spec.total_params() as f64 * 4.0 / 1e6
    );
    println!("{:<24} {:>10} {:>10} {:>10}", "strategy", "total ms", "compute", "comm");
    let show = |name: &str, plan: &ExecutionPlan| {
        let b = est.estimate(&spec, plan);
        println!("{name:<24} {:>10.1} {:>10.1} {:>10.1}", b.total_ms, b.compute_ms, b.comm_ms);
    };
    show("all-local", &ExecutionPlan::all_on(&spec, 0));
    for d in 1..sc.devices.len() {
        show(&format!("all-on-device-{d}"), &ExecutionPlan::all_on(&spec, d));
    }
    show("spread", &ExecutionPlan::spread(&spec, sc.devices.len()));
    Ok(())
}

fn parse_config(
    args: &Args,
) -> Result<murmuration_supernet::SubnetConfig, Box<dyn std::error::Error>> {
    let space = SearchSpace::default();
    Ok(match args.get_or("config", "max") {
        "min" => space.min_config(),
        "max" => space.max_config(),
        "mid" => {
            let mut c = space.min_config();
            c.resolution = space.resolutions[space.resolutions.len() / 2];
            for s in &mut c.stages {
                s.depth = space.depths[space.depths.len() / 2];
                s.expand = space.expands[space.expands.len() / 2];
            }
            c
        }
        other => return Err(Box::new(ArgError(format!("--config: unknown `{other}`")))),
    })
}

fn cmd_plan(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let sc = scenario_from(args)?;
    let cond = condition_from(args, &sc)?;
    let beam: usize = args.get_parsed_or("beam", 8)?;
    let mut cfg = parse_config(args)?;
    // Give the planner the full grid option on every stage; it may still
    // choose Single placements.
    for s in &mut cfg.stages {
        s.partition = murmuration_tensor::tile::GridSpec::new(2, 2);
        s.quant = murmuration_tensor::quant::BitWidth::B8;
    }
    let spec = SubnetSpec::lower(&cfg);
    let net = sc.network(&cond);
    let (plan, latency) = murmuration_partition::beam::plan_beam(&spec, &sc.devices, &net, beam);
    println!(
        "config: {} MMACs | beam width {beam} | latency {latency:.1} ms",
        spec.total_macs() / 1_000_000
    );
    for (u, p) in spec.units.iter().zip(&plan.placements) {
        println!("  {:<8} -> {:?}", u.name, p);
    }
    Ok(())
}

fn cmd_models() -> Result<(), Box<dyn std::error::Error>> {
    println!("{:<24} {:>10} {:>10} {:>8} {:>8}", "model", "GMACs", "params M", "top-1 %", "layers");
    for m in murmuration_models::zoo::all_models() {
        println!(
            "{:<24} {:>10.2} {:>10.1} {:>8.1} {:>8}",
            m.name,
            m.total_macs() as f64 / 1e9,
            m.total_params() as f64 / 1e6,
            m.top1,
            m.layers.len()
        );
    }
    let eff = murmuration_models::efficientnet_b0(224);
    println!(
        "{:<24} {:>10.2} {:>10.1} {:>8.1} {:>8}   (extension)",
        eff.name,
        eff.total_macs() as f64 / 1e9,
        eff.total_params() as f64 / 1e6,
        eff.top1,
        eff.layers.len()
    );
    let vit = murmuration_models::vit_b16(224);
    println!(
        "{:<24} {:>10.2} {:>10.1} {:>8.1} {:>8}   (extension)",
        vit.name,
        vit.total_macs() as f64 / 1e9,
        vit.total_params() as f64 / 1e6,
        vit.top1,
        vit.layers.len()
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let sc = scenario_from(args)?;
    let policy = policy_from(args, &sc)?;
    let requests: usize = args.get_parsed_or("requests", 10)?;
    let slo: f64 = args.get_parsed_or("slo", sc.slo_range.1)?;
    let initial = match sc.slo_kind {
        SloKind::Latency => Slo::LatencyMs(slo),
        SloKind::Accuracy => Slo::AccuracyPct(slo as f32),
    };
    let n_remote = sc.n_remote();
    let n_devices = sc.devices.len();
    // Fault injection: optionally kill one device for a request window.
    let kill_device: usize = args.get_parsed_or("kill-device", usize::MAX)?;
    let kill_at: usize = args.get_parsed_or("kill-at-req", 0)?;
    let revive_at: usize = args.get_parsed_or("revive-at-req", usize::MAX)?;
    if kill_device != usize::MAX && (kill_device == 0 || kill_device >= n_devices) {
        return Err(Box::new(ArgError(format!(
            "--kill-device: device must be a remote (1..{})",
            n_devices - 1
        ))));
    }
    let rt = SharedRuntime::new(sc, policy, RuntimeConfig::default(), initial);
    let mut rng = StdRng::seed_from_u64(args.get_parsed_or("seed", 0u64)?);
    let base = LinkState { bandwidth_mbps: 150.0, delay_ms: 20.0 };
    let trace = NetworkTrace::random_walk(base, 400.0, requests * 2 + 4, 4.0, 11);
    println!(
        "{:>4} {:>9} {:>9} {:>10} {:>10} {:>7} {:>6} {:>9}",
        "req", "bw Mbps", "delay ms", "lat ms", "acc %", "cached", "met", "degraded"
    );
    let mut met = 0usize;
    for i in 0..requests {
        let t = i as f64 * 400.0;
        if kill_device != usize::MAX {
            let force = |status| [Input::Force { dev: kill_device, status }];
            if i == kill_at {
                rt.observe(t, force(DeviceStatus::Down));
            }
            if i == revive_at {
                rt.observe(t, force(DeviceStatus::Up));
            }
        }
        let link = trace.sample(t);
        let net = NetworkState::uniform(n_remote, link);
        rt.tick(&net, t, &mut rng);
        let r = rt.infer(&net, t + 50.0, &mut rng);
        met += usize::from(r.slo_met);
        let degraded = if r.degradation.forced_local {
            "local".to_string()
        } else if !r.degradation.down_devices.is_empty() {
            format!("-{:?}", r.degradation.down_devices)
        } else if !r.degradation.quarantined_devices.is_empty() {
            format!("~{:?}", r.degradation.quarantined_devices)
        } else {
            "-".to_string()
        };
        println!(
            "{i:>4} {:>9.0} {:>9.0} {:>10.1} {:>10.2} {:>7} {:>6} {:>9}",
            link.bandwidth_mbps,
            link.delay_ms,
            r.latency_ms,
            r.accuracy_pct,
            r.cached,
            r.slo_met,
            degraded
        );
    }
    let stats = rt.cache_stats();
    println!("met {met}/{requests}; cache hit ratio {:.0} %", stats.hit_ratio() * 100.0);
    println!(
        "precompute: {} speculative roll-outs, {} read, {} skipped",
        stats.speculated, stats.speculative_reads, stats.speculation_skipped
    );
    Ok(())
}

/// Shared setup for the serving commands: runtime, environment, config.
fn serving_setup(
    args: &Args,
) -> Result<(Arc<SharedRuntime>, EnvModel, ServeConfig), Box<dyn std::error::Error>> {
    let sc = scenario_from(args)?;
    let policy = policy_from(args, &sc)?;
    let initial = match sc.slo_kind {
        SloKind::Latency => Slo::LatencyMs(sc.slo_range.1),
        SloKind::Accuracy => Slo::AccuracyPct(sc.slo_range.1 as f32),
    };
    let n_remote = sc.n_remote();
    let n_devices = sc.devices.len();
    let rt = Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), initial));
    let duration: f64 = args.get_parsed_or("duration-ms", 10_000.0)?;
    let base = LinkState {
        bandwidth_mbps: args.get_parsed_or("bw", 150.0)?,
        delay_ms: args.get_parsed_or("delay", 20.0)?,
    };
    let seed: u64 = args.get_parsed_or("seed", 0u64)?;
    let steps = (duration / 400.0) as usize + 2;
    let net = NetworkTrace::random_walk(base, 400.0, steps, 3.0, seed ^ 0xbeef);
    let mut env = EnvModel::new(net, n_remote);
    // Optional fault window, on the virtual clock.
    let kill_device: usize = args.get_parsed_or("kill-device", usize::MAX)?;
    if kill_device != usize::MAX {
        if kill_device == 0 || kill_device >= n_devices {
            return Err(Box::new(ArgError(format!(
                "--kill-device: device must be a remote (1..{})",
                n_devices - 1
            ))));
        }
        let kill_at: f64 = args.get_parsed_or("kill-at-ms", duration / 3.0)?;
        let revive_at: f64 = args.get_parsed_or("revive-at-ms", f64::INFINITY)?;
        let mut fleet = FleetTrace::always_up(n_devices);
        let trace = if revive_at.is_finite() {
            DeviceTrace::down_between(kill_at, revive_at)
        } else {
            DeviceTrace::down_after(kill_at)
        };
        fleet.set(kill_device, trace);
        env = env.with_fleet(fleet);
    }
    let classes = default_classes();
    let mut cfg = match args.get_or("baseline", "engineered") {
        "engineered" => ServeConfig::engineered(classes),
        "naive" => ServeConfig::naive(classes),
        other => return Err(Box::new(ArgError(format!("--baseline: unknown `{other}`")))),
    };
    cfg.time_scale = args.get_parsed_or("time-scale", 0.02)?;
    cfg.n_workers = args.get_parsed_or("workers", cfg.n_workers)?;
    cfg.base_seed = seed;
    Ok((rt, env, cfg))
}

fn cmd_serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (rt, env, cfg) = serving_setup(args)?;
    let duration: f64 = args.get_parsed_or("duration-ms", 5_000.0)?;
    let clients: usize = args.get_parsed_or("clients", 4)?;
    let classes = cfg.classes.clone();
    let handle = ServeHandle::start(rt, env, cfg);
    eprintln!(
        "serving: {clients} closed-loop clients for {duration:.0} virtual ms \
         across {} classes…",
        classes.len()
    );
    let cycle: Vec<usize> = (0..classes.len()).collect();
    let outcomes = run_closed_loop(&handle, clients, duration, &cycle);
    let stats = handle.shutdown();
    let report = LoadReport::build(&classes, &outcomes, stats, duration);
    print!("{}", report.render_table());
    println!(
        "conservation: {} submitted = {} completed + {} rejected",
        stats.submitted, stats.completed, stats.rejected
    );
    Ok(())
}

fn cmd_failover(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let requests: usize = args.get_parsed_or("requests", 60)?;
    let die_at: usize = args.get_parsed_or("die-at-req", requests / 2)?;
    let seed: u64 = args.get_parsed_or("seed", 0u64)?;
    // Two independent coordinators over the same scenario: each has its
    // own runtime (a standby trusts gossip, not the primary's memory).
    let (rt0, env0, cfg0) = serving_setup(args)?;
    let (rt1, env1, mut cfg1) = serving_setup(args)?;
    cfg1.base_seed ^= 0x57A9;
    let mut cl = FailoverCluster::new(
        vec![
            CoordinatorSpec { rt: rt0, env: env0, cfg: cfg0 },
            CoordinatorSpec { rt: rt1, env: env1, cfg: cfg1 },
        ],
        FailoverConfig { seed, ..FailoverConfig::default() },
    );
    let n_classes = default_classes().len();
    eprintln!(
        "failover demo: {requests} closed-loop requests, primary (rank 0) dies at \
         request {die_at}…"
    );
    let mut done = 0usize;
    let mut rejected = 0usize;
    for i in 0..requests {
        if i == die_at {
            let dropped = cl.kill_active();
            println!(
                "request {i:>4}: PRIMARY KILLED ({dropped} queued requests dropped, \
                 failing over through gossip)"
            );
        }
        match cl.submit_wait(i % n_classes) {
            Some(ServeOutcome::Done(_)) => done += 1,
            Some(ServeOutcome::Rejected(_)) => rejected += 1,
            None => {}
        }
        // Amortised gossip round: membership ticks + digest exchange.
        if i % 8 == 7 {
            cl.pump();
        }
        if i + 1 == die_at || i + 1 == requests || (i + 1) % 20 == 0 {
            println!(
                "request {:>4}: active rank {:?}, {done} done / {rejected} rejected",
                i + 1,
                cl.active_rank()
            );
        }
    }
    let s = cl.shutdown();
    println!(
        "\nfailovers {} | submitted {} | completed {} | rejected {} | retried {} \
         (crash dropped {}) | lost {}",
        s.failovers, s.submitted, s.completed, s.rejected, s.retried, s.crash_dropped, s.lost
    );
    println!(
        "conservation: {} completed + {} rejected = {} submitted — {}",
        s.completed,
        s.rejected,
        s.submitted,
        if s.completed + s.rejected == s.submitted && s.lost == 0 { "ok" } else { "VIOLATED" }
    );
    Ok(())
}

fn cmd_loadtest(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (rt, env, mut cfg) = serving_setup(args)?;
    // `--pipeline true`: the lowest-priority (best-effort) class becomes a
    // throughput-mode stream and drains through the stage-parallel
    // pipeline; latency classes keep the micro-batched path.
    let pipeline = args.get_or("pipeline", "false") == "true";
    if pipeline {
        if let Some(c) = cfg.classes.last_mut() {
            c.pipeline = true;
        }
    }
    let duration: f64 = args.get_parsed_or("duration-ms", 10_000.0)?;
    let rps: f64 = args.get_parsed_or("rps", 20.0)?;
    let shape = match args.get_parsed_or("rps-to", f64::NAN)? {
        to if to.is_finite() => RateShape::Ramp { from_rps: rps, to_rps: to },
        _ => RateShape::Constant(rps),
    };
    let mix = args.get_f64_list("mix")?.unwrap_or_else(|| vec![0.4, 0.3, 0.3]);
    if mix.len() != cfg.classes.len() {
        return Err(Box::new(ArgError(format!(
            "--mix needs {} weights (one per class)",
            cfg.classes.len()
        ))));
    }
    let seed: u64 = args.get_parsed_or("seed", 0u64)?;
    let trace = ArrivalTrace::poisson(duration, &shape, &mix, seed);
    let classes = cfg.classes.clone();
    let handle = ServeHandle::start(rt, env, cfg);
    eprintln!(
        "loadtest: {} open-loop arrivals over {duration:.0} virtual ms \
         (offered {:.1} rps)…",
        trace.len(),
        trace.offered_rps()
    );
    let outcomes = run_open_loop(&handle, &trace);
    let snapshot = handle.pipeline_stats();
    if pipeline && snapshot.is_none() {
        eprintln!("note: --pipeline requested but no multi-stage plan paid off; served classic");
    }
    let stats = handle.shutdown();
    let report =
        LoadReport::build(&classes, &outcomes, stats, duration).with_pipeline_stats(snapshot);
    print!("{}", report.render_table());
    println!(
        "conservation: {} submitted = {} completed + {} rejected",
        stats.submitted, stats.completed, stats.rejected
    );
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use murmuration_edgesim::scenario::{builtin_by_name, builtin_matrix};
    use murmuration_serve::campaign::{
        full_grid, run_scenario, smoke_grid, CampaignConfig, CampaignResult,
    };

    let specs = builtin_matrix();
    if args.get_or("list", "false") == "true" {
        println!("built-in scenario matrix ({} scenarios):", specs.len());
        for s in &specs {
            println!(
                "  {:<28} {:>7.0} ms, {} device(s)",
                s.name,
                s.duration_ms,
                s.fleet.n_devices()
            );
        }
        return Ok(());
    }

    let grid = match args.get_or("grid", "smoke") {
        "smoke" => smoke_grid(),
        "full" => full_grid(),
        other => return Err(Box::new(ArgError(format!("--grid: unknown `{other}`")))),
    };
    let selected = match args.flag("scenario") {
        Some(name) => {
            vec![builtin_by_name(name).ok_or_else(|| {
                ArgError(format!(
                    "--scenario: no built-in scenario named `{name}` (try --list true)"
                ))
            })?]
        }
        None => specs,
    };
    let cfg = CampaignConfig { master_seed: args.get_parsed_or("seed", 42u64)? };

    println!(
        "campaign: {} scenario(s) x {} cells, seed {}",
        selected.len(),
        grid.len(),
        cfg.master_seed
    );
    let mut scenarios = Vec::new();
    for spec in &selected {
        let r = run_scenario(spec, &grid, &cfg);
        println!("\n=== {} (offered {}) ===", r.name, r.offered);
        println!(
            "  {:<28} {:>9} {:>9} {:>9} {:>8} {:>9} {:>6}",
            "cell", "p50 ms", "p95 ms", "acc %", "goodput", "slo-att", "front"
        );
        for c in &r.cells {
            println!(
                "  {:<28} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>9.3} {:>6}",
                c.cell.label(),
                c.p50_ms,
                c.p95_ms,
                c.accuracy_pct,
                c.goodput_rps,
                c.slo_attainment,
                if c.on_front { "*" } else { "" }
            );
        }
        scenarios.push(r);
    }
    let result = CampaignResult { master_seed: cfg.master_seed, scenarios };
    let out = args.get_or("out", "results/CAMPAIGN_cli.json").to_string();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, result.to_json())?;
    println!("\nwrote {out}");
    Ok(())
}
