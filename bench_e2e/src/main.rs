//! `bench_e2e` — one request timed across the real stack.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace] [--aa] [--out <dir>]
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! stdout — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; exits non-zero on any wrong output. README.md has the metric
//! glossary, why each workload exists and how to read the trace file.

mod closed;
mod metrics;
mod overload;
mod schedule;
mod spans;
mod stack;
mod stats;

use closed::Budget;
use metrics::{print_table, result_line, Better, MetricDef, RunResult, END_TO_END, PER_LAYER};
use schedule::ClosedWorkload;
use std::path::PathBuf;
use std::process::ExitCode;

/// The four workloads, as `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 4] = ["steady_inproc", "swarm_tcp", "churn_decide", overload::NAME];

/// Share of a traced run's `--seconds` spent on the first untraced
/// reference pass; the traced pass and a second reference pass then each
/// replay exactly the requests that one got through.
const UNTRACED_SHARE: f64 = 0.3;

/// Times an untraced run sets its workload up; `setup_s` is the median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    /// Time box of the measured run; without it the run is the workload's
    /// fixed request count.
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: bench_e2e --workload <steady_inproc|swarm_tcp|churn_decide|\
overload_serve> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--aa] [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        aa: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    ) -> Result<&'a String, String> {
        it.next().ok_or(format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: cannot read {s:?} as a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = value(flag, &mut it)?.clone(),
            "--seed" => a.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => a.seconds = Some(number(flag, value(flag, &mut it)?)?),
            "--out" => a.out = Some(PathBuf::from(value(flag, &mut it)?)),
            "--aa" => a.aa = true,
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn print_header(a: &Args, threads: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let budget = match a.seconds {
        Some(s) => format!("{s} s"),
        None => "workload default (fixed count)".to_string(),
    };
    println!(
        "bench_e2e  workload={}  seed={}  budget={budget}  trace={}  rev={}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        git_revision()
    );
    println!(
        "  nproc={nproc}  simd_active={}  threads: {threads}",
        murmuration_tensor::simd::simd_active()
    );
}

/// Where the trace file goes: `--out`, else next to the executable (so
/// under the cargo target directory).
fn out_dir(a: &Args) -> PathBuf {
    a.out.clone().unwrap_or_else(|| {
        let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("."));
        exe.parent().unwrap_or(std::path::Path::new(".")).join("bench_e2e_out")
    })
}

fn closed_budget(a: &Args, w: &ClosedWorkload) -> Budget {
    match a.seconds {
        Some(s) => Budget::Seconds(s),
        None => Budget::Requests(w.default_requests),
    }
}

/// Sets the workload up [`SETUPS`] times — tearing each down before the
/// next — and keeps the last; `setup_s` is the median.
fn repeated_setup<R>(
    mut setup: impl FnMut() -> Result<R, String>,
    setup_s: impl Fn(&R) -> f64,
    teardown: impl Fn(R),
) -> Result<(R, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let rig = setup()?;
        times.push(setup_s(&rig));
        kept = Some(rig);
    }
    let median = stats::median(&times).unwrap_or(0.0);
    Ok((kept.expect("at least one set-up ran"), median))
}

fn run_closed(a: &Args, w: &ClosedWorkload) -> Result<RunResult, String> {
    let budget = closed_budget(a, w);
    if !a.trace {
        let (mut rig, setup_s) = repeated_setup(
            || closed::setup(w, a.seed, budget, false),
            |r| r.setup_s,
            |r| r.stack.shutdown(),
        )?;
        let run = closed::run(&mut rig, budget)?;
        let hold = rig.schedule.hold();
        rig.stack.shutdown();
        return Ok(closed::summarize_e2e(w, &run, hold, setup_s));
    }

    // Traced: the head of the schedule three times over, each on a fresh
    // stack — bare, decorated, bare again. The process itself speeds up as
    // it runs (its heap settles), so one reference pass before the traced
    // one would read as negative overhead; the mean of a pass before and a
    // pass after cancels a steady drift.
    let head = match budget {
        Budget::Seconds(s) => Budget::Seconds(s * UNTRACED_SHARE),
        Budget::Requests(n) => Budget::Requests((n / 3).max(schedule::EPOCH)),
    };
    let pass = |traced: bool, budget: Budget| -> Result<_, String> {
        let mut rig = closed::setup(w, a.seed, budget, traced)?;
        let run = closed::run(&mut rig, budget)?;
        let spans = rig.spans();
        rig.stack.shutdown();
        Ok((run, spans))
    };
    let (before, _) = pass(false, head)?;
    let replay = Budget::Requests(before.served.len());
    let (run, spans) = pass(true, replay)?;
    let (after, _) = pass(false, replay)?;

    let (mut result, waterfall) = closed::summarize_layers(w, &run, &spans, &[&before, &after]);
    let trail = |r: &closed::ClosedRun| -> Vec<(u64, bool)> {
        r.served.iter().map(|s| (s.shape.digest, s.cached)).collect()
    };
    if trail(&before) != trail(&run) || trail(&after) != trail(&run) {
        result.errors.push("the traced pass decided differently from the untraced ones".into());
    }

    let n = run.served.len();
    println!("  waterfall over {n} traced requests (self time; tiles in parallel add up):");
    for (name, self_ns, count) in &waterfall.rows {
        let modules = spans::LAYERS.iter().find(|l| l.0 == *name).map_or("", |l| l.1);
        println!(
            "    {name:<8} {:>10.4} ms/req {:>6.1} % of wall  {count:>7} spans  {modules}",
            *self_ns as f64 / 1e6 / n.max(1) as f64,
            stats::share(*self_ns as f64, waterfall.wall_ns as f64) * 100.0,
        );
    }
    let dir = out_dir(a);
    let path = dir.join(format!("trace_{}_{}.jsonl", w.name, a.seed));
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"requests\": {n}, \"spans\": {}, \
         \"closure_share\": {:.6}}}",
        w.name,
        a.seed,
        spans.len(),
        waterfall.closure_share()
    );
    match std::fs::create_dir_all(&dir)
        .and_then(|_| spans::write_trace_file(&path, &header, &spans, &waterfall, n))
    {
        Ok(()) => println!("  trace file: {}", path.display()),
        Err(e) => result.errors.push(format!("writing {}: {e}", path.display())),
    }
    Ok(result)
}

fn run_overload(a: &Args) -> Result<RunResult, String> {
    let virtual_ms = match a.seconds {
        Some(s) => s * 1e3 / overload::TIME_SCALE,
        None => overload::DEFAULT_VIRTUAL_S * 1e3,
    };
    if a.trace {
        let idle_wait = overload::idle_submit_wait_ns(a.seed)?;
        let rig = overload::setup(a.seed, virtual_ms)?;
        return Ok(overload::run(rig).summarize_layers(&idle_wait));
    }
    let (rig, setup_s) =
        repeated_setup(|| overload::setup(a.seed, virtual_ms), |r| r.setup_s, drop)?;
    Ok(overload::run(rig).summarize_e2e(setup_s))
}

fn run_once(a: &Args) -> Result<RunResult, String> {
    match schedule::closed_workload(&a.workload) {
        Some(w) => run_closed(a, &w),
        None => run_overload(a),
    }
}

/// `--aa`: the same code twice, and how far apart the two runs read
/// against each metric's bound — the noise floor, made visible.
fn print_aa(first: &RunResult, second: &RunResult, defs: &[MetricDef]) {
    println!("  A/A: two runs of the same code, relative delta beside the bound");
    for d in defs {
        let (x, y) = (first.metrics.get(d.name), second.metrics.get(d.name));
        let worse = match d.better {
            Better::Lower => y - x,
            Better::Higher => x - y,
        };
        let delta = stats::share(worse, x.abs());
        let verdict = if d.bound > 0.0 && delta > d.bound { "EXCEEDS" } else { "ok" };
        println!(
            "    {:<20} {x:>14.6} {y:>14.6} {:>+8.2} %  bound {:>5.1} %  {verdict}",
            d.name,
            delta * 100.0,
            d.bound * 100.0
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match schedule::closed_workload(&a.workload) {
        Some(w) => {
            let devices = w.stack.fleet.scenario().devices.len();
            match w.stack.transport {
                stack::TransportKind::InProc => format!("1 client + {devices} in-process workers"),
                stack::TransportKind::AsyncTcp => format!(
                    "1 client + {cores} client event loops + {devices} worker servers × \
                     (1 event loop + 1 compute)"
                ),
            }
        }
        None => "1 generator + 2 serve workers + 1 control".to_string(),
    };
    print_header(&a, &threads);
    let defs: &[MetricDef] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let result = match run_once(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&result, defs);
    if a.aa {
        match run_once(&a) {
            Ok(second) => print_aa(&result, &second, defs),
            Err(e) => {
                eprintln!("bench_e2e: second A/A run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for w in &result.warnings {
        println!("  note: {w}");
    }
    for e in &result.errors {
        println!("  ERROR: {e}");
    }
    println!(
        "  attempted={} failed={} correct={}",
        result.attempted,
        result.failed,
        result.correct()
    );
    println!("{}", result_line(&result, defs));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_forms_of_the_command_line_parse() {
        let a = parse("--workload swarm_tcp --seed 9 --seconds 20 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("swarm_tcp", 9, Some(20.0), false)
        );
        assert!(parse("--workload swarm_tcp --trace 1").unwrap().trace);
        let a = parse("--workload churn_decide --trace --aa").unwrap();
        assert!(a.trace && a.aa && a.seconds.is_none());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload swarm_tcp --seconds 0").is_err());
        assert!(parse("--workload swarm_tcp --bogus").is_err());
    }

    /// `[profile.*]` tables of a manifest: header → settings.
    fn profile_tables(manifest: &str) -> std::collections::BTreeMap<&str, Vec<&str>> {
        let mut tables = std::collections::BTreeMap::new();
        let mut open: Option<&str> = None;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                open = line.starts_with("[profile.").then_some(line);
                if let Some(header) = open {
                    tables.insert(header, Vec::new());
                }
            } else if let (Some(header), false) = (open, line.is_empty() || line.starts_with('#')) {
                tables.entry(header).or_default().push(line);
            }
        }
        tables
    }

    /// The benchmark is a package of its own, so cargo ignores the root
    /// manifest's profiles; its own must say the same, or it would time
    /// code built differently from what the product ships.
    #[test]
    fn profile_tables_match_the_root_manifest() {
        let root = profile_tables(include_str!("../../Cargo.toml"));
        assert!(root.contains_key("[profile.release]"), "{root:?}");
        assert_eq!(profile_tables(include_str!("../Cargo.toml")), root);
    }
}
