//! End-to-end tests of the `murmuration` binary: train → decide →
//! estimate → simulate, through real process invocations — plus the
//! two-process distributed mode (`worker` + `exec --transport tcp`).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_murmuration"))
}

/// A spawned `worker` child process, killed on drop so a failing test
/// can't leak listeners.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    /// A worker for device `dev`; `extra` are compute flags such as
    /// `--channels`, which must match the coordinator's.
    fn spawn(dev: usize, extra: &[&str]) -> WorkerProc {
        let mut child = bin()
            .args(["worker", "--listen", "127.0.0.1:0", "--dev", &dev.to_string()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker");
        // The worker prints `listening on ADDR` once the port is bound.
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
            .to_string();
        WorkerProc { child, addr }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `exec` with the given transport flags and returns the
/// `digest-all` line — the bit-exact fingerprint of every output tensor.
fn exec_digest(extra: &[&str]) -> String {
    let mut cmd = bin();
    cmd.args(["exec", "--requests", "3", "--quant", "32"]);
    cmd.args(extra);
    let out = cmd.output().expect("run exec");
    assert!(out.status.success(), "exec failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(text.contains("reconn"), "report must show transport counters: {text}");
    text.lines()
        .find(|l| l.starts_with("digest-all "))
        .unwrap_or_else(|| panic!("no digest line in: {text}"))
        .to_string()
}

#[test]
fn two_process_tcp_matches_inproc_bit_for_bit() {
    let w0 = WorkerProc::spawn(0, &[]);
    let w1 = WorkerProc::spawn(1, &[]);
    let workers = format!("{},{}", w0.addr, w1.addr);
    let tcp = exec_digest(&["--transport", "tcp", "--workers", &workers]);
    let inproc = exec_digest(&["--transport", "inproc", "--devices", "2"]);
    assert_eq!(tcp, inproc, "B32 digests must be identical across transports");
}

#[test]
fn sixteen_channel_tcp_matches_inproc_bit_for_bit() {
    // 16 channels: the input must follow `--channels`, and the units run
    // the widest stride-1 tile the CPU has (the 8-row one on AVX-512F).
    let (w0, w1) =
        (WorkerProc::spawn(0, &["--channels", "16"]), WorkerProc::spawn(1, &["--channels", "16"]));
    let workers = format!("{},{}", w0.addr, w1.addr);
    let tcp = exec_digest(&["--channels", "16", "--transport", "tcp", "--workers", &workers]);
    let inproc = exec_digest(&["--channels", "16", "--transport", "inproc", "--devices", "2"]);
    assert_eq!(tcp, inproc, "16-channel digests must be identical across transports");
}

#[test]
fn help_lists_all_subcommands() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for cmd in ["train", "decide", "estimate", "models", "simulate"] {
        assert!(text.contains(cmd), "help must mention `{cmd}`");
    }
}

#[test]
fn models_prints_the_zoo() {
    let out = bin().arg("models").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in
        ["MobileNetV3", "ResNet50", "Inception", "DenseNet161", "ResNeXt101", "EfficientNet", "ViT"]
    {
        assert!(text.contains(name), "zoo must list {name}");
    }
}

#[test]
fn estimate_runs_without_a_policy() {
    let out = bin()
        .args([
            "estimate",
            "--scenario",
            "swarm",
            "--config",
            "min",
            "--bw",
            "1000",
            "--delay",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("all-local"));
    assert!(text.contains("spread"));
}

#[test]
fn loadtest_serves_batched_and_pipeline_classes_together() {
    // `--pipeline true` streams the best-effort class through the
    // stage-parallel pipeline while the latency classes keep the batched
    // path: the one run where both serving cores take requests.
    let out = bin()
        .args([
            "loadtest",
            "--policy",
            "fresh",
            "--scenario",
            "swarm",
            "--pipeline",
            "true",
            "--duration-ms",
            "2000",
            "--bw",
            "400",
            "--delay",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("pipeline: ") && text.contains(" stages |"), "{text}");
    let line = text.lines().find(|l| l.starts_with("conservation:")).unwrap();
    // "conservation: N submitted = C completed + R rejected"
    let n: Vec<u64> = line.split_whitespace().filter_map(|w| w.parse().ok()).collect();
    assert_eq!(n.len(), 3, "{line}");
    assert_eq!(n[0], n[1] + n[2], "{line}");
    assert!(n[0] > 0, "{line}");
}

#[test]
fn train_decide_simulate_round_trip() {
    let dir = std::env::temp_dir().join("murmuration_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let policy = dir.join("p.bin");
    let policy_s = policy.to_str().unwrap();

    let out = bin()
        .args(["train", "--scenario", "augmented", "--steps", "60", "--out", policy_s])
        .output()
        .unwrap();
    assert!(out.status.success(), "train: {}", String::from_utf8_lossy(&out.stderr));
    assert!(policy.exists());

    let out = bin()
        .args([
            "decide", "--policy", policy_s, "--slo", "140", "--bw", "200", "--delay", "20",
            "--trace", "true",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "decide: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("latency"), "{text}");
    assert!(text.contains("stem"), "trace must show the unit timeline: {text}");

    let out = bin()
        .args(["simulate", "--policy", policy_s, "--slo", "140", "--requests", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "simulate: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cache hit ratio"), "{text}");
    assert!(text.contains("speculative roll-outs"), "{text}");
    std::fs::remove_file(&policy).ok();
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown subcommand exits nonzero with a message.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
    // decide without a policy flag.
    let out = bin().args(["decide", "--slo", "140"]).output().unwrap();
    assert!(!out.status.success());
    // Wrong link count for the scenario.
    let dir = std::env::temp_dir().join("murmuration_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let policy = dir.join("p.bin");
    let ok = bin()
        .args([
            "train",
            "--scenario",
            "augmented",
            "--steps",
            "30",
            "--out",
            policy.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(ok.status.success());
    let out = bin()
        .args(["decide", "--policy", policy.to_str().unwrap(), "--bw", "1,2,3"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "3 links for a 1-remote scenario must fail");
    std::fs::remove_file(&policy).ok();
}
