//! Kernel timing summary for the perf trajectory across PRs.
//!
//! Times the tensor-substrate hot kernels with plain wall-clock loops and
//! prints a table to stdout plus a JSON summary to
//! `target/results/BENCH_kernels.json` (copy it to `results/` to bless it):
//!
//! ```text
//! cargo run -p murmuration-bench --release --bin bench_kernels
//! ```
//!
//! Iteration counts adapt to a per-benchmark time budget
//! (`MURMURATION_BENCH_MS`, default 300 ms after 3 warmup iterations), so
//! slow seed kernels and fast optimized kernels both get stable numbers.
//!
//! The `conv2d/dense_*` and `conv2d/qconv_*` rows split each image across
//! the tensor crate's helper pool (the int8 rows in the same chunks as their
//! f32 twins), and `rl/greedy_rollout_1024x276` each roll-out step (beside
//! its `_inline` twin on a pool without helpers), so they depend on the
//! thread count, which the header and the JSON's `threads` key state
//! (`available_parallelism`, which honours the CPU affinity mask: under
//! `taskset -c 0` it is 1 and nothing splits). The header and the JSON's
//! `conv_tier` key name the f32 stride-1 register tile those rows ran
//! (`avx512_8x16`, `avx2_4x16` or `portable`, see `conv::ConvTier`), and
//! `qconv_tier` the int8 one (`avxvnni_4x16`, `avx2_4x16` or `portable`,
//! see `int8::qtile_name`).
//!
//! Each entry carries the PR-1 seed timing baked in below, and the binary
//! *gates* on the result: it exits non-zero if the dense conv drops under
//! 2× seed, any kernel falls below its recorded speedup floor, or an int8
//! row falls below its `vs_f32` floor against this run's f32 twin (the int8
//! GEMM 2×, each int8 convolution 1×: never slower than the layer it
//! replaces). `scripts/check.sh` runs it under a timeout as the
//! perf-regression leg of CI.

use murmuration_bench::emit;
use murmuration_rl::env::greedy_rollout_on;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_tensor::conv::{conv2d, conv2d_relu, depthwise_conv2d, Conv2dParams, ConvTier};
use murmuration_tensor::gemm::{gemm, gemm_bt};
use murmuration_tensor::int8::{
    qconv2d, qgemm_f32, qtile_name, quantize_activations, QConv2dWeights, QGemmWeights,
};
use murmuration_tensor::matvec::{pack_panels, panel_matvec};
use murmuration_tensor::par::Pool;
use murmuration_tensor::quant::{BitWidth, QuantizedTensor};
use murmuration_tensor::simd;
use murmuration_tensor::tile::{merge_fdsp, split_fdsp, GridSpec};
use murmuration_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// PR-1 seed timings (µs) and the speedup floor each kernel must hold.
/// Floors are the best speedup recorded by a prior PR, with a little slack
/// on sub-100 µs kernels where single-core timing noise dominates; the
/// split/merge/quantize floors are pinned at 1.0 — those kernels regressed
/// below seed once and must never again. A floor must sit outside the
/// row's own run-to-run spread: `quant/dequantize_b8` (a 5 µs
/// allocation-bound loop) read 1.00× / 1.08× / 1.10× (quartiles, twelve
/// runs on a 2-vCPU x86-64 VM) against its old 1.05× floor, so it is timed
/// and reported with no floor. The 16×48×48 and 8×96×96 rows are
/// the layers `bench_e2e`'s `steady_inproc` and `swarm_tcp` requests run;
/// their baseline is im2col + GEMM (the parent of the direct convolution) on
/// this host. `dense_32x28x28_k3` is the K > 256 shape, so its floor also
/// guards the direct path's slab banking.
const BASELINES: &[(&str, f64, f64, Option<f64>)] = &[
    ("gemm/64", 39.187, 26.943, Some(1.08)),
    ("gemm/128", 313.069, 236.088, Some(1.50)),
    ("gemm/256", 3260.280, 2056.893, Some(2.00)),
    ("gemm/bt_32x784x288", 5084.552, 4483.117, Some(5.67)),
    ("conv2d/dense_32x28x28_k3", 1433.177, 1080.900, Some(2.90)),
    ("conv2d/dense_16x48x48_k3", 662.670, 472.040, Some(2.00)),
    ("conv2d/dense_relu_16x48x48_k3", 858.880, 657.060, Some(2.00)),
    ("conv2d/dense_8x96x96_k3", 1328.010, 993.740, Some(2.00)),
    ("conv2d/dense_batch4_32x28x28_k3", 6061.882, 4519.478, Some(1.23)),
    ("conv2d/depthwise_32x28x28_k5", 1387.409, 1151.099, Some(2.58)),
    ("conv2d/depthwise_border_32x14x14_k5_s2", 81.192, 66.294, Some(1.70)),
    ("fdsp/split_2x2_64x56x56", 68.982, 49.113, Some(1.00)),
    ("fdsp/merge_2x2_64x56x56", 74.251, 55.063, Some(1.00)),
    ("quant/quantize_b8_64x28x28", 197.718, 161.124, Some(1.00)),
    ("quant/dequantize_b8_64x28x28", 6.746, 4.545, None),
];

/// Floors on `vs_f32`, this run's f32 twin mean over the int8 row's mean.
const VS_F32_FLOORS: &[(&str, f64)] =
    &[("qgemm/i8_256", 2.0), ("conv2d/qconv_32x28x28_k3", 1.0), ("conv2d/qconv_8x96x96_k3", 1.0)];

fn baseline(name: &str) -> Option<(f64, f64, Option<f64>)> {
    BASELINES.iter().find(|(n, _, _, _)| *n == name).map(|&(_, m, mn, f)| (m, mn, f))
}

/// One benchmark's timing summary (microseconds).
struct Entry {
    name: &'static str,
    mean_us: f64,
    min_us: f64,
    iters: usize,
    /// This run's f32 counterpart mean, for int8 variants.
    vs_f32_mean_us: Option<f64>,
}

/// Times `f` adaptively: warm up, estimate cost, then run enough iterations
/// to fill the time budget (at least 10).
fn time_it<R>(name: &'static str, budget_ms: u64, mut f: impl FnMut() -> R) -> Entry {
    for _ in 0..3 {
        black_box(f());
    }
    let probe = Instant::now();
    black_box(f());
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_ms as f64 / 1e3 / once) as usize).clamp(10, 100_000);
    let mut min = f64::MAX;
    let total_t = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        min = min.min(t.elapsed().as_secs_f64());
    }
    let mean = total_t.elapsed().as_secs_f64() / iters as f64;
    Entry { name, mean_us: mean * 1e6, min_us: min * 1e6, iters, vs_f32_mean_us: None }
}

fn main() {
    let budget_ms: u64 =
        std::env::var("MURMURATION_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(300);
    let mut rng = StdRng::seed_from_u64(0);
    let mut entries: Vec<Entry> = Vec::new();

    // GEMM square sizes.
    let mut gemm256_mean = 0.0f64;
    for &n in &[64usize, 128, 256] {
        let a = Tensor::rand_uniform(Shape::d2(n, n), 1.0, &mut rng);
        let b = Tensor::rand_uniform(Shape::d2(n, n), 1.0, &mut rng);
        let mut out = vec![0.0f32; n * n];
        let name: &'static str = match n {
            64 => "gemm/64",
            128 => "gemm/128",
            _ => "gemm/256",
        };
        let e = time_it(name, budget_ms, || gemm(n, n, n, a.data(), b.data(), &mut out));
        if n == 256 {
            gemm256_mean = e.mean_us;
            // The same shape through the forced-scalar path — the README's
            // "what did the AVX2 kernels buy" datapoint. No gate: on a
            // machine without AVX2 the two entries coincide.
            simd::force_scalar(true);
            let es = time_it("gemm/256_scalar", budget_ms, || {
                gemm(n, n, n, a.data(), b.data(), &mut out)
            });
            simd::force_scalar(false);
            entries.push(e);
            entries.push(es);
        } else {
            entries.push(e);
        }
    }

    // Int8 GEMM at the same 256³ shape. `i8_256` times the
    // steady-state kernel alone (weights and activation codes prepared once,
    // as in repeated inference over a quantized unit); `i8_end2end_256` adds
    // the per-call activation quantization the executor actually pays.
    {
        let n = 256usize;
        let a = Tensor::rand_uniform(Shape::d2(n, n), 1.0, &mut rng);
        let b = Tensor::rand_uniform(Shape::d2(n, n), 1.0, &mut rng);
        let qw = QGemmWeights::quantize(n, n, a.data());
        let (codes, b_scale) = quantize_activations(b.data());
        let mut out = vec![0.0f32; n * n];
        let mut e = time_it("qgemm/i8_256", budget_ms, || {
            qgemm_f32(&qw, &codes, n, b_scale, None, &mut out)
        });
        e.vs_f32_mean_us = Some(gemm256_mean);
        entries.push(e);
        let mut e2 = time_it("qgemm/i8_end2end_256", budget_ms, || {
            let (codes, b_scale) = quantize_activations(b.data());
            qgemm_f32(&qw, &codes, n, b_scale, None, &mut out)
        });
        e2.vs_f32_mean_us = Some(gemm256_mean);
        entries.push(e2);
    }

    // Transposed-operand GEMM (conv-backward weight-gradient shape).
    {
        let (m, k, n) = (32usize, 784usize, 288usize);
        let a = Tensor::rand_uniform(Shape::d2(m, k), 1.0, &mut rng);
        let bt = Tensor::rand_uniform(Shape::d2(n, k), 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        entries.push(time_it("gemm/bt_32x784x288", budget_ms, || {
            gemm_bt(m, k, n, a.data(), bt.data(), &mut out)
        }));
    }

    // Convolutions.
    {
        let x = Tensor::rand_uniform(Shape::nchw(1, 32, 28, 28), 1.0, &mut rng);
        let w = Tensor::rand_uniform(Shape::nchw(32, 32, 3, 3), 0.2, &mut rng);
        let p = Conv2dParams::same(3);
        let dense = time_it("conv2d/dense_32x28x28_k3", budget_ms, || conv2d(&x, &w, None, p));
        let dense_mean = dense.mean_us;
        entries.push(dense);
        // Same conv through the int8 path (weights pre-quantized,
        // activations quantized per call — what the executor runs for a
        // B8-compute unit).
        let qw = QConv2dWeights::quantize(&w);
        let mut qe = time_it("conv2d/qconv_32x28x28_k3", budget_ms, || qconv2d(&x, &qw, None, p));
        qe.vs_f32_mean_us = Some(dense_mean);
        entries.push(qe);
        let xb = Tensor::rand_uniform(Shape::nchw(4, 32, 28, 28), 1.0, &mut rng);
        entries.push(time_it("conv2d/dense_batch4_32x28x28_k3", budget_ms, || {
            conv2d(&xb, &w, None, p)
        }));
        let dw = Tensor::rand_uniform(Shape::nchw(32, 1, 5, 5), 0.2, &mut rng);
        let p5 = Conv2dParams::same(5);
        entries.push(time_it("conv2d/depthwise_32x28x28_k5", budget_ms, || {
            depthwise_conv2d(&x, &dw, None, p5)
        }));
        let xs = Tensor::rand_uniform(Shape::nchw(1, 32, 14, 14), 1.0, &mut rng);
        let ps2 = Conv2dParams { kernel: 5, stride: 2, pad: 2 };
        entries.push(time_it("conv2d/depthwise_border_32x14x14_k5_s2", budget_ms, || {
            depthwise_conv2d(&xs, &dw, None, ps2)
        }));
    }

    // FDSP tiling.
    {
        let x = Tensor::rand_uniform(Shape::nchw(1, 64, 56, 56), 1.0, &mut rng);
        let grid = GridSpec::new(2, 2);
        entries.push(time_it("fdsp/split_2x2_64x56x56", budget_ms, || split_fdsp(&x, grid)));
        let tiles = split_fdsp(&x, grid);
        entries.push(time_it("fdsp/merge_2x2_64x56x56", budget_ms, || merge_fdsp(&tiles, grid)));
    }

    // Quantization.
    {
        let x = Tensor::rand_uniform(Shape::nchw(1, 64, 28, 28), 3.0, &mut rng);
        entries.push(time_it("quant/quantize_b8_64x28x28", budget_ms, || {
            QuantizedTensor::quantize(&x, BitWidth::B8)
        }));
        let q = QuantizedTensor::quantize(&x, BitWidth::B8);
        entries.push(time_it("quant/dequantize_b8_64x28x28", budget_ms, || q.dequantize()));
    }

    // The layers a `bench_e2e` request runs (`ConvStackCompute`: c→c, k3,
    // bias, ReLU): `steady_inproc`'s, then `swarm_tcp`'s with the int8 unit
    // beside it. Last, so the rows above see the allocator state they were
    // baselined in.
    {
        let p = Conv2dParams::same(3);
        let mut layer = |c: usize, hw: usize| {
            (
                Tensor::rand_uniform(Shape::nchw(1, c, hw, hw), 1.0, &mut rng),
                Tensor::rand_uniform(Shape::nchw(c, c, 3, 3), 0.2, &mut rng),
                Tensor::rand_uniform(Shape::d1(c), 0.2, &mut rng),
            )
        };
        let (x, w, b) = layer(16, 48);
        entries
            .push(time_it("conv2d/dense_16x48x48_k3", budget_ms, || conv2d(&x, &w, Some(&b), p)));
        entries.push(time_it("conv2d/dense_relu_16x48x48_k3", budget_ms, || {
            conv2d_relu(&x, &w, Some(&b), p)
        }));
        let (x, w, b) = layer(8, 96);
        let dense = time_it("conv2d/dense_8x96x96_k3", budget_ms, || conv2d(&x, &w, Some(&b), p));
        let qw = QConv2dWeights::quantize(&w);
        let mut qe =
            time_it("conv2d/qconv_8x96x96_k3", budget_ms, || qconv2d(&x, &qw, Some(&b), p));
        qe.vs_f32_mean_us = Some(dense.mean_us);
        entries.push(dense);
        entries.push(qe);
    }

    // One LSTM gate step of the policy network (`rl::policy`: 256 hidden
    // units over a 20-wide input, 1 024 gate rows × 276 columns), vector
    // and forced scalar. Report-only: like `quant/dequantize_b8`, it gets a
    // floor once `measure()` states each row against its own spread
    // (ROADMAP item 3b).
    {
        let (rows, k) = (1024usize, 276usize);
        let w = Tensor::rand_uniform(Shape::d2(rows, k), 0.1, &mut rng);
        let v = Tensor::rand_uniform(Shape::d1(k), 1.0, &mut rng);
        let b = Tensor::rand_uniform(Shape::d1(rows), 1.0, &mut rng);
        let packed = pack_panels(rows, k, |r, c| w.data()[r * k + c]);
        let (x, h) = v.data().split_at(20);
        let mut out = vec![0.0f32; rows];
        let mut gates = || panel_matvec(simd::simd_active(), &packed, x, h, b.data(), &mut out);
        entries.push(time_it("matvec/lstm_gates_1024x276", budget_ms, &mut gates));
        simd::force_scalar(true);
        entries.push(time_it("matvec/lstm_gates_1024x276_scalar", budget_ms, &mut gates));
        simd::force_scalar(false);
    }

    // A whole greedy roll-out of that policy (`bench_e2e`'s: 47 steps over
    // `device_swarm(4)`), its steps split across the helper pool and inline
    // on a pool without helpers. Report-only, as the gate rows.
    {
        let sc = Scenario::device_swarm(4, SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 256, sc.arities(), 0x6d75_726d);
        let cond = sc.condition_from_indices(3, &[4; 3], &[5; 3]);
        let inline = Pool::new(0);
        let mut split = || greedy_rollout_on(Pool::global(), &policy, &sc, &cond);
        entries.push(time_it("rl/greedy_rollout_1024x276", budget_ms, &mut split));
        let mut alone = || greedy_rollout_on(inline, &policy, &sc, &cond);
        entries.push(time_it("rl/greedy_rollout_1024x276_inline", budget_ms, &mut alone));
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "threads: {threads} (available_parallelism; conv2d/dense_*, conv2d/qconv_* and \
         rl/greedy_rollout rows split across them)"
    );
    // Every conv2d/dense_* row has c_out ≥ 8, so one tier ran them all.
    let conv_tier = ConvTier::pick(8).name();
    println!("conv tier: {conv_tier} (stride-1 conv2d/dense_* rows)");
    let qconv_tier = qtile_name();
    println!("qconv tier: {qconv_tier} (stride-1 conv2d/qconv_* rows)");
    println!(
        "{:<42} {:>12} {:>12} {:>8} {:>9} {:>8}",
        "kernel", "mean_us", "min_us", "iters", "speedup", "vs_f32"
    );
    for e in &entries {
        let speedup = baseline(e.name).map(|(m, _, _)| m / e.mean_us);
        let vs = e.vs_f32_mean_us.map(|f| f / e.mean_us);
        println!(
            "{:<42} {:>12.2} {:>12.2} {:>8} {:>9} {:>8}",
            e.name,
            e.mean_us,
            e.min_us,
            e.iters,
            speedup.map(|s| format!("{s:.2}x")).unwrap_or_else(|| "-".into()),
            vs.map(|s| format!("{s:.2}x")).unwrap_or_else(|| "-".into()),
        );
    }

    let mut json = String::from("{\n  \"benchmarks\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let mut fields = format!(
            "\"mean_us\": {:.3}, \"min_us\": {:.3}, \"iters\": {}",
            e.mean_us, e.min_us, e.iters
        );
        if let Some((sm, smin, _)) = baseline(e.name) {
            fields.push_str(&format!(
                ", \"seed_mean_us\": {:.3}, \"seed_min_us\": {:.3}, \"speedup\": {:.2}",
                sm,
                smin,
                sm / e.mean_us
            ));
        }
        if let Some(f) = e.vs_f32_mean_us {
            fields.push_str(&format!(", \"vs_f32\": {:.2}", f / e.mean_us));
        }
        json.push_str(&format!("    \"{}\": {{{}}}{}\n", e.name, fields, sep));
    }
    json.push_str(&format!(
        "  }},\n  \"simd\": {},\n  \"threads\": {threads},\n  \"conv_tier\": \"{conv_tier}\",\n  \
         \"qconv_tier\": \"{qconv_tier}\"\n}}\n",
        simd::detected()
    ));
    let mut failures: Vec<String> = Vec::new();
    if emit("BENCH_kernels.json", &json).is_err() {
        failures.push("report refused".into());
    }

    // Regression gates. Only meaningful when the SIMD path is live — a
    // scalar-only host (or a MURMURATION_FORCE_SCALAR run) can't hold the
    // AVX2-era floors and is reported but not failed.
    if simd::simd_active() {
        for e in &entries {
            if let Some((sm, _, Some(floor))) = baseline(e.name) {
                let speedup = sm / e.mean_us;
                if speedup < floor {
                    failures
                        .push(format!("{}: speedup {speedup:.2}x below floor {floor:.2}x", e.name));
                }
            }
            let vs_floor = VS_F32_FLOORS.iter().find(|(n, _)| *n == e.name);
            if let (Some(&(_, floor)), Some(f32_mean)) = (vs_floor, e.vs_f32_mean_us) {
                let vs = f32_mean / e.mean_us;
                if vs < floor {
                    failures.push(format!(
                        "{}: vs_f32 {vs:.2}x below floor {floor:.2}x ({:.1} µs against {f32_mean:.1})",
                        e.name, e.mean_us
                    ));
                }
            }
        }
    } else {
        eprintln!("SIMD inactive: perf floors reported only, not enforced");
    }
    if !failures.is_empty() {
        eprintln!("PERF GATE FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    eprintln!("perf gates passed");
}
