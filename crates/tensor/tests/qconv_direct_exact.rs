//! Bit-identity of the stride-1 int8 convolution with im2col + int8 GEMM.
//!
//! The reference is spelled out from public pieces only — per image
//! [`quantize_activations`], [`im2col_i8`] and the naive [`qgemm_ref_i32`],
//! then `qgemm_f32`'s epilogue `acc as f32 · (scale·a_scale) + bias` and, for
//! ReLU, `if v < 0 { 0 }` — and every output of [`qconv2d`],
//! [`qconv2d_relu`] and [`qconv2d_on`] must equal it **by `to_bits()`**, on
//! the vector path and on the forced-scalar path, and split over pools of
//! 0–3 helpers. The direct tile reads a channel-interleaved offset image
//! instead of a column matrix; i32 sums are exact in any order, so nothing
//! downstream of an int8 unit (executor parity, checked-in digests) may move,
//! and this is the test that holds it. Strided cases stay on im2col and are
//! covered by `int8_exact.rs`.
//!
//! The scalar override is process-global, so every test in this binary
//! serialises on one mutex (a separate test binary is a separate process).

use std::sync::{Mutex, MutexGuard, OnceLock};

use murmuration_tensor::conv::{im2col_i8, Conv2dParams};
use murmuration_tensor::int8::{
    qconv2d, qconv2d_on, qconv2d_relu, qgemm_ref_i32, quantize_activations, QConv2dWeights,
};
use murmuration_tensor::par::Pool;
use murmuration_tensor::simd;
use murmuration_tensor::{Shape, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Holds the dispatch override at `scalar` until the guard drops; the next
/// holder sets its own mode first, so nothing needs restoring on a panic.
fn dispatch(scalar: bool) -> MutexGuard<'static, ()> {
    let guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::force_scalar(scalar);
    guard
}

/// Pools of 0, 1, 2 and 3 helpers, made once for the whole binary.
fn pools() -> &'static [&'static Pool; 4] {
    static POOLS: OnceLock<[&'static Pool; 4]> = OnceLock::new();
    POOLS.get_or_init(|| std::array::from_fn(Pool::new))
}

/// The oracle: per image, quantize, unfold, naive i32 GEMM, then the
/// dequantize + bias epilogue and the optional ReLU; returned as bits.
fn reference(
    x: &Tensor,
    qw: &QConv2dWeights,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    relu: bool,
) -> Vec<u32> {
    let (c_in, h, w) = (x.shape().c(), x.shape().h(), x.shape().w());
    let gw = qw.gemm_weights();
    let mut out = Vec::new();
    let mut cols = Vec::new();
    for img in x.data().chunks_exact(c_in * h * w) {
        let (codes, a_scale) = quantize_activations(img);
        let (_, spatial) = im2col_i8(&codes, c_in, h, w, p, &mut cols);
        let mut acc = vec![0i32; gw.m() * spatial];
        qgemm_ref_i32(gw, &cols, spatial, &mut acc);
        for (i, &a) in acc.iter().enumerate() {
            let co = i / spatial;
            let add = bias.map_or(0.0, |b| b.data()[co]);
            let v = a as f32 * (gw.scales()[co] * a_scale) + add;
            out.push(if relu && v < 0.0 { 0.0f32 } else { v }.to_bits());
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Compares every entry with the oracle on both dispatch paths, with and
/// without ReLU, on the process pool and on the pool of `helpers` helpers.
fn assert_exact(
    x: &Tensor,
    qw: &QConv2dWeights,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    helpers: usize,
) {
    let pool = pools()[helpers];
    for scalar in [false, true] {
        let _guard = dispatch(scalar);
        let ctx = format!("scalar={scalar}, {helpers} helpers, {:?} {p:?}", x.shape());
        for relu in [false, true] {
            let want = reference(x, qw, bias, p, relu);
            let got = if relu { qconv2d_relu(x, qw, bias, p) } else { qconv2d(x, qw, bias, p) };
            let (oh, ow) = p.out_hw(x.shape().h(), x.shape().w());
            assert_eq!(got.shape(), &Shape::nchw(x.shape().n(), qw.c_out(), oh, ow));
            assert!(bits(&got) == want, "qconv2d relu={relu}, {ctx}");
            let split = qconv2d_on(pool, x, qw, bias, p, relu);
            assert!(bits(&split) == want, "qconv2d_on relu={relu}, {ctx}");
        }
    }
}

#[test]
fn request_shapes_are_exact() {
    // The int8 layer swarm_tcp runs (above the split threshold, so the
    // process pool takes it), its 2×2 tile, and a K > 256 shape.
    let mut rng = StdRng::seed_from_u64(29);
    for &(n, c, h, w) in &[(1, 8, 96, 96), (1, 8, 48, 48), (1, 32, 28, 28)] {
        let x = Tensor::rand_uniform(Shape::nchw(n, c, h, w), 1.0, &mut rng);
        let wt = Tensor::kaiming(Shape::nchw(c, c, 3, 3), c * 9, &mut rng);
        let b = Tensor::rand_uniform(Shape::d1(c), 0.5, &mut rng);
        assert_exact(&x, &QConv2dWeights::quantize(&wt), Some(&b), Conv2dParams::same(3), 1);
    }
}

#[test]
fn nan_and_signed_zero_inputs_are_exact() {
    // NaN is code 0 and skipped by the absmax; −0.0 is code 0; an all-zero
    // image has scale 1. Bias −0.0 keeps a zero accumulator's sign question
    // open for the epilogue and the ReLU.
    let specials = [f32::NAN, -0.0, 0.0, 1.5, -2.0, 1e-30, -1e-30];
    let data: Vec<f32> = (0..3 * 5 * 19).map(|i| specials[i % specials.len()]).collect();
    let x = Tensor::from_vec(Shape::nchw(1, 3, 5, 19), data);
    let mut rng = StdRng::seed_from_u64(31);
    let wt = Tensor::rand_uniform(Shape::nchw(5, 3, 3, 3), 0.5, &mut rng);
    let b = Tensor::from_vec(Shape::d1(5), vec![-0.0, 0.0, -1e-40, 0.25, -0.25]);
    let qw = QConv2dWeights::quantize(&wt);
    assert_exact(&x, &qw, Some(&b), Conv2dParams::same(3), 2);
    assert_exact(&Tensor::zeros(Shape::nchw(2, 3, 4, 17)), &qw, Some(&b), Conv2dParams::same(3), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_stride1_qconv_is_bit_identical_to_im2col_qgemm(
        n in 1usize..=3,
        c_in in 1usize..=13, c_out in 1usize..=13,
        h in 1usize..=9, w in 1usize..=40,
        k in prop::sample::select(vec![1usize, 3, 5]),
        pad_draw in 0usize..4,
        with_bias in 0usize..2,
        amp in 0.05f32..4.0,
        helpers in 0usize..4,
        seed in 0u64..10_000,
    ) {
        // c_in and c_out not multiples of 4 leave padded channel groups and
        // a partial last weight group; w not a multiple of 16 leaves an edge
        // strip; pad 0..=k/2+1 covers valid, same and over-padded borders.
        let pad = pad_draw % (k / 2 + 2);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let p = Conv2dParams { kernel: k, stride: 1, pad };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(Shape::nchw(n, c_in, h, w), amp, &mut rng);
        let wt = Tensor::rand_uniform(Shape::nchw(c_out, c_in, k, k), 0.5, &mut rng);
        let b: Vec<f32> = (0..c_out).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let b = Tensor::from_vec(Shape::d1(c_out), b);
        let qw = QConv2dWeights::quantize(&wt);
        assert_exact(&x, &qw, (with_bias == 1).then_some(&b), p, helpers);
    }
}
