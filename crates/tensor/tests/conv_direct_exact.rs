//! Bit-identity of the stride-1 convolution with im2col + GEMM.
//!
//! The reference is spelled out from public pieces only — [`im2col`] and
//! [`gemm_bias`] per image, then [`relu_inplace`] — and every output of
//! [`conv2d`] / [`conv2d_relu`] must equal it **by `to_bits()`**, on the
//! vector path and on the forced-scalar path. Nothing downstream of a dense
//! convolution (executor parity, training curves, checked-in digests) may
//! move when the kernel behind `conv2d` changes, and this is the test that
//! holds it. Stride-2 cases stay in `simd_parity.rs`'s
//! `prop_conv2d_paths_agree`.
//!
//! The scalar override is process-global, so every test in this binary
//! serialises on one mutex (a separate test binary is a separate process).

use std::sync::{Mutex, MutexGuard};

use murmuration_tensor::activation::relu_inplace;
use murmuration_tensor::conv::{conv2d, conv2d_relu, im2col, Conv2dParams};
use murmuration_tensor::gemm::gemm_bias;
use murmuration_tensor::simd;
use murmuration_tensor::{Shape, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Holds the dispatch override at `scalar` until the guard drops; the next
/// holder sets its own mode first, so nothing needs restoring on a panic.
fn dispatch(scalar: bool) -> MutexGuard<'static, ()> {
    let guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::force_scalar(scalar);
    guard
}

/// The oracle: one unfold and one bias-initialised GEMM per image.
fn reference(x: &Tensor, wt: &Tensor, bias: Option<&Tensor>, p: Conv2dParams) -> Tensor {
    let (n, c_in, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    let c_out = wt.shape().dim(0);
    let (oh, ow) = p.out_hw(h, w);
    let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
    let mut cols = Vec::new();
    for (img, out_img) in
        x.data().chunks_exact(c_in * h * w).zip(out.data_mut().chunks_exact_mut(c_out * oh * ow))
    {
        let (rows, spatial) = im2col(img, c_in, h, w, p, &mut cols);
        gemm_bias(c_out, rows, spatial, wt.data(), &cols, bias.map(|b| b.data()), out_img);
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Compares `conv2d` and `conv2d_relu` with the oracle on both dispatch paths.
fn assert_exact(x: &Tensor, wt: &Tensor, bias: Option<&Tensor>, p: Conv2dParams) {
    for scalar in [false, true] {
        let _guard = dispatch(scalar);
        let mut want = reference(x, wt, bias, p);
        let got = conv2d(x, wt, bias, p);
        assert_eq!(got.shape(), want.shape());
        assert_eq!(bits(&got), bits(&want), "conv2d, scalar={scalar}, {:?} {p:?}", x.shape());
        relu_inplace(&mut want);
        let got = conv2d_relu(x, wt, bias, p);
        assert_eq!(bits(&got), bits(&want), "conv2d_relu, scalar={scalar}, {:?} {p:?}", x.shape());
    }
}

#[test]
fn request_shapes_are_exact() {
    // The layers bench_e2e's workloads run, a K > 256 shape, and a batch.
    let mut rng = StdRng::seed_from_u64(23);
    for &(n, c, h, w) in &[(1, 16, 48, 48), (1, 8, 96, 96), (1, 32, 28, 28), (2, 4, 16, 16)] {
        let x = Tensor::rand_uniform(Shape::nchw(n, c, h, w), 1.0, &mut rng);
        let wt = Tensor::kaiming(Shape::nchw(c, c, 3, 3), c * 9, &mut rng);
        let b = Tensor::rand_uniform(Shape::d1(c), 0.5, &mut rng);
        assert_exact(&x, &wt, Some(&b), Conv2dParams::same(3));
    }
}

#[test]
fn fused_relu_matches_relu_inplace_on_special_values() {
    // 1×1 conv, weight 1e-30, bias −0.0: the products underflow to −0.0 (one
    // rounding, vector path), stay NaN, land on a negative subnormal, or are
    // ordinary — `max(0, v)` must leave exactly what `if v < 0 { 0 }` leaves.
    let specials = [-1e-30f32, f32::NAN, -1e-10, 1e35, -1e31, 0.0, -0.0, 1e-10];
    let w = 21; // one full 16-pixel strip and a partial one
    let data: Vec<f32> = (0..2 * w).map(|i| specials[i % specials.len()]).collect();
    let x = Tensor::from_vec(Shape::nchw(1, 1, 2, w), data);
    let wt = Tensor::full(Shape::nchw(3, 1, 1, 1), 1e-30);
    let b = Tensor::from_vec(Shape::d1(3), vec![-0.0, 0.0, -1e-40]);
    let p = Conv2dParams { kernel: 1, stride: 1, pad: 0 };
    assert_exact(&x, &wt, Some(&b), p);
    let _guard = dispatch(false);
    let y = conv2d_relu(&x, &wt, Some(&b), p);
    assert!(y.data()[1].is_nan(), "NaN must pass through the fused ReLU");
    assert!(y.data().iter().all(|v| v.is_nan() || *v >= 0.0), "no negative survives");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_stride1_conv_is_bit_identical_to_im2col_gemm(
        n in 1usize..3,
        c_small in 1usize..11, c_wide in 20usize..71, wide in 0usize..3,
        c_out in 1usize..11,
        h in 1usize..10, w in 1usize..41,
        k in prop::sample::select(vec![1usize, 3, 5, 7]),
        pad_draw in 0usize..5,
        with_bias in 0usize..2,
        seed in 0u64..10_000,
    ) {
        // A third of the cases are wide enough that c_in·k² crosses KC = 256
        // (up to 13 times at c_in 70, k 7).
        let c_in = if wide == 0 { c_wide } else { c_small };
        let pad = pad_draw % (k / 2 + 2); // 0..=k/2+1
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let p = Conv2dParams { kernel: k, stride: 1, pad };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(Shape::nchw(n, c_in, h, w), 1.0, &mut rng);
        let wt = Tensor::rand_uniform(Shape::nchw(c_out, c_in, k, k), 0.5, &mut rng);
        let b = Tensor::rand_uniform(Shape::d1(c_out), 0.5, &mut rng);
        assert_exact(&x, &wt, (with_bias == 1).then_some(&b), p);
    }
}
