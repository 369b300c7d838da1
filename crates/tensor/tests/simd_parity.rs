//! SIMD-vs-scalar equivalence for the f32 microkernels and bit-exactness for
//! the quantize encode/decode kernels.
//!
//! Each case runs the same operation twice — once with the AVX2 path active,
//! once with the scalar override forced — and compares. f32 kernels are
//! ULP-bounded (FMA contracts one rounding per multiply-add, so a k-long
//! reduction may drift by O(k) ULPs); the integer quantize codes must match
//! bit for bit. On machines without AVX2 both runs take the scalar path and
//! every case passes trivially.
//!
//! The scalar override is process-global, so all tests in this binary
//! serialize on one mutex.

use std::sync::{Mutex, MutexGuard};

use murmuration_tensor::conv::{conv2d, depthwise_conv2d, Conv2dParams};
use murmuration_tensor::gemm::gemm;
use murmuration_tensor::int8::qgemm_tile_portable;
use murmuration_tensor::matvec::{pack_panels, panel_matvec};
use murmuration_tensor::quant::{BitWidth, QuantizedTensor};
use murmuration_tensor::simd::{self, ConvTile, QTaps};
use murmuration_tensor::{Shape, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` twice — vector path, then forced-scalar path — returning both
/// results. Restores auto dispatch even if `f` panics mid-run would poison
/// the mutex (the next test clears it).
fn both_paths<T>(mut f: impl FnMut() -> T) -> (T, T, MutexGuard<'static, ()>) {
    let guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::force_scalar(false);
    let vec_out = f();
    simd::force_scalar(true);
    let scalar_out = f();
    simd::force_scalar(false);
    (vec_out, scalar_out, guard)
}

/// |a-b| within `ulps` float steps at the magnitude of the *summands*, not
/// the result: inputs here are O(1), so intermediate partial sums are O(1)
/// even when the final value cancels to near zero — the floor of 1.0 keeps
/// the bound meaningful under that cancellation.
fn close_ulps(a: f32, b: f32, ulps: f32) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= ulps * scale * f32::EPSILON
}

fn rand_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[test]
fn gemm_paths_agree_on_tile_edge_sizes() {
    // Straddles full tiles, row remainders, column remainders, KC slabs.
    for &(m, k, n) in
        &[(4, 16, 16), (5, 17, 18), (1, 1, 1), (3, 300, 33), (64, 257, 48), (31, 64, 95)]
    {
        let mut rng = StdRng::seed_from_u64((m * 31 + k * 7 + n) as u64);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let (v, s, _g) = both_paths(|| {
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            c
        });
        for (i, (&x, &y)) in v.iter().zip(s.iter()).enumerate() {
            assert!(
                close_ulps(x, y, 4.0 * k as f32),
                "({m},{k},{n}) element {i}: simd {x} vs scalar {y}"
            );
        }
    }
}

#[test]
fn panel_matvec_is_one_serial_chain_per_row_on_both_paths() {
    // Odd and even panel counts, partial last panels, an empty `h`: the
    // vector path pairs panels and leaves an odd tail to the portable loop.
    for &(rows, nx, nh) in
        &[(1, 1, 0), (20, 3, 5), (64, 4, 7), (80, 2, 20), (96, 6, 0), (130, 5, 9), (1024, 20, 256)]
    {
        let mut rng = StdRng::seed_from_u64((rows * 31 + nx * 7 + nh) as u64);
        let k = nx + nh;
        let w = rand_vec(rows * k, &mut rng);
        let (x, h, bias) =
            (rand_vec(nx, &mut rng), rand_vec(nh, &mut rng), rand_vec(rows, &mut rng));
        let packed = pack_panels(rows, k, |r, c| w[r * k + c]);
        let want: Vec<f32> = (0..rows)
            .map(|r| {
                w[r * k..(r + 1) * k]
                    .iter()
                    .zip(x.iter().chain(&h))
                    .fold(bias[r], |a, (w, v)| a + w * v)
            })
            .collect();
        let (v, s, _g) = both_paths(|| {
            let mut out = vec![f32::NAN; rows];
            panel_matvec(simd::simd_active(), &packed, &x, &h, &bias, &mut out);
            bits_of(&out)
        });
        assert_eq!(v, bits_of(&want), "{rows} rows, {nx}+{nh} columns, vector path");
        assert_eq!(s, bits_of(&want), "{rows} rows, {nx}+{nh} columns, portable path");
    }
}

#[test]
fn quantize_codes_are_bit_identical() {
    // Includes exact .5 multiples to pin the ties-even agreement.
    let mut vals: Vec<f32> = (0..3000).map(|i| ((i as f32 * 0.77).sin() - 0.3) * 4.0).collect();
    for (i, v) in vals.iter_mut().enumerate() {
        if i % 7 == 0 {
            *v = (i as f32 / 2.0 - 400.0) * (4.0 / 127.0); // lands on n+0.5 codes
        }
    }
    let t = Tensor::from_vec(Shape::d1(vals.len()), vals);
    for bits in [BitWidth::B8, BitWidth::B16] {
        let (v, s, _g) = both_paths(|| {
            let q = QuantizedTensor::quantize(&t, bits);
            q.dequantize().data().to_vec()
        });
        assert_eq!(v, s, "quantize({bits:?}) round-trip must be bit-identical across paths");
    }
}

#[test]
fn activation_codes_are_bit_identical() {
    let data: Vec<f32> = (0..777).map(|i| ((i as f32 * 1.3).cos() - 0.1) * 2.5).collect();
    let (v, s, _g) = both_paths(|| murmuration_tensor::int8::quantize_activations(&data));
    assert_eq!(v.1, s.1, "activation scale");
    assert_eq!(v.0, s.0, "activation codes must be bit-identical across paths");
}

/// Bit patterns of an f32 slice, so NaN results compare equal to themselves.
fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn quantize_paths_agree_on_nan_inf_and_negative_zero() {
    // A NaN inside the vector main loop must neither reset the running
    // absmax nor become a clamp bound: 100 at 0, NaN at 16, 1 at 32 once
    // gave the vector path a scale from 1.0 and the scalar path one from 100.
    let mut finite: Vec<f32> = (0..67).map(|i| ((i as f32 * 0.9).sin() - 0.2) * 0.9).collect();
    finite[0] = 100.0;
    finite[16] = f32::NAN;
    finite[32] = 1.0;
    finite[5] = -0.0;
    finite[41] = -f32::NAN;
    finite[63] = f32::NAN;
    let mut infinite = finite.clone();
    infinite[9] = f32::INFINITY;
    infinite[50] = f32::NEG_INFINITY;
    let all_nan = vec![f32::NAN; 20];
    for data in [&finite, &infinite, &all_nan] {
        let scalar_absmax = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if let Some(m) = simd::absmax(data) {
            assert_eq!(m.to_bits(), scalar_absmax.to_bits(), "absmax skips NaN");
        }
        let t = Tensor::from_vec(Shape::d1(data.len()), data.clone());
        for bits in [BitWidth::B8, BitWidth::B16] {
            let (v, s, _g) =
                both_paths(|| bits_of(QuantizedTensor::quantize(&t, bits).dequantize().data()));
            assert_eq!(v, s, "quantize({bits:?}) across paths");
        }
        let (v, s, _g) = both_paths(|| murmuration_tensor::int8::quantize_activations(data));
        assert_eq!(v.1.to_bits(), s.1.to_bits(), "activation scale");
        assert_eq!(v.0, s.0, "activation codes across paths");
    }
    // With a finite scale, NaN codes to 0 and the scale comes from 100.
    let (codes, scale) = murmuration_tensor::int8::quantize_activations(&finite);
    assert_eq!(scale, 100.0 / 127.0);
    assert_eq!((codes[16], codes[41], codes[63], codes[5]), (0, 0, 0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_gemm_paths_agree(
        m in 1usize..24, k in 1usize..48, n in 1usize..40, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let (v, s, _g) = both_paths(|| {
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            c
        });
        for (x, y) in v.iter().zip(s.iter()) {
            prop_assert!(close_ulps(*x, *y, 4.0 * k as f32), "{x} vs {y} (k={k})");
        }
    }

    #[test]
    fn prop_conv2d_paths_agree(
        c_in in 1usize..4, c_out in 1usize..5,
        h in 3usize..10, w in 3usize..10,
        k in prop::sample::select(vec![1usize, 3, 5]),
        s in 1usize..3, seed in 0u64..1000,
    ) {
        let pad = k / 2;
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let p = Conv2dParams { kernel: k, stride: s, pad };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(Shape::nchw(2, c_in, h, w), 1.0, &mut rng);
        let wt = Tensor::rand_uniform(Shape::nchw(c_out, c_in, k, k), 0.5, &mut rng);
        let b = Tensor::rand_uniform(Shape::d1(c_out), 0.5, &mut rng);
        let (v, sres, _g) = both_paths(|| conv2d(&x, &wt, Some(&b), p).data().to_vec());
        let red = c_in * k * k;
        for (a, bb) in v.iter().zip(sres.iter()) {
            prop_assert!(close_ulps(*a, *bb, 8.0 * red as f32), "{a} vs {bb}");
        }
    }

    #[test]
    fn prop_depthwise_paths_agree(
        c in 1usize..5, h in 3usize..14, dw in 0usize..4,
        k in prop::sample::select(vec![3usize, 5]),
        s in 1usize..3, seed in 0u64..1000,
    ) {
        let w = h + dw;
        let pad = k / 2;
        let p = Conv2dParams { kernel: k, stride: s, pad };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(Shape::nchw(1, c, h, w), 1.0, &mut rng);
        let wt = Tensor::rand_uniform(Shape::nchw(c, 1, k, k), 0.5, &mut rng);
        let (v, sres, _g) = both_paths(|| depthwise_conv2d(&x, &wt, None, p).data().to_vec());
        for (a, bb) in v.iter().zip(sres.iter()) {
            prop_assert!(close_ulps(*a, *bb, 8.0 * (k * k) as f32), "{a} vs {bb}");
        }
    }

    #[test]
    fn prop_quantize_codes_bit_identical(
        vals in prop::collection::vec(-8.0f32..8.0, 1..300),
    ) {
        let t = Tensor::from_vec(Shape::d1(vals.len()), vals);
        let (v, s, _g) = both_paths(|| {
            QuantizedTensor::quantize(&t, BitWidth::B8).dequantize().data().to_vec()
        });
        prop_assert_eq!(v, s);
    }
}

/// Values that a fused ReLU must pass or clear exactly as `if v < 0 { 0 }`:
/// signed zeros, NaN, a negative subnormal, and magnitudes whose products
/// with a 1e-30 weight underflow.
const RELU_SPECIALS: [f32; 8] = [-0.0, 0.0, f32::NAN, -1e-40, -1e-30, 1e-10, -1e-10, 1e35];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_conv_tile_8x16_is_two_4x16_tiles(
        c_in in 1usize..41,
        k in prop::sample::select(vec![1usize, 3, 5]),
        extra_w in 0usize..9, extra_h in 0usize..3,
        relu in 0usize..2, specials in 0usize..3,
        seed in 0u64..10_000,
    ) {
        if !simd::detected_avx512() {
            eprintln!("skipped: no AVX-512F on this CPU, so conv_tile_8x16 has no kernel");
            return Ok(());
        }
        // c_in up to 40 at k 3 or 5 crosses KC = 256 (up to 3 slabs); a
        // third of the draws feed the ReLU specials with 1e-30 weights.
        let (pw, ph) = (k - 1 + 16 + extra_w, k + extra_h);
        let t = ConvTile { c_in, k, plane: ph * pw, pw, relu: relu == 1 };
        let taps = c_in * k * k;
        let mut rng = StdRng::seed_from_u64(seed);
        let special = specials == 0;
        let img: Vec<f32> = (0..c_in * t.plane)
            .map(|i| match special && i % 3 != 0 {
                true => RELU_SPECIALS[rng.gen_range(0..8)],
                false => rng.gen_range(-1.0..1.0),
            })
            .collect();
        let wg8: Vec<f32> = (0..8 * taps)
            .map(|_| match special {
                true => 1e-30 * rng.gen_range(-1.0f32..1.0).signum(),
                false => rng.gen_range(-0.5..0.5),
            })
            .collect();
        let bias8: [f32; 8] = std::array::from_fn(|r| {
            if special { [-0.0, 0.0, -1e-40][r % 3] } else { rng.gen_range(-0.5..0.5) }
        });
        // The same groups as two 4-row halves `[tap][4]`.
        let half = |h: usize| -> Vec<f32> {
            wg8.chunks_exact(8).flat_map(|tap| tap[4 * h..4 * h + 4].to_vec()).collect()
        };
        let mut wide = [[0.0f32; 16]; 8];
        prop_assert!(simd::conv_tile_8x16(t, &img, &wg8, &bias8, &mut wide.each_mut()));
        let mut narrow = [[[0.0f32; 16]; 4]; 2];
        for (h, rows) in narrow.iter_mut().enumerate() {
            let bias: [f32; 4] = std::array::from_fn(|r| bias8[4 * h + r]);
            prop_assert!(simd::conv_tile_16(t, &img, &half(h), &bias, &mut rows.each_mut()));
        }
        for (r, (a, b)) in wide.iter().zip(narrow.as_flattened()).enumerate() {
            prop_assert!(bits_of(a) == bits_of(b), "channel {r}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn prop_qgemm_tile_16_offsets_match_the_portable_tile(
        c_groups in 1usize..6,
        k in prop::sample::select(vec![1usize, 3, 5]),
        extra_w in 0usize..9, extra_h in 0usize..3,
        walk in 0usize..4, seed in 0u64..10_000,
    ) {
        if !simd::detected() {
            eprintln!("skipped: no AVX2 on this CPU, so qgemm_tile_16 has no kernel");
            return Ok(());
        }
        // Three draws in four walk a padded conv image from a tile origin
        // (unaligned 4-byte pixel steps, row and plane pitches); the fourth
        // walks a packed panel of as many groups. Source bytes span all of
        // 0..=255 and weights the ±63 bound, so on a CPU without AVX-VNNI
        // the maddubs kernel's i16 pair sums reach their worst case.
        let taps = match walk {
            0 => QTaps::panel(c_groups * k * k),
            _ => QTaps::conv(c_groups, k, k + extra_h, k - 1 + 16 + extra_w),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<u8> = (0..taps.span()).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let w: Vec<i8> =
            (0..4 * taps.groups() * 4).map(|_| rng.gen_range(-63i32..64) as i8).collect();
        let row_len = taps.groups() * 4;
        let rows: [&[i8]; 4] = std::array::from_fn(|r| &w[r * row_len..][..row_len]);
        let mut vector = [[0i32; 16]; 4];
        prop_assert!(simd::qgemm_tile_16(taps, &rows, &src, &mut vector));
        let mut portable = [[7i32; 16]; 4];
        qgemm_tile_portable(taps, &rows, &src, &mut portable);
        prop_assert_eq!(vector, portable);
    }
}
