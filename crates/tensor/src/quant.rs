//! Symmetric feature-map quantization with exact wire-size accounting.
//!
//! Murmuration's search space includes the bit-width used to transmit
//! intermediate feature maps between devices (32 → 16 → 8 bits). Quantizing
//! shrinks transfer volume proportionally at a small accuracy cost. This
//! module implements the actual quantize/dequantize kernels so the executor
//! can round-trip real activations, plus the byte accounting used by the
//! latency estimator.

use crate::simd;
use crate::tensor::Tensor;

/// Wire bit-width for inter-device feature-map transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BitWidth {
    /// Raw f32 — no quantization.
    B32,
    /// Symmetric 16-bit integer quantization.
    B16,
    /// Symmetric 8-bit integer quantization.
    B8,
}

impl BitWidth {
    /// Bits per element on the wire.
    pub fn bits(self) -> usize {
        match self {
            BitWidth::B32 => 32,
            BitWidth::B16 => 16,
            BitWidth::B8 => 8,
        }
    }

    /// Bytes needed to ship `numel` elements (plus the 4-byte scale for
    /// quantized payloads).
    pub fn wire_bytes(self, numel: usize) -> usize {
        let payload = (numel * self.bits()).div_ceil(8);
        match self {
            BitWidth::B32 => payload,
            _ => payload + 4, // scale factor travels with the tensor
        }
    }

    /// The paper's quantization search space, widest first.
    pub fn search_space() -> Vec<BitWidth> {
        vec![BitWidth::B32, BitWidth::B16, BitWidth::B8]
    }
}

/// The wire's code for one scaled value: `x.round().clamp(-qmax, qmax) as
/// i32` (ties away from zero, NaN → 0), computed without a libm call.
///
/// Clamps first, truncates, then steps by ±1 when the exact remainder
/// `c − trunc(c)` reaches ±0.5. For an integer `qmax < 2²³` every step is
/// exact: clamping commutes with rounding to an integer bound, the clamped
/// value fits `i32`, and the remainder of a float and its truncation is
/// representable. NaN survives the clamp, truncates to 0 and compares
/// false, so it codes to 0 as `as` does. [`crate::simd::encode_half_away_i8`]
/// and [`crate::simd::encode_half_away_i16`] are its vector twins.
#[inline]
pub fn round_half_away(x: f32, qmax: f32) -> i32 {
    let c = x.clamp(-qmax, qmax);
    let t = c as i32;
    let r = c - t as f32;
    // Branch-free, so loops over it vectorise.
    t + i32::from(r >= 0.5) - i32::from(r <= -0.5)
}

/// The symmetric scale `max|x| / qmax` of `data` (1.0 for an all-zero
/// input), NaN skipped. The absmax runs on the AVX2 reduction when
/// `use_simd` (the caller's one [`simd::simd_active`] reading for the whole
/// operation), else as a scalar fold; the two agree bit for bit.
pub fn symmetric_scale(data: &[f32], qmax: f32, use_simd: bool) -> f32 {
    let absmax = if use_simd { simd::absmax(data) } else { None }
        .unwrap_or_else(|| data.iter().fold(0.0f32, |m, &v| m.max(v.abs())));
    if absmax == 0.0 {
        1.0
    } else {
        absmax / qmax
    }
}

/// A quantized feature map as it would travel on the wire.
#[derive(Clone, Debug)]
pub struct QuantizedTensor {
    /// Integer codes, stored widened; the wire format packs them to
    /// [`BitWidth::bits`] bits.
    codes: Vec<i32>,
    scale: f32,
    bits: BitWidth,
    shape: crate::shape::Shape,
}

impl QuantizedTensor {
    /// Quantizes symmetrically: `code = round_ties_even(clamp(x / scale))`
    /// with `scale = max|x| / qmax`.
    ///
    /// Both passes (absmax reduction, encode) dispatch to the AVX2 kernels in
    /// [`crate::simd`] when available; the scalar fallback uses the same
    /// clamp-then-round-to-nearest-even formula, so the two paths produce
    /// bit-identical codes (`vcvtps2dq` rounds half-to-even, exactly like
    /// `f32::round_ties_even`).
    pub fn quantize(t: &Tensor, bits: BitWidth) -> Self {
        assert_ne!(bits, BitWidth::B32, "use the raw path for 32-bit transfer");
        let qmax = match bits {
            BitWidth::B8 => 127.0f32,
            BitWidth::B16 => 32767.0,
            BitWidth::B32 => unreachable!(),
        };
        let data = t.data();
        let use_simd = simd::simd_active();
        let scale = symmetric_scale(data, qmax, use_simd);
        let inv = 1.0 / scale;
        let mut codes = vec![0i32; data.len()];
        if !(use_simd && simd::encode_i32(data, inv, qmax, &mut codes)) {
            for (c, &v) in codes.iter_mut().zip(data.iter()) {
                *c = ((v * inv).clamp(-qmax, qmax)).round_ties_even() as i32;
            }
        }
        QuantizedTensor { codes, scale, bits, shape: t.shape().clone() }
    }

    /// Reconstructs the f32 tensor. Both paths fill the output allocation in
    /// a single pass (no zero prefill — the decode is bandwidth-bound).
    pub fn dequantize(&self) -> Tensor {
        let scale = self.scale;
        let data =
            if simd::simd_active() { simd::dequant_i32_vec(&self.codes, scale) } else { None }
                .unwrap_or_else(|| self.codes.iter().map(|&c| c as f32 * scale).collect());
        Tensor::from_vec(self.shape.clone(), data)
    }

    /// Exact wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.bits.wire_bytes(self.codes.len())
    }

    /// The bit-width this tensor was quantized to.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// Worst-case absolute reconstruction error (half a quantization step).
    pub fn max_abs_error_bound(&self) -> f32 {
        self.scale * 0.5
    }
}

/// Quantize→dequantize round trip, as the receiving device would see the
/// tensor. `B32` is the identity.
pub fn simulate_wire_roundtrip(t: &Tensor, bits: BitWidth) -> Tensor {
    match bits {
        BitWidth::B32 => t.clone(),
        _ => QuantizedTensor::quantize(t, bits).dequantize(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn wire_bytes_scale_with_bits() {
        assert_eq!(BitWidth::B32.wire_bytes(100), 400);
        assert_eq!(BitWidth::B16.wire_bytes(100), 204);
        assert_eq!(BitWidth::B8.wire_bytes(100), 104);
        // Odd element counts round up whole bytes.
        assert_eq!(BitWidth::B8.wire_bytes(3), 7);
    }

    #[test]
    fn roundtrip_error_within_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::rand_uniform(Shape::nchw(1, 4, 8, 8), 5.0, &mut rng);
        for bits in [BitWidth::B8, BitWidth::B16] {
            let q = QuantizedTensor::quantize(&t, bits);
            let r = q.dequantize();
            let bound = q.max_abs_error_bound() + 1e-6;
            for (a, b) in t.data().iter().zip(r.data().iter()) {
                assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
            }
        }
    }

    #[test]
    fn sixteen_bit_is_tighter_than_eight() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor::rand_uniform(Shape::d1(1000), 3.0, &mut rng);
        let e8: f32 = {
            let r = simulate_wire_roundtrip(&t, BitWidth::B8);
            t.data().iter().zip(r.data().iter()).map(|(a, b)| (a - b).abs()).sum()
        };
        let e16: f32 = {
            let r = simulate_wire_roundtrip(&t, BitWidth::B16);
            t.data().iter().zip(r.data().iter()).map(|(a, b)| (a - b).abs()).sum()
        };
        assert!(e16 < e8 / 10.0, "16-bit ({e16}) must beat 8-bit ({e8})");
    }

    #[test]
    fn large_tensor_vector_path_round_trips() {
        // Large enough that the AVX2 absmax/encode main loops (not just the
        // scalar tails) do the bulk of the work; the error bound must hold.
        let n = 20_000;
        let vals: Vec<f32> = (0..n).map(|i| ((i % 255) as f32 - 127.0) / 16.0).collect();
        let t = Tensor::from_vec(Shape::d1(n), vals);
        let q = QuantizedTensor::quantize(&t, BitWidth::B8);
        let r = q.dequantize();
        let bound = q.max_abs_error_bound() + 1e-6;
        for (a, b) in t.data().iter().zip(r.data().iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_tensor_round_trips() {
        let t = Tensor::zeros(Shape::d1(16));
        let q = QuantizedTensor::quantize(&t, BitWidth::B8);
        assert_eq!(q.dequantize().data(), t.data());
    }

    #[test]
    fn b32_roundtrip_is_identity() {
        let t = Tensor::from_vec(Shape::d1(3), vec![1.5, -2.25, 0.0]);
        let r = simulate_wire_roundtrip(&t, BitWidth::B32);
        assert_eq!(r.data(), t.data());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_quant_error_bounded(vals in prop::collection::vec(-10.0f32..10.0, 1..200)) {
            let n = vals.len();
            let t = Tensor::from_vec(Shape::d1(n), vals);
            let q = QuantizedTensor::quantize(&t, BitWidth::B8);
            let r = q.dequantize();
            let bound = q.max_abs_error_bound() + 1e-5;
            for (a, b) in t.data().iter().zip(r.data().iter()) {
                prop_assert!((a - b).abs() <= bound);
            }
        }

        #[test]
        fn prop_wire_bytes_monotone_in_bits(n in 1usize..10_000) {
            prop_assert!(BitWidth::B8.wire_bytes(n) <= BitWidth::B16.wire_bytes(n));
            prop_assert!(BitWidth::B16.wire_bytes(n) <= BitWidth::B32.wire_bytes(n) + 4);
        }
    }
}
