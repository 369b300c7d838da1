//! The wire quantizer's libm-free rounding against the formula it replaced.
//!
//! `quant::round_half_away` (scalar) and `simd::encode_half_away_i8` /
//! `_i16` (AVX2) must give exactly the codes of
//! `(x * inv).round().clamp(-qmax, qmax) as i8/i16` — ties away from zero,
//! NaN to 0 — for every f32 input. The tier-1 test covers the edges (every
//! tie up to the i16 range and its neighbours, zeros, infinities, NaNs,
//! subnormals) plus a million seeded bit patterns; the ignored test covers
//! all 2³² inputs:
//!
//! ```text
//! cargo test --release -p murmuration-tensor --test wire_rounding -- --ignored
//! ```
//!
//! Both call the kernels directly, so no test here touches the process-wide
//! scalar override. On a CPU without AVX2 the vector half is skipped.

use murmuration_tensor::quant::round_half_away;
use murmuration_tensor::simd;
use rand::{rngs::StdRng, Rng, SeedableRng};

const WIDTHS: [(f32, usize); 2] = [(127.0, 1), (32767.0, 2)];

/// The formula of the version-2 wire encoder.
fn reference(v: f32, inv: f32, qmax: f32) -> i32 {
    (v * inv).round().clamp(-qmax, qmax) as i32
}

/// Reads packed little-endian codes of `width` bytes back as i32.
fn unpack(bytes: &[u8], width: usize) -> impl Iterator<Item = i32> + '_ {
    bytes.chunks_exact(width).map(move |c| {
        if width == 1 {
            i32::from(c[0] as i8)
        } else {
            i32::from(i16::from_le_bytes([c[0], c[1]]))
        }
    })
}

/// Checks both paths on `data` at `inv`, for both code widths, returning
/// the number of elements checked.
fn check_both_paths(data: &[f32], inv: f32, out: &mut Vec<u8>) -> usize {
    for (qmax, width) in WIDTHS {
        for &v in data {
            let (got, want) = (round_half_away(v * inv, qmax), reference(v, inv, qmax));
            assert_eq!(got, want, "scalar qmax {qmax}: {v:e} ({:#010x}) * {inv}", v.to_bits());
        }
        out.clear();
        out.resize(data.len() * width, 0);
        let ran = if width == 1 {
            simd::encode_half_away_i8(data, inv, qmax, out)
        } else {
            simd::encode_half_away_i16(data, inv, qmax, out)
        };
        if ran {
            for (&v, got) in data.iter().zip(unpack(out, width)) {
                let want = reference(v, inv, qmax);
                assert_eq!(got, want, "AVX2 qmax {qmax}: {v:e} ({:#010x}) * {inv}", v.to_bits());
            }
        }
    }
    data.len()
}

#[test]
fn rounding_matches_round_then_clamp_on_edges_and_random_bits() {
    let mut data = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
    data.push(f32::from_bits(0x7fc0_0001)); // a NaN with a payload
    data.push(f32::from_bits(0xff80_0001)); // a signalling-pattern NaN
    for sub in [f32::from_bits(1), f32::MIN_POSITIVE / 2.0, f32::MIN_POSITIVE.next_down()] {
        data.extend([sub, -sub]);
    }
    for k in -32_768i32..=32_768 {
        for x in [k as f32 - 0.5, k as f32 + 0.5] {
            data.extend([x, x.next_up(), x.next_down()]);
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5EED_0036);
    data.extend((0..1_000_000).map(|_| f32::from_bits(rng.gen::<u32>())));
    let mut out = Vec::new();
    // inv = 1 puts the ties on the scaled values themselves; the others are
    // a B8 scale, and a scale that maps huge inputs back into range.
    for inv in [1.0f32, 127.0 / 3.3, 1e-30] {
        check_both_paths(&data, inv, &mut out);
    }
    // Lengths that leave a scalar tail behind the vector loop.
    for n in 0..20 {
        check_both_paths(&data[1000..1000 + n], 1.0, &mut out);
    }
}

#[test]
#[ignore = "all 2^32 inputs; ≈1 min in release"]
fn rounding_matches_round_then_clamp_on_every_f32() {
    const CHUNK: u64 = 1 << 20;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let chunks = (1u64 << 32) / CHUNK;
    let checked: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let (mut data, mut out, mut n) = (Vec::new(), Vec::new(), 0);
                    for c in (w..chunks).step_by(threads as usize) {
                        data.clear();
                        data.extend((c * CHUNK..(c + 1) * CHUNK).map(|b| f32::from_bits(b as u32)));
                        n += check_both_paths(&data, 1.0, &mut out);
                    }
                    n
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(checked as u64, 1 << 32);
}
