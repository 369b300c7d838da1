//! Wire protocol for inter-device tensor transfer — the byte-level format
//! the paper's gRPC messages would carry.
//!
//! A frame (version 3) is: magic `MWIR` · u8 version · u8 bit-width
//! (8/16/32) · u8 rank · per-dim u32 sizes · f32 scale (quantized payloads)
//! · u64 payload length · u32 lane-FNV-1a checksum (see `frame_checksum`)
//! · payload. 8/16-bit payloads are *packed* integer codes, so the frame
//! length matches the latency model's
//! [`BitWidth::wire_bytes`](murmuration_tensor::quant::BitWidth::wire_bytes)
//! accounting (± the fixed header). A code is [`round_half_away`]`(x /
//! scale, qmax)` with `scale = max|x| / qmax`: ties away from zero, NaN → 0,
//! the same codes on the scalar and AVX2 paths.
//!
//! The checksum covers every frame byte except the checksum field itself,
//! so corruption anywhere — header or payload — is detected rather than
//! silently dequantized into garbage activations. Version 3 changed only
//! the checksum's definition (the payload is summed in 64 independent
//! lanes, so it vectorises); a version-2 frame is rejected as "bad
//! version" before any checksum is compared.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use murmuration_tensor::quant::{round_half_away, symmetric_scale, BitWidth};
use murmuration_tensor::{simd, Shape, Tensor};

const MAGIC: &[u8; 4] = b"MWIR";
/// Frame format version, byte 4 of every frame.
pub const VERSION: u8 = 3;

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;
/// Independent FNV chains over the payload: lane `i` takes the payload's
/// little-endian words `i mod LANES`, one 256-byte block per round.
const LANES: usize = 64;

/// Frame decode errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Not a frame, wrong version, or inconsistent lengths.
    Malformed(&'static str),
    /// Structurally valid frame whose bytes were corrupted in transit.
    Checksum { expect: u32, got: u32 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Checksum { expect, got } => {
                write!(f, "frame checksum mismatch: expect {expect:#010x}, got {got:#010x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Byte offset of the u32 checksum field for a tensor of rank `r`
/// (just after the payload-length field).
fn checksum_offset(rank: usize) -> usize {
    4 + 1 + 1 + 1 + 4 * rank + 4 + 8
}

/// Serialized frame header size for a tensor of rank `r`.
pub fn header_bytes(rank: usize) -> usize {
    checksum_offset(rank) + 4
}

/// One FNV-1a step: an xor, then a multiply by an odd constant. Both are
/// bijections of `h` mod 2^32 for a fixed input, and of the input for a
/// fixed `h`.
#[inline]
fn fnv_step(h: u32, x: u32) -> u32 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Checksum over every frame byte except the checksum field itself.
///
/// The short header is FNV-1a stepped byte-wise. The payload's whole
/// 256-byte blocks feed `LANES` independent FNV-1a chains, word `j` of a
/// block into lane `j`, so the multiplies of one block do not wait on each
/// other and the loop vectorises; the lanes are then folded into the sum
/// in order by ordinary FNV steps, and the trailing words and bytes follow
/// on the serial chain. Every step is an xor and an odd multiply, so a
/// change to any single byte changes its lane (or the chain) at that step,
/// and every later step carries the change through: a one-byte corruption
/// anywhere always changes the sum, as with classic byte-wise FNV-1a.
fn frame_checksum(frame: &[u8], crc_off: usize) -> u32 {
    let mut h = frame[..crc_off].iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, u32::from(b)));
    let (blocks, rest) = frame[crc_off + 4..].as_chunks::<{ 4 * LANES }>();
    let mut lanes = [FNV_OFFSET; LANES];
    for block in blocks {
        for (lane, w) in lanes.iter_mut().zip(block.as_chunks::<4>().0) {
            *lane = fnv_step(*lane, u32::from_le_bytes(*w));
        }
    }
    h = lanes.iter().fold(h, |h, &lane| fnv_step(h, lane));
    let (words, bytes) = rest.as_chunks::<4>();
    h = words.iter().fold(h, |h, w| fnv_step(h, u32::from_le_bytes(*w)));
    bytes.iter().fold(h, |h, &b| fnv_step(h, u32::from(b)))
}

/// Encodes a tensor at the given wire precision.
pub fn encode(t: &Tensor, bits: BitWidth) -> Vec<u8> {
    let dims = &t.shape().0;
    let data = t.data();
    let frame_len = frame_bytes(data.len(), dims.len(), bits);
    let mut out = Vec::with_capacity(frame_len);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(bits.bits() as u8);
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    // One dispatch decision for the whole operation (absmax and encode).
    let use_simd = simd::simd_active();
    let qmax = if bits == BitWidth::B8 { 127.0f32 } else { 32767.0 };
    let scale = match bits {
        BitWidth::B32 => 0.0, // unused
        BitWidth::B16 | BitWidth::B8 => symmetric_scale(data, qmax, use_simd),
    };
    out.extend_from_slice(&scale.to_le_bytes());
    let start = header_bytes(dims.len());
    out.extend_from_slice(&((frame_len - start) as u64).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // checksum placeholder
    out.resize(frame_len, 0);
    let payload = &mut out[start..];
    let inv = 1.0 / scale;
    match bits {
        // Array chunks (`as_chunks`, not `chunks_exact`): with the width in
        // the type this lowers to a straight copy on little-endian targets;
        // a byte-indexed `chunks_exact` loop compiles to a byte loop.
        BitWidth::B32 => {
            for (dst, v) in payload.as_chunks_mut::<4>().0.iter_mut().zip(data) {
                *dst = v.to_le_bytes();
            }
        }
        BitWidth::B16 => {
            if !(use_simd && simd::encode_half_away_i16(data, inv, qmax, payload)) {
                for (dst, &v) in payload.as_chunks_mut::<2>().0.iter_mut().zip(data) {
                    *dst = (round_half_away(v * inv, qmax) as i16).to_le_bytes();
                }
            }
        }
        BitWidth::B8 => {
            if !(use_simd && simd::encode_half_away_i8(data, inv, qmax, payload)) {
                for (dst, &v) in payload.iter_mut().zip(data) {
                    *dst = round_half_away(v * inv, qmax) as i8 as u8;
                }
            }
        }
    }
    let crc_off = checksum_offset(dims.len());
    let crc = frame_checksum(&out, crc_off);
    out[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a frame back into a tensor (dequantizing packed payloads).
pub fn decode(frame: &[u8]) -> Result<Tensor, WireError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], WireError> {
        if *pos + n > frame.len() {
            return Err(WireError::Malformed("truncated"));
        }
        let s = &frame[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err(WireError::Malformed("bad magic"));
    }
    if take(&mut pos, 1)?[0] != VERSION {
        return Err(WireError::Malformed("bad version"));
    }
    let bits = match take(&mut pos, 1)?[0] {
        8 => BitWidth::B8,
        16 => BitWidth::B16,
        32 => BitWidth::B32,
        _ => return Err(WireError::Malformed("bad bit width")),
    };
    let rank = take(&mut pos, 1)?[0] as usize;
    if rank == 0 || rank > 4 {
        return Err(WireError::Malformed("bad rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let b = take(&mut pos, 4)?;
        dims.push(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize);
    }
    let numel: usize = dims.iter().product();
    if numel > 1 << 28 {
        return Err(WireError::Malformed("absurd tensor size"));
    }
    let sb = take(&mut pos, 4)?;
    let scale = f32::from_le_bytes([sb[0], sb[1], sb[2], sb[3]]);
    let lb = take(&mut pos, 8)?;
    let payload_len =
        u64::from_le_bytes([lb[0], lb[1], lb[2], lb[3], lb[4], lb[5], lb[6], lb[7]]) as usize;
    let expect = match bits {
        BitWidth::B32 => numel * 4,
        BitWidth::B16 => numel * 2,
        BitWidth::B8 => numel,
    };
    if payload_len != expect {
        return Err(WireError::Malformed("payload length mismatch"));
    }
    let crc_off = pos;
    let cb = take(&mut pos, 4)?;
    let got_crc = u32::from_le_bytes([cb[0], cb[1], cb[2], cb[3]]);
    let payload = take(&mut pos, payload_len)?;
    if pos != frame.len() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    let want_crc = frame_checksum(frame, crc_off);
    if got_crc != want_crc {
        return Err(WireError::Checksum { expect: want_crc, got: got_crc });
    }
    let data: Vec<f32> = match bits {
        // Array chunks, as in `encode`, so the B32 loop compiles to a copy.
        BitWidth::B32 => {
            payload.as_chunks::<4>().0.iter().map(|&c| f32::from_le_bytes(c)).collect()
        }
        BitWidth::B16 => payload
            .as_chunks::<2>()
            .0
            .iter()
            .map(|&c| i16::from_le_bytes(c) as f32 * scale)
            .collect(),
        BitWidth::B8 => payload.iter().map(|&b| b as i8 as f32 * scale).collect(),
    };
    Ok(Tensor::from_vec(Shape(dims), data))
}

/// Exact frame length for a tensor of `numel` elements / rank `rank` at
/// `bits` — the quantity the latency model charges (header excluded there;
/// it is a constant few dozen bytes).
pub fn frame_bytes(numel: usize, rank: usize, bits: BitWidth) -> usize {
    let payload = match bits {
        BitWidth::B32 => numel * 4,
        BitWidth::B16 => numel * 2,
        BitWidth::B8 => numel,
    };
    header_bytes(rank) + payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn sample() -> Tensor {
        let mut rng = StdRng::seed_from_u64(5);
        Tensor::rand_uniform(Shape::nchw(1, 3, 6, 7), 4.0, &mut rng)
    }

    #[test]
    fn b32_round_trip_is_exact() {
        let t = sample();
        let frame = encode(&t, BitWidth::B32);
        let back = decode(&frame).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.data(), t.data());
        assert_eq!(frame.len(), frame_bytes(t.numel(), 4, BitWidth::B32));
    }

    #[test]
    fn quantized_round_trips_within_bound() {
        let t = sample();
        for bits in [BitWidth::B8, BitWidth::B16] {
            let frame = encode(&t, bits);
            assert_eq!(frame.len(), frame_bytes(t.numel(), 4, bits));
            let back = decode(&frame).unwrap();
            let qmax = if bits == BitWidth::B8 { 127.0 } else { 32767.0 };
            let absmax = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let bound = absmax / qmax * 0.5 + 1e-6;
            for (a, b) in t.data().iter().zip(back.data()) {
                assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
            }
        }
    }

    #[test]
    fn packed_payload_matches_latency_model_accounting() {
        // The B8 frame must be ~4x smaller than the B32 frame — the ratio
        // the estimator's wire_bytes math assumes.
        let t = sample();
        let b32 = encode(&t, BitWidth::B32).len();
        let b8 = encode(&t, BitWidth::B8).len();
        let ratio = b32 as f64 / b8 as f64;
        assert!(ratio > 3.0, "packing ratio {ratio}");
    }

    #[test]
    fn rejects_malformed_frames() {
        let t = sample();
        let good = encode(&t, BitWidth::B8);
        assert!(decode(b"nope").is_err());
        assert!(decode(&good[..good.len() - 1]).is_err(), "truncated");
        let mut extra = good.clone();
        extra.push(0);
        assert!(decode(&extra).is_err(), "trailing bytes");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode(&bad_magic).is_err());
        let mut bad_bits = good.clone();
        bad_bits[5] = 7;
        assert!(decode(&bad_bits).is_err());
        let mut bad_len = good;
        // Corrupt the payload-length field (little-endian u64 after
        // magic+ver+bits+rank+dims+scale).
        let len_off = 4 + 1 + 1 + 1 + 4 * 4 + 4;
        bad_len[len_off] ^= 0xff;
        assert!(decode(&bad_len).is_err());
    }

    #[test]
    fn detects_corrupted_payload_bytes() {
        let t = sample();
        for bits in [BitWidth::B8, BitWidth::B16, BitWidth::B32] {
            let good = encode(&t, bits);
            assert!(decode(&good).is_ok());
            // Garble one payload byte: structure is intact, so only the
            // checksum can catch it.
            let mut bad = good.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x55;
            match decode(&bad) {
                Err(WireError::Checksum { .. }) => {}
                other => panic!("expected checksum error, got {other:?}"),
            }
            // Garbling the stored checksum itself is also detected.
            let mut bad_crc = good;
            let crc_off = header_bytes(4) - 4;
            bad_crc[crc_off] ^= 0xff;
            assert!(matches!(decode(&bad_crc), Err(WireError::Checksum { .. })));
        }
    }

    #[test]
    fn decode_never_panics_on_fuzzed_bytes() {
        // Random buffers and bit-flipped valid frames must produce errors,
        // not panics or absurd allocations.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xF00D);
        for _ in 0..200 {
            let n = rng.gen_range(0..200);
            let buf: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            let _ = decode(&buf);
        }
        let good = encode(&sample(), BitWidth::B16);
        for _ in 0..200 {
            let mut b = good.clone();
            let i = rng.gen_range(0..b.len());
            b[i] ^= 1 << rng.gen_range(0..8);
            let _ = decode(&b); // must not panic; may error or round-trip
        }
    }

    /// The v2 encoder's code formula, kept as the reference the libm-free
    /// quantizer must match bit for bit.
    fn v2_code(v: f32, inv: f32, qmax: f32) -> i32 {
        (v * inv).round().clamp(-qmax, qmax) as i32
    }

    #[test]
    fn quantized_codes_match_the_v2_formula() {
        // Exact halves (ties), their neighbours, signed zeros, NaN and
        // values past the absmax-derived scale's range, on whichever path
        // dispatch picks (the scalar-forced test run covers the other).
        let mut vals = vec![0.0f32, -0.0, f32::NAN, 127.0, -127.0, 1e-40, -1e-40];
        for k in -130..=130 {
            let x = k as f32 + 0.5;
            vals.extend([x, x.next_up(), x.next_down(), k as f32]);
        }
        let t = Tensor::from_vec(Shape::d1(vals.len()), vals.clone());
        for (bits, qmax, width) in [(BitWidth::B8, 127.0f32, 1), (BitWidth::B16, 32767.0, 2)] {
            let frame = encode(&t, bits);
            let hb = header_bytes(1);
            let sb = &frame[hb - 16..hb - 12];
            let scale = f32::from_le_bytes([sb[0], sb[1], sb[2], sb[3]]);
            assert_eq!(scale, vals.iter().fold(0.0f32, |m, &v| m.max(v.abs())) / qmax);
            let inv = 1.0 / scale;
            for (i, (code, &v)) in frame[hb..].chunks_exact(width).zip(&vals).enumerate() {
                let got = if width == 1 {
                    i32::from(code[0] as i8)
                } else {
                    i32::from(i16::from_le_bytes([code[0], code[1]]))
                };
                assert_eq!(got, v2_code(v, inv, qmax), "{bits:?} element {i} ({v:e})");
            }
            decode(&frame).unwrap();
        }
        // A 1.0 scale makes the halves themselves the scaled values.
        let halves: Vec<f32> = (-127..127).map(|k| k as f32 + 0.5).chain([127.0]).collect();
        let t = Tensor::from_vec(Shape::d1(halves.len()), halves.clone());
        let frame = encode(&t, BitWidth::B8);
        for (&c, &v) in frame[header_bytes(1)..].iter().zip(&halves) {
            assert_eq!(i32::from(c as i8), v2_code(v, 1.0, 127.0), "{v}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        // Element counts whose payloads end mid-block (and, for 8 and 16
        // bits, mid-word), so the flips hit the header, the checksum field,
        // the lanes, the trailing words and the trailing bytes.
        let mut rng = StdRng::seed_from_u64(36);
        for (bits, numel) in [(BitWidth::B8, 333), (BitWidth::B16, 333), (BitWidth::B32, 333)] {
            let t = Tensor::rand_uniform(Shape::nchw(1, 1, 9, numel / 9), 3.0, &mut rng);
            let good = encode(&t, bits);
            assert_ne!((good.len() - header_bytes(4)) % 256, 0);
            assert!(decode(&good).is_ok());
            let mut frame = good.clone();
            for pos in 0..frame.len() {
                for mask in [0x01u8, 0x80, 0xFF, 0x5A] {
                    frame[pos] ^= mask;
                    match decode(&frame) {
                        Err(WireError::Checksum { .. } | WireError::Malformed(_)) => {}
                        Ok(_) => panic!("{bits:?}: byte {pos} ^= {mask:#04x} went undetected"),
                    }
                    frame[pos] ^= mask;
                }
            }
            assert_eq!(frame, good);
        }
    }

    #[test]
    fn version_two_frames_fail_as_bad_version() {
        let mut frame = encode(&sample(), BitWidth::B32);
        frame[4] = 2;
        assert_eq!(decode(&frame).unwrap_err(), WireError::Malformed("bad version"));
    }

    #[test]
    fn zero_tensor_and_scalar_shapes() {
        let z = Tensor::zeros(Shape::d1(5));
        let back = decode(&encode(&z, BitWidth::B8)).unwrap();
        assert_eq!(back.data(), z.data());
        let m = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, -2.0, 3.0, -4.0]);
        let back = decode(&encode(&m, BitWidth::B16)).unwrap();
        assert_eq!(back.shape(), m.shape());
    }
}
