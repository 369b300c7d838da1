//! Wire protocol for inter-device tensor transfer — the byte-level format
//! the paper's gRPC messages would carry.
//!
//! A frame is: magic `MWIR` · u8 version · u8 bit-width (8/16/32) · u8
//! rank · per-dim u32 sizes · f32 scale (quantized payloads) · u64 payload
//! length · u32 folded-FNV-1a checksum (see `frame_checksum`) · payload.
//! 8/16-bit payloads are *packed* integer codes, so the frame length
//! matches the latency model's
//! [`BitWidth::wire_bytes`](murmuration_tensor::quant::BitWidth::wire_bytes)
//! accounting (± the fixed header).
//!
//! The checksum covers every frame byte except the checksum field itself,
//! so corruption anywhere — header or payload — is detected rather than
//! silently dequantized into garbage activations.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::{Shape, Tensor};

const MAGIC: &[u8; 4] = b"MWIR";
const VERSION: u8 = 2;

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

/// Checksum over every frame byte except the checksum field itself:
/// FNV-1a stepped byte-wise over the short header, then folded four bytes
/// per step over the payload (4x fewer serially-dependent multiplies,
/// which dominate FNV's cost on megabyte activations). Every step — word
/// or byte — is an xor followed by an odd multiply, both invertible mod
/// 2^32, so any single-byte change anywhere always changes the sum, the
/// same guarantee as classic byte-wise FNV-1a.
fn frame_checksum(frame: &[u8], crc_off: usize) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in &frame[..crc_off] {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    let payload = &frame[crc_off + 4..];
    let mut words = payload.chunks_exact(4);
    for w in &mut words {
        h ^= u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        h = h.wrapping_mul(0x0100_0193);
    }
    for &b in words.remainder() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encodes a tensor at the given wire precision.
pub fn encode(t: &Tensor, bits: BitWidth) -> Vec<u8> {
    let dims = &t.shape().0;
    let mut out = Vec::with_capacity(header_bytes(dims.len()) + t.numel() * 4);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(bits.bits() as u8);
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    match bits {
        BitWidth::B32 => {
            out.extend_from_slice(&0f32.to_le_bytes()); // scale unused
            let payload_len = t.numel() * 4;
            out.extend_from_slice(&(payload_len as u64).to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // checksum placeholder

            // Bulk conversion: resize once, then fill fixed-width chunks —
            // this lowers to a straight memcpy on little-endian targets.
            let start = out.len();
            out.resize(start + payload_len, 0);
            for (dst, v) in out[start..].chunks_exact_mut(4).zip(t.data()) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }
        BitWidth::B16 | BitWidth::B8 => {
            let qmax = if bits == BitWidth::B8 { 127.0f32 } else { 32767.0 };
            let absmax = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if absmax == 0.0 { 1.0 } else { absmax / qmax };
            out.extend_from_slice(&scale.to_le_bytes());
            let inv = 1.0 / scale;
            if bits == BitWidth::B8 {
                let payload_len = t.numel();
                out.extend_from_slice(&(payload_len as u64).to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes()); // checksum placeholder
                for &v in t.data() {
                    let c = (v * inv).round().clamp(-qmax, qmax) as i8;
                    out.push(c as u8);
                }
            } else {
                let payload_len = t.numel() * 2;
                out.extend_from_slice(&(payload_len as u64).to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes()); // checksum placeholder
                for &v in t.data() {
                    let c = (v * inv).round().clamp(-qmax, qmax) as i16;
                    out.extend_from_slice(&c.to_le_bytes());
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
        BitWidth::B32 => {
            payload.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
        }
        BitWidth::B16 => payload
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]) as f32 * scale)
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
