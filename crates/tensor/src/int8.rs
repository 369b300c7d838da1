//! End-to-end int8 compute path: quantized GEMM and a direct stride-1
//! convolution, both with i32 accumulation and a fused epilogue.
//!
//! The wire quantization in [`crate::quant`] only shrinks *transfer* cost —
//! compute still runs in f32 after dequantize. This module makes low-bit
//! subnet configs win on compute too:
//!
//! * **Weights** ([`QGemmWeights`]) are quantized per output channel (one
//!   scale per GEMM row) to codes in `[-63, 63]` ([`W_QMAX`]). The 7-bit
//!   bound is what makes the AVX2 `vpmaddubsw` inner product exact: each
//!   instruction sums two adjacent `u8 × i8` products into an i16, and
//!   `255·63·2 = 32130 < i16::MAX`, so the pair sum can never saturate.
//! * **Activations** are quantized per tensor to `[-127, 127]` ([`A_QMAX`])
//!   with round-to-nearest-even — the same formula as the AVX2 encode, so
//!   codes are bit-identical across paths.
//! * **The tile** ([`crate::simd::qgemm_tile_16`], twin
//!   [`qgemm_tile_portable`]) accumulates 4 rows × 16 columns in i32, which
//!   is exact for any `k` used here (`|acc| ≤ k · 63 · 255 < 2³¹` for `k` up
//!   to ~130 000). It feeds `vpmaddubsw` *unsigned* activation bytes, so
//!   its source stores `code + 128` (`code ^ 0x80`) and the driver
//!   subtracts `128 · Σ_k w[r,k]` — precomputed per weight row — after each
//!   tile. Scalar and SIMD paths therefore produce **identical i32
//!   accumulators**.
//! * **Epilogues** are fused per register tile (the accumulator never
//!   round-trips through memory as a full i32 matrix): either dequantize to
//!   f32 with an optional bias ([`qgemm_f32`], the convolutions) or
//!   requantize back to i8 codes ([`qgemm_requant`]). The vector epilogue
//!   of the direct convolution ([`crate::simd::dequant_tile_16`]) rounds as
//!   the scalar one does, so whole-op outputs stay bit-identical — a
//!   property the distributed executor relies on for cross-device
//!   determinism, and which `tests/int8_exact.rs` and
//!   `tests/qconv_direct_exact.rs` lock in.
//!
//! The tile reads 64-byte groups, each 16 columns × 4 consecutive k-bytes of
//! offset activation codes, wherever a [`QTaps`] walk puts them:
//!
//! * **Packed panels** (the GEMM, strided convolutions, [`qlinear`]): for
//!   each 16-column panel, `k` is walked in groups of 4, one group after
//!   another. Weight rows are stored padded to a multiple of 4 codes (zeros)
//!   so the kernel's 4-byte broadcast loads never read past the row.
//! * **The direct image** (stride-1 [`qconv2d`] / [`qconv2d_relu`]): each
//!   image is quantized straight into `[⌈c_in/4⌉][h+2·pad][w+2·pad][4]`
//!   bytes — four channels interleaved per pixel, spatial and channel
//!   padding byte `0x80` (code 0) — so the group of tap `(cg, ky, kx)` for
//!   16 output pixels is 64 contiguous bytes at the strip's origin plus a
//!   fixed offset, and no column matrix or panel is built. The weights are
//!   regrouped once, at [`QConv2dWeights::quantize`], in the same
//!   `(cg, ky, kx, c4)` order. The chunks are the f32 direct convolution's
//!   (4-channel group × band rows, split across [`crate::par`] from 4 M
//!   MACs an image).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::activation::relu_inplace;
use crate::conv::{for_each_strip, im2col_i8, serial, Conv2dParams, Runner, PAR_MIN_MACS};
use crate::par::{self, Pool};
use crate::scratch;
use crate::shape::Shape;
use crate::simd::{self, QTaps};
use crate::tensor::Tensor;

/// Weight-code magnitude bound. 63 (7 bits) keeps the `vpmaddubsw` i16 pair
/// sums saturation-free; see the module docs.
pub const W_QMAX: f32 = 63.0;
/// Activation-code magnitude bound (full signed 8-bit range).
pub const A_QMAX: f32 = 127.0;

/// Register-tile rows (matches the f32 GEMM's `MR`).
const QMR: usize = 4;
/// Register-tile columns (matches the f32 GEMM's `NR`).
const QNR: usize = 16;
/// k-elements per packed group (one `vpmaddubsw`+`vpmaddwd` step).
const K_GROUP: usize = 4;

/// A weight matrix quantized for int8 GEMM: `m × k` row-major i8 codes with
/// one scale per row (per output channel), rows zero-padded to a multiple of
/// `K_GROUP` (4), plus the per-row code sums the vector path needs to undo the
/// +128 activation offset.
#[derive(Clone, Debug)]
pub struct QGemmWeights {
    codes: Vec<i8>,
    scales: Vec<f32>,
    row_sums: Vec<i32>,
    m: usize,
    k: usize,
    k_pad: usize,
}

impl QGemmWeights {
    /// Quantizes a row-major `m × k` f32 matrix, one symmetric scale per row.
    pub fn quantize(m: usize, k: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), m * k, "weight matrix must be m*k");
        assert!(k > 0, "weight rows must be non-empty");
        let k_pad = k.div_ceil(K_GROUP) * K_GROUP;
        let mut codes = vec![0i8; m * k_pad];
        let mut scales = Vec::with_capacity(m);
        let mut row_sums = Vec::with_capacity(m);
        for (row, dst) in data.chunks_exact(k).zip(codes.chunks_exact_mut(k_pad)) {
            let absmax = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let scale = if absmax == 0.0 { 1.0 } else { absmax / W_QMAX };
            let inv = 1.0 / scale;
            let mut sum = 0i32;
            for (c, &v) in dst.iter_mut().zip(row.iter()) {
                let q = ((v * inv).clamp(-W_QMAX, W_QMAX)).round_ties_even() as i8;
                *c = q;
                sum += q as i32;
            }
            scales.push(scale);
            row_sums.push(sum);
        }
        QGemmWeights { codes, scales, row_sums, m, k, k_pad }
    }

    /// Number of rows (output channels).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Logical k (columns before padding).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-row quantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Raw codes of row `i` (padded tail included, pad codes are 0).
    fn row(&self, i: usize) -> &[i8] {
        &self.codes[i * self.k_pad..(i + 1) * self.k_pad]
    }

    /// Reconstructs the f32 weights (tests/diagnostics).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.m * self.k);
        for i in 0..self.m {
            let s = self.scales[i];
            out.extend(self.row(i)[..self.k].iter().map(|&c| c as f32 * s));
        }
        out
    }
}

/// Quantizes activations per tensor into `out` (resized to `data.len()`)
/// and returns the scale. Codes are in `[-A_QMAX, A_QMAX]`, rounded
/// half-to-even — bit-identical between the scalar and AVX2 paths.
pub fn quantize_activations_into(data: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    out.resize(data.len(), 0);
    let use_simd = simd::simd_active();
    let scale = crate::quant::symmetric_scale(data, A_QMAX, use_simd);
    let inv = 1.0 / scale;
    if !(use_simd && simd::encode_i8(data, inv, A_QMAX, out)) {
        for (c, &v) in out.iter_mut().zip(data.iter()) {
            *c = ((v * inv).clamp(-A_QMAX, A_QMAX)).round_ties_even() as i8;
        }
    }
    scale
}

/// Convenience wrapper around [`quantize_activations_into`].
pub fn quantize_activations(data: &[f32]) -> (Vec<i8>, f32) {
    let mut codes = Vec::new();
    let scale = quantize_activations_into(data, &mut codes);
    (codes, scale)
}

/// The fused requantize step applied to one i32 accumulator:
/// `round_ties_even(clamp(acc · m, ±A_QMAX))`. Clamping *before* rounding
/// matches the AVX2 encode kernels (min/max then `vcvtps2dq`), keeping the
/// epilogue bit-exact across paths.
#[inline]
pub fn requant_one(acc: i32, multiplier: f32) -> i8 {
    ((acc as f32 * multiplier).clamp(-A_QMAX, A_QMAX)).round_ties_even() as i8
}

/// How the activation operand is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BLayout {
    /// Row-major `k × n` (im2col columns: one unfold row per k).
    KxN,
    /// Row-major `n × k` (a batch of activation vectors, as in a linear
    /// layer — the logical B transposed).
    NxK,
}

/// Packs activation codes into offset-u8 panels for the vector kernel; see
/// the module docs for the layout. Out-of-range columns and padded k pick up
/// code 0 (byte 128), which contributes nothing after offset correction.
fn pack_b(b: &[i8], k: usize, n: usize, layout: BLayout, packed: &mut [u8]) {
    let groups = k.div_ceil(K_GROUP);
    let panel_bytes = groups * K_GROUP * QNR;
    for (jp, panel) in packed.chunks_exact_mut(panel_bytes).enumerate() {
        let j0 = jp * QNR;
        for g in 0..groups {
            let kb = g * K_GROUP;
            let dst = &mut panel[g * K_GROUP * QNR..(g + 1) * K_GROUP * QNR];
            for j in 0..QNR {
                let col = j0 + j;
                for kk in 0..K_GROUP {
                    let kidx = kb + kk;
                    let code = if col < n && kidx < k {
                        match layout {
                            BLayout::KxN => b[kidx * n + col],
                            BLayout::NxK => b[col * k + kidx],
                        }
                    } else {
                        0
                    };
                    dst[j * K_GROUP + kk] = (code as u8) ^ 0x80;
                }
            }
        }
    }
}

/// Reads activation element `(kidx, col)` of the logical `k × n` B matrix.
#[inline]
fn b_at(b: &[i8], k: usize, n: usize, layout: BLayout, kidx: usize, col: usize) -> i32 {
    match layout {
        BLayout::KxN => b[kidx * n + col] as i32,
        BLayout::NxK => b[col * k + kidx] as i32,
    }
}

/// Row-segment sink for [`qgemm_drive`]: called as `(row, j0, nr, acc_seg)`
/// with the exact i32 accumulators for columns `j0..j0 + nr`.
type Epilogue<'a> = &'a mut dyn FnMut(usize, usize, usize, &[i32; QNR]);

/// Core quantized-GEMM driver: walks `MR×NR` tiles, produces exact i32
/// accumulators, and hands each finished row segment to `epilogue(row, j0,
/// nr, acc_seg)` while it is still register/cache hot. The vector and scalar
/// paths produce identical accumulators (see module docs), so the choice of
/// path never changes the output.
fn qgemm_drive(w: &QGemmWeights, b: &[i8], n: usize, layout: BLayout, epilogue: Epilogue) {
    match layout {
        BLayout::KxN => assert_eq!(b.len(), w.k * n, "B must be k*n"),
        BLayout::NxK => assert_eq!(b.len(), n * w.k, "B must be n*k"),
    }
    if w.m == 0 || n == 0 {
        return;
    }
    let groups = w.k_pad / K_GROUP;
    let n_panels = n.div_ceil(QNR);
    if simd::simd_active() && simd::detected() {
        scratch::with_u8(|packed| {
            packed.clear();
            packed.resize(n_panels * groups * K_GROUP * QNR, 0);
            pack_b(b, w.k, n, layout, packed);
            let mut i0 = 0;
            while i0 < w.m {
                let mr = QMR.min(w.m - i0);
                // Remainder tiles alias the last valid row; only `mr` rows
                // of the accumulator are consumed.
                let rows: [&[i8]; QMR] = [
                    w.row(i0),
                    w.row(i0 + 1.min(mr - 1)),
                    w.row(i0 + 2.min(mr - 1)),
                    w.row(i0 + 3.min(mr - 1)),
                ];
                for (jp, panel) in
                    packed.chunks_exact(groups * K_GROUP * QNR).take(n_panels).enumerate()
                {
                    let j0 = jp * QNR;
                    let nr = QNR.min(n - j0);
                    let mut acc = [[0i32; QNR]; QMR];
                    let taps = QTaps::panel(groups);
                    if !simd::qgemm_tile_16(taps, &rows, panel, &mut acc) {
                        // CPU support cannot vanish mid-run; fall back to the
                        // portable tile over the same offset panel regardless.
                        qgemm_tile_portable(taps, &rows, panel, &mut acc);
                    }
                    for (ri, acc_row) in acc.iter_mut().enumerate().take(mr) {
                        // Undo the +128 activation offset: raw − 128·Σw.
                        let corr = 128 * w.row_sums[i0 + ri];
                        for v in acc_row.iter_mut() {
                            *v -= corr;
                        }
                        epilogue(i0 + ri, j0, nr, acc_row);
                    }
                }
                i0 += mr;
            }
        });
    } else {
        // Portable path: per-row i32 accumulation straight from the codes
        // (no packing, no offset), then the same fused epilogue per segment.
        scratch::with_i32(|acc_row| {
            for i in 0..w.m {
                acc_row.clear();
                acc_row.resize(n, 0);
                let a_row = &w.row(i)[..w.k];
                match layout {
                    BLayout::NxK => {
                        for (j, av) in acc_row.iter_mut().enumerate() {
                            let brow = &b[j * w.k..j * w.k + w.k];
                            let mut s = 0i32;
                            for (&wa, &ba) in a_row.iter().zip(brow.iter()) {
                                s += wa as i32 * ba as i32;
                            }
                            *av = s;
                        }
                    }
                    BLayout::KxN => {
                        for (kk, &wa) in a_row.iter().enumerate() {
                            if wa == 0 {
                                continue;
                            }
                            let wa = wa as i32;
                            let brow = &b[kk * n..kk * n + n];
                            for (av, &ba) in acc_row.iter_mut().zip(brow.iter()) {
                                *av += wa * ba as i32;
                            }
                        }
                    }
                }
                let mut seg = [0i32; QNR];
                for j0 in (0..n).step_by(QNR) {
                    let nr = QNR.min(n - j0);
                    seg[..nr].copy_from_slice(&acc_row[j0..j0 + nr]);
                    epilogue(i, j0, nr, &seg);
                }
            }
        });
    }
}

/// Portable twin of [`simd::qgemm_tile_16`] (same arguments, same exact i32
/// accumulators): the int8 tile of the scalar override and of CPUs without
/// AVX2, over the same offset-u8 groups.
pub fn qgemm_tile_portable(
    taps: QTaps,
    rows_a: &[&[i8]; QMR],
    src: &[u8],
    acc: &mut [[i32; QNR]; QMR],
) {
    *acc = [[0; QNR]; QMR];
    let mut aw_at = 0; // offset of the group's 4 codes in each A row
    for cg in 0..taps.c_groups {
        for ky in 0..taps.rows {
            for kx in 0..taps.cols {
                let at = cg * taps.plane + ky * taps.row + kx * taps.col;
                let grp = &src[at..at + K_GROUP * QNR];
                for (acc_row, row) in acc.iter_mut().zip(rows_a) {
                    let wv = &row[aw_at..aw_at + K_GROUP];
                    for (a, col) in acc_row.iter_mut().zip(grp.chunks_exact(K_GROUP)) {
                        *a += wv.iter().zip(col).map(|(&w, &b)| w as i32 * b as i32).sum::<i32>();
                    }
                }
                aw_at += K_GROUP;
            }
        }
    }
}

/// Name of the int8 register tile [`qconv2d`] and [`qgemm_f32`] run in this
/// process, for reports: `avxvnni_4x16` (`vpdpbusd`), `avx2_4x16`
/// (`maddubs`/`madd`) or `portable` ([`qgemm_tile_portable`], under the
/// scalar override or without AVX2).
pub fn qtile_name() -> &'static str {
    if !simd::simd_active() {
        "portable"
    } else if simd::detected_vnni() {
        "avxvnni_4x16"
    } else {
        "avx2_4x16"
    }
}

/// Quantized GEMM with fused dequantize epilogue:
/// `out[i*n+j] = acc[i][j] · (scales[i] · b_scale) + bias[i]`, with `b` the
/// logical `k × n` activation codes stored row-major (im2col layout).
pub fn qgemm_f32(
    w: &QGemmWeights,
    b: &[i8],
    n: usize,
    b_scale: f32,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), w.m * n, "out must be m*n");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), w.m, "bias must have one entry per row");
    }
    qgemm_drive(w, b, n, BLayout::KxN, &mut |i, j0, nr, acc| {
        let mul = w.scales[i] * b_scale;
        let add = bias.map_or(0.0, |bv| bv[i]);
        let base = i * n + j0;
        for (o, &a) in out[base..base + nr].iter_mut().zip(acc.iter()) {
            *o = a as f32 * mul + add;
        }
    });
}

/// Quantized GEMM with fused requantize epilogue: output is i8 codes at
/// `out_scale` (`out[i*n+j] = requant(acc, scales[i]·b_scale/out_scale)`),
/// ready to travel the wire or feed the next int8 stage without leaving the
/// 8-bit domain.
pub fn qgemm_requant(
    w: &QGemmWeights,
    b: &[i8],
    n: usize,
    b_scale: f32,
    out_scale: f32,
    out: &mut [i8],
) {
    assert_eq!(out.len(), w.m * n, "out must be m*n");
    assert!(out_scale > 0.0, "output scale must be positive");
    qgemm_drive(w, b, n, BLayout::KxN, &mut |i, j0, nr, acc| {
        let mul = w.scales[i] * b_scale / out_scale;
        let base = i * n + j0;
        for (o, &a) in out[base..base + nr].iter_mut().zip(acc.iter()) {
            *o = requant_one(a, mul);
        }
    });
}

/// Naive i32 reference for the quantized GEMM (`b` logical `k × n`,
/// row-major): the ground truth the exactness proptests compare against.
pub fn qgemm_ref_i32(w: &QGemmWeights, b: &[i8], n: usize, out: &mut [i32]) {
    assert_eq!(b.len(), w.k * n, "B must be k*n");
    assert_eq!(out.len(), w.m * n, "out must be m*n");
    for i in 0..w.m {
        let a_row = &w.row(i)[..w.k];
        for j in 0..n {
            let mut s = 0i32;
            for (kk, &wa) in a_row.iter().enumerate() {
                s += wa as i32 * b_at(b, w.k, n, BLayout::KxN, kk, j);
            }
            out[i * n + j] = s;
        }
    }
}

/// Quantized linear layer forward: `x` is `[batch, in]`, weights are
/// `[out, in]` rows; returns `[batch, out]` f32. Activations are quantized
/// per call (per tensor); the GEMM reads them in their native `n × k`
/// layout, so no transpose is materialized.
pub fn qlinear(x: &Tensor, w: &QGemmWeights, bias: Option<&[f32]>) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "qlinear input must be [batch, in]");
    let batch = x.shape().dim(0);
    assert_eq!(x.shape().dim(1), w.k, "input features {} vs weight k {}", x.shape().dim(1), w.k);
    if let Some(bv) = bias {
        assert_eq!(bv.len(), w.m, "bias must have one entry per output");
    }
    let mut out = Tensor::zeros(Shape::d2(batch, w.m));
    scratch::with_i8(|codes| {
        let x_scale = quantize_activations_into(x.data(), codes);
        let out_data = out.data_mut();
        qgemm_drive(w, codes, batch, BLayout::NxK, &mut |i, j0, nr, acc| {
            // C[i][j] = y[sample j][feature i]: scatter the segment across
            // the output's batch rows.
            let mul = w.scales[i] * x_scale;
            let add = bias.map_or(0.0, |bv| bv[i]);
            for (t, &a) in acc.iter().enumerate().take(nr) {
                out_data[(j0 + t) * w.m + i] = a as f32 * mul + add;
            }
        });
    });
    out
}

/// Convolution weights quantized for the int8 path: the `[c_out, c_in, k,
/// k]` tensor flattened to `c_out × (c_in·k·k)` GEMM rows, one scale per
/// output channel, plus the same codes regrouped once for the stride-1
/// direct convolution.
#[derive(Clone, Debug)]
pub struct QConv2dWeights {
    /// GEMM rows in unfold order `(c, ky, kx)`, for stride ≠ 1.
    q: QGemmWeights,
    /// Direct-convolution rows: per output channel, `⌈c_in/4⌉·k·k` groups of
    /// 4 codes in `(cg, ky, kx, c4)` order (channel `4·cg + c4`; codes past
    /// `c_in` are 0). Rows past `c_out`, up to a multiple of 4, are all 0.
    direct: Vec<i8>,
    c_in: usize,
    kernel: usize,
}

impl QConv2dWeights {
    /// Quantizes a `[c_out, c_in, k, k]` weight tensor per output channel.
    pub fn quantize(weight: &Tensor) -> Self {
        let ws = weight.shape();
        assert_eq!(ws.rank(), 4, "conv weight must be [c_out, c_in, k, k]");
        assert_eq!(ws.dim(2), ws.dim(3), "conv kernel must be square");
        let (c_out, c_in, k) = (ws.dim(0), ws.dim(1), ws.dim(2));
        let q = QGemmWeights::quantize(c_out, c_in * k * k, weight.data());
        let row_len = c_in.div_ceil(K_GROUP) * k * k * K_GROUP;
        let mut direct = vec![0i8; c_out.div_ceil(QMR) * QMR * row_len];
        for (co, dst) in direct.chunks_exact_mut(row_len).take(c_out).enumerate() {
            // Unfold tap c·k² + t (t = ky·k + kx) goes to group
            // (c / 4)·k² + t, byte c % 4.
            for (c, taps) in q.row(co)[..q.k].chunks_exact(k * k).enumerate() {
                let group = &mut dst[(c / K_GROUP) * k * k * K_GROUP..];
                for (t, &code) in taps.iter().enumerate() {
                    group[t * K_GROUP + c % K_GROUP] = code;
                }
            }
        }
        QConv2dWeights { q, direct, c_in, kernel: k }
    }

    /// Output channels.
    pub fn c_out(&self) -> usize {
        self.q.m
    }

    /// The underlying GEMM-shaped weights.
    pub fn gemm_weights(&self) -> &QGemmWeights {
        &self.q
    }
}

/// int8 convolution. Each input image is quantized per tensor; at stride 1
/// the direct tile reads the codes from a padded image (module docs), at any
/// other stride they are unfolded with [`im2col_i8`] into the quantized GEMM.
/// The dequantize+bias epilogue is fused into both. Same signature and
/// output shape as [`conv2d`](crate::conv::conv2d); output is f32.
pub fn qconv2d(
    input: &Tensor,
    w: &QConv2dWeights,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Tensor {
    qconv2d_act(None, input, w, bias, p, false)
}

/// [`qconv2d`] followed by ReLU, with the activation fused into the store at
/// stride 1. Bit-identical to `qconv2d` then
/// [`relu_inplace`].
pub fn qconv2d_relu(
    input: &Tensor,
    w: &QConv2dWeights,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Tensor {
    qconv2d_act(None, input, w, bias, p, true)
}

/// [`qconv2d`] (or, with `relu`, [`qconv2d_relu`]) with every stride-1 image
/// cut into chunks on `pool`, whatever its size — the split those functions
/// make on the process-wide pool from 4 M MACs an image. The bits are theirs
/// for any pool; a strided convolution does not split.
pub fn qconv2d_on(
    pool: &Pool,
    input: &Tensor,
    w: &QConv2dWeights,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    relu: bool,
) -> Tensor {
    qconv2d_act(Some(pool), input, w, bias, p, relu)
}

fn qconv2d_act(
    pool: Option<&Pool>,
    input: &Tensor,
    w: &QConv2dWeights,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    relu: bool,
) -> Tensor {
    let (n, c_in, h, iw) =
        (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
    assert_eq!(c_in, w.c_in, "input channels {} vs weight c_in {}", c_in, w.c_in);
    assert_eq!(p.kernel, w.kernel, "conv params kernel {} vs weight kernel {}", p.kernel, w.kernel);
    let (oh, ow) = p.out_hw(h, iw);
    let c_out = w.q.m;
    let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
    let in_data = input.data();
    let bias_data = bias.map(|b| {
        assert_eq!(b.numel(), c_out, "bias length");
        b.data()
    });
    if p.stride == 1 {
        let image_macs = c_out * oh * ow * w.q.k;
        let run: Runner = match pool {
            Some(pool) => &|n, chunk| pool.for_each(n, chunk),
            None if image_macs >= PAR_MIN_MACS => &par::for_each,
            None => &serial,
        };
        qconv2d_direct(run, in_data, (c_in, h, iw), w, bias_data, p.pad, relu, out.data_mut());
        return out;
    }
    let img_in = c_in * h * iw;
    for (b_ix, out_img) in out.data_mut().chunks_exact_mut(c_out * oh * ow).enumerate() {
        scratch::with_i8(|img_codes| {
            scratch::with_i8(|cols| {
                let img = &in_data[b_ix * img_in..(b_ix + 1) * img_in];
                let a_scale = quantize_activations_into(img, img_codes);
                let (_, spatial) = im2col_i8(img_codes, c_in, h, iw, p, cols);
                qgemm_f32(&w.q, cols, spatial, a_scale, bias_data, out_img);
            });
        });
    }
    if relu {
        relu_inplace(&mut out);
    }
    out
}

/// Stride-1 int8 forward without a column matrix or packed panels (DESIGN.md
/// §8.2).
///
/// Each image is quantized straight into the padded offset image of
/// [`quantize_image`]; [`for_each_strip`] cuts the output into the f32 direct
/// convolution's (4-channel group × band) chunks for `run`, and each 16-pixel
/// strip is one [`simd::qgemm_tile_16`] (or [`qgemm_tile_portable`]) walking
/// the image from the strip's origin pixel. The epilogue is `qgemm_f32`'s:
/// `(acc − 128·Σw) as f32 · (scale·a_scale) + bias`, then ReLU if asked.
/// i32 sums are exact in any order, so the output is bit for bit that of
/// [`im2col_i8`] + [`qgemm_f32`], whatever the runner or the tile.
#[allow(clippy::too_many_arguments)]
fn qconv2d_direct(
    run: Runner,
    input: &[f32],
    (c_in, h, w): (usize, usize, usize),
    wq: &QConv2dWeights,
    bias: Option<&[f32]>,
    pad: usize,
    relu: bool,
    out: &mut [f32],
) {
    let k = wq.kernel;
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let (oh, ow) = (ph - k + 1, pw - k + 1);
    let c_out = wq.q.m;
    let taps = QTaps::conv(c_in.div_ceil(K_GROUP), k, ph, pw);
    let row_len = taps.groups() * K_GROUP;
    // Picked once per call, as the f32 tier is; every tile gives the same
    // accumulators, so this is for consistency, not for the bits.
    let vector = simd::simd_active();
    scratch::with_u8(|image| {
        let images = input.chunks_exact(c_in * h * w);
        for (img, out_img) in images.zip(out.chunks_exact_mut(c_out * oh * ow)) {
            let a_scale = quantize_image(vector, img, (c_in, h, w), pad, image);
            let image = &image[..];
            for_each_strip::<QMR, _>(run, c_out, (oh, ow), out_img, |g| {
                let rows: [&[i8]; QMR] =
                    std::array::from_fn(|r| &wq.direct[(g * QMR + r) * row_len..][..row_len]);
                // Rows past `c_out` (the zero rows that pad the last group)
                // land in the strip's scratch rows; their values are unused.
                let co = |r: usize| (g * QMR + r).min(c_out - 1);
                let corr: [i32; QMR] = std::array::from_fn(|r| 128 * wq.q.row_sums[co(r)]);
                let mul: [f32; QMR] = std::array::from_fn(|r| wq.q.scales[co(r)] * a_scale);
                let add: [f32; QMR] = std::array::from_fn(|r| bias.map_or(0.0, |b| b[co(r)]));
                move |oy, ox0, dst| {
                    let src = &image[(oy * pw + ox0) * K_GROUP..];
                    let mut acc = [[0i32; QNR]; QMR];
                    if !(vector && simd::qgemm_tile_16(taps, &rows, src, &mut acc)) {
                        qgemm_tile_portable(taps, &rows, src, &mut acc);
                    }
                    if !(vector && simd::dequant_tile_16(&acc, &corr, &mul, &add, relu, dst)) {
                        for (r, (dst_row, acc_row)) in dst.iter_mut().zip(&acc).enumerate() {
                            for (o, &a) in dst_row.iter_mut().zip(acc_row) {
                                let v = (a - corr[r]) as f32 * mul[r] + add[r];
                                *o = if relu && v < 0.0 { 0.0 } else { v };
                            }
                        }
                    }
                }
            });
        }
    });
}

/// Quantizes one CHW image per tensor — the scale and codes of
/// [`quantize_activations_into`] — straight into the direct convolution's
/// image (module docs): `[⌈c_in/4⌉][h + 2·pad][w + 2·pad][4]` bytes, each
/// `code ^ 0x80`, with spatial and channel padding both 0x80 (code 0), and
/// 16 pixels of 0x80 slack after the last plane so a last-row strip's
/// 16-wide reads stay in bounds. Returns the scale. `use_simd` picks the
/// encode; both give the same bytes.
fn quantize_image(
    use_simd: bool,
    img: &[f32],
    (c_in, h, w): (usize, usize, usize),
    pad: usize,
    image: &mut Vec<u8>,
) -> f32 {
    let scale = crate::quant::symmetric_scale(img, A_QMAX, use_simd);
    let inv = 1.0 / scale;
    let pw = w + 2 * pad;
    let plane = (h + 2 * pad) * pw * K_GROUP;
    image.clear();
    image.resize(c_in.div_ceil(K_GROUP) * plane + QNR * K_GROUP, 0x80);
    for cg in 0..c_in.div_ceil(K_GROUP) {
        let nc = K_GROUP.min(c_in - cg * K_GROUP);
        for y in 0..h {
            let rows: [&[f32]; K_GROUP] = std::array::from_fn(|c| match c < nc {
                true => &img[((cg * K_GROUP + c) * h + y) * w..][..w],
                false => &[],
            });
            let at = cg * plane + ((y + pad) * pw + pad) * K_GROUP;
            let dst = &mut image[at..at + w * K_GROUP];
            if use_simd && simd::encode_i8_x4(&rows[..nc], inv, A_QMAX, dst) {
                continue;
            }
            for (x, px) in dst.chunks_exact_mut(K_GROUP).enumerate() {
                for (c, byte) in px.iter_mut().enumerate() {
                    let code = match c < nc {
                        true => ((rows[c][x] * inv).clamp(-A_QMAX, A_QMAX)).round_ties_even() as i8,
                        false => 0, // channel padding
                    };
                    *byte = (code as u8) ^ 0x80;
                }
            }
        }
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn weight_quantization_bounds_and_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let (m, k) = (7, 13);
        let data = rand_vec(m * k, &mut rng);
        let q = QGemmWeights::quantize(m, k, &data);
        for i in 0..m {
            for &c in q.row(i) {
                assert!((-63..=63).contains(&(c as i32)), "weight code {c} out of 7-bit range");
            }
        }
        let back = q.dequantize();
        for (i, (&a, &b)) in data.iter().zip(back.iter()).enumerate() {
            // Per-row scale = absmax/63 ⇒ error ≤ scale/2 ≤ 1/126 of absmax.
            let bound = q.scales[i / k] * 0.5 + 1e-6;
            assert!((a - b).abs() <= bound, "element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn qgemm_f32_matches_dequantized_f32_gemm() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, k, n) = (9, 31, 21);
        let wdata = rand_vec(m * k, &mut rng);
        let xdata = rand_vec(k * n, &mut rng);
        let qw = QGemmWeights::quantize(m, k, &wdata);
        let (codes, b_scale) = quantize_activations(&xdata);
        let mut got = vec![0.0f32; m * n];
        qgemm_f32(&qw, &codes, n, b_scale, None, &mut got);
        // Reference: f32 GEMM over the *dequantized* operands must agree to
        // f32 rounding (the int path is exact on the quantized values).
        let wd = qw.dequantize();
        let xd: Vec<f32> = codes.iter().map(|&c| c as f32 * b_scale).collect();
        let mut want = vec![0.0f32; m * n];
        crate::gemm::gemm_ref(m, k, n, &wd, &xd, &mut want);
        for (i, (&g, &r)) in got.iter().zip(want.iter()).enumerate() {
            assert!((g - r).abs() <= 1e-3 * (1.0 + r.abs()), "element {i}: {g} vs {r}");
        }
    }

    #[test]
    fn qgemm_matches_i32_reference_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 16), (5, 9, 33), (17, 40, 18)] {
            let wdata = rand_vec(m * k, &mut rng);
            let xdata = rand_vec(k * n, &mut rng);
            let qw = QGemmWeights::quantize(m, k, &wdata);
            let (codes, b_scale) = quantize_activations(&xdata);
            let mut refi = vec![0i32; m * n];
            qgemm_ref_i32(&qw, &codes, n, &mut refi);
            let mut got = vec![0.0f32; m * n];
            qgemm_f32(&qw, &codes, n, b_scale, None, &mut got);
            for (i, (&g, &ri)) in got.iter().zip(refi.iter()).enumerate() {
                let want = ri as f32 * (qw.scales[i / n] * b_scale);
                assert_eq!(g, want, "({m},{k},{n}) element {i}");
            }
        }
    }

    #[test]
    fn requant_output_stays_in_range_and_matches_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k, n) = (6, 22, 19);
        let wdata = rand_vec(m * k, &mut rng);
        let xdata = rand_vec(k * n, &mut rng);
        let qw = QGemmWeights::quantize(m, k, &wdata);
        let (codes, b_scale) = quantize_activations(&xdata);
        let out_scale = 0.05f32;
        let mut got = vec![0i8; m * n];
        qgemm_requant(&qw, &codes, n, b_scale, out_scale, &mut got);
        let mut refi = vec![0i32; m * n];
        qgemm_ref_i32(&qw, &codes, n, &mut refi);
        for (i, (&g, &ri)) in got.iter().zip(refi.iter()).enumerate() {
            let want = requant_one(ri, qw.scales[i / n] * b_scale / out_scale);
            assert_eq!(g, want, "element {i}");
            assert!((-127..=127).contains(&(g as i32)));
        }
    }

    #[test]
    fn qconv2d_close_to_f32_conv() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Conv2dParams::same(3);
        let x = Tensor::rand_uniform(Shape::nchw(2, 3, 9, 8), 1.0, &mut rng);
        let wt = Tensor::rand_uniform(Shape::nchw(5, 3, 3, 3), 0.5, &mut rng);
        let b = Tensor::rand_uniform(Shape::d1(5), 0.5, &mut rng);
        let qw = QConv2dWeights::quantize(&wt);
        let got = qconv2d(&x, &qw, Some(&b), p);
        let want = conv2d(&x, &wt, Some(&b), p);
        assert_eq!(got.shape(), want.shape());
        // 8-bit weights and activations: relative error well under 2% on
        // these magnitudes.
        let mut worst = 0.0f32;
        let scale_ref = want.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        for (&g, &r) in got.data().iter().zip(want.data().iter()) {
            worst = worst.max((g - r).abs());
        }
        assert!(
            worst <= 0.02 * scale_ref.max(1.0),
            "worst abs err {worst} (ref scale {scale_ref})"
        );
    }

    #[test]
    fn direct_image_holds_offset_codes_and_0x80_padding() {
        // 5 channels: one full group and one with 3 padding channels; w 11
        // takes the vector encode's 8-pixel body and a 3-pixel tail.
        let mut rng = StdRng::seed_from_u64(7);
        let (c_in, h, w, pad) = (5, 3, 11, 2);
        let mut img = rand_vec(c_in * h * w, &mut rng);
        img[4] = f32::NAN;
        let (codes, want_scale) = quantize_activations(&img);
        let was_scalar = !simd::simd_active();
        for scalar in [false, true] {
            simd::force_scalar(scalar);
            let mut image = Vec::new();
            let scale = quantize_image(simd::simd_active(), &img, (c_in, h, w), pad, &mut image);
            assert_eq!(scale, want_scale);
            let (ph, pw) = (h + 2 * pad, w + 2 * pad);
            assert_eq!(image.len(), 2 * ph * pw * K_GROUP + QNR * K_GROUP);
            for (i, &byte) in image.iter().enumerate() {
                let (cg, rest) = (i / (ph * pw * K_GROUP), i % (ph * pw * K_GROUP));
                let (y, x, c) =
                    (rest / (pw * K_GROUP), rest / K_GROUP % pw, cg * K_GROUP + i % K_GROUP);
                let inside = cg < 2 && (pad..pad + h).contains(&y) && (pad..pad + w).contains(&x);
                let want = match inside && c < c_in {
                    true => (codes[(c * h + y - pad) * w + x - pad] as u8) ^ 0x80,
                    false => 0x80, // spatial padding, channel padding, slack
                };
                assert_eq!(
                    byte, want,
                    "byte {i} (group {cg}, y {y}, x {x}, channel {c}), scalar={scalar}"
                );
            }
        }
        simd::force_scalar(was_scalar);
    }

    #[test]
    fn qlinear_close_to_f32_matmul() {
        let mut rng = StdRng::seed_from_u64(6);
        let (batch, fin, fout) = (5, 17, 11);
        let x = Tensor::rand_uniform(Shape::d2(batch, fin), 1.0, &mut rng);
        let wdata = rand_vec(fout * fin, &mut rng);
        let bias: Vec<f32> = rand_vec(fout, &mut rng);
        let qw = QGemmWeights::quantize(fout, fin, &wdata);
        let got = qlinear(&x, &qw, Some(&bias));
        assert_eq!(got.shape(), &Shape::d2(batch, fout));
        for bi in 0..batch {
            for o in 0..fout {
                let mut want = bias[o];
                for i in 0..fin {
                    want += x.data()[bi * fin + i] * wdata[o * fin + i];
                }
                let g = got.data()[bi * fout + o];
                assert!((g - want).abs() <= 0.05 * (1.0 + want.abs()), "[{bi},{o}]: {g} vs {want}");
            }
        }
    }

    #[test]
    fn zero_input_gives_bias_only() {
        let x = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        let wt = Tensor::full(Shape::nchw(3, 2, 3, 3), 0.25);
        let b = Tensor::from_vec(Shape::d1(3), vec![1.0, -2.0, 0.5]);
        let qw = QConv2dWeights::quantize(&wt);
        let y = qconv2d(&x, &qw, Some(&b), Conv2dParams::same(3));
        for co in 0..3 {
            for t in 0..16 {
                assert_eq!(y.data()[co * 16 + t], b.data()[co]);
            }
        }
    }
}
