//! 2-D convolutions: a direct register-tiled path for stride-1 dense
//! convolutions, im2col + GEMM for the strided ones, and a direct depthwise
//! path.
//!
//! * [`conv2d`] / [`conv2d_relu`] at stride 1 copy each image once into a
//!   zero-padded scratch buffer and run a 4×16 register tile whose operands
//!   are loaded straight from it — no column matrix is written, packed or
//!   re-read, and bias and ReLU are applied as the tile is stored. The result
//!   is bit-identical to im2col + [`gemm_bias`], which remains the path for
//!   stride ≠ 1 and for backward. Workspaces come from the thread-local
//!   [`scratch`] pool (zero steady-state allocation). An
//!   image of at least 4 M MACs is cut into (weight group × row band) chunks
//!   that [`par::for_each`] spreads over the device's cores, with the same
//!   bits. The int8 stride-1 convolution ([`crate::int8::qconv2d`]) runs
//!   its own tile in the same chunks.
//! * [`depthwise_conv2d`] splits every output plane into a
//!   bounds-check-free **interior** (with fully unrolled k=3 / k=5 inner
//!   loops) and a checked **border** band, so the per-tap `isize` casts and
//!   range tests of the naive kernel only run on the few output pixels whose
//!   receptive field actually leaves the input.

use std::marker::PhantomData;

use crate::activation::relu_inplace;
use crate::gemm::{gemm_bias, KC, NR};
use crate::par;
use crate::scratch;
use crate::shape::{conv_out_size, Shape};
use crate::simd::{self, ConvTile};
use crate::tensor::Tensor;

/// Convolution geometry: square kernel, symmetric padding, uniform stride.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl Conv2dParams {
    /// Geometry with "same" padding for odd kernels at stride 1.
    pub fn same(kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "same-padding requires an odd kernel");
        Conv2dParams { kernel, stride: 1, pad: kernel / 2 }
    }

    /// Output (h, w) for an input (h, w).
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out_size(h, self.kernel, self.pad, self.stride),
            conv_out_size(w, self.kernel, self.pad, self.stride),
        )
    }
}

/// Unfolds input patches into a `(c_in*k*k) × (out_h*out_w)` column matrix
/// for one image (CHW slice). Out-of-bounds taps read as zero.
pub fn im2col(
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    cols: &mut Vec<f32>,
) -> (usize, usize) {
    im2col_generic(0.0f32, input, c_in, h, w, p, cols)
}

/// [`im2col`] over i8 activation codes, used by the int8 compute path in
/// [`crate::int8`]. Out-of-bounds taps read as the zero code.
pub fn im2col_i8(
    input: &[i8],
    c_in: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    cols: &mut Vec<i8>,
) -> (usize, usize) {
    im2col_generic(0i8, input, c_in, h, w, p, cols)
}

/// Shared im2col body. At stride 1 each `(c, ky, kx)` unfold row is a set of
/// contiguous input-row segments, so the inner loop becomes one
/// `copy_from_slice` per output row instead of a load/store per pixel — the
/// stride-1 dense convs that dominate the supernet spend most of their
/// non-GEMM time here.
fn im2col_generic<T: Copy>(
    zero: T,
    input: &[T],
    c_in: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    cols: &mut Vec<T>,
) -> (usize, usize) {
    let (oh, ow) = p.out_hw(h, w);
    let rows = c_in * p.kernel * p.kernel;
    cols.clear();
    cols.resize(rows * oh * ow, zero);
    for c in 0..c_in {
        for ky in 0..p.kernel {
            for kx in 0..p.kernel {
                let row = (c * p.kernel + ky) * p.kernel + kx;
                let out_base = row * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // stays zero
                    }
                    let in_row = (c * h + iy as usize) * w;
                    if p.stride == 1 {
                        // ix = ox + kx - pad must fall in [0, w): copy the
                        // in-bounds ox span in one memcpy.
                        let ox_lo = p.pad.saturating_sub(kx);
                        let ox_hi = (w + p.pad).saturating_sub(kx).min(ow);
                        if ox_lo >= ox_hi {
                            continue;
                        }
                        let ix0 = ox_lo + kx - p.pad;
                        let dst = out_base + oy * ow;
                        cols[dst + ox_lo..dst + ox_hi]
                            .copy_from_slice(&input[in_row + ix0..in_row + ix0 + (ox_hi - ox_lo)]);
                    } else {
                        for ox in 0..ow {
                            let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            cols[out_base + oy * ow + ox] = input[in_row + ix as usize];
                        }
                    }
                }
            }
        }
    }
    (rows, oh * ow)
}

/// Folds a column matrix back into a CHW image, accumulating overlapping
/// taps — the adjoint of [`im2col`], used by conv backward.
pub fn col2im(cols: &[f32], c_in: usize, h: usize, w: usize, p: Conv2dParams, out: &mut [f32]) {
    let (oh, ow) = p.out_hw(h, w);
    assert_eq!(out.len(), c_in * h * w);
    out.fill(0.0);
    for c in 0..c_in {
        for ky in 0..p.kernel {
            for kx in 0..p.kernel {
                let row = (c * p.kernel + ky) * p.kernel + kx;
                let col_base = row * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let out_row = (c * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[out_row + ix as usize] += cols[col_base + oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Standard convolution. `input` is NCHW, `weight` is `[c_out, c_in, k, k]`,
/// optional `bias` is `[c_out]`. Returns NCHW output.
///
/// Stride 1 runs the direct register tile; any other stride unfolds each
/// image into a pooled scratch buffer and runs one GEMM with the bias fused
/// into its epilogue. The two agree bit for bit where both apply.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, p: Conv2dParams) -> Tensor {
    conv2d_act(input, weight, bias, p, false)
}

/// [`conv2d`] followed by ReLU, with the activation fused into the store at
/// stride 1. Bit-identical to `conv2d` then
/// [`relu_inplace`].
pub fn conv2d_relu(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Tensor {
    conv2d_act(input, weight, bias, p, true)
}

fn conv2d_act(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    relu: bool,
) -> Tensor {
    let (n, c_in, h, w) =
        (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
    let ws = weight.shape();
    assert_eq!(ws.rank(), 4, "weight must be [c_out, c_in, k, k]");
    let c_out = ws.dim(0);
    assert_eq!(ws.dim(1), c_in, "weight c_in {} vs input c {}", ws.dim(1), c_in);
    assert_eq!(ws.dim(2), p.kernel);
    assert_eq!(ws.dim(3), p.kernel);
    let (oh, ow) = p.out_hw(h, w);
    let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
    let bias_data = bias.map(|b| {
        assert_eq!(b.numel(), c_out, "bias length");
        b.data()
    });
    if p.stride == 1 {
        let dims = (c_in, h, w, c_out);
        let image_macs = c_out * oh * ow * c_in * p.kernel * p.kernel;
        let run: Runner = if image_macs >= PAR_MIN_MACS { &par::for_each } else { &serial };
        // Picked once per call and handed to every chunk: the vector and
        // portable tiles round differently, so a helper re-reading the
        // override could mix the two paths within one output.
        let tier = ConvTier::pick(c_out);
        let (x, wt) = (input.data(), weight.data());
        conv2d_direct(run, tier, x, dims, wt, bias_data, p, relu, out.data_mut());
        return out;
    }
    let images = input.data().chunks_exact(c_in * h * w);
    for (img, out_img) in images.zip(out.data_mut().chunks_exact_mut(c_out * oh * ow)) {
        scratch::with(|cols| {
            let (rows, spatial) = im2col(img, c_in, h, w, p, cols);
            gemm_bias(c_out, rows, spatial, weight.data(), cols, bias_data, out_img);
        });
    }
    if relu {
        relu_inplace(&mut out);
    }
    out
}

/// The register tile a stride-1 convolution runs, picked once per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvTier {
    /// [`simd::conv_tile_8x16`]: 8 channels × 16 pixels on AVX-512F.
    Avx512,
    /// [`simd::conv_tile_16`]: 4 channels × 16 pixels on AVX2+FMA.
    Avx2,
    /// The portable 4 × 16 tile, a separate multiply and add per tap.
    Portable,
}

impl ConvTier {
    /// The tier [`conv2d`] runs at stride 1 for `c_out` output channels:
    /// the 8-row tile where the CPU has AVX-512F and `c_out ≥ 8`, else the
    /// AVX2 tile where [`simd::simd_active`], else the portable one. The
    /// two vector tiles give the same bits; the scalar override forces the
    /// portable tile.
    pub fn pick(c_out: usize) -> ConvTier {
        if !simd::simd_active() {
            ConvTier::Portable
        } else if simd::detected_avx512() && c_out >= 8 {
            ConvTier::Avx512
        } else {
            ConvTier::Avx2
        }
    }

    /// Short name for reports: `avx512_8x16`, `avx2_4x16` or `portable`.
    pub fn name(self) -> &'static str {
        match self {
            ConvTier::Avx512 => "avx512_8x16",
            ConvTier::Avx2 => "avx2_4x16",
            ConvTier::Portable => "portable",
        }
    }
}

/// Output rows per chunk of the stride-1 convolution. It cuts both request
/// layers — 16 ch at 48² and 8 ch at 96² — into 24 chunks with 4-row weight
/// groups and 12 with 8-row ones, enough for two cores to finish close
/// together; 4, 6, 12 and 16 rows measured within noise of 8 on either.
const BAND: usize = 8;

/// Per-image MACs from which a stride-1 convolution is split across the
/// [`par`] pool. The request layers carry ≈5.3 M. The 2×2 FDSP tiles of the
/// same layers (≈1.4 M) stay whole: several tile workers already share the
/// cores, and splitting them as well (a 1 M threshold) cost the tiled
/// workload 10–28 % at p90.
pub(crate) const PAR_MIN_MACS: usize = 4_000_000;

/// How one image's chunks run: [`par::for_each`], [`serial`], or in tests a
/// pool of a given size. Every runner calls each chunk exactly once.
pub(crate) type Runner<'a> = &'a dyn Fn(usize, &(dyn Fn(usize) + Sync));

/// The plain-loop [`Runner`], for convolutions under [`PAR_MIN_MACS`].
pub(crate) fn serial(n: usize, chunk: &(dyn Fn(usize) + Sync)) {
    (0..n).for_each(chunk);
}

/// One image's output, written by disjoint chunks from several threads.
struct SharedOut<'a> {
    ptr: *mut f32,
    len: usize,
    _out: PhantomData<&'a mut [f32]>,
}

// SAFETY: `SharedOut` only hands out slices through `slice`, whose contract
// is that no two live ones overlap, so two threads never touch one element.
unsafe impl Sync for SharedOut<'_> {}

impl<'a> SharedOut<'a> {
    fn new(out: &'a mut [f32]) -> Self {
        SharedOut { ptr: out.as_mut_ptr(), len: out.len(), _out: PhantomData }
    }

    /// `len` elements from `at`.
    ///
    /// # Safety
    /// No two slices obtained from one `SharedOut` may be alive at once and
    /// overlap.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, at: usize, len: usize) -> &mut [f32] {
        assert!(at + len <= self.len, "chunk outside the image");
        // SAFETY: in bounds (asserted) of a buffer borrowed mutably for 'a;
        // exclusivity is the caller's obligation.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(at), len) }
    }
}

/// Stride-1 forward without a column matrix (DESIGN.md §8).
///
/// Each image is copied once into a zero-padded buffer (`NR` floats of tail
/// slack keep the last row's 16-wide loads in bounds) and the weights are
/// transposed into `G`-row groups `[group][tap][G]`, `G` the tier's tile
/// rows (8 for [`ConvTier::Avx512`], else 4). [`for_each_strip`] then cuts
/// the output into (group × [`BAND`]) chunks for `run` and stores one
/// register tile per 16-pixel strip; `tier` picks the tile for the whole
/// call.
///
/// The values are `im2col` + [`gemm_bias`]'s, bit for bit, whatever the
/// runner: zero-start accumulators take the taps in unfold order (padding
/// taps multiply a stored 0.0, as in the column matrix), every [`KC`] taps
/// they are added to a running sum that started at the bias, and ReLU comes
/// last. Which thread runs a tile, and when, changes none of that.
#[allow(clippy::too_many_arguments)]
fn conv2d_direct(
    run: Runner,
    tier: ConvTier,
    input: &[f32],
    dims: (usize, usize, usize, usize),
    weight: &[f32],
    bias: Option<&[f32]>,
    p: Conv2dParams,
    relu: bool,
    out: &mut [f32],
) {
    match tier {
        ConvTier::Avx512 => {
            direct_groups::<8>(run, tile_avx512, input, dims, weight, bias, p, relu, out)
        }
        ConvTier::Avx2 => {
            direct_groups::<4>(run, tile_avx2, input, dims, weight, bias, p, relu, out)
        }
        ConvTier::Portable => {
            direct_groups::<4>(run, conv_tile_portable, input, dims, weight, bias, p, relu, out)
        }
    }
}

/// One register tile over `G` weight-group rows (arguments as
/// [`simd::conv_tile_16`]'s).
type Tile<const G: usize> = fn(ConvTile, &[f32], &[f32], &[f32; G], &mut [&mut [f32; NR]; G]);

fn tile_avx2(t: ConvTile, img: &[f32], wg: &[f32], bv: &[f32; 4], dst: &mut [&mut [f32; NR]; 4]) {
    if !simd::conv_tile_16(t, img, wg, bv, dst) {
        conv_tile_portable(t, img, wg, bv, dst);
    }
}

fn tile_avx512(t: ConvTile, img: &[f32], wg: &[f32], bv: &[f32; 8], dst: &mut [&mut [f32; NR]; 8]) {
    if !simd::conv_tile_8x16(t, img, wg, bv, dst) {
        conv_tile_portable(t, img, wg, bv, dst);
    }
}

/// [`conv2d_direct`]'s driver for `G`-row weight groups.
#[allow(clippy::too_many_arguments)]
fn direct_groups<const G: usize>(
    run: Runner,
    tile: Tile<G>,
    input: &[f32],
    (c_in, h, w, c_out): (usize, usize, usize, usize),
    weight: &[f32],
    bias: Option<&[f32]>,
    p: Conv2dParams,
    relu: bool,
    out: &mut [f32],
) {
    let k = p.kernel;
    let (ph, pw) = (h + 2 * p.pad, w + 2 * p.pad);
    let (oh, ow) = (ph - k + 1, pw - k + 1);
    let taps = c_in * k * k;
    let t = ConvTile { c_in, k, plane: ph * pw, pw, relu };
    let groups = c_out.div_ceil(G);
    scratch::with(|wg| {
        scratch::with(|padded| {
            // Rows past `c_out` in the last group stay zero; their outputs
            // are never stored.
            wg.clear();
            wg.resize(groups * taps * G, 0.0);
            for (co, w_row) in weight.chunks_exact(taps).enumerate() {
                let base = (co / G) * taps * G + co % G;
                for (tap, &v) in w_row.iter().enumerate() {
                    wg[base + tap * G] = v;
                }
            }
            // Borders and slack are zeroed here; only interiors are written.
            padded.clear();
            padded.resize(c_in * t.plane + NR, 0.0);
            let images = input.chunks_exact(c_in * h * w);
            for (img, out_img) in images.zip(out.chunks_exact_mut(c_out * oh * ow)) {
                for (cy, src) in img.chunks_exact(w).enumerate() {
                    let at = (cy / h) * t.plane + (cy % h + p.pad) * pw + p.pad;
                    padded[at..at + w].copy_from_slice(src);
                }
                let (padded, wg) = (&padded[..], &wg[..]);
                for_each_strip::<G, _>(run, c_out, (oh, ow), out_img, |g| {
                    let mr = G.min(c_out - g * G);
                    let mut bv = [0.0f32; G];
                    if let Some(b) = bias {
                        bv[..mr].copy_from_slice(&b[g * G..g * G + mr]);
                    }
                    let wg_g = &wg[g * taps * G..][..taps * G];
                    move |oy, ox0, dst| tile(t, &padded[oy * pw + ox0..], wg_g, &bv, dst)
                });
            }
        });
    });
}

/// The chunking every stride-1 direct convolution shares, f32 and int8.
///
/// One image's `c_out × oh × ow` output is cut into chunks of one `G`-row
/// channel group × [`BAND`] output rows, band-major, which `run` executes —
/// possibly several at once. A chunk of group `g` calls `group(g)` once for
/// its per-group state, then the returned `strip(oy, ox0, dst)` once for
/// every 16-pixel strip of every row, which must store channel `g·G + r` of
/// the pixels from `(oy, ox0)` into `dst[r]`. A full strip of a full group
/// writes the output in place; an edge strip (fewer than 16 pixels left, or
/// fewer than `G` channels) writes a stack tile whose first `c_out − g·G`
/// rows and in-range pixels are copied out.
pub(crate) fn for_each_strip<const G: usize, S>(
    run: Runner,
    c_out: usize,
    (oh, ow): (usize, usize),
    out_img: &mut [f32],
    group: impl Fn(usize) -> S + Sync,
) where
    S: FnMut(usize, usize, &mut [&mut [f32; NR]; G]),
{
    let groups = c_out.div_ceil(G);
    let out_img = SharedOut::new(out_img);
    run(groups * oh.div_ceil(BAND), &|chunk| {
        let (band, g) = (chunk / groups, chunk % groups);
        let mut strip = group(g);
        let mr = G.min(c_out - g * G);
        let rows = band * BAND..oh.min(band * BAND + BAND);
        // The chunk's output: rows `rows` of channels g·G + r, r < mr.
        let mut planes: [&mut [f32]; G] = std::array::from_fn(|r| {
            if r >= mr {
                return &mut [][..];
            }
            let at = ((g * G + r) * oh + rows.start) * ow;
            // SAFETY: chunks are disjoint — `run` calls each (band, group)
            // once, and this slice is that chunk's band of one of its
            // channels, which no other chunk reads or writes. The slices die
            // with the chunk, and `run` returns only after every chunk has
            // returned and no helper still holds the job, so `out_img`'s
            // borrow outlives every access from any thread.
            unsafe { out_img.slice(at, rows.len() * ow) }
        });
        for oy in rows.clone() {
            for ox0 in (0..ow).step_by(NR) {
                let nr = NR.min(ow - ox0);
                let at = (oy - rows.start) * ow + ox0;
                if nr == NR && mr == G {
                    let mut dst = planes
                        .each_mut()
                        .map(|pl| pl[at..].first_chunk_mut::<NR>().expect("a full strip"));
                    strip(oy, ox0, &mut dst);
                } else {
                    let mut edge = [[0.0f32; NR]; G];
                    strip(oy, ox0, &mut edge.each_mut());
                    for (pl, row) in planes.iter_mut().zip(&edge).take(mr) {
                        pl[at..at + nr].copy_from_slice(&row[..nr]);
                    }
                }
            }
        }
    });
}

/// Portable twin of [`simd::conv_tile_16`] (same arguments): a separately
/// rounded multiply and add per tap, as in `gemm`'s scalar microkernel.
fn conv_tile_portable<const G: usize>(
    t: ConvTile,
    img: &[f32],
    wg: &[f32],
    bias: &[f32; G],
    out: &mut [&mut [f32; NR]; G],
) {
    let mut bank = bias.map(|b| [b; NR]);
    let mut acc = [[0.0f32; NR]; G];
    for (tap, wv) in wg.chunks_exact(G).take(t.c_in * t.k * t.k).enumerate() {
        if tap > 0 && tap % KC == 0 {
            for (bv, av) in bank.as_flattened_mut().iter_mut().zip(acc.as_flattened_mut()) {
                *bv += *av;
                *av = 0.0;
            }
        }
        let at = tap / (t.k * t.k) * t.plane + tap / t.k % t.k * t.pw + tap % t.k;
        for (acc_row, &w_val) in acc.iter_mut().zip(wv) {
            for (av, &bv) in acc_row.iter_mut().zip(&img[at..at + NR]) {
                *av += w_val * bv;
            }
        }
    }
    for (dst, (bank_row, acc_row)) in out.iter_mut().zip(bank.iter().zip(&acc)) {
        for (o, (bv, av)) in dst.iter_mut().zip(bank_row.iter().zip(acc_row)) {
            let v = bv + av;
            *o = if t.relu && v < 0.0 { 0.0 } else { v };
        }
    }
}

/// Depthwise convolution: `weight` is `[c, 1, k, k]`, each channel convolved
/// with its own filter. Direct (non-GEMM) implementation with an
/// interior/border split per `(batch × channel)` plane.
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Tensor {
    let (n, c, h, w) = (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
    let ws = weight.shape();
    assert_eq!(ws.dim(0), c, "depthwise weight channels");
    assert_eq!(ws.dim(1), 1, "depthwise weight must be [c,1,k,k]");
    let (oh, ow) = p.out_hw(h, w);
    let mut out = Tensor::zeros(Shape::nchw(n, c, oh, ow));
    let k = p.kernel;
    let in_data = input.data();
    let w_data = weight.data();
    let bias_data = bias.map(|bt| bt.data());
    let plane_out = oh * ow;
    let plane_in = h * w;
    for (plane, out_plane) in out.data_mut().chunks_exact_mut(plane_out).enumerate() {
        let ch = plane % c;
        let inp = &in_data[plane * plane_in..(plane + 1) * plane_in];
        let wk = &w_data[ch * k * k..(ch + 1) * k * k];
        let bv = bias_data.map_or(0.0, |bd| bd[ch]);
        dw_plane(inp, wk, bv, h, w, oh, ow, p, out_plane);
    }
    out
}

/// One depthwise output plane: checked border band + unchecked interior.
///
/// The interior is the rectangle of output pixels whose receptive field lies
/// entirely inside the input, so taps index without bounds tests; k=3 and
/// k=5 (the supernet's kernel choices) get fully unrolled inner loops.
#[allow(clippy::too_many_arguments)]
fn dw_plane(
    inp: &[f32],
    wk: &[f32],
    bv: f32,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    p: Conv2dParams,
    out: &mut [f32],
) {
    let (k, s, pad) = (p.kernel, p.stride, p.pad);
    // First/last output coords whose k-wide window stays in-bounds.
    let oy_lo = pad.div_ceil(s).min(oh);
    let ox_lo = pad.div_ceil(s).min(ow);
    let oy_hi = if h + pad >= k { ((h + pad - k) / s + 1).min(oh) } else { 0 };
    let ox_hi = if w + pad >= k { ((w + pad - k) / s + 1).min(ow) } else { 0 };
    if oy_lo >= oy_hi || ox_lo >= ox_hi {
        dw_checked(inp, wk, bv, h, w, ow, p, out, 0..oh, 0..ow);
        return;
    }
    // Border bands: top and bottom full-width, then the left/right strips of
    // the interior rows.
    dw_checked(inp, wk, bv, h, w, ow, p, out, 0..oy_lo, 0..ow);
    dw_checked(inp, wk, bv, h, w, ow, p, out, oy_hi..oh, 0..ow);
    dw_checked(inp, wk, bv, h, w, ow, p, out, oy_lo..oy_hi, 0..ox_lo);
    dw_checked(inp, wk, bv, h, w, ow, p, out, oy_lo..oy_hi, ox_hi..ow);
    match k {
        3 => dw_interior_k3(inp, wk, bv, w, ow, s, pad, out, oy_lo..oy_hi, ox_lo..ox_hi),
        5 => dw_interior_k5(inp, wk, bv, w, ow, s, pad, out, oy_lo..oy_hi, ox_lo..ox_hi),
        _ => dw_interior(inp, wk, bv, w, ow, p, out, oy_lo..oy_hi, ox_lo..ox_hi),
    }
}

/// Border path, restricted to an output sub-rectangle. Instead of testing
/// every tap, the valid `ky`/`kx` ranges are clipped up front per output
/// pixel: the surviving inner loop is a branch-free dot product over two
/// contiguous slices (consecutive `kx` taps read consecutive `ix`).
#[allow(clippy::too_many_arguments)]
fn dw_checked(
    inp: &[f32],
    wk: &[f32],
    bv: f32,
    h: usize,
    w: usize,
    ow: usize,
    p: Conv2dParams,
    out: &mut [f32],
    oy_range: std::ops::Range<usize>,
    ox_range: std::ops::Range<usize>,
) {
    let (k, s, pad) = (p.kernel, p.stride, p.pad);
    for oy in oy_range {
        // iy = oy*s + ky - pad must fall in [0, h).
        let ky_lo = pad.saturating_sub(oy * s);
        let ky_hi = (h + pad).saturating_sub(oy * s).min(k);
        for ox in ox_range.clone() {
            let kx_lo = pad.saturating_sub(ox * s);
            let kx_hi = (w + pad).saturating_sub(ox * s).min(k);
            let mut acc = bv;
            if kx_lo < kx_hi {
                let ix0 = ox * s + kx_lo - pad;
                let span = kx_hi - kx_lo;
                for ky in ky_lo..ky_hi {
                    let iy = oy * s + ky - pad;
                    let irow = &inp[iy * w + ix0..iy * w + ix0 + span];
                    let wrow = &wk[ky * k + kx_lo..ky * k + kx_hi];
                    for (iv, wv) in irow.iter().zip(wrow.iter()) {
                        acc += iv * wv;
                    }
                }
            }
            out[oy * ow + ox] = acc;
        }
    }
}

/// Generic-k interior: windows fully in-bounds, slice-iterator taps.
#[allow(clippy::too_many_arguments)]
fn dw_interior(
    inp: &[f32],
    wk: &[f32],
    bv: f32,
    w: usize,
    ow: usize,
    p: Conv2dParams,
    out: &mut [f32],
    oy_range: std::ops::Range<usize>,
    ox_range: std::ops::Range<usize>,
) {
    let (k, s, pad) = (p.kernel, p.stride, p.pad);
    for oy in oy_range {
        let iy0 = oy * s - pad;
        let out_row = &mut out[oy * ow..(oy + 1) * ow];
        for ox in ox_range.clone() {
            let ix0 = ox * s - pad;
            let mut acc = bv;
            for ky in 0..k {
                let irow = &inp[(iy0 + ky) * w + ix0..(iy0 + ky) * w + ix0 + k];
                let wrow = &wk[ky * k..(ky + 1) * k];
                for (iv, wv) in irow.iter().zip(wrow.iter()) {
                    acc += iv * wv;
                }
            }
            out_row[ox] = acc;
        }
    }
}

/// Fully unrolled 3×3 interior.
#[allow(clippy::too_many_arguments)]
fn dw_interior_k3(
    inp: &[f32],
    wk: &[f32],
    bv: f32,
    w: usize,
    ow: usize,
    s: usize,
    pad: usize,
    out: &mut [f32],
    oy_range: std::ops::Range<usize>,
    ox_range: std::ops::Range<usize>,
) {
    let wk: &[f32; 9] = wk.try_into().expect("k=3 weight plane");
    // At stride 1 the interior row is a contiguous sliding window — hand it
    // to the AVX2 row kernel when available (8 outputs per step).
    let use_simd = s == 1 && simd::simd_active();
    for oy in oy_range {
        let iy0 = oy * s - pad;
        let r0 = &inp[iy0 * w..(iy0 + 1) * w];
        let r1 = &inp[(iy0 + 1) * w..(iy0 + 2) * w];
        let r2 = &inp[(iy0 + 2) * w..(iy0 + 3) * w];
        let out_row = &mut out[oy * ow..(oy + 1) * ow];
        if use_simd {
            let base = ox_range.start - pad; // ix of the first interior tap
            if simd::dw_row_s1(
                &[&r0[base..], &r1[base..], &r2[base..]],
                wk,
                bv,
                &mut out_row[ox_range.clone()],
            ) {
                continue;
            }
        }
        for ox in ox_range.clone() {
            let i = ox * s - pad;
            out_row[ox] = bv
                + r0[i] * wk[0]
                + r0[i + 1] * wk[1]
                + r0[i + 2] * wk[2]
                + r1[i] * wk[3]
                + r1[i + 1] * wk[4]
                + r1[i + 2] * wk[5]
                + r2[i] * wk[6]
                + r2[i + 1] * wk[7]
                + r2[i + 2] * wk[8];
        }
    }
}

/// Fully unrolled 5×5 interior.
#[allow(clippy::too_many_arguments)]
fn dw_interior_k5(
    inp: &[f32],
    wk: &[f32],
    bv: f32,
    w: usize,
    ow: usize,
    s: usize,
    pad: usize,
    out: &mut [f32],
    oy_range: std::ops::Range<usize>,
    ox_range: std::ops::Range<usize>,
) {
    let wk: &[f32; 25] = wk.try_into().expect("k=5 weight plane");
    let use_simd = s == 1 && simd::simd_active();
    for oy in oy_range {
        let iy0 = oy * s - pad;
        let r0 = &inp[iy0 * w..(iy0 + 1) * w];
        let r1 = &inp[(iy0 + 1) * w..(iy0 + 2) * w];
        let r2 = &inp[(iy0 + 2) * w..(iy0 + 3) * w];
        let r3 = &inp[(iy0 + 3) * w..(iy0 + 4) * w];
        let r4 = &inp[(iy0 + 4) * w..(iy0 + 5) * w];
        let out_row = &mut out[oy * ow..(oy + 1) * ow];
        if use_simd {
            let base = ox_range.start - pad; // ix of the first interior tap
            if simd::dw_row_s1(
                &[&r0[base..], &r1[base..], &r2[base..], &r3[base..], &r4[base..]],
                wk,
                bv,
                &mut out_row[ox_range.clone()],
            ) {
                continue;
            }
        }
        for ox in ox_range.clone() {
            let i = ox * s - pad;
            let mut acc = bv;
            acc += r0[i] * wk[0]
                + r0[i + 1] * wk[1]
                + r0[i + 2] * wk[2]
                + r0[i + 3] * wk[3]
                + r0[i + 4] * wk[4];
            acc += r1[i] * wk[5]
                + r1[i + 1] * wk[6]
                + r1[i + 2] * wk[7]
                + r1[i + 3] * wk[8]
                + r1[i + 4] * wk[9];
            acc += r2[i] * wk[10]
                + r2[i + 1] * wk[11]
                + r2[i + 2] * wk[12]
                + r2[i + 3] * wk[13]
                + r2[i + 4] * wk[14];
            acc += r3[i] * wk[15]
                + r3[i + 1] * wk[16]
                + r3[i + 2] * wk[17]
                + r3[i + 3] * wk[18]
                + r3[i + 4] * wk[19];
            acc += r4[i] * wk[20]
                + r4[i + 1] * wk[21]
                + r4[i + 2] * wk[22]
                + r4[i + 3] * wk[23]
                + r4[i + 4] * wk[24];
            out_row[ox] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Naive reference convolution used for testing the fast paths.
    fn conv2d_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        p: Conv2dParams,
    ) -> Tensor {
        let (n, c_in, h, w) =
            (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
        let c_out = weight.shape().dim(0);
        let k = p.kernel;
        let (oh, ow) = p.out_hw(h, w);
        let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
        for b in 0..n {
            for co in 0..c_out {
                let bv = bias.map_or(0.0, |bt| bt.data()[co]);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bv;
                        for ci in 0..c_in {
                            for ky in 0..k {
                                let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(b, ci, iy as usize, ix as usize)
                                        * weight.data()[((co * c_in + ci) * k + ky) * k + kx];
                                }
                            }
                        }
                        *out.at_mut(b, co, oy, ox) = acc;
                    }
                }
            }
        }
        out
    }

    /// Naive reference depthwise convolution (per-tap bounds checks everywhere),
    /// used to validate the interior/border fast path.
    fn depthwise_conv2d_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        p: Conv2dParams,
    ) -> Tensor {
        let (n, c, h, w) =
            (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
        let (oh, ow) = p.out_hw(h, w);
        let mut out = Tensor::zeros(Shape::nchw(n, c, oh, ow));
        let k = p.kernel;
        for b in 0..n {
            for ch in 0..c {
                let in_base = (b * c + ch) * h * w;
                let w_base = ch * k * k;
                let out_base = (b * c + ch) * oh * ow;
                let bv = bias.map_or(0.0, |bt| bt.data()[ch]);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bv;
                        for ky in 0..k {
                            let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input.data()[in_base + iy as usize * w + ix as usize]
                                    * weight.data()[w_base + ky * k + kx];
                            }
                        }
                        out.data_mut()[out_base + oy * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 conv with weight 1.0 is identity.
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::rand_uniform(Shape::nchw(1, 1, 4, 4), 1.0, &mut rng);
        let w = Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0);
        let p = Conv2dParams { kernel: 1, stride: 1, pad: 0 };
        let y = conv2d(&x, &w, None, p);
        assert_close(y.data(), x.data(), 1e-6);
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel over all-ones 3x3 input with pad 1:
        // corner = 4, edge = 6, center = 9.
        let x = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let w = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let y = conv2d(&x, &w, None, Conv2dParams::same(3));
        let expect = [4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0];
        assert_close(y.data(), &expect, 1e-6);
    }

    #[test]
    fn im2col_matches_reference_conv() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(c_in, c_out, h, w, k, s, pad) in &[
            (3, 8, 8, 8, 3, 1, 1),
            (4, 4, 7, 9, 3, 2, 1),
            (2, 6, 11, 5, 5, 2, 2),
            (1, 2, 6, 6, 1, 1, 0),
            (3, 5, 10, 10, 7, 2, 3),
        ] {
            let p = Conv2dParams { kernel: k, stride: s, pad };
            let x = Tensor::rand_uniform(Shape::nchw(2, c_in, h, w), 1.0, &mut rng);
            let wt = Tensor::rand_uniform(Shape::nchw(c_out, c_in, k, k), 0.5, &mut rng);
            let b = Tensor::rand_uniform(Shape::d1(c_out), 0.5, &mut rng);
            let fast = conv2d(&x, &wt, Some(&b), p);
            let slow = conv2d_ref(&x, &wt, Some(&b), p);
            assert_eq!(fast.shape(), slow.shape());
            assert_close(fast.data(), slow.data(), 1e-3);
        }
    }

    #[test]
    fn depthwise_matches_grouped_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = 4;
        let p = Conv2dParams::same(3);
        let x = Tensor::rand_uniform(Shape::nchw(1, c, 6, 6), 1.0, &mut rng);
        let wt = Tensor::rand_uniform(Shape::nchw(c, 1, 3, 3), 0.5, &mut rng);
        let y = depthwise_conv2d(&x, &wt, None, p);
        // Reference: expand to a block-diagonal standard conv.
        let mut full = Tensor::zeros(Shape::nchw(c, c, 3, 3));
        for ch in 0..c {
            for t in 0..9 {
                full.data_mut()[((ch * c + ch) * 9) + t] = wt.data()[ch * 9 + t];
            }
        }
        let r = conv2d_ref(&x, &full, None, p);
        assert_close(y.data(), r.data(), 1e-4);
    }

    #[test]
    fn depthwise_border_heavy_geometries_match_reference() {
        // Geometries chosen so most (or all) of the plane is border: h/w near
        // k, stride 2, pad up to 2, non-square.
        let mut rng = StdRng::seed_from_u64(12);
        for &(c, h, w, k, s, pad) in &[
            (3, 5, 5, 5, 1, 2), // interior is a single pixel
            (2, 4, 7, 5, 2, 2), // h < k without padding
            (4, 3, 3, 3, 2, 1), // everything border
            (2, 28, 28, 5, 2, 2),
            (1, 6, 11, 7, 2, 3),
            (5, 9, 4, 3, 1, 1),
        ] {
            let p = Conv2dParams { kernel: k, stride: s, pad };
            let x = Tensor::rand_uniform(Shape::nchw(2, c, h, w), 1.0, &mut rng);
            let wt = Tensor::rand_uniform(Shape::nchw(c, 1, k, k), 0.5, &mut rng);
            let b = Tensor::rand_uniform(Shape::d1(c), 0.5, &mut rng);
            let fast = depthwise_conv2d(&x, &wt, Some(&b), p);
            let slow = depthwise_conv2d_ref(&x, &wt, Some(&b), p);
            assert_eq!(fast.shape(), slow.shape());
            assert_close(fast.data(), slow.data(), 1e-4);
        }
    }

    #[test]
    fn scratch_pool_reuse_is_deterministic() {
        // Repeated forwards through the pooled-scratch paths must be
        // bit-identical (the pool hands back dirty buffers; kernels must
        // fully overwrite or zero what they read).
        let mut rng = StdRng::seed_from_u64(21);
        let p = Conv2dParams { kernel: 3, stride: 2, pad: 1 };
        let x = Tensor::rand_uniform(Shape::nchw(3, 4, 9, 7), 1.0, &mut rng);
        let wt = Tensor::rand_uniform(Shape::nchw(6, 4, 3, 3), 0.5, &mut rng);
        let b = Tensor::rand_uniform(Shape::d1(6), 0.5, &mut rng);
        let first = conv2d(&x, &wt, Some(&b), p);
        for _ in 0..3 {
            let again = conv2d(&x, &wt, Some(&b), p);
            assert_eq!(first.data(), again.data(), "conv2d must be deterministic");
        }
        let dwt = Tensor::rand_uniform(Shape::nchw(4, 1, 3, 3), 0.5, &mut rng);
        let d1 = depthwise_conv2d(&x, &dwt, None, p);
        let d2 = depthwise_conv2d(&x, &dwt, None, p);
        assert_eq!(d1.data(), d2.data(), "depthwise must be deterministic");
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = StdRng::seed_from_u64(11);
        let (c, h, w) = (2, 5, 5);
        let p = Conv2dParams { kernel: 3, stride: 2, pad: 1 };
        let x = Tensor::rand_uniform(Shape::nchw(1, c, h, w), 1.0, &mut rng);
        let mut cols = Vec::new();
        let (rows, spatial) = im2col(x.data(), c, h, w, p, &mut cols);
        let y: Vec<f32> =
            (0..rows * spatial).map(|i| ((i * 2654435761) % 97) as f32 / 97.0 - 0.5).collect();
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0; c * h * w];
        col2im(&y, c, h, w, p, &mut back);
        let rhs: f32 = x.data().iter().zip(back.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn split_is_bit_exact_for_any_helper_count() {
        // c_out 6 leaves a half 4-row group and c_out 13 one full 8-row group
        // and a 5-row one; oh 13 leaves a 5-row band, w 21 a partial strip;
        // c_in·k² = 270 crosses KC; batch 2 reuses the padded buffer.
        for (seed, c_out) in [(31, 6), (37, 13)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, c_in, h, w) = (2, 30, 13, 21);
            let p = Conv2dParams::same(3);
            let (oh, ow) = p.out_hw(h, w);
            let x = Tensor::rand_uniform(Shape::nchw(n, c_in, h, w), 1.0, &mut rng);
            let wt = Tensor::rand_uniform(Shape::nchw(c_out, c_in, 3, 3), 0.5, &mut rng);
            let b = Tensor::rand_uniform(Shape::d1(c_out), 0.5, &mut rng);
            let (dims, bias) = ((c_in, h, w, c_out), Some(b.data()));
            let conv = |run: Runner, tier: ConvTier, relu: bool| {
                let mut out = vec![0.0f32; n * c_out * oh * ow];
                conv2d_direct(run, tier, x.data(), dims, wt.data(), bias, p, relu, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            let pools: Vec<_> = (0..4).map(par::Pool::new).collect();
            let mut tiers = vec![ConvTier::Portable];
            if simd::detected() {
                tiers.push(ConvTier::Avx2);
            }
            if simd::detected_avx512() {
                tiers.push(ConvTier::Avx512);
            }
            for tier in tiers {
                for relu in [false, true] {
                    let want = conv(&serial, tier, relu);
                    for (helpers, pool) in pools.iter().enumerate() {
                        let got = conv(&|n, f| pool.for_each(n, f), tier, relu);
                        assert!(
                            got == want,
                            "c_out {c_out}, {helpers} helpers, {tier:?}, relu {relu}"
                        );
                    }
                }
                if tier == ConvTier::Avx512 {
                    let avx2 = conv(&serial, ConvTier::Avx2, false);
                    assert!(conv(&serial, tier, false) == avx2, "c_out {c_out}: tiers differ");
                }
            }
        }
    }

    #[test]
    fn stride_two_halves_spatial() {
        let x = Tensor::zeros(Shape::nchw(1, 3, 224, 224));
        let w = Tensor::zeros(Shape::nchw(16, 3, 3, 3));
        let y = conv2d(&x, &w, None, Conv2dParams { kernel: 3, stride: 2, pad: 1 });
        assert_eq!(y.shape(), &Shape::nchw(1, 16, 112, 112));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_conv_matches_reference(
            c_in in 1usize..4, c_out in 1usize..4,
            h in 3usize..9, w in 3usize..9,
            k in prop::sample::select(vec![1usize, 3]),
            s in 1usize..3, seed in 0u64..500,
        ) {
            let pad = k / 2;
            let p = Conv2dParams { kernel: k, stride: s, pad };
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::rand_uniform(Shape::nchw(1, c_in, h, w), 1.0, &mut rng);
            let wt = Tensor::rand_uniform(Shape::nchw(c_out, c_in, k, k), 0.5, &mut rng);
            let fast = conv2d(&x, &wt, None, p);
            let slow = conv2d_ref(&x, &wt, None, p);
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_batched_conv_border_heavy_matches_reference(
            n in 1usize..4, c_in in 1usize..3, c_out in 1usize..4,
            h in 3usize..10, dw in 1usize..4,
            k in prop::sample::select(vec![1usize, 3, 5]),
            s in 1usize..3, pad in 1usize..3, seed in 0u64..500,
        ) {
            let w = h + dw; // non-square planes
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let p = Conv2dParams { kernel: k, stride: s, pad };
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::rand_uniform(Shape::nchw(n, c_in, h, w), 1.0, &mut rng);
            let wt = Tensor::rand_uniform(Shape::nchw(c_out, c_in, k, k), 0.5, &mut rng);
            let b = Tensor::rand_uniform(Shape::d1(c_out), 0.5, &mut rng);
            let fast = conv2d(&x, &wt, Some(&b), p);
            let slow = conv2d_ref(&x, &wt, Some(&b), p);
            prop_assert_eq!(fast.shape(), slow.shape());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_depthwise_border_heavy_matches_reference(
            n in 1usize..3, c in 1usize..5,
            h in 2usize..9, dw in 1usize..4,
            k in prop::sample::select(vec![3usize, 5, 7]),
            s in 1usize..3, pad in 1usize..4, seed in 0u64..500,
        ) {
            let w = h + dw; // h ≠ w exercises row/col border asymmetry
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let p = Conv2dParams { kernel: k, stride: s, pad };
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::rand_uniform(Shape::nchw(n, c, h, w), 1.0, &mut rng);
            let wt = Tensor::rand_uniform(Shape::nchw(c, 1, k, k), 0.5, &mut rng);
            let fast = depthwise_conv2d(&x, &wt, None, p);
            let slow = depthwise_conv2d_ref(&x, &wt, None, p);
            prop_assert_eq!(fast.shape(), slow.shape());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
