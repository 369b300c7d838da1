//! Runtime-dispatched AVX2/FMA microkernels for the tensor hot loops.
//!
//! Every kernel in this crate is written twice: a portable scalar version
//! (the code that lives in `gemm.rs` / `conv.rs` / `quant.rs` / `int8.rs`)
//! and, on x86-64, a hand-written AVX2/FMA version in this module. Dispatch
//! is decided at runtime:
//!
//! * [`simd_active`] is true only when the CPU reports `avx2` **and** `fma`
//!   via `is_x86_feature_detected!` *and* the scalar override is off.
//! * Setting `MURMURATION_FORCE_SCALAR` (to anything but `0` or the empty
//!   string) in the environment forces the portable path process-wide; the
//!   variable is read once, on first dispatch.
//! * [`force_scalar`] toggles the same switch programmatically so tests and
//!   benches can compare both paths inside one process.
//!
//! The public functions here are *safe* wrappers: each validates its slice
//!   bounds, then calls the `#[target_feature]` kernel. They return `false`
//! (or `None`) when the vector path is unavailable — either the build is not
//! x86-64 or the CPU lacks AVX2/FMA — and the caller runs its scalar
//! fallback. The scalar *override* is deliberately not consulted here: policy
//! lives at the call sites (which check [`simd_active`] once per operation),
//! so a concurrent toggle cannot strand a caller halfway through an
//! operation with no fallback.
//!
//! Numeric contract (documented in DESIGN.md §8):
//!
//! * f32 kernels are ULP-bounded against scalar: FMA contracts each
//!   multiply-add to one rounding, so results may differ from the scalar
//!   path by O(k) ULPs over a k-long reduction — never more. Within one
//!   path, the direct-convolution tile and the GEMM tile over the unfolded
//!   image agree bit for bit (`tests/conv_direct_exact.rs`).
//! * Integer kernels (int8 GEMM, quantize encode) are **bit-exact** against
//!   their scalar counterparts: i32 accumulation is exact in both, and both
//!   sides round with round-to-nearest-even (`f32::round_ties_even` scalar,
//!   `vcvtps2dq` vector).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Dispatch state
// ---------------------------------------------------------------------------

/// Override state: 0 = uninitialised (env not read yet), 1 = auto, 2 = scalar.
static MODE: AtomicU8 = AtomicU8::new(0);
const MODE_AUTO: u8 = 1;
const MODE_SCALAR: u8 = 2;

fn mode() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m != 0 {
        return m;
    }
    let forced = match std::env::var("MURMURATION_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    };
    let m = if forced { MODE_SCALAR } else { MODE_AUTO };
    // A racing first call computes the same value; last store wins harmlessly.
    MODE.store(m, Ordering::Relaxed);
    m
}

/// Forces (or releases) the portable scalar path process-wide.
///
/// Used by parity tests and benches to run both paths in one process. Takes
/// precedence over the `MURMURATION_FORCE_SCALAR` environment variable.
pub fn force_scalar(on: bool) {
    MODE.store(if on { MODE_SCALAR } else { MODE_AUTO }, Ordering::Relaxed);
}

/// True when the CPU supports the AVX2/FMA kernels (ignores the override).
#[cfg(target_arch = "x86_64")]
pub fn detected() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// True when the CPU supports the AVX2/FMA kernels (ignores the override).
#[cfg(not(target_arch = "x86_64"))]
pub fn detected() -> bool {
    false
}

/// True when the CPU additionally supports AVX-VNNI (`vpdpbusd` on 256-bit
/// registers). Upgrades the int8 GEMM tile from the three-instruction
/// `maddubs`/`madd`/`add` widening sequence to one fused dot-product per
/// panel — same exact i32 results, roughly half the inner-loop µops.
#[cfg(target_arch = "x86_64")]
pub fn detected_vnni() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| detected() && std::arch::is_x86_feature_detected!("avxvnni"))
}

/// True when the CPU additionally supports AVX-VNNI.
#[cfg(not(target_arch = "x86_64"))]
pub fn detected_vnni() -> bool {
    false
}

/// True when callers should dispatch to the vector kernels: the CPU has
/// AVX2+FMA and neither `MURMURATION_FORCE_SCALAR` nor [`force_scalar`] is in
/// effect. Call sites read this once per operation so the choice is stable
/// for that operation even if the override is toggled concurrently.
pub fn simd_active() -> bool {
    detected() && mode() == MODE_AUTO
}

// ---------------------------------------------------------------------------
// f32 GEMM register tile
// ---------------------------------------------------------------------------

/// Computes a 4×16 f32 GEMM register tile: `acc[r][j] = Σ_p a[r][p] * panel[p*16 + j]`.
///
/// `rows_a` are the four A rows of the tile (rows may alias when `mr < 4`;
/// callers simply ignore the duplicate output rows). `panel` is a packed
/// `kc × 16` B panel as produced by `gemm::pack_b_panels`. Returns `false`
/// when the CPU lacks AVX2/FMA, in which case nothing is written and the
/// caller must run the scalar microkernel.
pub fn gemm_tile_16(
    kc: usize,
    rows_a: &[&[f32]; 4],
    panel: &[f32],
    acc: &mut [[f32; 16]; 4],
) -> bool {
    if !detected() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        assert!(panel.len() >= kc * 16, "panel too short for kc={kc}");
        for r in rows_a {
            assert!(r.len() >= kc, "A row shorter than kc={kc}");
        }
        // SAFETY: AVX2+FMA presence was checked via `detected()`. The asserts
        // above guarantee each A-row pointer is readable for `kc` f32 and the
        // panel pointer for `kc * 16` f32; `acc` is a plain &mut to stack
        // storage the kernel fully overwrites.
        unsafe {
            f32_tile_16_avx2(
                kc,
                [rows_a[0].as_ptr(), rows_a[1].as_ptr(), rows_a[2].as_ptr(), rows_a[3].as_ptr()],
                panel.as_ptr(),
                acc,
            );
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (kc, rows_a, panel, acc);
        false
    }
}

/// # Safety
/// Caller must ensure AVX2+FMA are available, each `a[r]` is valid for `kc`
/// f32 reads, and `panel` is valid for `kc * 16` f32 reads.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn f32_tile_16_avx2(
    kc: usize,
    a: [*const f32; 4],
    panel: *const f32,
    out: &mut [[f32; 16]; 4],
) {
    use std::arch::x86_64::*;
    // 8 independent accumulator chains (4 rows × 2 ymm) keep the two FMA
    // ports saturated across the ~4-cycle FMA latency.
    let mut acc = [[_mm256_setzero_ps(); 2]; 4];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(panel.add(p * 16));
        let b1 = _mm256_loadu_ps(panel.add(p * 16 + 8));
        for r in 0..4 {
            let av = _mm256_set1_ps(*a[r].add(p));
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    for r in 0..4 {
        _mm256_storeu_ps(out[r].as_mut_ptr(), acc[r][0]);
        _mm256_storeu_ps(out[r].as_mut_ptr().add(8), acc[r][1]);
    }
}

// ---------------------------------------------------------------------------
// f32 direct-convolution register tile
// ---------------------------------------------------------------------------

/// What every tile of one stride-1 convolution shares: channel count and
/// kernel size, the padded image's channel (`plane`) and row (`pw`) pitch,
/// and whether ReLU is fused into the store.
#[derive(Clone, Copy, Debug)]
pub struct ConvTile {
    pub c_in: usize,
    pub k: usize,
    pub plane: usize,
    pub pw: usize,
    pub relu: bool,
}

/// Computes one 4×16 tile of a stride-1 convolution straight from the
/// zero-padded image: four output channels at 16 consecutive pixels of one
/// output row, channel `r` stored into `out[r]`.
///
/// `img` starts at the tile's origin `(channel 0, oy, ox0)`; `wg` is the
/// weight group `[tap][4]` in `im2col` tap order `(c·k + ky)·k + kx`. The
/// value is bit for bit what `gemm_bias` over the unfolded image gives:
/// accumulators start at zero, and on every `gemm::KC` boundary
/// and at the end they are added to a bank that starts at the bias. Returns
/// `false` when the CPU lacks AVX2/FMA; nothing is written.
pub fn conv_tile_16(
    t: ConvTile,
    img: &[f32],
    wg: &[f32],
    bias: &[f32; 4],
    out: &mut [&mut [f32; 16]; 4],
) -> bool {
    if !detected() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        assert!(t.c_in > 0 && t.k > 0, "empty conv tile");
        assert!(
            img.len() >= (t.c_in - 1) * t.plane + (t.k - 1) * t.pw + (t.k - 1) + 16,
            "padded image too short for the tile's last tap"
        );
        assert!(wg.len() >= 4 * t.c_in * t.k * t.k, "weight group shorter than 4*c_in*k*k");
        // SAFETY: AVX2+FMA presence was checked via `detected()`. The widest
        // read is 16 f32 at `img[(c_in-1)*plane + (k-1)*pw + (k-1)]` and the
        // kernel reads `4*c_in*k*k` f32 of `wg`, both asserted above; it
        // writes the four 16-f32 rows of `out`, exclusive borrows by type.
        unsafe {
            conv_tile_16_avx2(
                t,
                img.as_ptr(),
                wg.as_ptr(),
                bias,
                out.each_mut().map(|r| r.as_mut_ptr()),
            )
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (t, img, wg, bias, out);
        false
    }
}

/// # Safety
/// Caller must ensure AVX2+FMA are available, `img` is valid for
/// `(c_in-1)*plane + (k-1)*pw + (k-1) + 16` f32 reads, `wg` for `4*c_in*k*k`
/// reads, and each `out[r]` for 16 f32 writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::needless_range_loop)] // iterator forms spill the accumulators (+40 % per tile)
unsafe fn conv_tile_16_avx2(
    t: ConvTile,
    img: *const f32,
    mut wg: *const f32,
    bias: &[f32; 4],
    out: [*mut f32; 4],
) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let mut bank = bias.map(|b| [_mm256_set1_ps(b); 2]);
    let mut acc = [[zero; 2]; 4];
    let mut open = 0; // taps in the open slab
    for c in 0..t.c_in {
        for ky in 0..t.k {
            let row = img.add(c * t.plane + ky * t.pw);
            for kx in 0..t.k {
                if open == crate::gemm::KC {
                    for r in 0..4 {
                        bank[r][0] = _mm256_add_ps(bank[r][0], acc[r][0]);
                        bank[r][1] = _mm256_add_ps(bank[r][1], acc[r][1]);
                    }
                    acc = [[zero; 2]; 4];
                    open = 0;
                }
                let b0 = _mm256_loadu_ps(row.add(kx));
                let b1 = _mm256_loadu_ps(row.add(kx + 8));
                for r in 0..4 {
                    let av = _mm256_broadcast_ss(&*wg.add(r));
                    acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                    acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
                }
                wg = wg.add(4);
                open += 1;
            }
        }
    }
    for r in 0..4 {
        for half in 0..2 {
            let mut v = _mm256_add_ps(bank[r][half], acc[r][half]);
            if t.relu {
                // `max(0, v)` in this operand order returns `v` for −0.0 and
                // NaN, which is what `if v < 0 { 0 }` leaves.
                v = _mm256_max_ps(zero, v);
            }
            _mm256_storeu_ps(out[r].add(half * 8), v);
        }
    }
}

// ---------------------------------------------------------------------------
// Depthwise stride-1 interior rows
// ---------------------------------------------------------------------------

/// Computes one stride-1 depthwise output row over the plane interior:
/// `out[t] = bias + Σ_{ky,kx} rows[ky][t + kx] * wk[ky*k + kx]`.
///
/// `rows.len()` selects the kernel size (3 or 5 are vectorized; anything else
/// returns `false`). Each input row slice must hold `out.len() + k - 1`
/// elements — the caller (the interior splitter in `conv.rs`) guarantees all
/// taps are in bounds. Returns `false` when unvectorizable; nothing written.
pub fn dw_row_s1(rows: &[&[f32]], wk: &[f32], bias: f32, out: &mut [f32]) -> bool {
    if !detected() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let k = rows.len();
        if k != 3 && k != 5 {
            return false;
        }
        let len = out.len();
        assert!(wk.len() >= k * k, "weights shorter than k*k");
        for r in rows {
            assert!(r.len() >= len + k - 1, "input row shorter than len + k - 1");
        }
        // SAFETY: AVX2+FMA presence was checked via `detected()`. Each row
        // pointer is readable for `len + k - 1` f32 (asserted above), so the
        // widest access `rows[ky][t + kx]` with `t < len`, `kx < k` is in
        // bounds; `wk` holds the k*k taps; `out` is writable for `len`.
        unsafe {
            match k {
                3 => dw_row3_s1_avx2(
                    [rows[0].as_ptr(), rows[1].as_ptr(), rows[2].as_ptr()],
                    wk.as_ptr(),
                    bias,
                    out.as_mut_ptr(),
                    len,
                ),
                _ => dw_row5_s1_avx2(
                    [
                        rows[0].as_ptr(),
                        rows[1].as_ptr(),
                        rows[2].as_ptr(),
                        rows[3].as_ptr(),
                        rows[4].as_ptr(),
                    ],
                    wk.as_ptr(),
                    bias,
                    out.as_mut_ptr(),
                    len,
                ),
            }
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (rows, wk, bias, out);
        false
    }
}

/// # Safety
/// Caller must ensure AVX2+FMA are available, each `r[ky]` is valid for
/// `len + 2` f32 reads, `wk` for 9 reads, and `out` for `len` writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dw_row3_s1_avx2(
    r: [*const f32; 3],
    wk: *const f32,
    bias: f32,
    out: *mut f32,
    len: usize,
) {
    use std::arch::x86_64::*;
    let bv = _mm256_set1_ps(bias);
    let mut t = 0;
    while t + 8 <= len {
        let mut acc = bv;
        for (ky, &row) in r.iter().enumerate() {
            for kx in 0..3 {
                let w = _mm256_broadcast_ss(&*wk.add(ky * 3 + kx));
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(t + kx)), w, acc);
            }
        }
        _mm256_storeu_ps(out.add(t), acc);
        t += 8;
    }
    while t < len {
        let mut s = bias;
        for (ky, &row) in r.iter().enumerate() {
            for kx in 0..3 {
                s = (*row.add(t + kx)).mul_add(*wk.add(ky * 3 + kx), s);
            }
        }
        *out.add(t) = s;
        t += 1;
    }
}

/// # Safety
/// Caller must ensure AVX2+FMA are available, each `r[ky]` is valid for
/// `len + 4` f32 reads, `wk` for 25 reads, and `out` for `len` writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dw_row5_s1_avx2(
    r: [*const f32; 5],
    wk: *const f32,
    bias: f32,
    out: *mut f32,
    len: usize,
) {
    use std::arch::x86_64::*;
    let bv = _mm256_set1_ps(bias);
    let mut t = 0;
    while t + 8 <= len {
        let mut acc = bv;
        for (ky, &row) in r.iter().enumerate() {
            for kx in 0..5 {
                let w = _mm256_broadcast_ss(&*wk.add(ky * 5 + kx));
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(t + kx)), w, acc);
            }
        }
        _mm256_storeu_ps(out.add(t), acc);
        t += 8;
    }
    while t < len {
        let mut s = bias;
        for (ky, &row) in r.iter().enumerate() {
            for kx in 0..5 {
                s = (*row.add(t + kx)).mul_add(*wk.add(ky * 5 + kx), s);
            }
        }
        *out.add(t) = s;
        t += 1;
    }
}

// ---------------------------------------------------------------------------
// Quantization helpers
// ---------------------------------------------------------------------------

/// Vectorized `max(|x|)` over a slice. `None` when the vector path is
/// unavailable (or the slice is empty); the caller runs its scalar fold.
pub fn absmax(data: &[f32]) -> Option<f32> {
    if !detected() || data.is_empty() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: AVX2 presence was checked via `detected()`; the kernel only
        // reads `data.len()` f32 through the slice pointer.
        Some(unsafe { absmax_avx2(data.as_ptr(), data.len()) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// # Safety
/// Caller must ensure AVX2 is available and `d` is valid for `n` f32 reads.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn absmax_avx2(d: *const f32, n: usize) -> f32 {
    use std::arch::x86_64::*;
    let sign_mask = _mm256_set1_ps(f32::from_bits(0x7fff_ffff));
    let mut m0 = _mm256_setzero_ps();
    let mut m1 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        m0 = _mm256_max_ps(m0, _mm256_and_ps(_mm256_loadu_ps(d.add(i)), sign_mask));
        m1 = _mm256_max_ps(m1, _mm256_and_ps(_mm256_loadu_ps(d.add(i + 8)), sign_mask));
        i += 16;
    }
    while i + 8 <= n {
        m0 = _mm256_max_ps(m0, _mm256_and_ps(_mm256_loadu_ps(d.add(i)), sign_mask));
        i += 8;
    }
    let m = _mm256_max_ps(m0, m1);
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), m);
    let mut best = lanes.iter().fold(0.0f32, |a, &b| a.max(b));
    while i < n {
        best = best.max((*d.add(i)).abs());
        i += 1;
    }
    best
}

/// Vectorized symmetric encode to i32 codes:
/// `out[i] = round_ties_even(clamp(data[i] * inv, -qmax, qmax))`.
///
/// Bit-exact with the scalar formula (both clamp before rounding and round
/// half-to-even). Returns `false` when the vector path is unavailable.
pub fn encode_i32(data: &[f32], inv: f32, qmax: f32, out: &mut [i32]) -> bool {
    if !detected() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(data.len(), out.len(), "encode length mismatch");
        // SAFETY: AVX2 presence was checked via `detected()`; `data` and
        // `out` have equal lengths (asserted), and the kernel stays within
        // `n` elements of both.
        unsafe { encode_i32_avx2(data.as_ptr(), data.len(), inv, qmax, out.as_mut_ptr()) }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, inv, qmax, out);
        false
    }
}

/// # Safety
/// Caller must ensure AVX2 is available, `d` is valid for `n` f32 reads, and
/// `out` for `n` i32 writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_i32_avx2(d: *const f32, n: usize, inv: f32, qmax: f32, out: *mut i32) {
    use std::arch::x86_64::*;
    let vi = _mm256_set1_ps(inv);
    let lo = _mm256_set1_ps(-qmax);
    let hi = _mm256_set1_ps(qmax);
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_mul_ps(_mm256_loadu_ps(d.add(i)), vi);
        let c = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
        // vcvtps2dq rounds to nearest-even, matching f32::round_ties_even.
        _mm256_storeu_si256(out.add(i).cast(), _mm256_cvtps_epi32(c));
        i += 8;
    }
    while i < n {
        *out.add(i) = ((*d.add(i) * inv).clamp(-qmax, qmax)).round_ties_even() as i32;
        i += 1;
    }
}

/// Vectorized symmetric encode straight to i8 codes (same formula as
/// [`encode_i32`], `qmax ≤ 127`). Bit-exact with the scalar path. Returns
/// `false` when the vector path is unavailable.
pub fn encode_i8(data: &[f32], inv: f32, qmax: f32, out: &mut [i8]) -> bool {
    if !detected() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(data.len(), out.len(), "encode length mismatch");
        assert!(qmax <= 127.0, "i8 encode requires qmax <= 127");
        // SAFETY: AVX2 presence was checked via `detected()`; `data` and
        // `out` have equal lengths (asserted), and clamped codes fit i8
        // because qmax <= 127 (asserted).
        unsafe { encode_i8_avx2(data.as_ptr(), data.len(), inv, qmax, out.as_mut_ptr()) }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, inv, qmax, out);
        false
    }
}

/// # Safety
/// Caller must ensure AVX2 is available, `d` is valid for `n` f32 reads,
/// `out` for `n` i8 writes, and `qmax <= 127` so codes fit i8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_i8_avx2(d: *const f32, n: usize, inv: f32, qmax: f32, out: *mut i8) {
    use std::arch::x86_64::*;
    let vi = _mm256_set1_ps(inv);
    let lo = _mm256_set1_ps(-qmax);
    let hi = _mm256_set1_ps(qmax);
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_mul_ps(_mm256_loadu_ps(d.add(i)), vi);
        let c = _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(v, lo), hi));
        // Narrow 8×i32 → 8×i8: the values are already in [-127, 127], so the
        // saturating packs are pure width changes.
        let lo128 = _mm256_castsi256_si128(c);
        let hi128 = _mm256_extracti128_si256(c, 1);
        let w16 = _mm_packs_epi32(lo128, hi128);
        let b8 = _mm_packs_epi16(w16, w16);
        _mm_storel_epi64(out.add(i).cast(), b8);
        i += 8;
    }
    while i < n {
        *out.add(i) = ((*d.add(i) * inv).clamp(-qmax, qmax)).round_ties_even() as i8;
        i += 1;
    }
}

/// Vectorized symmetric decode: `out[i] = codes[i] as f32 * scale`. Bit-exact
/// with the scalar loop (same convert + multiply per element). Returns
/// `false` when the vector path is unavailable.
pub fn dequant_i32(codes: &[i32], scale: f32, out: &mut [f32]) -> bool {
    if !detected() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(codes.len(), out.len(), "dequant length mismatch");
        // SAFETY: AVX2 presence was checked via `detected()`; `codes` and
        // `out` have equal lengths (asserted) and the kernel stays within
        // `n` elements of both.
        unsafe { dequant_i32_avx2(codes.as_ptr(), codes.len(), scale, out.as_mut_ptr()) }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (codes, scale, out);
        false
    }
}

/// Vectorized symmetric decode into a *fresh* vector — the allocation is
/// filled exactly once (no zero prefill, so the output memory is touched a
/// single time; this kernel is bandwidth-bound). Bit-exact with the scalar
/// loop. Returns `None` when the vector path is unavailable.
pub fn dequant_i32_vec(codes: &[i32], scale: f32) -> Option<Vec<f32>> {
    if !detected() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let n = codes.len();
        let mut out: Vec<f32> = Vec::with_capacity(n);
        // SAFETY: AVX2 presence was checked via `detected()`; `codes` is
        // valid for `n` i32 reads and `out`'s freshly reserved buffer for
        // `n` f32 writes. The kernel writes all `n` elements before
        // `set_len` exposes them.
        unsafe {
            dequant_i32_avx2(codes.as_ptr(), n, scale, out.as_mut_ptr());
            out.set_len(n);
        }
        Some(out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = scale;
        None
    }
}

/// # Safety
/// Caller must ensure AVX2 is available, `c` is valid for `n` i32 reads, and
/// `out` for `n` f32 writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequant_i32_avx2(c: *const i32, n: usize, scale: f32, out: *mut f32) {
    use std::arch::x86_64::*;
    let vs = _mm256_set1_ps(scale);
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(c.add(i).cast()));
        _mm256_storeu_ps(out.add(i), _mm256_mul_ps(v, vs));
        i += 8;
    }
    while i < n {
        *out.add(i) = *c.add(i) as f32 * scale;
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// int8 GEMM register tile
// ---------------------------------------------------------------------------

/// Computes a 4×16 int8 GEMM register tile with i32 accumulation over the
/// offset-u8 panel layout of `int8::pack_b` (see that module for the layout):
///
/// `acc[r][j] = Σ_k a[r][k] * (panel_byte(k, j) as i32)`  — where the panel
/// bytes are activation codes offset by +128, so the caller must subtract
/// `128 * row_sum(a[r])` afterwards to recover the true product.
///
/// The accumulation is exact: weights are bounded to |w| ≤ 63 by
/// `int8::QGemmWeights`, so each `vpmaddubsw` pair sum |u8·w + u8·w| ≤
/// 255·63·2 = 32130 < i16::MAX and can never saturate. Returns `false` when
/// the CPU lacks AVX2; nothing is written.
pub fn qgemm_tile_16(
    groups: usize,
    rows_a: &[&[i8]; 4],
    panel: &[u8],
    acc: &mut [[i32; 16]; 4],
) -> bool {
    if !detected() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        assert!(panel.len() >= groups * 64, "panel too short for {groups} k-groups");
        for r in rows_a {
            assert!(r.len() >= groups * 4, "A row shorter than groups*4");
        }
        let a = [rows_a[0].as_ptr(), rows_a[1].as_ptr(), rows_a[2].as_ptr(), rows_a[3].as_ptr()];
        // SAFETY: AVX2 presence was checked via `detected()` (and AVX-VNNI
        // via `detected_vnni()` on that branch). Each A-row pointer is
        // readable for `groups * 4` bytes and the panel pointer for
        // `groups * 64` bytes (asserted above); `acc` is fully overwritten.
        // The unaligned 4-byte weight loads stay within the asserted row
        // bounds. Both kernels produce identical exact i32 sums.
        unsafe {
            if detected_vnni() {
                i8_tile_16_vnni(groups, a, panel.as_ptr(), acc);
            } else {
                i8_tile_16_avx2(groups, a, panel.as_ptr(), acc);
            }
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (groups, rows_a, panel, acc);
        false
    }
}

/// # Safety
/// Caller must ensure AVX2 is available, each `a[r]` is valid for
/// `groups * 4` byte reads, and `panel` for `groups * 64` byte reads.
/// Weight codes must satisfy |w| ≤ 63 so the i16 pair sums cannot saturate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i8_tile_16_avx2(
    groups: usize,
    a: [*const i8; 4],
    panel: *const u8,
    out: &mut [[i32; 16]; 4],
) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_epi16(1);
    let mut acc = [[_mm256_setzero_si256(); 2]; 4];
    for g in 0..groups {
        // 64-byte k-group: columns j0..j0+7 in b0, j0+8..j0+15 in b1, each
        // column as 4 consecutive k-bytes (activations, offset +128 → u8).
        let b0 = _mm256_loadu_si256(panel.add(g * 64).cast());
        let b1 = _mm256_loadu_si256(panel.add(g * 64 + 32).cast());
        for r in 0..4 {
            let aw = _mm256_set1_epi32(a[r].add(g * 4).cast::<i32>().read_unaligned());
            // u8 activations × i8 weights → i16 pair sums (saturation-free
            // because |w| ≤ 63), then widen pairs to the i32 accumulators.
            let p0 = _mm256_maddubs_epi16(b0, aw);
            let p1 = _mm256_maddubs_epi16(b1, aw);
            acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(p0, ones));
            acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(p1, ones));
        }
    }
    for r in 0..4 {
        _mm256_storeu_si256(out[r].as_mut_ptr().cast(), acc[r][0]);
        _mm256_storeu_si256(out[r].as_mut_ptr().add(8).cast(), acc[r][1]);
    }
}

/// # Safety
/// Caller must ensure AVX2 **and** AVX-VNNI are available, each `a[r]` is
/// valid for `groups * 4` byte reads, and `panel` for `groups * 64` byte
/// reads.
///
/// `vpdpbusd` sums the four u8·i8 products of each lane group into the i32
/// accumulator *without* an intermediate i16 — exact for any i8 weights, so
/// it matches the `maddubs` kernel and the scalar path bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "avxvnni")]
unsafe fn i8_tile_16_vnni(
    groups: usize,
    a: [*const i8; 4],
    panel: *const u8,
    out: &mut [[i32; 16]; 4],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_si256(); 2]; 4];
    for g in 0..groups {
        let b0 = _mm256_loadu_si256(panel.add(g * 64).cast());
        let b1 = _mm256_loadu_si256(panel.add(g * 64 + 32).cast());
        for r in 0..4 {
            let aw = _mm256_set1_epi32(a[r].add(g * 4).cast::<i32>().read_unaligned());
            acc[r][0] = _mm256_dpbusd_avx_epi32(acc[r][0], b0, aw);
            acc[r][1] = _mm256_dpbusd_avx_epi32(acc[r][1], b1, aw);
        }
    }
    for r in 0..4 {
        _mm256_storeu_si256(out[r].as_mut_ptr().cast(), acc[r][0]);
        _mm256_storeu_si256(out[r].as_mut_ptr().add(8).cast(), acc[r][1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_toggles_dispatch() {
        let was = simd_active();
        force_scalar(true);
        assert!(!simd_active(), "override must force the scalar path");
        force_scalar(false);
        assert_eq!(simd_active(), detected());
        // Restore whatever the process-wide state was.
        force_scalar(!was && detected());
        force_scalar(false);
    }

    #[test]
    fn gemm_tile_matches_scalar() {
        if !detected() {
            return;
        }
        let kc = 37;
        let a: Vec<f32> = (0..4 * kc).map(|i| (i as f32 * 0.37).sin()).collect();
        let panel: Vec<f32> = (0..kc * 16).map(|i| (i as f32 * 0.11).cos()).collect();
        let rows: [&[f32]; 4] = [&a[0..kc], &a[kc..2 * kc], &a[2 * kc..3 * kc], &a[3 * kc..4 * kc]];
        let mut acc = [[0.0f32; 16]; 4];
        assert!(gemm_tile_16(kc, &rows, &panel, &mut acc));
        for r in 0..4 {
            for j in 0..16 {
                let want: f32 = (0..kc).map(|p| rows[r][p] * panel[p * 16 + j]).sum();
                assert!(
                    (acc[r][j] - want).abs() <= 1e-4 * (1.0 + want.abs()),
                    "tile[{r}][{j}] = {} vs scalar {want}",
                    acc[r][j]
                );
            }
        }
    }

    #[test]
    fn qgemm_tile_matches_exact_reference() {
        if !detected() {
            return;
        }
        // Worst-case magnitudes: activations at the u8 extremes, weights at
        // the ±63 bound — exercises the saturation-freedom argument.
        let groups = 9;
        let k = groups * 4;
        let mut a = vec![0i8; 4 * k];
        let mut panel = vec![0u8; groups * 64];
        for (i, v) in a.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 63 } else { -63 };
        }
        for (i, v) in panel.iter_mut().enumerate() {
            *v = if i % 3 == 0 { 255 } else { 1 };
        }
        let rows: [&[i8]; 4] = [&a[0..k], &a[k..2 * k], &a[2 * k..3 * k], &a[3 * k..4 * k]];
        let mut acc = [[0i32; 16]; 4];
        assert!(qgemm_tile_16(groups, &rows, &panel, &mut acc));
        for r in 0..4 {
            for j in 0..16 {
                let mut want = 0i64;
                for g in 0..groups {
                    for kk in 0..4 {
                        let b = panel[g * 64 + j * 4 + kk] as i64;
                        want += rows[r][g * 4 + kk] as i64 * b;
                    }
                }
                assert_eq!(acc[r][j] as i64, want, "tile[{r}][{j}]");
            }
        }
    }

    #[test]
    fn encode_roundtrip_helpers_match_scalar_exactly() {
        if !detected() {
            return;
        }
        let data: Vec<f32> = (0..1003).map(|i| ((i as f32 * 0.7).sin() - 0.5) * 3.0).collect();
        let inv = 127.0 / 2.9;
        let mut v32 = vec![0i32; data.len()];
        assert!(encode_i32(&data, inv, 127.0, &mut v32));
        let mut v8 = vec![0i8; data.len()];
        assert!(encode_i8(&data, inv, 127.0, &mut v8));
        for (i, &x) in data.iter().enumerate() {
            let want = ((x * inv).clamp(-127.0, 127.0)).round_ties_even() as i32;
            assert_eq!(v32[i], want, "i32 code {i}");
            assert_eq!(v8[i] as i32, want, "i8 code {i}");
        }
        let mx = absmax(&data);
        let want_mx = data.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        assert_eq!(mx, Some(want_mx));
        let mut back = vec![0.0f32; data.len()];
        assert!(dequant_i32(&v32, 1.0 / inv, &mut back));
        for (i, &b) in back.iter().enumerate() {
            assert_eq!(b, v32[i] as f32 * (1.0 / inv), "dequant {i}");
        }
    }
}
