//! Packed, register-blocked GEMM.
//!
//! `C = A · B` with `A: m×k`, `B: k×n`, `C: m×n`, all row-major. The
//! implementation follows the classic BLIS/GotoBLAS decomposition, sized for
//! the small-to-medium matrices produced by im2col convolution:
//!
//! * **k-blocking** — `B` is processed in `KC`-row slabs so the packed slab
//!   stays cache-resident while every row of `A` streams over it.
//! * **packing** — each slab of `B` is repacked into `NR`-column panels
//!   (`kc × NR`, zero-padded on the right edge) pulled from the thread-local
//!   [`scratch`] pool, so the microkernel reads `B`
//!   contiguously regardless of `n` and steady-state calls do not allocate.
//! * **microkernel** — an `MR×NR` (4 × 16) register tile: 64 f32 accumulators
//!   that the compiler keeps in SIMD registers, with no per-element branches
//!   (the old `av == 0.0` skip is gone — it cost a branch per multiply on
//!   dense data to save work only on exact zeros).
//!
//! [`gemm_bt`] packs the transposed operand directly from its `n×k` storage
//! and [`gemm_at`] transposes `A` once into scratch, so all four entry points
//! dispatch the same microkernel.
//!
//! On x86-64 the register tile dispatches to the AVX2/FMA microkernel in
//! [`crate::simd`] when the CPU supports it (checked once at runtime); the
//! scalar microkernels below remain the portable fallback and the reference
//! for the SIMD-vs-scalar parity tests.

use crate::scratch;
use crate::simd;

/// Microkernel tile rows (rows of `A`/`C` per register tile).
pub(crate) const MR: usize = 4;
/// Microkernel tile columns (f32 accumulator lanes per row).
pub(crate) const NR: usize = 16;
/// k-dimension slab size: one packed slab is at most `KC × n` elements. `C`
/// takes one rounded add per slab, so the direct convolution in
/// [`crate::conv`] banks its accumulators on the same boundary.
pub(crate) const KC: usize = 256;

/// `c = a · b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n` (row-major).
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_bias(m, k, n, a, b, None, c);
}

/// `c = a · b + bias` with `bias` broadcast along rows: row `i` of `c` is
/// initialized to `bias[i]` before accumulation, fusing the bias add into the
/// GEMM epilogue (used by the convolution forward path, where each output
/// channel is one row of `c`).
pub fn gemm_bias(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A must be m*k");
    assert_eq!(b.len(), k * n, "B must be k*n");
    assert_eq!(c.len(), m * n, "C must be m*n");
    if m == 0 || n == 0 {
        return;
    }
    match bias {
        Some(bv) => {
            assert_eq!(bv.len(), m, "bias must have one entry per output row");
            for (row, &b0) in c.chunks_exact_mut(n).zip(bv.iter()) {
                row.fill(b0);
            }
        }
        None => c.fill(0.0),
    }
    gemm_acc_packed(m, k, n, a, c, |k0, kc, packed| pack_b_panels(b, k0, kc, n, packed));
}

/// `c += a · b`; same contract as [`gemm`] but accumulates into `c`.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must be m*k");
    assert_eq!(b.len(), k * n, "B must be k*n");
    assert_eq!(c.len(), m * n, "C must be m*n");
    gemm_acc_packed(m, k, n, a, c, |k0, kc, packed| pack_b_panels(b, k0, kc, n, packed));
}

/// `c = a · bᵀ` where `a` is `m×k`, `b` is `n×k` (so `bᵀ` is `k×n`).
///
/// Used by backward passes where the weight gradient needs a transposed
/// operand; the packing step reads `b` in its native `n×k` layout, so the
/// transpose is never materialized.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must be m*k");
    assert_eq!(b.len(), n * k, "B must be n*k");
    assert_eq!(c.len(), m * n, "C must be m*n");
    c.fill(0.0);
    gemm_acc_packed(m, k, n, a, c, |k0, kc, packed| pack_bt_panels(b, k, k0, kc, n, packed));
}

/// `c = aᵀ · b` where `a` is `k×m`, `b` is `k×n`, `c` is `m×n`.
///
/// `aᵀ` is materialized once into a pooled scratch buffer (it is the small
/// operand on every call site — e.g. the weight matrix in conv backward), and
/// the product then runs through the packed microkernel path.
pub fn gemm_at(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A must be k*m");
    assert_eq!(b.len(), k * n, "B must be k*n");
    assert_eq!(c.len(), m * n, "C must be m*n");
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    scratch::with(|at| {
        at.clear();
        at.resize(m * k, 0.0);
        for (kk, a_row) in a.chunks_exact(m).enumerate() {
            for (i, &v) in a_row.iter().enumerate() {
                at[i * k + kk] = v;
            }
        }
        gemm_acc_packed(m, k, n, at, c, |k0, kc, packed| pack_b_panels(b, k0, kc, n, packed));
    });
}

/// Shared driver: for each `KC` slab, pack `B` via `pack_blk` and accumulate
/// into `c`.
fn gemm_acc_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    c: &mut [f32],
    pack_blk: impl Fn(usize, usize, &mut [f32]),
) {
    if m == 0 || n == 0 {
        return;
    }
    let n_panels = n.div_ceil(NR);
    scratch::with(|packed| {
        packed.clear();
        packed.resize(n_panels * KC.min(k.max(1)) * NR, 0.0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            let slab = &mut packed[..n_panels * kc * NR];
            pack_blk(k0, kc, slab);
            gemm_block_packed(m, k0, kc, k, n, a, slab, c);
        }
    });
}

/// Packs the `kc × n` slab of row-major `B` starting at row `k0` into
/// `NR`-column panels: panel `jp` holds columns `jp*NR ..`, laid out as `kc`
/// consecutive `NR`-wide rows, zero-padded past column `n`.
fn pack_b_panels(b: &[f32], k0: usize, kc: usize, n: usize, packed: &mut [f32]) {
    for (jp, panel) in packed.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let src = &b[(k0 + p) * n + j0..(k0 + p) * n + j0 + nr];
            dst[..nr].copy_from_slice(src);
            dst[nr..].fill(0.0);
        }
    }
}

/// Same panel layout as [`pack_b_panels`], but reading the operand stored
/// transposed (`n×k` row-major, i.e. `bᵀ` of the logical `k×n` matrix).
fn pack_bt_panels(b: &[f32], k: usize, k0: usize, kc: usize, n: usize, packed: &mut [f32]) {
    for (jp, panel) in packed.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        for jj in 0..NR {
            if jj < nr {
                let src = &b[(j0 + jj) * k + k0..(j0 + jj) * k + k0 + kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * NR + jj] = v;
                }
            } else {
                for p in 0..kc {
                    panel[p * NR + jj] = 0.0;
                }
            }
        }
    }
}

/// Accumulates all `rows` of `C` for one packed slab, walking the output in
/// `MR×NR` register tiles.
#[allow(clippy::too_many_arguments)]
fn gemm_block_packed(
    rows: usize,
    k0: usize,
    kc: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed: &[f32],
    c: &mut [f32],
) {
    let n_panels = n.div_ceil(NR);
    // Dispatch is decided once per slab so a concurrent scalar-override
    // toggle cannot change paths halfway through an output row.
    let use_simd = simd::simd_active();
    let mut r = 0;
    while r < rows {
        let mr = MR.min(rows - r);
        let a_row = |ri: usize| {
            let base = (r + ri) * k + k0;
            &a[base..base + kc]
        };
        // Remainder tiles alias the last valid row; only `mr` rows are read.
        let rows_a = [a_row(0), a_row(1.min(mr - 1)), a_row(2.min(mr - 1)), a_row(3.min(mr - 1))];
        for (jp, panel) in packed.chunks_exact(kc * NR).take(n_panels).enumerate() {
            let j0 = jp * NR;
            let nr = NR.min(n - j0);
            let mut tile = [[0.0f32; NR]; MR];
            let acc = if use_simd && simd::gemm_tile_16(kc, &rows_a, panel, &mut tile) {
                tile
            } else if mr == MR {
                micro_4(kc, rows_a[0], rows_a[1], rows_a[2], rows_a[3], panel)
            } else {
                micro_r(kc, &rows_a[..mr], panel)
            };
            for (ri, acc_row) in acc.iter().enumerate().take(mr) {
                let base = (r + ri) * n + j0;
                for (cv, &av) in c[base..base + nr].iter_mut().zip(acc_row.iter()) {
                    *cv += av;
                }
            }
        }
        r += mr;
    }
}

/// Full `MR×NR` microkernel: 4 rows of `A` against one packed panel of `B`.
/// The accumulator tile lives in registers for the whole `kc` loop.
#[inline(always)]
fn micro_4(
    kc: usize,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, bl) in panel.chunks_exact(NR).take(kc).enumerate() {
        let av = [a0[p], a1[p], a2[p], a3[p]];
        for (acc_row, &a_val) in acc.iter_mut().zip(av.iter()) {
            for (cv, &bv) in acc_row.iter_mut().zip(bl.iter()) {
                *cv += a_val * bv;
            }
        }
    }
    acc
}

/// Remainder microkernel for 1–3 rows; same layout as [`micro_4`].
#[inline(always)]
fn micro_r(kc: usize, a_rows: &[&[f32]], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, bl) in panel.chunks_exact(NR).take(kc).enumerate() {
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter()) {
            let a_val = a_row[p];
            for (cv, &bv) in acc_row.iter_mut().zip(bl.iter()) {
                *cv += a_val * bv;
            }
        }
    }
    acc
}

/// Naive reference GEMM used by tests and property checks.
pub fn gemm_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matches_reference_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        // Sizes straddle the MR=4 / NR=16 tile edges and the KC=256 slab edge.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 17),
            (17, 33, 9),
            (64, 129, 65),
            (100, 300, 50),
            (13, 257, 31),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            let mut r = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            gemm_ref(m, k, n, &a, &b, &mut r);
            assert_close(&c, &r, 1e-3);
        }
    }

    #[test]
    fn many_row_groups_match_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, k, n) = (130, 64, 70); // many row groups, a column remainder
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c = vec![0.0; m * n];
        let mut r = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        gemm_ref(m, k, n, &a, &b, &mut r);
        assert_close(&c, &r, 1e-2);
    }

    #[test]
    fn bt_and_at_variants() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (6, 10, 4);
        let a = rand_vec(m * k, &mut rng);
        let bt = rand_vec(n * k, &mut rng); // b stored as n×k
                                            // Materialize b = btᵀ and compare.
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm_bt(m, k, n, &a, &bt, &mut c1);
        gemm_ref(m, k, n, &a, &b, &mut c2);
        assert_close(&c1, &c2, 1e-3);

        // aᵀ · b with a stored k×m.
        let at = rand_vec(k * m, &mut rng);
        let mut a_mat = vec![0.0; m * k];
        for kk in 0..k {
            for i in 0..m {
                a_mat[i * k + kk] = at[kk * m + i];
            }
        }
        let mut c3 = vec![0.0; m * n];
        let mut c4 = vec![0.0; m * n];
        gemm_at(m, k, n, &at, &b, &mut c3);
        gemm_ref(m, k, n, &a_mat, &b, &mut c4);
        assert_close(&c3, &c4, 1e-3);
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 0.0, 0.0, 2.0];
        let mut c = [1.0, 1.0, 1.0, 1.0];
        gemm_acc(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn gemm_bias_initializes_rows() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, k, n) = (5, 6, 18); // row remainder + column remainder
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 - 2.0).collect();
        let mut c = vec![9.0; m * n]; // stale contents must be overwritten
        gemm_bias(m, k, n, &a, &b, Some(&bias), &mut c);
        let mut r = vec![0.0; m * n];
        gemm_ref(m, k, n, &a, &b, &mut r);
        for (i, row) in r.chunks_exact_mut(n).enumerate() {
            for v in row.iter_mut() {
                *v += bias[i];
            }
        }
        assert_close(&c, &r, 1e-3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_matches_reference(m in 1usize..20, k in 1usize..24, n in 1usize..20, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            let mut r = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            gemm_ref(m, k, n, &a, &b, &mut r);
            for (x, y) in c.iter().zip(r.iter()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_identity_is_noop(n in 1usize..16, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = rand_vec(n * n, &mut rng);
            let mut id = vec![0.0; n * n];
            for i in 0..n { id[i * n + i] = 1.0; }
            let mut c = vec![0.0; n * n];
            gemm(n, n, n, &id, &x, &mut c);
            for (a, b) in c.iter().zip(x.iter()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_bt_matches_materialized_transpose(
            m in 1usize..12, k in 1usize..20, n in 1usize..20, seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = rand_vec(m * k, &mut rng);
            let bt = rand_vec(n * k, &mut rng);
            let mut b = vec![0.0; k * n];
            for j in 0..n {
                for kk in 0..k {
                    b[kk * n + j] = bt[j * k + kk];
                }
            }
            let mut c = vec![0.0; m * n];
            let mut r = vec![0.0; m * n];
            gemm_bt(m, k, n, &a, &bt, &mut c);
            gemm_ref(m, k, n, &a, &b, &mut r);
            for (x, y) in c.iter().zip(r.iter()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
