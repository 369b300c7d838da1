//! Matrix-vector product over k-major row panels: the LSTM gate
//! pre-activations of the policy network.
//!
//! The matrix is `rows × (x.len() + h.len())`, applied to the input `x`
//! followed by the state `h` without concatenating them. It is packed in
//! panels of [`PANEL`] rows: panel `p` holds rows `PANEL·p .. PANEL·p + 31`,
//! and for each column `k` (the `x` columns first, then the `h` columns)
//! those rows' weights are contiguous (`[panel][k][row]`); rows past the
//! last in the last panel are zero.
//!
//! Decisions are argmaxes over what this feeds, so its bits are fixed: each
//! row is one serial chain — bias, then `+ w·x` in index order, then
//! `+ w·h`, every product and sum rounded separately (no FMA, no
//! reassociation), exactly what a scalar accumulator per row gives. Both
//! paths keep that contract and only vectorise *across* rows: the portable
//! loop one panel at a time, [`crate::simd::matvec_panel_pairs`] two panels
//! per pass on AVX2 CPUs.

use crate::simd;

/// Rows per packed panel.
pub const PANEL: usize = 32;

/// Packs the `rows × k` matrix whose element `(r, c)` is `w(r, c)` into the
/// panel layout (module docs) that [`panel_matvec`] reads.
pub fn pack_panels(rows: usize, k: usize, w: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.div_ceil(PANEL) * k * PANEL];
    for r in 0..rows {
        for c in 0..k {
            out[(r / PANEL * k + c) * PANEL + r % PANEL] = w(r, c);
        }
    }
    out
}

/// `out[r] = bias[r] + Σ_k W[r][k]·x[k] + Σ_k W[r][x.len() + k]·h[k]`, each
/// row one serial chain in that order (module docs), over `W` packed in
/// panels of [`PANEL`] rows. `use_simd` (the caller's
/// [`simd::simd_active`]) picks the path; both give the same bits.
///
/// # Panics
/// If `bias` and `out` differ in length, or `packed` holds fewer than
/// `out.len().div_ceil(PANEL)` panels of `(x.len() + h.len()) · PANEL` f32.
pub fn panel_matvec(
    use_simd: bool,
    packed: &[f32],
    x: &[f32],
    h: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let k = x.len() + h.len();
    assert_eq!(bias.len(), out.len(), "one bias per row");
    assert!(packed.len() >= out.len().div_ceil(PANEL) * k * PANEL, "packed weights too short");
    let done = if use_simd { simd::matvec_panel_pairs(packed, x, h, bias, out) } else { 0 };
    let rows = (done * PANEL).min(out.len());
    let panels = packed.chunks_exact(k * PANEL).skip(done);
    for ((panel, bias), out) in
        panels.zip(bias[rows..].chunks(PANEL)).zip(out[rows..].chunks_mut(PANEL))
    {
        let mut acc = [0.0f32; PANEL];
        acc[..bias.len()].copy_from_slice(bias);
        for (w, &v) in panel.as_chunks::<PANEL>().0.iter().zip(x.iter().chain(h)) {
            for (a, &wv) in acc.iter_mut().zip(w) {
                *a += wv * v;
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
}
