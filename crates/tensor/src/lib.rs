//! # murmuration-tensor
//!
//! Minimal, dependency-light tensor kernels used by the Murmuration
//! reproduction. Everything is `f32`, NCHW, contiguous row-major.
//!
//! The crate provides exactly what the rest of the system needs:
//!
//! * [`Tensor`] — an owned, contiguous NCHW tensor with shape algebra.
//! * [`gemm`] — a packed, register-blocked matrix multiply; the backbone of
//!   the im2col convolution path (strided convs and conv backward).
//! * [`conv`] — direct (stride-1), im2col and depthwise 2-D convolutions used
//!   by the inference engine and the supernet trainer.
//! * [`pool`], [`activation`], [`pad`] — the remaining CNN primitives.
//! * [`tile`] — FDSP-style spatial tiling (split a feature map into a
//!   `rows × cols` grid with zero-padded halos so tiles can be convolved
//!   independently on different devices, per ADCNN \[Zhang et al., ICPP '20\]).
//! * [`quant`] — symmetric feature-map quantization (8/16-bit) with exact
//!   wire-size accounting, used when intermediate activations cross a
//!   device boundary.
//! * [`int8`] — an end-to-end int8 *compute* path: per-channel i8 weights,
//!   per-tensor i8 activations, i32-accumulating quantized GEMM with a fused
//!   requantize epilogue, and an int8 convolution (direct at stride 1, as
//!   the f32 one).
//! * [`matvec`] — a matrix-vector product over packed row panels whose
//!   rows each keep one serial rounding chain: the LSTM policy's gates.
//! * [`simd`] — runtime-dispatched AVX2/FMA microkernels behind every hot
//!   loop above, with `MURMURATION_FORCE_SCALAR` forcing the portable
//!   fallback for testing.
//! * [`par`] — one process-wide pool of parked helper threads
//!   (`available_parallelism() − 1`) that a single kernel call can spread its
//!   chunks over.
//!
//! Design notes: hot loops are written over slices with explicit blocking;
//! GEMM packs its B operand into cache-resident `NR`-column panels and
//! dispatches a 4×16 register-tiled microkernel (AVX2/FMA when the CPU has
//! it, scalar otherwise); the stride-1 dense convolution runs the same tile
//! straight over a zero-padded copy of the image, bit-identical to im2col +
//! GEMM; the depthwise kernel splits each plane into a bounds-check-free
//! interior and a checked border. One kernel uses more than the calling
//! thread: a stride-1 dense convolution (f32 or int8) of at least 4 M MACs
//! per image splits across [`par`]'s helpers, bit-identical to its
//! single-thread run; every other kernel (GEMM, im2col, depthwise, int8
//! GEMM) is sequential, and callers that want more cores run one request
//! per thread. Steady-state
//! forward passes allocate only their output — every kernel workspace
//! (padded images, weight groups, im2col columns, packing panels,
//! transposes, int8 code buffers) comes from the thread-local [`scratch`]
//! pools, and a split call allocates nothing for its chunks.

pub mod activation;
pub mod conv;
pub mod gemm;
pub mod int8;
pub mod matvec;
pub mod pad;
pub mod par;
pub mod pool;
pub mod quant;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod tile;

pub use shape::Shape;
pub use tensor::Tensor;

/// Maximum |a - b| tolerated by the numeric test helpers in this workspace.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts two f32 slices are element-wise close; used across the workspace's
/// numeric tests.
pub fn assert_close(a: &[f32], b: &[f32], eps: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert!((x - y).abs() <= eps, "element {i} differs: {x} vs {y} (eps {eps})");
    }
}
