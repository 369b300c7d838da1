//! Thread-local scratch-buffer pools for kernel workspaces.
//!
//! The direct convolution's padded image and weight groups, the im2col
//! column matrix, GEMM packing panels, and backward-pass temporaries are all
//! short-lived workspaces whose size repeats from call to call. Allocating them fresh on every forward pass puts an allocator
//! round-trip (and a page-fault storm on first touch) on the inference hot
//! path. This module keeps a small per-thread stack of reusable buffers so
//! that steady-state forward passes do zero heap allocation: a buffer is
//! popped on [`with`], handed to the closure, and pushed back afterwards
//! with its capacity intact.
//!
//! The int8 compute path ([`crate::int8`]) needs byte-typed workspaces too
//! (i8 activation codes / im2col columns, u8 packed GEMM panels, i32 scalar
//! accumulators), so the pool is stamped out per element type: [`with`]
//! (f32), [`with_i8`], [`with_u8`], and [`with_i32`].
//!
//! Contract (identical for every pool):
//!
//! * Buffers come back with unspecified length and contents — callers must
//!   `clear()`/`resize()` before use (or overwrite every element they read).
//! * Calls nest: each nested `with_*` pops a distinct buffer, so a kernel
//!   that needs three workspaces simply nests three closures.
//! * The pool is per-thread (no locks); each worker thread warms its own
//!   pool on the first requests it runs.
//! * At most `MAX_POOLED` (8) buffers are retained per thread per type;
//!   extras are freed on return so pathological nesting cannot hoard
//!   memory.

use std::cell::RefCell;

/// Maximum buffers retained per thread (per element type).
const MAX_POOLED: usize = 8;

macro_rules! pool {
    ($pool:ident, $with:ident, $ty:ty, $doc:literal) => {
        thread_local! {
            static $pool: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
        }

        #[doc = $doc]
        ///
        /// The buffer's length and contents on entry are unspecified; its
        /// capacity persists across calls on the same thread.
        pub fn $with<R>(f: impl FnOnce(&mut Vec<$ty>) -> R) -> R {
            let mut buf = $pool.with(|p| p.borrow_mut().pop()).unwrap_or_default();
            let out = f(&mut buf);
            $pool.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(buf);
                }
            });
            out
        }
    };
}

pool!(POOL_F32, with, f32, "Runs `f` with a pooled f32 scratch buffer.");
pool!(POOL_I8, with_i8, i8, "Runs `f` with a pooled i8 scratch buffer (quantized codes).");
pool!(POOL_U8, with_u8, u8, "Runs `f` with a pooled u8 scratch buffer (packed int8 panels).");
pool!(POOL_I32, with_i32, i32, "Runs `f` with a pooled i32 scratch buffer (int8 accumulators).");

/// Number of f32 buffers currently pooled on this thread (diagnostics/tests).
pub fn pooled_buffers() -> usize {
    POOL_F32.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_capacity_is_reused() {
        let cap0 = with(|buf| {
            buf.clear();
            buf.resize(4096, 1.0);
            buf.capacity()
        });
        // Second call on the same thread sees the retained capacity.
        let cap1 = with(|buf| buf.capacity());
        assert!(cap1 >= cap0.min(4096), "capacity {cap1} lost (was {cap0})");
    }

    #[test]
    fn nested_calls_get_distinct_buffers() {
        with(|a| {
            a.clear();
            a.resize(8, 1.0);
            with(|b| {
                b.clear();
                b.resize(8, 2.0);
                assert_eq!(a[0], 1.0, "outer buffer must be untouched");
                assert_eq!(b[0], 2.0);
            });
            assert_eq!(a[7], 1.0);
        });
        assert!(pooled_buffers() >= 2);
    }

    #[test]
    fn typed_pools_are_independent() {
        with_i8(|a| {
            a.clear();
            a.resize(4, -3);
            with_u8(|b| {
                b.clear();
                b.resize(4, 7);
                with_i32(|c| {
                    c.clear();
                    c.resize(4, 9);
                    assert_eq!((a[0], b[0], c[0]), (-3, 7, 9));
                });
            });
        });
    }
}
