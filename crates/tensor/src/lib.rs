//! # pde-tensor
//!
//! Dense numeric containers and the convolution arithmetic underpinning the
//! rest of the workspace.
//!
//! The crate deliberately offers a small set of *fixed-rank* types instead of
//! a fully general N-dimensional array (the reference matrix products take
//! flat row-major slices, see [`gemm`]):
//!
//! * [`Grid2`] — a scalar field on a 2-D structured grid (solver state),
//! * [`Tensor3`] — one sample in `(C, H, W)` layout (a multi-channel snapshot),
//! * [`Tensor4`] — a batch in `(N, C, H, W)` layout (the NN workhorse).
//!
//! Everything is `f64`, contiguous, and row-major; hot kernels are written
//! against flat slices so the optimizer can vectorize them. Shape mismatches
//! panic — in a numeric kernel a silent broadcast is a bug, not a feature.
//!
//! Convolution support lives in [`conv`] (a direct loop-nest reference and
//! the zero-lowering forward, input-gradient and weight-gradient passes used
//! by `pde-nn`), padding/cropping in [`pad`]. The passes are checked bit for
//! bit against [`im2col`] + the scalar [`gemm`] oracle over whole matrices.
//!
//! The conv kernels are two-level: a runtime-selected [`KernelPath`]
//! (explicit AVX-512 intrinsics or the portable scalar tiles —
//! `PDEML_KERNEL` selects, see [`gemm`]) times an intra-rank thread budget
//! ([`pool`], `PDEML_THREADS_PER_RANK`). All combinations produce
//! bit-identical results; only throughput changes.

pub mod conv;
pub mod gemm;
pub mod grid;
pub mod im2col;
mod live;
pub mod pad;
pub mod perf;
pub mod pool;
mod simd;
pub mod stats;
pub mod tensor3;
pub mod tensor4;

pub use conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, conv2d_im2col, Conv2dSpec};
pub use gemm::{force_kernel_path, gemm, gemm_nt, gemm_tn, kernel_path, KernelPath};
pub use grid::Grid2;
pub use pad::PadMode;
pub use perf::PerfCounters;
pub use tensor3::Tensor3;
pub use tensor4::Tensor4;

/// Absolute-or-relative closeness test used across the workspace's tests.
///
/// Returns `true` when `|a - b| <= atol + rtol * max(|a|, |b|)`.
#[inline]
pub fn approx_eq(a: f64, b: f64, atol: f64, rtol: f64) -> bool {
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

/// Asserts elementwise closeness of two slices with a context label.
///
/// Panics with the first offending index, the values and the tolerance.
pub fn assert_slice_close(a: &[f64], b: &[f64], atol: f64, rtol: f64, what: &str) {
    assert_eq!(
        a.len(),
        b.len(),
        "{what}: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            approx_eq(x, y, atol, rtol),
            "{what}: element {i} differs: {x} vs {y} (atol={atol}, rtol={rtol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basics() {
        assert!(approx_eq(1.0, 1.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(1.0, 1.1, 1e-3, 1e-3));
        assert!(approx_eq(1e9, 1e9 * (1.0 + 1e-10), 0.0, 1e-9));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn slice_close_rejects_length_mismatch() {
        assert_slice_close(&[1.0], &[1.0, 2.0], 1e-9, 0.0, "t");
    }

    #[test]
    #[should_panic(expected = "element 1 differs")]
    fn slice_close_reports_index() {
        assert_slice_close(&[1.0, 2.0], &[1.0, 2.5], 1e-9, 0.0, "t");
    }
}
