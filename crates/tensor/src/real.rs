//! The element types the convolution forward pass is built for: `f64`, the
//! training precision, and `f32`, the serving precision.
//!
//! One generic body ([`crate::conv::ConvForward`], and behind it the
//! portable kernel of [`crate::conv`] and the AVX-512 kernel of
//! `crate::simd`) is compiled once per type. At either precision an output
//! element is the same chain — bias, then per `KC` block of
//! taps one fused multiply-add chain from 0.0, added once, then the
//! activation — so every path and tile width gives the same bits *at that
//! precision*. Nothing converts between the two inside a pass: a caller
//! narrows its `f64` input once and widens the output back (see `pde-nn`'s
//! `ServingNet`).

use std::ops::{Add, Mul};

/// A floating-point element type of the forward pass (`f64` or `f32`).
/// Sealed: the AVX-512 kernel exists for exactly these two.
pub trait Real:
    Copy
    + Default
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Mul<Output = Self>
    + sealed::Kernels
{
    /// Additive identity, the start of every chain.
    const ZERO: Self;

    /// `self · a + b` with one rounding (an FMA instruction under
    /// `-C target-cpu=native`).
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// Rounds an `f64` to the nearest value of this type (ties to even);
    /// a finite value past this type's range becomes ±∞.
    fn from_f64(v: f64) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

pub(crate) mod sealed {
    /// The per-type kernel table behind [`super::Real`].
    pub trait Kernels: Sized {
        /// The AVX-512 forward kernel at this precision.
        #[cfg(target_arch = "x86_64")]
        const FWD_ROWS_512: crate::simd::FwdRows512<Self>;
    }

    impl Kernels for f64 {
        #[cfg(target_arch = "x86_64")]
        const FWD_ROWS_512: crate::simd::FwdRows512<Self> = crate::simd::double::conv_fwd_rows_512;
    }

    impl Kernels for f32 {
        #[cfg(target_arch = "x86_64")]
        const FWD_ROWS_512: crate::simd::FwdRows512<Self> = crate::simd::single::conv_fwd_rows_512;
    }
}
