//! Scalar fields on 2-D structured grids.
//!
//! [`Grid2`] is the exchange type between the Euler solver, the domain
//! decomposition and the network input pipeline: one physical quantity
//! (pressure, density, …) sampled on an `h × w` uniform grid, row-major with
//! row 0 at the bottom of the domain.

use std::ops::{Index, IndexMut};

/// A scalar field on an `h × w` structured grid (row-major).
#[derive(Clone, PartialEq, Debug)]
pub struct Grid2 {
    h: usize,
    w: usize,
    data: Vec<f64>,
}

impl Grid2 {
    /// All-zero field.
    pub fn zeros(h: usize, w: usize) -> Self {
        Self {
            h,
            w,
            data: vec![0.0; h * w],
        }
    }

    /// Constant field.
    pub fn constant(h: usize, w: usize, v: f64) -> Self {
        Self {
            h,
            w,
            data: vec![v; h * w],
        }
    }

    /// Field from an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != h * w`.
    pub fn from_vec(h: usize, w: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), h * w, "Grid2::from_vec: buffer length mismatch");
        Self { h, w, data }
    }

    /// Field built by evaluating `f(i, j)` (row, column) everywhere.
    pub fn from_fn(h: usize, w: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(h * w);
        for i in 0..h {
            for j in 0..w {
                data.push(f(i, j));
            }
        }
        Self { h, w, data }
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Grid width (number of columns).
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(h, w)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Total number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the grid, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.h);
        &self.data[i * self.w..(i + 1) * self.w]
    }

    /// Extracts the rectangle with top-left corner `(i0, j0)` and shape
    /// `(sh, sw)`.
    ///
    /// # Panics
    /// If the rectangle does not fit inside the grid.
    pub fn window(&self, i0: usize, j0: usize, sh: usize, sw: usize) -> Grid2 {
        assert!(
            i0 + sh <= self.h && j0 + sw <= self.w,
            "Grid2::window: rectangle ({i0},{j0})+({sh},{sw}) exceeds grid {}x{}",
            self.h,
            self.w
        );
        let mut out = Vec::with_capacity(sh * sw);
        for i in 0..sh {
            out.extend_from_slice(&self.row(i0 + i)[j0..j0 + sw]);
        }
        Grid2::from_vec(sh, sw, out)
    }

    /// Writes `patch` into the rectangle with top-left corner `(i0, j0)`.
    ///
    /// # Panics
    /// If the patch does not fit.
    pub fn set_window(&mut self, i0: usize, j0: usize, patch: &Grid2) {
        assert!(
            i0 + patch.h <= self.h && j0 + patch.w <= self.w,
            "Grid2::set_window: patch exceeds grid"
        );
        let w = self.w;
        for i in 0..patch.h {
            let dst = &mut self.data[(i0 + i) * w + j0..(i0 + i) * w + j0 + patch.w];
            dst.copy_from_slice(patch.row(i));
        }
    }

    /// Applies `f` to every value in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise `self += alpha * other`.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Grid2) {
        assert_eq!(self.shape(), other.shape(), "Grid2::axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all values.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute value (0 for an empty grid).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// L2 norm of the difference with `other`, normalized by point count.
    pub fn rms_diff(&self, other: &Grid2) -> f64 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Grid2::rms_diff: shape mismatch"
        );
        let s: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (s / self.data.len() as f64).sqrt()
    }
}

impl Index<(usize, usize)> for Grid2 {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.h && j < self.w, "Grid2 index out of bounds");
        &self.data[i * self.w + j]
    }
}

impl IndexMut<(usize, usize)> for Grid2 {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.h && j < self.w, "Grid2 index out of bounds");
        &mut self.data[i * self.w + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_round_trip() {
        let g = Grid2::from_fn(6, 5, |i, j| (i * 10 + j) as f64);
        let w = g.window(2, 1, 3, 2);
        assert_eq!(w.shape(), (3, 2));
        assert_eq!(w[(0, 0)], 21.0);
        assert_eq!(w[(2, 1)], 42.0);
        let mut h = Grid2::zeros(6, 5);
        h.set_window(2, 1, &w);
        assert_eq!(h[(2, 1)], 21.0);
        assert_eq!(h[(4, 2)], 42.0);
        assert_eq!(h[(0, 0)], 0.0);
    }

    #[test]
    fn full_window_is_identity() {
        let g = Grid2::from_fn(4, 7, |i, j| (i + j) as f64);
        assert_eq!(g.window(0, 0, 4, 7), g);
    }

    #[test]
    #[should_panic(expected = "exceeds grid")]
    fn window_rejects_out_of_bounds() {
        let g = Grid2::zeros(3, 3);
        let _ = g.window(1, 1, 3, 1);
    }

    #[test]
    fn axpy_and_sum() {
        let mut a = Grid2::constant(2, 2, 1.0);
        let b = Grid2::constant(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.sum(), 8.0);
    }

    #[test]
    fn min_max_and_max_abs() {
        let g = Grid2::from_vec(1, 4, vec![-3.0, 0.0, 2.0, 1.0]);
        assert_eq!(g.max_abs(), 3.0);
    }

    #[test]
    fn rms_diff_zero_for_equal() {
        let g = Grid2::from_fn(3, 3, |i, j| (i * j) as f64);
        assert_eq!(g.rms_diff(&g), 0.0);
    }
}
