//! Single-sample tensors in `(C, H, W)` layout.
//!
//! A [`Tensor3`] is one multi-channel snapshot — e.g. the four physical
//! fields (pressure, density, u, v) of one time step on a subdomain. The
//! solver produces them, the domain decomposition slices them, and the
//! network consumes batches of them (see [`crate::Tensor4`]).

use crate::Grid2;
use std::ops::{Index, IndexMut};

/// A `(C, H, W)` tensor: `c` channels of an `h × w` grid, channel-major.
#[derive(Clone, PartialEq, Debug)]
pub struct Tensor3 {
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// All-zero tensor.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        Self {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Tensor from an existing `(C, H, W)`-ordered buffer.
    ///
    /// # Panics
    /// If `data.len() != c * h * w`.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            c * h * w,
            "Tensor3::from_vec: buffer length mismatch"
        );
        Self { c, h, w, data }
    }

    /// Tensor built by evaluating `f(c, i, j)` everywhere.
    pub fn from_fn(
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(c * h * w);
        for ch in 0..c {
            for i in 0..h {
                for j in 0..w {
                    data.push(f(ch, i, j));
                }
            }
        }
        Self { c, h, w, data }
    }

    /// Concatenates tensors along the channel axis (all must share spatial
    /// dims). Used by time-window inputs (multiple snapshots stacked as
    /// channels).
    ///
    /// # Panics
    /// If `parts` is empty or spatial shapes disagree.
    pub fn concat_channels(parts: &[&Tensor3]) -> Tensor3 {
        assert!(!parts.is_empty(), "Tensor3::concat_channels: no parts");
        let (h, w) = (parts[0].h, parts[0].w);
        let total_c: usize = parts.iter().map(|p| p.c).sum();
        let mut data = Vec::with_capacity(total_c * h * w);
        for p in parts {
            assert_eq!(
                (p.h, p.w),
                (h, w),
                "Tensor3::concat_channels: spatial mismatch"
            );
            data.extend_from_slice(p.as_slice());
        }
        Tensor3::from_vec(total_c, h, w, data)
    }

    /// Number of channels.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Grid height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Grid width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(c, h, w)` triple.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat `(C, H, W)`-ordered view.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows one channel plane as a flat `h*w` slice.
    #[inline]
    pub fn channel(&self, ch: usize) -> &[f64] {
        debug_assert!(ch < self.c);
        &self.data[ch * self.h * self.w..(ch + 1) * self.h * self.w]
    }

    /// Mutably borrows one channel plane.
    #[inline]
    pub fn channel_mut(&mut self, ch: usize) -> &mut [f64] {
        debug_assert!(ch < self.c);
        &mut self.data[ch * self.h * self.w..(ch + 1) * self.h * self.w]
    }

    /// Copies one channel out as a [`Grid2`].
    pub fn channel_grid(&self, ch: usize) -> Grid2 {
        Grid2::from_vec(self.h, self.w, self.channel(ch).to_vec())
    }

    /// Extracts the spatial window `(i0..i0+sh, j0..j0+sw)` across all
    /// channels.
    ///
    /// # Panics
    /// If the window exceeds the spatial extent.
    pub fn window(&self, i0: usize, j0: usize, sh: usize, sw: usize) -> Tensor3 {
        assert!(
            i0 + sh <= self.h && j0 + sw <= self.w,
            "Tensor3::window: rectangle exceeds {}x{}",
            self.h,
            self.w
        );
        let mut out = Vec::with_capacity(self.c * sh * sw);
        for ch in 0..self.c {
            let plane = self.channel(ch);
            for i in 0..sh {
                let start = (i0 + i) * self.w + j0;
                out.extend_from_slice(&plane[start..start + sw]);
            }
        }
        Tensor3::from_vec(self.c, sh, sw, out)
    }

    /// Writes `patch` into the spatial window at `(i0, j0)` across all
    /// channels.
    ///
    /// # Panics
    /// If channel counts differ or the patch exceeds the spatial extent.
    pub fn set_window(&mut self, i0: usize, j0: usize, patch: &Tensor3) {
        assert_eq!(self.c, patch.c, "Tensor3::set_window: channel mismatch");
        assert!(
            i0 + patch.h <= self.h && j0 + patch.w <= self.w,
            "Tensor3::set_window: patch exceeds tensor"
        );
        let (h, w) = (self.h, self.w);
        for ch in 0..self.c {
            let dst_plane = &mut self.data[ch * h * w..(ch + 1) * h * w];
            let src_plane = patch.channel(ch);
            for i in 0..patch.h {
                let d0 = (i0 + i) * w + j0;
                dst_plane[d0..d0 + patch.w]
                    .copy_from_slice(&src_plane[i * patch.w..(i + 1) * patch.w]);
            }
        }
    }

    /// Applies `f` to every value in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Tensor3) {
        assert_eq!(self.shape(), other.shape(), "Tensor3::axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Maximum absolute value.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }
}

impl Index<(usize, usize, usize)> for Tensor3 {
    type Output = f64;
    #[inline]
    fn index(&self, (c, i, j): (usize, usize, usize)) -> &f64 {
        debug_assert!(
            c < self.c && i < self.h && j < self.w,
            "Tensor3 index out of bounds"
        );
        &self.data[(c * self.h + i) * self.w + j]
    }
}

impl IndexMut<(usize, usize, usize)> for Tensor3 {
    #[inline]
    fn index_mut(&mut self, (c, i, j): (usize, usize, usize)) -> &mut f64 {
        debug_assert!(
            c < self.c && i < self.h && j < self.w,
            "Tensor3 index out of bounds"
        );
        &mut self.data[(c * self.h + i) * self.w + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_round_trip() {
        let g0 = Grid2::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let g1 = Grid2::from_fn(3, 4, |i, j| -((i * 4 + j) as f64));
        let t = Tensor3::from_vec(2, 3, 4, [g0.as_slice(), g1.as_slice()].concat());
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.channel_grid(0), g0);
        assert_eq!(t.channel_grid(1), g1);
    }

    #[test]
    fn window_matches_grid_window_per_channel() {
        let t = Tensor3::from_fn(3, 5, 6, |c, i, j| (c * 100 + i * 10 + j) as f64);
        let w = t.window(1, 2, 3, 3);
        for c in 0..3 {
            assert_eq!(w.channel_grid(c), t.channel_grid(c).window(1, 2, 3, 3));
        }
    }

    #[test]
    fn set_window_round_trip() {
        let mut t = Tensor3::zeros(2, 4, 4);
        let patch = Tensor3::from_fn(2, 2, 2, |c, i, j| (c + i + j) as f64 + 1.0);
        t.set_window(1, 1, &patch);
        assert_eq!(t.window(1, 1, 2, 2), patch);
        assert_eq!(t[(0, 0, 0)], 0.0);
    }

    #[test]
    fn concat_channels_orders_parts() {
        let a = Tensor3::from_fn(2, 2, 2, |c, i, j| (c * 4 + i * 2 + j) as f64);
        let b = Tensor3::from_fn(1, 2, 2, |_, i, j| 100.0 + (i * 2 + j) as f64);
        let cat = Tensor3::concat_channels(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 2, 2));
        assert_eq!(cat.channel_grid(0), a.channel_grid(0));
        assert_eq!(cat.channel_grid(1), a.channel_grid(1));
        assert_eq!(cat.channel_grid(2), b.channel_grid(0));
    }

    #[test]
    #[should_panic(expected = "spatial mismatch")]
    fn concat_channels_rejects_shape_mismatch() {
        let a = Tensor3::zeros(1, 2, 2);
        let b = Tensor3::zeros(1, 3, 2);
        let _ = Tensor3::concat_channels(&[&a, &b]);
    }

    #[test]
    fn indexing_layout() {
        let t = Tensor3::from_fn(2, 2, 2, |c, i, j| (c * 4 + i * 2 + j) as f64);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t[(1, 0, 1)], 5.0);
    }
}
