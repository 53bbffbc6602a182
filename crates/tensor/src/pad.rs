//! Spatial padding and cropping.
//!
//! §III of the paper discusses four ways to reconcile the conv-layer output
//! size with the target size; two are padding-based (zeros, neighbour data).
//! The kernels here implement the spatial-extension mechanics for grids and
//! tensors; the *strategy* choice lives in `pde-ml-core`.

use crate::{Grid2, Tensor3, Tensor4};

/// How out-of-domain values are synthesized when padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PadMode {
    /// Pad with zeros (the paper's approach 1).
    Zeros,
    /// Pad by replicating the edge value (a homogeneous-Neumann-like
    /// extension, appropriate for the density/velocity boundary conditions).
    Replicate,
    /// Pad by mirroring interior values about the edge (excluding the edge
    /// itself), i.e. `p[-1] = p[1]`.
    Reflect,
}

#[inline]
fn src_index(i: isize, n: usize, mode: PadMode) -> Option<usize> {
    if i >= 0 && (i as usize) < n {
        return Some(i as usize);
    }
    match mode {
        PadMode::Zeros => None,
        PadMode::Replicate => Some(i.clamp(0, n as isize - 1) as usize),
        PadMode::Reflect => {
            debug_assert!(n > 1, "reflect padding needs extent > 1");
            let period = 2 * (n as isize - 1);
            let mut k = i.rem_euclid(period);
            if k >= n as isize {
                k = period - k;
            }
            Some(k as usize)
        }
    }
}

/// Pads a grid by `top`, `bottom`, `left`, `right` cells.
pub fn pad_grid(
    g: &Grid2,
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
    mode: PadMode,
) -> Grid2 {
    let (h, w) = g.shape();
    Grid2::from_fn(h + top + bottom, w + left + right, |i, j| {
        let si = src_index(i as isize - top as isize, h, mode);
        let sj = src_index(j as isize - left as isize, w, mode);
        match (si, sj) {
            (Some(a), Some(b)) => g[(a, b)],
            _ => 0.0,
        }
    })
}

/// Pads every channel of a sample by the same margins.
pub fn pad_tensor3(
    t: &Tensor3,
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
    mode: PadMode,
) -> Tensor3 {
    let (c, h, w) = t.shape();
    let (oh, ow) = (h + top + bottom, w + left + right);
    let mut out = Tensor3::zeros(c, oh, ow);
    for ch in 0..c {
        let src = t.channel(ch);
        let dst = out.channel_mut(ch);
        for i in 0..oh {
            let si = src_index(i as isize - top as isize, h, mode);
            for j in 0..ow {
                let sj = src_index(j as isize - left as isize, w, mode);
                dst[i * ow + j] = match (si, sj) {
                    (Some(a), Some(b)) => src[a * w + b],
                    _ => 0.0,
                };
            }
        }
    }
    out
}

/// Pads every sample of a batch by independent margins per side.
pub fn pad_tensor4_asym(
    t: &Tensor4,
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
    mode: PadMode,
) -> Tensor4 {
    let (n, c, h, w) = t.shape();
    let (oh, ow) = (h + top + bottom, w + left + right);
    let mut out = Tensor4::zeros(n, c, oh, ow);
    for s in 0..n {
        for ch in 0..c {
            let src = &t.sample(s)[ch * h * w..(ch + 1) * h * w];
            let dst = &mut out.sample_mut(s)[ch * oh * ow..(ch + 1) * oh * ow];
            for i in 0..oh {
                let si = src_index(i as isize - top as isize, h, mode);
                for j in 0..ow {
                    let sj = src_index(j as isize - left as isize, w, mode);
                    dst[i * ow + j] = match (si, sj) {
                        (Some(a), Some(b)) => src[a * w + b],
                        _ => 0.0,
                    };
                }
            }
        }
    }
    out
}

/// Removes `top`, `bottom`, `left`, `right` cells from every sample — the
/// inverse of [`pad_tensor4_asym`] on the interior.
///
/// # Panics
/// If the crop would remove everything.
pub fn crop_tensor4(t: &Tensor4, top: usize, bottom: usize, left: usize, right: usize) -> Tensor4 {
    let (n, c, h, w) = t.shape();
    assert!(
        top + bottom < h && left + right < w,
        "crop_tensor4: margins consume the tensor"
    );
    let (oh, ow) = (h - top - bottom, w - left - right);
    let mut out = Tensor4::zeros(n, c, oh, ow);
    for s in 0..n {
        for ch in 0..c {
            let src = &t.sample(s)[ch * h * w..(ch + 1) * h * w];
            let dst = &mut out.sample_mut(s)[ch * oh * ow..(ch + 1) * oh * ow];
            for i in 0..oh {
                let s0 = (top + i) * w + left;
                dst[i * ow..(i + 1) * ow].copy_from_slice(&src[s0..s0 + ow]);
            }
        }
    }
    out
}

/// Accumulates the gradient of a padding op: adds each padded-position
/// gradient back onto the interior source position it was read from.
///
/// This is the exact adjoint of [`pad_tensor4_asym`]: zero-padding drops
/// halo gradients, replicate/reflect route them to the border cells they
/// replicated.
pub fn pad_backward_tensor4(
    grad_padded: &Tensor4,
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
    mode: PadMode,
) -> Tensor4 {
    let (n, c, oh, ow) = grad_padded.shape();
    assert!(
        oh > top + bottom && ow > left + right,
        "pad_backward: inconsistent margins"
    );
    let (h, w) = (oh - top - bottom, ow - left - right);
    let mut out = Tensor4::zeros(n, c, h, w);
    for s in 0..n {
        for ch in 0..c {
            let src = &grad_padded.sample(s)[ch * oh * ow..(ch + 1) * oh * ow];
            let dst = &mut out.sample_mut(s)[ch * h * w..(ch + 1) * h * w];
            for i in 0..oh {
                let si = src_index(i as isize - top as isize, h, mode);
                for j in 0..ow {
                    let sj = src_index(j as isize - left as isize, w, mode);
                    if let (Some(a), Some(b)) = (si, sj) {
                        dst[a * w + b] += src[i * ow + j];
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grid() -> Grid2 {
        Grid2::from_fn(3, 3, |i, j| (i * 3 + j) as f64 + 1.0)
    }

    #[test]
    fn zero_pad_grid() {
        let p = pad_grid(&sample_grid(), 1, 1, 1, 1, PadMode::Zeros);
        assert_eq!(p.shape(), (5, 5));
        assert_eq!(p[(0, 0)], 0.0);
        assert_eq!(p[(1, 1)], 1.0);
        assert_eq!(p[(3, 3)], 9.0);
        assert_eq!(p[(4, 4)], 0.0);
        assert_eq!(p.sum(), sample_grid().sum());
    }

    #[test]
    fn replicate_pad_grid() {
        let p = pad_grid(&sample_grid(), 1, 0, 0, 2, PadMode::Replicate);
        assert_eq!(p.shape(), (4, 5));
        assert_eq!(p[(0, 0)], 1.0); // replicated top-left
        assert_eq!(p[(1, 3)], 3.0); // replicated right edge of row 0
        assert_eq!(p[(1, 4)], 3.0);
    }

    #[test]
    fn reflect_pad_grid() {
        let p = pad_grid(&sample_grid(), 1, 1, 1, 1, PadMode::Reflect);
        // p[-1] mirrors p[1]: row -1 == row 1 of source.
        assert_eq!(p[(0, 1)], 4.0);
        assert_eq!(p[(0, 0)], 5.0); // (i=-1,j=-1) -> (1,1)
        assert_eq!(p[(4, 4)], 5.0); // (3,3) -> (1,1)
    }

    #[test]
    fn crop_inverts_pad() {
        let t = Tensor4::from_fn(2, 3, 4, 5, |s, c, i, j| {
            (s * 1000 + c * 100 + i * 10 + j) as f64
        });
        for mode in [PadMode::Zeros, PadMode::Replicate, PadMode::Reflect] {
            let p = pad_tensor4_asym(&t, 1, 2, 2, 1, mode);
            assert_eq!(p.shape(), (2, 3, 7, 8));
            assert_eq!(crop_tensor4(&p, 1, 2, 2, 1), t);
        }
    }

    #[test]
    fn pad_tensor3_matches_grid_padding() {
        let t = Tensor3::from_fn(2, 3, 3, |c, i, j| (c * 9 + i * 3 + j) as f64);
        for mode in [PadMode::Zeros, PadMode::Replicate, PadMode::Reflect] {
            let p = pad_tensor3(&t, 1, 1, 2, 0, mode);
            for c in 0..2 {
                assert_eq!(
                    p.channel_grid(c),
                    pad_grid(&t.channel_grid(c), 1, 1, 2, 0, mode)
                );
            }
        }
    }

    #[test]
    fn pad_backward_is_adjoint_of_pad() {
        // <pad(x), y> == <x, pad_backward(y)> for all x, y — checked on a basis.
        let (n, c, h, w) = (1, 1, 3, 3);
        let (t_, b_, l_, r_) = (2, 1, 1, 2);
        for mode in [PadMode::Zeros, PadMode::Replicate, PadMode::Reflect] {
            for k in 0..h * w {
                let mut x = Tensor4::zeros(n, c, h, w);
                x.as_mut_slice()[k] = 1.0;
                let px = pad_tensor4_asym(&x, t_, b_, l_, r_, mode);
                let y = Tensor4::from_fn(n, c, h + t_ + b_, w + l_ + r_, |_, _, i, j| {
                    ((i * 31 + j * 7) % 13) as f64 - 6.0
                });
                let lhs: f64 = px
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(a, b)| a * b)
                    .sum();
                let by = pad_backward_tensor4(&y, t_, b_, l_, r_, mode);
                let rhs = by.as_slice()[k];
                assert!(
                    (lhs - rhs).abs() < 1e-12,
                    "adjoint mismatch mode={mode:?} k={k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "margins consume the tensor")]
    fn crop_rejects_total_crop() {
        let t = Tensor4::zeros(1, 1, 2, 2);
        let _ = crop_tensor4(&t, 1, 1, 0, 0);
    }
}
