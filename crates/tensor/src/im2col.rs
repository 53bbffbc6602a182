//! im2col / col2im lowering.
//!
//! `im2col` unrolls every receptive field of a convolution into one column of
//! a matrix so the convolution becomes a single GEMM — the classic lowering
//! used by CPU deep-learning frameworks. `col2im` is its adjoint and is the
//! core of the lowered input-gradient pass.
//!
//! The convolution passes in [`crate::conv`] no longer lower anything: they
//! read the activation in place and only keep this formulation's
//! arithmetic. What remains here is the whole-matrix form, in three roles:
//! the oracle the equivalence tests build their reference from (`im2col` +
//! the scalar `gemm*` oracle (+ `col2im`) defines what "bit-identical"
//! means), the input gradient of a layer with more than 256 output channels
//! (`col2im`), and the lowering-bandwidth row of the benchmark. [`ConvGeom`]
//! is the geometry all of them share; every convolution is stride 1.

/// Geometry of a stride-1 2-D convolution over one sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c: usize,
    /// Input height (before padding).
    pub h: usize,
    /// Input width (before padding).
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Symmetric zero padding applied on every side.
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    ///
    /// # Panics
    /// As [`ConvGeom::validate`] — in particular on a kernel larger than the
    /// padded input, where the unchecked subtraction would wrap in a release
    /// build and the next allocation abort.
    #[inline]
    pub fn out_h(&self) -> usize {
        self.validate();
        self.h + 2 * self.pad - self.kh + 1
    }

    /// Output width.
    ///
    /// # Panics
    /// As [`ConvGeom::out_h`].
    #[inline]
    pub fn out_w(&self) -> usize {
        self.validate();
        self.w + 2 * self.pad - self.kw + 1
    }

    /// Number of rows of the column matrix (`c * kh * kw`).
    #[inline]
    pub fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Number of columns of the column matrix (`out_h * out_w`).
    #[inline]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validates that the geometry produces at least one output pixel.
    #[inline]
    pub fn validate(&self) {
        assert!(
            self.h + 2 * self.pad >= self.kh && self.w + 2 * self.pad >= self.kw,
            "ConvGeom: kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
    }

    /// The input row that output row `oi` reads through tap row `ki`, or
    /// `None` when that row is padding.
    #[inline]
    fn input_row(&self, oi: usize, ki: usize) -> Option<usize> {
        (oi + ki).checked_sub(self.pad).filter(|&ii| ii < self.h)
    }

    /// For tap column `kj`: the contiguous run of output columns
    /// `oj_lo..oj_hi` whose input column `jj = oj + kj - pad` lies in
    /// `[0, w)` — every other output column reads padding.
    fn valid_run(&self, kj: usize, ow: usize) -> (usize, usize) {
        let oj_lo = self.pad.saturating_sub(kj).min(ow);
        let oj_hi = (self.w + self.pad).saturating_sub(kj).min(ow).max(oj_lo);
        (oj_lo, oj_hi)
    }
}

/// Unrolls one `(C, H, W)` sample into the `(c*kh*kw) × (out_h*out_w)`
/// column matrix, writing into `cols` (which must be exactly that size).
/// Row `(c, ki, kj)`, column `q = oi·ow + oj` holds the input value tap
/// `(ki, kj)` of output `(oi, oj)` reads; out-of-bounds (padding) positions
/// contribute zeros.
pub fn im2col(input: &[f64], g: &ConvGeom, cols: &mut [f64]) {
    assert_eq!(input.len(), g.c * g.h * g.w, "im2col: input length");
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    assert_eq!(cols.len(), g.col_rows() * n_cols, "im2col: cols length");
    if n_cols == 0 {
        return;
    }
    for c in 0..g.c {
        let plane = &input[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let out_row = &mut cols[row * n_cols..(row + 1) * n_cols];
                let input_row = |oi| Some(&plane[g.input_row(oi, ki)? * g.w..][..g.w]);
                // For a fixed tap, valid output columns form one contiguous
                // run `a..b`, so each output row is zeros / one bulk copy /
                // zeros — vector moves instead of a branch per element.
                let (a, b) = g.valid_run(kj, ow);
                let src0 = (a + kj).saturating_sub(g.pad).min(g.w);
                for (dst, oi) in out_row.chunks_exact_mut(ow).zip(0..oh) {
                    let Some(src_row) = input_row(oi) else {
                        dst.fill(0.0);
                        continue;
                    };
                    dst[..a].fill(0.0);
                    dst[a..b].copy_from_slice(&src_row[src0..][..b - a]);
                    dst[b..].fill(0.0);
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters (accumulates) the column matrix back onto
/// the `(C, H, W)` sample buffer. `output` is *accumulated into*, callers
/// must zero it when they want a plain adjoint.
///
/// Rows are visited in `(c, ki, kj)` order and columns in ascending `q`, so
/// one `output` element receives its taps in ascending `(ki, kj)` — the
/// order [`crate::conv::conv2d_backward_input_into`] reproduces in registers.
pub fn col2im(cols: &[f64], g: &ConvGeom, output: &mut [f64]) {
    assert_eq!(output.len(), g.c * g.h * g.w, "col2im: output length");
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    assert_eq!(cols.len(), g.col_rows() * n_cols, "col2im: cols length");
    if n_cols == 0 {
        return;
    }
    for c in 0..g.c {
        let plane = &mut output[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let in_row = &cols[row * n_cols..(row + 1) * n_cols];
                // Same contiguous-run structure as `im2col`: the scatter is
                // one dense `+=` sweep per row.
                let (a, b) = g.valid_run(kj, ow);
                let dst0 = (a + kj).saturating_sub(g.pad).min(g.w);
                for (src, oi) in in_row.chunks_exact(ow).zip(0..oh) {
                    let Some(ii) = g.input_row(oi, ki) else {
                        continue;
                    };
                    let dst_row = &mut plane[ii * g.w..][..g.w];
                    for (d, &s) in dst_row[dst0..][..b - a].iter_mut().zip(&src[a..b]) {
                        *d += s;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = ConvGeom {
            c: 4,
            h: 16,
            w: 16,
            kh: 5,
            kw: 5,
            pad: 2,
        };
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
        assert_eq!(g.col_rows(), 100);
        assert_eq!(g.col_cols(), 256);
    }

    #[test]
    fn geometry_valid_no_pad() {
        let g = ConvGeom {
            c: 1,
            h: 6,
            w: 7,
            kh: 3,
            kw: 3,
            pad: 0,
        };
        assert_eq!((g.out_h(), g.out_w()), (4, 5));
    }

    #[test]
    fn im2col_identity_kernel_geometry() {
        // 1×1 kernel, no pad: cols == input.
        let g = ConvGeom {
            c: 2,
            h: 3,
            w: 3,
            kh: 1,
            kw: 1,
            pad: 0,
        };
        let input: Vec<f64> = (0..18).map(|x| x as f64).collect();
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&input, &g, &mut cols);
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel, 3×3 input, 2×2 kernel, no pad → 2×2 output, 4 rows.
        let g = ConvGeom {
            c: 1,
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            pad: 0,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut cols = vec![0.0; 4 * 4];
        im2col(&input, &g, &mut cols);
        // Row layout: (ki,kj) = (0,0),(0,1),(1,0),(1,1); columns are the 4
        // output positions in row-major order.
        assert_eq!(&cols[0..4], &[1.0, 2.0, 4.0, 5.0]); // top-left taps
        assert_eq!(&cols[4..8], &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(&cols[8..12], &[4.0, 5.0, 7.0, 8.0]);
        assert_eq!(&cols[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_zeros() {
        let g = ConvGeom {
            c: 1,
            h: 2,
            w: 2,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&input, &g, &mut cols);
        // Center tap (ki=1, kj=1) row must equal the input itself.
        let n = g.col_cols();
        assert_eq!(&cols[4 * n..5 * n], &input[..]);
        // Top-left tap at output (0,0) reads the padded corner → 0.
        assert_eq!(cols[0], 0.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> on random-ish data.
        let g = ConvGeom {
            c: 2,
            h: 4,
            w: 5,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let x: Vec<f64> = (0..g.c * g.h * g.w)
            .map(|i| ((i * 37 + 11) % 17) as f64 - 8.0)
            .collect();
        let y: Vec<f64> = (0..g.col_rows() * g.col_cols())
            .map(|i| ((i * 13 + 5) % 19) as f64 - 9.0)
            .collect();
        let mut cols = vec![0.0; y.len()];
        im2col(&x, &g, &mut cols);
        let lhs: f64 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0; x.len()];
        col2im(&y, &g, &mut back);
        let rhs: f64 = back.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn out_dims_reject_oversized_kernel() {
        let g = ConvGeom {
            c: 1,
            h: 2,
            w: 9,
            kh: 5,
            kw: 5,
            pad: 0,
        };
        let _ = g.out_h();
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn validate_rejects_oversized_kernel() {
        let g = ConvGeom {
            c: 1,
            h: 2,
            w: 2,
            kh: 5,
            kw: 5,
            pad: 0,
        };
        g.validate();
    }
}
