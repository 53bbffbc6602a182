//! 2-D cross-correlation ("convolution" in deep-learning parlance):
//! forward, input-gradient and weight-gradient kernels.
//!
//! Two forward implementations are provided: a direct seven-loop kernel
//! (trivially auditable, used as the test oracle) and the im2col+GEMM
//! lowering (the fast path used by `pde-nn`). Both share [`Conv2dSpec`].
//!
//! The lowering is **cache-blocked**: no pass ever holds a sample's whole
//! `rows × n_cols` column matrix (25× the activation it came from at a 5×5
//! kernel), let alone a mini-batch of them. Each pass walks the `n_cols`
//! output positions one L2-sized column panel at a time — lower the panel,
//! multiply it while it is cache-hot, move on — through the strided GEMM
//! kernels of [`crate::gemm`], with the panel order chosen per pass so that
//! every result is bit-for-bit what one whole-matrix product would give
//! (see the three `conv2d_*` passes and `DESIGN.md` §4c).

use crate::gemm::{gemm_strided, panel_cols, record_product, with_packed_a, CView, Trans};
use crate::im2col::{col2im_panel, im2col_panel, ConvGeom};
use crate::pool::{self, SendPtr};
use crate::Tensor4;
use std::cell::RefCell;
use std::time::Instant;

/// Static description of a convolution layer's arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Symmetric zero padding on every side.
    pub pad: usize,
}

impl Conv2dSpec {
    /// Square-kernel, stride-1 spec.
    pub fn square(in_c: usize, out_c: usize, k: usize, pad: usize) -> Self {
        Self {
            in_c,
            out_c,
            kh: k,
            kw: k,
            stride: 1,
            pad,
        }
    }

    /// "Same" convolution: output spatial dims equal input dims (requires an
    /// odd kernel and stride 1).
    ///
    /// # Panics
    /// If the kernel is even-sized.
    pub fn same(in_c: usize, out_c: usize, k: usize) -> Self {
        assert!(k % 2 == 1, "Conv2dSpec::same needs an odd kernel, got {k}");
        Self::square(in_c, out_c, k, k / 2)
    }

    /// Geometry for a given input spatial size.
    pub fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            c: self.in_c,
            h,
            w,
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Output spatial dims for a given input spatial size.
    pub fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        let g = self.geom(h, w);
        (g.out_h(), g.out_w())
    }

    /// Number of learnable weights (`out_c * in_c * kh * kw`), excluding bias.
    pub fn weight_count(&self) -> usize {
        self.out_c * self.in_c * self.kh * self.kw
    }

    /// Expected weight-tensor shape `(out_c, in_c, kh, kw)`.
    pub fn weight_shape(&self) -> (usize, usize, usize, usize) {
        (self.out_c, self.in_c, self.kh, self.kw)
    }

    fn check_weights(&self, weight: &Tensor4) {
        assert_eq!(
            weight.shape(),
            self.weight_shape(),
            "conv2d: weight shape {:?} does not match spec {:?}",
            weight.shape(),
            self
        );
    }

    fn check_input(&self, input: &Tensor4) {
        assert_eq!(
            input.c(),
            self.in_c,
            "conv2d: input has {} channels, spec expects {}",
            input.c(),
            self.in_c
        );
    }
}

/// Direct (loop-nest) forward cross-correlation. `bias` is one value per
/// output channel or empty for no bias.
///
/// The reference implementation: slow but obviously correct.
pub fn conv2d(input: &Tensor4, weight: &Tensor4, bias: &[f64], spec: &Conv2dSpec) -> Tensor4 {
    spec.check_weights(weight);
    spec.check_input(input);
    assert!(
        bias.is_empty() || bias.len() == spec.out_c,
        "conv2d: bias length"
    );
    let (n, _, h, w) = input.shape();
    let g = spec.geom(h, w);
    g.validate();
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = Tensor4::zeros(n, spec.out_c, oh, ow);

    for s in 0..n {
        let x = input.sample(s);
        let y = out.sample_mut(s);
        for oc in 0..spec.out_c {
            let b = if bias.is_empty() { 0.0 } else { bias[oc] };
            let y_plane = &mut y[oc * oh * ow..(oc + 1) * oh * ow];
            y_plane.fill(b);
            for ic in 0..spec.in_c {
                let x_plane = &x[ic * h * w..(ic + 1) * h * w];
                for ki in 0..spec.kh {
                    for kj in 0..spec.kw {
                        let wv = weight[(oc, ic, ki, kj)];
                        for oi in 0..oh {
                            let ii = (oi * spec.stride + ki) as isize - spec.pad as isize;
                            if ii < 0 || ii >= h as isize {
                                continue;
                            }
                            let x_row = &x_plane[ii as usize * w..(ii as usize + 1) * w];
                            let y_row = &mut y_plane[oi * ow..(oi + 1) * ow];
                            for (oj, yv) in y_row.iter_mut().enumerate() {
                                let jj = (oj * spec.stride + kj) as isize - spec.pad as isize;
                                if jj >= 0 && jj < w as isize {
                                    *yv += wv * x_row[jj as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

thread_local! {
    /// The column panel of whichever thread runs a conv chunk when the pass
    /// fans out over the pool (like the GEMM's `B_BUF`: one per executing
    /// thread, grown during warm-up, reused ever after).
    static PANEL: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Workspace reused across im2col convolution calls: **one column panel** —
/// `rows × L` values, `rows = in_c·kh·kw`, `L` =
/// [`panel_cols`](crate::gemm) — that each pass lowers into and multiplies
/// out of while it is cache-hot. Its size is set by the layer's geometry
/// alone (about 1 MiB at the paper's shapes, exactly `rows × out_h·out_w`
/// when the whole column matrix is smaller than that) and never by the
/// batch size.
#[derive(Default, Clone)]
pub struct ConvScratch {
    panel: Vec<f64>,
}

impl ConvScratch {
    /// New empty scratch (the panel grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of workspace this scratch holds (its capacity, not just the
    /// part the last call used).
    pub fn bytes(&self) -> usize {
        self.panel.capacity() * std::mem::size_of::<f64>()
    }

    /// The panel, at least `len` long. Grows monotonically and exactly, so a
    /// scratch that has seen its largest layer never reallocates again.
    fn panel(&mut self, len: usize) -> &mut [f64] {
        if self.panel.len() < len {
            self.panel.reserve_exact(len - self.panel.len());
            self.panel.resize(len, 0.0);
        }
        &mut self.panel[..len]
    }
}

/// How a pass walks one sample's `n_cols` output positions: `count` panels
/// of `width` columns, the last one possibly shorter.
#[derive(Clone, Copy)]
struct Panels {
    rows: usize,
    n_cols: usize,
    width: usize,
    count: usize,
}

impl Panels {
    fn of(g: &ConvGeom) -> Self {
        let (rows, n_cols) = (g.col_rows(), g.col_cols());
        let width = panel_cols(rows, n_cols);
        Self {
            rows,
            n_cols,
            width,
            count: n_cols.div_ceil(width),
        }
    }

    /// Column range `q0..q1` of panel `i`.
    fn range(&self, i: usize) -> (usize, usize) {
        (i * self.width, ((i + 1) * self.width).min(self.n_cols))
    }

    /// Elements of a full panel.
    fn len(&self) -> usize {
        self.rows * self.width
    }
}

/// Runs `f(chunk, panel)` for every chunk, handing each call a `len`-element
/// column panel it may overwrite. With a thread budget of 1 (or a single
/// chunk) everything runs inline on `scratch`'s panel; otherwise the chunks
/// fan out over the pool and each executing thread uses its own
/// thread-local panel. Chunks must write disjoint data.
fn run_with_panel(
    scratch: &mut ConvScratch,
    len: usize,
    chunks: usize,
    f: &(dyn Fn(usize, &mut [f64]) + Sync),
) {
    if pool::thread_budget() <= 1 || chunks <= 1 {
        let panel = scratch.panel(len);
        for i in 0..chunks {
            f(i, panel);
        }
        return;
    }
    pool::run(chunks, &|i| {
        PANEL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < len {
                p.resize(len, 0.0);
            }
            f(i, &mut p[..len]);
        });
    });
}

/// im2col + GEMM forward pass — the fast path. Identical results to
/// [`conv2d`] up to floating-point association order.
pub fn conv2d_im2col(
    input: &Tensor4,
    weight: &Tensor4,
    bias: &[f64],
    spec: &Conv2dSpec,
    scratch: &mut ConvScratch,
) -> Tensor4 {
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    conv2d_im2col_into(input, weight, bias, spec, scratch, &mut out);
    out
}

/// [`conv2d_im2col`] writing into a caller-owned output tensor (resized in
/// place). The weight matrix is packed once; then, one column panel at a
/// time, a sample's receptive fields are lowered into the panel and
/// multiplied straight into the matching column range of the output.
///
/// Panels partition the output's columns, and each runs the GEMM's full
/// ascending KC-block chain onto its bias-initialised columns, so the result
/// does not depend on the panel width or order — (sample, panel) pairs are
/// the pool's chunks.
pub fn conv2d_im2col_into(
    input: &Tensor4,
    weight: &Tensor4,
    bias: &[f64],
    spec: &Conv2dSpec,
    scratch: &mut ConvScratch,
    out: &mut Tensor4,
) {
    spec.check_weights(weight);
    spec.check_input(input);
    assert!(
        bias.is_empty() || bias.len() == spec.out_c,
        "conv2d: bias length"
    );
    let (n, _, h, w) = input.shape();
    let g = spec.geom(h, w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let panels = Panels::of(&g);
    let (rows, n_cols, out_c) = (panels.rows, panels.n_cols, spec.out_c);
    out.resize(n, out_c, oh, ow);
    if n == 0 {
        return;
    }

    let t0 = Instant::now();
    // Per sample: (out_c × rows) · (rows × n_cols) += into (out_c × n_cols).
    let y = CView::new(out.as_mut_slice(), n_cols);
    with_packed_a(Trans::N, out_c, rows, weight.as_slice(), rows, |wp| {
        run_with_panel(scratch, panels.len(), n * panels.count, &|i, panel| {
            let (s, (q0, q1)) = (i / panels.count, panels.range(i % panels.count));
            let pl = q1 - q0;
            let panel = &mut panel[..rows * pl];
            im2col_panel(input.sample(s), &g, q0, q1, panel);
            let y = y.at(s * out_c * n_cols + q0);
            // SAFETY: this chunk alone writes columns `q0..q1` of sample
            // `s`'s output, which `y` now starts at.
            unsafe {
                y.fill(out_c, pl, |oc| bias.get(oc).copied().unwrap_or(0.0));
                wp.sweep(Trans::N, panel, pl, y, 0, pl);
            }
        });
    });
    record_product(t0, n, Trans::N, out_c, rows, n_cols);
}

/// Gradient of the loss w.r.t. the convolution *input*.
///
/// `grad_out` has the forward-output shape; the result has the forward-input
/// shape `(n, in_c, h, w)` (which must be supplied because stride/padding
/// make the inverse ambiguous).
pub fn conv2d_backward_input(
    grad_out: &Tensor4,
    weight: &Tensor4,
    spec: &Conv2dSpec,
    in_h: usize,
    in_w: usize,
    scratch: &mut ConvScratch,
) -> Tensor4 {
    let mut grad_in = Tensor4::zeros(0, 0, 0, 0);
    conv2d_backward_input_into(grad_out, weight, spec, in_h, in_w, scratch, &mut grad_in);
    grad_in
}

/// [`conv2d_backward_input`] writing into a caller-owned tensor (resized in
/// place). The transposed weight matrix is packed once; per sample (the
/// pool's chunks), one column panel of the column gradient is computed from
/// the matching columns of `grad_out` and scattered onto the input gradient
/// at once.
///
/// Neighbouring panels scatter onto overlapping input rows, so their order
/// is part of the result: panels are taken in **descending** column order,
/// which is the order [`col2im`](crate::im2col::col2im) adds one input
/// pixel's taps in (see [`col2im_panel`]).
pub fn conv2d_backward_input_into(
    grad_out: &Tensor4,
    weight: &Tensor4,
    spec: &Conv2dSpec,
    in_h: usize,
    in_w: usize,
    scratch: &mut ConvScratch,
    grad_in: &mut Tensor4,
) {
    spec.check_weights(weight);
    let (n, oc, oh, ow) = grad_out.shape();
    assert_eq!(oc, spec.out_c, "backward_input: grad_out channels");
    let g = spec.geom(in_h, in_w);
    assert_eq!(
        (g.out_h(), g.out_w()),
        (oh, ow),
        "backward_input: geometry mismatch"
    );
    let panels = Panels::of(&g);
    let (rows, n_cols, out_c) = (panels.rows, panels.n_cols, spec.out_c);
    grad_in.resize(n, spec.in_c, in_h, in_w);
    grad_in.as_mut_slice().fill(0.0);
    if n == 0 {
        return;
    }

    let t0 = Instant::now();
    let sample_len = spec.in_c * in_h * in_w;
    let gi = SendPtr(grad_in.as_mut_slice().as_mut_ptr());
    // cols_grad_s = Wᵀ (rows × out_c) · grad_out_s (out_c × n_cols).
    with_packed_a(Trans::T, rows, out_c, weight.as_slice(), rows, |wp| {
        run_with_panel(scratch, panels.len(), n, &|s, panel| {
            // Whole-value rebind keeps the `Send + Sync` SendPtr in the capture.
            #[allow(clippy::redundant_locals)]
            let gi = gi;
            // SAFETY: chunk `s` owns sample `s`'s disjoint grad_in region.
            let gin =
                unsafe { std::slice::from_raw_parts_mut(gi.0.add(s * sample_len), sample_len) };
            let go = grad_out.sample(s);
            for (q0, q1) in (0..panels.count).rev().map(|i| panels.range(i)) {
                let pl = q1 - q0;
                let panel = &mut panel[..rows * pl];
                panel.fill(0.0);
                // SAFETY: the panel is this chunk's alone for the call.
                unsafe { wp.sweep(Trans::N, &go[q0..], n_cols, CView::new(panel, pl), 0, pl) };
                col2im_panel(panel, &g, q0, q1, gin);
            }
        });
    });
    record_product(t0, n, Trans::N, rows, out_c, n_cols);
}

/// Gradient of the loss w.r.t. the convolution *weights* and *bias*.
///
/// Accumulates into `grad_weight` (shape `(out_c, in_c, kh, kw)`) and
/// `grad_bias` (length `out_c`, or empty to skip), matching the convention
/// that gradients are summed over a mini-batch. Samples in order, and per
/// sample one column panel at a time: lower it, then add
/// `grad_out[:, panel] · panelᵀ` into the shared gradient tile.
///
/// Here the panel is the product's *shared* dimension, so how it is cut is
/// part of the result: every panel but the last is a whole number of the
/// GEMM's KC blocks ([`panel_cols`](crate::gemm)) and panels are taken in
/// ascending order, which makes the sequence of per-block FMA chains and
/// `+=` into the tile exactly that of one product over all columns.
pub fn conv2d_backward_weight(
    input: &Tensor4,
    grad_out: &Tensor4,
    spec: &Conv2dSpec,
    grad_weight: &mut Tensor4,
    grad_bias: &mut [f64],
    scratch: &mut ConvScratch,
) {
    spec.check_input(input);
    assert_eq!(
        grad_weight.shape(),
        spec.weight_shape(),
        "backward_weight: grad shape"
    );
    assert!(
        grad_bias.is_empty() || grad_bias.len() == spec.out_c,
        "backward_weight: bias length"
    );
    let (n, _, h, w) = input.shape();
    let g = spec.geom(h, w);
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(
        grad_out.shape(),
        (n, spec.out_c, oh, ow),
        "backward_weight: grad_out shape"
    );
    let panels = Panels::of(&g);
    let (rows, n_cols, out_c) = (panels.rows, panels.n_cols, spec.out_c);

    // grad_W (out_c × rows) += Σ_s grad_out_s (out_c × n_cols) · cols_sᵀ.
    let gw = CView::new(grad_weight.as_mut_slice(), rows);
    let panel = scratch.panel(panels.len());
    for s in 0..n {
        let t0 = Instant::now();
        let go = grad_out.sample(s);
        for (q0, q1) in (0..panels.count).map(|i| panels.range(i)) {
            let pl = q1 - q0;
            let panel = &mut panel[..rows * pl];
            im2col_panel(input.sample(s), &g, q0, q1, panel);
            gemm_strided(
                Trans::N,
                Trans::T,
                out_c,
                pl,
                rows,
                &go[q0..],
                n_cols,
                panel,
                pl,
                gw,
            );
        }
        record_product(t0, 1, Trans::T, out_c, n_cols, rows);
        if !grad_bias.is_empty() {
            for oc in 0..out_c {
                grad_bias[oc] += go[oc * n_cols..(oc + 1) * n_cols].iter().sum::<f64>();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    fn det_t4(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor4 {
        Tensor4::from_vec(n, c, h, w, det(n * c * h * w, seed))
    }

    #[test]
    fn identity_kernel_is_identity() {
        // 1×1 kernel with weight 1 reproduces the input.
        let spec = Conv2dSpec::square(1, 1, 1, 0);
        let x = det_t4(2, 1, 4, 4, 1);
        let w = Tensor4::full(1, 1, 1, 1, 1.0);
        let y = conv2d(&x, &w, &[], &spec);
        assert_eq!(y, x);
    }

    #[test]
    fn averaging_kernel_known_value() {
        let spec = Conv2dSpec::square(1, 1, 2, 0);
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor4::full(1, 1, 2, 2, 0.25);
        let y = conv2d(&x, &w, &[], &spec);
        assert_eq!(y.shape(), (1, 1, 1, 1));
        assert!((y.as_slice()[0] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bias_added_per_output_channel() {
        let spec = Conv2dSpec::square(1, 2, 1, 0);
        let x = Tensor4::zeros(1, 1, 3, 3);
        let w = Tensor4::zeros(2, 1, 1, 1);
        let y = conv2d(&x, &w, &[1.5, -2.0], &spec);
        for j in 0..9 {
            assert_eq!(y.as_slice()[j], 1.5);
            assert_eq!(y.as_slice()[9 + j], -2.0);
        }
    }

    #[test]
    fn im2col_path_matches_direct() {
        let mut scratch = ConvScratch::new();
        for &(in_c, out_c, k, pad, stride, h, w) in &[
            (1usize, 1usize, 3usize, 1usize, 1usize, 5usize, 5usize),
            (4, 6, 5, 2, 1, 8, 8),
            (3, 2, 3, 0, 1, 6, 7),
            (2, 4, 3, 1, 2, 9, 9),
        ] {
            let spec = Conv2dSpec {
                in_c,
                out_c,
                kh: k,
                kw: k,
                stride,
                pad,
            };
            let x = det_t4(2, in_c, h, w, 10 + k as u64);
            let wt = det_t4(out_c, in_c, k, k, 20 + k as u64);
            let b = det(out_c, 30);
            let y1 = conv2d(&x, &wt, &b, &spec);
            let y2 = conv2d_im2col(&x, &wt, &b, &spec, &mut scratch);
            crate::assert_slice_close(
                y1.as_slice(),
                y2.as_slice(),
                1e-11,
                1e-11,
                "im2col vs direct",
            );
        }
    }

    #[test]
    fn same_spec_preserves_dims() {
        let spec = Conv2dSpec::same(4, 6, 5);
        assert_eq!(spec.out_dims(16, 24), (16, 24));
        assert_eq!(spec.weight_count(), 6 * 4 * 5 * 5);
    }

    /// Finite-difference check of the input gradient.
    #[test]
    fn backward_input_matches_finite_difference() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let (h, w) = (5, 4);
        let x = det_t4(1, 2, h, w, 77);
        let wt = det_t4(3, 2, 3, 3, 78);
        let mut scratch = ConvScratch::new();

        // Loss = 0.5 * ||y||², so dL/dy = y and dL/dx via backward_input.
        let y = conv2d(&x, &wt, &[], &spec);
        let gin = conv2d_backward_input(&y, &wt, &spec, h, w, &mut scratch);

        let eps = 1e-6;
        for k in (0..x.len()).step_by(7) {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[k] -= eps;
            let lp = 0.5 * conv2d(&xp, &wt, &[], &spec).norm_sq();
            let lm = 0.5 * conv2d(&xm, &wt, &[], &spec).norm_sq();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin.as_slice()[k]).abs() < 1e-5 * (1.0 + fd.abs()),
                "input grad mismatch at {k}: fd={fd} analytic={}",
                gin.as_slice()[k]
            );
        }
    }

    /// Finite-difference check of the weight and bias gradients.
    #[test]
    fn backward_weight_matches_finite_difference() {
        let spec = Conv2dSpec::square(2, 2, 3, 1);
        let (h, w) = (4, 4);
        let x = det_t4(2, 2, h, w, 99);
        let wt = det_t4(2, 2, 3, 3, 100);
        let b = det(2, 101);
        let mut scratch = ConvScratch::new();

        let y = conv2d(&x, &wt, &b, &spec);
        let mut gw = Tensor4::zeros(2, 2, 3, 3);
        let mut gb = vec![0.0; 2];
        conv2d_backward_weight(&x, &y, &spec, &mut gw, &mut gb, &mut scratch);

        let eps = 1e-6;
        for k in 0..wt.len() {
            let mut wp = wt.clone();
            wp.as_mut_slice()[k] += eps;
            let mut wm = wt.clone();
            wm.as_mut_slice()[k] -= eps;
            let lp = 0.5 * conv2d(&x, &wp, &b, &spec).norm_sq();
            let lm = 0.5 * conv2d(&x, &wm, &b, &spec).norm_sq();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gw.as_slice()[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                "weight grad mismatch at {k}: fd={fd} analytic={}",
                gw.as_slice()[k]
            );
        }
        for oc in 0..2 {
            let mut bp = b.clone();
            bp[oc] += eps;
            let mut bm = b.clone();
            bm[oc] -= eps;
            let lp = 0.5 * conv2d(&x, &wt, &bp, &spec).norm_sq();
            let lm = 0.5 * conv2d(&x, &wt, &bm, &spec).norm_sq();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gb[oc]).abs() < 1e-4 * (1.0 + fd.abs()),
                "bias grad mismatch at {oc}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "weight shape")]
    fn rejects_wrong_weight_shape() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let x = Tensor4::zeros(1, 2, 4, 4);
        let w = Tensor4::zeros(3, 2, 5, 5);
        let _ = conv2d(&x, &w, &[], &spec);
    }

    // A 5x5 kernel on a 3x3 input: `h + 2·pad − kh` used to wrap in a
    // release build (no overflow checks) for every entry point but the
    // forward pass, and the next resize aborted on a ~2⁶⁴-element request.

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn out_dims_rejects_oversized_kernel() {
        let _ = Conv2dSpec::square(1, 1, 5, 0).out_dims(3, 3);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn backward_input_rejects_oversized_kernel() {
        let spec = Conv2dSpec::square(1, 1, 5, 0);
        let go = Tensor4::zeros(1, 1, 1, 1);
        let w = Tensor4::zeros(1, 1, 5, 5);
        let _ = conv2d_backward_input(&go, &w, &spec, 3, 3, &mut ConvScratch::new());
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn backward_weight_rejects_oversized_kernel() {
        let spec = Conv2dSpec::square(1, 1, 5, 0);
        let x = Tensor4::zeros(1, 1, 3, 3);
        let go = Tensor4::zeros(1, 1, 1, 1);
        let mut gw = Tensor4::zeros(1, 1, 5, 5);
        conv2d_backward_weight(&x, &go, &spec, &mut gw, &mut [], &mut ConvScratch::new());
    }

    #[test]
    #[should_panic(expected = "needs an odd kernel")]
    fn same_rejects_even_kernel() {
        let _ = Conv2dSpec::same(1, 1, 4);
    }
}
