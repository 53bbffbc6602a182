//! 2-D cross-correlation ("convolution" in deep-learning parlance):
//! forward, input-gradient and weight-gradient kernels.
//!
//! Two forward implementations are provided: a direct seven-loop kernel
//! ([`conv2d`], trivially auditable, used as a test oracle) and the fast
//! path used by `pde-nn` ([`conv2d_forward_into`] — [`conv2d_im2col_into`]
//! is its pinned name without an activation — and the two backward passes).
//! All share [`Conv2dSpec`].
//!
//! The fast path is **zero-lowering**: a run of output columns reads a run
//! of input columns, so all three passes read `x` / `grad_out`
//! in place and never build a column matrix — no im2col panel, no
//! transposing pack, no col2im scatter. What they keep from the
//! im2col + GEMM formulation they replace is its arithmetic, element for
//! element (the accumulation-order contract of [`crate::gemm`], restated per
//! pass on the three entry points and in `DESIGN.md` §4c), so every result
//! is bit-for-bit what `im2col` + the scalar `gemm*` oracle (+ `col2im`)
//! over whole matrices gives — `tests/kernel_paths.rs` asserts it with
//! `to_bits()`.
//!
//! Two passes also carry an **epilogue**, so that a network's LeakyReLU
//! costs no pass over memory of its own: the forward write-back that
//! completes an output element can apply the layer's activation
//! ([`conv2d_forward_into`]'s `leak`), and the input gradient's write-back
//! can apply the *upstream* activation's backward, reading the sign from the
//! activation it is overwriting ([`conv2d_backward_input_leaky`]). Each is
//! the unfused result followed by the elementwise function, bit for bit.
//!
//! The forward pass also runs in `f32`, for serving: [`ConvForward`] is the
//! same body generic over [`Real`], with its weights converted and packed
//! once (see `crate::real`).
//!
//! Each pass has two kernels with the identical chain: an AVX-512 one in
//! [`crate::simd`] and a portable `f64::mul_add` one here, which is the
//! [`KernelPath::Scalar`] route and the general case for shapes the vector
//! layout does not cover (`kw > 8` in the weight gradient). `pad > 0` is
//! served by the same kernels — forward and weight gradient through a
//! zero-bordered copy of one sample (1× the activation, where a column
//! matrix is `kh·kw`×), input gradient through lane masks. Every
//! convolution is stride 1, as every layer of the paper's network is.

use crate::gemm::{
    gemm_tn, grown, kernel_path, pack_a, record_product, CView, KernelPath, KC, MR, NR,
};
use crate::im2col::{col2im, ConvGeom};
use crate::pool;
use crate::real::Real;
use crate::Tensor4;
use std::time::Instant;

/// Static description of a convolution layer's arithmetic (stride 1).
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
    /// Symmetric zero padding on every side.
    pub pad: usize,
}

impl Conv2dSpec {
    /// Square-kernel spec.
    pub fn square(in_c: usize, out_c: usize, k: usize, pad: usize) -> Self {
        Self {
            in_c,
            out_c,
            kh: k,
            kw: k,
            pad,
        }
    }

    /// "Same" convolution: output spatial dims equal input dims (requires an
    /// odd kernel).
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
                            let ii = (oi + ki) as isize - spec.pad as isize;
                            if ii < 0 || ii >= h as isize {
                                continue;
                            }
                            let x_row = &x_plane[ii as usize * w..(ii as usize + 1) * w];
                            let y_row = &mut y_plane[oi * ow..(oi + 1) * ow];
                            for (oj, yv) in y_row.iter_mut().enumerate() {
                                let jj = (oj + kj) as isize - spec.pad as isize;
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

/// Output (forward) or input (input gradient) rows per pool chunk. Every
/// element of those passes is computed independently of its neighbours, so
/// the band height only sets the fan-out grain, never a result.
const ROW_BAND: usize = 32;
/// Most output channels one weight-gradient tile accumulates at once.
pub(crate) const BWD_WEIGHT_GROUP: usize = 4;
/// Most kernel rows one weight-gradient tile accumulates at once
/// (`BWD_WEIGHT_GROUP × BWD_WEIGHT_ROWS` vector accumulators).
pub(crate) const BWD_WEIGHT_ROWS: usize = 5;
/// Input-channel tile widths of the input-gradient kernels: four channels
/// fill the narrow tile exactly, anything wider is cut into wide ones (the
/// last zero-padded, its spare rows computed but never stored).
const BWD_INPUT_TILES: (usize, usize) = (4, 6);

/// Workspace reused across convolution calls. It holds what a pass derives
/// from the layer alone — the weights in the layout its kernel reads and the
/// forward pass's tap-offset table — plus, for `pad > 0`, one sample's
/// zero-bordered copy. All three grow once, to sizes set by the layer's
/// geometry and never by the batch size (a few KiB to a few tens of KiB at
/// the paper's shapes, against the 1 MiB column panel this replaced).
/// `T` is the element type of the passes it serves (`f64` for training).
#[derive(Clone, Default)]
pub struct ConvScratch<T = f64> {
    weights: Vec<T>,
    taps: Vec<usize>,
    padded: Vec<T>,
}

impl<T: Real> ConvScratch<T> {
    /// New empty scratch (its buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of workspace this scratch holds (its capacity, not just the
    /// part the last call used).
    pub fn bytes(&self) -> usize {
        (self.weights.capacity() + self.padded.capacity()) * std::mem::size_of::<T>()
            + self.taps.capacity() * std::mem::size_of::<usize>()
    }
}

/// The part size that cuts `n` into the fewest parts of at most `max`, as
/// evenly as possible (at least 1, so it can be a step).
fn even_part(n: usize, max: usize) -> usize {
    n.div_ceil(n.div_ceil(max).max(1)).max(1)
}

/// How the forward and weight-gradient kernels see one sample:
/// channel planes of `rows × ld` values — the sample itself at `pad == 0`,
/// its zero-bordered copy otherwise — in which tap `(ki, kj)` of output
/// `(oi, oj)` is element `(oi + ki, oj + kj)`.
#[derive(Clone, Copy)]
struct Planes {
    rows: usize,
    ld: usize,
}

impl Planes {
    fn of(g: &ConvGeom) -> Self {
        Self {
            rows: g.h + 2 * g.pad,
            ld: g.w + 2 * g.pad,
        }
    }

    /// One sample in this layout: `sample` itself without padding, else its
    /// copy into `buf` with a `pad`-wide zero border around every channel.
    fn view<'a, T: Real>(&self, g: &ConvGeom, sample: &'a [T], buf: &'a mut Vec<T>) -> &'a [T] {
        if g.pad == 0 {
            return sample;
        }
        let dst = grown(buf, g.c * self.rows * self.ld);
        let border = g.pad * self.ld + g.pad;
        for (src, dst) in sample
            .chunks_exact(g.h * g.w)
            .zip(dst.chunks_exact_mut(self.rows * self.ld))
        {
            // Top border + left border of the first row, then per row the
            // values followed by its right border and the next row's left
            // border, then what is left of the bottom border.
            dst[..border].fill(T::ZERO);
            let mut at = border;
            for row in src.chunks_exact(g.w) {
                dst[at..at + g.w].copy_from_slice(row);
                dst[at + g.w..at + self.ld].fill(T::ZERO);
                at += self.ld;
            }
            dst[at..].fill(T::ZERO);
        }
        dst
    }
}

// ---------------------------------------------------------------------------
// Forward
// ---------------------------------------------------------------------------

/// Forward pass — the fast path. Identical results to [`conv2d`] up to
/// floating-point association order.
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
/// place): [`conv2d_forward_into`] with no activation. The name is pinned by
/// the callers and the benchmark; the pass no longer lowers anything.
pub fn conv2d_im2col_into(
    input: &Tensor4,
    weight: &Tensor4,
    bias: &[f64],
    spec: &Conv2dSpec,
    scratch: &mut ConvScratch,
    out: &mut Tensor4,
) {
    conv2d_forward_into(input, weight, bias, spec, None, scratch, out);
}

/// Packed weight-panel height of the forward pass: on the AVX-512 path the
/// one of {8, 6, 4} that pads `out_c` with the fewest zero rows, ties to the
/// taller (6 → 6, 16 → 8, 4 → 4, 12 → 6); the portable kernels read
/// [`MR`]-row panels. The height only changes which rows share a register
/// tile, never a chain.
fn forward_panel_rows(path: KernelPath, out_c: usize) -> usize {
    match path {
        KernelPath::Avx512 => [8, 6, 4]
            .into_iter()
            .min_by_key(|mr| out_c.next_multiple_of(*mr))
            .expect("three candidates"),
        _ => MR,
    }
}

/// The forward pass, `out = act(bias + W ⋆ input)` with `out` resized in
/// place: `act` is the identity for `leak = None` and LeakyReLU with
/// negative-side slope `s` for `Some(s)` — `z` for `z ≥ 0`, else `s·z`,
/// exactly `pde-nn`'s `LeakyReLu` layer — applied in the write-back that
/// completes an output element, so a fused layer stores its activation once
/// and its pre-activation never. The weight matrix is packed once per call
/// ([`pack_a`]), a tap-offset table `off[(c,ki,kj)] = c·H·W + ki·W + kj`
/// stands in for the column matrix, and a direct register tile reads B row
/// `p` of output row `oi` at `x[off[p] + oi·W + oj ..]`.
///
/// **Order contract:** each output element is `bias`, then per [`KC`] block
/// of taps `p = (c, ki, kj)` ascending one FMA chain from 0.0 over the
/// block, added once — `gemm`'s chain on `im2col`'s matrix, so the results
/// are bit-identical to it — and `act` of that, on the last block only.
/// Elements are independent of each other, so (sample, row band) pairs are
/// the pool's chunks. [`ConvForward`] runs the same body at any [`Real`]
/// precision on weights packed once.
pub fn conv2d_forward_into(
    input: &Tensor4,
    weight: &Tensor4,
    bias: &[f64],
    spec: &Conv2dSpec,
    leak: Option<f64>,
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
    let (oh, ow) = spec.out_dims(h, w);
    out.resize(n, spec.out_c, oh, ow);
    if n == 0 {
        return;
    }
    let t0 = Instant::now();
    let path = kernel_path();
    let mr = forward_panel_rows(path, spec.out_c);
    let rows = spec.in_c * spec.kh * spec.kw;
    let ConvScratch {
        weights,
        taps,
        padded,
    } = scratch;
    pack_a(spec.out_c, rows, weight.as_slice(), mr, weights);
    let packed = Packed { path, mr, weights };
    let dims = (n, h, w);
    forward_packed(
        packed,
        spec,
        bias,
        leak,
        input.as_slice(),
        dims,
        taps,
        padded,
        out.as_mut_slice(),
    );
    let packed_bytes = spec.out_c.div_ceil(mr) * mr * rows * std::mem::size_of::<f64>();
    record_product(t0, n, spec.out_c, rows, oh * ow, packed_bytes);
}

/// Weights in the layout the forward kernel of `path` reads.
#[derive(Clone, Copy)]
struct Packed<'a, T> {
    path: KernelPath,
    mr: usize,
    weights: &'a [T],
}

/// The forward pass on packed weights, the one body both precisions run:
/// `x` holds `n` samples of `in_c × h × w`, `y` (exactly `n·out_c·oh·ow`
/// long) receives the output.
#[allow(clippy::too_many_arguments)]
fn forward_packed<T: Real>(
    packed: Packed<'_, T>,
    spec: &Conv2dSpec,
    bias: &[T],
    leak: Option<T>,
    x: &[T],
    (n, h, w): (usize, usize, usize),
    taps: &mut Vec<usize>,
    padded: &mut Vec<T>,
    y: &mut [T],
) {
    let g = spec.geom(h, w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let (rows, n_cols, out_c) = (g.col_rows(), g.col_cols(), spec.out_c);
    assert_eq!(x.len(), n * g.c * h * w, "conv2d: input length");
    assert_eq!(y.len(), n * out_c * n_cols, "conv2d: output length");
    let planes = Planes::of(&g);
    let off = grown(taps, rows);
    for (row, off) in off.chunks_exact_mut(g.kw.max(1)).enumerate() {
        let (c, ki) = (row / g.kh, row % g.kh);
        for (kj, off) in off.iter_mut().enumerate() {
            *off = (c * planes.rows + ki) * planes.ld + kj;
        }
    }
    let off: &[usize] = off;

    let Packed {
        path,
        mr,
        weights: wp,
    } = packed;
    let sample_len = g.c * h * w;
    let bands = oh.div_ceil(ROW_BAND);
    let y = CView::new(y, n_cols);
    let run_band = |s: usize, x: &[T], band: usize| {
        let (oi_lo, oi_hi) = (band * ROW_BAND, ((band + 1) * ROW_BAND).min(oh));
        let y = y.at(s * out_c * n_cols);
        // SAFETY: this chunk alone writes output rows `oi_lo..oi_hi` of
        // sample `s`, which `y` now starts at; `x` is that sample in the
        // layout `off` was built for; AVX-512 is feature-checked at path
        // selection.
        unsafe {
            match path {
                #[cfg(target_arch = "x86_64")]
                KernelPath::Avx512 => T::FWD_ROWS_512(
                    wp, mr, out_c, off, x, planes.ld, bias, leak, y, ow, oi_lo, oi_hi,
                ),
                _ => conv_fwd_rows(
                    wp, mr, out_c, off, x, planes.ld, bias, leak, y, ow, oi_lo, oi_hi,
                ),
            }
        }
    };
    let sample = |s: usize| &x[s * sample_len..][..sample_len];
    if g.pad == 0 {
        pool::run(n * bands, &|i| {
            run_band(i / bands, sample(i / bands), i % bands)
        });
    } else {
        // One zero-bordered sample at a time, its bands fanned out.
        for s in 0..n {
            let x = planes.view(&g, sample(s), padded);
            pool::run(bands, &|band| run_band(s, x, band));
        }
    }
}

/// One convolution layer's forward pass at precision `T`, for a network
/// that only runs forward: the weights and bias are converted from `f64`
/// ([`Real::from_f64`], round to nearest) and packed for the kernel path
/// once, at construction, and [`ConvForward::forward`] runs
/// [`conv2d_forward_into`]'s body and order contract at `T`. At `T = f64`
/// it is bit for bit [`conv2d_forward_into`]; at `f32` every path and tile
/// width gives the same bits as the scalar `f32::mul_add` chain.
pub struct ConvForward<T: Real> {
    spec: Conv2dSpec,
    leak: Option<T>,
    bias: Vec<T>,
    /// Row-major `out_c × (in_c·kh·kw)`, kept to repack after a kernel-path
    /// switch ([`crate::force_kernel_path`]).
    weight: Vec<T>,
    path: KernelPath,
    mr: usize,
    scratch: ConvScratch<T>,
}

impl<T: Real> ConvForward<T> {
    /// Converts and packs a layer: `weight` of shape `(out_c, in_c, kh,
    /// kw)`, `bias` one value per output channel (or empty), `leak` the
    /// fused LeakyReLU's slope, if any.
    ///
    /// # Panics
    /// If `weight` or `bias` does not fit `spec`.
    pub fn new(spec: Conv2dSpec, weight: &Tensor4, bias: &[f64], leak: Option<f64>) -> Self {
        spec.check_weights(weight);
        assert!(
            bias.is_empty() || bias.len() == spec.out_c,
            "conv2d: bias length"
        );
        let mut layer = Self {
            spec,
            leak: leak.map(T::from_f64),
            bias: bias.iter().map(|&b| T::from_f64(b)).collect(),
            weight: weight.as_slice().iter().map(|&v| T::from_f64(v)).collect(),
            path: kernel_path(),
            mr: 0,
            scratch: ConvScratch::new(),
        };
        layer.pack(layer.path);
        layer
    }

    fn pack(&mut self, path: KernelPath) {
        let rows = self.spec.in_c * self.spec.kh * self.spec.kw;
        self.path = path;
        self.mr = forward_panel_rows(path, self.spec.out_c);
        let packed = &mut self.scratch.weights;
        pack_a(self.spec.out_c, rows, &self.weight, self.mr, packed);
    }

    /// The layer's convolution spec.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// The fused LeakyReLU's slope, if the layer has one.
    pub fn leak(&self) -> Option<T> {
        self.leak
    }

    /// Runs the layer on `n` samples of `in_c × h × w` values in `input`,
    /// writing the `n × out_c × oh × ow` output to the front of `out` (which
    /// grows, never shrinks, so a resident buffer stops allocating once it
    /// has held the largest output). Returns `(oh, ow)`.
    ///
    /// # Panics
    /// If `input` is not `n · in_c · h · w` long, or the kernel does not fit.
    pub fn forward(
        &mut self,
        input: &[T],
        (n, h, w): (usize, usize, usize),
        out: &mut Vec<T>,
    ) -> (usize, usize) {
        let (oh, ow) = self.spec.out_dims(h, w);
        let y = grown(out, n * self.spec.out_c * oh * ow);
        if n == 0 {
            return (oh, ow);
        }
        let t0 = Instant::now();
        let path = kernel_path();
        if path != self.path {
            self.pack(path);
        }
        let ConvScratch {
            weights,
            taps,
            padded,
        } = &mut self.scratch;
        let packed = Packed {
            path,
            mr: self.mr,
            weights,
        };
        let (spec, bias) = (&self.spec, &self.bias);
        forward_packed(
            packed,
            spec,
            bias,
            self.leak,
            input,
            (n, h, w),
            taps,
            padded,
            y,
        );
        let rows = spec.in_c * spec.kh * spec.kw;
        record_product(t0, n, spec.out_c, rows, oh * ow, 0);
        (oh, ow)
    }
}

/// LeakyReLU with negative-side slope `slope`, the one definition every
/// forward epilogue here and `pde-nn`'s `LeakyReLu` layer share: the
/// comparison is `≥`, so −0.0 and +0.0 pass through and NaN takes the
/// product.
#[inline]
pub fn leaky_relu<T: Real>(slope: T, z: T) -> T {
    if z >= T::ZERO {
        z
    } else {
        slope * z
    }
}

/// [`leaky_relu`]'s backward: `grad`, times `slope` where the layer's input
/// `x` (or, for a positive slope, its output — same sign) is `< 0.0`. The
/// subgradient at ±0.0 is taken from the positive side, matching the forward
/// convention, and NaN keeps slope 1.
#[inline]
pub fn leaky_relu_grad(slope: f64, x: f64, grad: f64) -> f64 {
    if x < 0.0 {
        slope * grad
    } else {
        grad
    }
}

/// The portable forward kernel's register tile: `MR` rows × `nr ≤ NR`
/// columns, one `mul_add` chain per element from 0.0 over `kc` shared steps,
/// `ap` a [`pack_a`] panel and B read in place — `b_row(p)` is B's row `p`
/// from the tile's first column on (at least `nr` long), addressed through
/// the tap table.
#[inline(always)]
fn scalar_direct_tile<'a, T: Real>(
    ap: &[T],
    kc: usize,
    b_row: impl Fn(usize) -> &'a [T],
    nr: usize,
) -> [[T; NR]; MR] {
    let mut acc = [[T::ZERO; NR]; MR];
    let a_cols = ap.chunks_exact(MR).take(kc).enumerate();
    if nr == NR {
        // Fixed-size operands: the tile update unrolls into straight-line
        // packed FMA.
        for (p, a_col) in a_cols {
            let a_col: &[T; MR] = a_col.try_into().unwrap();
            let b_row: &[T; NR] = b_row(p)[..NR].try_into().unwrap();
            for r in 0..MR {
                for j in 0..NR {
                    acc[r][j] = a_col[r].mul_add(b_row[j], acc[r][j]);
                }
            }
        }
    } else {
        for (p, a_col) in a_cols {
            let b_row = &b_row(p)[..nr];
            for r in 0..MR {
                for (j, &bv) in b_row.iter().enumerate() {
                    acc[r][j] = a_col[r].mul_add(bv, acc[r][j]);
                }
            }
        }
    }
    acc
}

/// The portable forward kernel: the AVX-512 `conv_fwd_rows_512`'s chain and
/// epilogue on `MR × NR` tiles of [`Real::mul_add`].
///
/// # Safety
/// As the AVX-512 `conv_fwd_rows_512` without the CPU requirement: `wp`
/// is packed at panel height `mr == MR`; `off` is ascending and the reads
/// span `x[off[0] + oi_lo·ld_x]` ..= `x[off[k−1] + (oi_hi−1)·ld_x + ow−1]`
/// (slice-indexed, so checked); the caller owns columns
/// `oi_lo·ow .. oi_hi·ow` of every channel of `y` exclusively, ending at
/// `y[(out_c−1)·y.ld + oi_hi·ow − 1]` (`debug_assert!`ed).
#[allow(clippy::too_many_arguments)]
unsafe fn conv_fwd_rows<T: Real>(
    wp: &[T],
    mr: usize,
    out_c: usize,
    off: &[usize],
    x: &[T],
    ld_x: usize,
    bias: &[T],
    leak: Option<T>,
    y: CView<T>,
    ow: usize,
    oi_lo: usize,
    oi_hi: usize,
) {
    let k = off.len();
    let m_panels = out_c.div_ceil(MR);
    assert_eq!(mr, MR, "portable conv kernels read MR-row weight panels");
    debug_assert!(wp.len() >= m_panels * MR * k);
    debug_assert!(k == 0 || off[k - 1] + (oi_hi - 1) * ld_x + ow <= x.len());
    debug_assert!(y.holds(out_c, oi_hi * ow));
    for oi in oi_lo..oi_hi {
        let x_row = &x[oi * ld_x..];
        for j0 in (0..ow).step_by(NR) {
            let nr = NR.min(ow - j0);
            for ip in 0..m_panels {
                let (i0, mr_eff) = (ip * MR, MR.min(out_c - ip * MR));
                for p0 in (0..k).step_by(KC) {
                    let kc = KC.min(k - p0);
                    let ap = &wp[m_panels * MR * p0 + ip * kc * MR..][..kc * MR];
                    let off = &off[p0..p0 + kc];
                    let acc = scalar_direct_tile(ap, kc, |p| &x_row[off[p] + j0..], nr);
                    // The activation belongs to the block that completes
                    // the element.
                    let leak = leak.filter(|_| p0 + kc == k);
                    for (r, acc) in acc.iter().enumerate().take(mr_eff) {
                        // SAFETY: `nr` owned columns of output row `oi`,
                        // channel `i0 + r`, inside `y` (asserted above).
                        let row = unsafe {
                            let at = (i0 + r) * y.ld + oi * ow + j0;
                            std::slice::from_raw_parts_mut(y.ptr.add(at), nr)
                        };
                        let b = bias.get(i0 + r).copied().unwrap_or(T::ZERO);
                        for (dst, &v) in row.iter_mut().zip(acc) {
                            let z = if p0 == 0 { b } else { *dst } + v;
                            *dst = leak.map_or(z, |slope| leaky_relu(slope, z));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Input gradient
// ---------------------------------------------------------------------------

/// Gradient of the loss w.r.t. the convolution *input*.
///
/// `grad_out` has the forward-output shape; the result has the forward-input
/// shape `(n, in_c, in_h, in_w)`.
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
/// place). Gather form: every input-gradient element is computed once, in
/// registers, from the `grad_out` values its taps reach, and written once —
/// there is no column gradient and no scatter. The weights are repacked once
/// per call as `[ic tile][tap][oc][ic]`.
///
/// **Order contract:** `gin[ic,ii,jj] = Σ_(ki,kj) ascending t` from 0.0,
/// where `t` is one FMA chain from 0.0 over `oc` ascending of
/// `W[oc,ic,ki,kj] · go[oc, ii+pad−ki, jj+pad−kj]` and taps outside
/// `grad_out` are skipped. That is `col2im` applied to `gemm_tn(W, go)`:
/// the product's shared dimension is `oc` (one chain per column-gradient
/// element) and `col2im` adds the elements that land on one pixel in
/// ascending row order `(ki, kj)`, skipping padding. Bit-identical, and
/// elements are independent, so (sample, row band) pairs are the pool's
/// chunks. (`out_c >` [`KC`] would split `t` into block chains; such a layer
/// takes the whole-matrix route: [`gemm_tn`] then `col2im`.)
pub fn conv2d_backward_input_into(
    grad_out: &Tensor4,
    weight: &Tensor4,
    spec: &Conv2dSpec,
    in_h: usize,
    in_w: usize,
    scratch: &mut ConvScratch,
    grad_in: &mut Tensor4,
) {
    grad_in.resize(grad_out.n(), spec.in_c, in_h, in_w);
    backward_input(grad_out, weight, spec, None, scratch, grad_in);
}

/// The input gradient of a convolution whose input is the output of a
/// LeakyReLU with negative-side slope `leak`, written **over** that input:
/// `act` holds the activation `x` the forward pass read (it fixes the input
/// shape) and comes back holding `∂L/∂z`, the gradient w.r.t. the upstream
/// pre-activation — [`conv2d_backward_input_into`]'s element where
/// `x ≥ 0`, `leak` times it where `x < 0.0`. The sign is read from the stored
/// activation, which for `leak > 0` is the pre-activation's (`-0.0` and NaN
/// are "not negative", as in `pde-nn`'s `LeakyReLu` layer); each `x` is
/// read once, by the write-back that replaces it, so no second buffer and
/// no mask pass exist. Run [`conv2d_backward_weight`] first: it needs `x`.
///
/// Same order contract as [`conv2d_backward_input_into`], then one multiply.
pub fn conv2d_backward_input_leaky(
    grad_out: &Tensor4,
    weight: &Tensor4,
    spec: &Conv2dSpec,
    leak: f64,
    scratch: &mut ConvScratch,
    act: &mut Tensor4,
) {
    assert_eq!(
        (act.n(), act.c()),
        (grad_out.n(), spec.in_c),
        "backward_input: activation shape"
    );
    backward_input(grad_out, weight, spec, Some(leak), scratch, act);
}

/// Both input-gradient entry points: `dst` already has the input's shape
/// and, with `leak` given, its values.
fn backward_input(
    grad_out: &Tensor4,
    weight: &Tensor4,
    spec: &Conv2dSpec,
    leak: Option<f64>,
    scratch: &mut ConvScratch,
    dst: &mut Tensor4,
) {
    spec.check_weights(weight);
    let (n, oc, oh, ow) = grad_out.shape();
    assert_eq!(oc, spec.out_c, "backward_input: grad_out channels");
    let (in_h, in_w) = (dst.h(), dst.w());
    let g = spec.geom(in_h, in_w);
    assert_eq!(
        (g.out_h(), g.out_w()),
        (oh, ow),
        "backward_input: geometry mismatch"
    );
    let (rows, n_cols, out_c) = (g.col_rows(), g.col_cols(), spec.out_c);
    if n == 0 {
        return;
    }
    if out_c > KC {
        // cols_grad_s = Wᵀ (rows × out_c) · grad_out_s (out_c × n_cols).
        let mut cols = vec![0.0; rows * n_cols];
        let mut plain = vec![0.0; dst.len() / n];
        for s in 0..n {
            cols.fill(0.0);
            gemm_tn(
                rows,
                out_c,
                n_cols,
                weight.as_slice(),
                grad_out.sample(s),
                &mut cols,
            );
            plain.fill(0.0);
            col2im(&cols, &g, &mut plain);
            for (x, &gv) in dst.sample_mut(s).iter_mut().zip(&plain) {
                *x = leak.map_or(gv, |slope| leaky_relu_grad(slope, *x, gv));
            }
        }
        return;
    }

    let t0 = Instant::now();
    let path = kernel_path();
    let (narrow, wide) = BWD_INPUT_TILES;
    let ti = if g.c <= narrow { narrow } else { wide };
    let taps = g.kh * g.kw;
    let wt = grown(&mut scratch.weights, g.c.div_ceil(ti) * taps * out_c * ti);
    for (tile, wt) in wt.chunks_exact_mut(taps * out_c * ti).enumerate() {
        for (at, wt) in wt.iter_mut().enumerate() {
            let (tap, oc, ic) = (at / (out_c * ti), at / ti % out_c, tile * ti + at % ti);
            *wt = if ic < g.c {
                weight.as_slice()[(oc * g.c + ic) * taps + tap]
            } else {
                0.0
            };
        }
    }
    let wt: &[f64] = wt;

    let bands = in_h.div_ceil(ROW_BAND);
    let sample_len = g.c * in_h * in_w;
    let gi = CView::new(dst.as_mut_slice(), in_h * in_w);
    pool::run(n * bands, &|i| {
        let (s, band) = (i / bands, i % bands);
        let (ii_lo, ii_hi) = (band * ROW_BAND, ((band + 1) * ROW_BAND).min(in_h));
        let (go, gi) = (grad_out.sample(s), gi.at(s * sample_len));
        // SAFETY: this chunk alone reads and writes input rows
        // `ii_lo..ii_hi` of sample `s`, which `gi` now starts at; AVX-512
        // is feature-checked at path selection.
        unsafe {
            match path {
                #[cfg(target_arch = "x86_64")]
                KernelPath::Avx512 => crate::simd::conv_bwd_input_rows_512(
                    wt,
                    ti,
                    &g,
                    out_c,
                    go,
                    (oh, ow),
                    gi,
                    leak,
                    ii_lo,
                    ii_hi,
                ),
                _ => conv_bwd_input_rows(wt, ti, &g, out_c, go, (oh, ow), gi, leak, ii_lo, ii_hi),
            }
        }
    });
    record_product(t0, n, rows, out_c, n_cols, std::mem::size_of_val(wt));
}

/// The lanes `lo..hi` of an `nr`-wide input-gradient tile whose tap column
/// `kj` lands inside `grad_out`: lane `l` reads output column
/// `shift + l − kj` (`shift` = the tile's first input column + `pad`), which
/// must lie in `0..ow`. Empty when `lo ≥ hi`.
#[inline]
pub(crate) fn tap_lanes(shift: usize, kj: usize, ow: usize, nr: usize) -> (usize, usize) {
    (
        kj.saturating_sub(shift),
        (ow + kj).saturating_sub(shift).min(nr),
    )
}

/// The portable input-gradient kernel:
/// [`crate::simd::conv_bwd_input_rows_512`]'s two-level sum and epilogue on
/// `ti × NR` tiles of `f64::mul_add`.
///
/// # Safety
/// As [`crate::simd::conv_bwd_input_rows_512`] without the CPU requirement:
/// `wt` and `go` are slices (checked where indexed; `go` spans
/// `go[0] ..= go[out_c·oh·ow − 1]`); the caller owns rows `ii_lo..ii_hi` of
/// every channel of `gin` exclusively, ending at
/// `gin[(in_c−1)·gin.ld + ii_hi·w − 1]` (`debug_assert!`ed), and with `leak`
/// given they hold the upstream activation.
#[allow(clippy::too_many_arguments)]
unsafe fn conv_bwd_input_rows(
    wt: &[f64],
    ti: usize,
    g: &ConvGeom,
    out_c: usize,
    go: &[f64],
    (oh, ow): (usize, usize),
    gin: CView,
    leak: Option<f64>,
    ii_lo: usize,
    ii_hi: usize,
) {
    let taps = g.kh * g.kw;
    assert!(ti <= BWD_INPUT_TILES.1);
    debug_assert!(go.len() == out_c * oh * ow);
    debug_assert!(gin.ld == g.h * g.w && gin.holds(g.c, ii_hi * g.w));
    for ii in ii_lo..ii_hi {
        for jj0 in (0..g.w).step_by(NR) {
            let nr = NR.min(g.w - jj0);
            let shift = jj0 + g.pad;
            for (wt, ic0) in wt.chunks_exact(taps * out_c * ti).zip((0..g.c).step_by(ti)) {
                let mut sum = [[0.0f64; NR]; BWD_INPUT_TILES.1];
                for ki in 0..g.kh {
                    let Some(oi) = (ii + g.pad).checked_sub(ki).filter(|&oi| oi < oh) else {
                        continue;
                    };
                    for kj in 0..g.kw {
                        let (lo, hi) = tap_lanes(shift, kj, ow, nr);
                        if lo >= hi {
                            continue;
                        }
                        let mut t = [[0.0f64; NR]; BWD_INPUT_TILES.1];
                        let wt = wt[(ki * g.kw + kj) * out_c * ti..].chunks_exact(ti);
                        for (oc, w) in wt.take(out_c).enumerate() {
                            let g_row = &go[(oc * oh + oi) * ow + shift + lo - kj..][..hi - lo];
                            for (t, &wv) in t.iter_mut().zip(w) {
                                for (t, &gv) in t[lo..hi].iter_mut().zip(g_row) {
                                    *t = wv.mul_add(gv, *t);
                                }
                            }
                        }
                        for (sum, t) in sum.iter_mut().zip(&t) {
                            for l in lo..hi {
                                sum[l] += t[l];
                            }
                        }
                    }
                }
                for (i, sum) in sum.iter().enumerate().take(ti.min(g.c - ic0)) {
                    // SAFETY: `nr` owned columns of input row `ii`, channel
                    // `ic0 + i`, inside `gin` (asserted above).
                    let row = unsafe {
                        let at = (ic0 + i) * gin.ld + ii * g.w + jj0;
                        std::slice::from_raw_parts_mut(gin.ptr.add(at), nr)
                    };
                    for (x, &gv) in row.iter_mut().zip(&sum[..nr]) {
                        *x = leak.map_or(gv, |slope| leaky_relu_grad(slope, *x, gv));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Weight gradient
// ---------------------------------------------------------------------------

/// Gradient of the loss w.r.t. the convolution *weights* and *bias*.
///
/// Accumulates into `grad_weight` (shape `(out_c, in_c, kh, kw)`) and
/// `grad_bias` (length `out_c`, or empty to skip), matching the convention
/// that gradients are summed over a mini-batch. The register tile is
/// (a group of ≤ 4 output channels) × (≤ 5 kernel rows) of one input
/// channel, its vector lanes the `kw` taps of a kernel row — which are
/// contiguous in `x`, so nothing is lowered or transposed — with `go[oc,q]`
/// broadcast.
///
/// **Order contract:** samples ascending; per sample and weight, per [`KC`]
/// block of output positions `q = oi·ow + oj` (blocks start at `q = 0`) one
/// FMA chain from 0.0 over `q` ascending of `go[oc,q] · x[c, oi+ki, oj+kj]`,
/// added onto the gradient once — `gemm_nt(go, im2col(x))`'s chain, whose
/// shared dimension is `q`. Bit-identical; weights are independent of each
/// other, so (input channel, output-channel group) tiles are the pool's
/// chunks.
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
    let (rows, n_cols, out_c) = (g.col_rows(), g.col_cols(), spec.out_c);

    let path = kernel_path();
    let planes = Planes::of(&g);
    // Output channels in equal groups of at most 4, kernel rows in equal
    // runs of at most 5 (6 → 3 + 3, not 4 + 2).
    let group = even_part(out_c, BWD_WEIGHT_GROUP);
    let groups = out_c.div_ceil(group);
    let run = even_part(g.kh, BWD_WEIGHT_ROWS);
    for s in 0..n {
        let go = grad_out.sample(s);
        let t0 = Instant::now();
        let x = planes.view(&g, input.sample(s), &mut scratch.padded);
        let gw = CView::new(grad_weight.as_mut_slice(), rows);
        pool::run(g.c * groups, &|tile| {
            let (c, oc0) = (tile / groups, tile % groups * group);
            let x = &x[c * planes.rows * planes.ld..][..planes.rows * planes.ld];
            let group = group.min(out_c - oc0);
            for ki0 in (0..g.kh).step_by(run) {
                let run = run.min(g.kh - ki0);
                let gw_col = (c * g.kh + ki0) * g.kw;
                // SAFETY: this chunk alone updates the weights of input
                // channel `c`, output channels `oc0..oc0+group`; `x` is
                // that channel's plane in the `planes` layout; AVX-512
                // is feature-checked at path selection.
                unsafe {
                    match path {
                        #[cfg(target_arch = "x86_64")]
                        KernelPath::Avx512 if g.kw <= 8 => crate::simd::conv_bwd_weight_512(
                            x,
                            planes.ld,
                            ki0,
                            run,
                            go,
                            oc0,
                            group,
                            (oh, ow),
                            g.kw,
                            gw,
                            gw_col,
                        ),
                        _ => conv_bwd_weight_tile(
                            x,
                            planes.ld,
                            ki0,
                            run,
                            go,
                            oc0,
                            group,
                            (oh, ow),
                            g.kw,
                            gw,
                            gw_col,
                        ),
                    }
                }
            }
        });
        record_product(t0, 1, out_c, n_cols, rows, 0);
        add_plane_sums(go, n_cols, grad_bias);
    }
}

/// `sums[oc] += Σ_q go[oc·n_cols + q]`, each sum one chain over `q`
/// ascending, added once — `iter().sum()` per plane (which starts at −0.0),
/// bit for bit — with up to four channels' chains advancing together: a lone
/// chain waits out the add latency at every element.
fn add_plane_sums(go: &[f64], n_cols: usize, sums: &mut [f64]) {
    for (sums, planes) in sums.chunks_mut(4).zip(go.chunks(4 * n_cols)) {
        // A short last group sums its last plane again, into lanes it drops.
        let [a, b, c, d] =
            std::array::from_fn(|i| &planes[i.min(sums.len() - 1) * n_cols..][..n_cols]);
        let mut acc = [-0.0f64; 4];
        for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
            acc[0] += a;
            acc[1] += b;
            acc[2] += c;
            acc[3] += d;
        }
        for (sum, acc) in sums.iter_mut().zip(acc) {
            *sum += acc;
        }
    }
}

/// The portable weight-gradient tile: [`crate::simd::conv_bwd_weight_512`]'s
/// chain in `f64::mul_add`, for any `kw` (taps in lane groups of `NR`).
///
/// # Safety
/// As [`crate::simd::conv_bwd_weight_512`] without the CPU and `kw ≤ 8`
/// requirements: `x` (one channel's plane, rows `ld_x` apart, read from
/// `x[ki0·ld_x]` to `x[(ki0+rows−1 + oh−1)·ld_x + ow−1 + kw−1]`) and `go`
/// (read from `go[oc0·oh·ow]` to `go[(oc0+group)·oh·ow − 1]`) are slices,
/// checked where indexed; the caller owns columns
/// `gw_col .. gw_col + rows·kw` of rows `oc0 .. oc0+group` of `gw`
/// exclusively (`debug_assert!`ed to lie inside it).
#[allow(clippy::too_many_arguments)]
unsafe fn conv_bwd_weight_tile(
    x: &[f64],
    ld_x: usize,
    ki0: usize,
    rows: usize,
    go: &[f64],
    oc0: usize,
    group: usize,
    (oh, ow): (usize, usize),
    kw: usize,
    gw: CView,
    gw_col: usize,
) {
    assert!(rows <= BWD_WEIGHT_ROWS && group <= BWD_WEIGHT_GROUP);
    debug_assert!(gw.holds(oc0 + group, gw_col + rows * kw));
    let n_cols = oh * ow;
    for kj0 in (0..kw).step_by(NR) {
        let lanes = NR.min(kw - kj0);
        for q0 in (0..n_cols).step_by(KC) {
            let q1 = (q0 + KC).min(n_cols);
            let mut acc = [[[0.0f64; NR]; BWD_WEIGHT_ROWS]; BWD_WEIGHT_GROUP];
            for q in q0..q1 {
                let (oi, oj) = (q / ow, q % ow);
                for ki in 0..rows {
                    let xv = &x[(ki0 + ki + oi) * ld_x + oj + kj0..][..lanes];
                    for (o, acc) in acc.iter_mut().enumerate().take(group) {
                        let gv = go[(oc0 + o) * n_cols + q];
                        for (a, &xv) in acc[ki].iter_mut().zip(xv) {
                            *a = gv.mul_add(xv, *a);
                        }
                    }
                }
            }
            for (o, acc) in acc.iter().enumerate().take(group) {
                for (ki, acc) in acc.iter().enumerate().take(rows) {
                    // SAFETY: `lanes` owned weights of kernel row
                    // `ki0 + ki`, output channel `oc0 + o`, inside `gw`
                    // (asserted above).
                    let row = unsafe {
                        let at = (oc0 + o) * gw.ld + gw_col + ki * kw + kj0;
                        std::slice::from_raw_parts_mut(gw.ptr.add(at), lanes)
                    };
                    for (dst, &v) in row.iter_mut().zip(acc) {
                        *dst += v;
                    }
                }
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
        for &(in_c, out_c, k, pad, h, w) in &[
            (1usize, 1usize, 3usize, 1usize, 5usize, 5usize),
            (4, 6, 5, 2, 8, 8),
            (3, 2, 3, 0, 6, 7),
            (2, 4, 3, 1, 9, 9),
        ] {
            let spec = Conv2dSpec::square(in_c, out_c, k, pad);
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
