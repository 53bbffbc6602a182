//! Scalar-vs-SIMD equivalence for the GEMM kernel layer, and panel-vs-whole
//! equivalence for the convolution passes built on it.
//!
//! The contract (see `DESIGN.md` §4c) is *bitwise*: every kernel path
//! accumulates each C element from 0.0 per KC block in ascending-p order
//! with one fused multiply-add chain, so scalar, AVX2 and AVX-512 produce
//! identical bit patterns — not merely close ones. These tests force each
//! path in turn over odd sizes and edge tiles and compare with `==`.
//!
//! `force_kernel_path` is process-global, so every test that touches it
//! holds [`PATH_LOCK`] and restores the default before releasing it.

use pde_tensor::{force_kernel_path, gemm, gemm_nt, gemm_tn, kernel_path, KernelPath};
use proptest::prelude::*;
use std::sync::Mutex;

static PATH_LOCK: Mutex<()> = Mutex::new(());

/// `gemm` / `gemm_tn` / `gemm_nt` all share this signature.
type GemmFn = fn(usize, usize, usize, &[f64], &[f64], &mut [f64]);

/// Deterministic fill in [-1, 1) — same generator as the unit suite.
fn det_fill(buf: &mut [f64], seed: u64) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for v in buf.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
}

/// The best non-scalar path this machine supports, if any.
fn simd_path() -> Option<KernelPath> {
    [KernelPath::Avx512, KernelPath::Avx2]
        .into_iter()
        .find(|p| p.supported())
}

/// Runs `op` under the forced `path` and returns the C it produced.
fn run_forced(
    path: KernelPath,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    op: GemmFn,
) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    det_fill(&mut c, 0xC0FFEE); // accumulate into a non-zero C
    force_kernel_path(Some(path));
    op(m, k, n, a, b, &mut c);
    c
}

/// Asserts scalar and SIMD paths agree bitwise on one (m, k, n) shape for
/// all three transpose variants. No-op on machines without SIMD support.
fn check_shape(m: usize, k: usize, n: usize) {
    let Some(simd) = simd_path() else { return };
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let variants: [(&str, GemmFn, usize, usize); 3] = [
        ("gemm", gemm, m * k, k * n),
        ("gemm_tn", gemm_tn, k * m, k * n),
        ("gemm_nt", gemm_nt, m * k, n * k),
    ];
    for (name, op, a_len, b_len) in variants {
        let mut a = vec![0.0; a_len];
        let mut b = vec![0.0; b_len];
        det_fill(&mut a, 1 + (m * 31 + k * 7 + n) as u64);
        det_fill(&mut b, 2 + (m * 17 + k * 3 + n) as u64);
        let c_scalar = run_forced(KernelPath::Scalar, m, k, n, &a, &b, op);
        let c_simd = run_forced(simd, m, k, n, &a, &b, op);
        force_kernel_path(None);
        // Escape hatch for a future target whose FMA contraction genuinely
        // differs: PDEML_KERNEL_TEST_TOLERANCE=rel1e-12 relaxes the bitwise
        // check to a 1e-12 relative tolerance. Never set in this repo's CI.
        if std::env::var("PDEML_KERNEL_TEST_TOLERANCE").as_deref() == Ok("rel1e-12") {
            for (i, (x, y)) in c_scalar.iter().zip(&c_simd).enumerate() {
                let scale = x.abs().max(y.abs()).max(1.0);
                assert!(
                    (x - y).abs() <= 1e-12 * scale,
                    "{name} {m}x{k}x{n}: element {i} differs beyond 1e-12 rel \
                     ({x} vs {y})"
                );
            }
            continue;
        }
        let mismatches = c_scalar
            .iter()
            .zip(&c_simd)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        assert_eq!(
            mismatches,
            0,
            "{name} {m}x{k}x{n}: scalar and {} paths disagree bitwise \
             at {mismatches} of {} elements",
            simd.label(),
            m * n
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random odd sizes, biased small so edge tiles (m % MR, n % NR/TILE,
    /// the m <= 4 panel path) dominate the sweep.
    #[test]
    fn scalar_vs_simd_bitwise_on_random_shapes(
        m in 1usize..=21,
        k in 1usize..=70,
        n in 1usize..=50,
    ) {
        check_shape(m, k, n);
    }
}

/// Hand-picked shapes: every micro-tile remainder class, the m <= 4 edge
/// path, KC-crossing depths and NC-crossing widths.
#[test]
fn scalar_vs_simd_bitwise_on_edge_tiles() {
    for &(m, k, n) in &[
        (1, 1, 1),      // degenerate
        (1, 300, 17),   // single row, k crosses KC = 256
        (3, 64, 16),    // m < MR
        (4, 100, 4096), // layer-3-like small-m wide-n
        (5, 33, 9),     // m = MR + 1 (partial second panel)
        (8, 64, 16),    // exact AVX-512 tile rows
        (9, 300, 33),   // partial 8-row panel + KC crossing + masked n
        (12, 50, 15),   // n < TILE_512, masked both halves
        (16, 150, 47),  // layer-2-like with ragged n
        (17, 257, 31),  // everything ragged, KC + 1
        (6, 40, 300),   // n crosses NC = 256 (column-chunk path)
    ] {
        check_shape(m, k, n);
    }
}

/// A thread budget > 1 must be bit-for-bit identical to budget 1: chunks
/// only partition C's columns, they never change any element's accumulation
/// order. The budget is thread-local, so this test needs no cross-test
/// serialization beyond the kernel-path lock. (Convolution passes, which
/// chunk by sample and column panel, are covered per budget below.)
#[test]
fn threaded_matches_unthreaded_bitwise() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    force_kernel_path(None);
    // n > NC = 256 exercises column chunks; k > KC the block chain inside
    // each chunk.
    for &(m, k, n) in &[(9usize, 70usize, 333usize), (16, 300, 600)] {
        let mut a = vec![0.0; m * k];
        let mut b = vec![0.0; k * n];
        det_fill(&mut a, 21);
        det_fill(&mut b, 22);
        pde_tensor::pool::set_thread_budget(1);
        let mut c_1t = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c_1t);
        pde_tensor::pool::set_thread_budget(4);
        let mut c_4t = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c_4t);
        pde_tensor::pool::set_thread_budget(1);
        assert!(
            c_1t.iter()
                .zip(&c_4t)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "budget 4 disagrees with budget 1 on {m}x{k}x{n} under {}",
            kernel_path().label()
        );
    }
}

// ---------------------------------------------------------------------------
// Convolution passes: panel-by-panel lowering vs the whole-matrix reference
// ---------------------------------------------------------------------------
//
// The three passes in `pde_tensor::conv` lower and multiply one column panel
// at a time. The reference below does what they replaced — materialise a
// sample's whole column matrix, then one product over all of it — out of the
// public pieces (`im2col` + `gemm`; `gemm_tn` + `col2im`; `im2col` +
// `gemm_nt`). Equality is `to_bits()`: panel width, panel order, strides,
// kernel path and thread budget must all be invisible in the result.
//
// A panel is 1 MiB worth of columns rounded down to a multiple of KC = 256
// (at least 256, at most `n_cols`), so `rows = in_c·k·k > 256` gives panels
// of exactly 256 columns — the cheapest way to many panels in a test.

use pde_tensor::conv::{
    conv2d_backward_input_into, conv2d_backward_weight, conv2d_im2col_into, ConvScratch,
};
use pde_tensor::im2col::{col2im, im2col};
use pde_tensor::{Conv2dSpec, Tensor4};

fn det_t4(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor4 {
    let mut t = Tensor4::zeros(n, c, h, w);
    det_fill(t.as_mut_slice(), seed);
    t
}

/// Forward output, input gradient, weight gradient, bias gradient.
type ConvResults = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

struct ConvCase {
    spec: Conv2dSpec,
    x: Tensor4,
    weight: Tensor4,
    bias: Vec<f64>,
    grad_out: Tensor4,
    /// Non-zero starting gradients: backward-weight accumulates.
    gw0: Tensor4,
    gb0: Vec<f64>,
}

impl ConvCase {
    fn new(spec: Conv2dSpec, batch: usize, h: usize, w: usize) -> Self {
        let (oh, ow) = spec.out_dims(h, w);
        let seed = (spec.in_c * 131 + spec.out_c * 17 + h * 7 + w) as u64;
        let mut bias = vec![0.0; spec.out_c];
        det_fill(&mut bias, seed + 3);
        let mut gb0 = vec![0.0; spec.out_c];
        det_fill(&mut gb0, seed + 6);
        Self {
            spec,
            x: det_t4(batch, spec.in_c, h, w, seed + 1),
            weight: det_t4(spec.out_c, spec.in_c, spec.kh, spec.kw, seed + 2),
            bias,
            grad_out: det_t4(batch, spec.out_c, oh, ow, seed + 4),
            gw0: det_t4(spec.out_c, spec.in_c, spec.kh, spec.kw, seed + 5),
            gb0,
        }
    }

    /// The three passes as `pde-nn` calls them: one scratch per layer.
    fn run(&self, scratch: &mut ConvScratch) -> ConvResults {
        let (_, _, h, w) = self.x.shape();
        let mut y = Tensor4::zeros(0, 0, 0, 0);
        conv2d_im2col_into(
            &self.x,
            &self.weight,
            &self.bias,
            &self.spec,
            scratch,
            &mut y,
        );
        let mut gi = Tensor4::zeros(0, 0, 0, 0);
        conv2d_backward_input_into(
            &self.grad_out,
            &self.weight,
            &self.spec,
            h,
            w,
            scratch,
            &mut gi,
        );
        let (mut gw, mut gb) = (self.gw0.clone(), self.gb0.clone());
        conv2d_backward_weight(
            &self.x,
            &self.grad_out,
            &self.spec,
            &mut gw,
            &mut gb,
            scratch,
        );
        (
            y.as_slice().to_vec(),
            gi.as_slice().to_vec(),
            gw.as_slice().to_vec(),
            gb,
        )
    }

    /// The same three results from whole column matrices.
    fn reference(&self) -> ConvResults {
        let (n, _, h, w) = self.x.shape();
        let g = self.spec.geom(h, w);
        let (rows, n_cols, out_c) = (g.col_rows(), g.col_cols(), self.spec.out_c);
        let mut cols = vec![0.0; rows * n_cols];
        let mut y = vec![0.0; n * out_c * n_cols];
        let in_len = self.x.len() / n;
        let mut gi = vec![0.0; self.x.len()];
        let mut gw = self.gw0.as_slice().to_vec();
        let mut gb = self.gb0.clone();
        for s in 0..n {
            let go = self.grad_out.sample(s);
            im2col(self.x.sample(s), &g, &mut cols);
            let y_s = &mut y[s * out_c * n_cols..][..out_c * n_cols];
            for (oc, row) in y_s.chunks_exact_mut(n_cols).enumerate() {
                row.fill(self.bias[oc]);
            }
            gemm(out_c, rows, n_cols, self.weight.as_slice(), &cols, y_s);
            gemm_nt(out_c, n_cols, rows, go, &cols, &mut gw);
            for (oc, row) in go.chunks_exact(n_cols).enumerate() {
                gb[oc] += row.iter().sum::<f64>();
            }
            cols.fill(0.0);
            gemm_tn(rows, out_c, n_cols, self.weight.as_slice(), go, &mut cols);
            col2im(&cols, &g, &mut gi[s * in_len..][..in_len]);
        }
        (y, gi, gw, gb)
    }

    /// Every (path, budget) pair against the whole-matrix reference, the
    /// reference itself computed once per path (reference products are
    /// bitwise path- and budget-independent by the GEMM-level tests above).
    fn check(&self, paths: &[KernelPath], budgets: &[usize]) {
        let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for &path in paths {
            force_kernel_path(Some(path));
            pde_tensor::pool::set_thread_budget(1);
            let want = self.reference();
            for &budget in budgets {
                pde_tensor::pool::set_thread_budget(budget);
                let got = self.run(&mut ConvScratch::new());
                pde_tensor::pool::set_thread_budget(1);
                for (what, a, b) in [
                    ("forward", &got.0, &want.0),
                    ("backward-input", &got.1, &want.1),
                    ("backward-weight", &got.2, &want.2),
                    ("backward-bias", &got.3, &want.3),
                ] {
                    let bad = a
                        .iter()
                        .zip(b)
                        .filter(|(x, y)| x.to_bits() != y.to_bits())
                        .count();
                    assert!(
                        a.len() == b.len() && bad == 0,
                        "{what} of {:?} on {:?} differs from the whole-matrix reference at \
                         {bad} of {} elements ({}, budget {budget})",
                        self.spec,
                        self.x.shape(),
                        b.len(),
                        path.label(),
                    );
                }
            }
        }
        force_kernel_path(None);
    }
}

fn supported_paths() -> Vec<KernelPath> {
    [KernelPath::Scalar, KernelPath::Avx2, KernelPath::Avx512]
        .into_iter()
        .filter(|p| p.supported())
        .collect()
}

fn conv_spec(in_c: usize, out_c: usize, k: usize, pad: usize, stride: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_c,
        out_c,
        kh: k,
        kw: k,
        stride,
        pad,
    }
}

/// The panel regimes by hand: exactly one panel of exactly `L` columns, one
/// column more than that, three panels with a ragged last one (same-padded
/// and strided too), a matrix narrower than one KC block, and a single
/// output position.
#[test]
fn conv_panels_match_whole_matrix_on_edge_geometries() {
    for &(in_c, out_c, k, pad, stride, h, w, batch) in &[
        (
            11usize, 5usize, 5usize, 0usize, 1usize, 20usize, 20usize, 2usize,
        ), // 256 = L
        (11, 5, 5, 0, 1, 20, 21, 2), // 272 = L + 16: second panel is one tile
        (11, 9, 5, 0, 1, 28, 28, 3), // 576 = 256 + 256 + 64
        (11, 4, 5, 2, 1, 23, 25, 2), // 575 with padding rows and columns
        (11, 6, 5, 2, 2, 47, 49, 2), // stride 2: 24 x 25 = 600
        (29, 3, 3, 1, 1, 26, 27, 1), // 3x3, rows = 261, 702 columns
        (4, 6, 5, 0, 1, 16, 16, 4),  // the toy layer: 144 < KC, one panel
        (3, 17, 3, 0, 2, 9, 7, 2),   // 12 columns, m > 16
        (2, 2, 5, 0, 1, 5, 5, 3),    // a single output position
    ] {
        ConvCase::new(conv_spec(in_c, out_c, k, pad, stride), batch, h, w)
            .check(&supported_paths(), &[1, 2, 3]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random geometry in two regimes: small layers (one panel, every tile
    /// remainder) and `rows > 256` layers whose 256-column panels split
    /// output rows at arbitrary places.
    #[test]
    fn conv_panels_match_whole_matrix_on_random_geometries(
        many_panels in 0usize..2,
        in_c in 1usize..=6,
        out_c in 1usize..=9,
        k in prop::sample::select(vec![1usize, 3, 5]),
        same_pad in 0usize..2,
        stride in 1usize..=2,
        h in 5usize..=14,
        w in 5usize..=14,
        batch in 1usize..=3,
    ) {
        let (in_c, k, h, w) = if many_panels == 1 {
            (in_c + 10, 5, 2 * h + stride * 8, 2 * w + stride * 8)
        } else {
            (in_c, k, h, w)
        };
        let pad = same_pad * (k / 2);
        ConvCase::new(conv_spec(in_c, out_c, k, pad, stride), batch, h, w)
            .check(&supported_paths(), &[1, 2, 3]);
    }
}

/// The paper's four Table-I layers at the benchmark's rank-0 block (a
/// 272x144 halo-padded input, pad 0), each with the input size
/// `train_paper` runs it at: 30 to 135 panels a sample.
fn table1_layers() -> Vec<(Conv2dSpec, usize, usize)> {
    let (mut h, mut w) = (272, 144);
    [4usize, 6, 16, 6, 4]
        .windows(2)
        .map(|io| {
            let spec = Conv2dSpec::square(io[0], io[1], 5, 0);
            let layer = (spec, h, w);
            (h, w) = spec.out_dims(h, w);
            layer
        })
        .collect()
}

#[test]
fn conv_panels_match_whole_matrix_on_table1_layers() {
    for (spec, h, w) in table1_layers() {
        ConvCase::new(spec, 2, h, w).check(&[kernel_path()], &[1, 2]);
    }
}

/// The workspace bound behind `train_paper`'s peak RSS: after a forward and
/// both backward passes at one kernel thread (the benchmark's setting; extra
/// pool workers bring their own thread-local panel), a layer's scratch holds
/// one column panel — at most 4 MiB, the same at batch 1 and batch 4 — where
/// it used to hold `batch x rows x n_cols` values (110 MB a sample for layer
/// 3). A layer smaller than a panel holds exactly its column matrix.
#[test]
fn conv_workspace_is_one_panel_whatever_the_batch() {
    pde_tensor::pool::set_thread_budget(1);
    for (spec, h, w) in table1_layers() {
        let bytes = [1usize, 4].map(|batch| {
            let mut scratch = ConvScratch::new();
            ConvCase::new(spec, batch, h, w).run(&mut scratch);
            scratch.bytes()
        });
        assert_eq!(
            bytes[0], bytes[1],
            "{spec:?}: workspace grew with the batch"
        );
        assert!(
            (1..=4 << 20).contains(&bytes[1]),
            "{spec:?}: {} bytes of workspace",
            bytes[1]
        );
    }
    // The toy network's first layer on a 16x16 grid: 36 x 256 values.
    let toy = Conv2dSpec::same(4, 6, 3);
    let g = toy.geom(16, 16);
    let mut scratch = ConvScratch::new();
    ConvCase::new(toy, 4, 16, 16).run(&mut scratch);
    assert_eq!(scratch.bytes(), g.col_rows() * g.col_cols() * 8);
}
