//! Equivalence of the zero-lowering convolution passes, on every kernel
//! path and thread budget, with the im2col + GEMM products they replaced.
//!
//! The contract (see `DESIGN.md` §4c) is *bitwise*: every pass keeps, per
//! output element, the chain the scalar `gemm*` oracle runs on the whole
//! column matrix — one fused multiply-add chain from 0.0 per KC block in
//! ascending order, added into the destination once — so scalar and
//! AVX-512 kernels at any thread budget produce identical bit patterns, not
//! merely close ones. These tests force each path in turn over odd
//! geometries and tile edges and compare with `to_bits()`.
//!
//! `force_kernel_path` is process-global, so every test that touches it
//! holds [`PATH_LOCK`] and restores the default before releasing it.

use pde_tensor::{force_kernel_path, gemm, gemm_nt, gemm_tn, kernel_path, KernelPath};
use proptest::prelude::*;
use std::sync::Mutex;

static PATH_LOCK: Mutex<()> = Mutex::new(());

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

// ---------------------------------------------------------------------------
// Convolution passes: activations read in place vs the whole-matrix reference
// ---------------------------------------------------------------------------
//
// The three passes in `pde_tensor::conv` read `x` / `grad_out` in place and
// build no column matrix. The reference below does what they replaced —
// materialise a sample's whole column matrix, then one product over all of it
// — out of the public pieces (`im2col` + `gemm`; `gemm_tn` + `col2im`;
// `im2col` + `gemm_nt`), the scalar oracle products, which have one path
// and no threads. Equality is `to_bits()`: register tile, lane masks,
// row bands, kernel path and thread budget must all be invisible in the
// result, which pins each pass's per-element order — the forward's KC blocks
// over taps (`rows > 256`), the input gradient's tap order, the weight
// gradient's KC blocks over output positions starting at `q = 0`
// (`n_cols > 256`, not a multiple of `ow`).

use pde_tensor::conv::{
    conv2d_backward_input_into, conv2d_backward_input_leaky, conv2d_backward_weight,
    conv2d_forward_into, conv2d_im2col_into, ConvForward, ConvScratch,
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
        self.run_on(&self.x, &self.grad_out, scratch)
    }

    /// [`ConvCase::run`] on another copy of the input and output gradient.
    fn run_on(&self, x: &Tensor4, grad_out: &Tensor4, scratch: &mut ConvScratch) -> ConvResults {
        let (_, _, h, w) = x.shape();
        let mut y = Tensor4::zeros(0, 0, 0, 0);
        conv2d_im2col_into(x, &self.weight, &self.bias, &self.spec, scratch, &mut y);
        let mut gi = Tensor4::zeros(0, 0, 0, 0);
        conv2d_backward_input_into(grad_out, &self.weight, &self.spec, h, w, scratch, &mut gi);
        let (mut gw, mut gb) = (self.gw0.clone(), self.gb0.clone());
        conv2d_backward_weight(x, grad_out, &self.spec, &mut gw, &mut gb, scratch);
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

    /// The forward pass at f32 as its order contract states it, one output
    /// element at a time: the bias, then per block of [`KC`] taps
    /// `(c, ki, kj)` ascending one `f32::mul_add` chain from 0.0 (a tap in
    /// the zero border reads 0.0), added once, then LeakyReLU(`leak`) of the
    /// sum. Input, weights and bias are the case's values rounded to f32.
    fn forward_chain_f32(&self, leak: Option<f32>) -> Vec<f32> {
        let (n, c, h, w) = self.x.shape();
        let Conv2dSpec {
            out_c, kh, kw, pad, ..
        } = self.spec;
        let (oh, ow) = self.spec.out_dims(h, w);
        let x = |s: usize, ch: usize, i: usize, j: usize| {
            let (i, j) = (i.wrapping_sub(pad), j.wrapping_sub(pad));
            if i < h && j < w {
                self.x.as_slice()[((s * c + ch) * h + i) * w + j] as f32
            } else {
                0.0
            }
        };
        let taps = c * kh * kw;
        let weight = |oc: usize, p: usize| self.weight.as_slice()[oc * taps + p] as f32;
        let mut y = Vec::with_capacity(n * out_c * oh * ow);
        for s in 0..n {
            for oc in 0..out_c {
                for (oi, oj) in (0..oh).flat_map(|oi| (0..ow).map(move |oj| (oi, oj))) {
                    let mut z = self.bias[oc] as f32;
                    for p0 in (0..taps).step_by(KC) {
                        let mut acc = 0.0f32;
                        for p in p0..(p0 + KC).min(taps) {
                            let (ch, ki, kj) = (p / (kh * kw), p / kw % kh, p % kw);
                            acc = weight(oc, p).mul_add(x(s, ch, oi + ki, oj + kj), acc);
                        }
                        z += acc;
                    }
                    y.push(match leak {
                        Some(slope) if z < 0.0 || z.is_nan() => slope * z,
                        _ => z,
                    });
                }
            }
        }
        y
    }

    /// Every (path, budget) pair against the whole-matrix reference, which
    /// is computed once: the oracle products ignore both. The forward pass
    /// is also run at both precisions of [`ConvForward`] — packed once, so
    /// the path switches below repack it — against the same reference at
    /// f64 and against the scalar f32 chain ([`ConvCase::forward_chain_f32`])
    /// at f32, with and without the fused activation.
    fn check(&self, paths: &[KernelPath], budgets: &[usize]) {
        let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let want = self.reference();
        let slope = 0.01f32;
        let want_f32 = [None, Some(slope)].map(|leak| self.forward_chain_f32(leak));
        let mut at_f64 = ConvForward::<f64>::new(self.spec, &self.weight, &self.bias, None);
        let mut at_f32 = [None, Some(slope)].map(|leak| {
            ConvForward::<f32>::new(self.spec, &self.weight, &self.bias, leak.map(f64::from))
        });
        let x_f32: Vec<f32> = self.x.as_slice().iter().map(|&v| v as f32).collect();
        let (n, _, h, w) = self.x.shape();
        for &path in paths {
            force_kernel_path(Some(path));
            for &budget in budgets {
                pde_tensor::pool::set_thread_budget(budget);
                let got = self.run(&mut ConvScratch::new());
                let mut y = Vec::new();
                at_f64.forward(self.x.as_slice(), (n, h, w), &mut y);
                assert_same_bits("ConvForward<f64>", &y, &want.0, self, path);
                for (layer, want) in at_f32.iter_mut().zip(&want_f32) {
                    let mut y = Vec::new();
                    layer.forward(&x_f32, (n, h, w), &mut y);
                    assert_same_bits_f32("ConvForward<f32>", &y, want, self, path);
                }
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

/// The process's own path (`PDEML_KERNEL`, else detection), read while no
/// other test has one forced.
fn default_path() -> KernelPath {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    kernel_path()
}

fn supported_paths() -> Vec<KernelPath> {
    KernelPath::ALL
        .into_iter()
        .filter(|p| p.supported())
        .collect()
}

/// The blocking regimes by hand: exactly one KC block of output positions,
/// one tile more than that, three blocks with a ragged last one (same-padded
/// too), `rows > KC` taps, a layer smaller than one block, a single output
/// position, and `out_c > KC` (the input gradient's whole-matrix route).
#[test]
fn conv_passes_match_whole_matrix_on_edge_geometries() {
    for &(in_c, out_c, k, pad, h, w, batch) in &[
        (11usize, 5usize, 5usize, 0usize, 20usize, 20usize, 2usize), // 256 output positions = KC
        (11, 5, 5, 0, 20, 21, 2), // 272 = KC + 16: second block is one tile
        (11, 9, 5, 0, 28, 28, 3), // 576 = 256 + 256 + 64
        (11, 4, 5, 2, 23, 25, 2), // 575 with padding rows and columns
        (11, 6, 5, 2, 24, 25, 2), // 600 = 256 + 256 + 88, padded
        (29, 3, 3, 1, 26, 27, 1), // 3x3, rows = 261 > KC taps, 702 positions
        (4, 6, 5, 0, 16, 16, 4),  // the toy layer: 144 < KC, one block
        (3, 17, 3, 0, 6, 5, 2),   // 12 positions, out_c > 16
        (2, 2, 5, 0, 5, 5, 3),    // a single output position
        (2, 260, 3, 1, 7, 6, 2),  // out_c > KC
    ] {
        ConvCase::new(Conv2dSpec::square(in_c, out_c, k, pad), batch, h, w)
            .check(&supported_paths(), &[1, 2, 3]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random geometry in two regimes: small layers (one KC block, every tile
    /// remainder) and `rows > 256` layers whose 256-position blocks split
    /// output rows at arbitrary places.
    #[test]
    fn conv_passes_match_whole_matrix_on_random_geometries(
        many_blocks in 0usize..2,
        in_c in 1usize..=6,
        out_c in 1usize..=9,
        k in prop::sample::select(vec![1usize, 3, 5]),
        same_pad in 0usize..2,
        h in 5usize..=14,
        w in 5usize..=14,
        batch in 1usize..=3,
    ) {
        let (in_c, k, h, w) = if many_blocks == 1 {
            (in_c + 10, 5, 2 * h + 8, 2 * w + 8)
        } else {
            (in_c, k, h, w)
        };
        let pad = same_pad * (k / 2);
        ConvCase::new(Conv2dSpec::square(in_c, out_c, k, pad), batch, h, w)
            .check(&supported_paths(), &[1, 2, 3]);
    }
}

/// The paper's four Table-I layers at the benchmark's rank-0 block (a
/// 272x144 halo-padded input, pad 0), each with the input size
/// `train_paper` runs it at: 135 to 147 KC blocks of output positions a
/// sample, two KC blocks of taps in layer 3.
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
fn conv_passes_match_whole_matrix_on_table1_layers() {
    for (spec, h, w) in table1_layers() {
        ConvCase::new(spec, 2, h, w).check(&[default_path()], &[1, 2]);
    }
}

/// The new kernels' own edges, one axis at a time around a small base layer:
/// output widths either side of the 16- and 32-column tiles (f64 and f32)
/// and their one-vector halves, kernel widths up to the
/// 8-lane tap load and past it (9 takes the portable weight-gradient kernel
/// on every path), channel counts around the 4/6/8-row tiles and the
/// 4-channel weight-gradient group, each unpadded and same-padded.
#[test]
fn conv_passes_match_whole_matrix_on_tile_edges() {
    let paths = supported_paths();
    let check = |in_c, out_c, k: usize, pad, h, w| {
        ConvCase::new(Conv2dSpec::square(in_c, out_c, k, pad), 2, h, w).check(&paths, &[1, 2, 3]);
    };
    // Either side of the 16-column f64 tile and its 8-column half, and of
    // the 32-column f32 tile and its 16-column half.
    for ow in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 65] {
        check(3, 5, 3, 0, 6, ow + 2);
        check(3, 5, 3, 1, 6, ow);
    }
    for k in [1usize, 3, 5, 7, 9] {
        check(3, 5, k, 0, k + 2, k + 18);
        check(3, 5, k, k / 2, 6, 19);
    }
    // Output channels 4 / 5, 6, 12 / 7, 8, 16 pack into 4- / 6- / 8-row
    // forward panels on the AVX-512 path.
    for ch in [1usize, 3, 5, 6, 7, 8, 9, 12, 16, 17] {
        check(ch, 4, 3, 0, 7, 21);
        check(4, ch, 3, 0, 7, 21);
        check(ch, ch, 3, 1, 5, 18);
    }
    // Non-square kernels: rows and taps-per-row differ (7 rows split 4 + 3).
    for (kh, kw) in [(7usize, 2usize), (2, 7), (1, 8), (6, 3)] {
        let spec = Conv2dSpec {
            in_c: 2,
            out_c: 3,
            kh,
            kw,
            pad: 0,
        };
        ConvCase::new(spec, 2, kh + 3, kw + 17).check(&paths, &[1, 2]);
    }
}

/// A tensor whose last element is the last 8 bytes before an inaccessible
/// page, so that a load reaching past the end of the buffer faults instead
/// of silently reading a neighbouring allocation.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod guarded {
    use pde_tensor::Tensor4;
    use std::ffi::c_void;
    use std::mem::ManuallyDrop;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    const PAGE: usize = 4096;
    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 1 | 2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

    /// Values copied to the end of a mapping whose next page is
    /// inaccessible, wrapped in a container `C` built over them.
    pub struct Guarded<C> {
        map: *mut c_void,
        map_len: usize,
        /// Never dropped: its storage belongs to the mapping, not the heap.
        value: ManuallyDrop<C>,
    }

    impl<C> Guarded<C> {
        pub fn copy_of<T: Copy>(values: &[T], wrap: impl FnOnce(Vec<T>) -> C) -> Self {
            let bytes = std::mem::size_of_val(values);
            let map_len = bytes.div_ceil(PAGE) * PAGE + PAGE;
            // SAFETY: a fresh private mapping; the values go at the end of
            // its accessible part (aligned for `T`: `bytes` is a multiple of
            // its size, the guard page a multiple of every alignment), the
            // page after them is made inaccessible, and the Vec built over
            // them is never dropped or grown.
            unsafe {
                let map = mmap(
                    std::ptr::null_mut(),
                    map_len,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    -1,
                    0,
                );
                assert!(!map.is_null() && map as isize != -1, "mmap failed");
                let guard = (map as *mut u8).add(map_len - PAGE);
                assert_eq!(mprotect(guard.cast(), PAGE, PROT_NONE), 0, "mprotect");
                let data = guard.sub(bytes).cast::<T>();
                std::ptr::copy_nonoverlapping(values.as_ptr(), data, values.len());
                let values = Vec::from_raw_parts(data, values.len(), values.len());
                Self {
                    map,
                    map_len,
                    value: ManuallyDrop::new(wrap(values)),
                }
            }
        }

        pub fn get(&self) -> &C {
            &self.value
        }

        /// For passes that write in place; resizing would leave the mapping.
        pub fn get_mut(&mut self) -> &mut C {
            &mut self.value
        }
    }

    /// A guarded copy of `t`.
    pub fn tensor(t: &Tensor4) -> Guarded<Tensor4> {
        let (n, c, h, w) = t.shape();
        Guarded::copy_of(t.as_slice(), |v| Tensor4::from_vec(n, c, h, w, v))
    }

    impl<C> Drop for Guarded<C> {
        fn drop(&mut self) {
            // SAFETY: the mapping made in `copy_of`; `value` is not dropped.
            unsafe { munmap(self.map, self.map_len) };
        }
    }
}

/// No pass reads past the end of `x` or `grad_out`: the weight gradient's
/// 8-lane tap load (`kw` lanes live), the forward's last 16-column tile (32
/// at f32) and the input gradient's shifted row loads all end exactly at the
/// buffers' last element, which here is followed by an inaccessible page.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn conv_passes_stop_at_the_end_of_their_inputs() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (k, pad, h, w) in [
        (5usize, 0usize, 9usize, 21usize),
        (3, 1, 6, 17),
        (7, 0, 8, 23),
    ] {
        let case = ConvCase::new(Conv2dSpec::square(2, 3, k, pad), 2, h, w);
        let want = case.run(&mut ConvScratch::new());
        let want_f32 = case.forward_chain_f32(None);
        let (x, grad_out) = (guarded::tensor(&case.x), guarded::tensor(&case.grad_out));
        let x_f32: Vec<f32> = case.x.as_slice().iter().map(|&v| v as f32).collect();
        let x_f32 = guarded::Guarded::copy_of(&x_f32, |v| v);
        for path in supported_paths() {
            force_kernel_path(Some(path));
            let got = case.run_on(x.get(), grad_out.get(), &mut ConvScratch::new());
            assert!(got == want, "{} differs on guarded inputs", path.label());
            let mut layer = ConvForward::<f32>::new(case.spec, &case.weight, &case.bias, None);
            let mut y = Vec::new();
            layer.forward(x_f32.get(), (2, h, w), &mut y);
            assert_same_bits_f32("guarded f32 forward", &y, &want_f32, &case, path);
        }
        force_kernel_path(None);
    }
}

/// The workspace bound behind `train_paper`'s peak RSS: after a forward and
/// both backward passes, a layer's scratch holds its weights in kernel
/// layout and the forward tap table — under 64 KiB for every Table-I layer,
/// the same at batch 1 and batch 4 — where it used to hold a 1 MiB column
/// panel, and before that `batch x rows x n_cols` values (110 MB a sample
/// for layer 3). A same-padded layer adds one zero-bordered sample.
#[test]
fn conv_workspace_is_independent_of_the_batch() {
    // The packed panel height (hence the byte count) depends on the path.
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pde_tensor::pool::set_thread_budget(1);
    let bytes_at = |spec, batch, h, w| {
        let mut scratch = ConvScratch::new();
        ConvCase::new(spec, batch, h, w).run(&mut scratch);
        scratch.bytes()
    };
    for (spec, h, w) in table1_layers() {
        let bytes = [1usize, 4].map(|batch| bytes_at(spec, batch, h, w));
        assert_eq!(
            bytes[0], bytes[1],
            "{spec:?}: workspace grew with the batch"
        );
        assert!(
            (1..=64 << 10).contains(&bytes[1]),
            "{spec:?}: {} bytes of workspace",
            bytes[1]
        );
    }
    // The toy network's first layer on a 16x16 grid: one 4 x 18 x 18 padded
    // sample on top of the weights and taps.
    let toy = Conv2dSpec::same(4, 6, 3);
    let bytes = [1usize, 4].map(|batch| bytes_at(toy, batch, 16, 16));
    assert_eq!(bytes[0], bytes[1], "{toy:?}: workspace grew with the batch");
    let padded_sample = 4 * 18 * 18 * 8;
    assert!(
        (padded_sample..=padded_sample + (4 << 10)).contains(&bytes[1]),
        "{toy:?}: {} bytes of workspace",
        bytes[1]
    );
}

// ---------------------------------------------------------------------------
// Fused epilogues: LeakyReLU in the forward write-back, its backward in the
// input gradient's
// ---------------------------------------------------------------------------
//
// `conv2d_forward_into(.., Some(s), ..)` must be `conv2d_im2col_into` followed
// by LeakyReLU, and `conv2d_backward_input_leaky` must be
// `conv2d_backward_input_into` followed by LeakyReLU's backward on the stored
// activation — bit for bit, on every path and budget. The comparisons are the
// `LeakyReLu` layer's (`>=` forward, `<` backward), restated here because this
// crate sits below `pde-nn`, whose own suite repeats the check against the
// real layer. Flipping either comparison, or applying the forward epilogue
// on a KC block that is not the last, fails these.

fn leaky_forward(slope: f64, z: f64) -> f64 {
    if z >= 0.0 {
        z
    } else {
        slope * z
    }
}

fn leaky_backward(slope: f64, x: f64, grad: f64) -> f64 {
    if x < 0.0 {
        slope * grad
    } else {
        grad
    }
}

/// The shared-dimension block of the accumulation-order contract
/// (`pde_tensor::gemm`'s `KC`), restated for the f32 reference chain.
const KC: usize = 256;

fn assert_same_bits_f32(what: &str, got: &[f32], want: &[f32], case: &ConvCase, path: KernelPath) {
    let wide = |v: &[f32]| v.iter().map(|&v| f64::from(v)).collect::<Vec<_>>();
    assert_same_bits(what, &wide(got), &wide(want), case, path);
}

fn assert_same_bits(what: &str, got: &[f64], want: &[f64], case: &ConvCase, path: KernelPath) {
    let bad = got
        .iter()
        .zip(want)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert!(
        got.len() == want.len() && bad == 0,
        "{what} of {:?} on {:?} differs at {bad} of {} elements ({})",
        case.spec,
        case.x.shape(),
        want.len(),
        path.label(),
    );
}

/// ±0.0 and NaN at fixed places, so that every special value meets both
/// epilogues whatever the random fill produced.
fn plant_specials(t: &mut Tensor4) {
    let v = t.as_mut_slice();
    let n = v.len();
    for (at, special) in [(0, -0.0), (n / 3, 0.0), (n / 2, f64::NAN), (n - 1, -0.0)] {
        v[at] = special;
    }
}

impl ConvCase {
    /// Fused forward against forward-then-activation, and the in-place
    /// masked input gradient against gradient-then-mask, for every
    /// (path, budget) pair.
    fn check_epilogues(&self, slope: f64, paths: &[KernelPath], budgets: &[usize]) {
        let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (_, _, h, w) = self.x.shape();
        let mut x = self.x.clone();
        plant_specials(&mut x);
        for &path in paths {
            force_kernel_path(Some(path));
            for &budget in budgets {
                pde_tensor::pool::set_thread_budget(budget);
                let scratch = &mut ConvScratch::new();
                let (weight, bias, spec) = (&self.weight, &self.bias, &self.spec);

                let mut want = Tensor4::zeros(0, 0, 0, 0);
                conv2d_im2col_into(&x, weight, bias, spec, scratch, &mut want);
                want.map_inplace(|z| leaky_forward(slope, z));
                let mut got = Tensor4::zeros(0, 0, 0, 0);
                conv2d_forward_into(&x, weight, bias, spec, Some(slope), scratch, &mut got);
                assert_same_bits("fused forward", got.as_slice(), want.as_slice(), self, path);

                let mut want = Tensor4::zeros(0, 0, 0, 0);
                conv2d_backward_input_into(&self.grad_out, weight, spec, h, w, scratch, &mut want);
                for (g, &xv) in want.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *g = leaky_backward(slope, xv, *g);
                }
                let mut got = x.clone();
                conv2d_backward_input_leaky(&self.grad_out, weight, spec, slope, scratch, &mut got);
                assert_same_bits(
                    "masked input gradient",
                    got.as_slice(),
                    want.as_slice(),
                    self,
                    path,
                );
                pde_tensor::pool::set_thread_budget(1);
            }
        }
        force_kernel_path(None);
    }
}

/// Edge geometries and the ones the epilogues add: same-padding, a tap
/// dimension of 400 > KC = 256 (two blocks: the activation belongs to the
/// second only — a pre-activation that changes sign between them would
/// otherwise be scaled twice or not at all), every forward panel height, and
/// the input gradient's whole-matrix route (`out_c > KC`).
#[test]
fn conv_epilogues_match_unfused_on_edge_geometries() {
    let paths = supported_paths();
    for &(in_c, out_c, k, pad, h, w, batch) in &[
        (11usize, 5usize, 5usize, 0usize, 20usize, 20usize, 2usize),
        (11, 4, 5, 2, 23, 25, 2), // pad = k/2
        (16, 6, 5, 0, 9, 21, 2),  // 400 taps: two KC blocks, 6-row panel
        (16, 7, 5, 2, 8, 19, 1),  // 400 taps, padded, 8-row panel, ragged
        (29, 3, 3, 1, 26, 27, 1), // 261 taps
        (4, 6, 5, 0, 16, 16, 4),  // the toy layer
        (11, 6, 5, 2, 24, 25, 2), // 600 positions, padded
        (2, 2, 5, 0, 5, 5, 3),    // a single output position
        (3, 5, 3, 1, 6, 33, 2),   // two full tiles and one column
        (2, 260, 3, 1, 7, 6, 2),  // out_c > KC
    ] {
        ConvCase::new(Conv2dSpec::square(in_c, out_c, k, pad), batch, h, w).check_epilogues(
            0.01,
            &paths,
            &[1, 2, 3],
        );
    }
    for out_c in [4usize, 5, 6, 7, 8, 12, 16] {
        ConvCase::new(Conv2dSpec::square(3, out_c, 3, 1), 2, 7, 21).check_epilogues(
            0.3,
            &paths,
            &[1, 2, 3],
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conv_epilogues_match_unfused_on_random_geometries(
        in_c in 1usize..=7,
        out_c in 1usize..=17,
        k in prop::sample::select(vec![1usize, 3, 5]),
        same_pad in 0usize..2,
        h in 5usize..=14,
        w in 5usize..=40,
        batch in 1usize..=3,
        slope in prop::sample::select(vec![0.01f64, 0.2, 0.99]),
    ) {
        let pad = same_pad * (k / 2);
        ConvCase::new(Conv2dSpec::square(in_c, out_c, k, pad), batch, h, w)
            .check_epilogues(slope, &supported_paths(), &[1, 2, 3]);
    }
}

#[test]
fn conv_epilogues_match_unfused_on_table1_layers() {
    for (spec, h, w) in table1_layers() {
        ConvCase::new(spec, 2, h, w).check_epilogues(0.01, &[default_path()], &[1, 2]);
    }
}

/// The in-place input gradient reads the activation it replaces and nothing
/// after it: here the activation's last element (a `-0.0`) is the last 8
/// bytes before an inaccessible page, and the fused forward reads its input
/// up to the same edge.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn conv_epilogues_stop_at_the_end_of_the_activation() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (k, pad, h, w) in [
        (5usize, 0usize, 9usize, 21usize),
        (3, 1, 6, 17),
        (7, 0, 8, 23),
    ] {
        let case = ConvCase::new(Conv2dSpec::square(2, 3, k, pad), 2, h, w);
        let mut x = case.x.clone();
        plant_specials(&mut x);
        let (weight, spec, slope) = (&case.weight, &case.spec, 0.01);
        let scratch = &mut ConvScratch::new();
        let mut want = Tensor4::zeros(0, 0, 0, 0);
        conv2d_backward_input_into(&case.grad_out, weight, spec, h, w, scratch, &mut want);
        for (g, &xv) in want.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *g = leaky_backward(slope, xv, *g);
        }
        let mut want_y = Tensor4::zeros(0, 0, 0, 0);
        conv2d_forward_into(
            &x,
            weight,
            &case.bias,
            spec,
            Some(slope),
            scratch,
            &mut want_y,
        );
        for path in supported_paths() {
            force_kernel_path(Some(path));
            let mut act = guarded::tensor(&x);
            let mut y = Tensor4::zeros(0, 0, 0, 0);
            conv2d_forward_into(
                act.get(),
                weight,
                &case.bias,
                spec,
                Some(slope),
                scratch,
                &mut y,
            );
            assert_same_bits(
                "guarded fused forward",
                y.as_slice(),
                want_y.as_slice(),
                &case,
                path,
            );
            conv2d_backward_input_leaky(
                &case.grad_out,
                weight,
                spec,
                slope,
                scratch,
                act.get_mut(),
            );
            assert_same_bits(
                "guarded masked input gradient",
                act.get().as_slice(),
                want.as_slice(),
                &case,
                path,
            );
        }
        force_kernel_path(None);
    }
}
