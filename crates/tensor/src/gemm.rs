//! Kernel-path selection, the accumulation-order contract and the perf
//! bookkeeping the convolution passes in [`crate::conv`] share, plus the
//! scalar whole-matrix products they are checked against.
//!
//! A [`KernelPath`] is chosen once per process ([`kernel_path`]): the
//! AVX-512 kernels of [`crate::simd`] where the CPU has them, else the
//! portable kernels of [`crate::conv`]. `PDEML_KERNEL` selects for A/B
//! runs; [`force_kernel_path`] overrides for the equivalence tests.
//!
//! **Accumulation-order contract:** every output element is a `p`-ascending
//! fused-multiply-add chain from 0.0 within a [`KC`] block of the shared
//! dimension, added into its destination once per block. [`gemm`],
//! [`gemm_tn`] and [`gemm_nt`] compute that and nothing more (one path, no
//! threads, no packing): the oracle every conv kernel is held to, bit for
//! bit, in `tests/kernel_paths.rs`. The one pass that still calls one is
//! the input gradient of a layer with more than [`KC`] output channels.

use crate::perf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Rows (output channels) of the portable conv kernels' register tile.
pub(crate) const MR: usize = 4;
/// Columns of the portable conv kernels' register tile.
pub(crate) const NR: usize = 8;
/// Shared-dimension block of the accumulation-order contract: where a chain
/// restarts from 0.0 decides its bits, so every path and pass uses this one.
pub(crate) const KC: usize = 256;
/// Columns of C the products keep in registers (and of B on the stack).
const COLS: usize = 32;

/// Which kernel family the convolution passes dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable Rust kernels (auto-vectorized under `-C
    /// target-cpu=native`, plain f64 otherwise).
    Scalar,
    /// Explicit AVX-512F intrinsics (16-column tiles, masked edges).
    Avx512,
}

impl KernelPath {
    /// Every path, reference first (and best last).
    pub const ALL: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Avx512];

    /// Stable lowercase label, as printed in CLI headers and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this path.
    pub fn supported(self) -> bool {
        match self {
            KernelPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx512 => false,
        }
    }
}

/// The path a `PDEML_KERNEL` value (`None` = unset) selects on a CPU whose
/// best supported path is `best`.
fn parse_kernel_path(value: Option<&str>, best: KernelPath) -> Result<KernelPath, String> {
    match value {
        None | Some("simd") => Ok(best),
        Some("scalar") => Ok(KernelPath::Scalar),
        Some("avx512") if best == KernelPath::Avx512 => Ok(KernelPath::Avx512),
        Some("avx512") => Err(
            "PDEML_KERNEL=avx512 requested but this CPU does not support it; \
             use PDEML_KERNEL=simd to auto-select the best available path"
                .to_string(),
        ),
        Some(other) => Err(format!(
            "PDEML_KERNEL={other:?} is not a kernel path; \
             valid values: scalar, simd (auto), avx512"
        )),
    }
}

/// The path `PDEML_KERNEL` selects on this CPU, or a one-line hint naming
/// the valid values. Front ends call this up front to refuse a bad value
/// before any work starts; [`kernel_path`] panics with the same hint.
pub fn env_kernel_path() -> Result<KernelPath, String> {
    let best = KernelPath::ALL.into_iter().rfind(|p| p.supported());
    let value = std::env::var("PDEML_KERNEL").ok();
    parse_kernel_path(value.as_deref(), best.unwrap_or(KernelPath::Scalar))
}

/// Test override: 0 = none, else `KernelPath as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Overrides the kernel path process-wide, for the equivalence tests
/// (`None` restores the detected path). Safe at any time: all paths produce
/// bit-identical results, so switching mid-run only changes speed.
///
/// # Panics
/// If the CPU does not support the requested path.
pub fn force_kernel_path(path: Option<KernelPath>) {
    if let Some(p) = path {
        assert!(
            p.supported(),
            "force_kernel_path({p:?}): not supported by this CPU"
        );
    }
    FORCED.store(path.map_or(0, |p| p as u8 + 1), Ordering::Release);
}

/// The kernel path in effect: a [`force_kernel_path`] override if set, else
/// the cached `PDEML_KERNEL` / feature-detection choice.
///
/// # Panics
/// On the first call, if [`env_kernel_path`] refuses `PDEML_KERNEL`.
pub fn kernel_path() -> KernelPath {
    match FORCED.load(Ordering::Acquire) {
        1 => KernelPath::Scalar,
        2 => KernelPath::Avx512,
        _ => *{
            static DETECTED: OnceLock<KernelPath> = OnceLock::new();
            DETECTED.get_or_init(|| env_kernel_path().unwrap_or_else(|e| panic!("{e}")))
        },
    }
}

/// An output operand as the conv kernels see it: base pointer, elements
/// valid from it, row stride. A raw pointer because concurrent pool chunks
/// own disjoint parts of the same buffer; `len` lets every kernel
/// `debug_assert!` the last element it may touch.
#[derive(Clone, Copy)]
pub(crate) struct CView {
    pub(crate) ptr: *mut f64,
    pub(crate) len: usize,
    pub(crate) ld: usize,
}

// SAFETY: a `CView` only describes memory; every use site that shares one
// across pool chunks documents the disjoint region each chunk writes.
unsafe impl Send for CView {}
unsafe impl Sync for CView {}

impl CView {
    /// A view of all of `c` with row stride `ld`.
    pub(crate) fn new(c: &mut [f64], ld: usize) -> Self {
        Self {
            ptr: c.as_mut_ptr(),
            len: c.len(),
            ld,
        }
    }

    /// The same rows starting `offset` elements further on.
    pub(crate) fn at(self, offset: usize) -> Self {
        assert!(offset <= self.len, "CView::at: offset past the end");
        Self {
            // SAFETY: `offset <= len`, so the result stays inside (or one
            // past) the allocation `ptr` came from.
            ptr: unsafe { self.ptr.add(offset) },
            len: self.len - offset,
            ld: self.ld,
        }
    }

    /// Whether rows `0..m`, columns `..j_hi` lie inside the view.
    #[inline]
    pub(crate) fn holds(&self, m: usize, j_hi: usize) -> bool {
        m == 0 || (m - 1) * self.ld + j_hi <= self.len
    }
}

/// `buf[..len]`, growing `buf` exactly when it is shorter: a scratch buffer
/// that has seen its largest operand never reallocates, and holds no slack.
pub(crate) fn grown<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Packs the row-major `m × k` weights into `buf` as `mr`-row panels, KC
/// block after KC block: block `p0` starts at `ceil(m/mr)·mr·p0`, its panel
/// `ip` at `ip·kc·mr` with element `(p, r)` at `p·mr + r`, the last panel
/// zero-padded. Full 8-row panels on the AVX-512 path transpose in
/// registers ([`crate::simd::pack_a8_n_512`]) into the same layout. `buf`
/// grows (exactly) to the largest operand it has seen.
pub(crate) fn pack_a(
    path: KernelPath,
    m: usize,
    k: usize,
    a: &[f64],
    mr: usize,
    buf: &mut Vec<f64>,
) {
    let m_panels = m.div_ceil(mr);
    let buf = grown(buf, m_panels * mr * k);
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let block = &mut buf[m_panels * mr * p0..][..m_panels * kc * mr];
        for (ip, panel) in block.chunks_exact_mut(kc * mr).enumerate() {
            let i0 = ip * mr;
            let mr_eff = mr.min(m - i0);
            #[cfg(target_arch = "x86_64")]
            if path == KernelPath::Avx512 && mr_eff == 8 {
                // SAFETY: AVX-512 is the selected (detected) path and the
                // panel is full, so all 8 source rows exist.
                unsafe { crate::simd::pack_a8_n_512(a, k, i0, p0, kc, panel) };
                continue;
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = path;
            if mr_eff < mr {
                panel.fill(0.0);
            }
            for r in 0..mr_eff {
                let row = &a[(i0 + r) * k + p0..][..kc];
                for (p, &v) in row.iter().enumerate() {
                    panel[p * mr + r] = v;
                }
            }
        }
    }
}

/// Books a conv pass in [`crate::perf`] as the product it replaced —
/// `samples` multiplications of `m × k` by `k × n` that started at `t0` and
/// packed `packed_elems` values — as one GEMM call and one trace instant.
pub(crate) fn record_product(
    t0: Instant,
    samples: usize,
    m: usize,
    k: usize,
    n: usize,
    packed_elems: usize,
) {
    perf::record_gemm(
        (2 * samples * m * k * n) as u64,
        (packed_elems * std::mem::size_of::<f64>()) as u64,
        t0.elapsed().as_nanos() as u64,
        kernel_path() != KernelPath::Scalar,
    );
}

/// `C += A · B` for `a(i, p)` (`m × k`) and `b(p, j)` (`k × n`), C
/// row-major: per [`COLS`]-column chunk and [`KC`] block, B's block is
/// copied to the stack, then each row of C runs one chain per column over
/// it in `COLS` accumulators the compiler keeps in vector registers, and
/// adds the sums into C. Booked as one scalar GEMM call that packs nothing.
fn product(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f64,
    b: impl Fn(usize, usize) -> f64,
    c: &mut [f64],
) {
    let t0 = Instant::now();
    let mut block = [[0.0f64; COLS]; KC];
    for j0 in (0..n).step_by(COLS) {
        let w = COLS.min(n - j0);
        for p0 in (0..k).step_by(KC) {
            let block = &mut block[..KC.min(k - p0)];
            for (p, row) in (p0..).zip(block.iter_mut()) {
                for (j, v) in (j0..).zip(&mut row[..w]) {
                    *v = b(p, j);
                }
            }
            for i in 0..m {
                // Columns past `w` run on stale values and are dropped.
                let mut acc = [0.0f64; COLS];
                for (p, row) in (p0..).zip(block.iter()) {
                    let av = a(i, p);
                    for (acc, &bv) in acc.iter_mut().zip(row) {
                        *acc = av.mul_add(bv, *acc);
                    }
                }
                for (c, acc) in c[i * n + j0..][..w].iter_mut().zip(acc) {
                    *c += acc;
                }
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    perf::record_gemm((2 * m * k * n) as u64, 0, ns, false);
}

/// `C += A * B` on flat row-major buffers: `a` is `m × k`, `b` is `k × n`,
/// `c` is `m × n` (zero it first for a plain product).
///
/// # Panics
/// If any buffer length disagrees with the given dimensions; so do
/// [`gemm_tn`] and [`gemm_nt`].
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(c.len(), m * n, "gemm: C length");
    product((m, k, n), |i, p| a[i * k + p], |p, j| b[p * n + j], c);
}

/// `C += Aᵀ * B` without materializing `Aᵀ`: `a` is `k × m`, `b` is `k × n`,
/// `c` is `m × n` — the shape of the conv input-gradient product.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), k * m, "gemm_tn: A length");
    assert_eq!(b.len(), k * n, "gemm_tn: B length");
    assert_eq!(c.len(), m * n, "gemm_tn: C length");
    product((m, k, n), |i, p| a[p * m + i], |p, j| b[p * n + j], c);
}

/// `C += A * Bᵀ` without materializing `Bᵀ`: `a` is `m × k`, `b` is `n × k`,
/// `c` is `m × n` — the shape of the conv weight-gradient product.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A length");
    assert_eq!(b.len(), n * k, "gemm_nt: B length");
    assert_eq!(c.len(), m * n, "gemm_nt: C length");
    product((m, k, n), |i, p| a[i * k + p], |p, j| b[j * k + p], c);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference triple loop, no blocking.
    fn naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let at = |i: usize, j: usize| (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
        (0..m * n).map(|ij| at(ij / n, ij % n)).collect()
    }

    /// The `rows × cols` row-major `x`, transposed.
    fn transpose(rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
        (0..rows * cols)
            .map(|ji| x[ji % rows * cols + ji / rows])
            .collect()
    }

    fn det_fill(len: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random values without pulling in `rand`.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_matches_naive_on_odd_sizes() {
        // Column-chunk edges and KC-block boundaries among them.
        let shapes = [(1, 1, 1), (3, 5, 7), (65, 64, 63), (130, 17, 70), (4, 8, 8)];
        let more = [
            (5, 256, 9),
            (7, 300, 17),
            (1, 513, 1),
            (9, 300, 33),
            (16, 150, 47),
        ];
        for (m, k, n) in shapes.into_iter().chain(more) {
            let a = det_fill(m * k, 42);
            let b = det_fill(k * n, 7);
            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            let r = naive(m, k, n, &a, &b);
            crate::assert_slice_close(&c, &r, 1e-10, 1e-10, "gemm vs naive");
        }
    }

    #[test]
    fn gemm_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![1.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn gemm_with_empty_shared_dim_is_identity() {
        let mut c = vec![1.5; 6];
        gemm(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![1.5; 6]);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let (m, k, n) = (9, 13, 11);
        let a = det_fill(k * m, 3); // k × m
        let b = det_fill(k * n, 4);
        let r = naive(m, k, n, &transpose(k, m, &a), &b);
        let mut c = vec![0.0; m * n];
        gemm_tn(m, k, n, &a, &b, &mut c);
        crate::assert_slice_close(&c, &r, 1e-10, 1e-10, "gemm_tn");
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let (m, k, n) = (6, 10, 8);
        let a = det_fill(m * k, 5);
        let b = det_fill(n * k, 6); // n × k
        let r = naive(m, k, n, &a, &transpose(n, k, &b));
        let mut c = vec![0.0; m * n];
        gemm_nt(m, k, n, &a, &b, &mut c);
        crate::assert_slice_close(&c, &r, 1e-10, 1e-10, "gemm_nt");
    }

    #[test]
    fn gemm_records_perf_counters() {
        let (m, k, n) = (4, 6, 8);
        let a = det_fill(m * k, 1);
        let b = det_fill(k * n, 2);
        let mut c = vec![0.0; m * n];
        let before = perf::snapshot();
        gemm(m, k, n, &a, &b, &mut c);
        let spent = perf::snapshot().since(&before);
        assert_eq!(spent.gemm_calls, 1);
        assert_eq!(spent.flops, 2 * (m * k * n) as u64);
        assert_eq!((spent.bytes_packed, spent.simd_calls), (0, 0));
    }

    #[test]
    fn default_kernel_path_is_supported() {
        // Whatever detection picked must actually run here, and the scalar
        // fallback must always be available.
        assert!(kernel_path().supported());
        assert!(KernelPath::Scalar.supported());
    }

    #[test]
    fn kernel_env_values_resolve_against_the_best_supported_path() {
        use KernelPath::{Avx512, Scalar};
        for best in KernelPath::ALL {
            assert_eq!(parse_kernel_path(None, best), Ok(best));
            assert_eq!(parse_kernel_path(Some("simd"), best), Ok(best));
            assert_eq!(parse_kernel_path(Some("scalar"), best), Ok(Scalar));
            for bad in ["avx2", "AVX512", ""] {
                let err = parse_kernel_path(Some(bad), best).unwrap_err();
                assert!(
                    err.ends_with("valid values: scalar, simd (auto), avx512"),
                    "{bad:?}: {err}"
                );
            }
        }
        assert_eq!(parse_kernel_path(Some("avx512"), Avx512), Ok(Avx512));
        let err = parse_kernel_path(Some("avx512"), Scalar).unwrap_err();
        assert!(err.contains("this CPU does not support it"), "{err}");
    }
}
