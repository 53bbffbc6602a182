//! Packed, register-tiled general matrix–matrix multiply with runtime-
//! selected SIMD micro-kernels and intra-rank threading.
//!
//! This module owns the kernel-path selection, the accumulation-order
//! contract and the perf bookkeeping that the convolution passes in
//! [`crate::conv`] share. The passes themselves no longer lower to a product
//! — they read their activations in place and keep this module's chains
//! element for element — so the products here are the whole-matrix oracle
//! the equivalence tests compare against, the `stride ≠ 1` convolution
//! route, and the bare-GEMM rows of the benchmark. The architecture is
//! two-level (ISSUE 6):
//!
//! * **Instruction level** — a [`KernelPath`] chosen once per process
//!   ([`kernel_path`]): the explicit AVX-512 micro-kernels from
//!   [`crate::simd`] where the CPU has them, else the portable scalar
//!   micro-kernel in this module (whose `f64::mul_add` chains the
//!   repo-level `.cargo/config.toml` lowers to FMA).
//!   `PDEML_KERNEL=scalar|simd|avx512` selects for A/B runs;
//!   [`force_kernel_path`] overrides for the equivalence tests.
//! * **Thread level** — the driver fans out over [`crate::pool`], one chunk
//!   per [`NC`]-column block of C. Each C element is written by exactly one
//!   chunk with a fixed operation order, so results are bit-for-bit
//!   identical at every thread budget.
//!
//! Operand handling depends on the layout: row-major B (`Trans::N`) is read
//! **in place** by the SIMD paths and by the dedicated small-`m` scalar edge
//! kernel (packing B costs as much as the FMA work at our shapes), while
//! `Trans::T` operands keep the classic packed-strip scheme — the
//! transposition happens for free during packing. A is always packed into
//! `mr`-interleaved row panels, [`KC`] block after [`KC`] block, once per
//! product ([`pack_a`]; the convolution forward pass packs its weights with
//! the same function, once per pass).
//!
//! **Accumulation-order contract:** every path computes each C element as a
//! `p`-ascending fused-multiply-add chain from 0.0 within a KC block, added
//! into C once per block. Tile shape, packing, threading and vector width
//! all preserve that per-element chain, so *all* paths agree bitwise —
//! asserted by `tests/kernel_paths.rs`.
//!
//! Pack buffers live in thread-local storage and are reused across calls,
//! so steady-state GEMM performs no heap allocation — including on pool
//! workers, each of which owns its own pack buffers. Every product records
//! FLOPs, call counts, kernel nanoseconds and packing traffic in
//! [`crate::perf`] ([`record_product`]); a convolution pass books itself as
//! the product it replaced, through the same function.

use crate::{perf, pool};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Scalar micro-tile rows: how many rows of C the scalar micro-kernel owns.
pub(crate) const MR: usize = 4;
/// Micro-tile columns; also the packed B strip width for every path.
pub(crate) const NR: usize = 8;
/// Shared-dimension block: one packed A panel (`KC × mr`) stays L1/L2
/// resident. Identical across kernel paths — and across the convolution
/// passes, which block their chains the same way — because KC blocking is
/// part of the accumulation-order contract.
pub(crate) const KC: usize = 256;
/// Column block: unit of B packing *and* of intra-rank column chunking
/// (`KC × NC` ≤ 512 KiB stays L2-resident; 256 is a multiple of every
/// tile width, so chunk boundaries never split a tile).
const NC: usize = 256;

thread_local! {
    /// Packed-A scratch, owned by the driver thread for the whole call.
    static A_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Packed-B scratch, borrowed per column chunk on whichever thread
    /// (caller or pool worker) runs the chunk.
    static B_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// Kernel-path selection
// ---------------------------------------------------------------------------

/// Which micro-kernel family the driver dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable Rust micro-kernel (auto-vectorized under `-C
    /// target-cpu=native`, plain f64 otherwise).
    Scalar,
    /// Explicit AVX-512F intrinsics (8-row tiles, masked edges).
    Avx512,
}

impl KernelPath {
    /// Every path, reference first; the equivalence suites run each case
    /// once per [`supported`](Self::supported) entry.
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
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                KernelPath::Scalar => true,
                KernelPath::Avx512 => is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == KernelPath::Scalar
        }
    }
}

/// Best path the running CPU supports.
fn best_supported() -> KernelPath {
    if KernelPath::Avx512.supported() {
        KernelPath::Avx512
    } else {
        KernelPath::Scalar
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

/// Reads `PDEML_KERNEL` (+ runtime feature detection), once per process.
fn detect() -> KernelPath {
    let value = std::env::var("PDEML_KERNEL").ok();
    parse_kernel_path(value.as_deref(), best_supported()).unwrap_or_else(|e| panic!("{e}"))
}

/// Test override: 0 = none, else `KernelPath as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Overrides the kernel path process-wide (the path-equivalence tests use
/// this to compare paths inside one process, where the `PDEML_KERNEL`
/// choice is already frozen). `None` restores the detected
/// path. Safe at any time: all paths produce bit-identical results, so
/// switching mid-run only changes speed.
///
/// # Panics
/// If the CPU does not support the requested path.
pub fn force_kernel_path(path: Option<KernelPath>) {
    let code = match path {
        None => 0,
        Some(p) => {
            assert!(
                p.supported(),
                "force_kernel_path({p:?}): not supported by this CPU"
            );
            p as u8 + 1
        }
    };
    FORCED.store(code, Ordering::Release);
}

/// The kernel path in effect: a [`force_kernel_path`] override if set, else
/// the cached `PDEML_KERNEL` / feature-detection choice.
pub fn kernel_path() -> KernelPath {
    match FORCED.load(Ordering::Acquire) {
        1 => KernelPath::Scalar,
        2 => KernelPath::Avx512,
        _ => *{
            static DETECTED: OnceLock<KernelPath> = OnceLock::new();
            DETECTED.get_or_init(detect)
        },
    }
}

/// Packed A panel height for this path/shape: AVX-512 widens to 8 rows
/// (16 zmm accumulators) except for `m ≤ 4`, where a 4-row panel keeps the
/// register file on live data (the layer-3 edge case).
fn panel_rows(path: KernelPath, m: usize) -> usize {
    match path {
        KernelPath::Avx512 if m > MR => 8,
        _ => MR,
    }
}

/// Operand layout: `N` means the slice stores the logical matrix row-major,
/// `T` means it stores the transpose (so packing walks it column-wise).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trans {
    N,
    T,
}

/// The output operand as the kernels see it: a base pointer, the number of
/// elements valid from it, and the row stride. A raw pointer rather than a
/// `&mut` slice because concurrent pool chunks own disjoint column ranges of
/// the same rows; `len` exists so every kernel can `debug_assert!` the last
/// element it may touch.
#[derive(Clone, Copy)]
pub(crate) struct CView {
    pub(crate) ptr: *mut f64,
    pub(crate) len: usize,
    pub(crate) ld: usize,
}

// SAFETY: a `CView` is only a description of memory; every use site that
// shares one across pool chunks documents the disjoint region each chunk
// writes.
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

    /// The same rows starting `offset` elements further on (a later sample,
    /// a later column, or both).
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

/// Packs every `mr`-row panel of the logical `m × k` matrix A for the
/// shared-dimension block `p0 .. p0+kc` into `buf`, zero-padding the last
/// panel. `lda` is the row stride of the *stored* matrix (`m × k` for
/// `Trans::N`, `k × m` for `Trans::T`). Layout: panel `ip` at
/// `buf[ip*kc*mr..]`, element `(p, r)` at `p*mr + r`. Full 8-row `Trans::N`
/// panels on the AVX-512 path transpose in registers
/// ([`crate::simd::pack_a8_n_512`]); packing is pure data movement either
/// way, so the layout (and every downstream result) is identical.
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    path: KernelPath,
    op: Trans,
    a: &[f64],
    lda: usize,
    m: usize,
    p0: usize,
    kc: usize,
    mr: usize,
    buf: &mut [f64],
) {
    let m_panels = m.div_ceil(mr);
    for ip in 0..m_panels {
        let i0 = ip * mr;
        let mr_eff = mr.min(m - i0);
        let panel = &mut buf[ip * kc * mr..][..kc * mr];
        match op {
            Trans::N => {
                #[cfg(target_arch = "x86_64")]
                if path == KernelPath::Avx512 && mr == 8 && mr_eff == 8 {
                    // SAFETY: AVX-512 is the selected (detected) path and
                    // the panel is full, so all 8 source rows exist.
                    unsafe { crate::simd::pack_a8_n_512(a, lda, i0, p0, kc, panel) };
                    continue;
                }
                #[cfg(not(target_arch = "x86_64"))]
                let _ = path;
                // a[(i0+r)*lda + p0+p] → panel[p*mr + r]
                if mr_eff < mr {
                    panel.fill(0.0);
                }
                for r in 0..mr_eff {
                    let row = &a[(i0 + r) * lda + p0..][..kc];
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * mr + r] = v;
                    }
                }
            }
            Trans::T => {
                // a stored k × m: a[(p0+p)*lda + i0+r] → panel[p*mr + r]
                for p in 0..kc {
                    let src = &a[(p0 + p) * lda + i0..][..mr_eff];
                    let dst = &mut panel[p * mr..][..mr];
                    dst[..mr_eff].copy_from_slice(src);
                    dst[mr_eff..].fill(0.0);
                }
            }
        }
    }
}

/// Packs a chunk of B — columns `jc .. jc+nc_eff`, shared rows
/// `p0 .. p0+kc` — into `buf` as `ceil(nc_eff / NR)` NR-interleaved strips
/// (strip `js` at `buf[js*kc*NR..]`, element `(p, c)` at `p*NR + c`), zero-
/// padding the last strip. `ldb` is the row stride of the stored matrix.
///
/// For `Trans::N` (`k × n` slice) each source row contributes one contiguous
/// `nc_eff`-wide run (`copy_from_slice`, i.e. vector moves), scattered
/// across the strips; for `Trans::T` (`n × k` slice) the transposition
/// happens here, walking contiguous columns.
#[allow(clippy::too_many_arguments)]
fn pack_b_chunk(
    op: Trans,
    b: &[f64],
    ldb: usize,
    p0: usize,
    kc: usize,
    jc: usize,
    nc_eff: usize,
    buf: &mut [f64],
) {
    let full = nc_eff / NR;
    let rem = nc_eff % NR;
    match op {
        Trans::N => {
            // b[(p0+p)*ldb + jc+c] → strip[c/NR][p*NR + c%NR]
            for p in 0..kc {
                let src = &b[(p0 + p) * ldb + jc..][..nc_eff];
                for js in 0..full {
                    let dst = &mut buf[js * kc * NR + p * NR..][..NR];
                    dst.copy_from_slice(&src[js * NR..][..NR]);
                }
                if rem > 0 {
                    let dst = &mut buf[full * kc * NR + p * NR..][..NR];
                    dst[..rem].copy_from_slice(&src[full * NR..]);
                    dst[rem..].fill(0.0);
                }
            }
        }
        Trans::T => {
            // b stored n × k: b[(jc+c)*ldb + p0+p] → strip[c/NR][p*NR + c%NR]
            if rem > 0 {
                buf[full * kc * NR..][..kc * NR].fill(0.0);
            }
            for c in 0..nc_eff {
                let col = &b[(jc + c) * ldb + p0..][..kc];
                let (js, cr) = (c / NR, c % NR);
                let strip = &mut buf[js * kc * NR..][..kc * NR];
                for (p, &v) in col.iter().enumerate() {
                    strip[p * NR + cr] = v;
                }
            }
        }
    }
}

/// Accumulator write-back: adds the live `mr_eff × nr_eff` corner of the
/// register tile into C at rows `i0..`, columns `j0..`.
///
/// # Safety
/// `c` must be valid for the rows/columns addressed (row stride `c.ld`),
/// and no other thread may concurrently touch those elements.
#[inline(always)]
unsafe fn write_back(
    acc: &[[f64; NR]; MR],
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    debug_assert!(c.holds(i0 + mr_eff, j0 + nr_eff), "write_back: C tile");
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        // SAFETY: row `i0 + r`, columns `j0..j0+nr_eff` end at or before
        // `(i0+mr_eff-1)·ld + j0+nr_eff ≤ c.len` (asserted above); the
        // caller owns them exclusively.
        let row =
            unsafe { std::slice::from_raw_parts_mut(c.ptr.add((i0 + r) * c.ld + j0), nr_eff) };
        for (dst, &v) in row.iter_mut().zip(&acc_row[..nr_eff]) {
            *dst += v;
        }
    }
}

/// The scalar register-tiled core: `C[i0.., j0..] += Ap · Bp` for one packed
/// A panel (`kc × MR`) against one packed B strip (`kc × NR`). The
/// accumulator tile lives entirely in locals (it compiles to 8 packed-FMA
/// chains under native codegen); edge tiles compute the full micro-tile on
/// the zero padding and clip only the write-back.
///
/// # Safety
/// See [`write_back`].
#[inline(always)]
unsafe fn micro_kernel(
    ap: &[f64],
    bp: &[f64],
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    // `chunks_exact` + `zip` lets the compiler drop every bounds check in the
    // kc loop; both panels advance in lockstep, one micro-tile rank-1 update
    // per step. The fixed-size reborrows below are what lets the tile update
    // compile to packed FMA: with `[f64; NR]` operands the whole inner loop
    // unrolls into straight-line vector code.
    for (a_col, b_row) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a_col: &[f64; MR] = a_col.try_into().unwrap();
        let b_row: &[f64; NR] = b_row.try_into().unwrap();
        for r in 0..MR {
            let av = a_col[r];
            for j in 0..NR {
                acc[r][j] = av.mul_add(b_row[j], acc[r][j]);
            }
        }
    }
    // SAFETY: forwarded caller contract.
    unsafe { write_back(&acc, c, i0, j0, mr_eff, nr_eff) };
}

/// The scalar direct-B register tile: `MR` rows × `nr ≤ NR` columns, one
/// `mul_add` chain per element from 0.0 over `kc` shared steps, B read in
/// place — `b_row(p)` is B's row `p` from the tile's first column on (at
/// least `nr` long). The tile lives in locals across the whole KC block;
/// the chain is identical to [`micro_kernel`]'s. Shared by the GEMM's
/// small-`m` edge kernel and the portable convolution forward kernel, which
/// differ only in where row `p` lives and in their write-back.
#[inline(always)]
pub(crate) fn scalar_direct_tile<'a>(
    ap: &[f64],
    kc: usize,
    b_row: impl Fn(usize) -> &'a [f64],
    nr: usize,
) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    let a_cols = ap.chunks_exact(MR).take(kc).enumerate();
    if nr == NR {
        // Fixed-size operands: the tile update unrolls into straight-line
        // packed FMA.
        for (p, a_col) in a_cols {
            let a_col: &[f64; MR] = a_col.try_into().unwrap();
            let b_row: &[f64; NR] = b_row(p)[..NR].try_into().unwrap();
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

/// Dedicated scalar edge kernel for `m ≤ MR` against row-major B (the
/// layer-3 shape): B is read in place — with a single A panel there is no
/// packing to amortize — through [`scalar_direct_tile`].
///
/// # Safety
/// See [`write_back`]. `b` starts at B's block row (element `(p, j)` of the
/// block at `b[p*ldb + j]`); slice indexing checks its bounds.
#[allow(clippy::too_many_arguments)]
unsafe fn scalar_edge_block(
    m: usize,
    ap: &[f64],
    kc: usize,
    b: &[f64],
    ldb: usize,
    c: CView,
    j_lo: usize,
    j_hi: usize,
) {
    debug_assert!(c.holds(m, j_hi), "scalar_edge_block: C columns");
    for j0 in (j_lo..j_hi).step_by(NR) {
        let nr_eff = NR.min(j_hi - j0);
        let acc = scalar_direct_tile(ap, kc, |p| &b[p * ldb + j0..], nr_eff);
        // SAFETY: forwarded caller contract (rows `0..m`, columns
        // `j0..j0+nr_eff ⊂ j_lo..j_hi`).
        unsafe { write_back(&acc, c, 0, j0, m, nr_eff) };
    }
}

/// Packed-strip sweep of C columns `j_lo .. j_hi` for one KC block: B chunks
/// are packed [`NC`] columns at a time into *this thread's* pack buffer
/// (caller or pool worker alike), then swept strip by strip by every A panel
/// while cache-hot.
///
/// # Safety
/// See [`write_back`]; `abuf` must hold `ceil(m/mr)` packed panels. `b` is
/// the whole stored operand (row stride `ldb`); packing indexes it through
/// checked slices.
#[allow(clippy::too_many_arguments)]
unsafe fn packed_block(
    path: KernelPath,
    op_b: Trans,
    m: usize,
    abuf: &[f64],
    mr: usize,
    kc: usize,
    p0: usize,
    b: &[f64],
    ldb: usize,
    c: CView,
    j_lo: usize,
    j_hi: usize,
) {
    debug_assert!(c.holds(m, j_hi), "packed_block: C columns");
    let m_panels = m.div_ceil(mr);
    B_BUF.with(|bb| {
        let mut bbuf = bb.borrow_mut();
        let need = (NC / NR) * kc * NR;
        if bbuf.len() < need {
            bbuf.resize(need, 0.0);
        }
        for jc in (j_lo..j_hi).step_by(NC) {
            let nc_eff = NC.min(j_hi - jc);
            pack_b_chunk(op_b, b, ldb, p0, kc, jc, nc_eff, &mut bbuf);
            for js in 0..nc_eff.div_ceil(NR) {
                let strip = &bbuf[js * kc * NR..][..kc * NR];
                let j0 = jc + js * NR;
                let nr_eff = NR.min(j_hi - j0);
                for ip in 0..m_panels {
                    let ap = &abuf[ip * kc * mr..][..kc * mr];
                    let (i0, mr_eff) = (ip * mr, mr.min(m - ip * mr));
                    match path {
                        // SAFETY (all arms): disjoint C tiles inside the
                        // columns asserted above, panels sized by the
                        // driver, SIMD paths feature-checked at selection
                        // time.
                        KernelPath::Scalar => unsafe {
                            micro_kernel(ap, strip, c, i0, j0, mr_eff, nr_eff)
                        },
                        #[cfg(target_arch = "x86_64")]
                        KernelPath::Avx512 => unsafe {
                            crate::simd::packed_strip_512(
                                ap, mr, strip, kc, c, i0, j0, mr_eff, nr_eff,
                            )
                        },
                        #[cfg(not(target_arch = "x86_64"))]
                        _ => unreachable!("SIMD kernel paths are x86_64-only"),
                    }
                }
            }
        }
    });
}

/// `buf[..len]`, growing `buf` exactly when it is shorter — so a scratch
/// buffer that has seen its largest operand never reallocates again and
/// holds no amortisation slack.
pub(crate) fn grown<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Packs the whole of `op_a(A)` (`m × k`, stored with row stride `lda`) into
/// `buf` at panel height `mr`, KC block after KC block — the `ceil(m/mr)`
/// panels of block 0, then those of block 1, … so block `p0` starts at
/// `ceil(m/mr)·mr·p0`. `buf` grows (exactly) to the largest operand it has
/// seen and is never shrunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    path: KernelPath,
    op_a: Trans,
    m: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    mr: usize,
    buf: &mut Vec<f64>,
) {
    let m_panels = m.div_ceil(mr);
    let buf = grown(buf, m_panels * mr * k);
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let block = &mut buf[m_panels * mr * p0..][..m_panels * kc * mr];
        pack_a_block(path, op_a, a, lda, m, p0, kc, mr, block);
    }
}

/// `C[.., j_lo..j_hi] += A · op_b(B)[.., j_lo..j_hi]` over the whole shared
/// dimension: the ascending-`p0` KC-block chain of the accumulation-order
/// contract, one `+=` into C per block. This is the unit of work a pool
/// chunk executes. `abuf` is [`pack_a`]'s output for panel height `mr`.
///
/// # Safety
/// No other thread may touch rows `0..m`, columns `j_lo..j_hi` of `c` during
/// the call, and those elements must lie inside `c`
/// (`(m−1)·c.ld + j_hi ≤ c.len`; checked by `debug_assert!` here and at
/// every kernel). `b` is a slice, so its bounds are checked where it is
/// indexed and `debug_assert!`ed where the SIMD kernels take raw pointers
/// into it (`(kc−1)·ldb + j_hi ≤ b.len()` per block).
#[allow(clippy::too_many_arguments)]
unsafe fn sweep(
    path: KernelPath,
    op_b: Trans,
    m: usize,
    k: usize,
    abuf: &[f64],
    mr: usize,
    b: &[f64],
    ldb: usize,
    c: CView,
    j_lo: usize,
    j_hi: usize,
) {
    debug_assert!(c.holds(m, j_hi), "sweep: C columns");
    let m_panels = m.div_ceil(mr);
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let abuf = &abuf[m_panels * mr * p0..][..m_panels * kc * mr];
        // Row-major B is read in place, from its block row on, by the SIMD
        // paths and the small-`m` scalar edge kernel; everything else
        // (transposed B, scalar with several A panels) packs strips.
        // SAFETY (all arms): the caller's ownership of C columns
        // `j_lo..j_hi`, forwarded; `abuf` holds this block's `ceil(m/mr)`
        // panels; SIMD paths are feature-checked at selection time.
        match (op_b, path) {
            (Trans::N, KernelPath::Scalar) if m <= MR => unsafe {
                scalar_edge_block(m, abuf, kc, &b[p0 * ldb..], ldb, c, j_lo, j_hi)
            },
            #[cfg(target_arch = "x86_64")]
            (Trans::N, KernelPath::Avx512) => unsafe {
                crate::simd::direct_block_512(abuf, mr, m, kc, &b[p0 * ldb..], ldb, c, j_lo, j_hi)
            },
            _ => unsafe { packed_block(path, op_b, m, abuf, mr, kc, p0, b, ldb, c, j_lo, j_hi) },
        }
    }
}

/// Books one product in [`crate::perf`] — `samples` multiplications of
/// `m × k` by `k × n` that started at `t0` and copied `packed_elems` values
/// into kernel layout — as a single GEMM call (and a single trace instant).
/// The convolution passes book themselves as the products they replaced:
/// forward and input-gradient once per mini-batch, weight-gradient once per
/// sample.
pub(crate) fn record_product(
    t0: Instant,
    samples: usize,
    m: usize,
    k: usize,
    n: usize,
    packed_elems: usize,
) {
    perf::record_gemm(
        2 * (samples as u64) * (m as u64) * (k as u64) * (n as u64),
        (packed_elems * std::mem::size_of::<f64>()) as u64,
        t0.elapsed().as_nanos() as u64,
        kernel_path() != KernelPath::Scalar,
    );
}

/// The driver behind every public product: `C += op_a(A) · op_b(B)` on whole
/// row-major operands, timed and recorded. A is packed once into this
/// thread's `A_BUF`, then the work fans out over [`crate::pool`], one chunk
/// per [`NC`]-column range of C — chunks write disjoint columns and the
/// per-element operation order does not depend on the partition, so every
/// thread budget produces identical bits.
#[allow(clippy::too_many_arguments)]
fn gemm_driver(
    op_a: Trans,
    op_b: Trans,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    if m == 0 || n == 0 {
        return;
    }
    let t0 = Instant::now();
    let path = kernel_path();
    let (lda, ldb) = (
        if op_a == Trans::N { k } else { m },
        if op_b == Trans::N { n } else { k },
    );
    let c = CView::new(c, n);
    A_BUF.with(|ab| {
        let mut abuf = ab.borrow_mut();
        let mr = panel_rows(path, m);
        pack_a(path, op_a, m, k, a, lda, mr, &mut abuf);
        let abuf: &[f64] = &abuf;
        pool::run(n.div_ceil(NC), &|ci| {
            let j_lo = ci * NC;
            let j_hi = (j_lo + NC).min(n);
            // SAFETY: chunk `ci` owns columns `j_lo..j_hi` alone, and they
            // lie inside `c` (the public entry points assert its length).
            unsafe { sweep(path, op_b, m, k, abuf, mr, b, ldb, c, j_lo, j_hi) };
        });
        // A always; B when it is transposed or the scalar path sees more
        // than one A panel (`sweep`'s packed-strip arm).
        let packs_b = op_b == Trans::T || (path == KernelPath::Scalar && m > MR);
        let packed = m.div_ceil(mr) * mr * k + usize::from(packs_b) * n.div_ceil(NR) * NR * k;
        record_product(t0, 1, m, k, n, packed);
    });
}

/// `C += A * B` on flat row-major buffers.
///
/// `a` is `m × k`, `b` is `k × n`, `c` is `m × n`. Accumulates into `c`
/// (callers wanting a plain product must zero `c` first).
///
/// # Panics
/// If any buffer length disagrees with the given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(c.len(), m * n, "gemm: C length");
    gemm_driver(Trans::N, Trans::N, m, k, n, a, b, c);
}

/// `C += Aᵀ * B` on flat row-major buffers, without materializing `Aᵀ`.
///
/// `a` is `k × m` (so `aᵀ` is `m × k`), `b` is `k × n`, `c` is `m × n`.
/// This is the shape needed by the convolution input-gradient pass.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), k * m, "gemm_tn: A length");
    assert_eq!(b.len(), k * n, "gemm_tn: B length");
    assert_eq!(c.len(), m * n, "gemm_tn: C length");
    gemm_driver(Trans::T, Trans::N, m, k, n, a, b, c);
}

/// `C += A * Bᵀ` on flat row-major buffers, without materializing `Bᵀ`.
///
/// `a` is `m × k`, `b` is `n × k`, `c` is `m × n`. Used by the convolution
/// weight-gradient pass.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A length");
    assert_eq!(b.len(), n * k, "gemm_nt: B length");
    assert_eq!(c.len(), m * n, "gemm_nt: C length");
    gemm_driver(Trans::N, Trans::T, m, k, n, a, b, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference triple loop, no blocking.
    fn naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
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
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (65, 64, 63),
            (130, 17, 70),
            // Exercise micro-tile edges and KC-block boundaries.
            (4, 8, 8),
            (5, 256, 9),
            (7, 300, 17),
            (1, 513, 1),
            // Tile-width edges of the SIMD paths (16-col tiles, 8-row panels).
            (8, 64, 16),
            (9, 300, 33),
            (16, 150, 47),
        ] {
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
        // Explicit Aᵀ.
        let mut at = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                at[i * k + p] = a[p * m + i];
            }
        }
        let r = naive(m, k, n, &at, &b);
        let mut c = vec![0.0; m * n];
        gemm_tn(m, k, n, &a, &b, &mut c);
        crate::assert_slice_close(&c, &r, 1e-10, 1e-10, "gemm_tn");
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let (m, k, n) = (6, 10, 8);
        let a = det_fill(m * k, 5);
        let b = det_fill(n * k, 6); // n × k
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let r = naive(m, k, n, &a, &bt);
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
        assert!(spent.bytes_packed > 0);
        if kernel_path() != KernelPath::Scalar {
            assert_eq!(spent.simd_calls, 1);
        }
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
