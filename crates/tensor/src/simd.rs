//! Explicit SIMD micro-kernels for the GEMM driver (`x86_64` only).
//!
//! Two instruction-set tiers, selected at runtime by [`crate::gemm`]:
//!
//! * **AVX-512** — the primary path. Row-major B (`Trans::N`) is consumed
//!   *in place* ("direct-B"): profiling showed packing B costs as much as
//!   all the FMA work at this workspace's shapes (m ≤ 16), so the micro-
//!   kernel reads 16-column B rows straight from the operand with stride
//!   `n`, and only A is packed. Full tiles run an `8 × 16` kernel (16 zmm
//!   accumulators); the column remainder uses masked loads/stores; `m ≤ 4`
//!   shapes run a dedicated 4-row kernel so the register file is not wasted
//!   on zero padding (the old scalar `small_m` cliff, ISSUE 6 satellite 1).
//! * **AVX2+FMA** — compatibility fallback with the same structure at
//!   `4 × 8` tiles and `maskload`/`maskstore` edges.
//!
//! Transposed B (`Trans::T`) keeps the packed-strip scheme — packing *is*
//! the transpose — with SIMD kernels consuming one `NR`-interleaved strip
//! per step.
//!
//! **Bitwise contract with the scalar path:** every output element is
//! accumulated from 0.0 in a `p`-ascending chain of fused multiply-adds and
//! added into C exactly once per KC block — the same chain the scalar
//! micro-kernel executes — so scalar and SIMD paths (and every tile width)
//! produce bit-identical results. `tests/kernel_paths.rs` asserts exact
//! equality.
//!
//! C is addressed through a [`CView`] (raw base pointer, valid length, row
//! stride) rather than `&mut` slices, so concurrent pool chunks — which own
//! disjoint column ranges of the same rows — never materialize overlapping
//! mutable references. B and C each carry their own row stride (`ldb`,
//! `c.ld`): either may be a column window of a wider matrix, which is how
//! the convolution passes multiply one im2col panel straight into a column
//! range of the output. Every kernel `debug_assert!`s the last B and C
//! element it may touch, so the test profile (debug assertions on) checks
//! the stride arithmetic over every ragged shape the suites run.

#![cfg(target_arch = "x86_64")]

use crate::gemm::CView;
use std::arch::x86_64::*;

/// Columns per full AVX-512 direct tile (two zmm vectors).
pub(crate) const TILE_512: usize = 16;
/// Columns per full AVX2 direct tile (two ymm vectors).
pub(crate) const TILE_AVX2: usize = 8;

// ---------------------------------------------------------------------------
// AVX-512: packing
// ---------------------------------------------------------------------------

/// Transposes one 8×8 block held in registers (row r, element p → output
/// vector p, lane r): unpack pairs, then two `permutex2var` rounds.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose8x8(r: [__m512d; 8]) -> [__m512d; 8] {
    let t0 = _mm512_unpacklo_pd(r[0], r[1]);
    let t1 = _mm512_unpackhi_pd(r[0], r[1]);
    let t2 = _mm512_unpacklo_pd(r[2], r[3]);
    let t3 = _mm512_unpackhi_pd(r[2], r[3]);
    let t4 = _mm512_unpacklo_pd(r[4], r[5]);
    let t5 = _mm512_unpackhi_pd(r[4], r[5]);
    let t6 = _mm512_unpacklo_pd(r[6], r[7]);
    let t7 = _mm512_unpackhi_pd(r[6], r[7]);
    let idx_lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    let idx_hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    let u0 = _mm512_permutex2var_pd(t0, idx_lo, t2);
    let u1 = _mm512_permutex2var_pd(t1, idx_lo, t3);
    let u2 = _mm512_permutex2var_pd(t0, idx_hi, t2);
    let u3 = _mm512_permutex2var_pd(t1, idx_hi, t3);
    let u4 = _mm512_permutex2var_pd(t4, idx_lo, t6);
    let u5 = _mm512_permutex2var_pd(t5, idx_lo, t7);
    let u6 = _mm512_permutex2var_pd(t4, idx_hi, t6);
    let u7 = _mm512_permutex2var_pd(t5, idx_hi, t7);
    let idx_l = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    let idx_h = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    [
        _mm512_permutex2var_pd(u0, idx_l, u4),
        _mm512_permutex2var_pd(u1, idx_l, u5),
        _mm512_permutex2var_pd(u2, idx_l, u6),
        _mm512_permutex2var_pd(u3, idx_l, u7),
        _mm512_permutex2var_pd(u0, idx_h, u4),
        _mm512_permutex2var_pd(u1, idx_h, u5),
        _mm512_permutex2var_pd(u2, idx_h, u6),
        _mm512_permutex2var_pd(u3, idx_h, u7),
    ]
}

/// Vectorized A packing for one *full* 8-row `Trans::N` panel: rows
/// `i0..i0+8`, shared columns `p0..p0+kc` of the row-major matrix `a`
/// (row stride `lda`), written `p`-major into `panel` (element `(p, r)` at
/// `p*8 + r`). 8×8 blocks transpose in registers; the `kc % 8` tail falls
/// back to scalar stores. Pure data movement — bit-identical to the scalar
/// packer.
///
/// # Safety
/// Requires AVX-512F. All 8 source rows must exist
/// (`(i0+7)·lda + p0 + kc ≤ a.len()`) and `panel` must hold at least
/// `kc * 8` elements; both are `debug_assert!`ed.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn pack_a8_n_512(
    a: &[f64],
    lda: usize,
    i0: usize,
    p0: usize,
    kc: usize,
    panel: &mut [f64],
) {
    debug_assert!(panel.len() >= kc * 8);
    debug_assert!((i0 + 7) * lda + p0 + kc <= a.len());
    // SAFETY: in bounds by the assertion above.
    let base = unsafe { a.as_ptr().add(i0 * lda + p0) };
    let out = panel.as_mut_ptr();
    let mut p = 0;
    while p + 8 <= kc {
        // SAFETY: rows i0..i0+8, columns p0+p..p0+p+8 are in bounds.
        unsafe {
            let rows = [
                _mm512_loadu_pd(base.add(p)),
                _mm512_loadu_pd(base.add(lda + p)),
                _mm512_loadu_pd(base.add(2 * lda + p)),
                _mm512_loadu_pd(base.add(3 * lda + p)),
                _mm512_loadu_pd(base.add(4 * lda + p)),
                _mm512_loadu_pd(base.add(5 * lda + p)),
                _mm512_loadu_pd(base.add(6 * lda + p)),
                _mm512_loadu_pd(base.add(7 * lda + p)),
            ];
            let cols = transpose8x8(rows);
            _mm512_storeu_pd(out.add(p * 8), cols[0]);
            _mm512_storeu_pd(out.add((p + 1) * 8), cols[1]);
            _mm512_storeu_pd(out.add((p + 2) * 8), cols[2]);
            _mm512_storeu_pd(out.add((p + 3) * 8), cols[3]);
            _mm512_storeu_pd(out.add((p + 4) * 8), cols[4]);
            _mm512_storeu_pd(out.add((p + 5) * 8), cols[5]);
            _mm512_storeu_pd(out.add((p + 6) * 8), cols[6]);
            _mm512_storeu_pd(out.add((p + 7) * 8), cols[7]);
        }
        p += 8;
    }
    while p < kc {
        for r in 0..8 {
            panel[p * 8 + r] = a[(i0 + r) * lda + p0 + p];
        }
        p += 1;
    }
}

// ---------------------------------------------------------------------------
// AVX-512: direct-B kernels (Trans::N)
// ---------------------------------------------------------------------------

/// Direct-B full tile: `MR` rows × [`TILE_512`] columns, B read in place.
/// `b` starts at B's block row (`b[p*ldb + j]` is element `(p0+p, j)`).
///
/// # Safety
/// Requires AVX-512F; `ap` holds a `kc × MR` panel. Stride contract: B rows
/// are `ldb` apart and C rows `c.ld` apart, the tile reads
/// `b[p·ldb + j0 .. +16]` for `p < kc` and updates
/// `c[(i0+r)·c.ld + j0 .. +16]` for `r < mr_eff`, so
/// `(kc−1)·ldb + j0+16 ≤ b.len()` and `(i0+mr_eff−1)·c.ld + j0+16 ≤ c.len`
/// must hold (both `debug_assert!`ed); the C tile is exclusively owned.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_full_512<const MR: usize>(
    ap: &[f64],
    b: &[f64],
    ldb: usize,
    kc: usize,
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
) {
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(kc == 0 || (kc - 1) * ldb + j0 + TILE_512 <= b.len());
    debug_assert!(c.holds(i0 + mr_eff, j0 + TILE_512));
    let mut acc0 = [_mm512_setzero_pd(); MR];
    let mut acc1 = [_mm512_setzero_pd(); MR];
    let mut a = ap.as_ptr();
    let mut bp = b.as_ptr().wrapping_add(j0);
    for _ in 0..kc {
        // SAFETY: row `p` of the tile ends at `p·ldb + j0+16 ≤ b.len()`
        // (asserted above); `ap` holds `kc` steps of `MR`; the r-loop
        // unrolls fully (MR is const).
        unsafe {
            let bv0 = _mm512_loadu_pd(bp);
            let bv1 = _mm512_loadu_pd(bp.add(8));
            for r in 0..MR {
                let av = _mm512_set1_pd(*a.add(r));
                acc0[r] = _mm512_fmadd_pd(av, bv0, acc0[r]);
                acc1[r] = _mm512_fmadd_pd(av, bv1, acc1[r]);
            }
            a = a.add(MR);
            bp = bp.wrapping_add(ldb);
        }
    }
    for r in 0..mr_eff {
        // SAFETY: this tile owns C rows i0..i0+mr_eff, columns j0..j0+16,
        // all inside `c` (asserted above).
        unsafe {
            let cp = c.ptr.add((i0 + r) * c.ld + j0);
            _mm512_storeu_pd(cp, _mm512_add_pd(_mm512_loadu_pd(cp), acc0[r]));
            _mm512_storeu_pd(
                cp.add(8),
                _mm512_add_pd(_mm512_loadu_pd(cp.add(8)), acc1[r]),
            );
        }
    }
}

/// Direct-B edge tile: `MR` rows × `nr_eff < 16` columns via masked
/// loads/stores — no scalar remainder loop, no out-of-bounds touches.
///
/// # Safety
/// As [`direct_full_512`] with `nr_eff` in place of 16: the masks keep every
/// access inside columns `j0..j0+nr_eff`, so
/// `(kc−1)·ldb + j0+nr_eff ≤ b.len()` and
/// `(i0+mr_eff−1)·c.ld + j0+nr_eff ≤ c.len` (both `debug_assert!`ed).
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_edge_512<const MR: usize>(
    ap: &[f64],
    b: &[f64],
    ldb: usize,
    kc: usize,
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(kc == 0 || (kc - 1) * ldb + j0 + nr_eff <= b.len());
    debug_assert!(c.holds(i0 + mr_eff, j0 + nr_eff));
    let w0 = nr_eff.min(8);
    let w1 = nr_eff - w0;
    let m0: __mmask8 = (1u16 << w0).wrapping_sub(1) as __mmask8;
    let m1: __mmask8 = (1u16 << w1).wrapping_sub(1) as __mmask8;
    let mut acc0 = [_mm512_setzero_pd(); MR];
    let mut acc1 = [_mm512_setzero_pd(); MR];
    let mut a = ap.as_ptr();
    let mut bp = b.as_ptr().wrapping_add(j0);
    for _ in 0..kc {
        // SAFETY: masked lanes never touch memory beyond column j0+nr_eff,
        // which is inside `b` for every row of the block (asserted above).
        unsafe {
            let bv0 = _mm512_maskz_loadu_pd(m0, bp);
            let bv1 = if w1 > 0 {
                _mm512_maskz_loadu_pd(m1, bp.add(8))
            } else {
                _mm512_setzero_pd()
            };
            for r in 0..MR {
                let av = _mm512_set1_pd(*a.add(r));
                acc0[r] = _mm512_fmadd_pd(av, bv0, acc0[r]);
                acc1[r] = _mm512_fmadd_pd(av, bv1, acc1[r]);
            }
            a = a.add(MR);
            bp = bp.wrapping_add(ldb);
        }
    }
    for r in 0..mr_eff {
        // SAFETY: masked read-modify-write of the owned C edge tile, inside
        // `c` (asserted above).
        unsafe {
            let cp = c.ptr.add((i0 + r) * c.ld + j0);
            let prev0 = _mm512_maskz_loadu_pd(m0, cp);
            _mm512_mask_storeu_pd(cp, m0, _mm512_add_pd(prev0, acc0[r]));
            if w1 > 0 {
                let prev1 = _mm512_maskz_loadu_pd(m1, cp.add(8));
                _mm512_mask_storeu_pd(cp.add(8), m1, _mm512_add_pd(prev1, acc1[r]));
            }
        }
    }
}

/// Direct-B sweep of C columns `j_lo..j_hi` for one KC block on the AVX-512
/// path: full 16-wide tiles, then one masked edge column group. `mr` is the
/// packed panel height (8, or 4 for small-`m` shapes).
///
/// # Safety
/// Requires AVX-512F; `abuf` holds `ceil(m/mr)` packed `kc × mr` panels.
/// Stride contract: `b` starts at B's block row with rows `ldb` apart, C
/// rows are `c.ld` apart, and the last elements touched are
/// `b[(kc−1)·ldb + j_hi − 1]` and `c[(m−1)·c.ld + j_hi − 1]` — both must be
/// in bounds (`debug_assert!`ed); the caller owns C columns `j_lo..j_hi`
/// exclusively.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn direct_block_512(
    abuf: &[f64],
    mr: usize,
    m: usize,
    kc: usize,
    b: &[f64],
    ldb: usize,
    c: CView,
    j_lo: usize,
    j_hi: usize,
) {
    debug_assert!(mr == 8 || mr == 4);
    debug_assert!(kc == 0 || (kc - 1) * ldb + j_hi <= b.len());
    debug_assert!(c.holds(m, j_hi));
    let m_panels = m.div_ceil(mr);
    let mut j0 = j_lo;
    while j0 + TILE_512 <= j_hi {
        for ip in 0..m_panels {
            let ap = &abuf[ip * kc * mr..][..kc * mr];
            let (i0, mr_eff) = (ip * mr, mr.min(m - ip * mr));
            // SAFETY: `j0 + 16 ≤ j_hi` and `i0 + mr_eff ≤ m`, so the tile
            // is inside the block bounds asserted above.
            unsafe {
                if mr == 8 {
                    direct_full_512::<8>(ap, b, ldb, kc, c, i0, j0, mr_eff);
                } else {
                    direct_full_512::<4>(ap, b, ldb, kc, c, i0, j0, mr_eff);
                }
            }
        }
        j0 += TILE_512;
    }
    if j0 < j_hi {
        let nr_eff = j_hi - j0;
        for ip in 0..m_panels {
            let ap = &abuf[ip * kc * mr..][..kc * mr];
            let (i0, mr_eff) = (ip * mr, mr.min(m - ip * mr));
            // SAFETY: masked edge stays within columns j0..j_hi.
            unsafe {
                if mr == 8 {
                    direct_edge_512::<8>(ap, b, ldb, kc, c, i0, j0, mr_eff, nr_eff);
                } else {
                    direct_edge_512::<4>(ap, b, ldb, kc, c, i0, j0, mr_eff, nr_eff);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512: packed-strip kernel (Trans::T)
// ---------------------------------------------------------------------------

/// Packed-strip tile on AVX-512: `MR` rows × one NR=8-wide packed strip
/// (one zmm load per shared step). Edge columns use a masked C
/// read-modify-write; the zero-padded strip keeps dead accumulator lanes
/// at exactly 0.0.
///
/// # Safety
/// Requires AVX-512F; `ap` is a `kc × MR` panel, `strip` a `kc × 8` packed
/// strip (both `debug_assert!`ed). Stride contract: C rows are `c.ld` apart
/// and the tile updates `c[(i0+r)·c.ld + j0 .. +nr_eff]` for `r < mr_eff`,
/// so `(i0+mr_eff−1)·c.ld + j0+nr_eff ≤ c.len` (`debug_assert!`ed); the
/// caller owns that tile exclusively.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn packed_micro_512<const MR: usize>(
    ap: &[f64],
    strip: &[f64],
    kc: usize,
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    debug_assert!(ap.len() >= kc * MR && strip.len() >= kc * 8);
    debug_assert!(c.holds(i0 + mr_eff, j0 + nr_eff));
    let mut acc = [_mm512_setzero_pd(); MR];
    let mut a = ap.as_ptr();
    let mut bp = strip.as_ptr();
    for _ in 0..kc {
        // SAFETY: panel and strip both hold kc steps.
        unsafe {
            let bv = _mm512_loadu_pd(bp);
            for r in 0..MR {
                let av = _mm512_set1_pd(*a.add(r));
                acc[r] = _mm512_fmadd_pd(av, bv, acc[r]);
            }
            a = a.add(MR);
            bp = bp.add(8);
        }
    }
    if nr_eff == 8 {
        for r in 0..mr_eff {
            // SAFETY: full-width owned C tile, inside `c` (asserted above).
            unsafe {
                let cp = c.ptr.add((i0 + r) * c.ld + j0);
                _mm512_storeu_pd(cp, _mm512_add_pd(_mm512_loadu_pd(cp), acc[r]));
            }
        }
    } else {
        let mask: __mmask8 = (1u16 << nr_eff).wrapping_sub(1) as __mmask8;
        for r in 0..mr_eff {
            // SAFETY: masked lanes stay within the owned C edge.
            unsafe {
                let cp = c.ptr.add((i0 + r) * c.ld + j0);
                let prev = _mm512_maskz_loadu_pd(mask, cp);
                _mm512_mask_storeu_pd(cp, mask, _mm512_add_pd(prev, acc[r]));
            }
        }
    }
}

/// Panel-height dispatch for [`packed_micro_512`].
///
/// # Safety
/// As [`packed_micro_512`]; `mr` must be 8 or 4 and match `ap`'s layout.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn packed_strip_512(
    ap: &[f64],
    mr: usize,
    strip: &[f64],
    kc: usize,
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    debug_assert!(mr == 8 || mr == 4);
    // SAFETY: forwarded caller contract.
    unsafe {
        if mr == 8 {
            packed_micro_512::<8>(ap, strip, kc, c, i0, j0, mr_eff, nr_eff);
        } else {
            packed_micro_512::<4>(ap, strip, kc, c, i0, j0, mr_eff, nr_eff);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA
// ---------------------------------------------------------------------------

/// Lane mask for `_mm256_maskload_pd`/`_mm256_maskstore_pd`: the first
/// `w ∈ 1..=4` lanes active.
#[target_feature(enable = "avx2")]
unsafe fn mask4(w: usize) -> __m256i {
    match w {
        1 => _mm256_setr_epi64x(-1, 0, 0, 0),
        2 => _mm256_setr_epi64x(-1, -1, 0, 0),
        3 => _mm256_setr_epi64x(-1, -1, -1, 0),
        _ => _mm256_setr_epi64x(-1, -1, -1, -1),
    }
}

/// Direct-B full tile on AVX2: 4 rows × [`TILE_AVX2`] columns (two ymm
/// accumulator columns), B read in place with row stride `ldb`.
///
/// # Safety
/// Requires AVX2+FMA; `ap` holds a `kc × 4` panel. Stride contract as
/// [`direct_full_512`] at 8 columns: `(kc−1)·ldb + j0+8 ≤ b.len()` and
/// `(i0+mr_eff−1)·c.ld + j0+8 ≤ c.len` (both `debug_assert!`ed); the C tile
/// is exclusively owned.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_full_avx2(
    ap: &[f64],
    b: &[f64],
    ldb: usize,
    kc: usize,
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
) {
    const MR: usize = 4;
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(kc == 0 || (kc - 1) * ldb + j0 + TILE_AVX2 <= b.len());
    debug_assert!(c.holds(i0 + mr_eff, j0 + TILE_AVX2));
    let mut acc0 = [_mm256_setzero_pd(); MR];
    let mut acc1 = [_mm256_setzero_pd(); MR];
    let mut a = ap.as_ptr();
    let mut bp = b.as_ptr().wrapping_add(j0);
    for _ in 0..kc {
        // SAFETY: row `p` of the tile ends at `p·ldb + j0+8 ≤ b.len()`
        // (asserted above); `ap` holds `kc` steps of 4.
        unsafe {
            let bv0 = _mm256_loadu_pd(bp);
            let bv1 = _mm256_loadu_pd(bp.add(4));
            for r in 0..MR {
                let av = _mm256_set1_pd(*a.add(r));
                acc0[r] = _mm256_fmadd_pd(av, bv0, acc0[r]);
                acc1[r] = _mm256_fmadd_pd(av, bv1, acc1[r]);
            }
            a = a.add(MR);
            bp = bp.wrapping_add(ldb);
        }
    }
    for r in 0..mr_eff {
        // SAFETY: owned C tile, inside `c` (asserted above).
        unsafe {
            let cp = c.ptr.add((i0 + r) * c.ld + j0);
            _mm256_storeu_pd(cp, _mm256_add_pd(_mm256_loadu_pd(cp), acc0[r]));
            _mm256_storeu_pd(
                cp.add(4),
                _mm256_add_pd(_mm256_loadu_pd(cp.add(4)), acc1[r]),
            );
        }
    }
}

/// Direct-B edge tile on AVX2: 4 rows × `nr_eff < 8` columns via
/// `maskload`/`maskstore`.
///
/// # Safety
/// As [`direct_full_avx2`] with `nr_eff` in place of 8: the masks keep every
/// access inside columns `j0..j0+nr_eff`, so
/// `(kc−1)·ldb + j0+nr_eff ≤ b.len()` and
/// `(i0+mr_eff−1)·c.ld + j0+nr_eff ≤ c.len` (both `debug_assert!`ed).
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_edge_avx2(
    ap: &[f64],
    b: &[f64],
    ldb: usize,
    kc: usize,
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    const MR: usize = 4;
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(kc == 0 || (kc - 1) * ldb + j0 + nr_eff <= b.len());
    debug_assert!(c.holds(i0 + mr_eff, j0 + nr_eff));
    let w0 = nr_eff.min(4);
    let w1 = nr_eff - w0;
    let m0 = unsafe { mask4(w0) };
    let mut acc0 = [_mm256_setzero_pd(); MR];
    let mut acc1 = [_mm256_setzero_pd(); MR];
    let mut a = ap.as_ptr();
    let mut bp = b.as_ptr().wrapping_add(j0);
    for _ in 0..kc {
        // SAFETY: masked lanes never read beyond column j0+nr_eff, which is
        // inside `b` for every row of the block (asserted above).
        unsafe {
            let bv0 = _mm256_maskload_pd(bp, m0);
            let bv1 = if w1 > 0 {
                _mm256_maskload_pd(bp.add(4), mask4(w1))
            } else {
                _mm256_setzero_pd()
            };
            for r in 0..MR {
                let av = _mm256_set1_pd(*a.add(r));
                acc0[r] = _mm256_fmadd_pd(av, bv0, acc0[r]);
                acc1[r] = _mm256_fmadd_pd(av, bv1, acc1[r]);
            }
            a = a.add(MR);
            bp = bp.wrapping_add(ldb);
        }
    }
    for r in 0..mr_eff {
        // SAFETY: masked read-modify-write of the owned C edge, inside `c`
        // (asserted above).
        unsafe {
            let cp = c.ptr.add((i0 + r) * c.ld + j0);
            let prev0 = _mm256_maskload_pd(cp, m0);
            _mm256_maskstore_pd(cp, m0, _mm256_add_pd(prev0, acc0[r]));
            if w1 > 0 {
                let m1 = mask4(w1);
                let prev1 = _mm256_maskload_pd(cp.add(4), m1);
                _mm256_maskstore_pd(cp.add(4), m1, _mm256_add_pd(prev1, acc1[r]));
            }
        }
    }
}

/// Direct-B sweep of C columns `j_lo..j_hi` on the AVX2 path (4-row panels,
/// 8-wide tiles, masked edge).
///
/// # Safety
/// Requires AVX2+FMA; `abuf` holds `ceil(m/4)` packed `kc × 4` panels.
/// Stride contract as [`direct_block_512`]: `b` starts at B's block row with
/// rows `ldb` apart, C rows are `c.ld` apart, and
/// `(kc−1)·ldb + j_hi ≤ b.len()`, `(m−1)·c.ld + j_hi ≤ c.len` (both
/// `debug_assert!`ed); the caller owns C columns `j_lo..j_hi` exclusively.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn direct_block_avx2(
    abuf: &[f64],
    m: usize,
    kc: usize,
    b: &[f64],
    ldb: usize,
    c: CView,
    j_lo: usize,
    j_hi: usize,
) {
    const MR: usize = 4;
    debug_assert!(kc == 0 || (kc - 1) * ldb + j_hi <= b.len());
    debug_assert!(c.holds(m, j_hi));
    let m_panels = m.div_ceil(MR);
    let mut j0 = j_lo;
    while j0 + TILE_AVX2 <= j_hi {
        for ip in 0..m_panels {
            let ap = &abuf[ip * kc * MR..][..kc * MR];
            // SAFETY: `j0 + 8 ≤ j_hi` and the panel's rows are below `m`,
            // so the tile is inside the block bounds asserted above.
            unsafe {
                direct_full_avx2(ap, b, ldb, kc, c, ip * MR, j0, MR.min(m - ip * MR));
            }
        }
        j0 += TILE_AVX2;
    }
    if j0 < j_hi {
        let nr_eff = j_hi - j0;
        for ip in 0..m_panels {
            let ap = &abuf[ip * kc * MR..][..kc * MR];
            // SAFETY: masked edge stays within columns j0..j_hi.
            unsafe {
                direct_edge_avx2(ap, b, ldb, kc, c, ip * MR, j0, MR.min(m - ip * MR), nr_eff);
            }
        }
    }
}

/// Packed-strip tile on AVX2: 4 rows × one NR=8-wide packed strip (two ymm
/// strip loads per shared step).
///
/// # Safety
/// Requires AVX2+FMA; `ap` is a `kc × 4` panel, `strip` a `kc × 8` packed
/// strip (both `debug_assert!`ed). Stride contract as
/// [`packed_micro_512`]: `(i0+mr_eff−1)·c.ld + j0+nr_eff ≤ c.len`
/// (`debug_assert!`ed); the caller owns that C tile exclusively.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn packed_strip_avx2(
    ap: &[f64],
    strip: &[f64],
    kc: usize,
    c: CView,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    const MR: usize = 4;
    debug_assert!(ap.len() >= kc * MR && strip.len() >= kc * 8);
    debug_assert!(c.holds(i0 + mr_eff, j0 + nr_eff));
    let mut acc0 = [_mm256_setzero_pd(); MR];
    let mut acc1 = [_mm256_setzero_pd(); MR];
    let mut a = ap.as_ptr();
    let mut bp = strip.as_ptr();
    for _ in 0..kc {
        // SAFETY: panel and strip both hold kc steps.
        unsafe {
            let bv0 = _mm256_loadu_pd(bp);
            let bv1 = _mm256_loadu_pd(bp.add(4));
            for r in 0..MR {
                let av = _mm256_set1_pd(*a.add(r));
                acc0[r] = _mm256_fmadd_pd(av, bv0, acc0[r]);
                acc1[r] = _mm256_fmadd_pd(av, bv1, acc1[r]);
            }
            a = a.add(MR);
            bp = bp.add(8);
        }
    }
    if nr_eff == 8 {
        for r in 0..mr_eff {
            // SAFETY: full-width owned C tile, inside `c` (asserted above).
            unsafe {
                let cp = c.ptr.add((i0 + r) * c.ld + j0);
                _mm256_storeu_pd(cp, _mm256_add_pd(_mm256_loadu_pd(cp), acc0[r]));
                _mm256_storeu_pd(
                    cp.add(4),
                    _mm256_add_pd(_mm256_loadu_pd(cp.add(4)), acc1[r]),
                );
            }
        }
    } else {
        let w0 = nr_eff.min(4);
        let w1 = nr_eff - w0;
        for r in 0..mr_eff {
            // SAFETY: masked read-modify-write of the owned C edge.
            unsafe {
                let cp = c.ptr.add((i0 + r) * c.ld + j0);
                let m0 = mask4(w0);
                let prev0 = _mm256_maskload_pd(cp, m0);
                _mm256_maskstore_pd(cp, m0, _mm256_add_pd(prev0, acc0[r]));
                if w1 > 0 {
                    let m1 = mask4(w1);
                    let prev1 = _mm256_maskload_pd(cp.add(4), m1);
                    _mm256_maskstore_pd(cp.add(4), m1, _mm256_add_pd(prev1, acc1[r]));
                }
            }
        }
    }
}
