//! Explicit AVX-512 kernels for the three convolution passes (`x86_64`
//! only), selected at runtime by [`crate::gemm::kernel_path`]; a CPU without
//! AVX-512 runs the portable kernels of [`crate::conv`].
//!
//! The forward pass is one direct register tile, written once
//! (`forward_512!`) and built at f64 ([`double`], training) and f32
//! ([`single`], serving): the packed weights times two-vector rows of the
//! input (16 columns at f64, 32 at f32) read in place through a tap-offset
//! table — only the weights are packed — with lane masks for edge columns,
//! at 8, 6 or 4 rows so the register file is not wasted on zero padding,
//! and an optional LeakyReLU in its last write-back. The two
//! gradient passes have register tiles of their own
//! ([`conv_bwd_input_rows_512`], [`conv_bwd_weight_512`]) that read
//! `grad_out` / `x` in place.
//!
//! **Bitwise contract with the scalar path:** every output element is
//! accumulated from 0.0 in an ascending chain of fused multiply-adds and
//! added into its destination exactly once per KC block — the chain the
//! portable kernels and the scalar oracle in [`crate::gemm`] execute — so
//! scalar and SIMD paths (and every tile width) produce bit-identical
//! results. `tests/kernel_paths.rs` asserts exact equality.
//!
//! Outputs are addressed through a [`CView`] (raw base pointer, valid
//! length, row stride) rather than `&mut` slices, so concurrent pool chunks
//! — which own disjoint row bands or weight tiles of the same buffer —
//! never materialize overlapping mutable references. Every kernel states its
//! stride / offset contract under `# Safety` and `debug_assert!`s the first
//! and last element of each operand it may touch, so the test profile (debug
//! assertions on) checks the address arithmetic over every ragged shape the
//! suites run; loads wider than the data they are after are lane-masked.

#![cfg(target_arch = "x86_64")]

use crate::conv::{tap_lanes, BWD_WEIGHT_GROUP};
use crate::gemm::{CView, KC};
use crate::im2col::ConvGeom;
use std::arch::x86_64::*;

/// The AVX-512 forward kernel at element type `T`: [`double`]'s and
/// [`single`]'s `conv_fwd_rows_512`, reached through
/// [`crate::real::Real`].
pub(crate) type FwdRows512<T> = unsafe fn(
    &[T],
    usize,
    usize,
    &[usize],
    &[T],
    usize,
    &[T],
    Option<T>,
    CView<T>,
    usize,
    usize,
    usize,
);

// ---------------------------------------------------------------------------
// AVX-512: the direct tile of the convolution forward pass, at f64 and f32
// ---------------------------------------------------------------------------

/// The forward pass's direct tile and row loop, written once over an
/// element type `$t` and its 512-bit vector (`$lanes` lanes, `$mask` masks,
/// the `_pd` or `_ps` intrinsics) and built twice below: [`double`] for
/// training, [`single`] for serving. A tile is two vectors wide, so 16
/// columns at f64 and 32 at f32; the chain per output element is the same
/// at both widths.
macro_rules! forward_512 {
    ($module:ident, $t:ty, $vec:ty, $mask:ty, $lanes:literal,
     $setzero:ident, $set1:ident, $loadu:ident, $storeu:ident,
     $fmadd:ident, $add:ident, $mask_mul:ident, $cmp:ident) => {
        pub(crate) mod $module {
            use super::*;

            /// Columns per full direct tile (two vectors).
            pub(crate) const TILE: usize = 2 * $lanes;
            /// Both halves' mask when every lane is live.
            const ALL: $mask = <$mask>::MAX;

            /// Lane masks of a tile's two halves when its first
            /// `nr ∈ 1..=TILE` columns are live.
            #[inline]
            pub(crate) fn tile_masks(nr: usize) -> ($mask, $mask) {
                debug_assert!((1..=TILE).contains(&nr));
                let m = (1u64 << nr) - 1;
                (m as $mask, (m >> $lanes) as $mask)
            }

            /// How a direct tile leaves its block sum `acc` in C: the forward
            /// pass starts an output row from its bias on the first KC block,
            /// adds onto it on later ones, and applies the layer's LeakyReLU
            /// on the last (one and the same block when all taps fit in
            /// [`KC`]).
            #[derive(Clone, Copy)]
            struct WriteBack<'a> {
                /// `None`: `C + acc`. `Some(v)`: `v[r] + acc` for tile row
                /// `r` (0.0 where `v` is shorter than the tile), C not read.
                init: Option<&'a [$t]>,
                /// `Some(s)`: store `z` for `z ≥ 0`, else `s·z` (NaN takes
                /// the product, as `if z >= 0.0 { z } else { s * z }` does),
                /// `z` being the sum above.
                leak: Option<$t>,
            }

            /// The direct-B register tile: `MR` rows × up to [`TILE`]
            /// columns, one FMA chain per element from 0.0 over `kc` shared
            /// steps, B read in place. `b_row(p)` is the address of B's
            /// element `(p, j0)` — `x + off[p] + oi·ld_x + j0` in the
            /// convolution forward pass — and `masks` select the live
            /// columns (all of them, `FULL`, for a full tile; `TWO` when the
            /// second half has any), so edge tiles run the same code with no
            /// scalar remainder, no out-of-bounds touch, and no FMA spent on
            /// a dead half. `wb` says how the sums reach C.
            ///
            /// # Safety
            /// Requires AVX-512F; `ap` holds a `kc × MR` panel
            /// (`debug_assert!`ed). For every `p < kc` the live columns of
            /// `b_row(p)` must be readable, and the live columns of
            /// `c + r·ldc` for `r < mr_eff` must be exclusively owned and
            /// writable; the block-level callers `debug_assert!` both ranges.
            #[inline]
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn direct_tile<const MR: usize, const FULL: bool, const TWO: bool>(
                ap: &[$t],
                kc: usize,
                b_row: impl Fn(usize) -> *const $t,
                (m0, m1): ($mask, $mask),
                c: *mut $t,
                ldc: usize,
                mr_eff: usize,
                wb: WriteBack,
            ) {
                debug_assert!(ap.len() >= kc * MR && mr_eff <= MR);
                // A full tile's masks are compile-time all-ones, which turns
                // every masked access below into a plain one.
                debug_assert!(!FULL || (m0, m1) == (ALL, ALL));
                debug_assert!(TWO == (m1 != 0));
                let (m0, m1) = if FULL { (ALL, ALL) } else { (m0, m1) };
                let mut acc0 = [$setzero(); MR];
                let mut acc1 = [$setzero(); MR];
                let mut a = ap.as_ptr();
                for p in 0..kc {
                    // SAFETY: masked lanes touch no memory, live ones are
                    // readable (caller contract); a dead upper half is not
                    // loaded at all, so no masked-out load sits on a page
                    // the tile never reaches. `ap` holds `kc` steps of `MR`;
                    // the r-loop unrolls (MR is const).
                    unsafe {
                        let bp = b_row(p);
                        let bv0 = $loadu(m0, bp);
                        let bv1 = if TWO {
                            $loadu(m1, bp.wrapping_add($lanes))
                        } else {
                            $setzero()
                        };
                        for r in 0..MR {
                            let av = $set1(*a.add(r));
                            acc0[r] = $fmadd(av, bv0, acc0[r]);
                            if TWO {
                                acc1[r] = $fmadd(av, bv1, acc1[r]);
                            }
                        }
                        a = a.add(MR);
                    }
                }
                let leaky = |z: $vec| match wb.leak {
                    Some(s) => {
                        let not_ge = $cmp::<_CMP_NGE_UQ>(z, $setzero());
                        $mask_mul(z, not_ge, $set1(s), z)
                    }
                    None => z,
                };
                for r in 0..mr_eff {
                    // SAFETY: masked read-modify-write (or plain write) of
                    // the owned C tile's live columns (caller contract).
                    unsafe {
                        let cp = c.add(r * ldc);
                        let (prev0, prev1) = match wb.init {
                            Some(v) => {
                                let v = $set1(v.get(r).copied().unwrap_or(0.0));
                                (v, v)
                            }
                            None => (
                                $loadu(m0, cp),
                                if TWO {
                                    $loadu(m1, cp.add($lanes))
                                } else {
                                    $setzero()
                                },
                            ),
                        };
                        $storeu(cp, m0, leaky($add(prev0, acc0[r])));
                        if TWO {
                            $storeu(cp.add($lanes), m1, leaky($add(prev1, acc1[r])));
                        }
                    }
                }
            }

            /// Panel-height and live-half dispatch for [`direct_tile`].
            ///
            /// # Safety
            /// As [`direct_tile`]; `mr` must be 8, 6 or 4 and match `ap`'s
            /// layout.
            #[inline]
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn direct_tile_mr(
                mr: usize,
                ap: &[$t],
                kc: usize,
                b_row: impl Fn(usize) -> *const $t,
                masks: ($mask, $mask),
                c: *mut $t,
                ldc: usize,
                mr_eff: usize,
                wb: WriteBack,
            ) {
                let (full, two) = (masks == (ALL, ALL), masks.1 != 0);
                // SAFETY: forwarded caller contract.
                unsafe {
                    match (mr, full, two) {
                        (8, true, _) => {
                            direct_tile::<8, true, true>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (8, _, true) => {
                            direct_tile::<8, false, true>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (8, ..) => {
                            direct_tile::<8, false, false>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (6, true, _) => {
                            direct_tile::<6, true, true>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (6, _, true) => {
                            direct_tile::<6, false, true>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (6, ..) => {
                            direct_tile::<6, false, false>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (4, true, _) => {
                            direct_tile::<4, true, true>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (4, _, true) => {
                            direct_tile::<4, false, true>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        (4, ..) => {
                            direct_tile::<4, false, false>(ap, kc, b_row, masks, c, ldc, mr_eff, wb)
                        }
                        _ => unreachable!("direct tiles are 8, 6 or 4 rows high"),
                    }
                }
            }

            /// Convolution forward over output rows `oi_lo..oi_hi` of one
            /// sample: the [`direct_tile`] register tile with B row `p` read
            /// at `x[off[p] + oi·ld_x + oj ..]` instead of out of a lowered
            /// column matrix. Per output element: `bias`, then per KC block
            /// of taps `p` ascending one FMA chain from 0.0, added once — the
            /// chain `gemm` runs on `im2col`'s matrix — and, with
            /// `leak = Some(s)`, LeakyReLU(`s`) of that sum in the last
            /// block's write-back, so the pre-activation never reaches
            /// memory.
            ///
            /// # Safety
            /// Requires AVX-512F. `wp` is [`crate::gemm::pack_a`]'s packing
            /// of the `out_c × off.len()` weight matrix at panel height
            /// `mr ∈ {4, 6, 8}` (length `debug_assert!`ed). Offset contract:
            /// `off` is ascending, so the reads span
            /// `x[off[0] + oi_lo·ld_x]` ..= `x[off[k−1] + (oi_hi−1)·ld_x + ow−1]`,
            /// which must lie inside `x`. `y` is the sample's
            /// `out_c × (oh·ow)` output with channel stride `y.ld`; the
            /// caller owns columns `oi_lo·ow .. oi_hi·ow` of every channel
            /// exclusively, the last of them being
            /// `y[(out_c−1)·y.ld + oi_hi·ow − 1]`. All three ends are
            /// `debug_assert!`ed.
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn conv_fwd_rows_512(
                wp: &[$t],
                mr: usize,
                out_c: usize,
                off: &[usize],
                x: &[$t],
                ld_x: usize,
                bias: &[$t],
                leak: Option<$t>,
                y: CView<$t>,
                ow: usize,
                oi_lo: usize,
                oi_hi: usize,
            ) {
                let k = off.len();
                let m_panels = out_c.div_ceil(mr);
                if k == 0 || ow == 0 || oi_lo >= oi_hi {
                    return;
                }
                debug_assert!(wp.len() >= m_panels * mr * k);
                debug_assert!(off.windows(2).all(|w| w[0] < w[1]));
                debug_assert!(off[k - 1] + (oi_hi - 1) * ld_x + ow <= x.len());
                debug_assert!(y.holds(out_c, oi_hi * ow));
                for oi in oi_lo..oi_hi {
                    for j0 in (0..ow).step_by(TILE) {
                        let masks = tile_masks(TILE.min(ow - j0));
                        let x0 = x.as_ptr().wrapping_add(oi * ld_x + j0);
                        for ip in 0..m_panels {
                            let (i0, mr_eff) = (ip * mr, mr.min(out_c - ip * mr));
                            for p0 in (0..k).step_by(KC) {
                                let kc = KC.min(k - p0);
                                let ap = &wp[m_panels * mr * p0 + ip * kc * mr..][..kc * mr];
                                let off = &off[p0..p0 + kc];
                                let wb = WriteBack {
                                    init: (p0 == 0).then(|| bias.get(i0..).unwrap_or(&[])),
                                    leak: leak.filter(|_| p0 + kc == k),
                                };
                                // SAFETY: live columns `j0..` of output row
                                // `oi` for channels `i0..i0+mr_eff`, and the
                                // taps they read, all inside the ranges
                                // asserted above.
                                unsafe {
                                    let yp = y.ptr.add(i0 * y.ld + oi * ow + j0);
                                    let b_row = |p: usize| x0.wrapping_add(*off.get_unchecked(p));
                                    direct_tile_mr(mr, ap, kc, b_row, masks, yp, y.ld, mr_eff, wb);
                                }
                            }
                        }
                    }
                }
            }
        }
    };
}

forward_512!(
    double,
    f64,
    __m512d,
    __mmask8,
    8,
    _mm512_setzero_pd,
    _mm512_set1_pd,
    _mm512_maskz_loadu_pd,
    _mm512_mask_storeu_pd,
    _mm512_fmadd_pd,
    _mm512_add_pd,
    _mm512_mask_mul_pd,
    _mm512_cmp_pd_mask
);

forward_512!(
    single,
    f32,
    __m512,
    __mmask16,
    16,
    _mm512_setzero_ps,
    _mm512_set1_ps,
    _mm512_maskz_loadu_ps,
    _mm512_mask_storeu_ps,
    _mm512_fmadd_ps,
    _mm512_add_ps,
    _mm512_mask_mul_ps,
    _mm512_cmp_ps_mask
);

// ---------------------------------------------------------------------------
// AVX-512: the gradient passes, activations read in place
// ---------------------------------------------------------------------------

/// Input-gradient register tile: [`double::TILE`] input columns `jj0..` of row
/// `ii` × `TI` input channels. Two register sets: `t`, one tap's FMA chain
/// from 0.0 over `oc` ascending of `W[oc,ic,ki,kj]·go[oc, ii+pad−ki,
/// jj+pad−kj]`, and the running sum the finished `t` is added to, taps in
/// `(ki, kj)` ascending order, taps that fall outside `grad_out` skipped per
/// lane — the order `col2im` adds the columns of `Wᵀ·grad_out` in.
///
/// With `leak = Some(s)` the tile's destination holds, on entry, the
/// activation `x` the upstream LeakyReLU(`s`) stored, and the write-back
/// folds that layer's backward in: lanes with `x < 0.0` store `s·sum`, the
/// others (±0.0 and NaN included) `sum` — each `x` is read once, by the
/// store that replaces it.
///
/// # Safety
/// Requires AVX-512F. `wt` is this channel tile's `[tap][oc][TI]` weights
/// (`kh·kw·out_c·TI` values), `go` one sample's `out_c × oh × ow` gradient;
/// lanes whose tap lies outside it are masked off, never loaded. `gin`
/// points at input-gradient element `(ic0, ii, jj0)` with channel stride
/// `g.h·g.w`; the `nr` columns from there on must be exclusively owned for
/// `ic_eff ≤ TI` channels (and initialised when `leak` is given).
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_bwd_input_tile_512<const TI: usize>(
    wt: *const f64,
    g: &ConvGeom,
    out_c: usize,
    go: *const f64,
    (oh, ow): (usize, usize),
    ii: usize,
    jj0: usize,
    nr: usize,
    gin: *mut f64,
    ic_eff: usize,
    leak: Option<f64>,
) {
    let mut sum = [[_mm512_setzero_pd(); 2]; TI];
    let shift = jj0 + g.pad;
    for ki in 0..g.kh {
        let Some(oi) = (ii + g.pad).checked_sub(ki).filter(|&oi| oi < oh) else {
            continue;
        };
        for kj in 0..g.kw {
            let (lo, hi) = tap_lanes(shift, kj, ow, nr);
            if lo >= hi {
                continue;
            }
            let live = ((1u32 << hi) - 1) & !((1u32 << lo) - 1);
            let (m0, m1) = (live as __mmask8, (live >> 8) as __mmask8);
            let mut gp = go.wrapping_add(oi * ow + shift).wrapping_sub(kj);
            let mut t = [[_mm512_setzero_pd(); 2]; TI];
            // SAFETY: live lanes are columns `0..ow` of row `oi < oh` of
            // each of the `out_c` gradient planes; `wt` holds `out_c · TI`
            // weights for this tap.
            unsafe {
                let mut wp = wt.add((ki * g.kw + kj) * out_c * TI);
                for _ in 0..out_c {
                    let g0 = _mm512_maskz_loadu_pd(m0, gp);
                    let g1 = if m1 != 0 {
                        _mm512_maskz_loadu_pd(m1, gp.wrapping_add(8))
                    } else {
                        _mm512_setzero_pd()
                    };
                    for (i, t) in t.iter_mut().enumerate() {
                        let wv = _mm512_set1_pd(*wp.add(i));
                        t[0] = _mm512_fmadd_pd(wv, g0, t[0]);
                        t[1] = _mm512_fmadd_pd(wv, g1, t[1]);
                    }
                    gp = gp.wrapping_add(oh * ow);
                    wp = wp.add(TI);
                }
            }
            for (sum, t) in sum.iter_mut().zip(&t) {
                sum[0] = _mm512_mask_add_pd(sum[0], m0, sum[0], t[0]);
                sum[1] = _mm512_mask_add_pd(sum[1], m1, sum[1], t[1]);
            }
        }
    }
    let (s0, s1) = double::tile_masks(nr);
    for (i, s) in sum.iter().enumerate().take(ic_eff) {
        // SAFETY: the tile's `nr` owned columns of channel `ic0 + i`.
        unsafe {
            let p = gin.add(i * g.h * g.w);
            store_grad_512(p, s0, s[0], leak);
            if s1 != 0 {
                store_grad_512(p.add(8), s1, s[1], leak);
            }
        }
    }
}

/// Stores the `live` lanes of an input-gradient vector `v` at `p`; with
/// `leak = Some(s)`, lanes whose previous value there is `< 0.0` store `s·v`.
///
/// # Safety
/// Requires AVX-512F; the `live` lanes at `p` must be exclusively owned,
/// writable and (when `leak` is given) initialised.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn store_grad_512(p: *mut f64, live: __mmask8, v: __m512d, leak: Option<f64>) {
    // SAFETY: masked lanes touch no memory, live ones are the caller's.
    unsafe {
        let v = match leak {
            Some(s) => {
                let x = _mm512_maskz_loadu_pd(live, p);
                let neg = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, _mm512_setzero_pd());
                _mm512_mask_mul_pd(v, neg, _mm512_set1_pd(s), v)
            }
            None => v,
        };
        _mm512_mask_storeu_pd(p, live, v);
    }
}

/// Convolution input gradient over input rows `ii_lo..ii_hi` of one sample
/// (any padding): every element is computed once, in registers,
/// and written once — no column gradient, no scatter. See
/// [`conv_bwd_input_tile_512`] for the per-element order.
///
/// # Safety
/// Requires AVX-512F. `wt` is [`crate::conv`]'s input-gradient packing at
/// tile width `ti ∈ {4, 6}`: `ceil(in_c/ti)` tiles of `[tap][oc][ti]`
/// (length `debug_assert!`ed). `go` is one sample's `out_c × oh × ow`
/// gradient, first element `go[0]`, last `go[out_c·oh·ow − 1]`
/// (`debug_assert!`ed; reads outside a row are masked off). `gin` is the
/// sample's `in_c × h × w` input gradient with channel stride `gin.ld`; the
/// caller owns rows `ii_lo..ii_hi` of every channel exclusively, ending at
/// `gin[(in_c−1)·gin.ld + ii_hi·w − 1]` (`debug_assert!`ed), and with
/// `leak` given they hold the upstream activation.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn conv_bwd_input_rows_512(
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
    debug_assert!(ti == 6 || ti == 4);
    debug_assert!(wt.len() >= g.c.div_ceil(ti) * taps * out_c * ti);
    debug_assert!(go.len() == out_c * oh * ow);
    debug_assert!(gin.ld == g.h * g.w && gin.holds(g.c, ii_hi * g.w));
    for ii in ii_lo..ii_hi {
        for jj0 in (0..g.w).step_by(double::TILE) {
            let nr = double::TILE.min(g.w - jj0);
            for (tile, ic0) in (0..g.c).step_by(ti).enumerate() {
                let ic_eff = ti.min(g.c - ic0);
                // SAFETY: tile `tile`'s weights, the whole of `go`, and
                // columns `jj0..jj0+nr` of row `ii` of channels
                // `ic0..ic0+ic_eff`, inside the ranges asserted above.
                unsafe {
                    let wt = wt.as_ptr().add(tile * taps * out_c * ti);
                    let gp = gin.ptr.add(ic0 * gin.ld + ii * g.w + jj0);
                    let go = go.as_ptr();
                    let dims = (oh, ow);
                    if ti == 6 {
                        conv_bwd_input_tile_512::<6>(
                            wt, g, out_c, go, dims, ii, jj0, nr, gp, ic_eff, leak,
                        );
                    } else {
                        conv_bwd_input_tile_512::<4>(
                            wt, g, out_c, go, dims, ii, jj0, nr, gp, ic_eff, leak,
                        );
                    }
                }
            }
        }
    }
}

/// Weight-gradient register tile: `group ≤ 4` output channels × `KH` kernel
/// rows of one input channel, lanes = the `kw ≤ 8` taps of a kernel row (one
/// masked load of `x[c, oi+ki, oj ..]`), `go[oc, q]` broadcast — no lowered
/// matrix and no transpose. Per weight: per [`KC`] block of output positions
/// `q` (blocks start at `q = 0`) one FMA chain from 0.0 over `q` ascending,
/// added onto `gW` once — `gemm_nt`'s chain on `im2col`'s matrix.
///
/// # Safety
/// Requires AVX-512F and `kw ≤ 8`, `group ≤ 4`. `x` points at element
/// `(c, ki0, 0)` of the (zero-bordered) input, rows `ld_x` apart, and is
/// read at `x[(oi+ki)·ld_x + oj + kj]` for `oi < oh`, `oj < ow`, `ki < KH`,
/// `kj < kw` — lanes past `kw` are masked off, so nothing beyond the last
/// tap of the last row is touched. `go` points at plane `oc0` of one
/// sample's gradient, planes `oh·ow` apart. `gw` points at
/// `gW[oc0, c, ki0, 0]`, output channels `gw_ld` apart and kernel rows `kw`
/// apart; the `group × KH × kw` weights it addresses are exclusively owned.
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_bwd_weight_tile_512<const KH: usize>(
    x: *const f64,
    ld_x: usize,
    go: *const f64,
    group: usize,
    (oh, ow): (usize, usize),
    kw: usize,
    gw: *mut f64,
    gw_ld: usize,
) {
    let n_cols = oh * ow;
    let taps: __mmask8 = ((1u32 << kw) - 1) as __mmask8;
    for q0 in (0..n_cols).step_by(KC) {
        let q1 = (q0 + KC).min(n_cols);
        let mut acc = [[_mm512_setzero_pd(); KH]; BWD_WEIGHT_GROUP];
        let mut q = q0;
        while q < q1 {
            // One run of output columns inside output row `oi`.
            let (oi, oj) = (q / ow, q % ow);
            let run = (ow - oj).min(q1 - q);
            // SAFETY: `(oi, oj + t)` is an output position and `q + t` its
            // index in each gradient plane; taps past `kw` are masked off.
            unsafe {
                let xp = x.add(oi * ld_x + oj);
                let gp = go.add(q);
                for t in 0..run {
                    let mut xv = [_mm512_setzero_pd(); KH];
                    for (ki, v) in xv.iter_mut().enumerate() {
                        *v = _mm512_maskz_loadu_pd(taps, xp.add(ki * ld_x + t));
                    }
                    for (o, acc) in acc.iter_mut().enumerate() {
                        if o < group {
                            let gv = _mm512_set1_pd(*gp.add(o * n_cols + t));
                            for ki in 0..KH {
                                acc[ki] = _mm512_fmadd_pd(gv, xv[ki], acc[ki]);
                            }
                        }
                    }
                }
            }
            q += run;
        }
        for (o, acc) in acc.iter().enumerate().take(group) {
            for (ki, &v) in acc.iter().enumerate() {
                // SAFETY: the `kw` owned weights of kernel row `ki0 + ki`.
                unsafe {
                    let p = gw.add(o * gw_ld + ki * kw);
                    let prev = _mm512_maskz_loadu_pd(taps, p);
                    _mm512_mask_storeu_pd(p, taps, _mm512_add_pd(prev, v));
                }
            }
        }
    }
}

/// One weight-gradient tile on the AVX-512 path: input channel plane `x`,
/// kernel rows `ki0 .. ki0+rows`, output channels `oc0 .. oc0+group`, every
/// output position of the sample. See [`conv_bwd_weight_tile_512`] for the
/// per-weight order.
///
/// # Safety
/// Requires AVX-512F, `kw ≤ 8`, `rows ≤ 5` ([`crate::conv`]'s
/// `BWD_WEIGHT_ROWS`), `group ≤ BWD_WEIGHT_GROUP`. Stride contract: `x` is one channel's (zero-bordered)
/// plane with rows `ld_x` apart, read from `x[ki0·ld_x]` to
/// `x[(ki0+rows−1 + oh−1)·ld_x + ow−1 + kw−1]` — an 8-lane load there is
/// masked to its `kw` taps, so a plane that ends with that element is fine.
/// `go` is one sample's gradient, planes `oh·ow` apart, read from
/// `go[oc0·oh·ow]` to `go[(oc0+group)·oh·ow − 1]`. `gw` is the whole weight
/// gradient, one row per output channel; the tile updates columns
/// `gw_col .. gw_col + rows·kw` of rows `oc0 .. oc0+group`, which the caller
/// owns exclusively. All three ends are `debug_assert!`ed.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn conv_bwd_weight_512(
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
    debug_assert!((1..=8).contains(&kw) && group <= BWD_WEIGHT_GROUP);
    debug_assert!(oh > 0 && ow > 0 && rows > 0);
    debug_assert!((ki0 + rows + oh - 2) * ld_x + ow + kw - 1 <= x.len());
    debug_assert!((oc0 + group) * oh * ow <= go.len());
    debug_assert!(gw.holds(oc0 + group, gw_col + rows * kw));
    // SAFETY: the extents asserted above are the tile's whole footprint.
    unsafe {
        let x = x.as_ptr().add(ki0 * ld_x);
        let go = go.as_ptr().add(oc0 * oh * ow);
        let gwp = gw.ptr.add(oc0 * gw.ld + gw_col);
        let dims = (oh, ow);
        match rows {
            1 => conv_bwd_weight_tile_512::<1>(x, ld_x, go, group, dims, kw, gwp, gw.ld),
            2 => conv_bwd_weight_tile_512::<2>(x, ld_x, go, group, dims, kw, gwp, gw.ld),
            3 => conv_bwd_weight_tile_512::<3>(x, ld_x, go, group, dims, kw, gwp, gw.ld),
            4 => conv_bwd_weight_tile_512::<4>(x, ld_x, go, group, dims, kw, gwp, gw.ld),
            5 => conv_bwd_weight_tile_512::<5>(x, ld_x, go, group, dims, kw, gwp, gw.ld),
            _ => unreachable!("weight-gradient tiles hold at most 5 kernel rows"),
        }
    }
}
