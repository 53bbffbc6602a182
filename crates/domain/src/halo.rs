//! Packing and placing of halo strips.
//!
//! During parallel inference each rank's network needs a `halo`-cell-wide
//! border of neighbor data around its own output before the next forward
//! pass (§III: "Extra data points must be received from the neighboring
//! processes"). These helpers turn multi-channel tensors into flat strip
//! buffers (what goes over the communicator) and place received strips into
//! the padded input, which a rank assembles in place ([`PaddedView`]).
//!
//! Strips are packed channel-major, row-major within a channel — the same
//! layout as [`Tensor3`] itself — so a strip of `c` channels, `rows` rows
//! and `cols` columns occupies `c * rows * cols` values.

use pde_tensor::Tensor3;

/// Packs `count` columns starting at column `j0` (all channels, full
/// height).
pub fn pack_cols(t: &Tensor3, j0: usize, count: usize) -> Vec<f64> {
    t.window(0, j0, t.h(), count).into_vec()
}

/// A `c × h × w` tensor's storage, borrowed: the padded input a rank
/// assembles in place — its own block in the interior, neighbor strips in
/// the halo frame — without a tensor of its own.
pub struct PaddedView<'a> {
    data: &'a mut [f64],
    c: usize,
    h: usize,
    w: usize,
}

impl<'a> PaddedView<'a> {
    /// Views `data` as `c × h × w`.
    ///
    /// # Panics
    /// If `data` does not hold exactly `c * h * w` values.
    pub fn new(data: &'a mut [f64], c: usize, h: usize, w: usize) -> Self {
        assert_eq!(data.len(), c * h * w, "PaddedView: buffer length");
        Self { data, c, h, w }
    }

    /// Writes `local` at `(halo, halo)` and zeros the `halo`-wide frame
    /// around it, writing each value once.
    ///
    /// # Panics
    /// If `local` plus the frame does not fill the view exactly.
    pub fn fill_interior(&mut self, local: &Tensor3, halo: usize) {
        let (c, lh, lw) = local.shape();
        assert_eq!(
            (c, lh + 2 * halo, lw + 2 * halo),
            (self.c, self.h, self.w),
            "PaddedView::fill_interior: block and frame do not fill the view"
        );
        for (ch, plane) in self.data.chunks_exact_mut(self.h * self.w).enumerate() {
            let src = local.channel(ch);
            for (i, row) in plane.chunks_exact_mut(self.w).enumerate() {
                match i.checked_sub(halo).filter(|&li| li < lh) {
                    None => row.fill(0.0),
                    Some(li) => {
                        let (left, rest) = row.split_at_mut(halo);
                        let (mid, right) = rest.split_at_mut(lw);
                        left.fill(0.0);
                        mid.copy_from_slice(&src[li * lw..(li + 1) * lw]);
                        right.fill(0.0);
                    }
                }
            }
        }
    }

    /// Packs `count` rows starting at row `i0` (all channels, full width)
    /// into a fresh strip.
    pub fn pack_rows(&self, i0: usize, count: usize) -> Vec<f64> {
        let mut strip = Vec::with_capacity(self.c * count * self.w);
        for plane in self.data.chunks_exact(self.h * self.w) {
            strip.extend_from_slice(&plane[i0 * self.w..(i0 + count) * self.w]);
        }
        strip
    }

    /// Writes a strip produced by [`PaddedView::pack_rows`] at row `i0`.
    ///
    /// # Panics
    /// If the strip length is not `c * count * w`.
    pub fn place_rows(&mut self, i0: usize, count: usize, strip: &[f64]) {
        let len = count * self.w;
        assert_eq!(strip.len(), self.c * len, "place_rows: strip length");
        if len == 0 {
            return;
        }
        for (plane, src) in self
            .data
            .chunks_exact_mut(self.h * self.w)
            .zip(strip.chunks_exact(len))
        {
            plane[i0 * self.w..i0 * self.w + len].copy_from_slice(src);
        }
    }

    /// Writes a `c × rows × count` strip (as [`pack_cols`] produces) with
    /// its top-left cell at `(i0, j0)`.
    ///
    /// # Panics
    /// If the strip length is not `c * rows * count`.
    pub fn place_cols(&mut self, i0: usize, j0: usize, rows: usize, count: usize, strip: &[f64]) {
        assert_eq!(
            strip.len(),
            self.c * rows * count,
            "place_cols: strip length"
        );
        if rows * count == 0 {
            return;
        }
        for (plane, src) in self
            .data
            .chunks_exact_mut(self.h * self.w)
            .zip(strip.chunks_exact(rows * count))
        {
            for (i, seg) in src.chunks_exact(count).enumerate() {
                let start = (i0 + i) * self.w + j0;
                plane[start..start + count].copy_from_slice(seg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(t: &mut Tensor3) -> PaddedView<'_> {
        let (c, h, w) = t.shape();
        PaddedView::new(t.as_mut_slice(), c, h, w)
    }

    fn sample() -> Tensor3 {
        Tensor3::from_fn(2, 4, 5, |c, i, j| (c * 100 + i * 10 + j) as f64)
    }

    #[test]
    fn pack_rows_layout() {
        let mut t = sample();
        let top = view(&mut t).pack_rows(0, 2);
        assert_eq!(top.len(), 2 * 2 * 5);
        // Channel 0, row 0: 0..4 ; row 1: 10..14 ; then channel 1.
        assert_eq!(&top[0..5], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&top[5..10], &[10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(top[10], 100.0);
    }

    #[test]
    fn pack_cols_layout() {
        let t = sample();
        let right = pack_cols(&t, 3, 2);
        assert_eq!(right.len(), 2 * 4 * 2);
        // Channel 0, rows 0..4, columns 3..5.
        assert_eq!(&right[0..2], &[3.0, 4.0]);
        assert_eq!(&right[2..4], &[13.0, 14.0]);
    }

    #[test]
    fn pack_place_rows_round_trip() {
        let mut t = sample();
        let strip = view(&mut t).pack_rows(1, 2);
        let mut dst = Tensor3::zeros(2, 4, 5);
        view(&mut dst).place_rows(1, 2, &strip);
        assert_eq!(dst.window(1, 0, 2, 5), t.window(1, 0, 2, 5));
        // Untouched rows stay zero.
        assert_eq!(dst[(0, 0, 0)], 0.0);
        assert_eq!(dst[(1, 3, 2)], 0.0);
    }

    #[test]
    fn pack_place_cols_round_trip() {
        let t = sample();
        let strip = pack_cols(&t, 0, 1);
        let mut dst = Tensor3::zeros(2, 4, 5);
        view(&mut dst).place_cols(0, 4, 4, 1, &strip);
        for c in 0..2 {
            for i in 0..4 {
                assert_eq!(dst[(c, i, 4)], t[(c, i, 0)]);
            }
        }
    }

    #[test]
    fn neighbor_strip_transfer_simulates_halo() {
        // Two side-by-side 4×5 subdomains: right edge of A fills the left
        // halo of B's padded tensor.
        let a = sample();
        let halo = 2;
        let strip = pack_cols(&a, a.w() - halo, halo);
        let mut b_padded = Tensor3::zeros(2, 4 + 2 * halo, 5 + 2 * halo);
        view(&mut b_padded).place_cols(halo, 0, 4, halo, &strip);
        for c in 0..2 {
            for i in 0..4 {
                assert_eq!(b_padded[(c, halo + i, 0)], a[(c, i, 3)]);
                assert_eq!(b_padded[(c, halo + i, 1)], a[(c, i, 4)]);
            }
        }
    }

    #[test]
    fn fill_interior_overwrites_every_value() {
        // A view over stale values: the interior becomes the block, the
        // frame zero, and nothing of the old contents survives.
        let local = sample();
        let mut padded = Tensor3::from_fn(2, 6, 7, |_, _, _| f64::NAN);
        view(&mut padded).fill_interior(&local, 1);
        let mut expected = Tensor3::zeros(2, 6, 7);
        expected.set_window(1, 1, &local);
        assert_eq!(padded, expected);
    }
}
