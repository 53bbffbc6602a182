//! Balanced block partitions of a global grid over a process grid.

use crate::block::Block;

/// A `py × px` balanced block partition of an `h × w` global grid.
///
/// Rows are split into `py` contiguous bands, columns into `px` contiguous
/// bands; band sizes differ by at most one cell (the first `h % py` bands
/// get the extra row). Rank `r` owns the block at process-grid coordinates
/// `(r / px, r % px)`, matching `pde-commsim`'s row-major `CartComm`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridPartition {
    h: usize,
    w: usize,
    py: usize,
    px: usize,
}

/// Start index of band `b` when splitting `n` cells into `k` bands.
#[inline]
fn band_start(n: usize, k: usize, b: usize) -> usize {
    // First (n % k) bands have ⌈n/k⌉ cells, the rest ⌊n/k⌋.
    let q = n / k;
    let r = n % k;
    b * q + b.min(r)
}

impl GridPartition {
    /// New partition.
    ///
    /// # Panics
    /// If the grid is smaller than the process grid in either direction.
    pub fn new(h: usize, w: usize, py: usize, px: usize) -> Self {
        assert!(py >= 1 && px >= 1, "GridPartition: empty process grid");
        assert!(
            h >= py && w >= px,
            "GridPartition: {h}x{w} grid cannot feed {py}x{px} processes"
        );
        Self { h, w, py, px }
    }

    /// Picks a near-square process grid for `n_ranks` and builds the
    /// partition. Prefers `py * px == n_ranks` with `py ≤ px` and the two
    /// as close as possible (4 → 2×2, 8 → 2×4, 64 → 8×8).
    ///
    /// # Panics
    /// Where [`GridPartition::try_for_ranks`] returns an error.
    pub fn for_ranks(h: usize, w: usize, n_ranks: usize) -> Self {
        Self::try_for_ranks(h, w, n_ranks).unwrap_or_else(|e| panic!("GridPartition: {e}"))
    }

    /// [`GridPartition::for_ranks`], returning an error instead of
    /// panicking when `n_ranks` is 0 or the `h × w` grid has fewer rows or
    /// columns than the process grid it picks.
    pub fn try_for_ranks(h: usize, w: usize, n_ranks: usize) -> Result<Self, String> {
        if n_ranks == 0 {
            return Err("need at least one rank".into());
        }
        let py = (1..=n_ranks.isqrt())
            .rev()
            .find(|&py| n_ranks.is_multiple_of(py))
            .expect("py = 1 always divides n_ranks");
        let px = n_ranks / py;
        if h < py || w < px {
            return Err(format!(
                "a {h}x{w} grid cannot feed a {py}x{px} process grid"
            ));
        }
        Ok(Self { h, w, py, px })
    }

    /// Global grid height.
    pub fn global_h(&self) -> usize {
        self.h
    }

    /// Global grid width.
    pub fn global_w(&self) -> usize {
        self.w
    }

    /// Process-grid height.
    pub fn py(&self) -> usize {
        self.py
    }

    /// Process-grid width.
    pub fn px(&self) -> usize {
        self.px
    }

    /// Total rank count.
    pub fn rank_count(&self) -> usize {
        self.py * self.px
    }

    /// Block owned by process-grid position `(row, col)`.
    pub fn block_at(&self, row: usize, col: usize) -> Block {
        assert!(
            row < self.py && col < self.px,
            "block_at: ({row},{col}) outside process grid"
        );
        let i0 = band_start(self.h, self.py, row);
        let i1 = band_start(self.h, self.py, row + 1);
        let j0 = band_start(self.w, self.px, col);
        let j1 = band_start(self.w, self.px, col + 1);
        Block {
            i0,
            j0,
            h: i1 - i0,
            w: j1 - j0,
        }
    }

    /// Block owned by `rank` (row-major rank layout).
    pub fn block_of_rank(&self, rank: usize) -> Block {
        assert!(
            rank < self.rank_count(),
            "block_of_rank: rank {rank} out of range"
        );
        self.block_at(rank / self.px, rank % self.px)
    }

    /// Iterator over all blocks in rank order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        (0..self.rank_count()).map(|r| self.block_of_rank(r))
    }

    /// The rank owning global cell `(i, j)`.
    pub fn owner_of(&self, i: usize, j: usize) -> usize {
        assert!(i < self.h && j < self.w, "owner_of: cell outside grid");
        // Invert band_start by scanning (py, px ≤ 64 in practice; O(k) is fine
        // and obviously correct).
        let row = (0..self.py)
            .find(|&b| i < band_start(self.h, self.py, b + 1))
            .expect("row band");
        let col = (0..self.px)
            .find(|&b| j < band_start(self.w, self.px, b + 1))
            .expect("col band");
        row * self.px + col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_the_grid_exactly() {
        for &(h, w, py, px) in &[
            (8, 8, 2, 2),
            (7, 11, 3, 2),
            (256, 256, 8, 8),
            (10, 10, 1, 10),
        ] {
            let part = GridPartition::new(h, w, py, px);
            let mut covered = vec![0u8; h * w];
            for b in part.blocks() {
                for i in b.i0..b.i1() {
                    for j in b.j0..b.j1() {
                        covered[i * w + j] += 1;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "({h},{w},{py},{px}): not an exact tiling"
            );
        }
    }

    #[test]
    fn block_sizes_are_balanced() {
        let part = GridPartition::new(10, 10, 3, 3);
        let areas: Vec<usize> = part.blocks().map(|b| b.area()).collect();
        let min = *areas.iter().min().unwrap();
        let max = *areas.iter().max().unwrap();
        // 10 = 4+3+3 per direction → areas between 9 and 16.
        assert!(max <= 16 && min >= 9, "areas {areas:?}");
        assert_eq!(areas.iter().sum::<usize>(), 100);
    }

    #[test]
    fn owner_of_agrees_with_blocks() {
        let part = GridPartition::new(9, 7, 2, 3);
        for (r, b) in part.blocks().enumerate() {
            for i in b.i0..b.i1() {
                for j in b.j0..b.j1() {
                    assert_eq!(part.owner_of(i, j), r);
                }
            }
        }
    }

    #[test]
    fn for_ranks_prefers_square_grids() {
        assert_eq!(GridPartition::for_ranks(64, 64, 4).py(), 2);
        assert_eq!(GridPartition::for_ranks(64, 64, 4).px(), 2);
        assert_eq!(GridPartition::for_ranks(64, 64, 64).py(), 8);
        let p8 = GridPartition::for_ranks(64, 64, 8);
        assert_eq!((p8.py(), p8.px()), (2, 4));
        let p1 = GridPartition::for_ranks(64, 64, 1);
        assert_eq!((p1.py(), p1.px()), (1, 1));
        // Primes fall back to 1×n.
        let p7 = GridPartition::for_ranks(64, 64, 7);
        assert_eq!((p7.py(), p7.px()), (1, 7));
    }

    #[test]
    fn rank_layout_is_row_major() {
        let part = GridPartition::new(8, 8, 2, 2);
        assert_eq!(part.block_of_rank(0), part.block_at(0, 0));
        assert_eq!(part.block_of_rank(1), part.block_at(0, 1));
        assert_eq!(part.block_of_rank(2), part.block_at(1, 0));
        assert_eq!(part.block_of_rank(3), part.block_at(1, 1));
    }

    #[test]
    #[should_panic(expected = "cannot feed")]
    fn rejects_oversubscribed_grid() {
        let _ = GridPartition::new(2, 8, 4, 1);
    }

    #[test]
    fn try_for_ranks_reports_what_for_ranks_would_panic_on() {
        assert_eq!(
            GridPartition::try_for_ranks(16, 16, 17),
            Err("a 16x16 grid cannot feed a 1x17 process grid".into())
        );
        assert_eq!(
            GridPartition::try_for_ranks(16, 16, 0),
            Err("need at least one rank".into())
        );
    }
}
