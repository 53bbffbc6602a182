//! Rectangular index blocks and halo margins.

/// A rectangle of global grid cells: rows `i0..i0+h`, columns `j0..j0+w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// First global row.
    pub i0: usize,
    /// First global column.
    pub j0: usize,
    /// Row count.
    pub h: usize,
    /// Column count.
    pub w: usize,
}

/// Per-side halo cell counts that could *not* be satisfied from inside the
/// global domain and therefore must be synthesized by padding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Margins {
    /// Missing cells above (smaller i).
    pub top: usize,
    /// Missing cells below.
    pub bottom: usize,
    /// Missing cells left of the block.
    pub left: usize,
    /// Missing cells right of the block.
    pub right: usize,
}

impl Margins {
    /// True when no padding is needed (fully interior block).
    pub fn is_zero(&self) -> bool {
        self.top == 0 && self.bottom == 0 && self.left == 0 && self.right == 0
    }
}

impl Block {
    /// Number of cells.
    pub fn area(&self) -> usize {
        self.h * self.w
    }

    /// Exclusive end row.
    pub fn i1(&self) -> usize {
        self.i0 + self.h
    }

    /// Exclusive end column.
    pub fn j1(&self) -> usize {
        self.j0 + self.w
    }

    /// True when `(i, j)` lies inside the block.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i >= self.i0 && i < self.i1() && j >= self.j0 && j < self.j1()
    }

    /// Grows the block by `halo` cells on every side, clipped to the global
    /// `gh × gw` grid. Returns the clipped block plus the [`Margins`] that
    /// fell outside and must be padded.
    ///
    /// This is the paper's overlapping-input construction: "we increase the
    /// input dimension … input data for neighboring processes are
    /// overlapping" (§III).
    pub fn extended(&self, halo: usize, gh: usize, gw: usize) -> (Block, Margins) {
        assert!(
            self.i1() <= gh && self.j1() <= gw,
            "Block::extended: block outside global grid"
        );
        let i0 = self.i0.saturating_sub(halo);
        let j0 = self.j0.saturating_sub(halo);
        let i1 = (self.i1() + halo).min(gh);
        let j1 = (self.j1() + halo).min(gw);
        let clipped = Block {
            i0,
            j0,
            h: i1 - i0,
            w: j1 - j0,
        };
        let margins = Margins {
            top: halo - (self.i0 - i0),
            left: halo - (self.j0 - j0),
            bottom: halo - (i1 - self.i1()),
            right: halo - (j1 - self.j1()),
        };
        (clipped, margins)
    }

    /// Position of this (interior) block inside its own extended block:
    /// the local row/col offset where interior data starts.
    pub fn interior_offset_in_extended(&self, halo: usize) -> (usize, usize) {
        (halo.min(self.i0), halo.min(self.j0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_bounds() {
        let b = Block {
            i0: 2,
            j0: 3,
            h: 4,
            w: 5,
        };
        assert_eq!(b.area(), 20);
        assert_eq!(b.i1(), 6);
        assert_eq!(b.j1(), 8);
        assert!(b.contains(2, 3));
        assert!(b.contains(5, 7));
        assert!(!b.contains(6, 3));
        assert!(!b.contains(2, 8));
    }

    #[test]
    fn extended_interior_block_has_no_margins() {
        let b = Block {
            i0: 4,
            j0: 4,
            h: 4,
            w: 4,
        };
        let (e, m) = b.extended(2, 16, 16);
        assert_eq!(
            e,
            Block {
                i0: 2,
                j0: 2,
                h: 8,
                w: 8
            }
        );
        assert!(m.is_zero());
    }

    #[test]
    fn extended_corner_block_reports_margins() {
        let b = Block {
            i0: 0,
            j0: 0,
            h: 4,
            w: 4,
        };
        let (e, m) = b.extended(2, 16, 16);
        assert_eq!(
            e,
            Block {
                i0: 0,
                j0: 0,
                h: 6,
                w: 6
            }
        );
        assert_eq!(
            m,
            Margins {
                top: 2,
                left: 2,
                bottom: 0,
                right: 0
            }
        );
    }

    #[test]
    fn extended_full_grid_block_pads_everywhere() {
        let b = Block {
            i0: 0,
            j0: 0,
            h: 8,
            w: 8,
        };
        let (e, m) = b.extended(3, 8, 8);
        assert_eq!(e, b);
        assert_eq!(
            m,
            Margins {
                top: 3,
                left: 3,
                bottom: 3,
                right: 3
            }
        );
    }

    #[test]
    fn interior_offset_matches_margins() {
        let b = Block {
            i0: 0,
            j0: 4,
            h: 4,
            w: 4,
        };
        assert_eq!(b.interior_offset_in_extended(2), (0, 2));
        let c = Block {
            i0: 6,
            j0: 0,
            h: 2,
            w: 4,
        };
        assert_eq!(c.interior_offset_in_extended(2), (2, 0));
    }
}
