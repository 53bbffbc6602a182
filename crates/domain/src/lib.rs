//! # pde-domain
//!
//! 2-D Cartesian domain decomposition: the bookkeeping behind the paper's
//! core idea of "decompos\[ing\] each individual training data set into
//! smaller sections and feed\[ing\] each subsection into an independent
//! neural network" (§III).
//!
//! The crate is pure geometry — no communication. It answers:
//!
//! * which global cells belong to rank `r` ([`GridPartition`], [`Block`]);
//! * what the rank's *input* region is once the conv-stack halo is added
//!   ([`Block::extended`]), including how much of that halo falls outside
//!   the physical domain and must be synthesized by padding;
//! * how to slice a global snapshot into per-rank tensors and stitch them
//!   back ([`scatter`], [`gather`]);
//! * how to pack/unpack the boundary strips exchanged between neighbors
//!   during parallel inference ([`halo`]).
//!
//! `pde-ml-core` combines this with `pde-commsim` to realize the paper's
//! training (communication-free) and inference (p2p halo exchange) phases.

pub mod block;
pub mod halo;
pub mod partition;

pub use block::{Block, Margins};
pub use halo::{pack_cols, PaddedView};
pub use partition::GridPartition;

use pde_tensor::Tensor3;
use std::borrow::Borrow;

/// Slices a global snapshot into per-rank interior tensors, rank order.
pub fn scatter(global: &Tensor3, part: &GridPartition) -> Vec<Tensor3> {
    part.blocks()
        .map(|b| global.window(b.i0, b.j0, b.h, b.w))
        .collect()
}

/// Reassembles per-rank interior tensors (owned or borrowed, rank order)
/// into a global snapshot — the inverse of [`scatter`]. The snapshot is
/// built in row-major order from the ranks' row segments, so each value is
/// written exactly once.
///
/// # Panics
/// If the tensor list does not match the partition (count, shapes,
/// channel counts).
pub fn gather<T: Borrow<Tensor3>>(locals: &[T], part: &GridPartition) -> Tensor3 {
    assert_eq!(
        locals.len(),
        part.rank_count(),
        "gather: wrong number of local tensors"
    );
    assert!(!locals.is_empty(), "gather: empty input");
    let c = locals[0].borrow().c();
    for (local, b) in locals.iter().zip(part.blocks()) {
        assert_eq!(
            local.borrow().shape(),
            (c, b.h, b.w),
            "gather: rank tensor shape does not match its block"
        );
    }
    let (gh, gw) = (part.global_h(), part.global_w());
    let mut data = Vec::with_capacity(c * gh * gw);
    for ch in 0..c {
        // One process-grid row of ranks covers a band of whole global rows.
        for band in locals.chunks(part.px()) {
            let rows = band[0].borrow().h();
            for i in 0..rows {
                for local in band {
                    let local = local.borrow();
                    let w = local.w();
                    data.extend_from_slice(&local.channel(ch)[i * w..(i + 1) * w]);
                }
            }
        }
    }
    Tensor3::from_vec(c, gh, gw, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_gather_round_trip() {
        let part = GridPartition::new(10, 12, 2, 3);
        let global = Tensor3::from_fn(4, 10, 12, |c, i, j| (c * 1000 + i * 12 + j) as f64);
        let locals = scatter(&global, &part);
        assert_eq!(locals.len(), 6);
        assert_eq!(gather(&locals, &part), global);
    }

    #[test]
    fn scatter_respects_uneven_splits() {
        // 7 rows over 2 ranks: 4 + 3.
        let part = GridPartition::new(7, 7, 2, 1);
        let global = Tensor3::from_fn(1, 7, 7, |_, i, j| (i * 7 + j) as f64);
        let locals = scatter(&global, &part);
        assert_eq!(locals[0].shape(), (1, 4, 7));
        assert_eq!(locals[1].shape(), (1, 3, 7));
        assert_eq!(locals[1][(0, 0, 0)], 28.0); // row 4 starts at 4*7
    }

    #[test]
    fn gather_of_borrowed_blocks_round_trips_uneven_splits() {
        // 7 rows over 2 bands (4 + 3), 16 columns over 3 (6 + 5 + 5).
        let part = GridPartition::new(7, 16, 2, 3);
        let global = Tensor3::from_fn(2, 7, 16, |c, i, j| (c * 1000 + i * 16 + j) as f64);
        let locals = scatter(&global, &part);
        let borrowed: Vec<&Tensor3> = locals.iter().collect();
        assert_eq!(gather(&borrowed, &part), global);
    }

    #[test]
    #[should_panic(expected = "wrong number")]
    fn gather_rejects_wrong_count() {
        let part = GridPartition::new(8, 8, 2, 2);
        let _ = gather(&[Tensor3::zeros(1, 4, 4)], &part);
    }
}
