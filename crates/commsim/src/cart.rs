//! 2-D Cartesian process topology and neighbor halo exchange.
//!
//! Mirrors `MPI_Cart_create` / `MPI_Cart_shift`: ranks are laid out
//! row-major on a `py × px` grid, each knows its four neighbors, and one
//! axis at a time swaps boundary strips with them point to point — the
//! exchange the paper's inference phase relies on (§III). The blocking
//! round is [`CartComm::exchange_x`] / [`CartComm::exchange_y`]; the
//! loss-tolerant one splits it into [`CartComm::post_x_sends`] /
//! [`CartComm::post_y_sends`] and timed [`CartComm::recv_halo_dir`]
//! receives.

use crate::comm::{Comm, RecvError, Tag};
use std::time::Duration;

/// The four lattice directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// −x neighbor (smaller column index).
    Left,
    /// +x neighbor.
    Right,
    /// −y neighbor (smaller row index).
    Down,
    /// +y neighbor.
    Up,
}

impl Direction {
    /// All four directions, in a fixed order.
    pub const ALL: [Direction; 4] = [
        Direction::Left,
        Direction::Right,
        Direction::Down,
        Direction::Up,
    ];

    /// The direction a message sent this way arrives *from*.
    pub fn opposite(&self) -> Direction {
        match self {
            Direction::Left => Direction::Right,
            Direction::Right => Direction::Left,
            Direction::Down => Direction::Up,
            Direction::Up => Direction::Down,
        }
    }

    /// Position of this direction in [`Direction::ALL`]-indexed arrays.
    pub fn index(&self) -> usize {
        match self {
            Direction::Left => 0,
            Direction::Right => 1,
            Direction::Down => 2,
            Direction::Up => 3,
        }
    }
}

/// One directional halo receive: the strip, or why it is missing.
#[derive(Clone, Debug, PartialEq)]
pub enum HaloRecv {
    /// The strip arrived.
    Ok(Vec<f64>),
    /// Timed out — presumed lost; the peer is (as far as we can tell)
    /// still alive. Recoverable by policy.
    Lost,
    /// The peer's thread is gone and nothing matching can ever arrive.
    /// NOT recoverable: a dead peer means its whole subdomain is missing,
    /// not one boundary strip, so every halo policy must treat this as
    /// fatal rather than mask it with fallback data.
    PeerDead,
}

/// A communicator wrapped with 2-D Cartesian coordinates.
pub struct CartComm {
    comm: Comm,
    px: usize,
    py: usize,
    periodic: bool,
}

impl CartComm {
    /// Wraps `comm` in a `py × px` row-major topology.
    ///
    /// # Panics
    /// If `px * py != comm.size()`.
    pub fn new(comm: Comm, py: usize, px: usize, periodic: bool) -> Self {
        assert_eq!(
            px * py,
            comm.size(),
            "CartComm: {py}x{px} grid != {} ranks",
            comm.size()
        );
        Self {
            comm,
            px,
            py,
            periodic,
        }
    }

    /// Borrow of the underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Mutable borrow of the underlying communicator (for collectives).
    pub fn comm_mut(&mut self) -> &mut Comm {
        &mut self.comm
    }

    /// Process-grid width (ranks along x).
    pub fn px(&self) -> usize {
        self.px
    }

    /// Process-grid height (ranks along y).
    pub fn py(&self) -> usize {
        self.py
    }

    /// This rank's `(row, col)` coordinates.
    pub fn coords(&self) -> (usize, usize) {
        let r = self.comm.rank();
        (r / self.px, r % self.px)
    }

    /// Rank at `(row, col)`.
    pub fn rank_at(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.py && col < self.px,
            "rank_at: ({row},{col}) outside {}x{}",
            self.py,
            self.px
        );
        row * self.px + col
    }

    /// The neighboring rank in `dir`, or `None` at a non-periodic edge.
    pub fn neighbor(&self, dir: Direction) -> Option<usize> {
        let (row, col) = self.coords();
        let (nr, nc) = match dir {
            Direction::Left => (row as isize, col as isize - 1),
            Direction::Right => (row as isize, col as isize + 1),
            Direction::Down => (row as isize - 1, col as isize),
            Direction::Up => (row as isize + 1, col as isize),
        };
        let wrap = |v: isize, n: usize| -> Option<usize> {
            if v >= 0 && (v as usize) < n {
                Some(v as usize)
            } else if self.periodic {
                Some(v.rem_euclid(n as isize) as usize)
            } else {
                None
            }
        };
        let row = wrap(nr, self.py)?;
        let col = wrap(nc, self.px)?;
        Some(self.rank_at(row, col))
    }

    /// One x-axis exchange round: sends `to_left`/`to_right` to the
    /// respective neighbors and returns `(from_left, from_right)`, blocking
    /// until both arrive. The buffers are moved to the peers, not cloned.
    ///
    /// # Panics
    /// If a buffer is supplied for a missing neighbor or vice versa (that
    /// asymmetry would deadlock the matching rank).
    pub fn exchange_x(
        &mut self,
        to_left: Option<Vec<f64>>,
        to_right: Option<Vec<f64>>,
        tag: Tag,
    ) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
        self.exchange_axis(to_left, to_right, Direction::Left, Direction::Right, tag)
    }

    /// One y-axis exchange round: sends `to_down`/`to_up` and returns
    /// `(from_down, from_up)` (see [`CartComm::exchange_x`]).
    pub fn exchange_y(
        &mut self,
        to_down: Option<Vec<f64>>,
        to_up: Option<Vec<f64>>,
        tag: Tag,
    ) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
        self.exchange_axis(to_down, to_up, Direction::Down, Direction::Up, tag)
    }

    /// The send half of a split-phase x-axis exchange: posts `to_left` /
    /// `to_right` without receiving. Pair with [`CartComm::recv_halo_dir`].
    ///
    /// Splitting lets a resilient protocol interpose a synchronization
    /// point between sends and timed receives, after which every
    /// *delivered* strip is already in the inbox — so a timeout can only
    /// ever fire for a message that is genuinely lost, making the
    /// classification deterministic.
    pub fn post_x_sends(
        &mut self,
        to_left: Option<Vec<f64>>,
        to_right: Option<Vec<f64>>,
        tag: Tag,
    ) {
        self.post_axis_sends(to_left, to_right, Direction::Left, Direction::Right, tag);
    }

    /// The send half of a split-phase y-axis exchange (see
    /// [`CartComm::post_x_sends`]).
    pub fn post_y_sends(&mut self, to_down: Option<Vec<f64>>, to_up: Option<Vec<f64>>, tag: Tag) {
        self.post_axis_sends(to_down, to_up, Direction::Down, Direction::Up, tag);
    }

    /// The receive half of a split-phase exchange: one directional receive
    /// that gives up after `timeout` and reports its outcome as a
    /// [`HaloRecv`] instead of blocking forever (lost message) or panicking
    /// (dead peer); `None` when there is no neighbor in `dir`. `tag` must
    /// match the value given to the corresponding `post_*_sends` call.
    ///
    /// A timed-out receive bumps this rank's `halos_lost` counter. A strip
    /// that arrives *after* its receive timed out lingers in the inbox
    /// harmlessly: every exchange uses a fresh tag, so it can never be
    /// matched by a later step.
    pub fn recv_halo_dir(
        &mut self,
        dir: Direction,
        tag: Tag,
        timeout: Duration,
    ) -> Option<HaloRecv> {
        use pde_trace::{names, Category};
        let src = self.neighbor(dir)?;
        let mut span = pde_trace::span_args(Category::Comm, names::HALO_RECV, src as u64, 0);
        Some(
            match self.comm.recv_timeout(src, encode_tag(tag, dir), timeout) {
                Ok(buf) => {
                    span.set_args(src as u64, buf.len() as u64 * 8);
                    HaloRecv::Ok(buf)
                }
                Err(RecvError::Timeout) => {
                    self.comm.stats().note_halo_lost();
                    pde_trace::instant(Category::Comm, names::HALO_LOST, src as u64, 0);
                    HaloRecv::Lost
                }
                Err(RecvError::Disconnected) => {
                    pde_trace::instant(Category::Comm, names::HALO_PEER_DEAD, src as u64, 0);
                    HaloRecv::PeerDead
                }
            },
        )
    }

    fn post_axis_sends(
        &mut self,
        to_neg: Option<Vec<f64>>,
        to_pos: Option<Vec<f64>>,
        neg: Direction,
        pos: Direction,
        tag: Tag,
    ) {
        for (dir, buf) in [(neg, &to_neg), (pos, &to_pos)] {
            assert_eq!(
                self.neighbor(dir).is_some(),
                buf.is_some(),
                "exchange_axis: buffer/neighbor mismatch in {dir:?}"
            );
        }
        // The tag encodes the direction *from the receiver's view*, so the
        // two opposite-direction messages of one round cannot be confused.
        if let (Some(nb), Some(buf)) = (self.neighbor(neg), to_neg) {
            self.comm.send(nb, encode_tag(tag, pos), buf);
        }
        if let (Some(nb), Some(buf)) = (self.neighbor(pos), to_pos) {
            self.comm.send(nb, encode_tag(tag, neg), buf);
        }
    }

    fn exchange_axis(
        &mut self,
        to_neg: Option<Vec<f64>>,
        to_pos: Option<Vec<f64>>,
        neg: Direction,
        pos: Direction,
        tag: Tag,
    ) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
        // Sends first (eager buffering ⇒ no deadlock), then receives.
        self.post_axis_sends(to_neg, to_pos, neg, pos, tag);
        let from_neg = self
            .neighbor(neg)
            .map(|nb| self.comm.recv(nb, encode_tag(tag, neg)));
        let from_pos = self
            .neighbor(pos)
            .map(|nb| self.comm.recv(nb, encode_tag(tag, pos)));
        (from_neg, from_pos)
    }
}

fn encode_tag(base: Tag, dir: Direction) -> Tag {
    assert!(base < 0x0FFF_FFFF, "exchange: tag too large");
    (base << 2) | dir.index() as Tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn coords_are_row_major() {
        World::new(6).run(|comm| {
            let rank = comm.rank();
            let cart = CartComm::new(comm, 2, 3, false);
            let (row, col) = cart.coords();
            assert_eq!(rank, row * 3 + col);
            assert_eq!(cart.rank_at(row, col), rank);
        });
    }

    #[test]
    fn non_periodic_edges_have_no_neighbor() {
        World::new(4).run(|comm| {
            let cart = CartComm::new(comm, 2, 2, false);
            let (row, col) = cart.coords();
            assert_eq!(cart.neighbor(Direction::Left).is_none(), col == 0);
            assert_eq!(cart.neighbor(Direction::Right).is_none(), col == 1);
            assert_eq!(cart.neighbor(Direction::Down).is_none(), row == 0);
            assert_eq!(cart.neighbor(Direction::Up).is_none(), row == 1);
        });
    }

    #[test]
    fn periodic_neighbors_wrap() {
        World::new(4).run(|comm| {
            let cart = CartComm::new(comm, 2, 2, true);
            let (row, col) = cart.coords();
            // Every direction must have a neighbor on a torus.
            for d in Direction::ALL {
                assert!(cart.neighbor(d).is_some());
            }
            // Left of column 0 wraps to column 1.
            if col == 0 {
                assert_eq!(cart.neighbor(Direction::Left), Some(cart.rank_at(row, 1)));
            }
        });
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        World::new(6).run(|comm| {
            let rank = comm.rank();
            let cart = CartComm::new(comm, 2, 3, false);
            for d in Direction::ALL {
                if let Some(nb) = cart.neighbor(d) {
                    // Check symmetry arithmetically (row-major layout).
                    let (nr, nc) = (nb / 3, nb % 3);
                    let back = match d.opposite() {
                        Direction::Left => (nr, nc.wrapping_sub(1)),
                        Direction::Right => (nr, nc + 1),
                        Direction::Down => (nr.wrapping_sub(1), nc),
                        Direction::Up => (nr + 1, nc),
                    };
                    assert_eq!(back.0 * 3 + back.1, rank);
                }
            }
        });
    }

    #[test]
    fn exchange_swaps_boundary_buffers() {
        // 1×2 grid: rank 0 | rank 1; each sends its id along the shared edge.
        let out = World::new(2).run(|comm| {
            let me = comm.rank() as f64;
            let mut cart = CartComm::new(comm, 1, 2, false);
            let to_left = cart.neighbor(Direction::Left).map(|_| vec![me; 3]);
            let to_right = cart.neighbor(Direction::Right).map(|_| vec![me; 3]);
            cart.exchange_x(to_left, to_right, 1)
        });
        // Rank 0 received from its Right neighbor (rank 1).
        assert_eq!(out[0].1.as_ref().unwrap(), &vec![1.0; 3]);
        assert!(out[0].0.is_none());
        // Rank 1 received from its Left neighbor (rank 0).
        assert_eq!(out[1].0.as_ref().unwrap(), &vec![0.0; 3]);
        assert!(out[1].1.is_none());
    }

    #[test]
    fn exchange_on_2x2_torus_all_directions() {
        let out = World::new(4).run(|comm| {
            let me = comm.rank() as f64;
            let mut cart = CartComm::new(comm, 2, 2, true);
            // Each strip carries (sender, direction it was sent in).
            let (from_left, from_right) =
                cart.exchange_x(Some(vec![me, 0.0]), Some(vec![me, 1.0]), 2);
            let (from_down, from_up) = cart.exchange_y(Some(vec![me, 2.0]), Some(vec![me, 3.0]), 3);
            [from_left, from_right, from_down, from_up].map(|o| {
                let strip = o.unwrap();
                (strip[0] as usize, strip[1] as usize)
            })
        });
        // Rank 0 at (0,0) on a 2×2 torus: left & right neighbor both 1,
        // down & up both 2. What arrives from the left was sent rightwards.
        assert_eq!(out[0], [(1, 1), (1, 0), (2, 3), (2, 2)]);
        // Rank 3 at (1,1): left/right 2, down/up 1.
        assert_eq!(out[3], [(2, 1), (2, 0), (1, 3), (1, 2)]);
    }

    #[test]
    fn repeated_exchanges_with_distinct_tags_do_not_cross() {
        let out = World::new(2).run(|comm| {
            let me = comm.rank() as f64;
            let mut cart = CartComm::new(comm, 1, 2, false);
            let left_col = cart.coords().1 == 0;
            let mut exchange = |v: f64, tag| {
                let (from_left, from_right) = if left_col {
                    cart.exchange_x(None, Some(vec![v]), tag)
                } else {
                    cart.exchange_x(Some(vec![v]), None, tag)
                };
                from_left.or(from_right).unwrap()[0]
            };
            let first = exchange(me, 10);
            let second = exchange(me + 100.0, 11);
            (first, second)
        });
        assert_eq!(out[0], (1.0, 101.0));
        assert_eq!(out[1], (0.0, 100.0));
    }

    #[test]
    #[should_panic(expected = "grid != ")]
    fn rejects_bad_grid_size() {
        World::new(3).run(|comm| {
            let _ = CartComm::new(comm, 2, 2, false);
        });
    }

    #[test]
    fn exchange_moves_outgoing_buffers_without_cloning() {
        // Allocation parity: the Vec a rank hands to `exchange_x` must be the
        // very allocation its neighbor receives. Each rank encodes its
        // buffer's own address in the payload; the receiver checks that the
        // arrived Vec still lives at that address. A clone would be
        // allocated while the original is still alive, so it cannot share
        // its address and the check fails.
        let out = World::new(2).run(|comm| {
            let mut cart = CartComm::new(comm, 1, 2, false);
            let mut buf = vec![0.0; 64];
            buf[0] = buf.as_ptr() as usize as f64; // < 2^47 — exact in f64
            let (from_left, from_right) = if cart.coords().1 == 0 {
                cart.exchange_x(None, Some(buf), 5)
            } else {
                cart.exchange_x(Some(buf), None, 5)
            };
            let got = from_left.or(from_right).unwrap();
            got.as_ptr() as usize as f64 == got[0]
        });
        assert_eq!(out, vec![true, true], "payload was cloned, not moved");
    }

    #[test]
    fn exchange_timeout_reports_lost_and_counts_it() {
        use crate::world::FaultPlan;
        let plan = FaultPlan::drop_edge(0, 1);
        let (out, traffic) = World::new(2).with_fault_plan(plan).run_with_stats(|comm| {
            let rank = comm.rank();
            let mut cart = CartComm::new(comm, 1, 2, false);
            let strip = vec![rank as f64; 3];
            let dir = if rank == 0 {
                cart.post_x_sends(None, Some(strip), 1);
                Direction::Right
            } else {
                cart.post_x_sends(Some(strip), None, 1);
                Direction::Left
            };
            let got = cart.recv_halo_dir(dir, 1, Duration::from_millis(40));
            // Keep both ranks alive until both receives resolve: rank 0
            // finishing early would otherwise turn rank 1's in-progress
            // timeout into PeerDead. (Collectives are fault-exempt.)
            cart.comm_mut().barrier();
            got.unwrap()
        });
        // The 1→0 edge is healthy; the 0→1 edge drops.
        assert_eq!(out[0], HaloRecv::Ok(vec![1.0; 3]));
        assert_eq!(out[1], HaloRecv::Lost);
        assert_eq!(traffic[0].halos_lost, 0);
        assert_eq!(traffic[1].halos_lost, 1);
    }

    #[test]
    fn exchange_timeout_distinguishes_dead_peer_from_lost_message() {
        use crate::test_timeout;
        // Rank 0 exits without participating: rank 1 must see PeerDead —
        // not Lost — even with a generous timeout. (Rank 1's send toward
        // the dead rank is silently undeliverable; death is detected on
        // the receive side, where policy can refuse to mask it.)
        let out = World::new(2).run(|comm| {
            let rank = comm.rank();
            if rank == 0 {
                return None; // dies immediately
            }
            let mut cart = CartComm::new(comm, 1, 2, false);
            cart.post_x_sends(Some(vec![1.0; 3]), None, 2);
            cart.recv_halo_dir(Direction::Left, 2, test_timeout())
        });
        assert_eq!(out[1], Some(HaloRecv::PeerDead));
    }
}
