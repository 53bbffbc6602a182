//! 2-D Cartesian process topology and neighbor halo exchange.
//!
//! Mirrors `MPI_Cart_create` / `MPI_Cart_shift`: ranks are laid out
//! row-major on a `py × px` grid, each knows its four neighbors, and
//! [`CartComm::exchange`] performs the fully point-to-point boundary-data
//! swap the paper's inference phase relies on (§III).

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

/// Outcome classification of one directional halo receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaloStatus {
    /// The strip arrived.
    Ok,
    /// The receive timed out — the message is presumed lost; the peer is
    /// (as far as we can tell) still alive. Recoverable by policy.
    Lost,
    /// The peer's thread is gone and nothing matching can ever arrive.
    /// NOT recoverable: a dead peer means its whole subdomain is missing,
    /// not one boundary strip, so every halo policy must treat this as
    /// fatal rather than mask it with fallback data.
    PeerDead,
}

/// One directional halo receive: the strip, or why it is missing.
#[derive(Clone, Debug, PartialEq)]
pub enum HaloRecv {
    /// The strip arrived.
    Ok(Vec<f64>),
    /// Timed out — presumed lost (recoverable by policy).
    Lost,
    /// The peer is dead (fatal under every policy).
    PeerDead,
}

impl HaloRecv {
    /// The status classification without the payload.
    pub fn status(&self) -> HaloStatus {
        match self {
            HaloRecv::Ok(_) => HaloStatus::Ok,
            HaloRecv::Lost => HaloStatus::Lost,
            HaloRecv::PeerDead => HaloStatus::PeerDead,
        }
    }

    /// The payload, if the strip arrived.
    pub fn into_data(self) -> Option<Vec<f64>> {
        match self {
            HaloRecv::Ok(buf) => Some(buf),
            _ => None,
        }
    }
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

    /// Exchanges boundary buffers with all existing neighbors in one fully
    /// point-to-point round: for each direction with a neighbor, sends
    /// `outgoing[dir]` and receives that neighbor's buffer sent toward us.
    ///
    /// Returns the four incoming buffers indexed like [`Direction::ALL`]
    /// (`None` where there is no neighbor). `tag` namespaces concurrent
    /// exchanges (e.g. one per field or per time step).
    pub fn exchange(
        &mut self,
        mut outgoing: [Option<Vec<f64>>; 4],
        tag: Tag,
    ) -> [Option<Vec<f64>>; 4] {
        // Post all sends first (eager buffering ⇒ no deadlock), then recv.
        self.post_sends(&mut outgoing, tag);
        let mut incoming: [Option<Vec<f64>>; 4] = [None, None, None, None];
        for dir in Direction::ALL {
            if let Some(nb) = self.neighbor(dir) {
                incoming[dir.index()] = Some(self.comm.recv(nb, encode_tag(tag, dir)));
            }
        }
        incoming
    }

    /// Like [`CartComm::exchange`] but loss-tolerant: each directional
    /// receive gives up after `timeout` and reports its outcome as a
    /// [`HaloRecv`] instead of blocking forever (lost message) or panicking
    /// (dead peer). Directions without a neighbor stay `None`.
    ///
    /// Timed-out receives bump this rank's `halos_lost` counter. A strip
    /// that arrives *after* its receive timed out lingers in the inbox
    /// harmlessly: every exchange uses a fresh tag, so it can never be
    /// matched by a later step.
    pub fn exchange_timeout(
        &mut self,
        mut outgoing: [Option<Vec<f64>>; 4],
        tag: Tag,
        timeout: Duration,
    ) -> [Option<HaloRecv>; 4] {
        self.post_sends(&mut outgoing, tag);
        let mut incoming: [Option<HaloRecv>; 4] = [None, None, None, None];
        for dir in Direction::ALL {
            if let Some(nb) = self.neighbor(dir) {
                incoming[dir.index()] = Some(self.recv_halo(nb, encode_tag(tag, dir), timeout));
            }
        }
        incoming
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

    /// The receive half of a split-phase exchange: one timed directional
    /// receive classified as a [`HaloRecv`]; `None` when there is no
    /// neighbor in `dir`. `tag` must match the value given to the
    /// corresponding `post_*_sends` call.
    pub fn recv_halo_dir(
        &mut self,
        dir: Direction,
        tag: Tag,
        timeout: Duration,
    ) -> Option<HaloRecv> {
        self.neighbor(dir)
            .map(|nb| self.recv_halo(nb, encode_tag(tag, dir), timeout))
    }

    /// Moves each outgoing buffer (no payload clone) to its neighbor.
    fn post_sends(&mut self, outgoing: &mut [Option<Vec<f64>>; 4], tag: Tag) {
        for dir in Direction::ALL {
            if let Some(nb) = self.neighbor(dir) {
                // `take()` moves the caller's buffer out instead of cloning
                // it — the payload allocation travels through the channel.
                let buf = outgoing[dir.index()].take().unwrap_or_else(|| {
                    panic!("exchange: neighbor in {dir:?} but no outgoing buffer")
                });
                // Tag encodes the direction *from the receiver's view* so
                // concurrent opposite-direction messages can't be confused.
                self.comm.send(nb, encode_tag(tag, dir.opposite()), buf);
            }
        }
    }

    /// One timed directional receive classified as a [`HaloRecv`].
    fn recv_halo(&mut self, src: usize, tag: Tag, timeout: Duration) -> HaloRecv {
        use pde_trace::{names, Category};
        crate::live::halo_recv_attempts().inc(self.comm.rank());
        let mut span = pde_trace::span_args(Category::Comm, names::HALO_RECV, src as u64, 0);
        match self.comm.recv_timeout(src, tag, timeout) {
            Ok(buf) => {
                span.set_args(src as u64, buf.len() as u64 * 8);
                HaloRecv::Ok(buf)
            }
            Err(RecvError::Timeout) => {
                self.comm.stats().note_halo_lost();
                crate::live::halos_lost().inc(self.comm.rank());
                pde_trace::instant(Category::Comm, names::HALO_LOST, src as u64, 0);
                HaloRecv::Lost
            }
            Err(RecvError::Disconnected) => {
                pde_trace::instant(Category::Comm, names::HALO_PEER_DEAD, src as u64, 0);
                HaloRecv::PeerDead
            }
        }
    }
}

impl CartComm {
    /// One x-axis exchange round: sends `to_left`/`to_right` to the
    /// respective neighbors and returns `(from_left, from_right)`.
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
    /// `(from_down, from_up)`.
    pub fn exchange_y(
        &mut self,
        to_down: Option<Vec<f64>>,
        to_up: Option<Vec<f64>>,
        tag: Tag,
    ) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
        self.exchange_axis(to_down, to_up, Direction::Down, Direction::Up, tag)
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
        // Sends first (eager buffering), then receives.
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
            let mut outgoing: [Option<Vec<f64>>; 4] = [None, None, None, None];
            if cart.neighbor(Direction::Right).is_some() {
                outgoing[1] = Some(vec![me; 3]);
            }
            if cart.neighbor(Direction::Left).is_some() {
                outgoing[0] = Some(vec![me; 3]);
            }

            cart.exchange(outgoing, 1)
        });
        // Rank 0 received from its Right neighbor (rank 1).
        assert_eq!(out[0][1].as_ref().unwrap(), &vec![1.0; 3]);
        assert!(out[0][0].is_none());
        // Rank 1 received from its Left neighbor (rank 0).
        assert_eq!(out[1][0].as_ref().unwrap(), &vec![0.0; 3]);
        assert!(out[1][1].is_none());
    }

    #[test]
    fn exchange_on_2x2_torus_all_directions() {
        let out = World::new(4).run(|comm| {
            let me = comm.rank() as f64;
            let mut cart = CartComm::new(comm, 2, 2, true);
            let outgoing: [Option<Vec<f64>>; 4] = [
                Some(vec![me, 0.0]),
                Some(vec![me, 1.0]),
                Some(vec![me, 2.0]),
                Some(vec![me, 3.0]),
            ];
            let incoming = cart.exchange(outgoing, 2);
            incoming.map(|o| o.unwrap()[0] as usize)
        });
        // Rank 0 at (0,0) on a 2×2 torus: left & right neighbor both 1,
        // down & up both 2.
        assert_eq!(out[0], [1, 1, 2, 2]);
        // Rank 3 at (1,1): left/right 2, down/up 1.
        assert_eq!(out[3], [2, 2, 1, 1]);
    }

    #[test]
    fn repeated_exchanges_with_distinct_tags_do_not_cross() {
        let out = World::new(2).run(|comm| {
            let me = comm.rank() as f64;
            let mut cart = CartComm::new(comm, 1, 2, false);
            let dir = if cart.coords().1 == 0 { 1 } else { 0 };
            let mk = |v: f64| {
                let mut o: [Option<Vec<f64>>; 4] = [None, None, None, None];
                o[dir] = Some(vec![v]);
                o
            };
            let first = cart.exchange(mk(me), 10);
            let second = cart.exchange(mk(me + 100.0), 11);
            (
                first[dir].as_ref().unwrap()[0],
                second[dir].as_ref().unwrap()[0],
            )
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
        // Allocation parity: the Vec a rank hands to `exchange` must be the
        // very allocation its neighbor receives. Each rank encodes its
        // buffer's own address in the payload; the receiver checks that the
        // arrived Vec still lives at that address. A clone (the old
        // behaviour) would be a different allocation and fail — the original
        // is still alive inside `outgoing` for the whole call, so the
        // allocator cannot have reused its address.
        let out = World::new(2).run(|comm| {
            let mut cart = CartComm::new(comm, 1, 2, false);
            let dir = if cart.coords().1 == 0 {
                Direction::Right
            } else {
                Direction::Left
            };
            let mut buf = vec![0.0; 64];
            buf[0] = buf.as_ptr() as usize as f64; // < 2^47 — exact in f64
            let mut outgoing: [Option<Vec<f64>>; 4] = [None, None, None, None];
            outgoing[dir.index()] = Some(buf);
            let incoming = cart.exchange(outgoing, 5);
            let got = incoming[dir.index()].as_ref().unwrap();
            got.as_ptr() as usize as f64 == got[0]
        });
        assert_eq!(out, vec![true, true], "payload was cloned, not moved");
    }

    #[test]
    fn exchange_timeout_reports_lost_and_counts_it() {
        use crate::world::FaultPlan;
        use std::time::Duration;
        let plan = FaultPlan::drop_edge(0, 1);
        let (out, traffic) = World::new(2).with_fault_plan(plan).run_with_stats(|comm| {
            let rank = comm.rank();
            let mut cart = CartComm::new(comm, 1, 2, false);
            let dir = if rank == 0 {
                Direction::Right
            } else {
                Direction::Left
            };
            let mut outgoing: [Option<Vec<f64>>; 4] = [None, None, None, None];
            outgoing[dir.index()] = Some(vec![rank as f64; 3]);
            let incoming = cart.exchange_timeout(outgoing, 1, Duration::from_millis(40));
            let status = incoming[dir.index()].as_ref().unwrap().status();
            // Keep both ranks alive until both exchanges resolve: rank 0
            // finishing early would otherwise turn rank 1's in-progress
            // timeout into PeerDead. (Collectives are fault-exempt.)
            cart.comm_mut().barrier();
            status
        });
        // The 1→0 edge is healthy; the 0→1 edge drops.
        assert_eq!(out[0], HaloStatus::Ok);
        assert_eq!(out[1], HaloStatus::Lost);
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
                return HaloStatus::Ok; // dies immediately
            }
            let mut cart = CartComm::new(comm, 1, 2, false);
            let mut outgoing: [Option<Vec<f64>>; 4] = [None, None, None, None];
            outgoing[Direction::Left.index()] = Some(vec![1.0; 3]);
            let incoming = cart.exchange_timeout(outgoing, 2, test_timeout());
            incoming[Direction::Left.index()].as_ref().unwrap().status()
        });
        assert_eq!(out[1], HaloStatus::PeerDead);
    }
}
