//! The per-rank communicator handle: point-to-point + collectives.
//!
//! `Comm` is pure protocol: tag/generation matching, the pending queue,
//! fault injection, traffic counters and collectives. The mechanism that
//! actually moves bytes lives below the [`Transport`] trait
//! ([`crate::ChannelTransport`] in-process, [`crate::TcpTransport`] across
//! processes) — every implementation inherits this entire layer untouched.

use crate::transport::{Poll, Transport};
use crate::world::FaultAction;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often a waiting receive re-checks peer aliveness. Purely a
/// detection-latency bound for dead peers — delivered messages wake the
/// receiver immediately regardless.
const ALIVENESS_SLICE: Duration = Duration::from_millis(10);

/// Message tag (same role as an MPI tag: disambiguates concurrent streams).
pub type Tag = u32;

/// A point-to-point message.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Sender rank.
    pub src: usize,
    /// Tag it was sent with.
    pub tag: Tag,
    /// Generation (job epoch) it was sent in. Receives only match messages
    /// of their own generation, so a message lingering from an earlier job
    /// on a persistent world — a delayed delivery, or a halo strip that
    /// arrived after its receive timed out — can never be mistaken for this
    /// job's traffic, even though jobs reuse the same tag values.
    pub gen: u32,
    /// Payload.
    pub data: Vec<f64>,
}

/// Why a receive failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No matching message arrived within the timeout (possible message
    /// loss under fault injection, or a deadlock in user code).
    Timeout,
    /// All senders disconnected; no matching message can ever arrive.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "all senders disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Aggregate traffic counters of one rank (monotonic, thread-safe).
#[derive(Debug, Default)]
pub struct CommStats {
    /// Messages sent.
    pub msgs_sent: AtomicU64,
    /// Payload f64 values sent (multiply by 8 for bytes).
    pub values_sent: AtomicU64,
    /// Messages received (matched by a recv call).
    pub msgs_received: AtomicU64,
    /// Halo receives that timed out (message presumed lost).
    pub halos_lost: AtomicU64,
    /// Lost halos this rank replaced with zeros.
    pub halos_zero_filled: AtomicU64,
    /// Lost halos this rank replaced with the previous step's strip.
    pub halos_stale: AtomicU64,
}

impl CommStats {
    /// Bytes sent, assuming 8-byte payload values.
    pub fn bytes_sent(&self) -> u64 {
        self.values_sent.load(Ordering::Relaxed) * 8
    }

    /// Messages sent.
    pub fn sent(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Messages received.
    pub fn received(&self) -> u64 {
        self.msgs_received.load(Ordering::Relaxed)
    }

    /// Records one halo receive that timed out.
    pub fn note_halo_lost(&self) {
        self.halos_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one lost halo that was replaced with zeros.
    pub fn note_halo_zero_filled(&self) {
        self.halos_zero_filled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one lost halo that reused the previous step's strip.
    pub fn note_halo_stale(&self) {
        self.halos_stale.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-value snapshot of all counters.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            msgs_sent: self.sent(),
            bytes_sent: self.bytes_sent(),
            msgs_received: self.received(),
            halos_lost: self.halos_lost.load(Ordering::Relaxed),
            halos_zero_filled: self.halos_zero_filled.load(Ordering::Relaxed),
            halos_stale: self.halos_stale.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value snapshot of one rank's traffic and halo-resilience
/// counters — the named replacement for the old `(sent, bytes, received)`
/// tuple.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Messages sent (dropped messages still count: the sender paid for
    /// them).
    pub msgs_sent: u64,
    /// Payload bytes sent (8 per f64 value).
    pub bytes_sent: u64,
    /// Messages received (matched by a recv call).
    pub msgs_received: u64,
    /// Halo receives that timed out (message presumed lost).
    pub halos_lost: u64,
    /// Lost halos replaced with zeros.
    pub halos_zero_filled: u64,
    /// Lost halos replaced with the previous step's (stale) strip.
    pub halos_stale: u64,
}

impl TrafficReport {
    /// Counter increments since an `earlier` snapshot of the same rank —
    /// how a persistent world attributes traffic to individual requests.
    pub fn since(&self, earlier: &TrafficReport) -> TrafficReport {
        TrafficReport {
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            msgs_received: self.msgs_received - earlier.msgs_received,
            halos_lost: self.halos_lost - earlier.halos_lost,
            halos_zero_filled: self.halos_zero_filled - earlier.halos_zero_filled,
            halos_stale: self.halos_stale - earlier.halos_stale,
        }
    }

    /// Total fallback substitutions (zero-filled + stale-reused).
    pub fn fallbacks(&self) -> u64 {
        self.halos_zero_filled + self.halos_stale
    }

    /// True when this rank observed any halo loss or substituted any
    /// fallback data.
    pub fn degraded(&self) -> bool {
        self.halos_lost > 0 || self.fallbacks() > 0
    }
}

/// Decides the fate of a message on edge `(src, dst, tag)`.
pub(crate) type FaultFn = dyn Fn(usize, usize, Tag) -> FaultAction + Send + Sync;

/// The communicator handle owned by one rank.
///
/// Cheap to pass by reference into library code; not clonable (one handle
/// per rank, like an MPI rank's view of `MPI_COMM_WORLD`).
pub struct Comm {
    rank: usize,
    size: usize,
    /// The mechanism moving messages: in-process channels or TCP sockets.
    /// Its `peer_alive` view is what distinguishes
    /// [`RecvError::Disconnected`] (a dead peer) from
    /// [`RecvError::Timeout`] (a lost message).
    transport: Box<dyn Transport>,
    pending: Vec<Message>,
    stats: Arc<Vec<CommStats>>,
    /// Decides delivery, loss or delay per message.
    fault_fn: Option<Arc<FaultFn>>,
    /// Current job generation. Sends stamp it onto every [`Message`];
    /// receives only match messages of the same generation. A one-shot
    /// [`crate::World::run`] never moves past generation 0, so this field is
    /// invisible to existing callers; persistent worlds bump it between jobs
    /// via [`Comm::set_generation`]. The generation is deliberately NOT part
    /// of the fault-plan edge `(src, dst, tag)`, so a seeded loss pattern is
    /// identical whether a job runs on a fresh world or as the N-th job of a
    /// persistent one.
    gen: u32,
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Announce this rank's death: after shutdown, peers may observe
        // `peer_alive == false` and are guaranteed (by the transport
        // contract) that every send this rank made is already drainable —
        // so a post-observation drain misses nothing.
        self.transport.shutdown();
    }
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        transport: Box<dyn Transport>,
        stats: Arc<Vec<CommStats>>,
        fault_fn: Option<Arc<FaultFn>>,
    ) -> Self {
        Self {
            rank,
            size,
            transport,
            pending: Vec::new(),
            stats,
            fault_fn,
            gen: 0,
        }
    }

    /// Wraps an externally built transport (e.g. a
    /// [`crate::TcpTransport`] rendezvoused across processes) in a full
    /// protocol handle with its own stats block and optional fault plan.
    /// Collective-internal tags are fault-exempt, exactly as in
    /// [`crate::World`]-built comms.
    pub fn over_transport(
        rank: usize,
        size: usize,
        transport: Box<dyn Transport>,
        fault_plan: Option<&crate::world::FaultPlan>,
    ) -> Self {
        let stats: Arc<Vec<CommStats>> =
            Arc::new((0..size).map(|_| CommStats::default()).collect());
        Self::new(
            rank,
            size,
            transport,
            stats,
            fault_plan.map(crate::world::collective_exempt),
        )
    }

    /// Current job generation (0 on a fresh world).
    pub fn generation(&self) -> u32 {
        self.gen
    }

    /// Enters job generation `gen`: subsequent sends are stamped with it and
    /// receives only match it. Messages parked from generations older than
    /// `gen` are discarded — they can never match again — while messages
    /// from future generations (a peer already past its own bump) stay
    /// parked until this rank catches up.
    ///
    /// # Panics
    /// If `gen` moves backwards: re-entering an old generation would let its
    /// leftover traffic alias the new job's.
    pub fn set_generation(&mut self, gen: u32) {
        assert!(
            gen >= self.gen,
            "set_generation: cannot rewind from {} to {gen} (rank {})",
            self.gen,
            self.rank
        );
        self.gen = gen;
        self.pending.retain(|m| m.gen >= gen);
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's traffic counters.
    pub fn stats(&self) -> &CommStats {
        &self.stats[self.rank]
    }

    /// True while `rank` can still send to this rank (its communicator has
    /// not shut down). A rank counts itself alive.
    pub fn peer_alive(&self, rank: usize) -> bool {
        assert!(
            rank < self.size,
            "peer_alive: rank {rank} out of range (size {})",
            self.size
        );
        rank == self.rank || self.transport.peer_alive(rank)
    }

    /// Ranks whose communicators have shut down, as observed from this
    /// rank — the supervisor's failure-detection input.
    pub fn dead_peers(&self) -> Vec<usize> {
        (0..self.size)
            .filter(|&r| r != self.rank && !self.transport.peer_alive(r))
            .collect()
    }

    /// Buffered (eager) send: enqueues and returns immediately.
    ///
    /// # Panics
    /// If `dest` is out of range or is this rank (self-sends are almost
    /// always a bug in SPMD code; loop back through memory instead).
    pub fn send(&self, dest: usize, tag: Tag, data: Vec<f64>) {
        assert!(
            dest < self.size,
            "send: dest {dest} out of range (size {})",
            self.size
        );
        assert_ne!(dest, self.rank, "send: self-send (rank {})", self.rank);
        let s = &self.stats[self.rank];
        s.msgs_sent.fetch_add(1, Ordering::Relaxed);
        s.values_sent
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        crate::live::send_bytes().add(self.rank, data.len() as u64 * 8);
        // Traced bytes must mirror `values_sent` exactly (×8):
        // `tests/pipeline.rs` asserts the two ledgers agree per rank.
        pde_trace::instant(
            pde_trace::Category::Comm,
            pde_trace::names::SEND,
            dest as u64,
            data.len() as u64 * 8,
        );
        let action = self
            .fault_fn
            .as_ref()
            .map_or(FaultAction::Deliver, |f| f(self.rank, dest, tag));
        let msg = Message {
            src: self.rank,
            tag,
            gen: self.gen,
            data,
        };
        match action {
            FaultAction::Drop => (), // silently dropped by the fault plan
            // Delivering to a rank that already died is a no-op inside the
            // transport: the peer can never read the message anyway, and
            // the death is surfaced on the *receive* side as
            // `RecvError::Disconnected` (which resilient protocols must
            // treat as fatal).
            FaultAction::Deliver => self.transport.deliver(dest, msg),
            FaultAction::Delay(delay) => self.transport.deliver_delayed(dest, msg, delay),
        }
    }

    /// Counts one matched receive on the per-rank [`CommStats`].
    #[inline]
    fn note_received(&self) {
        self.stats[self.rank]
            .msgs_received
            .fetch_add(1, Ordering::Relaxed);
    }

    fn take_pending(&mut self, src: usize, tag: Tag) -> Option<Message> {
        let idx = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag && m.gen == self.gen)?;
        // Order-preserving removal, NOT `swap_remove`: the queue must stay in
        // arrival order, or two same-(src, tag) messages parked behind an
        // earlier removal would swap — a FIFO violation that (for example)
        // crossed the payloads of two back-to-back gathers. The queue is
        // small and transient, so O(n) removal is irrelevant.
        Some(self.pending.remove(idx))
    }

    /// True when `msg` matches what this receive is waiting for. Stale
    /// generations never match; the caller routes non-matching messages
    /// through [`Comm::park`].
    fn matches(&self, msg: &Message, src: usize, tag: Tag) -> bool {
        msg.src == src && msg.tag == tag && msg.gen == self.gen
    }

    /// Parks a non-matching arrival for a later receive — unless it belongs
    /// to a past generation, in which case it is dropped on the floor: no
    /// receive can ever match it again, and keeping it would let leftovers
    /// of finished jobs accumulate for the lifetime of a persistent world.
    fn park(&mut self, msg: Message) {
        if msg.gen >= self.gen {
            self.pending.push(msg);
        }
    }

    /// Blocking receive matching `(src, tag)`; out-of-order arrivals are
    /// parked in a pending queue.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Vec<f64> {
        match self.recv_impl(src, tag, None) {
            Ok(m) => m,
            Err(e) => panic!("recv(src={src}, tag={tag}) on rank {}: {e}", self.rank),
        }
    }

    /// Like [`Comm::recv`] but gives up after `timeout` — the building block
    /// for loss-tolerant protocols under fault injection.
    pub fn recv_timeout(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Vec<f64>, RecvError> {
        self.recv_impl(src, tag, Some(timeout))
    }

    fn recv_impl(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Vec<f64>, RecvError> {
        assert!(
            src < self.size,
            "recv: src {src} out of range (size {})",
            self.size
        );
        // Span covers the whole matching wait — its duration IS the comm
        // stall this receive caused. Bytes are filled in on success.
        let mut span = pde_trace::span_args(
            pde_trace::Category::Comm,
            pde_trace::names::RECV,
            src as u64,
            0,
        );
        if let Some(m) = self.take_pending(src, tag) {
            self.note_received();
            span.set_args(src as u64, m.data.len() as u64 * 8);
            return Ok(m.data);
        }
        // Drain already-delivered messages non-blockingly BEFORE any
        // deadline arithmetic: a zero (or already expired) timeout must
        // still return a message that is sitting in the inbox. Declaring
        // `Timeout` without polling would turn delivered data into a
        // phantom loss.
        if let Some(data) = self.drain_inbox(src, tag)? {
            span.set_args(src as u64, data.len() as u64 * 8);
            return Ok(data);
        }
        // A single `Instant` deadline computed ONCE: every retry iteration
        // below waits only the *remaining* budget, so a receive can never
        // wait multiples of the configured timeout no matter how many
        // aliveness slices or non-matching arrivals it cycles through.
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            // A dead peer can never send again. The transport guarantees
            // every send that rank ever made is drainable before
            // `peer_alive` reads false, so one more drain after observing
            // death is guaranteed to see any matching message — only then
            // is `Disconnected` the truth, not a race.
            if !self.transport.peer_alive(src) {
                if let Some(data) = self.drain_inbox(src, tag)? {
                    span.set_args(src as u64, data.len() as u64 * 8);
                    return Ok(data);
                }
                return Err(RecvError::Disconnected);
            }
            let wait = match deadline {
                None => ALIVENESS_SLICE,
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        return Err(RecvError::Timeout);
                    }
                    (d - now).min(ALIVENESS_SLICE)
                }
            };
            match self.transport.recv_timeout(wait) {
                Poll::Msg(msg) if self.matches(&msg, src, tag) => {
                    self.note_received();
                    span.set_args(src as u64, msg.data.len() as u64 * 8);
                    return Ok(msg.data);
                }
                Poll::Msg(msg) => self.park(msg),
                // Slice expired: loop back to re-check aliveness/deadline.
                Poll::Empty => (),
                Poll::Closed => return Err(RecvError::Disconnected),
            }
        }
    }

    /// Drains every already-delivered message without blocking; returns the
    /// payload if one matches `(src, tag)`, parking the rest in the pending
    /// queue. `Err(Disconnected)` only when every peer's handle is gone.
    fn drain_inbox(&mut self, src: usize, tag: Tag) -> Result<Option<Vec<f64>>, RecvError> {
        loop {
            match self.transport.try_recv() {
                Poll::Msg(msg) if self.matches(&msg, src, tag) => {
                    self.note_received();
                    return Ok(Some(msg.data));
                }
                Poll::Msg(msg) => self.park(msg),
                Poll::Empty => return Ok(None),
                Poll::Closed => return Err(RecvError::Disconnected),
            }
        }
    }

    /// Non-blocking probe-and-receive.
    pub fn try_recv(&mut self, src: usize, tag: Tag) -> Option<Vec<f64>> {
        if let Some(m) = self.take_pending(src, tag) {
            self.note_received();
            return Some(m.data);
        }
        while let Poll::Msg(msg) = self.transport.try_recv() {
            if self.matches(&msg, src, tag) {
                self.note_received();
                return Some(msg.data);
            }
            self.park(msg);
        }
        None
    }

    // ------------------------------------------------------------------
    // Collectives (tag space 0xFFFF_0000.. reserved).
    // ------------------------------------------------------------------

    const TAG_BARRIER: Tag = 0xFFFF_0001;
    const TAG_BCAST: Tag = 0xFFFF_0002;
    const TAG_REDUCE: Tag = 0xFFFF_0003;
    const TAG_GATHER: Tag = 0xFFFF_0004;

    /// Synchronizes all ranks (dissemination barrier: ⌈log₂ n⌉ rounds).
    ///
    /// Dead-tolerant: a check-in expected from a dead rank is skipped —
    /// the dead can never arrive, every live rank still sends all of its
    /// own rounds (so no *survivor* ever blocks on another survivor), and
    /// the dissemination pattern does no relaying, so survivors cannot
    /// depend on the dead transitively. Wedging every collective on a rank
    /// that is already being respawned would make recovery impossible; the
    /// fate of the dead rank's *data* is decided at the halo layer (fatal
    /// under `Strict`, degradable when recovery is underway). With no
    /// timeout the only error the receive can return is `Disconnected`, so
    /// fully-alive worlds behave exactly as before.
    pub fn barrier(&mut self) {
        let n = self.size;
        if n == 1 {
            return;
        }
        let _span = pde_trace::span(pde_trace::Category::Comm, pde_trace::names::BARRIER);
        let mut round = 1usize;
        let mut round_idx = 0u32;
        while round < n {
            let dest = (self.rank + round) % n;
            let src = (self.rank + n - round % n) % n;
            self.send(dest, Self::TAG_BARRIER + (round_idx << 8), Vec::new());
            let _ = self.recv_impl(src, Self::TAG_BARRIER + (round_idx << 8), None);
            round <<= 1;
            round_idx += 1;
        }
    }

    /// Broadcasts `data` from `root` to every rank; returns the received
    /// (or, on the root, the original) buffer.
    pub fn broadcast(&mut self, root: usize, data: Vec<f64>) -> Vec<f64> {
        assert!(root < self.size, "broadcast: root out of range");
        if self.size == 1 {
            return data;
        }
        if self.rank == root {
            for r in 0..self.size {
                if r != root {
                    self.send(r, Self::TAG_BCAST, data.clone());
                }
            }
            data
        } else {
            self.recv(root, Self::TAG_BCAST)
        }
    }

    /// Elementwise-sum reduction to `root`; non-root ranks get `None`.
    pub fn reduce_sum(&mut self, root: usize, data: &[f64]) -> Option<Vec<f64>> {
        assert!(root < self.size, "reduce_sum: root out of range");
        if self.rank == root {
            let mut acc = data.to_vec();
            for r in 0..self.size {
                if r == root {
                    continue;
                }
                let part = self.recv(r, Self::TAG_REDUCE);
                assert_eq!(
                    part.len(),
                    acc.len(),
                    "reduce_sum: length mismatch from rank {r}"
                );
                for (a, b) in acc.iter_mut().zip(part) {
                    *a += b;
                }
            }
            Some(acc)
        } else {
            self.send(root, Self::TAG_REDUCE, data.to_vec());
            None
        }
    }

    /// Elementwise-sum allreduce (reduce to rank 0, then broadcast) — the
    /// communication pattern of the Viviani-style weight-averaging baseline.
    pub fn allreduce_sum(&mut self, data: &[f64]) -> Vec<f64> {
        let reduced = self.reduce_sum(0, data);
        match reduced {
            Some(v) => self.broadcast(0, v),
            None => self.broadcast(0, Vec::new()),
        }
    }

    /// Gathers each rank's buffer at `root` (ordered by rank); non-root
    /// ranks get `None`.
    pub fn gather(&mut self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        assert!(root < self.size, "gather: root out of range");
        if self.rank == root {
            let mut out = vec![Vec::new(); self.size];
            out[root] = data.to_vec();
            for r in (0..self.size).filter(|&r| r != root) {
                out[r] = self.recv(r, Self::TAG_GATHER);
            }
            Some(out)
        } else {
            self.send(root, Self::TAG_GATHER, data.to_vec());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;
    use std::time::Duration;

    #[test]
    fn rank_and_size_are_assigned() {
        let out = World::new(4).run(|comm| {
            assert_eq!(comm.size(), 4);
            comm.rank()
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_pass_point_to_point() {
        let n = 5;
        let out = World::new(n).run(move |mut comm| {
            let next = (comm.rank() + 1) % n;
            let prev = (comm.rank() + n - 1) % n;
            comm.send(next, 7, vec![comm.rank() as f64]);
            let got = comm.recv(prev, 7);
            got[0] as usize
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let out = World::new(2).run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
                comm.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive in reverse tag order.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = counter.clone();
        World::new(8).run(move |mut comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must see all 8 increments.
            assert_eq!(c2.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = World::new(4).run(|mut comm| {
            let data = if comm.rank() == 2 {
                vec![3.25, 2.5]
            } else {
                Vec::new()
            };
            comm.broadcast(2, data)
        });
        for r in out {
            assert_eq!(r, vec![3.25, 2.5]);
        }
    }

    #[test]
    fn reduce_and_allreduce_sum() {
        let out = World::new(4).run(|mut comm| {
            let mine = vec![comm.rank() as f64, 1.0];

            comm.allreduce_sum(&mine)
        });
        for r in out {
            assert_eq!(r, vec![6.0, 4.0]); // 0+1+2+3, 1×4
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = World::new(3).run(|mut comm| comm.gather(0, &[comm.rank() as f64 * 2.0]));
        let root = out[0].as_ref().unwrap();
        assert_eq!(root, &vec![vec![0.0], vec![2.0], vec![4.0]]);
        assert!(out[1].is_none() && out[2].is_none());
    }

    #[test]
    fn parked_messages_keep_per_edge_fifo_across_tag_matches() {
        // Regression: `take_pending` used `swap_remove`, which moved the
        // LAST parked message into the removed slot — so taking an earlier
        // entry swapped two same-(src, tag) messages parked behind it, and
        // back-to-back gathers could cross payloads. The receive order here
        // forces exactly that shape: recv(tag 8) parks [9, 7a, 7b] in
        // arrival order, recv(tag 9) removes index 0, and the two tag-7
        // receives must still come back in send order on every transport.
        for kind in [crate::TransportKind::Channel, crate::TransportKind::Tcp] {
            let out = World::new(2).with_transport(kind).run(|mut comm| {
                if comm.rank() == 1 {
                    comm.send(0, 9, vec![9.0]);
                    comm.send(0, 7, vec![1.0]);
                    comm.send(0, 7, vec![2.0]);
                    comm.send(0, 8, vec![8.0]);
                    comm.barrier();
                    Vec::new()
                } else {
                    assert_eq!(comm.recv(1, 8), vec![8.0]);
                    assert_eq!(comm.recv(1, 9), vec![9.0]);
                    let first = comm.recv(1, 7);
                    let second = comm.recv(1, 7);
                    comm.barrier();
                    vec![first[0], second[0]]
                }
            });
            assert_eq!(
                out[0],
                vec![1.0, 2.0],
                "{kind:?}: same-(src, tag) messages must stay FIFO"
            );
        }
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let out = World::new(2).run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0.0; 10]);
                (comm.stats().sent(), comm.stats().bytes_sent())
            } else {
                let _ = comm.recv(0, 0);
                (comm.stats().received(), 0)
            }
        });
        assert_eq!(out[0], (1, 80));
        assert_eq!(out[1].0, 1);
    }

    #[test]
    fn try_recv_returns_none_without_message() {
        World::new(2).run(|mut comm| {
            if comm.rank() == 0 {
                assert!(comm.try_recv(1, 9).is_none());
                comm.barrier();
            } else {
                comm.barrier();
            }
        });
    }

    #[test]
    fn recv_timeout_expires() {
        World::new(2).run(|mut comm| {
            if comm.rank() == 0 {
                let r = comm.recv_timeout(1, 42, Duration::from_millis(20));
                assert!(r.is_err());
            }
            comm.barrier();
        });
    }

    #[test]
    fn recv_timeout_zero_deadline_returns_delivered_message() {
        // Regression: an expired/zero deadline used to report `Timeout`
        // without ever polling the inbox, losing a message that had already
        // been delivered. The std Barrier guarantees the payload is in rank
        // 1's channel (sends enqueue synchronously) before the zero-timeout
        // receive runs — no sleeps, no races.
        use std::sync::{Arc, Barrier};
        let gate = Arc::new(Barrier::new(2));
        World::new(2).run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![42.0, 43.0]);
                gate.wait();
            } else {
                gate.wait();
                let got = comm.recv_timeout(0, 9, Duration::ZERO);
                assert_eq!(got, Ok(vec![42.0, 43.0]));
            }
        });
    }

    #[test]
    fn recv_timeout_zero_deadline_finds_pending_message() {
        // Same regression via the pending queue: a non-matching receive
        // parks the message; the zero-timeout receive must still find it.
        use std::sync::{Arc, Barrier};
        let gate = Arc::new(Barrier::new(2));
        World::new(2).run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1.0]);
                comm.send(1, 6, vec![2.0]);
                gate.wait();
            } else {
                gate.wait();
                // Receiving tag 6 first parks tag 5 in pending.
                assert_eq!(comm.recv(0, 6), vec![2.0]);
                assert_eq!(comm.recv_timeout(0, 5, Duration::ZERO), Ok(vec![1.0]));
            }
        });
    }

    #[test]
    fn dead_peer_is_disconnected_not_timeout() {
        // Rank 0 exits immediately; rank 1's wait must resolve to
        // `Disconnected` (peer death), never be mistaken for a `Timeout`
        // (message loss). A generous timeout proves we do not simply expire.
        use crate::comm::RecvError;
        World::new(2).run(|mut comm| {
            if comm.rank() == 1 {
                let r = comm.recv_timeout(0, 3, Duration::from_secs(30));
                assert_eq!(r, Err(RecvError::Disconnected));
            }
        });
    }

    #[test]
    fn message_sent_before_peer_death_is_still_received() {
        // Buffered messages outlive their sender: death is only reported
        // once nothing matching can ever arrive.
        World::new(2).run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, vec![7.0]);
            } else {
                assert_eq!(comm.recv(0, 4), vec![7.0]);
            }
        });
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let out = World::new(1).run(|mut comm| {
            comm.barrier();
            let b = comm.broadcast(0, vec![5.0]);

            comm.allreduce_sum(&b)
        });
        assert_eq!(out[0], vec![5.0]);
    }
}
