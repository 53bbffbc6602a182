//! # pde-commsim
//!
//! An MPI-like message-passing runtime over OS threads — the substitute for
//! the Message Passing Interface the paper parallelizes with (DESIGN.md §2).
//!
//! A [`World`] spawns one thread per rank and hands each a [`Comm`] handle.
//! Point-to-point sends are buffered (a send never blocks), receives match
//! on `(source, tag)` with an out-of-order pending queue — the semantics of
//! `MPI_Send`/`MPI_Recv` with eager buffering. Collectives (barrier,
//! broadcast, reduce, allreduce, gather, allgather) are built on top of the
//! point-to-point layer, exactly as a small MPI implementation would.
//!
//! [`cart::CartComm`] adds the 2-D Cartesian topology and the neighbor halo
//! exchange the paper's *inference* phase needs ("Each processor sends the
//! boundary data to the corresponding neighbor … fully parallel
//! point-to-point communication", §III).
//!
//! Every rank's traffic is counted ([`CommStats`]), which is how the
//! experiment harness shows the headline property of the paper's scheme:
//! **zero bytes communicated during training**, O(boundary) bytes per step
//! during inference, versus O(weights) per step for the allreduce baseline.
//!
//! Fault injection for resilience: [`World::with_fault_plan`] can drop
//! messages on selected edges ([`FaultPlan::drop_edge`]), lose them with a
//! deterministic seeded per-message probability ([`FaultPlan::loss_rate`]),
//! or delay them ([`FaultPlan::delay_edge`]). Receivers observe loss
//! through [`Comm::recv_timeout`] or the halo-level
//! [`CartComm::recv_halo_dir`], which classifies every directional
//! receive as a [`HaloRecv`]: `Ok` (arrived), `Lost` (timed
//! out — recoverable by policy) or `PeerDead` (the peer thread is gone —
//! fatal in an unrecovered world, because a dead rank's whole subdomain is
//! missing, not one strip). The two failure modes are structurally
//! distinct: an inbox only disconnects when every peer has dropped its
//! handle, and buffered messages are still drained first.
//!
//! Worlds self-heal: a [`supervise::Supervisor`] detects dead ranks on a
//! [`PersistentWorld`], respawns them ([`PersistentWorld::respawn`]) and
//! rebuilds the communicator mesh under a fresh generation epoch, while a
//! seeded [`supervise::ChaosPlan`] (`kill:RANK:REQUEST[:STEP]`) schedules
//! deterministic rank deaths to prove it.

//!
//! The mechanism moving messages is pluggable: everything above the
//! [`transport::Transport`] trait (tag/generation matching, fault
//! injection, counters, collectives, halos) is shared by the in-process
//! [`transport::ChannelTransport`] (default) and the socket-backed
//! [`tcp::TcpTransport`], which lets a world's ranks run as separate OS
//! processes ([`World::with_transport`], [`tcp::connect_tcp_world`]).

pub mod cart;
pub mod comm;
mod live;
pub mod supervise;
pub mod tcp;
pub mod transport;
pub mod world;

pub use cart::{CartComm, Direction, HaloRecv};
pub use comm::{Comm, CommStats, Message, RecvError, Tag, TrafficReport};
pub use supervise::{record_recovery, ChaosPlan, KillSpec, RecoveryReport, Supervisor};
pub use tcp::{connect_tcp_world, TcpTransport};
pub use transport::{ChannelTransport, Transport};
pub use world::{FaultAction, FaultPlan, PersistentWorld, RankContext, TransportKind, World};

use std::time::Duration;

/// The receive timeout used by the fault-injection test suites, read from
/// `PDEML_TEST_TIMEOUT_MS` (default 2000 ms — generous, because on a loaded
/// CI runner a healthy rank can be descheduled for hundreds of
/// milliseconds, and a healthy message declared lost makes a test flaky).
/// A *dropped* message never arrives at all, so a generous timeout costs
/// wall-clock time only on genuinely lossy edges, never correctness.
pub fn test_timeout() -> Duration {
    timeout_from(std::env::var("PDEML_TEST_TIMEOUT_MS").ok().as_deref())
}

/// Pure body of [`test_timeout`], separated for deterministic testing.
pub(crate) fn timeout_from(var: Option<&str>) -> Duration {
    let ms = var.and_then(|v| v.parse().ok()).unwrap_or(2000);
    Duration::from_millis(ms)
}
