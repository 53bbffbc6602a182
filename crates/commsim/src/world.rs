//! World construction: spawn ranks, wire channels, collect results.
//!
//! Two execution models share one wiring:
//!
//! * [`World::run`] — the classic one-shot SPMD call: spawn a thread per
//!   rank, run the closure, join, return. Internally this is now a
//!   single-job [`PersistentWorld`], so both models exercise the same code.
//! * [`World::spawn_persistent`] — rank threads stay up between jobs, each
//!   driven by a job mailbox. `Comm`s (and any rank-resident state) survive
//!   across jobs; cross-job message bleed is prevented by generation
//!   tagging ([`Comm::set_generation`]).

use crate::comm::{Comm, CommStats, FaultFn, Message, Tag, TrafficReport};
use crate::supervise::{record_recovery, RecoveryReport};
use crate::transport::ChannelTransport;
use crossbeam::channel::{unbounded, Sender};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What the fault plan does to a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Silently drop (the sender still counts it as sent).
    Drop,
    /// Deliver after sitting in flight for the given duration — a slow
    /// link. A delay longer than the receiver's timeout is observed as a
    /// loss by that receive (the message still arrives and lingers in the
    /// inbox afterwards, exactly like a late datagram).
    Delay(Duration),
}

/// A deterministic fault-injection plan: maps message edges to actions.
///
/// Collective-internal tags (`0xFFFF_0000` and above) are never subjected
/// to faults — dropping a barrier message would wedge the whole world and
/// test nothing interesting.
#[derive(Clone)]
pub struct FaultPlan {
    f: Arc<dyn Fn(usize, usize, Tag) -> FaultAction + Send + Sync>,
}

impl FaultPlan {
    /// Builds a plan from a `(src, dst, tag) → action` function.
    pub fn new(f: impl Fn(usize, usize, Tag) -> FaultAction + Send + Sync + 'static) -> Self {
        Self { f: Arc::new(f) }
    }

    /// Drops every message from `src` to `dst` (any user tag).
    pub fn drop_edge(src: usize, dst: usize) -> Self {
        Self::new(move |s, d, _| {
            if s == src && d == dst {
                FaultAction::Drop
            } else {
                FaultAction::Deliver
            }
        })
    }

    /// Drops each user message independently with probability `rate`,
    /// decided by a pure hash of `(seed, src, dst, tag)` — no shared RNG
    /// state, so the SAME messages are lost on every run regardless of
    /// thread scheduling. That determinism is what makes degraded rollouts
    /// reproducible and testable.
    ///
    /// # Panics
    /// If `rate` is outside `[0, 1]`.
    pub fn loss_rate(rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "FaultPlan::loss_rate: rate {rate} outside [0, 1]"
        );
        Self::new(move |s, d, t| {
            if edge_uniform(seed, s, d, t) < rate {
                FaultAction::Drop
            } else {
                FaultAction::Deliver
            }
        })
    }

    /// Delays every message from `src` to `dst` by `delay`.
    pub fn delay_edge(src: usize, dst: usize, delay: Duration) -> Self {
        Self::new(move |s, d, _| {
            if s == src && d == dst {
                FaultAction::Delay(delay)
            } else {
                FaultAction::Deliver
            }
        })
    }

    /// Parses the CLI fault grammar:
    ///
    /// * `drop:SRC-DST` — drop every message on one edge;
    /// * `loss:RATE:SEED` — seeded per-message loss (`RATE` in `[0, 1]`);
    /// * `delay:SRC-DST:MS` — delay one edge by `MS` milliseconds.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Self::parse_impl(spec).map(|(plan, _)| plan)
    }

    /// Like [`FaultPlan::parse`], additionally validating every rank the
    /// spec names against `world_size` — the entry point for callers that
    /// know the world's shape. Without this check, a typo like `drop:0-9`
    /// in a 4-rank world parses fine and then silently never fires.
    pub fn parse_for(spec: &str, world_size: usize) -> Result<Self, String> {
        let (plan, ranks) = Self::parse_impl(spec)?;
        if let Some(&bad) = ranks.iter().find(|&&r| r >= world_size) {
            return Err(format!(
                "fault spec '{spec}': rank {bad} does not exist in a {world_size}-rank \
                 world (ranks are 0..={})",
                world_size - 1
            ));
        }
        Ok(plan)
    }

    /// Shared parser body: the plan plus every rank the spec mentioned
    /// (for [`FaultPlan::parse_for`]'s range check).
    fn parse_impl(spec: &str) -> Result<(Self, Vec<usize>), String> {
        let parse_edge = |edge: &str| -> Result<(usize, usize), String> {
            let (s, d) = edge
                .split_once('-')
                .ok_or_else(|| format!("fault edge '{edge}' is not SRC-DST"))?;
            let s = s
                .parse()
                .map_err(|_| format!("fault edge src '{s}' is not a rank"))?;
            let d = d
                .parse()
                .map_err(|_| format!("fault edge dst '{d}' is not a rank"))?;
            Ok((s, d))
        };
        match spec.split(':').collect::<Vec<_>>().as_slice() {
            ["drop", edge] => {
                let (s, d) = parse_edge(edge)?;
                Ok((Self::drop_edge(s, d), vec![s, d]))
            }
            ["loss", rate, seed] => {
                let rate: f64 = rate
                    .parse()
                    .map_err(|_| format!("loss rate '{rate}' is not a number"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("loss rate {rate} outside [0, 1]"));
                }
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("loss seed '{seed}' is not an integer"))?;
                Ok((Self::loss_rate(rate, seed), Vec::new()))
            }
            ["delay", edge, ms] => {
                let (s, d) = parse_edge(edge)?;
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("delay '{ms}' is not milliseconds"))?;
                Ok((
                    Self::delay_edge(s, d, Duration::from_millis(ms)),
                    vec![s, d],
                ))
            }
            ["drop", ..] => Err(format!(
                "fault spec '{spec}': drop takes exactly one edge (drop:SRC-DST)"
            )),
            ["loss", ..] => Err(format!(
                "fault spec '{spec}': loss takes a rate and a seed (loss:RATE:SEED)"
            )),
            ["delay", ..] => Err(format!(
                "fault spec '{spec}': delay takes an edge and milliseconds (delay:SRC-DST:MS)"
            )),
            [other, ..] if !other.is_empty() => Err(format!(
                "unknown fault directive '{other}' (known: drop, loss, delay; \
                 e.g. drop:0-1, loss:0.1:42, delay:0-1:20)"
            )),
            _ => Err(
                "empty fault spec (expected drop:SRC-DST, loss:RATE:SEED or delay:SRC-DST:MS)"
                    .to_string(),
            ),
        }
    }
}

/// Wraps a plan's edge function with the collective exemption (tags
/// `0xFFFF_0000` and above always deliver) — the filter every world-built
/// and every standalone [`Comm`] applies identically.
pub(crate) fn collective_exempt(plan: &FaultPlan) -> Arc<FaultFn> {
    let pf = plan.f.clone();
    Arc::new(move |s: usize, d: usize, t: Tag| {
        if t >= 0xFFFF_0000 {
            FaultAction::Deliver // collectives are exempt
        } else {
            pf(s, d, t)
        }
    }) as Arc<FaultFn>
}

/// One round of the splitmix64 finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in `[0, 1)` as a pure function of the message edge.
fn edge_uniform(seed: u64, src: usize, dst: usize, tag: Tag) -> f64 {
    let mut h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    for v in [src as u64, dst as u64, tag as u64] {
        h = splitmix64(h ^ v);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Which mechanism a world's ranks use to move messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channel mesh (the original, default mechanism).
    #[default]
    Channel,
    /// Loopback TCP sockets: each rank gets a real `TcpTransport`
    /// rendezvoused over `127.0.0.1`, exercising the exact framing,
    /// handshake and liveness machinery a multi-process world uses —
    /// while still running every rank in this process.
    Tcp,
}

impl TransportKind {
    /// Parses the CLI grammar: `channel` | `tcp`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "channel" => Ok(Self::Channel),
            "tcp" => Ok(Self::Tcp),
            other => Err(format!("unknown transport '{other}' (channel or tcp)")),
        }
    }

    /// The CLI-grammar name (inverse of [`TransportKind::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Channel => "channel",
            Self::Tcp => "tcp",
        }
    }
}

/// A fixed-size collection of ranks executing one SPMD closure.
///
/// Clonable because a [`PersistentWorld`] keeps its originating spec: a
/// respawn rebuilds the communicator mesh from the same size, fault plan
/// and transport the world was born with.
#[derive(Clone)]
pub struct World {
    size: usize,
    fault_plan: Option<FaultPlan>,
    transport: TransportKind,
}

impl World {
    /// A world with `size` ranks.
    ///
    /// # Panics
    /// If `size` is 0.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "World: need at least one rank");
        Self {
            size,
            fault_plan: None,
            transport: TransportKind::Channel,
        }
    }

    /// Attaches a fault-injection plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Selects the transport mechanism (builder style; default channel).
    pub fn with_transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f` once per rank on its own OS thread and returns the per-rank
    /// results ordered by rank. Panics in any rank propagate (after all
    /// other ranks have been joined or have panicked themselves).
    ///
    /// This is a thin one-job wrapper over [`World::spawn_persistent`]: the
    /// world is spawned, the closure runs once per rank as the single job
    /// (each rank's `Comm` is taken out of its slot, so it drops — and its
    /// aliveness flag clears — the moment `f` returns, exactly like the
    /// original thread-per-run model), and the world is torn down. All
    /// fault-injection and tracing machinery rides along unchanged; a
    /// closure that wants its rank's traffic returns `comm.stats().report()`.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        let labels = (0..self.size).collect();
        self.clone()
            .spawn_persistent_labeled(labels, ONE_SHOT_THREADS)
            .run(|mut ctx| {
                let comm = ctx.take_comm().expect("fresh world has a resident comm");
                f(comm)
            })
    }

    /// Builds the per-rank communicators (channel mesh, stats, aliveness
    /// flags, fault filter) without running anything — the wiring shared by
    /// the one-shot and persistent execution models, and re-entered by
    /// [`PersistentWorld::respawn`] to rebuild the mesh after rank deaths.
    ///
    /// `stats` and `alive` are owned by the caller so they stay stable
    /// across mesh rebuilds: traffic counters keep accumulating
    /// monotonically, and health checks holding the `alive` Arc observe
    /// recovery instead of a latched dead-rank view. Every aliveness flag
    /// is re-armed true here — the mesh being built is, by construction,
    /// fully alive.
    fn build_comms(&self, stats: &Arc<Vec<CommStats>>, alive: &Arc<Vec<AtomicBool>>) -> Vec<Comm> {
        let n = self.size;
        assert_eq!(stats.len(), n, "stats block per rank");
        assert_eq!(alive.len(), n, "aliveness flag per rank");
        let fault_fn: Option<Arc<FaultFn>> = self.fault_plan.as_ref().map(collective_exempt);
        // One aliveness flag per rank, cleared when its Comm drops (normal
        // completion or panic-unwind alike): "this rank will never send
        // again". The channel transport doubles it as the receive-side
        // death signal; the TCP transport keeps its own per-connection
        // view and only clears this world-level flag (for health checks)
        // on its own shutdown.
        for flag in alive.iter() {
            flag.store(true, Ordering::Release);
        }
        match self.transport {
            TransportKind::Channel => {
                // One inbox per rank; every rank holds a sender clone to
                // every OTHER inbox (no self-sender — self-sends are
                // forbidden, and the gap is what lets an inbox disconnect
                // once all peers are gone, so a dead peer is
                // distinguishable from a lost message).
                let (senders, inboxes): (Vec<_>, Vec<_>) =
                    (0..n).map(|_| unbounded::<Message>()).unzip();
                let comms: Vec<Comm> = inboxes
                    .into_iter()
                    .enumerate()
                    .map(|(rank, inbox)| {
                        let peer_senders: Vec<Option<Sender<Message>>> = senders
                            .iter()
                            .enumerate()
                            .map(|(r, s)| if r == rank { None } else { Some(s.clone()) })
                            .collect();
                        let transport =
                            ChannelTransport::new(rank, peer_senders, inbox, alive.clone());
                        Comm::new(
                            rank,
                            n,
                            Box::new(transport),
                            stats.clone(),
                            fault_fn.clone(),
                        )
                    })
                    .collect();
                // Drop the original senders so channels close when all
                // ranks finish.
                drop(senders);
                comms
            }
            TransportKind::Tcp => crate::tcp::loopback_mesh(n, alive)
                .into_iter()
                .enumerate()
                .map(|(rank, transport)| {
                    Comm::new(
                        rank,
                        n,
                        Box::new(transport),
                        stats.clone(),
                        fault_fn.clone(),
                    )
                })
                .collect(),
        }
    }

    /// Spawns the world's rank threads once and keeps them alive: each rank
    /// worker owns its `Comm` in a [`RankSlot`] and executes jobs from a
    /// mailbox until the [`PersistentWorld`] is dropped. Use this when the
    /// same world serves many requests — per-rank state (networks, caches,
    /// scratch buffers) survives between jobs instead of being rebuilt.
    pub fn spawn_persistent(self) -> PersistentWorld {
        let labels = (0..self.size).collect();
        self.spawn_persistent_labeled(labels, RESIDENT_THREADS)
    }

    /// Partitions this world into disjoint rank groups and spawns one
    /// independent [`PersistentWorld`] per group. `groups[g]` lists the
    /// *global* rank ids served by sub-world `g`; within each sub-world,
    /// comm ranks are group-local `0..groups[g].len()` (so a 2-rank
    /// sub-world is indistinguishable — tags, fault decisions, arithmetic —
    /// from a freshly spawned 2-rank world), while thread names and live
    /// telemetry keep the global labels.
    ///
    /// Every sub-world inherits the parent's fault plan and transport but
    /// owns its own mesh, traffic stats, aliveness flags and generation
    /// counter: jobs on different sub-worlds share nothing and can run
    /// concurrently with zero cross-talk.
    ///
    /// Errors when the groups are not a partition of `0..size` (a rank
    /// missing, duplicated, or out of range) — a sub-world layout typo
    /// would otherwise strand ranks silently.
    pub fn split(self, groups: &[Vec<usize>]) -> Result<Vec<PersistentWorld>, String> {
        let n = self.size;
        if groups.is_empty() {
            return Err("split: need at least one rank group".to_string());
        }
        let mut seen = vec![false; n];
        for (g, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(format!("split: group {g} is empty"));
            }
            for &r in group {
                if r >= n {
                    return Err(format!(
                        "split: group {g} names rank {r} but the world has ranks 0..={}",
                        n - 1
                    ));
                }
                if seen[r] {
                    return Err(format!("split: rank {r} appears in more than one group"));
                }
                seen[r] = true;
            }
        }
        if let Some(orphan) = seen.iter().position(|covered| !covered) {
            return Err(format!(
                "split: rank {orphan} belongs to no group (groups must cover every rank)"
            ));
        }
        Ok(groups
            .iter()
            .map(|group| {
                World {
                    size: group.len(),
                    fault_plan: self.fault_plan.clone(),
                    transport: self.transport,
                }
                .spawn_persistent_labeled(group.clone(), RESIDENT_THREADS)
            })
            .collect())
    }

    /// [`World::split`] into `parts` contiguous equal-sized groups — the
    /// common serving shape (`--sub-worlds N`). Errors unless `parts`
    /// divides the rank count evenly.
    pub fn split_even(self, parts: usize) -> Result<Vec<PersistentWorld>, String> {
        if parts == 0 {
            return Err("split_even: need at least one part".to_string());
        }
        if !self.size.is_multiple_of(parts) {
            return Err(format!(
                "split_even: {} ranks do not divide into {parts} equal groups",
                self.size
            ));
        }
        let per = self.size / parts;
        let groups: Vec<Vec<usize>> = (0..parts)
            .map(|p| (p * per..(p + 1) * per).collect())
            .collect();
        self.split(&groups)
    }

    /// Shared spawn body: `labels[local_rank]` is the global rank id used
    /// for thread names (`<threads>-<label>`) and live telemetry
    /// attribution, while the `Comm`s (and everything built on them) see
    /// only local ranks `0..size`.
    fn spawn_persistent_labeled(
        self,
        labels: Vec<usize>,
        threads: &'static str,
    ) -> PersistentWorld {
        let n = self.size;
        assert_eq!(labels.len(), n, "one label per rank");
        let stats: Arc<Vec<CommStats>> = Arc::new((0..n).map(|_| CommStats::default()).collect());
        let alive: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(true)).collect());
        let comms = self.build_comms(&stats, &alive);
        let mut mailboxes = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for comm in comms {
            let (tx, rx) = mpsc::channel::<Job>();
            let rank = comm.rank();
            workers.push(spawn_rank_worker(
                threads,
                rank,
                n,
                labels[rank],
                Some(comm),
                rx,
            ));
            mailboxes.push(tx);
        }
        PersistentWorld {
            spec: self,
            size: n,
            labels,
            threads,
            mailboxes,
            workers,
            stats,
            alive,
            next_gen: 0,
            poisoned: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// Thread-name prefix of a resident world's rank workers
/// (`pdeml-rank-<label>`), respawns included.
const RESIDENT_THREADS: &str = "pdeml-rank";

/// Thread-name prefix of the ranks of a one-shot [`World::run`]
/// (`pdeml-job-<rank>`). A finished run's threads can still be listed by
/// the OS for a moment after they are joined; the distinct name keeps them
/// out of any count of a resident engine's rank threads.
const ONE_SHOT_THREADS: &str = "pdeml-job";

/// Spawns one persistent rank worker thread, named `<threads>-<label>`,
/// around a fresh [`RankSlot`]. Used at world birth (with the rank's comm
/// resident) and by [`PersistentWorld::respawn`] (with an empty slot — the
/// replacement comm arrives via the reinit job).
fn spawn_rank_worker(
    threads: &'static str,
    rank: usize,
    size: usize,
    label: usize,
    comm: Option<Comm>,
    rx: mpsc::Receiver<Job>,
) -> std::thread::JoinHandle<()> {
    let mut slot = RankSlot {
        rank,
        size,
        comm,
        state: None,
    };
    std::thread::Builder::new()
        .name(format!("{threads}-{label}"))
        .spawn(move || {
            // Tag the thread so live telemetry (kernel gauges)
            // shards per rank even when no trace session is active.
            // Sub-worlds tag with the GLOBAL rank label so two sub-worlds
            // never collide on one telemetry shard.
            pde_trace::set_thread_rank(label as u32);
            while let Ok(job) = rx.recv() {
                job(&mut slot);
            }
            // Mailbox disconnected: shutdown. Dropping the slot
            // drops the resident Comm (and any user state holding
            // one), clearing this rank's aliveness flag and closing
            // its share of the channel mesh.
        })
        .expect("spawn persistent rank worker")
}

/// A job shipped to one rank worker. Lifetime-erased: see the safety
/// argument in [`PersistentWorld::run_collect`].
type Job = Box<dyn FnOnce(&mut RankSlot) + Send + 'static>;

/// One rank worker's residency: its communicator (until a job takes it —
/// e.g. to move it into a `CartComm` kept in `state`) and an arbitrary
/// user-owned state that survives across jobs.
pub(crate) struct RankSlot {
    rank: usize,
    size: usize,
    comm: Option<Comm>,
    state: Option<Box<dyn Any + Send>>,
}

/// A job's view of its rank worker, passed to every closure run through
/// [`PersistentWorld::run`].
pub struct RankContext<'a> {
    slot: &'a mut RankSlot,
    gen: u32,
}

impl RankContext<'_> {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.slot.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.slot.size
    }

    /// The generation this job runs at. When a job owns its communicator
    /// inside [`RankContext::state`] (so the automatic per-job bump cannot
    /// reach it), it must forward this value via [`Comm::set_generation`]
    /// before communicating.
    pub fn generation(&self) -> u32 {
        self.gen
    }

    /// The slot-resident communicator.
    ///
    /// # Panics
    /// If a previous job moved the comm out with [`RankContext::take_comm`]
    /// and never put it back.
    pub fn comm(&mut self) -> &mut Comm {
        self.slot
            .comm
            .as_mut()
            .expect("comm was taken out of the rank slot")
    }

    /// Moves the communicator out of the slot — to consume it by value
    /// (one-shot jobs) or embed it in a structure kept in
    /// [`RankContext::state`]. Once taken, the job owns generation
    /// management for it.
    pub fn take_comm(&mut self) -> Option<Comm> {
        self.slot.comm.take()
    }

    /// Returns a previously taken communicator to the slot.
    pub fn put_comm(&mut self, comm: Comm) {
        self.slot.comm = Some(comm);
    }

    /// Rank-resident user state: survives across jobs, dropped on worker
    /// shutdown (or when a job on this rank panics).
    pub fn state(&mut self) -> &mut Option<Box<dyn Any + Send>> {
        &mut self.slot.state
    }
}

/// A world whose rank threads outlive individual jobs.
///
/// Created by [`World::spawn_persistent`]. Each [`PersistentWorld::run`]
/// submits one closure invocation per rank and blocks until every rank has
/// reported back; ranks keep their `Comm`s and any [`RankContext::state`]
/// between jobs. Jobs are generation-tagged so a message left over from job
/// N (a delayed delivery, a halo strip that outlived its receive timeout)
/// can never be matched by job N+1 even though both use the same tags.
pub struct PersistentWorld {
    /// The spec this world was spawned from; [`PersistentWorld::respawn`]
    /// rebuilds the communicator mesh from it.
    spec: World,
    size: usize,
    /// `labels[local_rank]` = global rank id (identity unless this world
    /// came out of [`World::split`]); used for thread names and telemetry.
    labels: Vec<usize>,
    /// Thread-name prefix of the rank workers, kept for respawns.
    threads: &'static str,
    mailboxes: Vec<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<Vec<CommStats>>,
    alive: Arc<Vec<AtomicBool>>,
    next_gen: u32,
    /// Shared so health checks can watch the world die from another thread
    /// (e.g. the metrics exporter) without borrowing the world itself.
    poisoned: Arc<AtomicBool>,
}

impl PersistentWorld {
    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The global rank id behind each local rank: identity for a directly
    /// spawned world, the group's rank list for a [`World::split`]
    /// sub-world.
    pub fn global_ranks(&self) -> &[usize] {
        &self.labels
    }

    /// Reserves `n` consecutive job generations and returns the first.
    /// [`PersistentWorld::run`] reserves its own; reserve extra only when a
    /// single job internally serves several requests (e.g. a batched
    /// rollout) and needs one generation per request.
    pub fn alloc_generations(&mut self, n: u32) -> u32 {
        let first = self.next_gen;
        self.next_gen = self
            .next_gen
            .checked_add(n)
            .expect("generation counter overflow");
        first
    }

    /// True once any job has panicked (the world refuses further jobs).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// A shared handle on the poisoned flag, for health checks that outlive
    /// borrows of the world (e.g. a metrics exporter thread).
    pub fn poisoned_flag(&self) -> Arc<AtomicBool> {
        self.poisoned.clone()
    }

    /// The per-rank aliveness flags (cleared when a rank's `Comm` drops —
    /// worker shutdown or job panic alike), shared for health checks.
    pub fn alive_flags(&self) -> Arc<Vec<AtomicBool>> {
        self.alive.clone()
    }

    /// Runs `f` once per rank as one job at a freshly reserved generation;
    /// blocks until every rank finishes and returns the per-rank results
    /// ordered by rank. Panics in any rank propagate (after all ranks have
    /// reported), and a panicked job kills its rank — comm and state are
    /// dropped so peers observe `Disconnected` — leaving the world unusable
    /// (subsequent runs panic). This is [`PersistentWorld::run_collect`]
    /// plus poison-and-propagate.
    pub fn run<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RankContext<'_>) -> T + Send + Sync,
    {
        let gen = self.alloc_generations(1);
        let results = self.run_collect(gen, f);
        self.unwrap_or_poison(results)
    }

    /// The values of a finished job in rank order; if any rank panicked,
    /// poisons the world and resumes the lowest such rank's panic instead.
    fn unwrap_or_poison<T>(&self, results: Vec<std::thread::Result<T>>) -> Vec<T> {
        let mut out = Vec::with_capacity(results.len());
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for r in results {
            match r {
                Ok(v) => out.push(v),
                Err(e) => {
                    self.poisoned.store(true, Ordering::Release);
                    first_panic.get_or_insert(e);
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    }

    /// The job primitive: runs `f` once per rank at `gen` (reserved with
    /// [`PersistentWorld::alloc_generations`]; a job that serves several
    /// requests reserves one generation each and switches between them
    /// itself) and returns every rank's outcome — `Err` carries the rank's
    /// caught panic payload instead of resuming it on the driver. A
    /// panicked rank is still a *dead* rank (its comm and state are
    /// dropped, peers observe `Disconnected`), but the world stays usable
    /// so the caller can [`PersistentWorld::respawn`] it instead of tearing
    /// everything down.
    pub fn run_collect<T, F>(&mut self, gen: u32, f: F) -> Vec<std::thread::Result<T>>
    where
        T: Send,
        F: Fn(RankContext<'_>) -> T + Send + Sync,
    {
        assert!(
            !self.is_poisoned(),
            "PersistentWorld: a previous job panicked; the world is dead"
        );
        assert!(
            gen < self.next_gen,
            "run_collect: generation {gen} was never reserved (next is {})",
            self.next_gen
        );
        // Propagate the submitting thread's trace session (if any) into
        // each rank worker for the duration of the job, so spans land on
        // that rank's timeline track. No-ops when tracing is off.
        let session = pde_trace::session();
        let (done_tx, done_rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        {
            let f = &f;
            for (rank, mailbox) in self.mailboxes.iter().enumerate() {
                let label = self.labels[rank];
                let done = done_tx.clone();
                let job: Box<dyn FnOnce(&mut RankSlot) + Send + '_> =
                    Box::new(move |slot: &mut RankSlot| {
                        // Enter this job's generation. If a previous job
                        // moved the comm into `state`, the job itself must
                        // forward `RankContext::generation` instead.
                        if let Some(c) = slot.comm.as_mut() {
                            c.set_generation(gen);
                        }
                        pde_trace::adopt(session, label as u32);
                        let out = catch_unwind(AssertUnwindSafe(|| f(RankContext { slot, gen })));
                        pde_trace::leave();
                        // `leave` resets the thread's rank tag to the driver;
                        // restore it so live telemetry between jobs (and in
                        // sessions without tracing) stays rank-attributed.
                        pde_trace::set_thread_rank(label as u32);
                        if out.is_err() {
                            // A panicked job means a dead rank: dropping the
                            // comm AND the state (which may hold a comm of
                            // its own, e.g. inside a CartComm) clears the
                            // aliveness flag so blocked peers observe
                            // `Disconnected` instead of hanging.
                            crate::live::rank_panics().inc(label);
                            slot.comm = None;
                            slot.state = None;
                        }
                        let _ = done.send((rank, out));
                    });
                // SAFETY: the job borrows `f` (and `done_tx` clones), which
                // live on this stack frame, yet is shipped to a 'static
                // worker thread. This is sound because the loop below blocks
                // until every rank has sent its completion message — a send
                // that each job performs unconditionally, on success and on
                // caught panic alike — so no job (and hence no borrow of
                // `f`) can outlive this call. The transmute only erases the
                // closure's lifetime bound; the fat-pointer layout of
                // `Box<dyn FnOnce>` is unchanged.
                let job: Job = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce(&mut RankSlot) + Send + '_>, Job>(job)
                };
                mailbox
                    .send(job)
                    .expect("persistent rank worker is running");
            }
        }
        drop(done_tx);
        let mut results: Vec<Option<std::thread::Result<T>>> =
            (0..self.size).map(|_| None).collect();
        for _ in 0..self.size {
            let (rank, out) = done_rx
                .recv()
                .expect("every submitted job reports completion");
            results[rank] = Some(out);
        }
        // From here on no job references `f` anymore.
        results
            .into_iter()
            .map(|r| r.expect("all ranks reported"))
            .collect()
    }

    /// Ranks whose world-level aliveness flag is down: their communicator
    /// shut down (job panic, process death over TCP) and they will never
    /// send again until respawned.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, flag)| !flag.load(Ordering::Acquire))
            .map(|(rank, _)| rank)
            .collect()
    }

    /// Rebuilds a world with dead ranks back to full strength and reports
    /// what it did — `None` when nothing was dead.
    ///
    /// The sequence, per the membership-recovery protocol (DESIGN §4i; the
    /// ezmpc synchronizer's Start/Next/Abort epoch handshake is the
    /// reference shape):
    ///
    /// 1. every dead rank gets a **new thread slot**: its mailbox is
    ///    replaced (the old worker — which survived the job panic; only its
    ///    slot contents were cleared — falls out of its receive loop and is
    ///    joined) and a fresh worker thread takes the rank with an empty
    ///    slot;
    /// 2. a **fresh full mesh** is built from the world's original spec
    ///    (same stats block, same aliveness flags — so traffic counters
    ///    stay monotonic and health checks watch the same Arc);
    /// 3. `reinit` runs once per rank as a normal job, receiving the
    ///    rank's brand-new [`Comm`] and whether the rank `was_dead` (its
    ///    state is gone and must be restored from checkpoints) or survived
    ///    (state intact, but any structure embedding the old comm must be
    ///    rebuilt around the new one);
    /// 4. aliveness flags are re-armed and the poison flag cleared;
    /// 5. the gap from detection to the rebuilt mesh is recorded on the
    ///    `pdeml_rank_respawns_total` / `pdeml_recovery_ms` series
    ///    ([`crate::supervise::record_recovery`]).
    ///
    /// `reinit` must install the comm (via [`RankContext::put_comm`] or
    /// inside [`RankContext::state`]) and must **not** communicate: the
    /// new mesh is only guaranteed consistent after every rank has dropped
    /// its old communicator, which is certain only once all reinit jobs
    /// completed (survivors dropping old comms momentarily re-clears their
    /// shared aliveness flags — step 4 is what settles them).
    pub fn respawn<F>(&mut self, reinit: F) -> Option<RecoveryReport>
    where
        F: Fn(RankContext<'_>, Comm, bool) + Send + Sync,
    {
        let dead = self.dead_ranks();
        if dead.is_empty() {
            return None;
        }
        let start = Instant::now();
        for &r in &dead {
            let (tx, rx) = mpsc::channel::<Job>();
            self.mailboxes[r] = tx; // old sender drops: old worker exits
            let fresh = spawn_rank_worker(self.threads, r, self.size, self.labels[r], None, rx);
            let old = std::mem::replace(&mut self.workers[r], fresh);
            let _ = old.join();
        }
        let comms = self.spec.build_comms(&self.stats, &self.alive);
        let handoff: Vec<std::sync::Mutex<Option<Comm>>> = comms
            .into_iter()
            .map(|c| std::sync::Mutex::new(Some(c)))
            .collect();
        let was_dead: Vec<bool> = (0..self.size).map(|r| dead.contains(&r)).collect();
        // A respawning world is by definition recovering from a failure;
        // lift the poison so the reinit job may run.
        self.poisoned.store(false, Ordering::Release);
        let gen = self.alloc_generations(1);
        let results = self.run_collect(gen, |ctx| {
            let rank = ctx.rank();
            let comm = handoff[rank]
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .expect("each rank takes its fresh comm exactly once");
            reinit(ctx, comm, was_dead[rank]);
        });
        // Survivors dropped their previous-mesh comms inside reinit, which
        // re-cleared their flags; every old communicator is gone now, so
        // the whole world is alive again.
        for flag in self.alive.iter() {
            flag.store(true, Ordering::Release);
        }
        self.unwrap_or_poison(results);
        let elapsed = start.elapsed();
        record_recovery(&dead, elapsed);
        Some(RecoveryReport {
            respawned: dead,
            elapsed,
        })
    }

    /// Cumulative per-rank traffic snapshots since the world was spawned.
    /// Per-job deltas are the difference of two snapshots.
    pub fn traffic(&self) -> Vec<TrafficReport> {
        self.stats.iter().map(|s| s.report()).collect()
    }
}

impl Drop for PersistentWorld {
    fn drop(&mut self) {
        // Disconnect the mailboxes: workers fall out of their receive
        // loops, drop their slots (comm + state) and exit.
        self.mailboxes.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_ordered_by_rank() {
        let out = World::new(6).run(|c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn stats_are_collected_per_rank() {
        let traffic = World::new(3).run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1.0, 2.0, 3.0]);
            } else if c.rank() == 1 {
                let _ = c.recv(0, 0);
            }
            c.barrier();
            c.stats().report()
        });
        // Payload bytes + barrier messages (which are empty).
        assert_eq!(traffic[0].bytes_sent, 24);
        // Rank 1 received the payload message plus barrier messages.
        assert!(traffic[1].msgs_received >= 1);
        // No halo machinery ran: resilience counters stay zero.
        assert!(!traffic.iter().any(|t| t.degraded()));
    }

    #[test]
    fn fault_plan_drops_selected_edge() {
        let plan = FaultPlan::drop_edge(0, 1);
        let out = World::new(2).with_fault_plan(plan).run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![1.0]);
                true
            } else {
                c.recv_timeout(0, 5, Duration::from_millis(30)).is_err()
            }
        });
        assert!(out[1], "dropped message should time out");
    }

    #[test]
    fn fault_plan_spares_collectives() {
        // Dropping everything 0→1 must not wedge the barrier.
        let plan = FaultPlan::new(|_, _, _| FaultAction::Drop);
        World::new(4).with_fault_plan(plan).run(|mut c| {
            c.barrier();
            let v = c.allreduce_sum(&[1.0]);
            assert_eq!(v, vec![4.0]);
        });
    }

    #[test]
    fn seeded_loss_is_deterministic_across_runs() {
        // The same (seed, src, dst, tag) triples are lost every run.
        let survivors = |seed: u64| -> Vec<u32> {
            let plan = FaultPlan::loss_rate(0.5, seed);
            let out = World::new(2).with_fault_plan(plan).run(|mut c| {
                if c.rank() == 0 {
                    for tag in 0..32 {
                        c.send(1, tag, vec![tag as f64]);
                    }
                    Vec::new()
                } else {
                    (0..32)
                        .filter(|&tag| c.recv_timeout(0, tag, Duration::from_millis(40)).is_ok())
                        .collect()
                }
            });
            out[1].clone()
        };
        let a = survivors(7);
        let b = survivors(7);
        assert_eq!(a, b, "same seed ⇒ identical loss pattern");
        assert!(
            !a.is_empty() && a.len() < 32,
            "rate 0.5 loses some, not all"
        );
        let c = survivors(8);
        assert_ne!(a, c, "different seed ⇒ different loss pattern");
    }

    #[test]
    fn loss_rate_extremes_drop_nothing_or_everything() {
        for (rate, expect_ok) in [(0.0, true), (1.0, false)] {
            let plan = FaultPlan::loss_rate(rate, 1);
            let out = World::new(2).with_fault_plan(plan).run(move |mut c| {
                if c.rank() == 0 {
                    c.send(1, 2, vec![1.0]);
                    true
                } else {
                    c.recv_timeout(0, 2, Duration::from_millis(30)).is_ok()
                }
            });
            assert_eq!(out[1], expect_ok, "rate {rate}");
        }
    }

    #[test]
    fn delayed_message_arrives_late_but_intact() {
        // A delayed message is not lost — a blocking receive still gets it
        // (a receive with a timeout shorter than the delay would observe a
        // loss instead; that interplay is asserted at the halo layer where
        // the synchronization makes it deterministic).
        let plan = FaultPlan::delay_edge(0, 1, Duration::from_millis(30));
        let out = World::new(2).with_fault_plan(plan).run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![5.0]);
                // Stay alive until the delayed message lands: a sender that
                // exits while its message is still in flight reads as a dead
                // peer to a blocking receive.
                c.barrier();
                Vec::new()
            } else {
                let got = c.recv(0, 1);
                c.barrier();
                got
            }
        });
        assert_eq!(out[1], vec![5.0]);
    }

    #[test]
    fn parse_accepts_the_cli_grammar() {
        assert!(FaultPlan::parse("drop:0-1").is_ok());
        assert!(FaultPlan::parse("loss:0.1:42").is_ok());
        assert!(FaultPlan::parse("delay:1-0:20").is_ok());
        for bad in [
            "drop:01",
            "loss:1.5:42",
            "loss:0.1",
            "delay:0-1:fast",
            "jam:0-1",
            "",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn test_timeout_parses_override_and_defaults_generously() {
        // The pure parser is tested directly — mutating the real env var
        // would race with concurrently running fault tests.
        use crate::timeout_from;
        assert_eq!(timeout_from(Some("123")), Duration::from_millis(123));
        assert_eq!(timeout_from(Some("garbage")), timeout_from(None));
        assert!(timeout_from(None) >= Duration::from_millis(1000));
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        World::new(2).run(|c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn persistent_world_reuses_comms_across_jobs() {
        let mut pw = World::new(3).spawn_persistent();
        for round in 0..4u32 {
            let out = pw.run(move |mut ctx| {
                let n = ctx.size();
                let next = (ctx.rank() + 1) % n;
                let prev = (ctx.rank() + n - 1) % n;
                let payload = (ctx.rank() as f64) + 100.0 * round as f64;
                let comm = ctx.comm();
                comm.send(next, 7, vec![payload]);
                comm.recv(prev, 7)[0]
            });
            for (rank, got) in out.iter().enumerate() {
                let prev = (rank + 2) % 3;
                assert_eq!(*got, prev as f64 + 100.0 * round as f64, "round {round}");
            }
        }
        // Traffic accumulated over all four jobs.
        let traffic = pw.traffic();
        assert!(traffic.iter().all(|t| t.msgs_sent >= 4));
    }

    #[test]
    fn persistent_state_survives_between_jobs() {
        let mut pw = World::new(2).spawn_persistent();
        for expected in 1..=3u64 {
            let out = pw.run(move |mut ctx| {
                let state = ctx.state();
                let counter = match state.as_mut().and_then(|s| s.downcast_mut::<u64>()) {
                    Some(c) => c,
                    None => {
                        *state = Some(Box::new(0u64));
                        state.as_mut().unwrap().downcast_mut::<u64>().unwrap()
                    }
                };
                *counter += 1;
                *counter
            });
            assert_eq!(out, vec![expected; 2]);
        }
    }

    #[test]
    fn generations_prevent_cross_job_message_bleed() {
        // Job 1 sends on tag 7 but rank 1 never receives it: the message
        // lingers in rank 1's inbox. Job 2 reuses the SAME tag — without
        // generation tagging, rank 1 would match job 1's stale payload.
        let mut pw = World::new(2).spawn_persistent();
        pw.run(|mut ctx| {
            if ctx.rank() == 0 {
                ctx.comm().send(1, 7, vec![1.0]);
            }
            // Barrier so the send is complete before the job ends (and so
            // rank 0's worker does not race ahead into job 2).
            ctx.comm().barrier();
        });
        let out = pw.run(|mut ctx| {
            if ctx.rank() == 0 {
                ctx.comm().send(1, 7, vec![2.0]);
                ctx.comm().barrier();
                0.0
            } else {
                let got = ctx.comm().recv(0, 7)[0];
                ctx.comm().barrier();
                got
            }
        });
        assert_eq!(out[1], 2.0, "job 2 must see its own payload, not job 1's");
    }

    #[test]
    fn stale_generation_pending_is_purged() {
        // A stale message parked in `pending` (because a same-job receive on
        // another tag drained it first) must not match after the bump.
        let mut pw = World::new(2).spawn_persistent();
        pw.run(|mut ctx| {
            if ctx.rank() == 0 {
                ctx.comm().send(1, 7, vec![1.0]);
                ctx.comm().send(1, 8, vec![8.0]);
                ctx.comm().barrier();
            } else {
                // Receiving tag 8 parks tag 7 in the pending queue.
                assert_eq!(ctx.comm().recv(0, 8), vec![8.0]);
                ctx.comm().barrier();
            }
        });
        let out = pw.run(|mut ctx| {
            if ctx.rank() == 0 {
                ctx.comm().barrier();
                true
            } else {
                let stale = ctx
                    .comm()
                    .recv_timeout(0, 7, Duration::from_millis(30))
                    .is_err();
                ctx.comm().barrier();
                stale
            }
        });
        assert!(out[1], "job 1's parked tag-7 message must not match job 2");
    }

    #[test]
    fn run_collect_serves_multiple_generations_in_one_job() {
        // A batched job: K requests back-to-back inside one submission,
        // each at its own generation (the engine's batching pattern).
        let k = 3u32;
        let mut pw = World::new(2).spawn_persistent();
        let base = pw.alloc_generations(k);
        let out = pw.run_collect(base, move |mut ctx| {
            let mut sum = 0.0;
            for i in 0..k {
                ctx.comm().set_generation(base + i);
                if ctx.rank() == 0 {
                    ctx.comm().send(1, 5, vec![i as f64]);
                    ctx.comm().barrier();
                } else {
                    sum += ctx.comm().recv(0, 5)[0];
                    ctx.comm().barrier();
                }
            }
            sum
        });
        assert_eq!(out[1].as_ref().ok(), Some(&3.0)); // 0 + 1 + 2
    }

    #[test]
    fn persistent_rank_panic_propagates_and_poisons() {
        let mut pw = World::new(2).spawn_persistent();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pw.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "rank panic must propagate to the driver");
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pw.run(|_ctx| ());
        }));
        assert!(again.is_err(), "a poisoned world must refuse further jobs");
    }

    #[test]
    fn tcp_world_runs_p2p_and_collectives() {
        let n = 4;
        let out = World::new(n)
            .with_transport(TransportKind::Tcp)
            .run(move |mut comm| {
                let next = (comm.rank() + 1) % n;
                let prev = (comm.rank() + n - 1) % n;
                comm.send(next, 7, vec![comm.rank() as f64 + 0.5]);
                let got = comm.recv(prev, 7)[0];
                comm.barrier();
                let sum = comm.allreduce_sum(&[got]);
                (got, sum[0])
            });
        for (rank, (got, sum)) in out.iter().enumerate() {
            assert_eq!(*got, ((rank + n - 1) % n) as f64 + 0.5);
            assert_eq!(*sum, 0.5 + 1.5 + 2.5 + 3.5);
        }
    }

    #[test]
    fn tcp_world_seeded_loss_counters_match_channel() {
        // The same seeded plan over both transports must drop exactly the
        // same messages: fault decisions are made above the transport.
        let run = |kind: TransportKind| {
            let plan = FaultPlan::loss_rate(0.5, 0xBEEF);
            World::new(2)
                .with_transport(kind)
                .with_fault_plan(plan)
                .run(|mut c| {
                    let survivors: Vec<u32> = if c.rank() == 0 {
                        for tag in 0..16 {
                            c.send(1, tag, vec![tag as f64; 3]);
                        }
                        Vec::new()
                    } else {
                        (0..16)
                            .filter(|&tag| {
                                c.recv_timeout(0, tag, Duration::from_millis(200)).is_ok()
                            })
                            .collect()
                    };
                    c.barrier();
                    (survivors, c.stats().report())
                })
        };
        let ch = run(TransportKind::Channel);
        let tcp = run(TransportKind::Tcp);
        assert_eq!(ch[1].0, tcp[1].0, "identical seeded loss pattern");
        for (a, b) in ch.iter().zip(&tcp) {
            assert_eq!(a.1, b.1, "identical traffic counters");
        }
    }

    #[test]
    fn tcp_world_dead_peer_reads_as_disconnected() {
        use crate::comm::RecvError;
        World::new(2)
            .with_transport(TransportKind::Tcp)
            .run(|mut comm| {
                if comm.rank() == 1 {
                    let r = comm.recv_timeout(0, 3, Duration::from_secs(30));
                    assert_eq!(r, Err(RecvError::Disconnected));
                }
            });
    }

    #[test]
    fn tcp_world_message_sent_before_death_is_received() {
        // The write-side FIN must flush the in-flight frame: buffered
        // messages outlive their sender over sockets too.
        World::new(2)
            .with_transport(TransportKind::Tcp)
            .run(|mut comm| {
                if comm.rank() == 0 {
                    comm.send(1, 4, vec![7.0]);
                } else {
                    assert_eq!(comm.recv(0, 4), vec![7.0]);
                }
            });
    }

    #[test]
    fn parse_rejects_with_actionable_hints() {
        for (bad, hint) in [
            ("jam:0-1", "unknown fault directive 'jam'"),
            ("", "empty fault spec"),
            ("drop:01", "fault edge '01' is not SRC-DST"),
            ("loss:0.1", "loss takes a rate and a seed (loss:RATE:SEED)"),
            ("loss:1.5:42", "loss rate 1.5 outside [0, 1]"),
            ("delay:0-1:fast", "delay 'fast' is not milliseconds"),
        ] {
            let err = FaultPlan::parse(bad).err().expect("spec must be rejected");
            assert!(err.contains(hint), "'{bad}': got '{err}', wanted '{hint}'");
        }
    }

    #[test]
    fn parse_for_rejects_out_of_range_ranks() {
        assert!(FaultPlan::parse_for("drop:0-3", 4).is_ok());
        let err = FaultPlan::parse_for("drop:0-4", 4)
            .err()
            .expect("rank 4 must be rejected");
        assert!(
            err.contains("rank 4 does not exist in a 4-rank world (ranks are 0..=3)"),
            "got '{err}'"
        );
        let err = FaultPlan::parse_for("delay:9-0:20", 4)
            .err()
            .expect("rank 9 must be rejected");
        assert!(err.contains("rank 9 does not exist"), "got '{err}'");
    }

    #[test]
    fn respawn_revives_a_panicked_rank_and_world_serves_again() {
        let mut pw = World::new(3).spawn_persistent();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pw.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("chaos");
                }
                // Survivors must not wedge on the dead rank's barrier slot.
            });
        }));
        assert!(boom.is_err(), "the kill must propagate to the driver");
        assert_eq!(pw.dead_ranks(), vec![1], "rank 1 must read as dead");

        let revived = pw.respawn(|mut ctx, comm, was_dead| {
            assert_eq!(was_dead, ctx.rank() == 1, "only rank 1 was dead");
            let _old = ctx.take_comm(); // survivors drop their old-mesh comm
            ctx.put_comm(comm);
        });
        assert_eq!(revived.map(|r| r.respawned), Some(vec![1]));
        assert!(pw.dead_ranks().is_empty(), "alive flags must be re-armed");

        // The healed world serves a normal ring job again.
        let out = pw.run(|mut ctx| {
            let n = ctx.size();
            let rank = ctx.rank();
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            let comm = ctx.comm();
            comm.send(next, 9, vec![rank as f64]);
            let got = comm.recv(prev, 9)[0];
            comm.barrier();
            got
        });
        assert_eq!(out, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn one_shot_and_resident_worlds_name_their_threads_apart() {
        let name = || std::thread::current().name().map(str::to_string);
        let names = |prefix: &str, labels: &[usize]| -> Vec<Option<String>> {
            labels
                .iter()
                .map(|l| Some(format!("{prefix}-{l}")))
                .collect()
        };
        assert_eq!(
            World::new(2).run(|_comm| name()),
            names("pdeml-job", &[0, 1])
        );

        let mut pw = World::new(2).spawn_persistent();
        assert_eq!(pw.run(|_ctx| name()), names("pdeml-rank", &[0, 1]));
        // A respawned rank keeps the resident name.
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pw.run(|ctx| assert_ne!(ctx.rank(), 1, "chaos"));
        }));
        assert!(boom.is_err());
        pw.respawn(|mut ctx, comm, _was_dead| {
            let _old = ctx.take_comm();
            ctx.put_comm(comm);
        });
        assert_eq!(pw.run(|_ctx| name()), names("pdeml-rank", &[0, 1]));

        // Sub-worlds name their ranks by global label.
        let mut subs = World::new(4).split_even(2).unwrap();
        assert_eq!(subs[1].run(|_ctx| name()), names("pdeml-rank", &[2, 3]));
    }

    #[test]
    fn respawn_on_a_healthy_world_is_a_no_op() {
        let mut pw = World::new(2).spawn_persistent();
        pw.run(|mut ctx| ctx.comm().barrier());
        let revived = pw.respawn(|_ctx, _comm, _was_dead| {
            panic!("reinit must not run when nothing is dead");
        });
        assert!(revived.is_none());
    }

    #[test]
    fn split_validates_partitions() {
        let groups = |gs: &[&[usize]]| gs.iter().map(|g| g.to_vec()).collect::<Vec<_>>();
        for (bad, hint) in [
            (groups(&[]), "at least one rank group"),
            (groups(&[&[0, 1], &[]]), "group 1 is empty"),
            (groups(&[&[0, 1], &[2, 4]]), "names rank 4"),
            (groups(&[&[0, 1], &[1, 2, 3]]), "rank 1 appears in more"),
            (groups(&[&[0, 1], &[3]]), "rank 2 belongs to no group"),
        ] {
            let err = World::new(4).split(&bad).err().expect("must be rejected");
            assert!(err.contains(hint), "got '{err}', wanted '{hint}'");
        }
        assert!(World::new(4).split_even(3).is_err(), "4 % 3 != 0");
        assert!(World::new(4).split_even(0).is_err());
    }

    #[test]
    fn split_sub_worlds_serve_independently_with_global_labels() {
        let subs = World::new(4).split(&[vec![0, 1], vec![2, 3]]).unwrap();
        let mut subs = subs.into_iter();
        let (mut a, mut b) = (subs.next().unwrap(), subs.next().unwrap());
        assert_eq!(a.global_ranks(), &[0, 1]);
        assert_eq!(b.global_ranks(), &[2, 3]);
        // Each sub-world runs its own 2-rank exchange; ranks are LOCAL.
        let run_pair = |pw: &mut PersistentWorld, seed: f64| {
            pw.run(move |mut ctx| {
                assert_eq!(ctx.size(), 2);
                let peer = 1 - ctx.rank();
                let payload = seed + ctx.rank() as f64;
                let comm = ctx.comm();
                comm.send(peer, 7, vec![payload]);
                comm.recv(peer, 7)[0]
            })
        };
        let out_a = run_pair(&mut a, 10.0);
        let out_b = run_pair(&mut b, 20.0);
        assert_eq!(out_a, vec![11.0, 10.0]);
        assert_eq!(out_b, vec![21.0, 20.0]);
        // Traffic is scoped per group: each sub-world saw only its own
        // two messages, and generations advanced independently from 0.
        for pw in [&a, &b] {
            let t = pw.traffic();
            assert_eq!(t.len(), 2);
            assert_eq!(t.iter().map(|r| r.msgs_sent).sum::<u64>(), 2);
        }
    }

    #[test]
    fn split_sub_worlds_run_jobs_concurrently() {
        // A barrier spanning BOTH sub-worlds' ranks can only release if
        // jobs on the two sub-worlds are in flight at the same time.
        let subs = World::new(4).split_even(2).unwrap();
        let rendezvous = Arc::new(std::sync::Barrier::new(4));
        std::thread::scope(|s| {
            let handles: Vec<_> = subs
                .into_iter()
                .map(|mut pw| {
                    let gate = rendezvous.clone();
                    s.spawn(move || {
                        pw.run(|ctx| {
                            gate.wait();
                            ctx.rank()
                        })
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), vec![0, 1]);
            }
        });
    }

    #[test]
    fn split_sub_world_is_bitwise_a_serial_world_of_group_size() {
        // Same seeded fault plan, same job: a 2-rank sub-world (of a split
        // 4-rank world) must observe exactly the loss pattern of a plain
        // 2-rank world — fault decisions hash group-LOCAL ranks.
        let job = |mut c: Comm| {
            let got: Vec<u32> = if c.rank() == 0 {
                for tag in 0..16 {
                    c.send(1, tag, vec![tag as f64; 3]);
                }
                Vec::new()
            } else {
                (0..16)
                    .filter(|&tag| c.recv_timeout(0, tag, Duration::from_millis(200)).is_ok())
                    .collect()
            };
            c.barrier();
            (got, c.stats().report())
        };
        let plan = FaultPlan::loss_rate(0.5, 0xD1CE);
        let serial = World::new(2).with_fault_plan(plan.clone()).run(job);
        let mut subs = World::new(4).with_fault_plan(plan).split_even(2).unwrap();
        for pw in &mut subs {
            let out = pw.run(|mut ctx| {
                let comm = ctx.take_comm().expect("fresh sub-world comm");
                job(comm)
            });
            assert_eq!(out[1].0, serial[1].0, "sub-world loss pattern == serial");
            let traffic = pw.traffic();
            for (sub, (_, serial)) in traffic.iter().zip(&serial) {
                assert_eq!(sub, serial, "identical traffic counters");
            }
        }
    }

    #[test]
    fn split_works_over_tcp() {
        let subs = World::new(4)
            .with_transport(TransportKind::Tcp)
            .split_even(2)
            .unwrap();
        for mut pw in subs {
            let out = pw.run(|mut ctx| {
                let peer = 1 - ctx.rank();
                let rank = ctx.rank();
                let comm = ctx.comm();
                comm.send(peer, 3, vec![rank as f64]);
                let got = comm.recv(peer, 3)[0];
                comm.barrier();
                got
            });
            assert_eq!(out, vec![1.0, 0.0]);
        }
    }

    #[test]
    fn split_sub_world_respawns_after_a_rank_death() {
        // Self-healing composes with splitting: a sub-world heals itself
        // without disturbing its sibling.
        let subs = World::new(4).split_even(2).unwrap();
        let mut subs = subs.into_iter();
        let (mut a, mut b) = (subs.next().unwrap(), subs.next().unwrap());
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("chaos");
                }
            });
        }));
        assert!(boom.is_err());
        assert_eq!(a.dead_ranks(), vec![1]);
        assert!(b.dead_ranks().is_empty(), "sibling untouched by the death");
        let revived = a.respawn(|mut ctx, comm, _was_dead| {
            let _old = ctx.take_comm();
            ctx.put_comm(comm);
        });
        assert_eq!(revived.map(|r| r.respawned), Some(vec![1]));
        let out = a.run(|mut ctx| {
            let peer = 1 - ctx.rank();
            let rank = ctx.rank();
            let comm = ctx.comm();
            comm.send(peer, 9, vec![rank as f64]);
            comm.recv(peer, 9)[0]
        });
        assert_eq!(out, vec![1.0, 0.0]);
        // The sibling still serves.
        let out = b.run(|ctx| ctx.rank());
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn fault_plan_applies_to_persistent_jobs() {
        let mut pw = World::new(2)
            .with_fault_plan(FaultPlan::drop_edge(0, 1))
            .spawn_persistent();
        for _ in 0..2 {
            let out = pw.run(|mut ctx| {
                if ctx.rank() == 0 {
                    ctx.comm().send(1, 5, vec![1.0]);
                    true
                } else {
                    ctx.comm()
                        .recv_timeout(0, 5, Duration::from_millis(30))
                        .is_err()
                }
            });
            assert!(out[1], "dropped message should time out in every job");
        }
    }
}
