//! Parallel inference: autonomous rollout with point-to-point halo exchange.
//!
//! §III, inference: "The network receives the input at time t and predicts
//! the output at time t+1. … the output can not be directly fed into the
//! network, since its dimension is small. Extra data points must be
//! received from the neighboring processes. … Each processor communicates
//! directly to its neighbors and no central instance is used."
//!
//! [`ParallelInference::rollout`] implements exactly that protocol: each
//! rank keeps its subdomain state, and before every forward pass performs a
//! two-phase (x then y) neighbor exchange that also fills the diagonal
//! corners — the standard stencil-code halo pattern. With the zero-padding
//! strategy no exchange is needed at all; with inner-crop, rollout is
//! impossible (the output ring is missing) and construction fails.

use crate::arch::ArchSpec;
use crate::norm::ChannelNorm;
use crate::padding::PaddingStrategy;
use crate::train::{PredictionMode, TrainOutcome};
use pde_commsim::{
    CartComm, Comm, Direction, FaultPlan, HaloRecv, TrafficReport, TransportKind, World,
};
use pde_domain::halo::{pack_cols, PaddedView};
use pde_domain::{gather, scatter, Block, GridPartition};
use pde_nn::serialize::restore;
use pde_nn::{Layer, Sequential};
use pde_tensor::{perf, PerfCounters, Tensor3, Tensor4};
use std::time::{Duration, Instant};

/// Why a rollout request was rejected before any rank ran. Returned (not
/// panicked) so a serving layer can refuse one bad request without tearing
/// down the engine — and so the CLI can print a hint instead of a
/// backtrace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InferError {
    /// A history state's spatial shape does not match the trained
    /// partition.
    ShapeMismatch {
        /// `(h, w)` the partition was built for.
        expected: (usize, usize),
        /// `(h, w)` of the offending state.
        got: (usize, usize),
    },
    /// A history state's channel count does not match the trained
    /// normalization.
    ChannelMismatch {
        /// Channels the model was trained on.
        expected: usize,
        /// Channels of the offending state.
        got: usize,
    },
    /// A history state holds a NaN or an infinity. The networks would carry
    /// it into every value of the rollout, so the request is refused before
    /// any rank job runs.
    NonFiniteState {
        /// Index of the first such state in the history, oldest first.
        state: usize,
    },
    /// The step count cannot be served at all: the trajectory it asks for —
    /// `steps + 1` states of the model's shape — is not addressable
    /// (`steps + 1` overflows, or its values exceed `isize::MAX` bytes).
    StepsOutOfRange {
        /// The step count requested.
        steps: usize,
    },
    /// The number of history states does not match the training window.
    WindowMismatch {
        /// The model's time-window width.
        expected: usize,
        /// States supplied.
        got: usize,
    },
    /// The request named a model the engine has never been given.
    UnknownModel {
        /// The name the request asked for.
        name: String,
    },
    /// A rank died while serving and the engine could not bring the world
    /// back within its retry budget. The request was not served; the
    /// caller may retry once recovery completes (or rebuild the engine if
    /// it keeps failing).
    Recovering {
        /// Kill-and-heal rounds attempted before giving up.
        attempts: usize,
    },
    /// The scheduler refused admission before the request touched any
    /// rank: load shedding, not failure. The reason names which admission
    /// gate fired (and labels the `pdeml_requests_rejected_total` series).
    Rejected {
        /// Which admission gate refused the request.
        reason: RejectReason,
    },
}

/// Why the scheduler's admission control shed a request (the `reason`
/// label on `pdeml_requests_rejected_total`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded request queue is at capacity.
    QueueFull,
    /// The health model reports Degraded or Failed — new traffic is
    /// refused while the engine recovers.
    Unhealthy,
    /// The rolling p99.9 latency breached the configured `--slo-ms`
    /// objective; shedding now beats collapsing later.
    SloBreach,
}

impl RejectReason {
    /// The metric label value (`reason="…"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::Unhealthy => "unhealthy",
            RejectReason::SloBreach => "slo",
        }
    }
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::ShapeMismatch { expected, got } => write!(
                f,
                "state is {}x{} but the model was trained on a {}x{} grid — \
                 pass a state from the same simulation resolution (or retrain)",
                got.0, got.1, expected.0, expected.1
            ),
            InferError::ChannelMismatch { expected, got } => write!(
                f,
                "state has {got} channels but the model expects {expected} — \
                 the dataset and model disagree on the field set"
            ),
            InferError::WindowMismatch { expected, got } => write!(
                f,
                "model was trained with a time window of {expected} state(s) but {got} were \
                 supplied — pass exactly {expected} consecutive states (oldest first) to \
                 rollout_from_history"
            ),
            InferError::NonFiniteState { state } => write!(
                f,
                "history state {state} holds a NaN or infinite value — pass finite field \
                 values"
            ),
            InferError::StepsOutOfRange { steps } => write!(
                f,
                "{steps} steps is more than one rollout can hold — its {steps} + 1 states \
                 would not fit in memory; ask for fewer steps"
            ),
            InferError::UnknownModel { name } => write!(
                f,
                "no model named '{name}' is registered with the engine — \
                 call InferEngine::register (or register_outcome) first"
            ),
            InferError::Recovering { attempts } => write!(
                f,
                "a rank died while serving and {attempts} heal-and-retry round(s) did not \
                 produce a healthy world — the request was not served; retry it, and if \
                 recovery keeps failing rebuild the engine"
            ),
            InferError::Rejected { reason } => {
                let why = match reason {
                    RejectReason::QueueFull => "the request queue is full",
                    RejectReason::Unhealthy => "the health model reports degraded/failed",
                    RejectReason::SloBreach => "rolling p99.9 latency breached the SLO",
                };
                write!(
                    f,
                    "request rejected ({}): {why} — the scheduler is shedding load; \
                     back off and retry",
                    reason.as_str()
                )
            }
        }
    }
}

impl std::error::Error for InferError {}

/// Why `n_steps + 1` cannot overflow past the request boundary.
const STEPS_VALIDATED: &str =
    "ParallelInference::validate_request refuses a step count whose n_steps + 1 overflows";

/// What replaces a halo strip whose message was lost (under
/// [`HaloPolicy::Degrade`]). A *dead peer* is never replaced — see
/// [`HaloPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaloFallback {
    /// Leave the halo cells zero — the same treatment a physical boundary
    /// gets, so the network sees in-distribution (if wrong-place) values.
    ZeroFill,
    /// Reuse the strip last received from that neighbor (bitwise), on the
    /// grounds that the flow field decorrelates over a few steps, not one.
    /// Falls back to zeros when nothing was ever received (counted as
    /// zero-filled, not stale).
    LastKnown,
}

/// How [`ParallelInference::rollout`] treats halo-exchange failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HaloPolicy {
    /// Block until every strip arrives; a lost message hangs the rollout
    /// and a dead peer panics. This is the exact pre-resilience code path —
    /// bitwise-equal to [`ParallelInference::reference_rollout`] — and
    /// assumes a reliable transport.
    #[default]
    Strict,
    /// Give each exchange phase (x, then y) a single `timeout` budget shared
    /// by its timed receives — armed once per phase, so a step is bounded by
    /// `2 × timeout` no matter how many strips are lost — then substitute
    /// `fallback` for whatever never arrived and keep rolling. Lost and
    /// substituted strips
    /// are counted per rank in the [`TrafficReport`]. A dead *peer* is
    /// still fatal: its entire subdomain is gone, and silently zero-filling
    /// a missing quarter of the domain would corrupt the result without a
    /// trace — that distinction (loss vs. death) is why
    /// [`pde_commsim::HaloRecv`] has separate `Lost` and `PeerDead` arms.
    Degrade {
        /// The budget one exchange phase's receives share before the
        /// stragglers are declared lost.
        timeout: Duration,
        /// What fills the hole a lost strip leaves.
        fallback: HaloFallback,
    },
}

/// A rollout's outputs.
#[derive(Clone, Debug)]
pub struct RolloutResult {
    /// Global states: `states[0]` is the initial condition, `states[k]` the
    /// prediction after `k` network steps.
    pub states: Vec<Tensor3>,
    /// Per-rank traffic and halo-resilience counters during the rollout.
    pub traffic: Vec<TrafficReport>,
    /// Per-rank compute counters (FLOPs, GEMM calls, heap allocations)
    /// measured on each rank thread over the rollout loop — steps and
    /// quiesce only, excluding model construction, the ingest of the
    /// history and the trajectory buffers' growth. `allocs` is how the
    /// zero-alloc suite observes that a warm engine request stays off the
    /// heap.
    pub rank_perf: Vec<PerfCounters>,
}

impl RolloutResult {
    /// Number of prediction steps taken.
    pub fn n_steps(&self) -> usize {
        self.states.len() - 1
    }

    /// Total bytes moved between ranks.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.bytes_sent).sum()
    }

    /// Total halo receives (across ranks) that timed out.
    pub fn total_halos_lost(&self) -> u64 {
        self.traffic.iter().map(|t| t.halos_lost).sum()
    }

    /// Total fallback substitutions (zero-filled + stale) across ranks.
    pub fn total_fallbacks(&self) -> u64 {
        self.traffic.iter().map(|t| t.fallbacks()).sum()
    }

    /// True when any rank lost a halo or substituted fallback data — i.e.
    /// the states were NOT produced by the exact reference protocol.
    pub fn degraded(&self) -> bool {
        self.traffic.iter().any(|t| t.degraded())
    }
}

/// Trained per-subdomain networks ready for parallel inference.
#[derive(Clone)]
pub struct ParallelInference {
    arch: ArchSpec,
    strategy: PaddingStrategy,
    part: GridPartition,
    weights: Vec<Vec<f64>>,
    norm: ChannelNorm,
    prediction: PredictionMode,
    window: usize,
    halo_policy: HaloPolicy,
    fault_plan: Option<FaultPlan>,
    transport: TransportKind,
}

impl ParallelInference {
    /// Builds from explicit per-rank weight snapshots.
    ///
    /// # Panics
    /// If the weight count does not match the partition's rank count, or
    /// the strategy cannot roll out (inner-crop).
    pub fn new(
        arch: ArchSpec,
        strategy: PaddingStrategy,
        part: GridPartition,
        weights: Vec<Vec<f64>>,
        norm: ChannelNorm,
        prediction: PredictionMode,
    ) -> Self {
        Self::with_window(arch, strategy, part, weights, norm, prediction, 1)
    }

    /// Like [`ParallelInference::new`] with an explicit input time-window
    /// width (must match training).
    #[allow(clippy::too_many_arguments)]
    pub fn with_window(
        arch: ArchSpec,
        strategy: PaddingStrategy,
        part: GridPartition,
        weights: Vec<Vec<f64>>,
        norm: ChannelNorm,
        prediction: PredictionMode,
        window: usize,
    ) -> Self {
        assert!(window >= 1, "ParallelInference: window must be >= 1");
        assert!(
            strategy.supports_rollout(),
            "ParallelInference: the {} strategy cannot roll out (its output lacks the \
             boundary ring, as §III of the paper notes)",
            strategy.label()
        );
        assert_eq!(
            weights.len(),
            part.rank_count(),
            "ParallelInference: one weight set per rank"
        );
        let expected = arch.param_count_for(strategy);
        for (r, w) in weights.iter().enumerate() {
            assert_eq!(
                w.len(),
                expected,
                "ParallelInference: rank {r} weight snapshot length"
            );
        }
        assert_eq!(
            norm.channels() * window,
            arch.in_channels(),
            "ParallelInference: window {window} over {}-channel states does not feed a \
             {}-channel network",
            norm.channels(),
            arch.in_channels()
        );
        Self {
            arch,
            strategy,
            part,
            weights,
            norm,
            prediction,
            window,
            halo_policy: HaloPolicy::default(),
            fault_plan: None,
            transport: TransportKind::default(),
        }
    }

    /// Sets the halo-failure policy for subsequent rollouts (builder
    /// style). The default is [`HaloPolicy::Strict`].
    pub fn with_halo_policy(mut self, policy: HaloPolicy) -> Self {
        self.halo_policy = policy;
        self
    }

    /// Injects a communication fault plan into subsequent rollouts
    /// (builder style) — the rollout-level entry point for resilience
    /// experiments and the CLI's `--fault` flag.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Selects the transport the in-process rollout world runs over
    /// (builder style). The default [`TransportKind::Channel`] is the
    /// original channel mesh; [`TransportKind::Tcp`] moves every halo
    /// message over localhost sockets — same protocol, real network stack.
    pub fn with_transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// The halo-failure policy rollouts will use.
    pub fn halo_policy(&self) -> HaloPolicy {
        self.halo_policy
    }

    /// The time-window width the model was trained with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The input halo width rollouts exchange (0 = communication-free).
    pub fn input_halo(&self) -> usize {
        self.strategy.input_halo(self.arch.halo())
    }

    /// Builds from a [`TrainOutcome`] (same arch/strategy as training).
    pub fn from_outcome(arch: ArchSpec, strategy: PaddingStrategy, outcome: &TrainOutcome) -> Self {
        let weights = outcome
            .rank_results
            .iter()
            .map(|r| r.weights.clone())
            .collect();
        Self::with_window(
            arch,
            strategy,
            outcome.partition,
            weights,
            outcome.norm.clone(),
            outcome.prediction,
            outcome.window,
        )
    }

    /// The partition in use.
    pub fn partition(&self) -> &GridPartition {
        &self.part
    }

    /// Checks one request — its history and its step count — against the
    /// trained configuration: the single validation path shared by
    /// [`ParallelInference::rollout`],
    /// [`ParallelInference::rollout_from_history`], the serving engine and
    /// the scheduler, so a bad request fails before any rank job runs.
    pub fn validate_request(&self, history: &[Tensor3], n_steps: usize) -> Result<(), InferError> {
        let state_len = self.norm.channels() * self.part.global_h() * self.part.global_w();
        let trajectory_bytes = n_steps
            .checked_add(1)
            .and_then(|states| states.checked_mul(state_len))
            .and_then(|values| values.checked_mul(std::mem::size_of::<f64>()));
        if trajectory_bytes.is_none_or(|bytes| bytes > isize::MAX as usize) {
            return Err(InferError::StepsOutOfRange { steps: n_steps });
        }
        if history.len() != self.window {
            return Err(InferError::WindowMismatch {
                expected: self.window,
                got: history.len(),
            });
        }
        for (k, state) in history.iter().enumerate() {
            if (state.h(), state.w()) != (self.part.global_h(), self.part.global_w()) {
                return Err(InferError::ShapeMismatch {
                    expected: (self.part.global_h(), self.part.global_w()),
                    got: (state.h(), state.w()),
                });
            }
            if state.c() != self.norm.channels() {
                return Err(InferError::ChannelMismatch {
                    expected: self.norm.channels(),
                    got: state.c(),
                });
            }
            if !all_finite(state.as_slice()) {
                return Err(InferError::NonFiniteState { state: k });
            }
        }
        Ok(())
    }

    /// Scatters a (validated) global history into per-rank normalized local
    /// histories, oldest first — the networks operate in normalized space.
    /// No rollout driver calls it: each rank reads its own block in
    /// [`RankRolloutState::serve_request`]. It is the input of
    /// [`RankRolloutState::reset`], for probes that drive steps by hand.
    pub fn scatter_history(&self, history: &[Tensor3]) -> Vec<Vec<Tensor3>> {
        let mut acc: Vec<Vec<Tensor3>> = vec![Vec::new(); self.part.rank_count()];
        for g in history {
            for (r, local) in scatter(&self.norm.normalize3(g), &self.part)
                .into_iter()
                .enumerate()
            {
                acc[r].push(local);
            }
        }
        acc
    }

    /// Builds rank `rank`'s resident rollout machine: the restored network
    /// plus history ring, halo caches and scratch tensors sized for that
    /// rank's block, and the block and channel scales it reads requests and
    /// writes trajectories with. The serving engine keeps these alive across
    /// requests; the one-shot rollout below builds one per call.
    pub fn rank_state(&self, rank: usize) -> RankRolloutState {
        let mut net = self.arch.build_for(self.strategy, 0);
        restore(&mut net, &self.weights[rank]);
        RankRolloutState::new(
            net,
            self.window,
            self.strategy.input_halo(self.arch.halo()),
            self.halo_policy,
            self.prediction,
            self.norm.scales(),
            self.part.block_of_rank(rank),
        )
    }

    /// Gathers per-rank physical trajectories (rank order, as
    /// [`RankRolloutState::serve_request`] writes them) into global states:
    /// `states[k]` is the gather of every rank's `k`-th block, so
    /// `states[0]` is `initial`, the request's newest history state, again.
    /// A pure copy, each value written once — the ranks already
    /// denormalized. Public so a multi-process driver can reassemble
    /// gathered rank trajectories.
    pub fn stitch_states(
        &self,
        initial: &Tensor3,
        histories: &[Vec<Tensor3>],
        n_steps: usize,
    ) -> Vec<Tensor3> {
        assert_eq!(
            initial.shape(),
            (
                self.norm.channels(),
                self.part.global_h(),
                self.part.global_w()
            ),
            "stitch_states: initial is not a state of this model"
        );
        let states = n_steps.checked_add(1).expect(STEPS_VALIDATED);
        (0..states)
            .map(|k| {
                let blocks: Vec<&Tensor3> = histories.iter().map(|h| &h[k]).collect();
                gather(&blocks, &self.part)
            })
            .collect()
    }

    /// Runs an `n_steps` autonomous rollout from `initial` with one thread
    /// per rank and p2p halo exchange.
    ///
    /// Fails with [`InferError`] when `initial` does not match the trained
    /// configuration — including models trained with a time window > 1,
    /// which need [`ParallelInference::rollout_from_history`].
    pub fn rollout(&self, initial: &Tensor3, n_steps: usize) -> Result<RolloutResult, InferError> {
        if self.window != 1 {
            return Err(InferError::WindowMismatch {
                expected: self.window,
                got: 1,
            });
        }
        self.rollout_from_history(std::slice::from_ref(initial), n_steps)
    }

    /// Windowed rollout: `history` holds the last `window` global states,
    /// oldest first; the model then predicts `n_steps` further states.
    ///
    /// Returns states `[history.last(), pred_1, …, pred_n]`, or an
    /// [`InferError`] when the history does not match the trained
    /// configuration.
    pub fn rollout_from_history(
        &self,
        history: &[Tensor3],
        n_steps: usize,
    ) -> Result<RolloutResult, InferError> {
        self.validate_request(history, n_steps)?;
        let initial = history.last().expect("window >= 1");
        let part = self.part;

        let mut world = World::new(part.rank_count()).with_transport(self.transport);
        if let Some(plan) = &self.fault_plan {
            world = world.with_fault_plan(plan.clone());
        }
        let outs = world.run(|comm| {
            let rank = comm.rank();
            let mut cart = CartComm::new(comm, part.py(), part.px(), false);
            let mut trajectory = Vec::new();
            let window = self.rank_state(rank).serve_request(
                &mut cart,
                history,
                n_steps,
                &mut trajectory,
                |_| {},
            );
            (trajectory, window)
        });
        let (histories, windows): (Vec<Vec<Tensor3>>, Vec<RequestWindow>) =
            outs.into_iter().unzip();
        let (rank_perf, traffic) = windows.into_iter().map(|w| (w.perf, w.traffic)).unzip();

        Ok(RolloutResult {
            states: self.stitch_states(initial, &histories, n_steps),
            traffic,
            rank_perf,
        })
    }

    /// Thread-free reference rollout: at every step the *global* state is
    /// known, each rank's input is cut from it directly (the same
    /// construction training uses), and outputs are stitched back.
    ///
    /// Must agree with [`ParallelInference::rollout`] bit-for-bit — the
    /// integration tests enforce it — because the halo exchange is supposed
    /// to reproduce precisely the overlapping-window inputs.
    pub fn reference_rollout(&self, initial: &Tensor3, n_steps: usize) -> Vec<Tensor3> {
        assert_eq!(
            self.window, 1,
            "reference_rollout: use reference_rollout_from_history"
        );
        self.reference_rollout_from_history(std::slice::from_ref(initial), n_steps)
    }

    /// Windowed thread-free reference (see [`ParallelInference::reference_rollout`]).
    pub fn reference_rollout_from_history(
        &self,
        history: &[Tensor3],
        n_steps: usize,
    ) -> Vec<Tensor3> {
        assert_eq!(
            history.len(),
            self.window,
            "reference_rollout_from_history: history length"
        );
        let part = self.part;
        let halo = self.strategy.input_halo(self.arch.halo());
        let mode = self.strategy.boundary_pad_mode();
        let mut nets: Vec<Sequential> = self
            .weights
            .iter()
            .map(|w| {
                let mut n = self.arch.build_for(self.strategy, 0);
                restore(&mut n, w);
                n
            })
            .collect();
        let mut recent: Vec<Tensor3> = history.iter().map(|g| self.norm.normalize3(g)).collect();
        let mut states = vec![history.last().expect("history").clone()];
        for _ in 0..n_steps {
            let locals: Vec<Tensor3> = (0..part.rank_count())
                .map(|r| {
                    let block = part.block_of_rank(r);
                    let padded: Vec<Tensor3> = recent
                        .iter()
                        .map(|g| crate::data::extract_input(g, &block, halo, mode))
                        .collect();
                    let refs: Vec<&Tensor3> = padded.iter().collect();
                    let input = Tensor3::concat_channels(&refs);
                    let y = nets[r]
                        .forward(&Tensor4::from_sample(&input), false)
                        .sample_tensor(0);
                    match self.prediction {
                        PredictionMode::Absolute => y,
                        PredictionMode::Residual => {
                            let mut next = crate::data::extract_target(
                                recent.last().expect("history"),
                                &block,
                                0,
                            );
                            next.axpy(1.0, &y);
                            next
                        }
                    }
                })
                .collect();
            let next = gather(&locals, &part);
            states.push(self.norm.denormalize3(&next));
            recent.remove(0);
            recent.push(next);
        }
        states
    }
}

/// What one request cost one rank: counter deltas over
/// [`RankRolloutState::serve_request`]'s steps and quiesce barrier.
#[derive(Clone, Copy, Debug)]
pub struct RequestWindow {
    /// FLOPs, GEMM calls and heap allocations on the rank thread.
    pub perf: PerfCounters,
    /// Messages, bytes and halo-resilience counters of the rank's `Comm`.
    pub traffic: TrafficReport,
}

/// One rank's resident rollout machine — the old ~150-line rollout closure
/// made into a value you can keep, test, and reuse.
///
/// Owns the rank's restored [`Sequential`], its window history ring, the
/// per-slot last-known [`HaloCache`]s, resident input/output scratch
/// tensors, and the rank's [`Block`] plus the channel scales.
/// [`RankRolloutState::serve_request`] reads its block of the caller's
/// global physical history into the ring, normalizing on the way in, and
/// writes each prediction back out denormalized, so the driver only copies.
/// Each [`RankRolloutState::step`] advances one prediction step (halo
/// exchange → forward pass → ring rotation) in normalized space.
/// Communication goes through the [`CartComm`] the *caller* owns, so one
/// communicator can serve several resident models on the same rank.
///
/// The step path is engineered to stay off the heap once warm: each window
/// slot is assembled, halo frame included, straight into its slot of a
/// resident `Tensor4`, the forward pass uses the network's ping-pong
/// workspace, and the prediction overwrites the ring's oldest buffer in
/// place. With a communication-free strategy (`halo == 0`, e.g.
/// zero-padding) a warm step performs **zero** allocations; with halo
/// exchange only the strips it sends allocate (payloads travel through
/// channels by value).
pub struct RankRolloutState {
    net: Sequential,
    window: usize,
    halo: usize,
    policy: HaloPolicy,
    prediction: PredictionMode,
    /// The global cells this rank owns.
    block: Block,
    /// Per-channel normalization scales (see [`ChannelNorm`]).
    scales: Vec<f64>,
    /// Last `window` local states in normalized space, oldest first. Ring
    /// storage: `step` rotates it and overwrites the freed buffer.
    recent: Vec<Tensor3>,
    /// One last-known-strip cache per window slot (the slots cycle through
    /// `recent` positions, so slot s at step k holds the same physical
    /// field as slot s at step k−1 did one step ago).
    caches: Vec<HaloCache>,
    /// Resident network input: the window states' padded channels
    /// concatenated, batch dimension 1.
    input: Tensor4,
    /// Resident network output.
    output: Tensor4,
    /// When set (by a self-healing engine), a dead neighbor degrades like a
    /// lost strip instead of panicking — the supervisor is about to respawn
    /// the peer, so the gap is temporary. Default `false`: in an
    /// unrecovered world a dead rank's subdomain is gone for good and
    /// serving past it would silently corrupt results.
    survive_dead: bool,
}

impl RankRolloutState {
    /// Builds the machine for `block` of a state with one channel per entry
    /// of `scales` (the model's [`ChannelNorm::scales`]). `net` must
    /// already hold the rank's weights.
    pub fn new(
        net: Sequential,
        window: usize,
        halo: usize,
        policy: HaloPolicy,
        prediction: PredictionMode,
        scales: &[f64],
        block: Block,
    ) -> Self {
        assert!(window >= 1, "RankRolloutState: window must be >= 1");
        let (c, h, w) = (scales.len(), block.h, block.w);
        Self {
            net,
            window,
            halo,
            policy,
            prediction,
            block,
            scales: scales.to_vec(),
            recent: (0..window).map(|_| Tensor3::zeros(c, h, w)).collect(),
            caches: vec![HaloCache::default(); window],
            input: Tensor4::zeros(1, window * c, h + 2 * halo, w + 2 * halo),
            output: Tensor4::zeros(0, 0, 0, 0),
            survive_dead: false,
        }
    }

    /// Arms (or disarms) dead-neighbor survival: under
    /// [`HaloPolicy::Degrade`], a [`pde_commsim::HaloRecv::PeerDead`] is
    /// then handled like a lost strip (fallback substitution) instead of
    /// panicking. Only a supervisor that guarantees the peer comes back
    /// should set this — see [`HaloPolicy`] for why death is otherwise
    /// fatal.
    pub fn set_survive_dead(&mut self, survive: bool) {
        self.survive_dead = survive;
    }

    /// The model's time-window width.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The newest local state (normalized space) — after `reset`, the
    /// initial condition; after `step`, the latest prediction.
    pub fn latest(&self) -> &Tensor3 {
        self.recent.last().expect("window >= 1")
    }

    /// Rewinds to a new request from *local* states: copies the `window`
    /// history states (this rank's blocks, normalized, oldest first — what
    /// [`ParallelInference::scatter_history`] cuts) into the ring and
    /// forgets all last-known halo strips. Allocation-free: the ring
    /// buffers are reused. [`RankRolloutState::serve_request`] does the
    /// same from the global physical history.
    ///
    /// # Panics
    /// If the history length or any state's shape does not match — the
    /// driver validates requests before they reach rank state, so a
    /// mismatch here is a bug, not bad user input.
    pub fn reset(&mut self, history: &[Tensor3]) {
        assert_eq!(
            history.len(),
            self.window,
            "RankRolloutState::reset: history length"
        );
        for (slot, state) in history.iter().enumerate() {
            assert_eq!(
                state.shape(),
                self.recent[slot].shape(),
                "RankRolloutState::reset: slot {slot} shape"
            );
            self.recent[slot]
                .as_mut_slice()
                .copy_from_slice(state.as_slice());
        }
        self.forget_halos();
    }

    /// Rewinds to a new request from the caller's *global* physical
    /// history: writes this rank's block of every state into the ring,
    /// each value multiplied by `1 / scale` of its channel (the arithmetic
    /// of [`ChannelNorm::normalize3`]), and forgets all last-known halo
    /// strips.
    ///
    /// # Panics
    /// As [`RankRolloutState::reset`], if the history does not fit.
    fn ingest(&mut self, history: &[Tensor3]) {
        assert_eq!(
            history.len(),
            self.window,
            "RankRolloutState::serve_request: history length"
        );
        for (ring, global) in self.recent.iter_mut().zip(history) {
            assert!(
                global.c() == self.scales.len()
                    && self.block.i1() <= global.h()
                    && self.block.j1() <= global.w(),
                "RankRolloutState::serve_request: a {:?} state does not hold this rank's block",
                global.shape()
            );
            for (ch, scale) in self.scales.iter().enumerate() {
                let inv = 1.0 / scale;
                for (i, dst) in ring
                    .channel_mut(ch)
                    .chunks_exact_mut(self.block.w)
                    .enumerate()
                {
                    for (d, x) in dst.iter_mut().zip(block_row(global, &self.block, ch, i)) {
                        *d = x * inv;
                    }
                }
            }
        }
        self.forget_halos();
    }

    fn forget_halos(&mut self) {
        for cache in &mut self.caches {
            *cache = HaloCache::default();
        }
    }

    /// Whether a request must end in a barrier. Under
    /// [`HaloPolicy::Degrade`] a healthy rank can run several steps ahead
    /// of a neighbor that is waiting out timeouts; finishing early — a cold
    /// rank dropping its `Comm`, a warm one starting the next request —
    /// would read as peer death, or bleed into the wrong request, on that
    /// neighbor. Not needed under Strict, where every receive blocks until
    /// matched, nor without halos, where nothing is received at all.
    pub fn quiesces(&self) -> bool {
        matches!(self.policy, HaloPolicy::Degrade { .. }) && self.halo > 0
    }

    /// Serves one request on this rank — the protocol every driver (cold
    /// rollout, warm engine, multi-process world node) runs: read this
    /// rank's block of the caller's global physical `history` (the
    /// validated request, oldest first) into the ring, normalized;
    /// `n_steps` × [`step`](Self::step); then the quiesce barrier
    /// (fault-exempt and dead-tolerant, like every collective) when
    /// [`Self::quiesces`].
    ///
    /// `trajectory` receives the `n_steps + 1` local states in physical
    /// units: `trajectory[0]` is the rank's block of the newest history
    /// state, copied, and `trajectory[k]` the prediction after `k` steps,
    /// denormalized (`v · scale`, as [`ChannelNorm::denormalize3`]). So
    /// [`ParallelInference::stitch_states`] only gathers. It is the
    /// caller's buffer, regrown only when the step count or the local shape
    /// changes, so a warm caller that lends the same buffers back serves
    /// without touching the heap. `before_step(step)` runs at the top of
    /// every step; the engine injects chaos kills there.
    ///
    /// The returned [`RequestWindow`] spans steps + barrier and nothing
    /// else: the ingest, the buffer regrow and `trajectory[0]` sit before
    /// it, so a steady-state request on a communication-free model measures
    /// zero allocations.
    pub fn serve_request(
        &mut self,
        cart: &mut CartComm,
        history: &[Tensor3],
        n_steps: usize,
        trajectory: &mut Vec<Tensor3>,
        mut before_step: impl FnMut(usize),
    ) -> RequestWindow {
        self.ingest(history);
        let (c, h, w) = self.latest().shape();
        let states = n_steps.checked_add(1).expect(STEPS_VALIDATED);
        if trajectory.len() != states || trajectory.first().map(Tensor3::shape) != Some((c, h, w)) {
            *trajectory = (0..states).map(|_| Tensor3::zeros(c, h, w)).collect();
        }
        let initial = history.last().expect("window >= 1");
        for ch in 0..c {
            for (i, dst) in trajectory[0]
                .channel_mut(ch)
                .chunks_exact_mut(w)
                .enumerate()
            {
                dst.copy_from_slice(block_row(initial, &self.block, ch, i));
            }
        }
        let traffic0 = cart.comm().stats().report();
        let perf0 = perf::snapshot();
        let window = self.window;
        for step in 0..n_steps {
            before_step(step);
            self.step(cart, (step * window) as u32);
            let next = self.latest();
            for (ch, scale) in self.scales.iter().enumerate() {
                let dst = trajectory[step + 1].channel_mut(ch);
                for (d, v) in dst.iter_mut().zip(next.channel(ch)) {
                    *d = v * scale;
                }
            }
        }
        if self.quiesces() {
            cart.comm_mut().barrier();
        }
        RequestWindow {
            perf: perf::snapshot().since(&perf0),
            traffic: cart.comm().stats().report().since(&traffic0),
        }
    }

    /// One prediction step: assembles the (halo-exchanged) padded input of
    /// every window slot, runs the forward pass, applies the prediction
    /// mode and rotates the ring. Returns the new latest state.
    ///
    /// `tag_base` namespaces this step's exchanges: slot `s` uses tag
    /// `tag_base + s`, so concurrent exchanges of different slots cannot
    /// cross. Callers advance it by `window` per step (and rely on
    /// generation tagging, not tags, for isolation *between* requests on a
    /// persistent world).
    pub fn step(&mut self, cart: &mut CartComm, tag_base: u32) -> &Tensor3 {
        let _step_span = pde_trace::span_args(
            pde_trace::Category::Infer,
            pde_trace::names::STEP,
            tag_base as u64,
            0,
        );
        let (c, h, w) = self.recent[0].shape();
        let plane = c * (h + 2 * self.halo) * (w + 2 * self.halo);
        for slot in 0..self.window {
            let state = &self.recent[slot];
            let dst = &mut self.input.sample_mut(0)[slot * plane..(slot + 1) * plane];
            if self.halo == 0 {
                dst.copy_from_slice(state.as_slice());
            } else {
                assemble_halo_into(
                    cart,
                    state,
                    self.halo,
                    tag_base + slot as u32,
                    self.policy,
                    self.survive_dead,
                    &mut self.caches[slot],
                    dst,
                );
            }
        }
        self.net.forward_into(&self.input, false, &mut self.output);
        // Rotate the ring: the oldest state's buffer becomes the slot the
        // new prediction is written into.
        self.recent.rotate_left(1);
        let (older, newest) = self.recent.split_at_mut(self.window - 1);
        let dst = &mut newest[0];
        let y = self.output.sample(0);
        match self.prediction {
            PredictionMode::Absolute => dst.as_mut_slice().copy_from_slice(y),
            PredictionMode::Residual => {
                // next = last + y. After the rotation the previous state
                // sits at the end of `older` — except at window 1, where
                // `dst` itself still holds it.
                if let Some(last) = older.last() {
                    dst.as_mut_slice().copy_from_slice(last.as_slice());
                }
                for (d, dy) in dst.as_mut_slice().iter_mut().zip(y) {
                    *d += *dy;
                }
            }
        }
        self.latest()
    }
}

/// Assembles the `(c, h+2halo, w+2halo)` padded input of one rank by the
/// two-phase halo exchange under [`HaloPolicy::Strict`] — the exchange
/// every rollout runs unless it opts into degradation. See
/// [`assemble_halo_input_with`].
pub fn assemble_halo_input(
    cart: &mut CartComm,
    local: &Tensor3,
    halo: usize,
    step: u32,
) -> Tensor3 {
    assemble_halo_input_with(
        cart,
        local,
        halo,
        step,
        HaloPolicy::Strict,
        false,
        &mut HaloCache::default(),
    )
}

/// Assembles one rank's padded input by the two-phase halo exchange into a
/// fresh tensor — the allocating form of the assembly
/// [`RankRolloutState::step`] runs in place, into its input slot.
/// Physical-boundary halo cells stay zero (`PadMode::Zeros`, consistent
/// with training-input construction).
///
/// Phase 1 swaps `h × halo` column strips with the x-neighbors; phase 2
/// swaps `halo × (w+2halo)` row strips **of the partially assembled padded
/// tensor**, so corner cells arrive from diagonal neighbors without any
/// extra messages.
///
/// Under [`HaloPolicy::Strict`] each phase is one blocking
/// [`CartComm::exchange_x`] / [`CartComm::exchange_y`] round. Under
/// [`HaloPolicy::Degrade`] each phase is *synchronized*: it posts its
/// sends, crosses a barrier, and only then runs the timed receives. After
/// the barrier every delivered strip is already in the inbox (sends
/// enqueue before the sender can enter the barrier), so a timeout can only
/// fire for a message the fault plan actually dropped (or delayed longer
/// than `timeout`). That is what makes degraded rollouts deterministic:
/// which strips are lost is a pure function of the fault plan, never of
/// thread scheduling. A lost strip is replaced per the policy's fallback
/// (`cache` holds the last-known strips) and the substitution is counted
/// in this rank's [`TrafficReport`]. A **dead** neighbor panics unless
/// `survive_dead` is set: its whole subdomain is missing, and no
/// strip-level fallback can stand in for a quarter of the domain. (The
/// per-phase barriers cost `2⌈log₂P⌉` extra empty messages per rank per
/// assembly — the price of determinism, visible in `msgs_sent` but not in
/// `bytes_sent`.) `survive_dead` and `cache` are unused under Strict.
pub fn assemble_halo_input_with(
    cart: &mut CartComm,
    local: &Tensor3,
    halo: usize,
    step: u32,
    policy: HaloPolicy,
    survive_dead: bool,
    cache: &mut HaloCache,
) -> Tensor3 {
    let (c, h, w) = local.shape();
    let mut padded = Tensor3::zeros(c, h + 2 * halo, w + 2 * halo);
    assemble_halo_into(
        cart,
        local,
        halo,
        step,
        policy,
        survive_dead,
        cache,
        padded.as_mut_slice(),
    );
    padded
}

/// The body of [`assemble_halo_input_with`], writing into `padded`, the
/// storage of a `(c, h+2halo, w+2halo)` tensor. Every value of it is
/// written each call: the interior from `local`, the halo frame zeroed and
/// then overwritten by whatever strips arrive.
#[allow(clippy::too_many_arguments)]
fn assemble_halo_into(
    cart: &mut CartComm,
    local: &Tensor3,
    halo: usize,
    step: u32,
    policy: HaloPolicy,
    survive_dead: bool,
    cache: &mut HaloCache,
    padded: &mut [f64],
) {
    let (c, h, w) = local.shape();
    assert!(
        halo <= h && halo <= w,
        "assemble_halo_input: halo {halo} exceeds local {h}x{w}"
    );
    let mut padded = PaddedView::new(padded, c, h + 2 * halo, w + 2 * halo);
    let _span = pde_trace::span_args(
        pde_trace::Category::Infer,
        pde_trace::names::ASSEMBLE,
        step as u64,
        0,
    );
    let mut degrade = match policy {
        HaloPolicy::Strict => None,
        HaloPolicy::Degrade { timeout, fallback } => Some(Degrade {
            timeout,
            fallback,
            survive_dead,
            cache,
        }),
    };
    padded.fill_interior(local, halo);

    use Direction::*;
    // Phase 1: x-axis (column strips from the raw interior).
    let to_left = cart.neighbor(Left).map(|_| pack_cols(local, 0, halo));
    let to_right = cart
        .neighbor(Right)
        .map(|_| pack_cols(local, w - halo, halo));
    let (from_left, from_right) =
        exchange_phase(cart, Axis::X, to_left, to_right, step * 2, degrade.as_mut());
    if let Some(buf) = from_left {
        padded.place_cols(halo, 0, h, halo, &buf);
    }
    if let Some(buf) = from_right {
        padded.place_cols(halo, w + halo, h, halo, &buf);
    }

    // Phase 2: y-axis (row strips from the partially padded tensor — they
    // carry the freshly received x-halos, which become the corners; a
    // zero-filled x-halo therefore propagates zeros into the corner it
    // feeds, exactly as if that corner were a physical boundary).
    let to_down = cart.neighbor(Down).map(|_| padded.pack_rows(halo, halo));
    let to_up = cart.neighbor(Up).map(|_| padded.pack_rows(h, halo));
    let (from_down, from_up) = exchange_phase(
        cart,
        Axis::Y,
        to_down,
        to_up,
        step * 2 + 1,
        degrade.as_mut(),
    );
    if let Some(buf) = from_down {
        padded.place_rows(0, halo, &buf);
    }
    if let Some(buf) = from_up {
        padded.place_rows(h + halo, halo, &buf);
    }
}

/// Row `i` of channel `ch` of `block`, read from a global state.
fn block_row<'a>(global: &'a Tensor3, block: &Block, ch: usize, i: usize) -> &'a [f64] {
    let start = (block.i0 + i) * global.w() + block.j0;
    &global.channel(ch)[start..start + block.w]
}

/// Whether every value is finite. The fold over a chunk has no early exit,
/// so it vectorizes where a short-circuiting `all` does not; the scan still
/// stops at the first chunk that holds a NaN or an infinity.
fn all_finite(values: &[f64]) -> bool {
    values
        .chunks(4096)
        .all(|chunk| chunk.iter().fold(true, |ok, v| ok & v.is_finite()))
}

/// The axis one exchange phase runs along.
#[derive(Clone, Copy)]
enum Axis {
    X,
    Y,
}

/// What a [`HaloPolicy::Degrade`] assembly needs beyond the strips.
struct Degrade<'a> {
    timeout: Duration,
    fallback: HaloFallback,
    survive_dead: bool,
    cache: &'a mut HaloCache,
}

/// One exchange phase: sends `(to_neg, to_pos)` along `axis` and returns
/// the strips to place from the negative and positive side. Strict blocks
/// until both arrive; degraded posts, crosses the barrier, then receives
/// against one deadline for the whole phase.
fn exchange_phase(
    cart: &mut CartComm,
    axis: Axis,
    to_neg: Option<Vec<f64>>,
    to_pos: Option<Vec<f64>>,
    tag: u32,
    degrade: Option<&mut Degrade<'_>>,
) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
    let Some(degrade) = degrade else {
        return match axis {
            Axis::X => cart.exchange_x(to_neg, to_pos, tag),
            Axis::Y => cart.exchange_y(to_neg, to_pos, tag),
        };
    };
    let dirs = match axis {
        Axis::X => {
            cart.post_x_sends(to_neg, to_pos, tag);
            [Direction::Left, Direction::Right]
        }
        Axis::Y => {
            cart.post_y_sends(to_neg, to_pos, tag);
            [Direction::Down, Direction::Up]
        }
    };
    // After the barrier every delivered strip is in the inbox.
    cart.comm_mut().barrier();
    // One deadline for the whole phase, armed ONCE: the per-direction
    // receives share the budget instead of each re-arming the full
    // `timeout`, so losing both neighbors costs `timeout`, not 2×. A
    // zero-remainder receive still drains the inbox non-blockingly, so
    // sharing the budget can never misclassify a delivered strip as lost.
    let deadline = Instant::now() + degrade.timeout;
    let [from_neg, from_pos] = dirs.map(|dir| {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let recv = cart.recv_halo_dir(dir, tag, remaining)?;
        resolve_halo(cart.comm(), recv, dir, degrade)
    });
    (from_neg, from_pos)
}

/// Last strip successfully received from each of the four neighbors (the
/// [`HaloFallback::LastKnown`] source), indexed like [`Direction::ALL`].
#[derive(Clone, Debug, Default)]
pub struct HaloCache {
    strips: [Option<Vec<f64>>; 4],
}

/// Classifies one directional [`HaloRecv`] under the degrade fallback: the
/// strip to place, or `None` to leave the (zeroed) halo cells alone.
/// Maintains the last-known cache and the per-rank substitution counters.
fn resolve_halo(
    comm: &Comm,
    recv: HaloRecv,
    dir: Direction,
    degrade: &mut Degrade<'_>,
) -> Option<Vec<f64>> {
    let cache = &mut degrade.cache.strips[dir.index()];
    match recv {
        HaloRecv::Ok(buf) => {
            if degrade.fallback == HaloFallback::LastKnown {
                *cache = Some(buf.clone());
            }
            Some(buf)
        }
        HaloRecv::Lost => match (degrade.fallback, cache) {
            (HaloFallback::LastKnown, Some(buf)) => {
                comm.stats().note_halo_stale();
                Some(buf.clone())
            }
            _ => {
                comm.stats().note_halo_zero_filled();
                None
            }
        },
        // Maskable only under a supervisor that will respawn the peer
        // (`survive_dead`): the gap is then served like a lost strip and
        // the retried request runs on the healed world. Otherwise
        // deliberately fatal: see `HaloPolicy::Degrade`.
        HaloRecv::PeerDead if degrade.survive_dead => {
            resolve_halo(comm, HaloRecv::Lost, dir, degrade)
        }
        HaloRecv::PeerDead => panic!(
            "halo exchange: rank {}'s {dir:?} neighbor is dead — a lost subdomain is fatal \
             under every halo policy",
            comm.rank()
        ),
    }
}

/// Single-network rollout over the whole domain (no decomposition): the
/// reference used by the Fig.-3 accuracy study and the P = 1 scaling point.
pub fn single_network_rollout(
    net: &mut Sequential,
    arch: &ArchSpec,
    strategy: PaddingStrategy,
    norm: &ChannelNorm,
    prediction: PredictionMode,
    initial: &Tensor3,
    n_steps: usize,
) -> Vec<Tensor3> {
    assert!(
        strategy.supports_rollout(),
        "single_network_rollout: {} cannot roll out",
        strategy.label()
    );
    let halo = strategy.input_halo(arch.halo());
    let mode = strategy.boundary_pad_mode();
    let mut normalized = vec![norm.normalize3(initial)];
    let mut states = vec![initial.clone()];
    for _ in 0..n_steps {
        let cur = normalized.last().unwrap();
        let input = if halo == 0 {
            cur.clone()
        } else {
            pde_tensor::pad::pad_tensor3(cur, halo, halo, halo, halo, mode)
        };
        let y = net
            .forward(&Tensor4::from_sample(&input), false)
            .sample_tensor(0);
        let next = match prediction {
            PredictionMode::Absolute => y,
            PredictionMode::Residual => {
                let mut n = cur.clone();
                n.axpy(1.0, &y);
                n
            }
        };
        states.push(norm.denormalize3(&next));
        normalized.push(next);
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{ParallelTrainer, TrainConfig};
    use pde_euler::dataset::paper_dataset;
    use pde_tensor::assert_slice_close;

    fn trained(
        strategy: PaddingStrategy,
        n_ranks: usize,
    ) -> (pde_euler::DataSet, ParallelInference) {
        let data = paper_dataset(16, 8);
        let arch = ArchSpec::tiny();
        let outcome = ParallelTrainer::new(arch.clone(), strategy, TrainConfig::quick_test())
            .train_view(&data, 6, n_ranks)
            .unwrap();
        let inf = ParallelInference::from_outcome(arch, strategy, &outcome);
        (data, inf)
    }

    #[test]
    fn parallel_rollout_matches_reference_neighbor_pad() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let initial = data.snapshot(6).clone();
        let par = inf.rollout(&initial, 3).unwrap();
        let refr = inf.reference_rollout(&initial, 3);
        assert_eq!(par.states.len(), 4);
        for (k, (a, b)) in par.states.iter().zip(&refr).enumerate() {
            assert_slice_close(
                a.as_slice(),
                b.as_slice(),
                1e-12,
                1e-12,
                &format!("step {k}"),
            );
        }
    }

    #[test]
    fn parallel_rollout_matches_reference_zero_pad() {
        let (data, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let initial = data.snapshot(6).clone();
        let par = inf.rollout(&initial, 2).unwrap();
        let refr = inf.reference_rollout(&initial, 2);
        for (a, b) in par.states.iter().zip(&refr) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn zero_pad_rollout_is_communication_free() {
        let (data, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let r = inf.rollout(data.snapshot(0), 3).unwrap();
        assert_eq!(r.total_bytes(), 0);
        for t in &r.traffic {
            assert_eq!(t.msgs_sent, 0);
        }
    }

    #[test]
    fn neighbor_pad_traffic_is_boundary_sized() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let steps = 3;
        let r = inf.rollout(data.snapshot(0), steps).unwrap();
        // 2×2 grid, halo 2, 16×16 global → 8×8 blocks. Per step each rank
        // sends one x-strip (4·8·2 values) and one y-strip (4·2·12 values).
        let per_rank_per_step = 4 * 8 * 2 + 4 * 2 * 12;
        for (rank, t) in r.traffic.iter().enumerate() {
            assert_eq!(t.msgs_sent, 2 * steps as u64, "rank {rank} message count");
            assert_eq!(
                t.bytes_sent,
                (per_rank_per_step * steps * 8) as u64,
                "rank {rank} bytes"
            );
            assert!(!t.degraded(), "rank {rank} healthy strict rollout");
        }
    }

    #[test]
    fn degraded_traffic_adds_only_empty_barrier_messages() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let steps = 3;
        let strict = inf.rollout(data.snapshot(0), steps).unwrap();
        let degraded = inf
            .with_halo_policy(HaloPolicy::Degrade {
                timeout: pde_commsim::test_timeout(),
                fallback: HaloFallback::ZeroFill,
            })
            .rollout(data.snapshot(0), steps)
            .unwrap();
        // Per step each rank of the 2×2 grid sends its two strips plus a
        // ⌈log₂4⌉ = 2-message barrier per exchange phase; the request ends
        // in one more (quiesce) barrier.
        let per_step = 2 + 2 * 2;
        for (rank, (d, s)) in degraded.traffic.iter().zip(&strict.traffic).enumerate() {
            assert_eq!(
                d.msgs_sent,
                (per_step * steps + 2) as u64,
                "rank {rank} message count"
            );
            assert_eq!(d.bytes_sent, s.bytes_sent, "rank {rank} bytes");
            assert!(!d.degraded(), "rank {rank} fault-free degraded rollout");
        }
        assert_eq!(degraded.states, strict.states);
    }

    #[test]
    fn rollout_includes_initial_state() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let initial = data.snapshot(2).clone();
        let r = inf.rollout(&initial, 1).unwrap();
        assert_eq!(&r.states[0], &initial);
        assert_eq!(r.n_steps(), 1);
    }

    #[test]
    fn single_rank_rollout_equals_single_network() {
        // With P = 1 the parallel machinery must degenerate exactly to the
        // monolithic network.
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 1);
        let initial = data.snapshot(0).clone();
        let par = inf.rollout(&initial, 2).unwrap();
        let mut net = inf.arch.build(false, 0);
        restore(&mut net, &inf.weights[0]);
        let single = single_network_rollout(
            &mut net,
            &inf.arch,
            PaddingStrategy::NeighborPad,
            &inf.norm,
            inf.prediction,
            &initial,
            2,
        );
        for (a, b) in par.states.iter().zip(&single) {
            assert_eq!(a, b);
        }
        assert_eq!(par.total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot roll out")]
    fn inner_crop_rollout_is_rejected() {
        let data = paper_dataset(32, 6);
        let arch = ArchSpec::tiny();
        let outcome = ParallelTrainer::new(
            arch.clone(),
            PaddingStrategy::InnerCrop,
            TrainConfig::quick_test(),
        )
        .train_view(&data, 4, 4)
        .unwrap();
        let _ = ParallelInference::from_outcome(arch, PaddingStrategy::InnerCrop, &outcome);
    }

    #[test]
    fn rollout_rejects_wrong_initial_shape_with_typed_error() {
        let (_, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let bad = Tensor3::zeros(4, 8, 8);
        let err = inf.rollout(&bad, 1).unwrap_err();
        assert_eq!(
            err,
            InferError::ShapeMismatch {
                expected: (16, 16),
                got: (8, 8),
            }
        );
        // The Display form carries the hint the CLI prints.
        assert!(err.to_string().contains("trained on a 16x16 grid"));
    }

    #[test]
    fn rollout_rejects_wrong_channel_count_with_typed_error() {
        let (_, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let bad = Tensor3::zeros(1, 16, 16);
        assert_eq!(
            inf.rollout(&bad, 1).unwrap_err(),
            InferError::ChannelMismatch {
                expected: 4,
                got: 1,
            }
        );
    }

    #[test]
    fn rollout_from_history_rejects_wrong_window_with_typed_error() {
        let (data, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let history = vec![data.snapshot(0).clone(), data.snapshot(1).clone()];
        assert_eq!(
            inf.rollout_from_history(&history, 1).unwrap_err(),
            InferError::WindowMismatch {
                expected: 1,
                got: 2,
            }
        );
    }

    #[test]
    fn rollout_reports_per_rank_perf_counters() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let r = inf.rollout(data.snapshot(0), 2).unwrap();
        assert_eq!(r.rank_perf.len(), 4);
        for (rank, p) in r.rank_perf.iter().enumerate() {
            assert!(p.flops > 0, "rank {rank} reported no FLOPs");
            assert!(p.gemm_calls > 0, "rank {rank} reported no GEMM calls");
        }
    }

    #[test]
    fn rank_state_step_matches_one_shot_rollout() {
        // Drive RankRolloutState directly (single rank, no communication)
        // and compare against the rollout driver — the refactor contract:
        // the extracted machine IS the rollout loop.
        let (data, inf) = trained(PaddingStrategy::ZeroPad, 1);
        let initial = data.snapshot(3).clone();
        let expect = inf.rollout(&initial, 3).unwrap();
        let normalized = inf.norm.normalize3(&initial);
        let out = pde_commsim::World::new(1).run(|comm| {
            let mut cart = CartComm::new(comm, 1, 1, false);
            let mut st = inf.rank_state(0);
            st.reset(std::slice::from_ref(&normalized));
            (0..3)
                .map(|step| st.step(&mut cart, step as u32).clone())
                .collect::<Vec<_>>()
        });
        for (k, local) in out[0].iter().enumerate() {
            assert_eq!(
                &inf.norm.denormalize3(local),
                &expect.states[k + 1],
                "step {k}"
            );
        }
    }

    #[test]
    fn degraded_assembly_arms_one_deadline_per_phase() {
        // Regression: the per-direction receives each re-armed the full
        // `timeout`, so the middle rank of a 1x3 row losing BOTH x strips
        // waited 2x the configured budget per step. With the shared
        // per-phase deadline the whole x phase costs one `timeout`.
        let timeout = Duration::from_millis(600);
        let plan = FaultPlan::new(|s, d, _| {
            if d == 1 && (s == 0 || s == 2) {
                pde_commsim::FaultAction::Drop
            } else {
                pde_commsim::FaultAction::Deliver
            }
        });
        let out = World::new(3).with_fault_plan(plan).run(|comm| {
            let rank = comm.rank();
            let mut cart = CartComm::new(comm, 1, 3, false);
            let local = Tensor3::zeros(1, 4, 4);
            let mut cache = HaloCache::default();
            let t0 = Instant::now();
            let padded = assemble_halo_input_with(
                &mut cart,
                &local,
                1,
                0,
                HaloPolicy::Degrade {
                    timeout,
                    fallback: HaloFallback::ZeroFill,
                },
                false,
                &mut cache,
            );
            let dt = t0.elapsed();
            assert_eq!(padded.shape(), (1, 6, 6));
            // Keep every sender alive until all timed receives resolved, so
            // a fast rank's exit cannot read as peer death elsewhere.
            cart.comm_mut().barrier();
            (rank, dt)
        });
        let (_, dt) = out.into_iter().find(|&(r, _)| r == 1).expect("rank 1");
        assert!(
            dt < timeout * 2,
            "two lost strips in one phase must share one {timeout:?} budget, took {dt:?}"
        );
    }
}
