//! The persistent serving engine: one long-lived world, resident models,
//! repeated rollouts.
//!
//! [`crate::infer::ParallelInference::rollout`] is a *cold* path: every call
//! spawns rank threads, rebuilds and re-restores every rank's network,
//! re-allocates scratch, rolls out, and tears it all down. That is the right
//! shape for a one-shot experiment and the wrong shape for serving, where
//! the same trained model answers many requests.
//!
//! [`InferEngine`] keeps the expensive parts alive between requests:
//!
//! * a [`PersistentWorld`] whose rank threads (and their [`CartComm`]s)
//!   outlive any single request;
//! * a per-rank model registry — each registered model's
//!   [`crate::infer::RankRolloutState`] (restored network, window ring,
//!   halo caches, scratch tensors) is built **once** on its rank thread and
//!   then only `reset` between requests;
//! * generation-tagged request isolation: every request runs under a fresh
//!   [`pde_commsim::Comm`] generation, so a strip still in flight from
//!   request *k* can never satisfy a receive in request *k+1* (see
//!   DESIGN.md §4f).
//!
//! Warm rollouts are bitwise-identical to cold ones — same tags, same
//! seeded fault decisions (generations are deliberately invisible to
//! [`FaultPlan`] edge functions), same arithmetic — which the equivalence
//! suite enforces under both halo policies.

use crate::arch::ArchSpec;
use crate::infer::{HaloPolicy, InferError, ParallelInference, RolloutResult};
use crate::padding::PaddingStrategy;
use crate::train::TrainOutcome;
use pde_commsim::{
    CartComm, ChaosPlan, FaultPlan, PersistentWorld, RankContext, Supervisor, TrafficReport,
    TransportKind, World,
};
use pde_tensor::{PerfCounters, Tensor3};
use std::collections::BTreeMap;

/// How to build an [`InferEngine`]: rank count plus an optional fault plan
/// for the engine's world (the plan applies to *every* request, exactly as
/// [`crate::infer::ParallelInference::with_fault_plan`] applies to every
/// cold rollout).
#[derive(Clone, Default)]
pub struct EngineConfig {
    /// Ranks the persistent world spawns; every registered model's
    /// partition must have exactly this many.
    pub n_ranks: usize,
    /// Optional message-fault injection for the engine's transport.
    pub fault_plan: Option<FaultPlan>,
    /// Intra-rank kernel thread budget for the engine's resident ranks
    /// (None = `PDEML_THREADS_PER_RANK` env, else `max(1, cores / ranks)`).
    pub threads_per_rank: Option<usize>,
    /// Transport the persistent world's ranks talk over
    /// ([`TransportKind::Channel`] by default; [`TransportKind::Tcp`] routes
    /// every message through localhost sockets).
    pub transport: TransportKind,
    /// Deterministic kill schedule injected at step boundaries
    /// (`kill:RANK:REQUEST[:STEP]`, request indices counted across the
    /// engine's lifetime). Each kill fires exactly once.
    pub chaos: Option<ChaosPlan>,
    /// When set, a rank death during a request triggers supervisor
    /// recovery (respawn + checkpoint restore + mesh rebuild) and the
    /// batch retries on the healed world, instead of poisoning the engine.
    pub self_heal: bool,
}

impl EngineConfig {
    /// A fault-free engine over `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Self {
        EngineConfig {
            n_ranks,
            fault_plan: None,
            threads_per_rank: None,
            transport: TransportKind::default(),
            chaos: None,
            self_heal: false,
        }
    }

    /// Injects `plan` into every request served by the engine.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Selects the transport the engine's persistent world runs over.
    pub fn with_transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Schedules deterministic rank kills (usually paired with
    /// [`EngineConfig::with_self_heal`] so the engine survives them).
    pub fn with_chaos_plan(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Turns on supervisor recovery for rank deaths during serving.
    pub fn with_self_heal(mut self) -> Self {
        self.self_heal = true;
        self
    }
}

/// Where one request's engine latency went, in microseconds: the rank jobs
/// themselves (`rollout_us` — reset + steps + quiesce, wall time of the
/// world's job round) vs everything the driver did around them
/// (`dispatch_us` — validation, scatter, generation allocation,
/// stitch/transpose). Queue wait is the scheduler's to measure; together
/// the three phases are the request's [`crate::schedule::RequestPhases`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnginePhases {
    /// Driver-side work around the rank jobs, per request.
    pub dispatch_us: u64,
    /// Rank-job wall time, per request (summed across self-heal retries).
    pub rollout_us: u64,
}

/// A configuration error from [`InferEngine::register`]: the model being
/// registered cannot live in this engine's world. Returned (not panicked)
/// so a serving layer — or the CLI — refuses the one bad model with a hint
/// instead of aborting a process that is serving other models fine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The model is partitioned over a different number of ranks than the
    /// engine's world has.
    RankCountMismatch {
        /// The model name being registered.
        model: String,
        /// Ranks the model's partition spans.
        model_ranks: usize,
        /// Ranks in the engine's world.
        world_ranks: usize,
    },
    /// The model's `(py, px)` decomposition differs from the layout the
    /// engine's resident `CartComm`s were built for.
    LayoutMismatch {
        /// The model name being registered.
        model: String,
        /// The model's `(py, px)` decomposition.
        model_layout: (usize, usize),
        /// The layout fixed by the first registration.
        fixed: (usize, usize),
    },
    /// The scheduler's resident-model cap is reached and every resident
    /// model has requests pending or in flight — nothing can be evicted.
    ResidencyFull {
        /// The model name being registered.
        model: String,
        /// The configured resident-model cap.
        cap: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RankCountMismatch {
                model,
                model_ranks,
                world_ranks,
            } => write!(
                f,
                "register('{model}'): model is partitioned over {model_ranks} ranks but the \
                 engine world has {world_ranks} — retrain (or re-partition) the model for \
                 {world_ranks} ranks, or build the engine with {model_ranks}"
            ),
            EngineError::LayoutMismatch {
                model,
                model_layout: (py, px),
                fixed: (fy, fx),
            } => write!(
                f,
                "register('{model}'): model decomposes as {py}x{px} but the engine's resident \
                 topology was fixed at {fy}x{fx} by the first registration — serve it from a \
                 separate engine, or register it first"
            ),
            EngineError::ResidencyFull { model, cap } => write!(
                f,
                "register('{model}'): resident-model cap {cap} reached and every resident \
                 model has requests in flight — raise --max-models or retry once traffic \
                 drains"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// What lives in each rank slot of the engine's world: the rank's Cartesian
/// communicator (moved out of the slot on first registration, so it
/// survives across jobs) and one resident rollout machine per registered
/// model.
struct EngineRankState {
    cart: CartComm,
    models: BTreeMap<String, crate::infer::RankRolloutState>,
    /// Resident trajectory buffer handed to
    /// [`crate::infer::RankRolloutState::serve_request`] — kept across
    /// requests so a steady-state warm request measures zero
    /// [`PerfCounters::allocs`] (for a communication-free model; sends
    /// inherently allocate payloads).
    trajectory: Vec<Tensor3>,
}

/// Whether rank states registered under a self-healing engine should mask
/// a dead neighbor during the respawn gap (only meaningful under
/// [`HaloPolicy::Degrade`] — Strict receives block without classifying the
/// peer).
fn survive_dead(self_heal: bool, inf: &ParallelInference) -> bool {
    self_heal && matches!(inf.halo_policy(), HaloPolicy::Degrade { .. })
}

/// Borrows the rank-resident state out of a job context. Panics only on
/// engine bugs — the driver never submits a request before registration.
fn resident<'a>(ctx: &'a mut RankContext<'_>) -> &'a mut EngineRankState {
    ctx.state()
        .as_mut()
        .expect("engine job ran before any model was registered")
        .downcast_mut::<EngineRankState>()
        .expect("engine rank slot holds EngineRankState")
}

/// A long-lived inference server: a [`PersistentWorld`] plus a registry of
/// resident models, serving repeated [`InferEngine::rollout`] /
/// [`InferEngine::rollout_from_history`] / [`InferEngine::rollout_batch`]
/// requests without re-spawning threads or re-loading weights.
///
/// ```
/// use pde_ml_core::prelude::*;
///
/// let data = pde_euler::dataset::paper_dataset(16, 6);
/// let arch = ArchSpec::tiny();
/// let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad,
///                                    TrainConfig::quick_test())
///     .train(&data, 4)
///     .unwrap();
/// let mut engine = InferEngine::new(4);
/// engine.register_outcome("pulse", arch, PaddingStrategy::ZeroPad, &outcome).unwrap();
/// let warm = engine.rollout("pulse", data.snapshot(0), 3).unwrap();
/// assert_eq!(warm.states.len(), 4);
/// ```
pub struct InferEngine {
    world: PersistentWorld,
    /// Driver-side blueprints: validation, scatter/stitch geometry and
    /// normalization per model name. The rank-side twins (restored nets +
    /// scratch) live on the worker threads.
    models: BTreeMap<String, ParallelInference>,
    /// The `(py, px)` Cartesian layout fixed by the first registration —
    /// the resident `CartComm`s are built for it, so every later model
    /// must decompose the same way.
    layout: Option<(usize, usize)>,
    /// Deterministic kill schedule (see [`EngineConfig::chaos`]).
    chaos: Option<ChaosPlan>,
    /// Supervisor recovery on rank death (see [`EngineConfig::self_heal`]).
    self_heal: bool,
    /// Requests served across the engine's lifetime — the request index a
    /// [`ChaosPlan`] kill matches against.
    request_base: usize,
    /// Every rank this engine's supervisor brought back, in heal order.
    respawned: Vec<usize>,
}

impl InferEngine {
    /// Spawns a fault-free persistent world of `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Self {
        Self::with_config(EngineConfig::new(n_ranks))
    }

    /// Spawns the engine's world per `cfg` (rank count + fault plan) and
    /// installs each resident rank's kernel thread budget (explicit
    /// `cfg.threads_per_rank` > `PDEML_THREADS_PER_RANK` > cores / ranks).
    pub fn with_config(cfg: EngineConfig) -> Self {
        let mut world = World::new(cfg.n_ranks).with_transport(cfg.transport);
        if let Some(plan) = cfg.fault_plan.clone() {
            world = world.with_fault_plan(plan);
        }
        Self::from_world(world.spawn_persistent(), cfg)
    }

    /// Builds an engine over an already spawned world — the entry point for
    /// serving over [`pde_commsim::World::split`] sub-worlds, where the
    /// caller partitioned one big world and hands each piece its own
    /// engine. Only `cfg.threads_per_rank`, `cfg.chaos` and `cfg.self_heal`
    /// apply here; the world itself (rank count, fault plan, transport) was
    /// fixed when it was spawned. The default kernel budget assumes this
    /// world has the machine to itself; sub-worlds that share it come from
    /// [`InferEngine::over_sub_worlds`].
    pub fn from_world(world: PersistentWorld, cfg: EngineConfig) -> Self {
        let ranks = world.size();
        Self::from_world_among(world, cfg, ranks)
    }

    /// Splits `world` into `sub_worlds` equal groups and builds one engine
    /// over each. Every rank's default kernel budget is sized from the
    /// **whole** world's rank count — the sub-worlds serve concurrently, so
    /// together they must not oversubscribe the machine.
    pub fn over_sub_worlds(world: World, sub_worlds: usize) -> Result<Vec<Self>, String> {
        let machine_ranks = world.size();
        Ok(world
            .split_even(sub_worlds)?
            .into_iter()
            .map(|sub| Self::from_world_among(sub, EngineConfig::new(0), machine_ranks))
            .collect())
    }

    /// [`InferEngine::from_world`] for a world that shares the machine with
    /// others: `machine_ranks` ranks in total compete for its cores.
    fn from_world_among(
        mut world: PersistentWorld,
        cfg: EngineConfig,
        machine_ranks: usize,
    ) -> Self {
        assert!(
            cfg.n_ranks == 0 || cfg.n_ranks == world.size(),
            "from_world: config says {} ranks but the world has {}",
            cfg.n_ranks,
            world.size()
        );
        if let Some(t) = cfg.threads_per_rank {
            let cores = pde_tensor::pool::available_cores();
            assert!(
                t >= 1,
                "EngineConfig: threads_per_rank must be >= 1 (use None to \
                 auto-size as cores / ranks)"
            );
            assert!(
                t <= cores,
                "EngineConfig: threads_per_rank = {t} exceeds the {cores} \
                 available core(s); oversubscription must be explicit via \
                 PDEML_THREADS_PER_RANK, not the config"
            );
        }
        let budget = pde_tensor::pool::resolve_budget(cfg.threads_per_rank, machine_ranks);
        // One throwaway job pins the budget on every resident rank thread
        // before the first model registers.
        world.run(|_ctx| pde_tensor::pool::set_thread_budget(budget));
        InferEngine {
            world,
            models: BTreeMap::new(),
            layout: None,
            chaos: cfg.chaos,
            self_heal: cfg.self_heal,
            request_base: 0,
            respawned: Vec::new(),
        }
    }

    /// Ranks in the engine's world.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// True once any request panicked a rank (the world refuses further
    /// jobs).
    pub fn is_poisoned(&self) -> bool {
        self.world.is_poisoned()
    }

    /// Shared handle on the world-poisoned flag, for health checks running
    /// on other threads (e.g. a metrics exporter).
    pub fn poisoned_flag(&self) -> std::sync::Arc<std::sync::atomic::AtomicBool> {
        self.world.poisoned_flag()
    }

    /// Per-rank aliveness flags of the engine's world (cleared when a rank
    /// dies), shared for health checks.
    pub fn alive_flags(&self) -> std::sync::Arc<Vec<std::sync::atomic::AtomicBool>> {
        self.world.alive_flags()
    }

    /// Ranks this engine's supervisor has respawned so far, in heal order
    /// (a rank healed twice appears twice). Unlike the process-global
    /// `pdeml_rank_respawns_total` series, this counts only this engine.
    pub fn respawned_ranks(&self) -> &[usize] {
        &self.respawned
    }

    /// Cumulative per-rank traffic snapshots of the engine's world.
    pub fn traffic(&self) -> Vec<TrafficReport> {
        self.world.traffic()
    }

    /// Registered model names, sorted.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Registers `inf` under `name`, loading each rank's network **on its
    /// rank thread, once**. Later requests only `reset` the resident state.
    /// Re-registering a name replaces the model on every rank.
    ///
    /// Errors when the model's partition does not match the engine (rank
    /// count, or the `(py, px)` layout fixed by the first registration) —
    /// a configuration problem the caller can surface as a hint instead of
    /// a crash; nothing is mutated on the error path.
    ///
    /// The blueprint's own fault plan is ignored here: the engine's
    /// transport was configured once via [`EngineConfig::with_fault_plan`].
    pub fn register(&mut self, name: &str, inf: ParallelInference) -> Result<(), EngineError> {
        let part = inf.partition();
        if part.rank_count() != self.world.size() {
            return Err(EngineError::RankCountMismatch {
                model: name.to_string(),
                model_ranks: part.rank_count(),
                world_ranks: self.world.size(),
            });
        }
        let (py, px) = (part.py(), part.px());
        match self.layout {
            Some(fixed) if (py, px) != fixed => {
                return Err(EngineError::LayoutMismatch {
                    model: name.to_string(),
                    model_layout: (py, px),
                    fixed,
                });
            }
            Some(_) => {}
            None => self.layout = Some((py, px)),
        }
        let mask_dead = survive_dead(self.self_heal, &inf);
        self.world.run(|mut ctx| {
            if ctx.state().is_none() {
                let comm = ctx
                    .take_comm()
                    .expect("a freshly spawned world has a resident comm");
                let cart = CartComm::new(comm, py, px, false);
                *ctx.state() = Some(Box::new(EngineRankState {
                    cart,
                    models: BTreeMap::new(),
                    trajectory: Vec::new(),
                }));
            }
            let rank = ctx.rank();
            let ers = resident(&mut ctx);
            let mut st = inf.rank_state(rank);
            // Under a supervisor, surviving ranks serve the kill-to-respawn
            // gap degraded (dead neighbor → fallback strip) instead of
            // treating the death as fatal; meaningless under Strict, where
            // the blocked receive never classifies the peer at all.
            st.set_survive_dead(mask_dead);
            ers.models.insert(name.to_string(), st);
        });
        self.models.insert(name.to_string(), inf);
        Ok(())
    }

    /// Convenience: build the blueprint from a training outcome (weights,
    /// partition, normalization, prediction mode, window) and register it.
    pub fn register_outcome(
        &mut self,
        name: &str,
        arch: ArchSpec,
        strategy: PaddingStrategy,
        outcome: &TrainOutcome,
    ) -> Result<(), EngineError> {
        self.register(
            name,
            ParallelInference::from_outcome(arch, strategy, outcome),
        )
    }

    /// Evicts the resident model `name`: drops its driver-side blueprint
    /// and every rank's resident rollout state (restored net, window ring,
    /// scratch). Returns whether the name was registered. The engine's
    /// layout stays fixed — an evicted model's slot can be re-registered
    /// any time the same `(py, px)` decomposition.
    pub fn deregister(&mut self, name: &str) -> bool {
        if self.models.remove(name).is_none() {
            return false;
        }
        self.world.run(|mut ctx| {
            if ctx.state().is_some() {
                resident(&mut ctx).models.remove(name);
            }
        });
        true
    }

    /// Serves one rollout request against the resident model `name`
    /// (window-1 models; windowed models use
    /// [`InferEngine::rollout_from_history`]).
    pub fn rollout(
        &mut self,
        name: &str,
        initial: &Tensor3,
        n_steps: usize,
    ) -> Result<RolloutResult, InferError> {
        let inf = self
            .models
            .get(name)
            .ok_or_else(|| InferError::UnknownModel {
                name: name.to_string(),
            })?;
        if inf.window() != 1 {
            return Err(InferError::WindowMismatch {
                expected: inf.window(),
                got: 1,
            });
        }
        self.rollout_from_history(name, std::slice::from_ref(initial), n_steps)
    }

    /// Serves one windowed rollout request against the resident model
    /// `name`. Bitwise-identical to a cold
    /// [`ParallelInference::rollout_from_history`] on the same
    /// configuration.
    pub fn rollout_from_history(
        &mut self,
        name: &str,
        history: &[Tensor3],
        n_steps: usize,
    ) -> Result<RolloutResult, InferError> {
        let mut results = self.rollout_batch(name, &[history], n_steps)?;
        Ok(results.pop().expect("one request in, one result out"))
    }

    /// [`InferEngine::rollout_from_history`] carrying a serving request id:
    /// every span the request causes on the rank threads is stamped with
    /// `req_id` (greppable as `"req":N` in a trace or flight dump), and the
    /// returned [`EnginePhases`] splits its latency into driver-side
    /// dispatch vs rank-side rollout time.
    pub fn rollout_from_history_traced(
        &mut self,
        name: &str,
        history: &[Tensor3],
        n_steps: usize,
        req_id: u64,
    ) -> Result<(RolloutResult, EnginePhases), InferError> {
        let (mut results, phases) =
            self.rollout_batch_traced(name, &[history], n_steps, &[req_id])?;
        Ok((
            results.pop().expect("one request in, one result out"),
            phases,
        ))
    }

    /// Serves `histories.len()` independent rollout requests in a single
    /// round of jobs: each rank thread processes the requests in order,
    /// switching its comm to a freshly allocated generation per request so
    /// in-flight strips from one request can never bleed into the next.
    ///
    /// Returns one [`RolloutResult`] per request, in order, each with its
    /// own per-rank [`TrafficReport`]s and [`PerfCounters`] (counter deltas
    /// taken around that request alone).
    pub fn rollout_batch(
        &mut self,
        name: &str,
        histories: &[&[Tensor3]],
        n_steps: usize,
    ) -> Result<Vec<RolloutResult>, InferError> {
        Ok(self.rollout_batch_traced(name, histories, n_steps, &[])?.0)
    }

    /// [`InferEngine::rollout_batch`] with per-request serving ids (missing
    /// entries tag as 0 = untraced) and a per-request [`EnginePhases`]
    /// latency split. The phase histograms `pdeml_request_dispatch_us` /
    /// `pdeml_request_rollout_us` are recorded here, once per request.
    pub fn rollout_batch_traced(
        &mut self,
        name: &str,
        histories: &[&[Tensor3]],
        n_steps: usize,
        req_ids: &[u64],
    ) -> Result<(Vec<RolloutResult>, EnginePhases), InferError> {
        let inf = self
            .models
            .get(name)
            .ok_or_else(|| InferError::UnknownModel {
                name: name.to_string(),
            })?;
        for h in histories {
            inf.validate_request(h, n_steps)?;
        }
        if histories.is_empty() {
            return Ok((Vec::new(), EnginePhases::default()));
        }
        let request_clock = std::time::Instant::now();
        // Rank-job wall time, accumulated across self-heal retries so the
        // dispatch phase (total minus rollout) never goes negative.
        let mut rollout_clock_us: u64 = 0;
        // [request][rank][slot] normalized local windows.
        let scattered: Vec<Vec<Vec<Tensor3>>> =
            histories.iter().map(|h| inf.scatter_history(h)).collect();
        let chaos = self.chaos.clone();
        let request_base = self.request_base;
        // With self-healing on, a rank death mid-batch triggers supervisor
        // recovery (respawn + checkpoint restore + mesh rebuild) and the
        // whole batch retries at fresh generations. The retry is clean —
        // chaos kills fire once, `reset` clears rings and caches, and fault
        // decisions are generation-independent — so a recovered batch is
        // bitwise what a never-killed world would have served.
        const MAX_SERVE_ATTEMPTS: usize = 3;
        let mut outs = None;
        for attempt in 0..MAX_SERVE_ATTEMPTS {
            let base = self.world.alloc_generations(histories.len() as u32);
            let serve = |mut ctx: RankContext<'_>| {
                let rank = ctx.rank();
                let EngineRankState {
                    cart,
                    models,
                    trajectory,
                } = resident(&mut ctx);
                let st = models
                    .get_mut(name)
                    .expect("driver checked the registry before submitting");
                let mut per_request = Vec::with_capacity(scattered.len());
                for (i, request) in scattered.iter().enumerate() {
                    // Everything this request records on this rank thread —
                    // steps, halo assembly, comm waits, kernels — carries
                    // its serving id (0 = untraced, the tag stays unset).
                    pde_trace::set_request(req_ids.get(i).copied().unwrap_or(0));
                    cart.comm_mut().set_generation(base + i as u32);
                    let window =
                        st.serve_request(cart, &request[rank], n_steps, trajectory, |step| {
                            if let Some(plan) = &chaos {
                                if plan.should_kill(rank, request_base + i, step) {
                                    panic!(
                                        "chaos: killed rank {rank} at request {} step {step}",
                                        request_base + i
                                    );
                                }
                            }
                        });
                    // Cloned after the window closed, so the copy handed to
                    // the driver is not billed to the request.
                    per_request.push((trajectory.clone(), window));
                }
                pde_trace::set_request(0);
                per_request
            };
            if !self.self_heal {
                // The pre-supervisor path: a rank death poisons the world
                // and the panic propagates to the driver.
                let rank_clock = std::time::Instant::now();
                outs = Some(self.world.run_at(base, serve));
                rollout_clock_us += rank_clock.elapsed().as_micros() as u64;
                break;
            }
            let rank_clock = std::time::Instant::now();
            let results = self.world.run_collect(base, serve);
            rollout_clock_us += rank_clock.elapsed().as_micros() as u64;
            if results.iter().all(std::result::Result::is_ok) {
                outs = Some(
                    results
                        .into_iter()
                        .map(|r| r.expect("checked Ok above"))
                        .collect(),
                );
                break;
            }
            drop(results); // survivors' degraded partials are discarded
            let models = &self.models;
            let (py, px) = self
                .layout
                .expect("a served request implies at least one registration");
            let healed = Supervisor::heal(&mut self.world, |mut ctx, comm, was_dead| {
                let rank = ctx.rank();
                let cart = CartComm::new(comm, py, px, false);
                if was_dead || ctx.state().is_none() {
                    // The rank's slot is gone: rebuild every registered
                    // model from its driver-side blueprint — weights come
                    // back through the same checkpoint-restore path that
                    // loaded them at registration.
                    let mut model_states = BTreeMap::new();
                    for (model_name, blueprint) in models {
                        let mut st = blueprint.rank_state(rank);
                        st.set_survive_dead(survive_dead(true, blueprint));
                        model_states.insert(model_name.clone(), st);
                    }
                    *ctx.state() = Some(Box::new(EngineRankState {
                        cart,
                        models: model_states,
                        trajectory: Vec::new(),
                    }));
                } else {
                    // Survivor: resident nets and scratch stay; only the
                    // communicator is from the torn-down mesh and must be
                    // replaced (dropping the old one as it goes).
                    let ers = resident(&mut ctx);
                    ers.cart = cart;
                }
            });
            if let Some(report) = &healed {
                self.respawned.extend(&report.respawned);
            }
            if healed.is_none() || attempt + 1 == MAX_SERVE_ATTEMPTS {
                return Err(InferError::Recovering {
                    attempts: attempt + 1,
                });
            }
        }
        let outs = outs.ok_or(InferError::Recovering {
            attempts: MAX_SERVE_ATTEMPTS,
        })?;

        // Transpose [rank][request] → one RolloutResult per request.
        let mut per_rank: Vec<_> = outs.into_iter().map(Vec::into_iter).collect();
        let mut results = Vec::with_capacity(histories.len());
        for history in histories {
            let mut rank_histories = Vec::with_capacity(per_rank.len());
            let mut traffic: Vec<TrafficReport> = Vec::with_capacity(per_rank.len());
            let mut rank_perf: Vec<PerfCounters> = Vec::with_capacity(per_rank.len());
            for it in &mut per_rank {
                let (produced, window) =
                    it.next().expect("every rank returns one entry per request");
                rank_histories.push(produced);
                rank_perf.push(window.perf);
                traffic.push(window.traffic);
            }
            let initial = history.last().expect("window >= 1");
            results.push(RolloutResult {
                states: inf.stitch_states(initial, &rank_histories, n_steps),
                traffic,
                rank_perf,
            });
        }
        // One latency sample per request: the batch's wall time split
        // evenly (requests in a batch complete together, so each "saw" the
        // whole batch's latency divided by the batch's throughput). The
        // phase split follows the same rule: rollout is the rank-job wall
        // time, dispatch is everything else the driver did around it.
        let total_us = request_clock.elapsed().as_micros() as u64;
        let n = histories.len() as u64;
        let per_request_us = total_us / n;
        let phases = EnginePhases {
            dispatch_us: total_us.saturating_sub(rollout_clock_us) / n,
            rollout_us: rollout_clock_us.min(total_us) / n,
        };
        for _ in histories {
            crate::live::request_latency_us().record(per_request_us);
            crate::live::request_dispatch_us().record(phases.dispatch_us);
            crate::live::request_rollout_us().record(phases.rollout_us);
            crate::live::requests().inc(pde_telemetry::DRIVER);
        }
        self.request_base += histories.len();
        Ok((results, phases))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::HaloFallback;
    use crate::train::{ParallelTrainer, TrainConfig};
    use pde_euler::dataset::paper_dataset;

    fn trained(
        strategy: PaddingStrategy,
        n_ranks: usize,
    ) -> (pde_euler::DataSet, ParallelInference) {
        let data = paper_dataset(16, 8);
        let arch = ArchSpec::tiny();
        let outcome = ParallelTrainer::new(arch.clone(), strategy, TrainConfig::quick_test())
            .train_view(&data, 6, n_ranks)
            .unwrap();
        (
            data,
            ParallelInference::from_outcome(arch, strategy, &outcome),
        )
    }

    #[test]
    fn warm_rollouts_match_cold_bitwise_across_requests() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let cold_a = inf.rollout(data.snapshot(0), 3).unwrap();
        let cold_b = inf.rollout(data.snapshot(4), 3).unwrap();
        let mut engine = InferEngine::new(4);
        engine.register("m", inf).unwrap();
        // Repeated warm requests from the same resident state.
        let warm_a = engine.rollout("m", data.snapshot(0), 3).unwrap();
        let warm_b = engine.rollout("m", data.snapshot(4), 3).unwrap();
        let warm_a2 = engine.rollout("m", data.snapshot(0), 3).unwrap();
        assert_eq!(warm_a.states, cold_a.states, "first warm request");
        assert_eq!(warm_b.states, cold_b.states, "different initial condition");
        assert_eq!(warm_a2.states, cold_a.states, "request after a reset");
        // Per-request traffic attribution matches a cold world's counters.
        for (w, c) in warm_b.traffic.iter().zip(&cold_b.traffic) {
            assert_eq!(w.msgs_sent, c.msgs_sent);
            assert_eq!(w.bytes_sent, c.bytes_sent);
        }
    }

    #[test]
    fn traced_batch_stamps_request_ids_and_splits_phases() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 2);
        let mut engine = InferEngine::new(2);
        engine.register("m", inf).unwrap();
        let h0 = [data.snapshot(0).clone()];
        let h1 = [data.snapshot(1).clone()];
        let handle = pde_trace::begin();
        let (results, phases) = engine
            .rollout_batch_traced("m", &[&h0, &h1], 2, &[71, 72])
            .unwrap();
        let trace = handle.finish();
        assert_eq!(results.len(), 2);
        // Every request's spans carry its id, on rank-tagged tracks.
        for id in [71u64, 72] {
            let spans: Vec<_> = trace.events.iter().filter(|e| e.req == id).collect();
            assert!(!spans.is_empty(), "request {id} left no spans");
            assert!(
                spans
                    .iter()
                    .any(|e| e.name == pde_trace::names::STEP && e.rank != pde_trace::DRIVER_RANK),
                "request {id} has a rank-attributed step span"
            );
        }
        assert!(
            phases.rollout_us > 0,
            "two 2-step rollouts take measurable rank time"
        );
        // The untraced API is the same path with id 0 everywhere.
        let (r2, _) = engine.rollout_batch_traced("m", &[&h0], 2, &[]).unwrap();
        assert_eq!(r2[0].states, results[0].states, "ids never touch the math");
    }

    #[test]
    fn batch_matches_independent_cold_rollouts() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let colds: Vec<_> = (0..3)
            .map(|k| inf.rollout(data.snapshot(k), 2).unwrap())
            .collect();
        let mut engine = InferEngine::new(4);
        engine.register("m", inf).unwrap();
        let h: Vec<&[Tensor3]> = (0..3)
            .map(|k| std::slice::from_ref(data.snapshot(k)))
            .collect();
        let batch = engine.rollout_batch("m", &h, 2).unwrap();
        assert_eq!(batch.len(), 3);
        for (k, (warm, cold)) in batch.iter().zip(&colds).enumerate() {
            assert_eq!(warm.states, cold.states, "request {k}");
            for (w, c) in warm.traffic.iter().zip(&cold.traffic) {
                assert_eq!(w.msgs_sent, c.msgs_sent, "request {k} traffic");
            }
        }
    }

    #[test]
    fn engine_serves_multiple_registered_models() {
        let (data, inf_np) = trained(PaddingStrategy::NeighborPad, 4);
        let (_, inf_zp) = trained(PaddingStrategy::ZeroPad, 4);
        let cold_np = inf_np.rollout(data.snapshot(1), 2).unwrap();
        let cold_zp = inf_zp.rollout(data.snapshot(1), 2).unwrap();
        let mut engine = InferEngine::new(4);
        engine.register("neighbor", inf_np).unwrap();
        engine.register("zero", inf_zp).unwrap();
        assert_eq!(engine.model_names(), vec!["neighbor", "zero"]);
        let warm_zp = engine.rollout("zero", data.snapshot(1), 2).unwrap();
        let warm_np = engine.rollout("neighbor", data.snapshot(1), 2).unwrap();
        assert_eq!(warm_np.states, cold_np.states);
        assert_eq!(warm_zp.states, cold_zp.states);
    }

    #[test]
    fn unknown_model_is_a_typed_error_not_a_crash() {
        let (data, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let mut engine = InferEngine::new(4);
        engine.register("only", inf).unwrap();
        let err = engine.rollout("missing", data.snapshot(0), 1).unwrap_err();
        assert_eq!(
            err,
            InferError::UnknownModel {
                name: "missing".into()
            }
        );
        assert!(err.to_string().contains("missing"));
        // The engine survives the refused request.
        assert!(engine.rollout("only", data.snapshot(0), 1).is_ok());
    }

    #[test]
    fn bad_request_is_refused_without_poisoning_the_engine() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let mut engine = InferEngine::new(4);
        engine.register("m", inf).unwrap();
        let wrong = Tensor3::zeros(4, 8, 8);
        let err = engine.rollout("m", &wrong, 2).unwrap_err();
        assert_eq!(
            err,
            InferError::ShapeMismatch {
                expected: (16, 16),
                got: (8, 8)
            }
        );
        assert!(engine.rollout("m", data.snapshot(0), 2).is_ok());
    }

    #[test]
    fn an_unservable_step_count_is_refused_before_any_rank_runs() {
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let mut engine = InferEngine::new(4);
        engine.register("m", inf.clone()).unwrap();
        // `usize::MAX + 1` wraps; `usize::MAX / 2` states of 1024 values
        // overflow the byte count.
        for steps in [usize::MAX, usize::MAX / 2] {
            let expected = InferError::StepsOutOfRange { steps };
            assert_eq!(
                engine.rollout("m", data.snapshot(0), steps).err(),
                Some(expected.clone())
            );
            assert_eq!(inf.rollout(data.snapshot(0), steps).err(), Some(expected));
        }
        // Nothing ran, so nothing was poisoned: the same engine still serves.
        let served = engine.rollout("m", data.snapshot(0), 2).unwrap();
        assert_eq!(
            served.states,
            inf.rollout(data.snapshot(0), 2).unwrap().states
        );
    }

    #[test]
    fn degraded_warm_rollouts_match_cold_under_seeded_loss() {
        let plan = FaultPlan::loss_rate(0.3, 0xFA_117);
        let policy = HaloPolicy::Degrade {
            timeout: pde_commsim::test_timeout(),
            fallback: HaloFallback::LastKnown,
        };
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 4);
        let inf = inf.with_halo_policy(policy);
        let cold = inf
            .clone()
            .with_fault_plan(plan.clone())
            .rollout(data.snapshot(2), 3)
            .unwrap();
        let mut engine = InferEngine::with_config(EngineConfig::new(4).with_fault_plan(plan));
        engine.register("m", inf).unwrap();
        let warm1 = engine.rollout("m", data.snapshot(2), 3).unwrap();
        let warm2 = engine.rollout("m", data.snapshot(2), 3).unwrap();
        assert_eq!(warm1.states, cold.states, "warm request 1 vs cold");
        assert_eq!(warm2.states, cold.states, "warm request 2 vs cold");
        assert_eq!(
            warm1.traffic.iter().map(|t| t.halos_lost).sum::<u64>(),
            cold.traffic.iter().map(|t| t.halos_lost).sum::<u64>(),
            "seeded loss pattern is generation-independent"
        );
    }

    #[test]
    fn registering_a_mismatched_partition_is_a_typed_error() {
        let (data, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let mut engine = InferEngine::new(2);
        let err = engine.register("m", inf).unwrap_err();
        assert_eq!(
            err,
            EngineError::RankCountMismatch {
                model: "m".into(),
                model_ranks: 4,
                world_ranks: 2
            }
        );
        assert!(err.to_string().contains("engine world has 2"));
        // Nothing was mutated: the engine still serves a matching model.
        let (_, inf2) = trained(PaddingStrategy::ZeroPad, 2);
        engine.register("ok", inf2).unwrap();
        assert!(engine.rollout("ok", data.snapshot(0), 1).is_ok());
        assert_eq!(engine.model_names(), vec!["ok"]);
    }

    #[test]
    fn deregister_evicts_rank_state_and_frees_the_name() {
        let (data, inf) = trained(PaddingStrategy::ZeroPad, 4);
        let mut engine = InferEngine::new(4);
        engine.register("m", inf.clone()).unwrap();
        let before = engine.rollout("m", data.snapshot(0), 2).unwrap();
        assert!(engine.deregister("m"), "was registered");
        assert!(!engine.deregister("m"), "second eviction is a no-op");
        assert!(matches!(
            engine.rollout("m", data.snapshot(0), 2),
            Err(InferError::UnknownModel { .. })
        ));
        // Re-registration after eviction serves bitwise the same.
        engine.register("m", inf).unwrap();
        let after = engine.rollout("m", data.snapshot(0), 2).unwrap();
        assert_eq!(after.states, before.states);
    }

    #[test]
    fn engine_over_split_sub_worlds_matches_a_serial_engine_bitwise() {
        // The tentpole contract at the engine layer: a model partitioned
        // over 2 ranks served from a sub-world of a split 4-rank world is
        // bitwise what a plain 2-rank engine serves.
        let (data, inf) = trained(PaddingStrategy::NeighborPad, 2);
        let mut serial = InferEngine::new(2);
        serial.register("m", inf.clone()).unwrap();
        let want_a = serial.rollout("m", data.snapshot(0), 3).unwrap();
        let want_b = serial.rollout("m", data.snapshot(4), 3).unwrap();
        let subs = World::new(4).split_even(2).unwrap();
        for sub in subs {
            let mut engine = InferEngine::from_world(sub, EngineConfig::new(2));
            engine.register("m", inf.clone()).unwrap();
            let got_a = engine.rollout("m", data.snapshot(0), 3).unwrap();
            let got_b = engine.rollout("m", data.snapshot(4), 3).unwrap();
            assert_eq!(got_a.states, want_a.states);
            assert_eq!(got_b.states, want_b.states);
            for (g, w) in got_a.traffic.iter().zip(&want_a.traffic) {
                assert_eq!(g.msgs_sent, w.msgs_sent);
                assert_eq!(g.bytes_sent, w.bytes_sent);
            }
        }
    }

    #[test]
    fn sub_world_engines_size_their_kernel_budget_from_the_whole_world() {
        // 2 sub-worlds × 2 ranks serve concurrently: each rank gets the
        // share of a 4-rank world, not of its own 2-rank sub-world.
        let want = pde_tensor::pool::resolve_budget(None, 4);
        let engines = InferEngine::over_sub_worlds(World::new(4), 2).unwrap();
        assert_eq!(engines.len(), 2);
        for mut engine in engines {
            assert_eq!(engine.size(), 2);
            let budgets = engine.world.run(|_ctx| pde_tensor::pool::thread_budget());
            assert_eq!(budgets, vec![want; 2]);
        }
    }
}
