//! Concurrent serving: a bounded request queue feeding sub-world engines,
//! LRU-bounded multi-tenant residency, and SLO-aware admission control.
//!
//! [`crate::engine::InferEngine`] serves one request at a time — all of the
//! SIMD throughput below it sits behind a single-file queue. The
//! [`Scheduler`] fixes the shape: the caller splits one big world into
//! disjoint sub-worlds ([`pde_commsim::World::split`]), wraps each in an
//! engine, and the scheduler fans independent requests out to whichever
//! sub-world is idle. Because sub-worlds share nothing (own mesh, own
//! traffic stats, own generation counter), a request served on a 2-rank
//! sub-world is bitwise what a plain 2-rank engine would have served — the
//! equivalence suite pins this on both transports.
//!
//! ## Admission control
//!
//! `submit` decides admission synchronously, under one lock, in arrival
//! order — so for a fixed request trace (the sequence of submissions and
//! completions) the accept/reject outcome of every request is a pure
//! function of the trace, with no randomness and no sampling:
//!
//! 1. **Unhealthy** — the configured [`HealthModel`] reports Degraded or
//!    Failed: new traffic is refused while the stack recovers;
//! 2. **SLO breach** — the rolling p99.9 over the last
//!    `latency_window` served requests ([`LATENCY_WINDOW`] by default,
//!    [`SchedulerConfig::with_latency_window`] to resize) exceeds
//!    `slo_ms`: shedding now beats collapsing later;
//! 3. **Queue full** — the bounded queue is at `queue_depth`.
//!
//! A shed request returns [`InferError::Rejected`] immediately and counts
//! on `pdeml_requests_rejected_total{reason=…}`; it never touches a rank.
//!
//! ## Residency
//!
//! Registered models are replicated on every sub-world (any sub-world can
//! serve any request). [`Residency`] bounds how many stay resident:
//! registering past `max_models` evicts the least-recently-used model that
//! has **no pending or in-flight requests** — an in-flight model is never
//! evicted; if every resident model is busy the registration fails with
//! [`EngineError::ResidencyFull`] instead.

use crate::engine::{EngineError, InferEngine};
use crate::infer::{InferError, ParallelInference, RejectReason, RolloutResult};
use pde_commsim::World;
use pde_telemetry::health::{Health, HealthModel};
use pde_telemetry::DRIVER;
use pde_tensor::Tensor3;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Rolling latency samples the SLO admission gate looks at, by default —
/// [`SchedulerConfig::with_latency_window`] resizes the ring.
pub const LATENCY_WINDOW: usize = 256;

/// Process-unique id of one serving request, allocated at ingress (the
/// HTTP front end, or [`RequestId::fresh`] for library callers) and
/// threaded through admission → queue → dispatcher → engine → the per-rank
/// trace spans, where it appears as the `"req"` arg. Ids start at 1; 0 is
/// the "untraced" sentinel throughout the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl RequestId {
    /// Allocates the next process-unique id.
    pub fn fresh() -> RequestId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        RequestId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id — what the trace layer stamps into spans.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Where one served request's latency went, in microseconds: admitted but
/// waiting for a dispatcher (`queue_us`), driver-side work around the rank
/// jobs (`dispatch_us`), and the rank jobs themselves (`rollout_us`).
/// Mirrored by the `pdeml_request_queue_wait_us` / `_dispatch_us` /
/// `_rollout_us` histograms and the HTTP `Server-Timing` header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestPhases {
    /// Admission to dispatcher pickup.
    pub queue_us: u64,
    /// Driver-side scatter/stitch and bookkeeping around the rank jobs.
    pub dispatch_us: u64,
    /// Rank-job wall time (reset + steps + quiesce).
    pub rollout_us: u64,
}

impl RequestPhases {
    /// Sum of the three phases — the request's end-to-end service time as
    /// the scheduler accounts it.
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.dispatch_us + self.rollout_us
    }
}

/// How a [`Scheduler`] admits, queues and evicts.
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Admitted requests that may wait for an idle sub-world before
    /// admission starts refusing with `queue_full`.
    pub queue_depth: usize,
    /// Resident-model cap across the registry (LRU eviction past it).
    pub max_models: usize,
    /// Rolling-p99.9 objective in milliseconds; `None` disarms the gate.
    pub slo_ms: Option<u64>,
    /// Served-request samples required before the SLO gate arms — a cold
    /// scheduler must not reject on one slow warm-up request.
    pub slo_min_samples: usize,
    /// Health model consulted at admission (Degraded/Failed ⇒ reject).
    pub health: Option<Arc<HealthModel>>,
    /// Served-latency samples the rolling ring retains
    /// ([`LATENCY_WINDOW`] by default). The SLO gate arms at
    /// `slo_min_samples` regardless of the window size.
    pub latency_window: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_depth: 32,
            max_models: 8,
            slo_ms: None,
            slo_min_samples: 32,
            health: None,
            latency_window: LATENCY_WINDOW,
        }
    }
}

impl SchedulerConfig {
    /// Bounds the admitted-but-waiting queue.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Caps resident models (LRU eviction past the cap).
    pub fn with_max_models(mut self, cap: usize) -> Self {
        self.max_models = cap;
        self
    }

    /// Arms the rolling-p99.9 SLO admission gate.
    pub fn with_slo_ms(mut self, slo_ms: u64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }

    /// Attaches the health model admission consults.
    pub fn with_health(mut self, health: Arc<HealthModel>) -> Self {
        self.health = Some(health);
        self
    }

    /// Resizes the rolling latency ring the p99.9 gate inspects (clamped
    /// to ≥ 1). A smaller window reacts faster and forgets faster; the
    /// arming threshold stays `slo_min_samples` either way.
    pub fn with_latency_window(mut self, window: usize) -> Self {
        self.latency_window = window.max(1);
        self
    }
}

/// Pure LRU residency bookkeeping: which models are resident, in what
/// recency order, and how many requests each has pending or in flight.
/// Factored out of the scheduler so the property suite can drive it
/// against a naive model without threads.
pub struct Residency {
    cap: usize,
    /// Resident names, least recently used first.
    order: Vec<String>,
    /// Pending + in-flight requests per resident model.
    busy: BTreeMap<String, usize>,
}

impl Residency {
    /// An empty residency with room for `cap` models.
    ///
    /// # Panics
    /// If `cap` is 0 — a scheduler that can hold no model serves nothing.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "Residency: need room for at least one model");
        Residency {
            cap,
            order: Vec::new(),
            busy: BTreeMap::new(),
        }
    }

    /// Resident names, least recently used first.
    pub fn order(&self) -> &[String] {
        &self.order
    }

    /// Whether `name` is resident.
    pub fn is_resident(&self, name: &str) -> bool {
        self.busy.contains_key(name)
    }

    /// Pending + in-flight requests charged to `name`.
    pub fn busy_count(&self, name: &str) -> usize {
        self.busy.get(name).copied().unwrap_or(0)
    }

    /// Makes `name` resident (most recently used), evicting the
    /// least-recently-used **idle** model if the cap is exceeded. Returns
    /// the evicted name, if any; errors when the cap is reached and every
    /// resident model has requests pending or in flight.
    pub fn admit(&mut self, name: &str) -> Result<Option<String>, EngineError> {
        if self.is_resident(name) {
            self.touch(name);
            return Ok(None);
        }
        let mut evicted = None;
        if self.order.len() >= self.cap {
            let victim = self
                .order
                .iter()
                .find(|m| self.busy[m.as_str()] == 0)
                .cloned()
                .ok_or_else(|| EngineError::ResidencyFull {
                    model: name.to_string(),
                    cap: self.cap,
                })?;
            self.order.retain(|m| m != &victim);
            self.busy.remove(&victim);
            evicted = Some(victim);
        }
        self.order.push(name.to_string());
        self.busy.insert(name.to_string(), 0);
        Ok(evicted)
    }

    /// Marks `name` most recently used.
    ///
    /// # Panics
    /// If `name` is not resident.
    pub fn touch(&mut self, name: &str) {
        assert!(self.is_resident(name), "touch('{name}'): not resident");
        self.order.retain(|m| m != name);
        self.order.push(name.to_string());
    }

    /// Charges one pending/in-flight request to `name` (admission).
    pub fn begin(&mut self, name: &str) {
        *self
            .busy
            .get_mut(name)
            .unwrap_or_else(|| panic!("begin('{name}'): not resident")) += 1;
    }

    /// Releases one request from `name` and marks it most recently used.
    pub fn finish(&mut self, name: &str) {
        let n = self
            .busy
            .get_mut(name)
            .unwrap_or_else(|| panic!("finish('{name}'): not resident"));
        assert!(*n > 0, "finish('{name}'): nothing in flight");
        *n -= 1;
        self.touch(name);
    }
}

/// One admitted request waiting for (or running on) a sub-world.
struct QueuedRequest {
    id: RequestId,
    name: String,
    history: Vec<Tensor3>,
    n_steps: usize,
    /// Admission time — the dispatcher's pickup gap is the queue-wait
    /// phase of the request's latency.
    submitted_at: Instant,
    tx: mpsc::Sender<(Result<RolloutResult, InferError>, RequestPhases)>,
}

/// Registry maintenance shipped to a dispatcher, processed strictly before
/// it picks up queued requests — so a request admitted after `register`
/// returned can never reach a sub-world that has not registered the model.
enum Command {
    Register(String, ParallelInference),
    Evict(String),
}

struct SchedState {
    queue: VecDeque<QueuedRequest>,
    /// Per-dispatcher command queues (FIFO each).
    commands: Vec<VecDeque<Command>>,
    residency: Residency,
    /// Driver-side blueprints for request validation at admission.
    blueprints: BTreeMap<String, ParallelInference>,
    /// `(py, px)` fixed by the first registration (see the engine's rule).
    layout: Option<(usize, usize)>,
    /// Rolling served-request latencies (ms) the SLO gate inspects.
    latencies_ms: VecDeque<u64>,
    /// Samples `latencies_ms` retains ([`SchedulerConfig::latency_window`]).
    latency_window: usize,
    shutdown: bool,
    /// Dispatchers still alive (a panicked engine retires its dispatcher).
    live_workers: usize,
}

impl SchedState {
    /// Rolling p99.9 over the latency window, via the shared nearest-rank
    /// rule — the same index the serve-bench percentile would report.
    fn p999_ms(&self) -> Option<u64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        let mut sorted: Vec<u64> = self.latencies_ms.iter().copied().collect();
        sorted.sort_unstable();
        let idx = pde_telemetry::nearest_rank(sorted.len() as u64, 0.999) as usize;
        Some(sorted[idx])
    }
}

struct Shared {
    state: Mutex<SchedState>,
    work: Condvar,
}

/// A pending result from [`Scheduler::submit`]. Dropping it abandons the
/// request's result (the request itself still runs).
pub struct Ticket {
    id: RequestId,
    rx: mpsc::Receiver<(Result<RolloutResult, InferError>, RequestPhases)>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ticket(request {}, pending)", self.id)
    }
}

impl Ticket {
    /// The admitted request's id — what the response echoes back to the
    /// client and the trace spans carry.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the request completes. A request stranded by a died
    /// scheduler (every sub-world lost) reports as [`InferError::Recovering`].
    pub fn wait(self) -> Result<RolloutResult, InferError> {
        self.wait_traced().0
    }

    /// [`Ticket::wait`] plus the request's [`RequestPhases`] latency split
    /// (zeroed when the request never reached a dispatcher).
    pub fn wait_traced(self) -> (Result<RolloutResult, InferError>, RequestPhases) {
        self.rx.recv().unwrap_or((
            Err(InferError::Recovering { attempts: 0 }),
            RequestPhases::default(),
        ))
    }
}

/// Fans independent rollout requests out to idle sub-world engines behind
/// a bounded queue with SLO-aware admission. See the module docs for the
/// state machine.
pub struct Scheduler {
    shared: Arc<Shared>,
    cfg: SchedulerConfig,
    sub_worlds: usize,
    ranks_per_world: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Splits `world` into `sub_worlds` equal groups and schedules over
    /// them. The common construction for `pdeml serve`.
    pub fn over_world(
        world: World,
        sub_worlds: usize,
        cfg: SchedulerConfig,
    ) -> Result<Self, String> {
        let engines = InferEngine::over_sub_worlds(world, sub_worlds)?;
        Ok(Self::new(engines, cfg))
    }

    /// Schedules over caller-built engines (e.g. from [`World::split`] with
    /// custom groups). Engines must be freshly built — same rank count
    /// each, nothing registered yet; the scheduler owns the registry.
    ///
    /// # Panics
    /// If `engines` is empty, rank counts differ, or a model is already
    /// registered on one of them.
    pub fn new(engines: Vec<InferEngine>, cfg: SchedulerConfig) -> Self {
        assert!(!engines.is_empty(), "Scheduler: need at least one engine");
        let ranks_per_world = engines[0].size();
        for e in &engines {
            assert_eq!(
                e.size(),
                ranks_per_world,
                "Scheduler: every sub-world must have the same rank count"
            );
            assert!(
                e.model_names().is_empty(),
                "Scheduler: engines must be fresh — registration goes through the scheduler"
            );
        }
        let sub_worlds = engines.len();
        let latency_window = cfg.latency_window.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                commands: (0..sub_worlds).map(|_| VecDeque::new()).collect(),
                residency: Residency::new(cfg.max_models),
                blueprints: BTreeMap::new(),
                layout: None,
                latencies_ms: VecDeque::with_capacity(latency_window),
                latency_window,
                shutdown: false,
                live_workers: sub_worlds,
            }),
            work: Condvar::new(),
        });
        // Dispatchers join the trace session active on the constructing
        // thread (a `--trace-out` whole-run capture, or an armed flight
        // recorder), so request spans from their engines' rank jobs are
        // collected. No-op when tracing is off.
        let trace_session = pde_trace::session();
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(idx, engine)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("pdeml-dispatch-{idx}"))
                    .spawn(move || {
                        pde_trace::adopt(trace_session, pde_trace::DRIVER_RANK);
                        dispatcher(idx, engine, shared)
                    })
                    .expect("spawn sub-world dispatcher")
            })
            .collect();
        Scheduler {
            shared,
            cfg,
            sub_worlds,
            ranks_per_world,
            workers,
        }
    }

    /// Sub-worlds serving requests.
    pub fn sub_worlds(&self) -> usize {
        self.sub_worlds
    }

    /// Ranks per sub-world — the rank count registered models must match.
    pub fn ranks_per_world(&self) -> usize {
        self.ranks_per_world
    }

    /// Registers `inf` on **every** sub-world (any of them can then serve
    /// it), bounded by the resident-model cap: past it, the
    /// least-recently-used idle model is evicted first. Validation
    /// (rank count, layout) happens here, synchronously; the per-rank
    /// network loading happens on each dispatcher before its next request.
    pub fn register(&self, name: &str, inf: ParallelInference) -> Result<(), EngineError> {
        let part = inf.partition();
        if part.rank_count() != self.ranks_per_world {
            return Err(EngineError::RankCountMismatch {
                model: name.to_string(),
                model_ranks: part.rank_count(),
                world_ranks: self.ranks_per_world,
            });
        }
        let layout = (part.py(), part.px());
        let mut st = self.shared.state.lock().unwrap();
        match st.layout {
            Some(fixed) if fixed != layout => {
                return Err(EngineError::LayoutMismatch {
                    model: name.to_string(),
                    model_layout: layout,
                    fixed,
                });
            }
            Some(_) => {}
            None => st.layout = Some(layout),
        }
        let evicted = st.residency.admit(name)?;
        if let Some(victim) = &evicted {
            st.blueprints.remove(victim);
        }
        st.blueprints.insert(name.to_string(), inf.clone());
        for cmds in st.commands.iter_mut() {
            if let Some(victim) = &evicted {
                cmds.push_back(Command::Evict(victim.clone()));
            }
            cmds.push_back(Command::Register(name.to_string(), inf.clone()));
        }
        drop(st);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Submits one rollout request under a freshly allocated
    /// [`RequestId`]. Admission happens here, synchronously and in arrival
    /// order (see the module docs); an accepted request returns a
    /// [`Ticket`] for its eventual result, a shed one returns
    /// [`InferError::Rejected`] without touching any rank.
    pub fn submit(
        &self,
        name: &str,
        history: &[Tensor3],
        n_steps: usize,
    ) -> Result<Ticket, InferError> {
        self.submit_with_id(RequestId::fresh(), name, history, n_steps)
    }

    /// [`Scheduler::submit`] under a caller-allocated id — the HTTP front
    /// end allocates at ingress so the id exists before admission and a
    /// *rejected* request is still attributable in the access log.
    pub fn submit_with_id(
        &self,
        id: RequestId,
        name: &str,
        history: &[Tensor3],
        n_steps: usize,
    ) -> Result<Ticket, InferError> {
        // Gate 1: health. Outside the queue lock — checks may take their
        // own locks (HealthModel's registry) and must not nest inside ours.
        if let Some(health) = &self.cfg.health {
            if health.report().overall != Health::Healthy {
                return Err(self.reject(RejectReason::Unhealthy));
            }
        }
        let mut st = self.shared.state.lock().unwrap();
        // Caller errors before load shedding: an unknown model or a
        // malformed history is a 4xx, not back-pressure.
        let inf = st
            .blueprints
            .get(name)
            .ok_or_else(|| InferError::UnknownModel {
                name: name.to_string(),
            })?;
        inf.validate_request(history, n_steps)?;
        // Gate 2: every sub-world lost ⇒ nothing can serve.
        if st.live_workers == 0 {
            drop(st);
            return Err(self.reject(RejectReason::Unhealthy));
        }
        // Gate 3: rolling p99.9 vs the SLO.
        if let Some(slo) = self.cfg.slo_ms {
            if st.latencies_ms.len() >= self.cfg.slo_min_samples {
                if let Some(p999) = st.p999_ms() {
                    if p999 > slo {
                        drop(st);
                        return Err(self.reject(RejectReason::SloBreach));
                    }
                }
            }
        }
        // Gate 4: the bounded queue.
        if st.queue.len() >= self.cfg.queue_depth {
            drop(st);
            return Err(self.reject(RejectReason::QueueFull));
        }
        st.residency.begin(name);
        let (tx, rx) = mpsc::channel();
        st.queue.push_back(QueuedRequest {
            id,
            name: name.to_string(),
            history: history.to_vec(),
            n_steps,
            submitted_at: Instant::now(),
            tx,
        });
        crate::live::request_queue_depth().set(DRIVER, st.queue.len() as i64);
        drop(st);
        self.shared.work.notify_one();
        Ok(Ticket { id, rx })
    }

    fn reject(&self, reason: RejectReason) -> InferError {
        crate::live::requests_rejected(reason).inc(DRIVER);
        InferError::Rejected { reason }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// What one dispatcher iteration picked up under the lock.
enum Work {
    Cmd(Command),
    Req(QueuedRequest),
    Exit,
}

/// One sub-world's serving loop: drain registry commands first, then serve
/// queued requests until shutdown (the queue is drained before exit). A
/// panicked request poisons this engine's world only — the dispatcher
/// retires and the remaining sub-worlds keep serving.
fn dispatcher(idx: usize, mut engine: InferEngine, shared: Arc<Shared>) {
    loop {
        let work = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(cmd) = st.commands[idx].pop_front() {
                    break Work::Cmd(cmd);
                }
                if let Some(req) = st.queue.pop_front() {
                    crate::live::request_queue_depth().set(DRIVER, st.queue.len() as i64);
                    crate::live::requests_inflight().add(DRIVER, 1);
                    break Work::Req(req);
                }
                if st.shutdown {
                    break Work::Exit;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        match work {
            Work::Cmd(Command::Register(name, inf)) => {
                engine
                    .register(&name, inf)
                    .expect("scheduler validated the registration at admission");
            }
            Work::Cmd(Command::Evict(name)) => {
                engine.deregister(&name);
            }
            Work::Req(req) => {
                let queue_us = req.submitted_at.elapsed().as_micros() as u64;
                crate::live::request_queue_wait_us().record(queue_us);
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    engine.rollout_from_history_traced(
                        &req.name,
                        &req.history,
                        req.n_steps,
                        req.id.as_u64(),
                    )
                }));
                let elapsed_ms = started.elapsed().as_millis() as u64;
                let died = outcome.is_err();
                let (result, engine_phases) = match outcome {
                    Ok(Ok((r, p))) => (Ok(r), p),
                    Ok(Err(e)) => (Err(e), Default::default()),
                    // The panic already killed the rank and poisoned the
                    // engine's world; the requester gets a typed error.
                    Err(_) => (
                        Err(InferError::Recovering { attempts: 1 }),
                        Default::default(),
                    ),
                };
                let phases = RequestPhases {
                    queue_us,
                    dispatch_us: engine_phases.dispatch_us,
                    rollout_us: engine_phases.rollout_us,
                };
                let served = result.is_ok();
                {
                    let mut st = shared.state.lock().unwrap();
                    st.residency.finish(&req.name);
                    crate::live::requests_inflight().add(DRIVER, -1);
                    if served {
                        while st.latencies_ms.len() >= st.latency_window {
                            st.latencies_ms.pop_front();
                        }
                        st.latencies_ms.push_back(elapsed_ms);
                    }
                    if died {
                        st.live_workers -= 1;
                    }
                }
                let _ = req.tx.send((result, phases));
                if died {
                    // Wake peers in case this was the last worker and
                    // submitters need to observe live_workers == 0.
                    shared.work.notify_all();
                    return;
                }
            }
            Work::Exit => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;
    use crate::padding::PaddingStrategy;
    use crate::train::{ParallelTrainer, TrainConfig};
    use pde_euler::dataset::paper_dataset;
    use pde_telemetry::health::CheckStatus;

    fn trained(n_ranks: usize) -> (pde_euler::DataSet, ParallelInference) {
        let data = paper_dataset(16, 8);
        let arch = ArchSpec::tiny();
        let outcome = ParallelTrainer::new(
            arch.clone(),
            PaddingStrategy::NeighborPad,
            TrainConfig::quick_test(),
        )
        .train_view(&data, 6, n_ranks)
        .unwrap();
        (
            data,
            ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome),
        )
    }

    fn scheduler(sub_worlds: usize, cfg: SchedulerConfig) -> Scheduler {
        Scheduler::over_world(World::new(2 * sub_worlds), sub_worlds, cfg).unwrap()
    }

    #[test]
    fn concurrent_requests_over_sub_worlds_match_serial_bitwise() {
        let (data, inf) = trained(2);
        let mut serial = InferEngine::new(2);
        serial.register("m", inf.clone()).unwrap();
        let want: Vec<_> = (0..6)
            .map(|k| serial.rollout("m", data.snapshot(k), 2).unwrap())
            .collect();

        let sched = scheduler(2, SchedulerConfig::default());
        sched.register("m", inf).unwrap();
        let tickets: Vec<Ticket> = (0..6)
            .map(|k| {
                sched
                    .submit("m", std::slice::from_ref(data.snapshot(k)), 2)
                    .unwrap()
            })
            .collect();
        for (k, t) in tickets.into_iter().enumerate() {
            let got = t.wait().unwrap();
            assert_eq!(got.states, want[k].states, "request {k}");
        }
    }

    #[test]
    fn unknown_model_and_bad_shape_are_caller_errors_not_rejections() {
        let (data, inf) = trained(2);
        let sched = scheduler(1, SchedulerConfig::default());
        sched.register("m", inf).unwrap();
        let err = sched
            .submit("nope", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap_err();
        assert!(matches!(err, InferError::UnknownModel { .. }));
        let wrong = Tensor3::zeros(4, 8, 8);
        let err = sched
            .submit("m", std::slice::from_ref(&wrong), 1)
            .unwrap_err();
        assert!(matches!(err, InferError::ShapeMismatch { .. }));
        let err = sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), usize::MAX)
            .unwrap_err();
        assert!(matches!(err, InferError::StepsOutOfRange { .. }));
        // Caller errors never charge the residency ledger.
        assert_eq!(
            sched.shared.state.lock().unwrap().residency.busy_count("m"),
            0
        );
    }

    #[test]
    fn unhealthy_model_sheds_with_a_typed_rejection() {
        let (data, inf) = trained(2);
        let health = Arc::new(HealthModel::new());
        health.register("always_degraded", || CheckStatus::Degraded("drill".into()));
        let sched = scheduler(1, SchedulerConfig::default().with_health(health));
        sched.register("m", inf).unwrap();
        let err = sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap_err();
        assert_eq!(
            err,
            InferError::Rejected {
                reason: RejectReason::Unhealthy
            }
        );
    }

    #[test]
    fn slo_breach_sheds_once_the_window_is_warm() {
        let (data, inf) = trained(2);
        let cfg = SchedulerConfig::default().with_slo_ms(5);
        let min = cfg.slo_min_samples;
        let sched = scheduler(1, cfg);
        sched.register("m", inf).unwrap();
        // Seed the rolling window past the arming threshold with samples
        // far over the 5 ms objective.
        {
            let mut st = sched.shared.state.lock().unwrap();
            for _ in 0..min {
                st.latencies_ms.push_back(1000);
            }
        }
        let err = sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap_err();
        assert_eq!(
            err,
            InferError::Rejected {
                reason: RejectReason::SloBreach
            }
        );
    }

    #[test]
    fn slo_gate_arms_at_min_samples_regardless_of_window_size() {
        let (data, inf) = trained(2);
        // A window far larger than the arming threshold: the gate must arm
        // at `slo_min_samples` (32), not when the ring fills.
        let cfg = SchedulerConfig::default()
            .with_slo_ms(5)
            .with_latency_window(512);
        let min = cfg.slo_min_samples;
        let sched = scheduler(1, cfg);
        sched.register("m", inf.clone()).unwrap();
        {
            let mut st = sched.shared.state.lock().unwrap();
            assert_eq!(st.latency_window, 512);
            for _ in 0..min - 1 {
                st.latencies_ms.push_back(1000);
            }
        }
        // One sample short of the threshold: admitted despite the breach.
        sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .expect("gate must stay disarmed below slo_min_samples")
            .wait()
            .unwrap();
        {
            let mut st = sched.shared.state.lock().unwrap();
            st.latencies_ms.clear();
            for _ in 0..min {
                st.latencies_ms.push_back(1000);
            }
        }
        let err = sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap_err();
        assert_eq!(
            err,
            InferError::Rejected {
                reason: RejectReason::SloBreach
            },
            "gate arms at exactly slo_min_samples even in a 512-wide ring"
        );

        // And a tiny window stays bounded: the ring never outgrows it.
        let small = scheduler(1, SchedulerConfig::default().with_latency_window(4));
        small.register("m", inf).unwrap();
        for k in 0..6 {
            small
                .submit("m", std::slice::from_ref(data.snapshot(k)), 1)
                .unwrap()
                .wait()
                .unwrap();
        }
        let st = small.shared.state.lock().unwrap();
        assert!(
            st.latencies_ms.len() <= 4,
            "6 served requests, window 4 ⇒ at most 4 retained samples (got {})",
            st.latencies_ms.len()
        );
    }

    #[test]
    fn tickets_expose_ids_and_phase_latencies() {
        let (data, inf) = trained(2);
        let sched = scheduler(1, SchedulerConfig::default());
        sched.register("m", inf).unwrap();
        let id = RequestId::fresh();
        let ticket = sched
            .submit_with_id(id, "m", std::slice::from_ref(data.snapshot(0)), 2)
            .unwrap();
        assert_eq!(ticket.id(), id);
        let (result, phases) = ticket.wait_traced();
        assert!(result.is_ok());
        assert!(phases.rollout_us > 0, "a served request has rank time");
        assert!(
            phases.total_us() >= phases.queue_us + phases.rollout_us,
            "total covers its parts"
        );
        // Plain submits allocate monotonically fresh ids.
        let a = sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap();
        let b = sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap();
        assert!(b.id().as_u64() > a.id().as_u64());
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
    }

    #[test]
    fn queue_overflow_sheds_instead_of_collapsing() {
        let (data, inf) = trained(2);
        let sched = scheduler(1, SchedulerConfig::default().with_queue_depth(1));
        sched.register("m", inf).unwrap();
        // One long request occupies the single sub-world; rapid-fire
        // submissions behind it overflow the depth-1 queue.
        let slow = sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 400)
            .unwrap();
        let mut admitted = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..8 {
            match sched.submit("m", std::slice::from_ref(data.snapshot(1)), 1) {
                Ok(t) => admitted.push(t),
                Err(InferError::Rejected {
                    reason: RejectReason::QueueFull,
                }) => rejected += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected >= 1, "a depth-1 queue must shed under burst");
        assert!(slow.wait().is_ok());
        for t in admitted {
            assert!(t.wait().is_ok(), "admitted requests are always served");
        }
    }

    #[test]
    fn residency_cap_evicts_lru_and_protects_busy_models() {
        let mut r = Residency::new(2);
        assert_eq!(r.admit("a").unwrap(), None);
        assert_eq!(r.admit("b").unwrap(), None);
        // "a" is LRU → evicted for "c".
        assert_eq!(r.admit("c").unwrap(), Some("a".to_string()));
        // Touch "b" (now MRU), admit "d": victim is "c".
        r.touch("b");
        assert_eq!(r.admit("d").unwrap(), Some("c".to_string()));
        // A busy model is skipped: "b" is LRU but has work in flight.
        r.begin("b");
        assert_eq!(r.admit("e").unwrap(), Some("d".to_string()));
        // Every resident busy → typed error.
        r.begin("e");
        assert_eq!(
            r.admit("f").unwrap_err(),
            EngineError::ResidencyFull {
                model: "f".to_string(),
                cap: 2
            }
        );
        // Finishing unblocks admission again.
        r.finish("e");
        assert_eq!(r.admit("f").unwrap(), Some("e".to_string()));
    }

    #[test]
    fn scheduler_register_past_cap_evicts_and_still_serves() {
        let (data, inf) = trained(2);
        let sched = scheduler(1, SchedulerConfig::default().with_max_models(1));
        sched.register("first", inf.clone()).unwrap();
        let want = sched
            .submit("first", std::slice::from_ref(data.snapshot(0)), 2)
            .unwrap()
            .wait()
            .unwrap();
        // Registering a second model evicts "first" (cap 1, idle).
        sched.register("second", inf).unwrap();
        let err = sched
            .submit("first", std::slice::from_ref(data.snapshot(0)), 2)
            .unwrap_err();
        assert!(matches!(err, InferError::UnknownModel { .. }));
        let got = sched
            .submit("second", std::slice::from_ref(data.snapshot(0)), 2)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.states, want.states, "same weights, same rollout");
    }
}
