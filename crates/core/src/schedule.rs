//! Concurrent serving: a bounded request queue feeding sub-world engines
//! under SLO-aware admission control.
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
//! 2. **SLO breach** — the rolling p99.9 over the last [`LATENCY_WINDOW`]
//!    served requests exceeds `slo_ms`, once at least [`SLO_MIN_SAMPLES`]
//!    have been served: shedding now beats collapsing later;
//! 3. **Queue full** — the bounded queue is at `queue_depth`.
//!
//! A shed request returns [`InferError::Rejected`] immediately and counts
//! on `pdeml_requests_rejected_total{reason=…}`; it never touches a rank.
//!
//! ## Registry
//!
//! Registered models are replicated on every sub-world (any sub-world can
//! serve any request) and stay resident for the scheduler's lifetime;
//! `pdeml serve` registers its one model at start-up.

use crate::engine::{EngineError, InferEngine, Layout};
use crate::infer::{InferError, ParallelInference, RejectReason, RolloutResult};
use pde_telemetry::health::{Health, HealthModel};
use pde_telemetry::DRIVER;
use pde_tensor::Tensor3;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Rolling served-request latency samples the SLO admission gate looks at.
pub const LATENCY_WINDOW: usize = 256;

/// Served requests the SLO gate waits for before it arms — a cold
/// scheduler must not reject on one slow warm-up request.
pub const SLO_MIN_SAMPLES: usize = 32;

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
    /// Driver-side validation, gather and bookkeeping around the rank jobs.
    pub dispatch_us: u64,
    /// Rank-job wall time (ingest + steps + quiesce).
    pub rollout_us: u64,
}

impl RequestPhases {
    /// Sum of the three phases — the request's end-to-end service time as
    /// the scheduler accounts it.
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.dispatch_us + self.rollout_us
    }
}

/// How a [`Scheduler`] admits and queues.
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Admitted requests that may wait for an idle sub-world before
    /// admission starts refusing with `queue_full`.
    pub queue_depth: usize,
    /// Rolling-p99.9 objective in milliseconds; `None` disarms the gate.
    pub slo_ms: Option<u64>,
    /// Health model consulted at admission (Degraded/Failed ⇒ reject).
    pub health: Option<Arc<HealthModel>>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_depth: 32,
            slo_ms: None,
            health: None,
        }
    }
}

impl SchedulerConfig {
    /// Bounds the admitted-but-waiting queue.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
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

/// A model registration shipped to a dispatcher, processed strictly before
/// it picks up queued requests — so a request admitted after `register`
/// returned can never reach a sub-world that has not registered the model.
struct Registration {
    name: String,
    inf: ParallelInference,
}

struct SchedState {
    queue: VecDeque<QueuedRequest>,
    /// Per-dispatcher registration queues (FIFO each).
    registrations: Vec<VecDeque<Registration>>,
    /// Driver-side blueprints for request validation at admission.
    blueprints: BTreeMap<String, ParallelInference>,
    /// The rank count and `(py, px)` every sub-world's engine enforces.
    layout: Layout,
    /// Rolling served-request latencies (ms) the SLO gate inspects, at
    /// most [`LATENCY_WINDOW`] of them.
    latencies_ms: VecDeque<u64>,
    shutdown: bool,
    /// Dispatchers still alive (a panicked engine retires its dispatcher).
    live_workers: usize,
}

impl SchedState {
    /// Rolling p99.9 over the latency window, via the shared nearest-rank
    /// rule — the same index a histogram quantile would report.
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
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Schedules over caller-built engines — usually
    /// [`InferEngine::over_sub_worlds`], or engines over
    /// [`pde_commsim::World::split`] groups. Engines must be freshly built
    /// — same rank count each, nothing registered yet; the scheduler owns
    /// the registry.
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
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                registrations: (0..sub_worlds).map(|_| VecDeque::new()).collect(),
                blueprints: BTreeMap::new(),
                layout: Layout::new(ranks_per_world),
                latencies_ms: VecDeque::with_capacity(LATENCY_WINDOW),
                shutdown: false,
                live_workers: sub_worlds,
            }),
            work: Condvar::new(),
        });
        // Dispatchers join the trace session active on the constructing
        // thread (a `--trace-out` whole-run capture), so request spans from
        // their engines' rank jobs are collected. No-op when tracing is off.
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
            workers,
        }
    }

    /// Registers `inf` on **every** sub-world (any of them can then serve
    /// it). Validation — the engines' own rank-count and layout rule —
    /// happens here, synchronously; the per-rank network loading happens
    /// on each dispatcher before its next request.
    pub fn register(&self, name: &str, inf: ParallelInference) -> Result<(), EngineError> {
        let mut st = self.shared.state.lock().unwrap();
        st.layout.admit(name, inf.partition())?;
        for queue in st.registrations.iter_mut() {
            queue.push_back(Registration {
                name: name.to_string(),
                inf: inf.clone(),
            });
        }
        st.blueprints.insert(name.to_string(), inf);
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
            if st.latencies_ms.len() >= SLO_MIN_SAMPLES {
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
        let (tx, rx) = mpsc::channel();
        st.queue.push_back(QueuedRequest {
            id,
            name: name.to_string(),
            history: history.to_vec(),
            n_steps,
            submitted_at: Instant::now(),
            tx,
        });
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
    Register(Registration),
    Req(QueuedRequest),
    Exit,
}

/// One sub-world's serving loop: drain registrations first, then serve
/// queued requests until shutdown (the queue is drained before exit). A
/// panicked request poisons this engine's world only — the dispatcher
/// retires and the remaining sub-worlds keep serving.
fn dispatcher(idx: usize, mut engine: InferEngine, shared: Arc<Shared>) {
    loop {
        let work = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(reg) = st.registrations[idx].pop_front() {
                    break Work::Register(reg);
                }
                if let Some(req) = st.queue.pop_front() {
                    break Work::Req(req);
                }
                if st.shutdown {
                    break Work::Exit;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        match work {
            Work::Register(Registration { name, inf }) => {
                engine
                    .register(&name, inf)
                    .expect("the scheduler applied the engines' layout rule at registration");
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
                    if served {
                        while st.latencies_ms.len() >= LATENCY_WINDOW {
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
    use pde_commsim::World;
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
        let engines = InferEngine::over_sub_worlds(World::new(2 * sub_worlds), sub_worlds);
        Scheduler::new(engines.unwrap(), cfg)
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
        // Caller errors never reach the queue.
        assert!(sched.shared.state.lock().unwrap().queue.is_empty());
    }

    #[test]
    fn register_refuses_a_model_no_sub_world_can_serve() {
        let (data, inf) = trained(2);
        let (_, four_ranks) = trained(4);
        let sched = scheduler(2, SchedulerConfig::default());
        assert_eq!(
            sched.register("big", four_ranks).unwrap_err(),
            EngineError::RankCountMismatch {
                model: "big".into(),
                model_ranks: 4,
                world_ranks: 2
            }
        );
        let err = sched
            .submit("big", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap_err();
        assert!(matches!(err, InferError::UnknownModel { .. }));
        // The refusal reached no dispatcher: a fitting model still serves.
        sched.register("m", inf).unwrap();
        sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .unwrap()
            .wait()
            .unwrap();
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
        let sched = scheduler(1, SchedulerConfig::default().with_slo_ms(5));
        sched.register("m", inf).unwrap();
        // Seed the rolling window past the arming threshold with samples
        // far over the 5 ms objective.
        {
            let mut st = sched.shared.state.lock().unwrap();
            for _ in 0..SLO_MIN_SAMPLES {
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
        // The window is far larger than the arming threshold: the gate must
        // arm at SLO_MIN_SAMPLES, not when the ring fills.
        const { assert!(SLO_MIN_SAMPLES < LATENCY_WINDOW) };
        let sched = scheduler(1, SchedulerConfig::default().with_slo_ms(5));
        sched.register("m", inf.clone()).unwrap();
        {
            let mut st = sched.shared.state.lock().unwrap();
            for _ in 0..SLO_MIN_SAMPLES - 1 {
                st.latencies_ms.push_back(1000);
            }
        }
        // One sample short of the threshold: admitted despite the breach.
        sched
            .submit("m", std::slice::from_ref(data.snapshot(0)), 1)
            .expect("gate must stay disarmed below SLO_MIN_SAMPLES")
            .wait()
            .unwrap();
        {
            let mut st = sched.shared.state.lock().unwrap();
            st.latencies_ms.clear();
            for _ in 0..SLO_MIN_SAMPLES {
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
            "gate arms at exactly SLO_MIN_SAMPLES even in a {LATENCY_WINDOW}-wide ring"
        );

        // And a full ring stays bounded: served requests push the oldest
        // samples out instead of growing it.
        let full = scheduler(1, SchedulerConfig::default());
        full.register("m", inf).unwrap();
        full.shared.state.lock().unwrap().latencies_ms = vec![u64::MAX; LATENCY_WINDOW].into();
        for k in 0..6 {
            full.submit("m", std::slice::from_ref(data.snapshot(k)), 1)
                .unwrap()
                .wait()
                .unwrap();
        }
        let st = full.shared.state.lock().unwrap();
        assert!(
            st.latencies_ms.len() <= LATENCY_WINDOW,
            "6 requests served into a full ring ⇒ at most {LATENCY_WINDOW} retained samples \
             (got {})",
            st.latencies_ms.len()
        );
        assert_eq!(
            st.latencies_ms.iter().filter(|&&ms| ms == u64::MAX).count(),
            LATENCY_WINDOW - 6,
            "the six oldest samples made room"
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
}
