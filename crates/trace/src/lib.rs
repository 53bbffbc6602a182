//! Per-rank structured tracing for the one-OS-thread-per-rank runtime.
//!
//! The design mirrors `pde_tensor::perf`: every rank is an OS thread, so a
//! thread-local ring buffer gives exact per-rank attribution with no
//! synchronization on the hot path. Recording is *session-scoped and
//! thread-inherited* rather than gated on a process-global flag: a driving
//! thread calls [`begin`], the commsim `World` propagates the session id into
//! each rank thread via [`adopt`], and every span/event lands in that thread's
//! ring tagged with its rank. When no session is active on the current thread
//! (the default), [`span`] and [`instant`] are a single thread-local `Cell`
//! read and an early return — no clock read, no allocation, no atomics — so
//! instrumented hot paths cost nothing in normal runs. Two concurrent test
//! harnesses tracing different `World`s never see each other's events.
//!
//! Events carry a `&'static str` name plus two `u64` args, so recording never
//! allocates; the ring itself is allocated once per thread on first use and
//! drops its *oldest* events on overflow (the drop count is reported, and the
//! zero-loss tests assert it stays zero). [`TraceHandle::finish`] collects
//! every flushed ring into a [`Trace`], which exports Chrome-trace JSON
//! ([`Trace::chrome_json`], openable in Perfetto / `chrome://tracing` with one
//! track row per rank) and aggregates into per-rank [`RankMetrics`]
//! ([`Trace::summarize`]).

mod chrome;
pub mod metrics;

pub use chrome::{chrome_trace_json, chrome_trace_json_for_pid, merge_chrome_shards};
pub use metrics::RankMetrics;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Rank value used for events recorded on a thread that never called
/// [`adopt`] — typically the driving thread that owns the [`TraceHandle`].
pub const DRIVER_RANK: u32 = u32::MAX;

/// Default per-thread ring capacity (events retained between flushes).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Well-known event names, shared by instrumentation sites, the exporter and
/// the metrics registry so aggregation never string-matches ad hoc literals.
pub mod names {
    pub const SEND: &str = "send";
    pub const RECV: &str = "recv";
    pub const BARRIER: &str = "barrier";
    pub const HALO_RECV: &str = "halo_recv";
    pub const HALO_LOST: &str = "halo_lost";
    pub const HALO_PEER_DEAD: &str = "halo_peer_dead";
    pub const EPOCH: &str = "epoch";
    pub const BATCH: &str = "batch";
    pub const FWD: &str = "fwd";
    pub const BWD: &str = "bwd";
    pub const STEP: &str = "step";
    pub const ASSEMBLE: &str = "halo_assemble";
    pub const GEMM: &str = "gemm";
}

/// Coarse event category; one timeline color / metrics bucket each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Category {
    /// Training driver: epochs, batches.
    Train,
    /// Inference rollout: steps, halo assembly.
    Infer,
    /// Network internals: per-layer forward/backward.
    Nn,
    /// Message passing: send/recv/barrier/halo exchange.
    Comm,
    /// Numeric kernels (GEMM dispatches).
    Kernel,
}

impl Category {
    pub const COUNT: usize = 5;
    pub const ALL: [Category; Self::COUNT] = [
        Category::Train,
        Category::Infer,
        Category::Nn,
        Category::Comm,
        Category::Kernel,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Category::Train => "train",
            Category::Infer => "infer",
            Category::Nn => "nn",
            Category::Comm => "comm",
            Category::Kernel => "kernel",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Whether an event is a timed span or a zero-duration marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed interval with a duration (`ph: "X"` in Chrome trace).
    Span,
    /// Point event (`ph: "i"`).
    Instant,
}

/// One recorded event. `ts_us`/`dur_us` are microseconds since the process
/// trace epoch (first [`begin`] call), shared by every thread so rank tracks
/// line up on one timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub rank: u32,
    pub cat: Category,
    pub kind: Kind,
    pub name: &'static str,
    pub ts_us: u64,
    pub dur_us: u64,
    pub a0: u64,
    pub a1: u64,
    /// Serving request id active on the recording thread (0 = none). A
    /// field rather than a distinct event type: every existing span keeps
    /// its name/category/args and merely gains attribution, so one grep
    /// for `"req":N` pulls a request's whole cross-rank story out of a
    /// trace (DESIGN.md §4k).
    pub req: u64,
}

// ---------------------------------------------------------------------------
// Global + thread-local state
// ---------------------------------------------------------------------------

/// Session ids start at 1; 0 means "no session" everywhere.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);
/// Shared time origin so all threads report on one comparable axis.
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct SessionSink {
    events: Vec<TraceEvent>,
    dropped_by_rank: HashMap<u32, u64>,
    /// Capacity of rings that threads create while recording into this
    /// session. Per session, not process-wide: two sessions begun
    /// concurrently must not size each other's rings.
    ring_capacity: usize,
}

fn collector() -> &'static Mutex<HashMap<u64, SessionSink>> {
    static COLLECTOR: OnceLock<Mutex<HashMap<u64, SessionSink>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(HashMap::new()))
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Next overwrite position once `buf.len() == cap`.
    head: usize,
    cap: usize,
    dropped: u64,
    /// Session the buffered events belong to (for the TLS-teardown flush).
    session: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap.max(1)),
            head: 0,
            cap: cap.max(1),
            dropped: 0,
            session: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Drains events in record order plus the overflow count.
    fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let head = self.head;
        self.head = 0;
        let dropped = self.dropped;
        self.dropped = 0;
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(head);
        (out, dropped)
    }
}

impl Drop for Ring {
    // Safety net: a rank thread that exits without `leave()` still delivers
    // its events via the TLS destructor.
    fn drop(&mut self) {
        flush_ring(self);
    }
}

thread_local! {
    static CTX: Cell<u64> = const { Cell::new(0) };
    static RANK: Cell<u32> = const { Cell::new(DRIVER_RANK) };
    static REQ: Cell<u64> = const { Cell::new(0) };
    static RING: RefCell<Option<Ring>> = const { RefCell::new(None) };
}

fn flush_ring(ring: &mut Ring) {
    if ring.session == 0 || (ring.buf.is_empty() && ring.dropped == 0) {
        return;
    }
    let session = ring.session;
    let rank = ring.buf.first().map(|e| e.rank).unwrap_or(DRIVER_RANK);
    let (events, dropped) = ring.drain();
    let mut sink = collector().lock().unwrap();
    if let Some(s) = sink.get_mut(&session) {
        s.events.extend(events);
        if dropped > 0 {
            *s.dropped_by_rank.entry(rank).or_insert(0) += dropped;
        }
    }
    // A finished/abandoned session silently discards stragglers.
}

fn now_us() -> u64 {
    match EPOCH.get() {
        Some(t0) => t0.elapsed().as_micros() as u64,
        None => 0,
    }
}

fn record(mut ev: TraceEvent) {
    let session = CTX.with(|c| c.get());
    if session == 0 {
        return;
    }
    ev.req = REQ.with(|r| r.get());
    RING.with(|r| {
        let mut r = r.borrow_mut();
        // Once per thread: a ring outlives the session that created it.
        let ring = r.get_or_insert_with(|| {
            let sinks = collector().lock().unwrap();
            Ring::new(
                sinks
                    .get(&session)
                    .map_or(DEFAULT_RING_CAPACITY, |sink| sink.ring_capacity),
            )
        });
        if ring.session != session {
            // First event after a session switch: deliver leftovers, rebind.
            flush_ring(ring);
            ring.session = session;
        }
        ring.push(ev);
    });
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Handle owning a trace session. Dropping it without [`finish`] discards the
/// session's events.
#[must_use = "finish() the handle to collect the trace"]
pub struct TraceHandle {
    session: u64,
    prev_ctx: u64,
}

/// Starts a trace session on the current thread with the default ring
/// capacity. See [`begin_with_capacity`].
pub fn begin() -> TraceHandle {
    begin_with_capacity(DEFAULT_RING_CAPACITY)
}

/// Starts a trace session on the current thread. Spans and events recorded on
/// this thread — and on any thread that [`adopt`]s the session id — are
/// collected until [`TraceHandle::finish`].
pub fn begin_with_capacity(ring_capacity: usize) -> TraceHandle {
    EPOCH.get_or_init(Instant::now);
    let session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    collector().lock().unwrap().insert(
        session,
        SessionSink {
            events: Vec::new(),
            dropped_by_rank: HashMap::new(),
            ring_capacity: ring_capacity.max(1),
        },
    );
    let prev_ctx = CTX.with(|c| c.replace(session));
    TraceHandle { session, prev_ctx }
}

impl TraceHandle {
    /// The id rank threads must [`adopt`] to record into this session.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Flushes the current thread and collects every event delivered to this
    /// session, sorted by (rank, start time).
    pub fn finish(self) -> Trace {
        flush_current_thread();
        CTX.with(|c| c.set(self.prev_ctx));
        let sink = collector().lock().unwrap().remove(&self.session);
        let mut trace = match sink {
            Some(s) => Trace {
                events: s.events,
                dropped_by_rank: s.dropped_by_rank,
            },
            None => Trace {
                events: Vec::new(),
                dropped_by_rank: HashMap::new(),
            },
        };
        trace.events.sort_by_key(|a| (a.rank, a.ts_us));
        trace
    }
}

impl Drop for TraceHandle {
    // Also runs at the end of `finish` (which already removed the sink and
    // restored the context) — both actions are idempotent.
    fn drop(&mut self) {
        collector().lock().unwrap().remove(&self.session);
        CTX.with(|c| {
            if c.get() == self.session {
                c.set(self.prev_ctx);
            }
        });
    }
}

/// The session id active on the current thread, or 0 if tracing is off here.
pub fn session() -> u64 {
    CTX.with(|c| c.get())
}

/// True when the current thread records into some session. Use to skip
/// argument computation that would itself cost something.
pub fn enabled() -> bool {
    session() != 0
}

/// Joins `session` on the current thread, tagging subsequent events with
/// `rank`. A no-op when `session` is 0, so call sites can propagate
/// unconditionally. Pending events for a previous session are flushed first.
pub fn adopt(session: u64, rank: u32) {
    if session == 0 {
        return;
    }
    flush_current_thread();
    CTX.with(|c| c.set(session));
    RANK.with(|r| r.set(rank));
}

/// Leaves the current thread's session, flushing its ring to the collector.
/// No-op if no session is active.
pub fn leave() {
    if session() == 0 {
        return;
    }
    flush_current_thread();
    CTX.with(|c| c.set(0));
    RANK.with(|r| r.set(DRIVER_RANK));
    REQ.with(|r| r.set(0));
}

/// Tags subsequent events on this thread with a serving request id
/// (0 clears the tag). The serving engine brackets each request's rank
/// work with this, so every span a request causes — steps, halo waits,
/// GEMMs — carries its [`TraceEvent::req`] and a trace can be grepped
/// down to one request. Cost: one thread-local write.
#[inline]
pub fn set_request(id: u64) {
    REQ.with(|r| r.set(id));
}

/// The serving request id tagged on the current thread (0 = none).
pub fn current_request() -> u64 {
    REQ.with(|r| r.get())
}

/// Tags the current thread with a rank, independent of any trace session.
/// Live telemetry ([`pde-telemetry`]-backed gauges) shards per rank even
/// when tracing is off, so rank worker threads call this once at spawn.
/// [`adopt`] also sets the tag; [`leave`] resets it to [`DRIVER_RANK`].
pub fn set_thread_rank(rank: u32) {
    RANK.with(|r| r.set(rank));
}

/// The rank tag of the current thread ([`DRIVER_RANK`] when untagged).
pub fn thread_rank() -> u32 {
    RANK.with(|r| r.get())
}

/// Delivers the current thread's buffered events to the collector without
/// leaving the session.
pub fn flush_current_thread() {
    RING.with(|r| {
        if let Some(ring) = r.borrow_mut().as_mut() {
            flush_ring(ring);
        }
    });
}

/// RAII span: records a complete event from construction to drop. Inert (and
/// free beyond one thread-local read) when the thread has no active session.
pub struct Span {
    start_us: u64,
    cat: Category,
    name: &'static str,
    a0: u64,
    a1: u64,
    armed: bool,
}

impl Span {
    /// Updates the span's args before it closes (e.g. bytes actually
    /// received, status discovered mid-span).
    pub fn set_args(&mut self, a0: u64, a1: u64) {
        self.a0 = a0;
        self.a1 = a1;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_us();
        record(TraceEvent {
            rank: RANK.with(|r| r.get()),
            cat: self.cat,
            kind: Kind::Span,
            name: self.name,
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            a0: self.a0,
            a1: self.a1,
            req: 0, // stamped from the thread-local in `record`
        });
    }
}

/// Opens a span with no args. See [`span_args`].
#[inline]
pub fn span(cat: Category, name: &'static str) -> Span {
    span_args(cat, name, 0, 0)
}

/// Opens a span carrying two numeric args (exported under event-specific key
/// names, see [`chrome_trace_json`]). The hot-path cost when tracing is off
/// on this thread is one `Cell` read.
#[inline]
pub fn span_args(cat: Category, name: &'static str, a0: u64, a1: u64) -> Span {
    let armed = session() != 0;
    Span {
        start_us: if armed { now_us() } else { 0 },
        cat,
        name,
        a0,
        a1,
        armed,
    }
}

/// Records a point event (zero duration).
#[inline]
pub fn instant(cat: Category, name: &'static str, a0: u64, a1: u64) {
    if session() == 0 {
        return;
    }
    let ts = now_us();
    record(TraceEvent {
        rank: RANK.with(|r| r.get()),
        cat,
        kind: Kind::Instant,
        name,
        ts_us: ts,
        dur_us: 0,
        a0,
        a1,
        req: 0, // stamped from the thread-local in `record`
    });
}

// ---------------------------------------------------------------------------
// Collected trace
// ---------------------------------------------------------------------------

/// Everything a finished session captured.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All events, sorted by (rank, start time).
    pub events: Vec<TraceEvent>,
    /// Ring-overflow counts per rank (0 everywhere in a lossless capture).
    pub dropped_by_rank: HashMap<u32, u64>,
}

impl Trace {
    /// Total events dropped to ring overflow across all ranks.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_by_rank.values().sum()
    }

    /// Ranks (excluding [`DRIVER_RANK`]) that recorded at least one event.
    pub fn ranks(&self) -> Vec<u32> {
        let mut ranks: Vec<u32> = self
            .events
            .iter()
            .map(|e| e.rank)
            .filter(|&r| r != DRIVER_RANK)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Chrome-trace / Perfetto JSON (one timeline track per rank).
    pub fn chrome_json(&self) -> String {
        chrome::chrome_trace_json(&self.events)
    }

    /// Chrome-trace JSON with every event under process id `pid` — the
    /// per-process shard format of a multi-process world. Shards from
    /// different processes (distinct pids) merge into one timeline with
    /// [`merge_chrome_shards`].
    pub fn chrome_json_for_pid(&self, pid: u64) -> String {
        chrome::chrome_trace_json_for_pid(&self.events, pid)
    }

    /// Aggregates events into per-rank metrics (busy time per category,
    /// traced sends and their bytes, lost halos, dropped events).
    pub fn summarize(&self) -> Vec<RankMetrics> {
        metrics::summarize(&self.events, &self.dropped_by_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing_and_span_is_inert() {
        assert_eq!(session(), 0);
        let s = span(Category::Train, "noop");
        drop(s);
        instant(Category::Comm, names::SEND, 1, 8);
        // No session to collect — nothing to assert beyond "did not panic",
        // but make sure no ring was bound to a session.
        RING.with(|r| {
            if let Some(ring) = r.borrow().as_ref() {
                assert_eq!(ring.session, 0);
            }
        });
    }

    #[test]
    fn session_captures_spans_and_instants_with_ranks() {
        let h = begin();
        let sid = h.session();
        {
            let _s = span_args(Category::Train, names::EPOCH, 3, 0);
            instant(Category::Comm, names::SEND, 1, 48);
        }
        let joiner = std::thread::spawn(move || {
            adopt(sid, 7);
            {
                let _s = span(Category::Comm, names::BARRIER);
            }
            instant(Category::Comm, names::HALO_LOST, 2, 0);
            leave();
        });
        joiner.join().unwrap();
        let trace = h.finish();
        assert_eq!(trace.total_dropped(), 0);
        assert_eq!(trace.ranks(), vec![7]);
        let on_driver: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.rank == DRIVER_RANK)
            .collect();
        assert_eq!(on_driver.len(), 2);
        let epoch = on_driver.iter().find(|e| e.name == names::EPOCH).unwrap();
        assert_eq!(epoch.kind, Kind::Span);
        assert_eq!(epoch.a0, 3);
        let rank7: Vec<_> = trace.events.iter().filter(|e| e.rank == 7).collect();
        assert_eq!(rank7.len(), 2);
        assert!(rank7.iter().any(|e| e.name == names::HALO_LOST));
    }

    #[test]
    fn concurrent_sessions_do_not_mix() {
        let h1 = begin();
        let sid1 = h1.session();
        let t1 = std::thread::spawn(move || {
            adopt(sid1, 0);
            instant(Category::Comm, names::SEND, 1, 100);
            leave();
        });
        let t2 = std::thread::spawn(|| {
            let h2 = begin();
            let sid2 = h2.session();
            adopt(sid2, 0);
            instant(Category::Comm, names::SEND, 1, 999);
            let tr = h2.finish();
            assert_eq!(tr.events.len(), 1);
            assert_eq!(tr.events[0].a1, 999);
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let tr1 = h1.finish();
        assert_eq!(tr1.events.len(), 1);
        assert_eq!(tr1.events[0].a1, 100);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let h = begin_with_capacity(4);
        let sid = h.session();
        let t = std::thread::spawn(move || {
            adopt(sid, 0);
            for i in 0..10u64 {
                instant(Category::Kernel, names::GEMM, i, 0);
            }
            leave();
        });
        t.join().unwrap();
        let trace = h.finish();
        assert_eq!(trace.total_dropped(), 6);
        let kept: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.rank == 0)
            .map(|e| e.a0)
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest events are evicted first");
    }

    #[test]
    fn request_tag_stamps_events_and_clears() {
        let h = begin();
        let sid = h.session();
        let t = std::thread::spawn(move || {
            adopt(sid, 3);
            set_request(41);
            {
                let _s = span_args(Category::Infer, names::STEP, 0, 0);
            }
            set_request(0);
            instant(Category::Comm, names::SEND, 1, 8);
            leave();
            assert_eq!(current_request(), 0, "leave() clears the request tag");
        });
        t.join().unwrap();
        let trace = h.finish();
        let step = trace.events.iter().find(|e| e.name == names::STEP).unwrap();
        assert_eq!(step.req, 41, "span recorded under the request tag");
        assert_eq!(step.rank, 3);
        let send = trace.events.iter().find(|e| e.name == names::SEND).unwrap();
        assert_eq!(send.req, 0, "untagged events carry req 0");
    }

    #[test]
    fn finish_restores_previous_context() {
        let outer = begin();
        let outer_sid = outer.session();
        let inner = begin();
        assert_ne!(inner.session(), outer_sid);
        let _ = inner.finish();
        assert_eq!(session(), outer_sid);
        let _ = outer.finish();
        assert_eq!(session(), 0);
    }
}
