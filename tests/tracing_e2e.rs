//! End-to-end request tracing (README "End-to-end request tracing"):
//!
//! * the cross-process merge invariants — merged event count is the sum of
//!   the shard counts, every event stays under its source pid, and the
//!   merged output parses as JSON (checked with a real parse, not a grep:
//!   the workspace is dependency-free, so a ~60-line recursive-descent
//!   validator stands in for serde);
//! * the id-follow path — a request submitted to the scheduler under a
//!   known [`RequestId`] can be found again as rank-attributed spans in
//!   the finished trace and as a `"req"` arg in the Chrome-trace export,
//!   the same chain `pdeml serve --trace-out` produces.

use pde_commsim::World;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::prelude::*;
use pde_trace::{names, Category, Kind};

// ---------------------------------------------------------------------------
// Minimal JSON validator
// ---------------------------------------------------------------------------

struct Json<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Json<'a> {
    fn fail(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, s: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{s}'")))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self
                .peek()
                .ok_or_else(|| self.fail("unterminated string"))?
            {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => self.i += 2,
                c if c < 0x20 => return Err(self.fail("raw control char in string")),
                _ => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        if self.i == start {
            Err(self.fail("expected a number"))
        } else {
            Ok(())
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.peek().ok_or_else(|| self.fail("expected a value"))? {
            b'{' => {
                self.i += 1;
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.ws();
                    self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.value()?;
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(self.fail("expected ',' or '}'")),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.value()?;
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(self.fail("expected ',' or ']'")),
                    }
                }
            }
            b'"' => self.string(),
            b't' => self.lit("true"),
            b'f' => self.lit("false"),
            b'n' => self.lit("null"),
            _ => self.number(),
        }
    }
}

/// Asserts `s` is one complete JSON document.
fn assert_valid_json(s: &str) {
    let mut p = Json {
        b: s.as_bytes(),
        i: 0,
    };
    p.value().unwrap_or_else(|e| panic!("{e}\n--- in:\n{s}"));
    p.ws();
    assert_eq!(p.i, s.len(), "trailing garbage after the JSON document");
}

// ---------------------------------------------------------------------------
// Shard helpers
// ---------------------------------------------------------------------------

/// Records a small session as world rank `pid` and exports it as that
/// process's shard. Returns `(shard_json, captured_event_count)`.
fn shard(pid: u64, spans: usize) -> (String, usize) {
    let handle = pde_trace::begin();
    pde_trace::set_thread_rank(pid as u32);
    for k in 0..spans {
        let s = pde_trace::span_args(Category::Infer, names::STEP, k as u64, 0);
        drop(s);
    }
    pde_trace::instant(Category::Comm, names::SEND, 1, 64);
    pde_trace::set_thread_rank(pde_trace::DRIVER_RANK);
    let trace = handle.finish();
    let n = trace.events.len();
    assert_eq!(n, spans + 1, "spans + one instant");
    (trace.chrome_json_for_pid(pid), n)
}

/// Non-metadata event rows of a Chrome-trace export (one event per line in
/// the controlled writer format).
fn event_rows(json: &str) -> impl Iterator<Item = &str> {
    json.lines()
        .filter(|l| l.contains("\"ph\":\"X\"") || l.contains("\"ph\":\"i\""))
}

#[test]
fn merged_trace_keeps_every_shard_event_under_its_pid_and_parses() {
    let (s0, n0) = shard(0, 3);
    let (s1, n1) = shard(1, 2);
    let (s2, n2) = shard(2, 4);
    let merged = pde_trace::merge_chrome_shards(&[s0.as_str(), s1.as_str(), s2.as_str()]);

    assert_valid_json(&merged);
    assert!(
        merged.contains("\"traceEvents\""),
        "merged output is a Chrome Trace Event document"
    );

    // Merged event count == the sum of the shard counts.
    assert_eq!(event_rows(&merged).count(), n0 + n1 + n2);
    // Every event carries a pid, and exactly its source shard's pid.
    for row in event_rows(&merged) {
        assert!(row.contains("\"pid\":"), "event row without a pid: {row}");
    }
    for (pid, n) in [(0u64, n0), (1, n1), (2, n2)] {
        let needle = format!("\"pid\":{pid},");
        assert_eq!(
            event_rows(&merged).filter(|l| l.contains(&needle)).count(),
            n,
            "pid {pid} lost or gained events in the merge"
        );
        // Perfetto needs ≥1 span per process group to render a track.
        assert!(
            event_rows(&merged).any(|l| l.contains(&needle) && l.contains("\"ph\":\"X\"")),
            "no span survived for pid {pid}"
        );
    }
}

#[test]
fn merge_order_does_not_drop_events_and_single_shard_round_trips() {
    let (s0, n0) = shard(4, 2);
    let (s1, n1) = shard(5, 3);
    let ab = pde_trace::merge_chrome_shards(&[s0.as_str(), s1.as_str()]);
    let ba = pde_trace::merge_chrome_shards(&[s1.as_str(), s0.as_str()]);
    assert_eq!(event_rows(&ab).count(), event_rows(&ba).count());
    assert_valid_json(&ba);
    // A single-shard merge is still a valid document with all its events.
    let solo = pde_trace::merge_chrome_shards(&[s0.as_str()]);
    assert_valid_json(&solo);
    assert_eq!(event_rows(&solo).count(), n0);
    assert_eq!(event_rows(&ab).count(), n0 + n1);
}

// ---------------------------------------------------------------------------
// Request-id follow-through
// ---------------------------------------------------------------------------

fn trained(n_ranks: usize) -> (pde_euler::DataSet, ParallelInference) {
    let data = pde_euler::dataset::paper_dataset(16, 8);
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

#[test]
fn request_id_follows_from_scheduler_submit_to_rank_spans_in_the_trace() {
    let (data, inf) = trained(2);
    // Session first, scheduler second: the dispatchers adopt the session
    // active at construction — exactly what `pdeml serve --trace-out` does.
    let handle = pde_trace::begin();
    let engines = InferEngine::over_sub_worlds(World::new(2), 1).unwrap();
    let sched = Scheduler::new(engines, SchedulerConfig::default());
    sched.register("m", inf).unwrap();

    let id = RequestId::fresh();
    let ticket = sched
        .submit_with_id(id, "m", std::slice::from_ref(data.snapshot(0)), 2)
        .unwrap();
    assert_eq!(ticket.id(), id);
    let (result, phases) = ticket.wait_traced();
    assert!(result.is_ok(), "traced request serves normally");
    assert!(phases.rollout_us > 0, "phase split reaches the caller");
    // A second, untagged-by-us request must NOT inherit the first's id.
    let other = sched
        .submit("m", std::slice::from_ref(data.snapshot(1)), 1)
        .unwrap();
    let other_id = other.id();
    assert_ne!(other_id, id);
    assert!(other.wait().is_ok());

    drop(sched); // joins the dispatchers; all spans are in the rings
    let trace = handle.finish();

    let tagged: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.req == id.as_u64())
        .collect();
    assert!(!tagged.is_empty(), "no event carries the request id");
    assert!(
        tagged.iter().any(|e| {
            e.rank != pde_trace::DRIVER_RANK
                && matches!(e.kind, Kind::Span)
                && e.name == names::STEP
        }),
        "the id must reach rank-attributed rollout-step spans"
    );
    // Each request's spans carry its own id — ids do not bleed across the
    // dispatcher's request loop.
    assert!(
        trace.events.iter().any(|e| e.req == other_id.as_u64()),
        "second request's spans carry its id"
    );

    // And the id is greppable in the Chrome-trace export, on span rows.
    let json = trace.chrome_json();
    assert_valid_json(&json);
    let needle = format!("\"req\":{}", id.as_u64());
    assert!(
        json.lines()
            .any(|l| l.contains(&needle) && l.contains("\"ph\":\"X\"")),
        "trace dumps must be greppable by request id"
    );
}
