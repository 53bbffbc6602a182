//! End-to-end tests of the `pde-telemetry` live-metrics subsystem.
//!
//! Three layers are pinned down here:
//!
//! * the **log-linear histogram** against an exact sorted oracle (proptest):
//!   every quantile is within the advertised relative-error bound, and
//!   merging two snapshots is *exactly* the histogram of the union of their
//!   samples;
//! * **concurrency**: N rank threads hammering one registry keep totals
//!   exact (sharded relaxed atomics lose nothing);
//! * the **serving stack**: the std-only exporter answers `/metrics` and
//!   the health endpoints over a real TCP socket, the warm engine's latency
//!   histogram tracks externally measured request latencies, and a dead
//!   peer in a persistent world poisons it and is counted on `/metrics`;
//! * the **documentation**: every family the workspace exports is named in
//!   README.md's family table.
//!
//! The engine records every request into the process-global
//! `pdeml_request_latency_us`, so the tests that drive engine rollouts log
//! each request's measured wall time in [`ENGINE_REQUESTS_US`] under its
//! lock: the histogram then holds exactly the logged requests.

use pde_ml_core::prelude::*;
use pde_telemetry::health::{CheckStatus, HealthModel};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Wall time (µs) of every engine request this binary has driven.
static ENGINE_REQUESTS_US: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Holds the engine-request log for a whole test (see the module docs).
fn engine_requests() -> MutexGuard<'static, Vec<u64>> {
    ENGINE_REQUESTS_US.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh `&'static` metric name per call: the registry is process-global
/// and append-only, so tests (and every proptest case) register under
/// unique names instead of sharing state. The leak is a test-only cost.
fn unique_name(prefix: &str) -> &'static str {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    Box::leak(format!("{prefix}_{id}").into_boxed_str())
}

/// Nearest-rank quantile over sorted samples — the same rank rule
/// `HistogramSnapshot::quantile` uses (`pde_telemetry::nearest_rank`).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles agree with the exact sorted oracle to within
    /// the advertised `max_relative_error` (±1 for integer midpoints).
    #[test]
    fn histogram_quantile_is_within_relative_error_of_oracle(
        samples in prop::collection::vec(0u64..4_000_000, 1..400),
        q_ppm in 0u64..=1_000_000,
    ) {
        let q = q_ppm as f64 / 1e6;
        let h = pde_telemetry::histogram(unique_name("pdeml_test_prop_hist"), "oracle test");
        for &s in &samples {
            h.record(s);
        }
        let mut samples = samples;
        samples.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        let got = snap.quantile(q).expect("non-empty histogram") as f64;
        let exact = oracle_quantile(&samples, q) as f64;
        let tol = snap.max_relative_error() * exact + 1.0;
        prop_assert!(
            (got - exact).abs() <= tol,
            "q={q}: histogram said {got}, oracle {exact}, tolerance {tol}"
        );
    }

    /// `merge(a, b)` equals recording the union of the samples — bucket
    /// for bucket, not merely in aggregate.
    #[test]
    fn merged_snapshots_equal_union_recording(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let ha = pde_telemetry::histogram(unique_name("pdeml_test_merge_a"), "merge test");
        let hb = pde_telemetry::histogram(unique_name("pdeml_test_merge_b"), "merge test");
        let hu = pde_telemetry::histogram(unique_name("pdeml_test_merge_u"), "merge test");
        for &s in &a {
            ha.record(s);
            hu.record(s);
        }
        for &s in &b {
            hb.record(s);
            hu.record(s);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hu.snapshot());
    }
}

#[test]
fn concurrent_rank_threads_keep_totals_exact() {
    const THREADS: usize = 8;
    const OPS: u64 = 20_000;
    let c = pde_telemetry::counter(unique_name("pdeml_test_conc_counter"), "concurrency test");
    let g = pde_telemetry::gauge(unique_name("pdeml_test_conc_gauge"), "concurrency test");
    let h = pde_telemetry::histogram(unique_name("pdeml_test_conc_hist"), "concurrency test");
    std::thread::scope(|s| {
        for rank in 0..THREADS {
            s.spawn(move || {
                for i in 0..OPS {
                    c.inc(rank);
                    g.set(rank, i as i64);
                    h.record(i);
                }
            });
        }
    });
    assert_eq!(c.total(), THREADS as u64 * OPS);
    // Ranks below RANK_SHARDS own their shard exclusively: exact per rank,
    // and no rank's gauge store lands on another rank's shard.
    for rank in 0..THREADS {
        assert_eq!(c.get(rank), OPS);
        assert_eq!(g.get(rank), OPS as i64 - 1);
    }
    assert_eq!(h.count(), THREADS as u64 * OPS);
    assert_eq!(h.snapshot().sum, THREADS as u64 * (OPS * (OPS - 1) / 2));
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn exporter_serves_metrics_and_tracks_health_transitions() {
    let name = unique_name("pdeml_test_exporter_total");
    let c = pde_telemetry::counter(name, "exporter e2e test");
    c.add(pde_telemetry::DRIVER, 7);

    let degraded = Arc::new(AtomicBool::new(false));
    let health = Arc::new(HealthModel::new());
    let flag = degraded.clone();
    health.register("fallback_rate", move || {
        if flag.load(Ordering::Acquire) {
            CheckStatus::Degraded("fallback rate over threshold".into())
        } else {
            CheckStatus::Ok
        }
    });
    let mut exporter =
        pde_telemetry::exporter::serve("127.0.0.1:0", health).expect("bind ephemeral port");
    let addr = exporter.local_addr();

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains(&format!("# HELP {name} exporter e2e test")));
    assert!(body.contains(&format!("# TYPE {name} counter")));
    assert!(
        body.contains(&format!("{name} 7")),
        "driver series unlabeled"
    );

    // Counters are monotonic across scrapes.
    c.add(pde_telemetry::DRIVER, 5);
    let (_, body2) = http_get(addr, "/metrics");
    assert!(body2.contains(&format!("{name} 12")));

    let (status, _) = http_get(addr, "/readyz");
    assert!(status.contains("200"));
    degraded.store(true, Ordering::Release);
    let (status, body) = http_get(addr, "/readyz");
    assert!(status.contains("503"), "degraded engine is not ready");
    assert!(body.contains("overall: degraded"));
    let (status, _) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "degraded engine is still live");

    exporter.shutdown();
}

/// The warm engine records every request into the process-global latency
/// histogram; its quantiles must track externally measured wall-clock
/// latencies of the same requests.
#[test]
fn engine_latency_histogram_tracks_measured_requests() {
    const REQUESTS: usize = 24;
    let data = pde_euler::dataset::paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::ZeroPad,
        TrainConfig::quick_test(),
    )
    .train_view(&data, 6, 4)
    .expect("quick training");
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::ZeroPad, &outcome);
    let initial = data.snapshot(0).clone();

    let hist = pde_telemetry::histogram(
        "pdeml_request_latency_us",
        "Warm rollout request latency in microseconds",
    );
    let requests_total = pde_telemetry::counter(
        "pdeml_requests_total",
        "Rollout requests served by the warm engine",
    );
    let mut measured_us = engine_requests();
    let count_before = hist.count();
    let served_before = requests_total.total();
    // The histogram holds exactly the logged requests, so its quantiles
    // are comparable with the measured ones.
    assert_eq!(
        count_before,
        measured_us.len() as u64,
        "latency histogram holds a request nobody measured"
    );

    let mut engine = InferEngine::new(4);
    engine.register("telemetry", inf).unwrap();
    for _ in 0..REQUESTS {
        let t = std::time::Instant::now();
        engine.rollout("telemetry", &initial, 2).expect("rollout");
        measured_us.push(t.elapsed().as_micros() as u64);
    }

    assert_eq!(hist.count() - count_before, REQUESTS as u64);
    assert_eq!(requests_total.total() - served_before, REQUESTS as u64);

    let snap = hist.snapshot();
    measured_us.sort_unstable();
    let p50 = snap.quantile(0.5).expect("non-empty");
    let p99 = snap.quantile(0.99).expect("non-empty");
    assert!(p50 > 0 && p50 <= p99, "p50 {p50} vs p99 {p99}");
    // The engine times the request core (inside `rollout_batch`), so its
    // values are bounded by the externally measured wall clock — up to the
    // histogram's bucket-midpoint error.
    let max_measured = *measured_us.last().unwrap();
    let bound = max_measured as f64 * (1.0 + snap.max_relative_error()) + 1.0;
    assert!(
        (p99 as f64) <= bound,
        "histogram p99 {p99} us exceeds measured max {max_measured} us (bound {bound})"
    );
}

/// A dead peer in a 4-rank persistent world: the survivors observe
/// `Disconnected`, the panic that reaches the caller names the dead peer,
/// the world is poisoned, and the registry counts the panic on rank 2's
/// shard — the evidence an operator scrapes from `/metrics`.
#[test]
fn dead_peer_poisons_the_world_and_counts_the_rank_panic() {
    let mut world = pde_commsim::World::new(4).spawn_persistent();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        world.run(|mut ctx| {
            if ctx.rank() == 2 {
                panic!("rank 2 simulated hardware failure");
            }
            // Every survivor blocks on the dead rank and observes
            // `Disconnected` (rank 2's comm is dropped on panic).
            let _ = ctx.comm().recv(2, 7);
        })
    }));
    let payload = outcome.expect_err("the rank panic must propagate to the driver");
    assert!(world.is_poisoned());

    // Rank 0's propagated panic names the disconnected sender.
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        ["dead", "disconnected", "Disconnected"]
            .iter()
            .any(|word| message.contains(word)),
        "the payload should name a dead or disconnected peer: {message:?}"
    );

    let prom = pde_telemetry::render_prometheus();
    assert!(
        prom.contains("pdeml_rank_panics_total{rank=\"2\"}"),
        "the registry records the rank-2 panic:\n{prom}"
    );
}

/// Every `pdeml_*` family the workspace exports is named in README.md's
/// family table. A quick train, a NeighborPad engine rollout and one
/// `queue_full` rejection register the families those paths own (plus
/// whatever the other tests here registered); test fixtures
/// (`pdeml_test_*`) are exempt.
#[test]
fn every_exported_family_is_documented() {
    const README: &str = include_str!("../README.md");
    let data = pde_euler::dataset::paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::NeighborPad,
        TrainConfig::quick_test(),
    )
    .train_view(&data, 6, 4)
    .expect("quick training");
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);

    {
        let mut measured_us = engine_requests();
        let mut engine = InferEngine::new(4);
        engine.register("families", inf.clone()).unwrap();
        let t = std::time::Instant::now();
        engine
            .rollout("families", data.snapshot(0), 2)
            .expect("rollout");
        measured_us.push(t.elapsed().as_micros() as u64);
    }

    // A depth-0 queue refuses every submission at admission: no rank runs.
    let sched = Scheduler::new(
        vec![InferEngine::new(4)],
        SchedulerConfig::default().with_queue_depth(0),
    );
    sched.register("families", inf).unwrap();
    let refused = sched
        .submit("families", std::slice::from_ref(data.snapshot(0)), 1)
        .unwrap_err();
    assert_eq!(
        refused,
        InferError::Rejected {
            reason: RejectReason::QueueFull
        }
    );

    let prom = pde_telemetry::render_prometheus();
    let families: Vec<&str> = prom
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter(|name| name.starts_with("pdeml_") && !name.starts_with("pdeml_test_"))
        .collect();
    for family in [
        "pdeml_requests_total",
        "pdeml_requests_rejected_total",
        "pdeml_request_dispatch_us",
        "pdeml_request_rollout_us",
        "pdeml_kernel_threads_active",
    ] {
        assert!(families.contains(&family), "{family} not exported:\n{prom}");
    }
    assert!(
        prom.contains("pdeml_comm_send_bytes_total{rank="),
        "a NeighborPad rollout sends halo bytes:\n{prom}"
    );
    let undocumented: Vec<&str> = families
        .into_iter()
        .filter(|family| !README.contains(&format!("| `{family}` |")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "exported but missing from README.md's family table: {undocumented:?}"
    );
}
