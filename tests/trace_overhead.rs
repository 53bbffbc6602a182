//! Proof that the tracing instrumentation is free when disabled — and cheap
//! when enabled.
//!
//! The instrumented hot paths (`TrainSession::run_epoch`, per-layer
//! forward/backward, the GEMM driver) now contain `pde_trace` span/instant
//! calls. The acceptance bar: with no trace session active those calls must
//! not allocate and must cost no more than a thread-local read, so the
//! zero-allocation property of `tests/zero_alloc.rs` — and the kernel
//! benchmark numbers — are untouched. With a session active, recording must
//! stay allocation-free once the per-thread ring has warmed up (events are
//! plain `Copy` structs pushed into a preallocated ring).

use pde_domain::GridPartition;
use pde_euler::dataset::{paper_dataset, DataSet};
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::data::SubdomainDataset;
use pde_ml_core::norm::ChannelNorm;
use pde_ml_core::padding::PaddingStrategy;
use pde_ml_core::train::{TrainConfig, TrainSession};
use pde_tensor::perf;

/// The dataset, config, network and session of the fixture; the shard
/// borrows the dataset, so [`shard`] builds it in the test.
fn session_fixture() -> (DataSet, TrainConfig, pde_nn::Sequential, TrainSession) {
    let data = paper_dataset(16, 9);
    let mut cfg = TrainConfig::quick_test();
    cfg.batch_size = 4;
    let net = ArchSpec::tiny().build_for(STRATEGY, cfg.seed);
    let session = TrainSession::new(&cfg);
    (data, cfg, net, session)
}

const STRATEGY: PaddingStrategy = PaddingStrategy::NeighborPad;

fn shard(data: &DataSet) -> SubdomainDataset<'_> {
    let part = GridPartition::new(16, 16, 2, 2);
    let (train, _) = data.chronological_split(7);
    let norm = ChannelNorm::fit(&train);
    SubdomainDataset::build(&train, &part, 0, ArchSpec::tiny().halo(), STRATEGY, &norm)
}

#[test]
fn disabled_tracing_keeps_the_instrumented_epoch_allocation_free() {
    // Identical shape to zero_alloc.rs, run with tracing OFF (no session on
    // this thread): the added span/instant call sites must not reintroduce
    // a single allocation into the steady-state epoch.
    assert!(!pde_trace::enabled(), "test assumes no ambient session");
    let (data, cfg, mut net, mut session) = session_fixture();
    let ds = shard(&data);

    let warm = session.run_epoch(&mut net, &ds, &cfg, 0);
    assert!(warm.is_finite());

    let before = perf::snapshot();
    let loss = session.run_epoch(&mut net, &ds, &cfg, 1);
    let spent = perf::snapshot().since(&before);

    assert!(loss.is_finite());
    assert!(spent.gemm_calls > 0, "epoch exercised the kernels");
    assert_eq!(
        spent.allocs, 0,
        "with tracing disabled the instrumented epoch performed {} allocations",
        spent.allocs
    );
}

#[test]
fn enabled_tracing_allocates_only_the_ring_not_per_event() {
    // With a session active, the first recorded event allocates the
    // per-thread ring once; after a warm-up epoch, further epochs record
    // thousands of events with zero additional heap allocations.
    let (data, cfg, mut net, mut session) = session_fixture();
    let ds = shard(&data);
    let handle = pde_trace::begin();

    // Warm-up: grows the training buffers AND the trace ring.
    let _ = session.run_epoch(&mut net, &ds, &cfg, 0);

    let before = perf::snapshot();
    let _ = session.run_epoch(&mut net, &ds, &cfg, 1);
    let spent = perf::snapshot().since(&before);
    assert_eq!(
        spent.allocs, 0,
        "steady-state traced epoch performed {} allocations",
        spent.allocs
    );

    let trace = handle.finish();
    assert!(
        trace.events.len() > 50,
        "the traced epochs should have recorded plenty of events, got {}",
        trace.events.len()
    );
    assert_eq!(trace.total_dropped(), 0, "ring never overflowed");
}

#[test]
fn telemetry_hot_path_is_allocation_free_and_cheap() {
    // Same bar as the tracing fast path, for the live-metrics layer:
    // registration is the only allocating step; after it, a counter `inc`
    // and a histogram `record` are a handful of relaxed fetch_adds. 1M
    // mixed operations must allocate nothing and finish well inside the
    // generous wall-clock bound.
    let c = pde_telemetry::counter("pdeml_test_hot_path_total", "hot-path overhead test");
    let h = pde_telemetry::histogram("pdeml_test_hot_path_us", "hot-path overhead test");
    c.inc(0);
    h.record(1);

    let before = perf::snapshot();
    let t0 = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        c.inc((i % 4) as usize);
        h.record(i & 0xFFFF);
    }
    let spent = perf::snapshot().since(&before);
    let elapsed = t0.elapsed();

    assert_eq!(
        spent.allocs, 0,
        "1M metric updates performed {} allocations",
        spent.allocs
    );
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "1M metric updates took {elapsed:?} — the hot path is no longer trivial"
    );
    assert_eq!(c.total(), 1_000_001);
    assert_eq!(h.count(), 1_000_001);
}

#[test]
fn disabled_span_cost_is_bounded() {
    // A generous wall-clock bound on the disabled fast path: 1M disarmed
    // span constructions (one thread-local read each, no clock read) must
    // finish in well under a second even on a loaded CI machine. This is a
    // regression tripwire for accidentally moving work ahead of the
    // session check, not a microbenchmark.
    assert!(!pde_trace::enabled());
    let t0 = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        let _s = pde_trace::span_args(pde_trace::Category::Kernel, pde_trace::names::GEMM, i, 0);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "1M disabled spans took {elapsed:?} — the disabled path is no longer trivial"
    );
}
