//! Proof that the training hot path is allocation-free after warm-up.
//!
//! `pde-tensor` installs a counting `#[global_allocator]`
//! ([`pde_tensor::perf::CountingAlloc`]), so the assertion below is not a
//! code-review claim but a measurement: after one warm-up epoch has grown
//! every buffer (packed GEMM panels, im2col scratch, ping-pong activation
//! workspace, cached inputs, optimizer moments, batch tensors, epoch
//! order), a full further epoch — forward, loss, backward, gradient
//! clipping, optimizer step, for every mini-batch — performs **zero** heap
//! allocations. The counters are thread-local, so the probe is exact for
//! this test thread regardless of what other tests do in parallel.

use pde_domain::GridPartition;
use pde_euler::dataset::paper_dataset;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::data::SubdomainDataset;
use pde_ml_core::norm::ChannelNorm;
use pde_ml_core::padding::PaddingStrategy;
use pde_ml_core::prelude::{InferEngine, ParallelInference, ParallelTrainer};
use pde_ml_core::train::{TrainConfig, TrainSession};
use pde_tensor::perf;

#[test]
fn training_epoch_after_warmup_allocates_nothing() {
    let data = paper_dataset(16, 9); // 8 supervised pairs
    let part = GridPartition::new(16, 16, 2, 2);
    let (train, _) = data.chronological_split(7);
    let norm = ChannelNorm::fit(&train);
    let strategy = PaddingStrategy::NeighborPad;
    let arch = ArchSpec::tiny();
    let ds = SubdomainDataset::build(&train, &part, 0, arch.halo(), strategy, &norm);

    let mut cfg = TrainConfig::quick_test();
    // Exercise the clipping branch too: with a tiny max-norm it fires on
    // (essentially) every step.
    cfg.grad_clip = Some(1e-6);
    // 7 samples at batch 4 → a full batch then a ragged 3-sample one, so the
    // shrink-regrow path of the reusable tensors is covered as well.
    cfg.batch_size = 4;

    let mut net = arch.build_for(strategy, cfg.seed);
    let mut session = TrainSession::new(&cfg);

    // Warm-up: grows every buffer on this thread.
    let warm = session.run_epoch(&mut net, &ds, &cfg, 0);
    assert!(warm.is_finite());

    let before = perf::snapshot();
    let loss = session.run_epoch(&mut net, &ds, &cfg, 1);
    let spent = perf::snapshot().since(&before);

    assert!(loss.is_finite());
    assert!(
        spent.gemm_calls > 0,
        "the epoch should have exercised the GEMM kernels"
    );
    assert_eq!(
        spent.allocs, 0,
        "steady-state epoch performed {} heap allocations",
        spent.allocs
    );
}

/// The same property holds across several epochs and with shuffling off —
/// the order buffer and batch tensors are stable, not just lucky.
#[test]
fn many_epochs_stay_allocation_free() {
    let data = paper_dataset(16, 9);
    let part = GridPartition::new(16, 16, 2, 2);
    let (train, _) = data.chronological_split(7);
    let norm = ChannelNorm::fit(&train);
    let strategy = PaddingStrategy::ZeroPad;
    let arch = ArchSpec::tiny();
    let ds = SubdomainDataset::build(&train, &part, 3, arch.halo(), strategy, &norm);

    let mut cfg = TrainConfig::quick_test();
    cfg.shuffle = false;
    cfg.batch_size = 2;
    let mut net = arch.build_for(strategy, cfg.seed);
    let mut session = TrainSession::new(&cfg);
    let _ = session.run_epoch(&mut net, &ds, &cfg, 0);

    let before = perf::snapshot();
    for epoch in 1..5 {
        let _ = session.run_epoch(&mut net, &ds, &cfg, epoch);
    }
    let spent = perf::snapshot().since(&before);
    assert_eq!(
        spent.allocs, 0,
        "epochs 1..5 performed {} heap allocations",
        spent.allocs
    );
}

/// The threaded kernel path stays allocation-free on the submitting thread
/// once warm: publishing a job to the worker pool is a pointer store plus a
/// condvar signal, chunk claiming is an atomic fetch-add, and the scratch
/// each executing thread uses — its packed-B buffer, and its im2col column
/// panel when a convolution fans out — is thread-local and grown during
/// warm-up. The allocation counters are thread-local, so this measures the
/// driver thread exactly; worker-side scratch is covered by the warm-up
/// pass touching every worker once (chunks outnumber threads).
#[test]
fn threaded_gemm_steady_state_allocates_nothing_on_driver() {
    use pde_tensor::conv::{conv2d_im2col_into, ConvScratch};
    use pde_tensor::{Conv2dSpec, Tensor4};
    let (m, k, n) = (16, 150, 320); // n > NC: column chunks
    let a = vec![0.5; m * k];
    let b = vec![0.25; k * n];
    let mut c = vec![0.0; m * n];
    // Eight samples of a 6 -> 16 channel 5x5 layer: (sample, panel) chunks.
    let spec = Conv2dSpec::square(6, 16, 5, 0);
    let x = Tensor4::full(8, 6, 20, 24, 0.25);
    let w = Tensor4::full(16, 6, 5, 5, 0.5);
    let mut scratch = ConvScratch::new();
    let mut y = Tensor4::zeros(0, 0, 0, 0);

    pde_tensor::pool::set_thread_budget(3);
    // Warm-up: spawns the pool, grows packed-A/B scratch and the column
    // panel on every thread (8 chunks over 3 threads → each worker runs at
    // least one).
    for _ in 0..2 {
        conv2d_im2col_into(&x, &w, &[], &spec, &mut scratch, &mut y);
        pde_tensor::gemm(m, k, n, &a, &b, &mut c);
    }

    let before = perf::snapshot();
    for _ in 0..3 {
        conv2d_im2col_into(&x, &w, &[], &spec, &mut scratch, &mut y);
        // Single wide-n product: the column-chunk path.
        pde_tensor::gemm(m, k, n, &a, &b, &mut c);
    }
    let spent = perf::snapshot().since(&before);
    pde_tensor::pool::set_thread_budget(1);

    assert!(spent.gemm_calls >= 6, "the loop should have hit the driver");
    assert_eq!(
        spent.allocs, 0,
        "threaded steady-state GEMM performed {} driver-side heap allocations",
        spent.allocs
    );
}

/// The serving analogue: once a warm-up request has grown every resident
/// buffer (the engine's per-rank networks, window rings, input/output
/// scratch and trajectory buffers), a further warm engine request performs
/// zero heap allocations on every rank thread. Measured through
/// `RolloutResult::rank_perf`, whose counters are the same thread-local
/// probe the training assertions use — the window covers the whole request
/// loop (reset, input assembly, forward passes, ring rotation), with only
/// the result hand-off to the driver outside it. Zero-padding is the
/// communication-free configuration, so no send buffers muddy the claim.
#[test]
fn second_warm_engine_request_allocates_nothing_on_rank_threads() {
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::ZeroPad,
        TrainConfig::quick_test(),
    )
    .train(&data, 4)
    .unwrap();
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::ZeroPad, &outcome);
    let mut engine = InferEngine::new(4);
    engine.register("m", inf).unwrap();

    // Warm-up: grows every rank-resident buffer.
    let warm_up = engine.rollout("m", data.snapshot(0), 3).unwrap();
    assert!(
        warm_up.rank_perf.iter().all(|p| p.gemm_calls > 0),
        "the request should have exercised the GEMM kernels"
    );

    for request in 1..4 {
        let r = engine.rollout("m", data.snapshot(0), 3).unwrap();
        for (rank, p) in r.rank_perf.iter().enumerate() {
            assert!(p.gemm_calls > 0, "request {request} rank {rank} did work");
            assert_eq!(
                p.allocs, 0,
                "request {request} rank {rank} performed {} heap allocations steady-state",
                p.allocs
            );
        }
    }
}
