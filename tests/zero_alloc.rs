//! Proof that the solver, training and serving hot paths are allocation-free after
//! warm-up, and that the HTTP listener's buffer pool stays within its
//! bounds.
//!
//! `pde-tensor` installs a counting `#[global_allocator]`
//! ([`pde_tensor::perf::CountingAlloc`]), so the assertion below is not a
//! code-review claim but a measurement: after one warm-up epoch has grown
//! every buffer (packed conv weights and tap tables, activation
//! workspace, optimizer moments, the batch's input and prediction, epoch
//! order), a full further epoch — forward, loss, backward, gradient
//! clipping, optimizer step, for every mini-batch — performs **zero** heap
//! allocations. The counters are thread-local, so the probe is exact for
//! this test thread regardless of what other tests do in parallel.

use pde_domain::GridPartition;
use pde_euler::dataset::paper_dataset;
use pde_euler::{Boundary, EulerSolver, InitialCondition, SolverConfig};
use pde_ml_cli::wire::encode_state_into;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::data::SubdomainDataset;
use pde_ml_core::norm::ChannelNorm;
use pde_ml_core::padding::PaddingStrategy;
use pde_ml_core::prelude::{InferEngine, ParallelInference, ParallelTrainer};
use pde_ml_core::train::{LossKind, PredictionMode, TrainConfig, TrainSession};
use pde_telemetry::http::{BufferPool, Listener, Request, Response, MAX_POOLED_CAPACITY};
use pde_tensor::{perf, Tensor3};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// A warm epoch of the product's batch loop allocates nothing under either
/// loss: the inputs are cut into the session's batch tensor, and the loss
/// reads each target from the snapshots and writes its gradient over the
/// prediction, so neither needs a buffer of its own.
#[test]
fn training_epoch_after_warmup_allocates_nothing() {
    let data = paper_dataset(16, 9); // 8 supervised pairs
    let part = GridPartition::new(16, 16, 2, 2);
    let (train, _) = data.chronological_split(7);
    let norm = ChannelNorm::fit(&train);
    let strategy = PaddingStrategy::NeighborPad;
    let arch = ArchSpec::tiny();
    let ds = SubdomainDataset::build(&train, &part, 0, arch.halo(), strategy, &norm);

    for loss in [LossKind::Mape { floor: 1e-3 }, LossKind::Mse] {
        let mut cfg = TrainConfig::quick_test();
        cfg.loss = loss;
        // Exercise the clipping branch too: with a tiny max-norm it fires
        // on (essentially) every step.
        cfg.grad_clip = Some(1e-6);
        // 7 samples at batch 4 → a full batch then a ragged 3-sample one,
        // so the shrink-regrow path of the reusable tensors is covered as
        // well.
        cfg.batch_size = 4;

        let mut net = arch.build_for(strategy, cfg.seed);
        let mut session = TrainSession::new(&cfg);

        // Warm-up: grows every buffer on this thread.
        let warm = session.run_epoch(&mut net, &ds, &cfg, 0);
        assert!(warm.is_finite());

        let before = perf::snapshot();
        let loss = session.run_epoch(&mut net, &ds, &cfg, 1);
        let spent = perf::snapshot().since(&before);

        let name = cfg.loss.label();
        assert!(loss.is_finite(), "{name}");
        assert!(
            spent.gemm_calls > 0,
            "{name}: the epoch should have exercised the GEMM kernels"
        );
        assert_eq!(
            spent.allocs, 0,
            "{name}: steady-state epoch performed {} heap allocations",
            spent.allocs
        );
    }
}

/// The Deconv stack's transpose layer trains on the activation the stack
/// lends it, like the convolutions: a warm epoch allocates nothing.
#[test]
fn deconv_epoch_after_warmup_allocates_nothing() {
    let data = paper_dataset(16, 9);
    let part = GridPartition::new(16, 16, 2, 2);
    let (train, _) = data.chronological_split(7);
    let norm = ChannelNorm::fit(&train);
    let strategy = PaddingStrategy::Deconv;
    let arch = ArchSpec::tiny();
    let ds = SubdomainDataset::build(&train, &part, 1, arch.halo(), strategy, &norm);

    let mut cfg = TrainConfig::quick_test();
    cfg.grad_clip = Some(1e-6);
    cfg.batch_size = 4;
    let mut net = arch.build_for(strategy, cfg.seed);
    let mut session = TrainSession::new(&cfg);
    assert!(session.run_epoch(&mut net, &ds, &cfg, 0).is_finite());

    let before = perf::snapshot();
    let loss = session.run_epoch(&mut net, &ds, &cfg, 1);
    let spent = perf::snapshot().since(&before);
    assert!(loss.is_finite());
    assert!(spent.gemm_calls > 0, "the epoch ran no GEMM");
    assert_eq!(
        spent.allocs, 0,
        "steady-state Deconv epoch performed {} heap allocations",
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

/// The shard fills every batch from the snapshots in place — window slots,
/// zero-pad margins and residual targets included — so a warm epoch over a
/// two-snapshot window on a NeighborPad corner rank allocates nothing.
#[test]
fn windowed_residual_epoch_on_a_corner_rank_allocates_nothing() {
    let data = paper_dataset(16, 9);
    let part = GridPartition::new(16, 16, 2, 2);
    // Pair 0 is history only; 7 samples at batch 4 end on a ragged batch.
    let view = data.view(1, 7);
    let norm = ChannelNorm::fit(&view);
    let strategy = PaddingStrategy::NeighborPad;
    let mut arch = ArchSpec::tiny();
    arch.channels[0] = 2 * norm.channels();
    let mut cfg = TrainConfig::quick_test();
    cfg.prediction = PredictionMode::Residual;
    cfg.window = 2;
    cfg.batch_size = 4;
    let ds = SubdomainDataset::build_windowed(
        &view,
        &part,
        0,
        arch.halo(),
        strategy,
        &norm,
        cfg.prediction,
        cfg.window,
    );

    let mut net = arch.build_for(strategy, cfg.seed);
    let mut session = TrainSession::new(&cfg);
    let _ = session.run_epoch(&mut net, &ds, &cfg, 0);

    let before = perf::snapshot();
    let loss = session.run_epoch(&mut net, &ds, &cfg, 1);
    let spent = perf::snapshot().since(&before);
    assert!(loss.is_finite());
    assert!(
        spent.gemm_calls > 0,
        "the epoch should have run the kernels"
    );
    assert_eq!(
        spent.allocs, 0,
        "steady-state windowed epoch performed {} heap allocations",
        spent.allocs
    );
}

/// The data generator is allocation-free too: `EulerSolver::new` sizes the
/// padded planes, the stage state and the flux lines, so a warm step under
/// any boundary family only reads and writes them.
#[test]
fn warm_solver_step_allocates_nothing() {
    for boundary in [
        Boundary::Outflow,
        Boundary::Periodic,
        Boundary::Reflective,
        Boundary::Absorbing,
    ] {
        let cfg = SolverConfig::paper(24, 20);
        let mut solver = EulerSolver::new(cfg, boundary, &InitialCondition::paper_pulse());
        solver.step();
        let before = perf::snapshot();
        solver.run(3);
        let spent = perf::snapshot().since(&before);
        assert_eq!(
            spent.allocs, 0,
            "{boundary:?}: three warm solver steps performed {} heap allocations",
            spent.allocs
        );
    }
}

/// The threaded conv passes stay allocation-free on the submitting thread
/// once warm: publishing a job to the worker pool is a pointer store plus a
/// condvar signal, chunk claiming is an atomic fetch-add, and each pass's
/// scratch (packed weights, tap table, zero-bordered sample) is grown during
/// warm-up. The allocation counters are thread-local, so this measures the
/// driver thread exactly; the warm-up also touches every worker once
/// (chunks outnumber threads).
#[test]
fn threaded_conv_passes_allocate_nothing_on_driver() {
    use pde_tensor::conv::{
        conv2d_backward_input_leaky, conv2d_backward_weight, conv2d_forward_into, ConvScratch,
    };
    use pde_tensor::{Conv2dSpec, Tensor4};
    // Eight 40-row samples of a same-padded 6 -> 16 channel 5x5 layer: two
    // 32-row bands a sample (the forward pass fans out per bordered
    // sample), (sample, band) and (channel, output group) chunks.
    let spec = Conv2dSpec::same(6, 16, 5);
    let x = Tensor4::full(8, 6, 40, 24, 0.25);
    let w = Tensor4::full(16, 6, 5, 5, 0.5);
    let grad_out = Tensor4::full(8, 16, 40, 24, -0.125);
    let mut scratch = ConvScratch::new();
    let mut y = Tensor4::zeros(0, 0, 0, 0);
    let mut act = x.clone();
    let mut gw = Tensor4::zeros(16, 6, 5, 5);
    let mut gb = vec![0.0; 16];
    let mut passes = || {
        conv2d_forward_into(&x, &w, &[], &spec, Some(0.01), &mut scratch, &mut y);
        conv2d_backward_weight(&x, &grad_out, &spec, &mut gw, &mut gb, &mut scratch);
        act.as_mut_slice().copy_from_slice(x.as_slice());
        conv2d_backward_input_leaky(&grad_out, &w, &spec, 0.01, &mut scratch, &mut act);
    };

    pde_tensor::pool::set_thread_budget(3);
    // Warm-up: spawns the pool and grows every scratch buffer.
    for _ in 0..2 {
        passes();
    }
    let before = perf::snapshot();
    for _ in 0..3 {
        passes();
    }
    let spent = perf::snapshot().since(&before);
    pde_tensor::pool::set_thread_budget(1);

    // Forward and input gradient book one call a pass, the weight gradient
    // one a sample.
    assert_eq!(
        spent.gemm_calls,
        3 * (1 + 8 + 1),
        "every pass should have run"
    );
    assert_eq!(
        spent.allocs, 0,
        "threaded steady-state conv passes performed {} driver-side heap allocations",
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

/// With halo exchange, a warm engine request allocates exactly the strips
/// its ranks send and nothing else: the padded input of every step is
/// assembled in place, received strips are placed without a copy, and the
/// trajectory buffers are lent back between requests. On a 2×2 grid every
/// rank sends one x and one y strip a step, so 3 steps cost each rank 6
/// allocations — one per message in its traffic report.
#[test]
fn warm_halo_request_allocates_only_its_send_strips() {
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let strategy = PaddingStrategy::NeighborPad;
    let outcome = ParallelTrainer::new(arch.clone(), strategy, TrainConfig::quick_test())
        .train(&data, 4)
        .unwrap();
    let inf = ParallelInference::from_outcome(arch, strategy, &outcome);
    let mut engine = InferEngine::new(4);
    engine.register("m", inf).unwrap();
    let steps = 3;
    engine.rollout("m", data.snapshot(0), steps).unwrap();

    for request in 1..4 {
        let r = engine.rollout("m", data.snapshot(request), steps).unwrap();
        for (rank, (p, t)) in r.rank_perf.iter().zip(&r.traffic).enumerate() {
            assert_eq!(
                t.msgs_sent,
                2 * steps as u64,
                "rank {rank}: two strips a step"
            );
            assert_eq!(
                p.allocs, t.msgs_sent,
                "request {request} rank {rank}: {} allocations for {} strips sent",
                p.allocs, t.msgs_sent
            );
        }
    }
}

/// Serves `handler` on an ephemeral port for the duration of `check`, which
/// gets the address and the listener's buffer pool.
fn on_listener(
    handler: impl Fn(&mut Request) -> Response + Send + Sync + 'static,
    check: impl FnOnce(SocketAddr, &BufferPool),
) {
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let (addr, pool, stop) = (
        listener.local_addr(),
        listener.buffer_pool(),
        listener.stop_handle(),
    );
    let accept_loop = std::thread::spawn(move || listener.run(handler));
    check(addr, &pool);
    stop.stop();
    accept_loop.join().unwrap();
}

/// One request on a fresh connection; the whole answer, head and body.
fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// The connection thread hands its buffers back after the client has its
/// answer; waits until the pool holds `sets` sets.
fn pooled(pool: &BufferPool, sets: usize) -> Vec<usize> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let retained = pool.retained();
        if retained.len() >= 2 * sets || Instant::now() > deadline {
            return retained;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The serving response path: once one request has grown the listener's
/// pooled reply buffer, encoding a three-state toy rollout (4×16×16 values
/// from 1e-12 to 1e3, plus a few the exact encoder hands to std) into it on
/// the connection thread performs zero heap allocations.
#[test]
fn encoding_a_toy_response_into_a_warm_pooled_buffer_allocates_nothing() {
    let states: Vec<Tensor3> = (0..3)
        .map(|s| {
            let values = (0..4 * 16 * 16)
                .map(|i| match i % 97 {
                    0 => 1e300,
                    1 => -f64::MIN_POSITIVE,
                    _ => (1.0 + 0.37 * i as f64).sqrt() * 10f64.powi((i + s) % 16 - 12),
                })
                .collect();
            Tensor3::from_vec(4, 16, 16, values)
        })
        .collect();
    let allocs = Arc::new(Mutex::new(Vec::new()));
    let seen = allocs.clone();
    on_listener(
        move |request| {
            let mut body = std::mem::take(&mut request.reply);
            let before = perf::snapshot();
            body.push_str("steps 2\n");
            for state in &states {
                encode_state_into(&mut body, state);
            }
            seen.lock()
                .unwrap()
                .push(perf::snapshot().since(&before).allocs);
            Response::text("200 OK", body)
        },
        |addr, pool| {
            for _ in 0..3 {
                let response = exchange(addr, b"GET /rollout HTTP/1.1\r\n\r\n");
                assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
                // Sequential requests: the next one must find this one's set.
                pooled(pool, 1);
            }
        },
    );
    let allocs = allocs.lock().unwrap();
    assert!(allocs[0] > 0, "the first request grows the reply buffer");
    assert_eq!(
        allocs[1..],
        [0, 0],
        "warm requests allocated while encoding: {allocs:?}"
    );
}

/// A request far past the pool's per-buffer cap — 8 MiB of body, echoed
/// back so the reply is as large — leaves nothing over
/// [`MAX_POOLED_CAPACITY`] resident, while an ordinary request's buffers are
/// kept for the next connection.
#[test]
fn an_oversized_request_leaves_no_oversized_buffer_in_the_pool() {
    on_listener(
        |request| {
            let mut body = std::mem::take(&mut request.reply);
            body.push_str(&String::from_utf8_lossy(request.body()));
            Response::text("200 OK", body)
        },
        |addr, pool| {
            let small = exchange(addr, b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
            assert!(small.ends_with("\r\n\r\nhello"), "{small}");
            let kept = pooled(pool, 1);
            assert!(
                kept.len() == 2 && kept.iter().all(|&c| c > 0),
                "a small request's two buffers are kept: {kept:?}"
            );

            let big = vec![b'x'; 8 << 20];
            let request = [
                format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", big.len()).as_bytes(),
                &big,
            ]
            .concat();
            let response = exchange(addr, &request);
            assert!(response.len() > big.len(), "the 8 MiB body was echoed");
            let retained = pooled(pool, 1);
            assert!(
                retained.iter().all(|&c| c <= MAX_POOLED_CAPACITY),
                "retained {retained:?} after an 8 MiB request"
            );
        },
    );
}

/// Two connections inside the handler at once hold two different buffer
/// sets, even when the pool has one warm set to give — and both sets are
/// pooled once they are done.
#[test]
fn two_concurrent_connections_never_share_a_buffer() {
    let inside = Arc::new(Barrier::new(2));
    let buffers = Arc::new(Mutex::new(Vec::new()));
    let seen = buffers.clone();
    on_listener(
        move |request| {
            let mut body = std::mem::take(&mut request.reply);
            body.push_str("ok");
            if request.path == "/pair" {
                seen.lock()
                    .unwrap()
                    .push((request.body().as_ptr() as usize, body.as_ptr() as usize));
                // Both connections are in here, holding their sets, before
                // either answers.
                inside.wait();
            }
            Response::text("200 OK", body)
        },
        |addr, pool| {
            exchange(addr, b"POST /warm HTTP/1.1\r\nContent-Length: 1\r\n\r\na");
            assert_eq!(pooled(pool, 1).len(), 2, "one warm set");
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    std::thread::spawn(move || {
                        exchange(addr, b"POST /pair HTTP/1.1\r\nContent-Length: 1\r\n\r\na")
                    })
                })
                .collect();
            for client in clients {
                assert!(client.join().unwrap().ends_with("ok"));
            }
            assert_eq!(pooled(pool, 2).len(), 4, "both sets come back");
        },
    );
    let buffers = buffers.lock().unwrap();
    assert_eq!(buffers.len(), 2);
    assert_ne!(buffers[0].0, buffers[1].0, "shared a read buffer");
    assert_ne!(buffers[0].1, buffers[1].1, "shared a reply buffer");
}
