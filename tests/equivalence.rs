//! Equivalence guarantees of the parallel scheme.
//!
//! The paper's claim that the scheme "preserv\[es\] the learning quality"
//! rests on parallel execution changing *nothing* about each network's
//! training, and the halo exchange reconstructing *exactly* the overlapping
//! inputs. These tests pin both properties down bit-for-bit.

use pde_euler::dataset::paper_dataset;
use pde_ml_core::prelude::*;
use pde_ml_core::train::train_rank;
use pde_nn::serialize::restore;
use pde_tensor::{assert_slice_close, Tensor3};

#[test]
fn parallel_training_equals_isolated_per_rank_training() {
    // Running P ranks concurrently must produce, per rank, the exact same
    // weights as running that rank's training alone — no interference, no
    // reordering, no shared-RNG coupling.
    let data = paper_dataset(16, 10);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    for strategy in [PaddingStrategy::ZeroPad, PaddingStrategy::NeighborPad] {
        let outcome = ParallelTrainer::new(arch.clone(), strategy, cfg.clone())
            .train(&data, 4)
            .expect("parallel");
        let part = outcome.partition;
        let view = data.view(0, data.pair_count());
        for r in 0..4 {
            let (w, losses) = train_rank(&arch, strategy, &cfg, &view, &part, r);
            assert_eq!(outcome.rank_results[r].weights, w, "{strategy:?} rank {r}");
            assert_eq!(outcome.rank_results[r].epoch_losses, losses);
        }
    }
}

#[test]
fn repeated_parallel_runs_are_bitwise_reproducible() {
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let t = ParallelTrainer::new(arch, PaddingStrategy::NeighborPad, cfg);
    let a = t.train(&data, 4).unwrap();
    let b = t.train(&data, 4).unwrap();
    for (ra, rb) in a.rank_results.iter().zip(&b.rank_results) {
        assert_eq!(ra.weights, rb.weights);
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
    }
}

#[test]
fn halo_exchange_rollout_equals_global_window_rollout() {
    // The parallel rollout's two-phase halo exchange must assemble, on
    // every rank and at every step, exactly the input that a global
    // observer would cut from the stitched state. 3×3 ranks exercises
    // interior, edge and corner cases at once.
    let data = paper_dataset(18, 10);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 9)
        .expect("training");
    assert_eq!(outcome.partition.py(), 3);
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let initial = data.snapshot(0).clone();
    let par = inf.rollout(&initial, 4).unwrap();
    let refr = inf.reference_rollout(&initial, 4);
    for (k, (a, b)) in par.states.iter().zip(&refr).enumerate() {
        assert_slice_close(
            a.as_slice(),
            b.as_slice(),
            1e-13,
            1e-13,
            &format!("step {k}"),
        );
    }
}

#[test]
fn one_rank_parallel_equals_sequential_trainer() {
    // P = 1 must reduce to the sequential trainer exactly (same seed paths).
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let par = ParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg.clone())
        .train_view(&data, 6, 1)
        .expect("parallel");
    let mut seq = SequentialTrainer::new(arch, PaddingStrategy::ZeroPad, cfg)
        .train(&data, 6)
        .expect("sequential");
    assert_eq!(par.rank_results[0].epoch_losses, seq.epoch_losses);
    assert_eq!(
        par.rank_results[0].weights,
        pde_nn::serialize::snapshot(&mut seq.net)
    );
    assert_eq!(par.norm, seq.norm);
}

#[test]
fn weights_survive_serialization_round_trip() {
    // Checkpoint → reload → identical inference, across rank boundaries.
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("training");
    let dir = std::env::temp_dir().join("pde_ml_equivalence_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let mut reloaded = Vec::new();
    for r in &outcome.rank_results {
        let path = dir.join(format!("rank{}.pdenn", r.rank));
        let mut net = arch.build(false, 0);
        restore(&mut net, &r.weights);
        pde_nn::serialize::save_params(&mut net, &path).unwrap();
        let mut net2 = arch.build(false, 99);
        pde_nn::serialize::load_params(&mut net2, &path).unwrap();
        reloaded.push(pde_nn::serialize::snapshot(&mut net2));
        std::fs::remove_file(&path).ok();
    }
    let inf_orig =
        ParallelInference::from_outcome(arch.clone(), PaddingStrategy::NeighborPad, &outcome);
    let inf_reloaded = ParallelInference::new(
        arch,
        PaddingStrategy::NeighborPad,
        outcome.partition,
        reloaded,
        outcome.norm.clone(),
        outcome.prediction,
    );
    let initial = data.snapshot(0).clone();
    let a = inf_orig.rollout(&initial, 2).unwrap();
    let b = inf_reloaded.rollout(&initial, 2).unwrap();
    for (x, y) in a.states.iter().zip(&b.states) {
        assert_eq!(x, y);
    }
}

#[test]
fn windowed_rollout_matches_reference() {
    // Time-window extension (X6): a window-2 model's threaded halo-exchange
    // rollout must equal the global-window oracle bit-for-bit, like the
    // window-1 case.
    let data = paper_dataset(16, 12);
    let mut arch = ArchSpec::tiny();
    arch.channels[0] = 8; // 2 snapshots × 4 fields
    let mut cfg = TrainConfig::quick_test();
    cfg.window = 2;
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("windowed training");
    assert_eq!(outcome.window, 2);
    assert_eq!(
        outcome.total_bytes_sent(),
        0,
        "windowed training is still communication-free"
    );
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let history = [data.snapshot(5).clone(), data.snapshot(6).clone()];
    let par = inf.rollout_from_history(&history, 3).unwrap();
    let refr = inf.reference_rollout_from_history(&history, 3);
    assert_eq!(par.states.len(), 4);
    for (k, (a, b)) in par.states.iter().zip(&refr).enumerate() {
        assert_slice_close(
            a.as_slice(),
            b.as_slice(),
            1e-12,
            1e-12,
            &format!("win step {k}"),
        );
    }
    // Two exchanges per step per axis-neighbor (one per window slot).
    let steps = 3u64;
    for t in &par.traffic {
        assert_eq!(
            t.msgs_sent,
            2 * 2 * steps,
            "per-rank message count with window 2"
        );
    }
}

/// Every value of `a` equals the one of `b` bit for bit.
fn assert_bits_eq(a: &[Tensor3], b: &[Tensor3], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: state count");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.shape(), y.shape(), "{what}: state {k} shape");
        let same = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(same, "{what}: state {k} differs bitwise");
    }
}

#[test]
fn warm_windowed_engine_equals_cold_and_reference_bitwise() {
    // A window-2 model through the warm engine: every rank reads its block
    // of both history states into its ring. A 2×2 grid and an uneven 1×3
    // one (16 columns → 6/5/5), two requests with different histories on
    // the same resident state, each equal to the cold rollout and to the
    // thread-free oracle bit for bit.
    let data = paper_dataset(16, 12);
    let mut arch = ArchSpec::tiny();
    arch.channels[0] = 8; // 2 snapshots × 4 fields
    let mut cfg = TrainConfig::quick_test();
    cfg.window = 2;
    for (ranks, layout) in [(4, (2, 2)), (3, (1, 3))] {
        let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg.clone())
            .train(&data, ranks)
            .expect("windowed training");
        assert_eq!((outcome.partition.py(), outcome.partition.px()), layout);
        let inf =
            ParallelInference::from_outcome(arch.clone(), PaddingStrategy::NeighborPad, &outcome);
        let mut engine = InferEngine::new(ranks);
        engine.register("w2", inf.clone()).unwrap();
        for start in [5, 2] {
            let history = [
                data.snapshot(start).clone(),
                data.snapshot(start + 1).clone(),
            ];
            let what = format!("{ranks} ranks, history {start}");
            let warm = engine.rollout_from_history("w2", &history, 3).unwrap();
            let cold = inf.rollout_from_history(&history, 3).unwrap();
            let oracle = inf.reference_rollout_from_history(&history, 3);
            assert_bits_eq(&warm.states, &cold.states, &format!("{what}: warm vs cold"));
            assert_bits_eq(&warm.states, &oracle, &format!("{what}: warm vs oracle"));
            assert_eq!(warm.states[0], history[1], "{what}: state 0 is the newest");
        }
    }
}

#[test]
fn strict_and_degrade_rollouts_agree_bitwise_without_faults() {
    // HaloPolicy::Strict is the exact pre-resilience code path, and with no
    // fault plan Degrade must be *observationally* identical: same states
    // bit-for-bit (every strip arrives, so fallbacks never engage), zero
    // loss/fallback counters, same payload bytes. Only the message count
    // differs (the synchronized degraded exchange adds barrier traffic).
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("training");
    let inf = ParallelInference::from_outcome(arch.clone(), PaddingStrategy::NeighborPad, &outcome);
    let initial = data.snapshot(0).clone();
    let strict = inf.rollout(&initial, 3).unwrap();
    let refr = inf.reference_rollout(&initial, 3);
    for policy in [
        HaloPolicy::Degrade {
            timeout: pde_commsim::test_timeout(),
            fallback: HaloFallback::ZeroFill,
        },
        HaloPolicy::Degrade {
            timeout: pde_commsim::test_timeout(),
            fallback: HaloFallback::LastKnown,
        },
    ] {
        let inf2 =
            ParallelInference::from_outcome(arch.clone(), PaddingStrategy::NeighborPad, &outcome)
                .with_halo_policy(policy);
        let degraded = inf2.rollout(&initial, 3).unwrap();
        assert!(!degraded.degraded(), "healthy world: nothing lost");
        assert_eq!(degraded.total_fallbacks(), 0);
        for (k, (a, b)) in strict.states.iter().zip(&degraded.states).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "step {k}: healthy Degrade must equal Strict bitwise"
            );
        }
        for (k, (a, b)) in degraded.states.iter().zip(&refr).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "step {k}: … and therefore the reference oracle"
            );
        }
        for (s, d) in strict.traffic.iter().zip(&degraded.traffic) {
            assert_eq!(s.bytes_sent, d.bytes_sent, "same strip payloads");
        }
    }
}

#[test]
fn warm_engine_rollouts_equal_cold_rollouts_bitwise_strict() {
    // A warm InferEngine request reuses threads, comms, the restored
    // networks and every scratch tensor — and must still be
    // indistinguishable, bit for bit, from a cold ParallelInference call
    // that builds all of that from nothing. 3×3 ranks exercises interior,
    // edge and corner halo paths through the resident CartComms.
    let data = paper_dataset(18, 10);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 9)
        .expect("training");
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let mut engine = InferEngine::new(9);
    engine.register("m", inf.clone()).unwrap();
    for (request, start) in [0usize, 3, 0].into_iter().enumerate() {
        let initial = data.snapshot(start).clone();
        let cold = inf.rollout(&initial, 3).unwrap();
        let warm = engine.rollout("m", &initial, 3).unwrap();
        for (k, (a, b)) in warm.states.iter().zip(&cold.states).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "request {request} step {k}: warm engine must equal cold world bitwise"
            );
        }
        for (rank, (w, c)) in warm.traffic.iter().zip(&cold.traffic).enumerate() {
            assert_eq!(w.msgs_sent, c.msgs_sent, "request {request} rank {rank}");
            assert_eq!(w.bytes_sent, c.bytes_sent, "request {request} rank {rank}");
        }
    }
}

#[test]
fn warm_engine_rollouts_equal_cold_rollouts_under_seeded_loss() {
    // Under a seeded per-message loss plan each fault decision is a pure
    // hash of (seed, src, dst, tag) — NOT of the comm generation — so a
    // warm engine request must lose exactly the same
    // strips as a cold world under the same plan, and degrade to exactly
    // the same states. This is the property generation-tagging was designed
    // to preserve (DESIGN.md §4f).
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("training");
    let plan = FaultPlan::loss_rate(0.25, 0xD1CE);
    for fallback in [HaloFallback::ZeroFill, HaloFallback::LastKnown] {
        let policy = HaloPolicy::Degrade {
            timeout: pde_commsim::test_timeout(),
            fallback,
        };
        let inf =
            ParallelInference::from_outcome(arch.clone(), PaddingStrategy::NeighborPad, &outcome)
                .with_halo_policy(policy);
        let cold = inf
            .clone()
            .with_fault_plan(plan.clone())
            .rollout(data.snapshot(1), 3)
            .unwrap();
        let mut engine =
            InferEngine::with_config(EngineConfig::new(4).with_fault_plan(plan.clone()));
        engine.register("m", inf).unwrap();
        for request in 0..2 {
            let warm = engine.rollout("m", data.snapshot(1), 3).unwrap();
            for (k, (a, b)) in warm.states.iter().zip(&cold.states).enumerate() {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "{fallback:?} request {request} step {k}"
                );
            }
            for (rank, (w, c)) in warm.traffic.iter().zip(&cold.traffic).enumerate() {
                assert_eq!(
                    w.halos_lost, c.halos_lost,
                    "{fallback:?} request {request} rank {rank}: loss pattern"
                );
                assert_eq!(
                    w.fallbacks(),
                    c.fallbacks(),
                    "{fallback:?} request {request} rank {rank}: substitutions"
                );
            }
        }
    }
}

#[test]
fn rollouts_are_bitwise_identical_over_channel_and_tcp_transports() {
    // The Transport trait promises the mesh below CartComm is
    // interchangeable: a localhost TCP world must reproduce the in-process
    // channel world's rollout bit-for-bit AND its TrafficReport counters
    // exactly — framing and sockets may not perturb a single message.
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("training");
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let initial = data.snapshot(0).clone();
    let channel = inf.rollout(&initial, 3).unwrap();
    let tcp = inf
        .clone()
        .with_transport(pde_commsim::TransportKind::Tcp)
        .rollout(&initial, 3)
        .unwrap();
    for (k, (a, b)) in channel.states.iter().zip(&tcp.states).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "step {k}: TCP rollout must equal channel rollout bitwise"
        );
    }
    assert_eq!(
        channel.traffic, tcp.traffic,
        "per-rank traffic counters must be transport-independent"
    );
}

#[test]
fn warm_engine_over_tcp_equals_channel_engine_bitwise() {
    // The resident engine holds its CartComms (and therefore its transport)
    // across requests. A TCP-backed engine must serve the same bits and the
    // same per-request traffic deltas as the default channel engine.
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("training");
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let mut channel_engine = InferEngine::new(4);
    channel_engine.register("m", inf.clone()).unwrap();
    let mut tcp_engine = InferEngine::with_config(
        EngineConfig::new(4).with_transport(pde_commsim::TransportKind::Tcp),
    );
    tcp_engine.register("m", inf).unwrap();
    for request in 0..2 {
        let initial = data.snapshot(request).clone();
        let a = channel_engine.rollout("m", &initial, 3).unwrap();
        let b = tcp_engine.rollout("m", &initial, 3).unwrap();
        for (k, (x, y)) in a.states.iter().zip(&b.states).enumerate() {
            assert_eq!(x.as_slice(), y.as_slice(), "request {request} step {k}");
        }
        assert_eq!(a.traffic, b.traffic, "request {request}: traffic deltas");
    }
}

#[test]
fn window_one_windowed_api_matches_plain_rollout() {
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("training");
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let initial = data.snapshot(0).clone();
    let a = inf.rollout(&initial, 2).unwrap();
    let b = inf
        .rollout_from_history(std::slice::from_ref(&initial), 2)
        .unwrap();
    for (x, y) in a.states.iter().zip(&b.states) {
        assert_eq!(x, y);
    }
}
