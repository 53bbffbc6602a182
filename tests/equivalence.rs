//! Equivalence guarantees of the parallel scheme.
//!
//! The paper's claim that the scheme "preserv\[es\] the learning quality"
//! rests on parallel execution changing *nothing* about each network's
//! training, and the halo exchange reconstructing *exactly* the overlapping
//! inputs. These tests pin both properties down bit-for-bit.

use pde_euler::dataset::paper_dataset;
use pde_ml_core::prelude::*;
use pde_ml_core::train::{train_rank, PredictionMode};
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

/// True when `a` and `b` hold the same values bit for bit (`-0.0` and
/// `0.0`, or two NaNs, are different here).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn one_rank_baseline_equals_parallel_trainer() {
    // With one rank the weight average is the identity and the baseline's
    // fixed pair order is the unshuffled epoch order, so the Viviani
    // baseline must train exactly the network the scheme's P = 1 run
    // trains — whatever the prediction mode and clipping.
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let mut differing = Vec::new();
    for prediction in [PredictionMode::Absolute, PredictionMode::Residual] {
        for grad_clip in [None, Some(1e-3)] {
            let cfg = TrainConfig {
                shuffle: false,
                prediction,
                grad_clip,
                ..TrainConfig::quick_test()
            };
            let par = ParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg.clone())
                .train_view(&data, 6, 1)
                .expect("parallel");
            let base = DataParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg)
                .train(&data, 6, 1)
                .expect("baseline");
            let rank = &par.rank_results[0];
            if !same_bits(&base.weights, &rank.weights)
                || !same_bits(&base.epoch_losses, &rank.epoch_losses)
                || base.norm != par.norm
            {
                differing.push(format!("{prediction:?} with clip {grad_clip:?}"));
            }
        }
    }
    assert!(
        differing.is_empty(),
        "the one-rank baseline trains a different network for: {differing:?}"
    );
}

/// FNV-1a over the bits of the weights, then the epoch losses.
fn digest(weights: &[f64], losses: &[f64]) -> u64 {
    weights
        .iter()
        .chain(losses)
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn baseline_weights_and_losses_are_pinned() {
    // Experiment X2's baseline, to the bit: 9 pairs in batches of 2 leave
    // ragged tails at both rank counts (rank 0 has one batch more than
    // the last rank), so the rounds where a rank only joins the average
    // are pinned too.
    let data = paper_dataset(16, 10);
    let cfg = TrainConfig {
        batch_size: 2,
        ..TrainConfig::quick_test()
    };
    let trainer = DataParallelTrainer::new(ArchSpec::tiny(), PaddingStrategy::ZeroPad, cfg);
    let got: Vec<(usize, u64)> = [2, 4]
        .into_iter()
        .map(|ranks| {
            let out = trainer.train(&data, 9, ranks).expect("baseline");
            (ranks, digest(&out.weights, &out.epoch_losses))
        })
        .collect();
    assert_eq!(
        got,
        [(2, 0x12b4_9b0a_9e6d_5018), (4, 0x8071_ca22_f552_27f6)],
        "(ranks, digest) pairs"
    );
}

#[test]
fn deconv_fleet_is_pinned() {
    // The Deconv strategy at the shape of its pipeline test: 32², four
    // ranks, shuffled batches of 8 over 20 pairs (the last batch ragged).
    // The transpose layer's training passes are in every rank's weights and
    // losses, its widened serving stage in each state of the cold rollout.
    let data = paper_dataset(32, 30);
    let n_train = 20;
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        ..TrainConfig::paper_residual()
    };
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::Deconv, cfg)
        .train_view(&data, n_train, 4)
        .expect("training");
    let ranks: Vec<u64> = outcome
        .rank_results
        .iter()
        .map(|r| digest(&r.weights, &r.epoch_losses))
        .collect();
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::Deconv, &outcome);
    let rollout = inf.rollout(data.snapshot(n_train), 3).expect("rollout");
    let states: Vec<f64> = rollout
        .states
        .iter()
        .flat_map(|s| s.as_slice().iter().copied())
        .collect();
    assert_eq!(
        (ranks, digest(&states, &[])),
        (
            vec![
                0x3980_3a69_080d_2387,
                0xb15b_41b1_a633_199a,
                0x39dd_5905_51a4_f429,
                0xf59c_ec77_5e23_2a96
            ],
            0xf886_7738_0fb2_03ca
        ),
        "(per-rank weight + loss digests, rollout digest)"
    );
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

/// The partitions the decomposition-invariance tests serve on: uneven ones
/// by hand (18 columns over 4 ranks are 5/5/4/4, over 5 ranks 4/4/4/3/3),
/// plus four drawn from a fixed xorshift stream. Every block is at least
/// the tiny network's halo (2 cells) wide, so each strip a rank sends is
/// its own values.
fn partitions_of_18() -> Vec<(usize, usize)> {
    let mut picked = vec![(1, 2), (3, 1), (1, 4), (2, 5), (3, 3)];
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    while picked.len() < 9 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let layout = (1 + (s % 4) as usize, 1 + (s / 4 % 6) as usize);
        if layout != (1, 1) && layout.0 * layout.1 <= 12 && !picked.contains(&layout) {
            picked.push(layout);
        }
    }
    picked
}

/// A P = 1 outcome's one weight set, served on a `py × px` partition: every
/// rank gets the same network.
fn served_on(
    outcome: &TrainOutcome,
    arch: &ArchSpec,
    (py, px): (usize, usize),
) -> ParallelInference {
    let part = outcome.partition;
    ParallelInference::with_window(
        arch.clone(),
        PaddingStrategy::NeighborPad,
        pde_domain::GridPartition::new(part.global_h(), part.global_w(), py, px),
        vec![outcome.rank_results[0].weights.clone(); py * px],
        outcome.norm.clone(),
        outcome.prediction,
        outcome.window,
    )
}

/// Decomposition invariance (ROADMAP 4(a)): one weight set served on any
/// partition — uneven ones included — equals the P = 1 reference bit for
/// bit, on the cold path and the warm engine, over channels and over TCP.
/// A kernel that sums differently at a block edge (an edge-lane tile, a
/// remainder path) would put a different value at the seams and fail here.
#[test]
fn one_weight_set_serves_every_partition_bitwise() {
    use pde_commsim::TransportKind::Tcp;
    let data = paper_dataset(18, 10);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::NeighborPad,
        TrainConfig::quick_test(),
    )
    .train(&data, 1)
    .expect("one-rank training");
    let initial = data.snapshot(4).clone();
    let reference = served_on(&outcome, &arch, (1, 1)).reference_rollout(&initial, 3);
    for layout in partitions_of_18() {
        let inf = served_on(&outcome, &arch, layout);
        let ranks = layout.0 * layout.1;
        let what = |path: &str| format!("{layout:?} {path}");
        let cold = inf.rollout(&initial, 3).unwrap();
        assert_bits_eq(&cold.states, &reference, &what("cold"));
        let cold_tcp = inf
            .clone()
            .with_transport(Tcp)
            .rollout(&initial, 3)
            .unwrap();
        assert_bits_eq(&cold_tcp.states, &reference, &what("cold over TCP"));
        for config in [
            EngineConfig::new(ranks),
            EngineConfig::new(ranks).with_transport(Tcp),
        ] {
            let transport = config.transport;
            let mut engine = InferEngine::with_config(config);
            engine.register("m", inf.clone()).unwrap();
            let warm = engine.rollout("m", &initial, 3).unwrap();
            assert_bits_eq(
                &warm.states,
                &reference,
                &what(&format!("warm, {transport:?}")),
            );
        }
    }
}

/// Decomposition invariance for a window-2 model: both history slots are
/// exchanged and assembled per step, and the result is still the P = 1
/// reference's, cold and warm.
#[test]
fn one_window_two_weight_set_serves_every_partition_bitwise() {
    let data = paper_dataset(18, 12);
    let mut arch = ArchSpec::tiny();
    arch.channels[0] = 8; // 2 snapshots × 4 fields
    let cfg = TrainConfig {
        window: 2,
        ..TrainConfig::quick_test()
    };
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 1)
        .expect("one-rank windowed training");
    let history = [data.snapshot(5).clone(), data.snapshot(6).clone()];
    let reference = served_on(&outcome, &arch, (1, 1)).reference_rollout_from_history(&history, 3);
    for layout in [(1, 3), (2, 2), (3, 5)] {
        let inf = served_on(&outcome, &arch, layout);
        let cold = inf.rollout_from_history(&history, 3).unwrap();
        assert_bits_eq(&cold.states, &reference, &format!("{layout:?} cold"));
        let mut engine = InferEngine::new(layout.0 * layout.1);
        engine.register("w2", inf).unwrap();
        let warm = engine.rollout_from_history("w2", &history, 3).unwrap();
        assert_bits_eq(&warm.states, &reference, &format!("{layout:?} warm"));
    }
}
