//! End-to-end integration: solver → decomposition → parallel training →
//! parallel inference, at test scale.

use pde_euler::dataset::paper_dataset;
use pde_ml_core::metrics::{field_errors, mean_rmse};
use pde_ml_core::prelude::*;

fn train_pipeline(
    grid: usize,
    snapshots: usize,
    epochs: usize,
    ranks: usize,
    strategy: PaddingStrategy,
) -> (pde_euler::DataSet, usize, TrainOutcome) {
    let data = paper_dataset(grid, snapshots);
    let n_train = snapshots * 2 / 3;
    let arch = ArchSpec::tiny();
    let mut cfg = TrainConfig::paper_residual();
    cfg.epochs = epochs;
    cfg.batch_size = 8;
    let outcome = ParallelTrainer::new(arch, strategy, cfg)
        .train_view(&data, n_train, ranks)
        .expect("training");
    (data, n_train, outcome)
}

#[test]
fn full_pipeline_neighbor_pad() {
    let (data, n_train, outcome) = train_pipeline(32, 45, 60, 4, PaddingStrategy::NeighborPad);

    // Training was communication-free.
    assert_eq!(outcome.total_bytes_sent(), 0);
    // Loss decreased on every rank.
    for r in &outcome.rank_results {
        assert!(
            r.epoch_losses.last().unwrap() < &r.epoch_losses[0],
            "rank {} did not learn: {:?}",
            r.rank,
            r.epoch_losses
        );
    }

    // Single-step prediction on a validation pair: strong correlation and
    // bounded error on the pressure field, and within an order of magnitude
    // of the persistence floor. (Outright beating persistence at one
    // CFL-limited step needs paper-scale training budgets; EXPERIMENTS.md
    // reports both regimes.)
    let inf =
        ParallelInference::from_outcome(ArchSpec::tiny(), PaddingStrategy::NeighborPad, &outcome);
    let (x, y) = data.view(n_train, data.pair_count() - n_train).pair(0);
    let pred = inf.rollout(x, 1).unwrap();
    let model = field_errors(&pred.states[1], y, 1e-3);
    let persistence = field_errors(x, y, 1e-3);
    assert!(
        model[0].rmse < 5.0 * persistence[0].rmse,
        "pressure: model ({:.3e}) should be within 5x of persistence ({:.3e})",
        model[0].rmse,
        persistence[0].rmse
    );
    let _ = mean_rmse(x, y);

    // Per-field errors are finite and correlation is positive for the
    // pressure field (the pulse carrier).
    let errs = field_errors(&pred.states[1], y, 1e-3);
    assert_eq!(errs.len(), 4);
    assert!(errs
        .iter()
        .all(|e| e.rmse.is_finite() && e.mape.is_finite()));
    assert!(
        errs[0].pearson > 0.9,
        "pressure correlation too low: {}",
        errs[0].pearson
    );
}

#[test]
fn full_pipeline_zero_pad_is_fully_communication_free() {
    let (data, n_train, outcome) = train_pipeline(32, 30, 10, 4, PaddingStrategy::ZeroPad);
    assert_eq!(outcome.total_bytes_sent(), 0);
    let inf = ParallelInference::from_outcome(ArchSpec::tiny(), PaddingStrategy::ZeroPad, &outcome);
    let (x, _) = data.view(n_train, data.pair_count() - n_train).pair(0);
    let r = inf.rollout(x, 5).unwrap();
    // Zero-pad needs no halo exchange at inference either.
    assert_eq!(r.total_bytes(), 0);
    assert_eq!(r.states.len(), 6);
}

#[test]
fn inner_crop_trains_but_cannot_roll_out() {
    let (_, _, outcome) = train_pipeline(32, 30, 5, 4, PaddingStrategy::InnerCrop);
    assert_eq!(outcome.total_bytes_sent(), 0);
    assert!(outcome
        .rank_results
        .iter()
        .all(|r| r.epoch_losses.iter().all(|l| l.is_finite())));
    // Rollout construction must refuse (§III: inner data points limit
    // usability as simulation substitute).
    let caught = std::panic::catch_unwind(|| {
        ParallelInference::from_outcome(ArchSpec::tiny(), PaddingStrategy::InnerCrop, &outcome)
    });
    assert!(caught.is_err());
}

#[test]
fn rank_counts_from_1_to_16_all_work() {
    let data = paper_dataset(32, 12);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    for ranks in [1usize, 2, 4, 8, 16] {
        let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg.clone())
            .train(&data, ranks)
            .unwrap_or_else(|e| panic!("P={ranks}: {e}"));
        assert_eq!(outcome.rank_results.len(), ranks);
        assert_eq!(outcome.total_bytes_sent(), 0);
        // Per-rank shard sizes shrink with P (strong scaling's work side).
        let block = outcome.partition.block_of_rank(0);
        assert_eq!(block.area(), 32 * 32 / ranks);
    }
}

#[test]
fn trained_networks_are_subdomain_specific() {
    // Different subdomains see different dynamics → different weights.
    let (_, _, outcome) = train_pipeline(32, 20, 5, 4, PaddingStrategy::NeighborPad);
    let w0 = &outcome.rank_results[0].weights;
    let w3 = &outcome.rank_results[3].weights;
    assert_ne!(w0, w3, "distinct subdomain networks should diverge");
}

#[test]
fn deconv_strategy_trains_and_rolls_out_comm_free() {
    // The paper's §III "approach 4" — de-convolution — implemented: valid
    // convs shrink, a learned transpose conv restores the extent, so both
    // training and rollout stay fully communication-free.
    let (data, n_train, outcome) = train_pipeline(32, 30, 10, 4, PaddingStrategy::Deconv);
    assert_eq!(outcome.total_bytes_sent(), 0);
    for r in &outcome.rank_results {
        assert!(
            r.epoch_losses.last().unwrap() < &r.epoch_losses[0],
            "rank {} did not learn under deconv: {:?}",
            r.rank,
            r.epoch_losses
        );
    }
    let inf = ParallelInference::from_outcome(ArchSpec::tiny(), PaddingStrategy::Deconv, &outcome);
    let (x, y) = data.view(n_train, data.pair_count() - n_train).pair(0);
    let r = inf.rollout(x, 3).unwrap();
    assert_eq!(
        r.total_bytes(),
        0,
        "deconv inference needs no halo exchange"
    );
    assert_eq!(r.states.len(), 4);
    let errs = field_errors(&r.states[1], y, 1e-3);
    assert!(errs.iter().all(|e| e.rmse.is_finite()));
    // The up-sampling layer's weights are part of the snapshot.
    assert_eq!(
        outcome.rank_results[0].weights.len(),
        ArchSpec::tiny().param_count_for(PaddingStrategy::Deconv)
    );
}

#[test]
fn gradient_clipping_keeps_training_stable_at_high_rate() {
    // grad_clip lets an otherwise-divergent configuration (large LR on the
    // spiky MAPE landscape) stay finite — and the clipped run must actually
    // clip (different trajectory from the unclipped one).
    let data = paper_dataset(16, 10);
    let arch = ArchSpec::tiny();
    let run = |clip: Option<f64>| {
        let mut cfg = TrainConfig::quick_test();
        cfg.epochs = 6;
        cfg.lr = 0.05;
        cfg.grad_clip = clip;
        ParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg)
            .train(&data, 1)
            .expect("training")
    };
    let clipped = run(Some(1.0));
    let unclipped = run(None);
    assert!(
        clipped.rank_results[0]
            .epoch_losses
            .iter()
            .all(|l| l.is_finite()),
        "clipped run diverged: {:?}",
        clipped.rank_results[0].epoch_losses
    );
    assert_ne!(
        clipped.rank_results[0].weights, unclipped.rank_results[0].weights,
        "clip threshold was never hit — the test exercises nothing"
    );
}

#[test]
fn trace_and_runtime_byte_accounting_agree_per_rank() {
    // The byte and message counts reconstructed purely from `send` events
    // in the trace (`Trace::summarize`) must equal the runtime's own
    // `CommStats` ledger (`TrainOutcome`, `TrafficReport`) — rank by rank,
    // not just in aggregate. A lossless capture is a precondition (dropped
    // events would silently undercount).
    use pde_trace::Category;
    let data = paper_dataset(16, 8);
    let arch = ArchSpec::tiny();

    // Training: both sides must agree on exactly zero.
    let handle = pde_trace::begin();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::NeighborPad,
        TrainConfig::quick_test(),
    )
    .train_view(&data, 6, 4)
    .expect("training");
    let trace = handle.finish();
    assert_eq!(trace.total_dropped(), 0, "training trace lost events");
    let rows = trace.summarize();
    for r in &outcome.rank_results {
        let m = rows
            .iter()
            .find(|m| m.rank == r.rank as u32)
            .expect("a metrics row per rank");
        assert_eq!(
            m.traced_bytes_sent, r.bytes_sent,
            "rank {}: trace vs TrainOutcome bytes during training",
            r.rank
        );
        assert_eq!(
            m.traced_sends, r.msgs_sent,
            "rank {}: trace vs TrainOutcome message count during training",
            r.rank
        );
        assert_eq!(m.traced_bytes_sent, 0, "training must stay silent");
        assert!(
            m.busy_us[Category::Train.index()] > 0,
            "rank {}: no train spans",
            r.rank
        );
    }
    assert_eq!(outcome.total_bytes_sent(), 0);

    // Rollout: non-trivial traffic, still equal per rank and in total.
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let handle = pde_trace::begin();
    let rollout = inf.rollout(data.snapshot(6), 3).unwrap();
    let trace = handle.finish();
    assert_eq!(trace.total_dropped(), 0, "rollout trace lost events");
    let rows = trace.summarize();
    let mut traced_total = 0u64;
    for (rank, t) in rollout.traffic.iter().enumerate() {
        assert!(t.bytes_sent > 0, "rank {rank} should exchange halos");
        let m = rows
            .iter()
            .find(|m| m.rank == rank as u32)
            .expect("a metrics row per rank");
        assert_eq!(
            m.traced_bytes_sent, t.bytes_sent,
            "rank {rank}: trace vs TrafficReport bytes during rollout"
        );
        assert_eq!(
            m.traced_sends, t.msgs_sent,
            "rank {rank}: trace vs TrafficReport message count"
        );
        assert!(
            m.busy_us[Category::Infer.index()] > 0,
            "rank {rank}: no infer spans"
        );
        traced_total += m.traced_bytes_sent;
    }
    assert_eq!(traced_total, rollout.total_bytes());
}

#[test]
fn windowed_training_uses_history() {
    // A window-2 model must differ from a window-1 model on the same data
    // (the extra channels are real inputs, not ignored), and it must train.
    let data = paper_dataset(32, 16);
    let mut arch2 = ArchSpec::tiny();
    arch2.channels[0] = 8;
    let mut cfg = TrainConfig::paper_residual();
    cfg.epochs = 5;
    cfg.batch_size = 4;
    cfg.window = 2;
    let out = ParallelTrainer::new(arch2.clone(), PaddingStrategy::NeighborPad, cfg)
        .train(&data, 4)
        .expect("windowed training");
    for r in &out.rank_results {
        assert!(r.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(
            r.epoch_losses.last().unwrap() < &r.epoch_losses[0],
            "rank {} did not learn with window 2: {:?}",
            r.rank,
            r.epoch_losses
        );
    }
    // Window mismatch must be a clean error, not a shape panic in a thread.
    let mut bad_cfg = TrainConfig::quick_test();
    bad_cfg.window = 2;
    let err = ParallelTrainer::new(ArchSpec::tiny(), PaddingStrategy::ZeroPad, bad_cfg)
        .train(&data, 4)
        .unwrap_err();
    assert!(format!("{err}").contains("channels"), "got: {err}");
}
