//! Ablation claims from §II of the paper, checked statistically at test
//! scale: ADAM converges best (X3) and MAPE handles the multi-magnitude
//! fields better than MSE (X4).

use pde_euler::dataset::paper_dataset;
use pde_ml_core::data::{extract_input, extract_target, SubdomainDataset};
use pde_ml_core::metrics::field_errors;
use pde_ml_core::prelude::*;
use pde_ml_core::train::{train_network, LossKind, OptimizerKind, TrainConfig};
use pde_tensor::Tensor4;

fn fixture() -> (pde_euler::DataSet, GridPartition, ArchSpec) {
    (
        paper_dataset(32, 24),
        GridPartition::for_ranks(32, 32, 4),
        ArchSpec::tiny(),
    )
}

fn train_with(cfg: &TrainConfig, epochs: usize) -> f64 {
    let (data, part, arch) = fixture();
    let view = data.view(0, 20);
    let ds = SubdomainDataset::build(
        &view,
        &part,
        0,
        arch.halo(),
        PaddingStrategy::ZeroPad,
        &pde_ml_core::norm::ChannelNorm::fit(&view),
    );
    let mut cfg = cfg.clone();
    cfg.epochs = epochs;
    let mut net = arch.build(true, cfg.seed);
    let losses = train_network(&mut net, &ds, &cfg);
    *losses.last().unwrap()
}

#[test]
fn adam_converges_better_than_plain_sgd() {
    // §II: "we found the ADAM optimizer to have the best performance".
    // With a shared epoch budget and the rates each method tolerates,
    // ADAM's final loss must beat plain SGD's clearly.
    let mut adam = TrainConfig::paper();
    adam.optimizer = OptimizerKind::Adam;
    let mut sgd = TrainConfig::paper();
    sgd.optimizer = OptimizerKind::Sgd;
    // MAPE gradients are O(100); SGD needs a tiny rate to stay stable at
    // all — exactly the brittleness that motivates ADAM.
    sgd.lr = 1e-5;
    let adam_loss = train_with(&adam, 12);
    let sgd_loss = train_with(&sgd, 12);
    assert!(
        adam_loss < 0.7 * sgd_loss,
        "Adam ({adam_loss:.2}) should clearly beat plain SGD ({sgd_loss:.2})"
    );
}

#[test]
fn momentum_learns_stably_at_reduced_rate() {
    // Eq. (3) of the paper motivates momentum as a convergence aid. On the
    // MAPE landscape (piecewise-constant gradient magnitudes) its benefit
    // over plain SGD is configuration-dependent, so the robust check is
    // that momentum training monotonically improves over its own start and
    // stays finite at the rate it tolerates.
    let (data, part, arch) = fixture();
    let view = data.view(0, 20);
    let ds = SubdomainDataset::build(
        &view,
        &part,
        0,
        arch.halo(),
        PaddingStrategy::ZeroPad,
        &pde_ml_core::norm::ChannelNorm::fit(&view),
    );
    // Score on MSE: its smooth gradients isolate the optimizer's behaviour
    // from the MAPE kinks (the MAPE-specific difficulty is exactly what the
    // Adam-vs-SGD test above demonstrates).
    let mut cfg = TrainConfig::paper();
    cfg.optimizer = OptimizerKind::SgdMomentum(0.9);
    cfg.loss = LossKind::Mse;
    cfg.lr = 1e-4;
    cfg.epochs = 12;
    let mut net = arch.build(true, cfg.seed);
    let losses = train_network(&mut net, &ds, &cfg);
    assert!(
        losses.iter().all(|l| l.is_finite()),
        "momentum diverged: {losses:?}"
    );
    assert!(
        losses.last().unwrap() < &losses[0],
        "momentum did not learn: {losses:?}"
    );
}

#[test]
fn mape_training_balances_small_magnitude_fields_better_than_mse() {
    // §II: MSE "penalizes deviations on the larger data points much more";
    // MAPE is scale-aware. The Euler fields differ by orders of magnitude
    // (pressure O(1e-1), velocities O(1e-4) early on), so training with
    // MAPE must yield a *more balanced* per-field relative error than MSE:
    // the ratio worst-field/best-field MAPE should be smaller.
    // Deliberately *disable* channel normalization here: the paper's claim
    // is about raw multi-magnitude data, so train in raw space.
    let (data, part, arch) = fixture();
    let view = data.view(0, 20);
    let strategy = PaddingStrategy::ZeroPad;
    let ds = SubdomainDataset::build(
        &view,
        &part,
        0,
        arch.halo(),
        strategy,
        &pde_ml_core::norm::ChannelNorm::identity(4),
    );
    let (vx, vy) = data.pair(21);
    let block = part.block_of_rank(0);
    let val_in = extract_input(vx, &block, 0, strategy.boundary_pad_mode());
    let val_tgt = extract_target(vy, &block, 0);

    let eval = |loss: LossKind| -> Vec<f64> {
        let mut cfg = TrainConfig::paper();
        cfg.loss = loss;
        cfg.epochs = 15;
        let mut net = arch.build(true, cfg.seed);
        let _ = train_network(&mut net, &ds, &cfg);
        let pred = net
            .forward(&Tensor4::from_sample(&val_in), false)
            .sample_tensor(0);
        field_errors(&pred, &val_tgt, 1e-3)
            .iter()
            .map(|e| e.mape)
            .collect()
    };

    let mape_errs = eval(LossKind::Mape { floor: 1e-3 });
    let mse_errs = eval(LossKind::Mse);
    // MAPE-trained nets must achieve lower *relative* error both on the
    // worst field and on average — MSE spends its capacity on the
    // large-magnitude pressure channel and under-fits the tiny velocities.
    let mean = |e: &[f64]| e.iter().sum::<f64>() / e.len() as f64;
    let worst = |e: &[f64]| e.iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        mean(&mape_errs) < mean(&mse_errs),
        "mean relative error: MAPE-trained {mape_errs:?} vs MSE-trained {mse_errs:?}"
    );
    assert!(
        worst(&mape_errs) < worst(&mse_errs),
        "worst-field relative error: MAPE-trained {mape_errs:?} vs MSE-trained {mse_errs:?}"
    );
}

#[test]
fn all_optimizers_remain_finite_on_the_real_task() {
    for opt in [
        OptimizerKind::Adam,
        OptimizerKind::SgdMomentum(0.9),
        OptimizerKind::RmsProp,
    ] {
        let mut cfg = TrainConfig::paper();
        cfg.optimizer = opt;
        if !matches!(opt, OptimizerKind::Adam | OptimizerKind::RmsProp) {
            cfg.lr = 1e-5;
        }
        let loss = train_with(&cfg, 4);
        assert!(loss.is_finite(), "{:?} diverged", opt.label());
    }
}
