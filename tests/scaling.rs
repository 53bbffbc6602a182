//! Integration of the measured trainer with the performance model: the
//! Fig.-4 pipeline end to end at test scale.

use pde_euler::dataset::paper_dataset;
use pde_ml_core::prelude::*;
use pde_perfmodel::{strong_scaling, weak_scaling, CostModel, NetworkModel};
use std::sync::{Mutex, MutexGuard};

/// Held by each test here that times real training runs, so the two never
/// train on the host's cores at the same time: each would otherwise time
/// the other's work as its own.
static TIMED_RUNS: Mutex<()> = Mutex::new(());

fn timed_runs() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its timing section is over anyway.
    TIMED_RUNS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Calibrates the cost model from real sequential runs and checks the
/// measured-parallel wall time against the model's oversubscribed
/// prediction — the honest core of the scaling reproduction.
#[test]
fn calibrated_model_predicts_real_runs() {
    let _timing = timed_runs();
    let arch = ArchSpec::tiny();
    let mut cfg = TrainConfig::quick_test();
    cfg.epochs = 4;
    let epochs = cfg.epochs;

    // Measure at three subdomain sizes. Each point is the fastest of fifteen
    // runs: the shared host only ever adds time, and a single inflated
    // point lands in the fitted overhead term, which the efficiency
    // assertions below then read as a scaling cliff. The sizes take turns
    // round by round, so a host that changes speed mid-test slows every
    // size alike instead of tilting the fit.
    let sides = [16usize, 24, 32];
    let datasets: Vec<_> = sides.iter().map(|&side| paper_dataset(side, 10)).collect();
    let mut fastest = [f64::INFINITY; 3];
    for _ in 0..15 {
        for (best, data) in fastest.iter_mut().zip(&datasets) {
            let seconds =
                SequentialTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg.clone())
                    .train(data, 8)
                    .expect("calibration")
                    .seconds;
            *best = best.min(seconds);
        }
    }
    let samples: Vec<(f64, f64)> = sides
        .iter()
        .zip(fastest)
        .map(|(&side, seconds)| ((side * side) as f64, seconds / epochs as f64))
        .collect();
    let cost = CostModel::calibrate(&samples);
    assert!(cost.rate_s_per_cell > 0.0);

    // Cost must be ~linear: the 32² point should sit near the line through
    // the fit (within 60% — debug-profile timing noise on 1 core is real).
    let predicted = cost.epoch_seconds(32 * 32);
    let measured = samples[2].1;
    assert!(
        (predicted - measured).abs() < 0.6 * measured.max(1e-4),
        "cost model off: predicted {predicted:.4}, measured {measured:.4}"
    );

    // The projected strong-scaling curve with enough cores is near-ideal.
    // (The calibration runs on a busy single-core box; timing noise leaks
    // into the fitted overhead term, so allow a generous margin — the
    // shape statement is "no efficiency cliff", not a 1%-exact fit.)
    //
    // Projected at 128²: with the packed GEMM kernels an epoch over a 64-cell
    // subdomain (64² over P=64) is faster than the fixed per-epoch overhead
    // (shuffle + per-batch bookkeeping), so the smaller grid probes the
    // overhead term, not the scaling shape. 128² keeps per-rank work
    // dominant at P=64 — the regime the paper's scaling study measures.
    let pts = strong_scaling(&cost, 128 * 128, epochs, &[1, 4, 16, 64], 64);
    for p in &pts {
        assert!(
            p.efficiency > 0.6,
            "P={}: efficiency {}",
            p.ranks,
            p.efficiency
        );
    }
    // And monotone decreasing in wall time.
    for w in pts.windows(2) {
        assert!(w[1].seconds < w[0].seconds);
    }

    // Weak scaling is flat with enough cores.
    let weak = weak_scaling(&cost, 16 * 16, epochs, &[1, 8, 64], 64);
    assert!((weak[2].seconds - weak[0].seconds).abs() < 1e-9);
}

/// A real parallel training run never beats the model's single-core bound:
/// P ranks of work w each cannot finish faster than the critical path.
#[test]
fn real_runs_respect_work_conservation() {
    let _timing = timed_runs();
    // Big enough that training, not spawning four rank threads, is what a
    // run costs; each side is the fastest of five runs, alternated, because
    // the shared host only ever adds time.
    let data = paper_dataset(64, 10);
    let arch = ArchSpec::tiny();
    let cfg = TrainConfig::quick_test();
    let wall = |ranks: usize| {
        ParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg.clone())
            .train(&data, ranks)
            .expect("training run")
            .wall_seconds
    };
    let (mut t1, mut t4) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        t1 = t1.min(wall(1));
        t4 = t4.min(wall(4));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores == 1 {
        // On one core the total work is conserved: T(4) cannot be much
        // smaller than T(1) (it can be somewhat smaller because smaller
        // subdomains have better cache behaviour; 3× is a generous floor).
        assert!(
            t4 > t1 / 3.0,
            "1-core work conservation violated: T(1)={t1:.3}s, T(4)={t4:.3}s"
        );
    } else {
        // With real parallel hardware T(4) must improve on T(1).
        assert!(
            t4 < t1,
            "no speedup on {cores}-core host: T(1)={t1:.3}s T(4)={t4:.3}s"
        );
    }
}

/// The communication models order the schemes correctly at any scale.
#[test]
fn model_orders_scheme_above_baseline() {
    let cost = CostModel::new(0.0, 1e-6);
    let slow = NetworkModel::new(1e-4, 1e-8);
    let scheme = strong_scaling(&cost, 65536, 10, &[4, 16, 64], 64);
    let baseline = pde_perfmodel::strong_scaling_baseline(
        &cost,
        &slow,
        65536,
        10,
        6032 * 8,
        |_| 8,
        &[4, 16, 64],
        64,
    );
    for (s, b) in scheme.iter().zip(&baseline) {
        assert!(
            s.efficiency > b.efficiency,
            "P={}: scheme {} vs baseline {}",
            s.ranks,
            s.efficiency,
            b.efficiency
        );
    }
}
