//! Experiment X2 — the paper's scheme vs. the conventional data-parallel
//! baseline (Viviani et al., PDP 2019) it argues against in §I.
//!
//! Both train the same total workload; the comparison reports
//!
//! * wall-clock time,
//! * bytes communicated (the scheme: zero during training; the baseline:
//!   O(weights) per batch through the allreduce),
//! * final training loss and single-step validation error.
//!
//! Environment overrides: `GRID`, `SNAPSHOTS`, `EPOCHS`, `RANKS`.
//!
//! Run with: `cargo run --release --example baseline_comparison`
//! Writes `baseline_comparison.csv` to the results dir
//! (`$PDEML_RESULTS_DIR`, default `results/`).

use pde_euler::dataset::paper_dataset;
use pde_ml_core::baseline::DataParallelTrainer;
use pde_ml_core::metrics::mean_rmse;
use pde_ml_core::prelude::*;
use pde_ml_core::report::{results_path, Csv};
use pde_nn::serialize::restore;
use pde_tensor::Tensor4;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let grid = env_usize("GRID", 64);
    let snapshots = env_usize("SNAPSHOTS", 60);
    let epochs = env_usize("EPOCHS", 10);
    let ranks = env_usize("RANKS", 4);
    let train_pairs = snapshots * 2 / 3;

    println!(
        "scheme-vs-baseline: {grid}x{grid}, {train_pairs} training pairs, \
         {epochs} epochs, {ranks} ranks\n"
    );
    let data = paper_dataset(grid, snapshots);
    let (_, val) = data.chronological_split(train_pairs);
    let arch = ArchSpec::paper();
    let mut config = TrainConfig::paper();
    config.epochs = epochs;
    let strategy = PaddingStrategy::ZeroPad; // both sides share this geometry

    // --- The paper's scheme: one network per subdomain. ------------------
    let scheme = ParallelTrainer::new(arch.clone(), strategy, config.clone())
        .train_view(&data, train_pairs, ranks)
        .expect("scheme training");
    let scheme_infer = ParallelInference::from_outcome(arch.clone(), strategy, &scheme);
    let scheme_val = {
        let mut err = 0.0;
        for k in 0..val.len() {
            let (x, y) = val.pair(k);
            let r = scheme_infer.rollout(x, 1).unwrap();
            err += mean_rmse(&r.states[1], y);
        }
        err / val.len() as f64
    };

    // --- The Viviani baseline: replicated full-domain network. ------------
    let baseline = DataParallelTrainer::new(arch.clone(), strategy, config.clone())
        .train(&data, train_pairs, ranks)
        .expect("baseline training");
    let baseline_val = {
        let mut net = arch.build_for(strategy, config.seed);
        restore(&mut net, &baseline.weights);
        let mut err = 0.0;
        for k in 0..val.len() {
            let (x, y) = val.pair(k);
            let input = baseline.norm.normalize3(x);
            let pred = baseline.norm.denormalize3(
                &net.forward(&Tensor4::from_sample(&input), false)
                    .sample_tensor(0),
            );
            err += mean_rmse(&pred, y);
        }
        err / val.len() as f64
    };

    println!(
        "{:<22} {:>12} {:>16} {:>14} {:>12}",
        "method", "time[s]", "train bytes", "final loss", "val RMSE"
    );
    println!(
        "{:<22} {:>12.2} {:>16} {:>14.3} {:>12.3e}",
        "subdomain scheme",
        scheme.wall_seconds,
        scheme.total_bytes_sent(),
        scheme.mean_final_loss(),
        scheme_val
    );
    println!(
        "{:<22} {:>12.2} {:>16} {:>14.3} {:>12.3e}",
        "allreduce baseline",
        baseline.wall_seconds,
        baseline.total_bytes(),
        baseline.epoch_losses.last().unwrap(),
        baseline_val
    );

    let mut csv = Csv::new(&["method", "seconds", "bytes", "final_loss", "val_rmse"]);
    csv.row(&[
        "subdomain_scheme".into(),
        format!("{:.4}", scheme.wall_seconds),
        scheme.total_bytes_sent().to_string(),
        format!("{:.5}", scheme.mean_final_loss()),
        format!("{scheme_val:.6e}"),
    ]);
    csv.row(&[
        "allreduce_baseline".into(),
        format!("{:.4}", baseline.wall_seconds),
        baseline.total_bytes().to_string(),
        format!("{:.5}", baseline.epoch_losses.last().unwrap()),
        format!("{baseline_val:.6e}"),
    ]);
    let out = results_path("baseline_comparison.csv").expect("results dir");
    csv.write_to(&out).expect("write CSV");
    println!("\nwrote {}", out.display());
}
