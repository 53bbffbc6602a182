//! Experiment X1 — ablation of the §III padding strategies.
//!
//! The paper lists four ways to reconcile the conv stack's spatial shrink
//! with the target size and adopts zero padding and neighbor-data padding;
//! it argues inner-crop "would limit the usability of the output data".
//! This harness trains the same architecture under all four strategies
//! (de-convolution included) at a fixed budget and reports validation error
//! — quantifying the trade-off the paper only discusses qualitatively. A
//! strategy the grid's blocks cannot host is reported as skipped.
//!
//! Environment overrides: `GRID`, `SNAPSHOTS`, `EPOCHS`, `RANKS`.
//!
//! Run with: `cargo run --release --example padding_ablation`
//! Writes `padding_ablation.csv` to the results dir (`$PDEML_RESULTS_DIR`,
//! default `results/`).

use pde_euler::dataset::paper_dataset;
use pde_ml_core::data::{extract_input, extract_target};
use pde_ml_core::metrics::field_errors;
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
    let snapshots = env_usize("SNAPSHOTS", 90);
    let epochs = env_usize("EPOCHS", 15);
    let ranks = env_usize("RANKS", 4);
    let train_pairs = snapshots * 2 / 3;

    println!(
        "padding-strategy ablation: {grid}x{grid}, {snapshots} snapshots, \
         {train_pairs} training pairs, {epochs} epochs, {ranks} ranks\n"
    );
    let data = paper_dataset(grid, snapshots);
    let (_, val) = data.chronological_split(train_pairs);
    let arch = ArchSpec::paper();
    let mut config = TrainConfig::paper();
    config.epochs = epochs;

    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>14}",
        "strategy", "train MAPE%", "val MAPE%", "val RMSE", "train time[s]"
    );
    let mut csv = Csv::new(&[
        "strategy",
        "train_mape",
        "val_mape",
        "val_rmse",
        "train_seconds",
    ]);

    for strategy in PaddingStrategy::ALL {
        let trainer = ParallelTrainer::new(arch.clone(), strategy, config.clone());
        let outcome = match trainer.train_view(&data, train_pairs, ranks) {
            Ok(o) => o,
            Err(e) => {
                println!("{:<14} skipped: {e}", strategy.label());
                continue;
            }
        };

        // Validation: mean single-step error across all validation pairs,
        // computed per rank on exactly the geometry the strategy trains
        // (so inner-crop is scored on its inner region — its best case).
        let part = outcome.partition;
        let halo = strategy.input_halo(arch.halo());
        let crop = strategy.target_crop(arch.halo());
        let mode = strategy.boundary_pad_mode();
        let mut nets: Vec<_> = outcome
            .rank_results
            .iter()
            .map(|r| {
                let mut n = arch.build_for(strategy, 0);
                restore(&mut n, &r.weights);
                n
            })
            .collect();

        let norm = &outcome.norm;
        let mut mape_sum = 0.0;
        let mut rmse_sum = 0.0;
        let mut count = 0usize;
        for k in 0..val.len() {
            let (x_global, y_global) = val.pair(k);
            for (r, net) in nets.iter_mut().enumerate() {
                let block = part.block_of_rank(r);
                let input = norm.normalize3(&extract_input(x_global, &block, halo, mode));
                let target = extract_target(y_global, &block, crop);
                let pred = norm.denormalize3(
                    &net.forward(&Tensor4::from_sample(&input), false)
                        .sample_tensor(0),
                );
                let errs = field_errors(&pred, &target, 1e-3);
                mape_sum += errs.iter().map(|e| e.mape).sum::<f64>() / errs.len() as f64;
                rmse_sum += errs.iter().map(|e| e.rmse).sum::<f64>() / errs.len() as f64;
                count += 1;
            }
        }
        let val_mape = mape_sum / count as f64;
        let val_rmse = rmse_sum / count as f64;
        let train_mape = outcome.mean_final_loss();
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.3e} {:>14.2}",
            strategy.label(),
            train_mape,
            val_mape,
            val_rmse,
            outcome.wall_seconds
        );
        csv.row(&[
            strategy.label().to_string(),
            format!("{train_mape:.4}"),
            format!("{val_mape:.4}"),
            format!("{val_rmse:.6e}"),
            format!("{:.3}", outcome.wall_seconds),
        ]);
    }

    let out = results_path("padding_ablation.csv").expect("results dir");
    csv.write_to(&out).expect("write CSV");
    println!("\nwrote {}", out.display());
}
