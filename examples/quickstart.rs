//! Quickstart: the whole pipeline in ~60 lines.
//!
//! 1. Solve the linearized Euler equations (Gaussian pressure pulse) to
//!    generate training snapshots — the paper's §IV-A setup at a small
//!    resolution so this runs in seconds.
//! 2. Decompose the domain over 4 ranks and train one CNN per subdomain in
//!    parallel, with zero communication (we print the counters as proof).
//! 3. Run a parallel rollout with point-to-point halo exchange and compare
//!    the one-step prediction against the solver.
//!
//! Run with: `cargo run --release --example quickstart`

use pde_euler::dataset::paper_dataset;
use pde_ml_core::metrics::{field_errors, format_error_table};
use pde_ml_core::prelude::*;
use pde_ml_core::train::{LossKind, OptimizerKind, PredictionMode};

fn main() {
    // --- 1. Data generation (32×32 grid, 40 snapshots). -----------------
    let n = 32;
    let data = paper_dataset(n, 40);
    println!(
        "generated {} snapshots of a {n}x{n} linearized-Euler run",
        data.len()
    );
    let n_train = 30; // chronological split like the paper's 1000/500

    // --- 2. Parallel training: 4 ranks, one CNN each. -------------------
    let arch = ArchSpec::tiny(); // 2 conv layers; use ArchSpec::paper() on larger grids
    let config = TrainConfig {
        epochs: 40,
        batch_size: 8,
        lr: 2e-3,
        optimizer: OptimizerKind::Adam,
        loss: LossKind::Mape { floor: 1e-3 },
        shuffle: true,
        normalize: true,
        prediction: PredictionMode::Residual,
        grad_clip: None,
        window: 1,
        seed: 7,
        threads_per_rank: None,
    };
    let trainer = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, config);
    let outcome = trainer.train_view(&data, n_train, 4).expect("training");
    println!(
        "trained 4 subdomain networks in {:.2}s (mean final MAPE loss {:.2})",
        outcome.wall_seconds,
        outcome.mean_final_loss()
    );
    println!(
        "bytes communicated during training: {} (the paper's headline property)",
        outcome.total_bytes_sent()
    );

    // --- 3. Parallel inference with halo exchange. -----------------------
    let inference = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    let initial = data.snapshot(n_train).clone(); // first validation state
    let rollout = inference.rollout(&initial, 1).unwrap();
    println!(
        "1-step parallel rollout exchanged {} bytes of boundary data",
        rollout.total_bytes()
    );

    let target = data.snapshot(n_train + 1);
    let errs = field_errors(&rollout.states[1], target, 1e-3);
    println!("\nprediction vs solver, one step ahead:");
    print!("{}", format_error_table(&errs));
}
