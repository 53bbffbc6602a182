//! Experiment F4 — reproduces **Fig. 4** of the paper: strong scalability
//! of the parallel training scheme up to 64 CPU cores.
//!
//! The paper measures wall time on a real 64-core machine. This harness
//! does the honest equivalent on whatever machine it runs on:
//!
//! 1. **Measure** the real per-rank training cost at several subdomain
//!    sizes (running the actual trainer), and fit the linear
//!    [`CostModel`] — the scheme is communication-free, so per-rank cost
//!    is the whole story.
//! 2. **Project** the strong-scaling curve `T(P)`, `P ∈ {1,4,16,64}`, for a
//!    64-core machine with the calibrated model (and, for contrast, for the
//!    core count of the current host).
//! 3. **Cross-check**: run the real multi-threaded trainer at small P and
//!    compare against the model's oversubscribed prediction.
//!
//! Environment overrides: `GRID` (default 128), `EPOCHS` (default 3),
//! `SNAPSHOTS` (default 12).
//!
//! Run with: `cargo run --release --example fig4_scaling`
//! Writes `fig4_scaling.csv` to the results dir (`$PDEML_RESULTS_DIR`,
//! default `results/`).

use pde_euler::dataset::paper_dataset;
use pde_ml_core::prelude::*;
use pde_ml_core::report::{results_path, Csv};
use pde_perfmodel::scaling::format_scaling_table;
use pde_perfmodel::{
    strong_scaling, strong_scaling_baseline, weak_scaling, CostModel, NetworkModel,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let grid = env_usize("GRID", 128);
    let epochs = env_usize("EPOCHS", 3);
    let snapshots = env_usize("SNAPSHOTS", 12);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Fig. 4 reproduction: {grid}x{grid} global grid, {epochs} epochs, \
         host has {host_cores} core(s)\n"
    );

    let arch = ArchSpec::paper();
    let mut config = TrainConfig::paper();
    config.epochs = epochs;
    let strategy = PaddingStrategy::ZeroPad; // identical per-layer geometry at every P

    // ---------------------------------------------------------------
    // 1. Calibrate: measure the real trainer at several subdomain sizes.
    //    (P ranks on a grid of side g ⇒ subdomain of g/√P; measuring one
    //    rank sequentially removes any time-sharing distortion.)
    // ---------------------------------------------------------------
    println!("calibrating per-rank cost (sequential single-rank runs):");
    // One rank on one kernel thread: the per-core cost the model scales.
    let trainer = ParallelTrainer::new(
        arch.clone(),
        strategy,
        TrainConfig {
            threads_per_rank: Some(1),
            ..config.clone()
        },
    );
    let mut samples = Vec::new();
    for &side in &[grid / 8, grid / 4, grid / 2] {
        let data = paper_dataset(side, snapshots);
        let secs = trainer
            .train_view(&data, snapshots - 2, 1)
            .expect("calibration run")
            .wall_seconds;
        let cells = side * side;
        let per_epoch = secs / epochs as f64;
        println!("  {side:>4}x{side:<4} ({cells:>6} cells): {per_epoch:.4} s/epoch");
        samples.push((cells as f64, per_epoch));
    }
    let cost = CostModel::calibrate(&samples);
    println!(
        "fitted: {:.3e} s/cell/epoch + {:.3e} s/epoch overhead\n",
        cost.rate_s_per_cell, cost.overhead_s
    );

    // ---------------------------------------------------------------
    // 2. Project the Fig.-4 curve on a 64-core machine.
    // ---------------------------------------------------------------
    let cells = grid * grid;
    let ranks = [1usize, 2, 4, 8, 16, 32, 64];
    let curve64 = strong_scaling(&cost, cells, epochs, &ranks, 64);
    println!("projected strong scaling, 64-core machine (the paper's Fig. 4):");
    print!("{}", format_scaling_table(&curve64));

    // Baseline contrast: allreduce-averaging data parallelism on the same
    // machine and network.
    let net = NetworkModel::cluster_default();
    let weight_bytes = arch.param_count() * 8;
    let batches = |p: usize| {
        (snapshots - 2)
            .div_ceil(p)
            .div_ceil(config.batch_size)
            .max(1)
    };
    let base64 = strong_scaling_baseline(
        &cost,
        &net,
        cells,
        epochs,
        weight_bytes,
        batches,
        &ranks,
        64,
    );
    println!("\nallreduce baseline on the same machine (fast 10 GB/s fabric):");
    print!("{}", format_scaling_table(&base64));
    // With the paper's tiny 6k-parameter model a modern fabric makes the
    // allreduce almost free; the §I bottleneck argument bites on slower
    // interconnects (or bigger models), so show that series too.
    let slow_net = NetworkModel::new(50e-6, 8e-9); // 50 µs, ~1 Gb/s
    let base_slow = strong_scaling_baseline(
        &cost,
        &slow_net,
        cells,
        epochs,
        weight_bytes,
        batches,
        &ranks,
        64,
    );
    println!("\nallreduce baseline, commodity 1 Gb/s network:");
    print!("{}", format_scaling_table(&base_slow));

    // Weak scaling (extension): constant per-rank subdomain, growing domain.
    let cells_per_rank = (grid / 8) * (grid / 8);
    let weak = weak_scaling(&cost, cells_per_rank, epochs, &ranks, 64);
    println!("\nweak scaling (constant {cells_per_rank} cells/rank), 64-core machine:");
    print!("{}", format_scaling_table(&weak));

    // ---------------------------------------------------------------
    // 3. Cross-check the model against the real threaded trainer.
    // ---------------------------------------------------------------
    println!("\ncross-check: real threaded runs on this host ({host_cores} core(s)):");
    println!("{:>6} {:>14} {:>14}", "ranks", "measured[s]", "modelled[s]");
    let mut csv = Csv::new(&["series", "ranks", "seconds", "speedup", "efficiency"]);
    for p in &curve64 {
        csv.row(&[
            "scheme_64core_model".into(),
            p.ranks.to_string(),
            format!("{:.6}", p.seconds),
            format!("{:.3}", p.speedup),
            format!("{:.4}", p.efficiency),
        ]);
    }
    for p in &weak {
        csv.row(&[
            "scheme_weak_64core_model".into(),
            p.ranks.to_string(),
            format!("{:.6}", p.seconds),
            format!("{:.3}", p.speedup),
            format!("{:.4}", p.efficiency),
        ]);
    }
    for p in &base64 {
        csv.row(&[
            "baseline_64core_model".into(),
            p.ranks.to_string(),
            format!("{:.6}", p.seconds),
            format!("{:.3}", p.speedup),
            format!("{:.4}", p.efficiency),
        ]);
    }
    for p in &base_slow {
        csv.row(&[
            "baseline_slownet_model".into(),
            p.ranks.to_string(),
            format!("{:.6}", p.seconds),
            format!("{:.3}", p.speedup),
            format!("{:.4}", p.efficiency),
        ]);
    }

    let data = paper_dataset(grid, snapshots);
    let model_host = strong_scaling(&cost, cells, epochs, &[1, 2, 4], host_cores);
    for (i, &p) in [1usize, 2, 4].iter().enumerate() {
        let trainer = ParallelTrainer::new(arch.clone(), strategy, config.clone());
        let outcome = trainer
            .train_view(&data, snapshots - 2, p)
            .expect("threaded run");
        let measured = outcome.wall_seconds;
        let modelled = model_host[i].seconds;
        println!("{p:>6} {measured:>14.3} {modelled:>14.3}");
        csv.row(&[
            "measured_host".into(),
            p.to_string(),
            format!("{measured:.6}"),
            String::new(),
            String::new(),
        ]);
    }

    let out = results_path("fig4_scaling.csv").expect("results dir");
    csv.write_to(&out).expect("write CSV");
    println!("\nwrote {}", out.display());
}
