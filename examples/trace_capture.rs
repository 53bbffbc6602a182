//! Experiment X8 — a per-rank timeline of a degraded rollout.
//!
//! Trains a quick fleet, then rolls it out under 40% seeded message loss
//! with the `LastKnown` fallback while a trace session records every
//! span and instant on every rank thread. The capture is written in
//! Chrome trace format — open it in Perfetto (https://ui.perfetto.dev)
//! or chrome://tracing and each rank appears as its own track, with
//! `halo_recv` spans visibly stretching to the degrade timeout wherever
//! the fault plan swallowed a strip.
//!
//! Environment overrides: `GRID`, `SNAPSHOTS`, `EPOCHS`, `RANKS`,
//! `STEPS`, `LOSS_RATE` (percent), `HALO_TIMEOUT_MS`.
//!
//! Run with: `cargo run --release --example trace_capture`
//! Writes `trace_degraded_rollout.json` to the results dir
//! (`$PDEML_RESULTS_DIR`, default `results/`).

use pde_euler::dataset::paper_dataset;
use pde_ml_core::prelude::*;
use std::time::Duration;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let grid = env_usize("GRID", 32);
    let snapshots = env_usize("SNAPSHOTS", 20);
    let epochs = env_usize("EPOCHS", 6);
    let ranks = env_usize("RANKS", 4);
    let steps = env_usize("STEPS", 6);
    let loss_pct = env_usize("LOSS_RATE", 40);
    let timeout = Duration::from_millis(env_usize("HALO_TIMEOUT_MS", 5) as u64);
    let train_pairs = snapshots * 2 / 3;
    let seed = 0x71AC_u64;

    println!(
        "trace capture: {grid}x{grid}, {ranks} ranks, {steps}-step rollout \
         at {loss_pct}% halo loss (last-known fallback)\n"
    );
    let data = paper_dataset(grid, snapshots);
    let arch = ArchSpec::tiny();
    let mut cfg = TrainConfig::quick_test();
    cfg.epochs = epochs;
    let outcome = ParallelTrainer::new(arch.clone(), PaddingStrategy::NeighborPad, cfg)
        .train_view(&data, train_pairs, ranks)
        .expect("training");

    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome)
        .with_halo_policy(HaloPolicy::Degrade {
            timeout,
            fallback: HaloFallback::LastKnown,
        })
        .with_fault_plan(FaultPlan::loss_rate(loss_pct as f64 / 100.0, seed));

    let handle = pde_trace::begin();
    let rollout = inf.rollout(data.snapshot(train_pairs), steps).unwrap();
    let trace = handle.finish();

    let path =
        pde_ml_core::report::results_path("trace_degraded_rollout.json").expect("results dir");
    std::fs::write(&path, trace.chrome_json()).expect("write trace");

    println!(
        "rollout degraded: {} halos lost, {} fallbacks over {} steps",
        rollout.total_halos_lost(),
        rollout.total_fallbacks(),
        rollout.n_steps()
    );
    println!(
        "wrote {}: {} events over {} rank tracks ({} dropped)\n",
        path.display(),
        trace.events.len(),
        trace.ranks().len(),
        trace.total_dropped()
    );
    println!("{}", pde_trace::metrics::format_table(&trace.summarize()));
}
