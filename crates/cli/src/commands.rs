//! The `pdeml` subcommand implementations.

use crate::args::Args;
use crate::meta::{mode_from_str, strategy_from_str, ModelMeta};
use pde_euler::dataset::{DataSet, SnapshotRecorder};
use pde_euler::{Boundary, InitialCondition, SolverConfig};
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::metrics::{field_errors, format_error_table, rollout_error_curve};
use pde_ml_core::prelude::*;
use pde_ml_core::report::Csv;
use pde_nn::serialize::{load_params, restore, save_params, snapshot};
use pde_perfmodel::scaling::format_scaling_table;
use pde_perfmodel::{strong_scaling, weak_scaling, CostModel};
use std::path::{Path, PathBuf};

/// Finishes a `--trace` session: writes the Chrome-trace JSON (openable in
/// Perfetto / `chrome://tracing`) and prints the per-rank metrics table.
fn write_trace(trace: &pde_trace::Trace, path: &Path) -> Result<(), String> {
    std::fs::write(path, trace.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outln!(
        "trace: {} events over {} rank tracks ({} dropped to ring overflow) -> {}",
        trace.events.len(),
        trace.ranks().len(),
        trace.total_dropped(),
        path.display()
    );
    out!("{}", pde_trace::metrics::format_table(&trace.summarize()));
    Ok(())
}

/// `pdeml simulate` — run the linearized-Euler solver and persist the
/// snapshots.
pub fn simulate(args: &Args) -> Result<(), String> {
    let grid = args.at_least("grid", 64, 4, "cells along each side of the grid")?;
    let snapshots = args.at_least("snapshots", 120, 2, "snapshots recorded (a pair is two)")?;
    let out = PathBuf::from(args.require("out")?);
    let boundary = match args.get("boundary").unwrap_or("outflow") {
        "outflow" => Boundary::Outflow,
        "periodic" => Boundary::Periodic,
        "reflective" => Boundary::Reflective,
        "absorbing" => Boundary::Absorbing,
        other => return Err(format!("unknown boundary '{other}'")),
    };
    outln!("simulating {grid}x{grid} linearized Euler, {snapshots} snapshots, {boundary:?} BCs…");
    let cfg = SolverConfig::paper(grid, grid);
    let data =
        SnapshotRecorder::new(cfg, boundary, &InitialCondition::paper_pulse(), 1).record(snapshots);
    data.save(&out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    outln!(
        "wrote {} ({} snapshots, dt = {:.3e} s, {} bytes)",
        out.display(),
        data.len(),
        data.dt(),
        std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0)
    );
    Ok(())
}

/// `pdeml train` — domain-decomposed parallel training, checkpointed to a
/// model directory.
///
/// `--quick` trains the tiny test architecture on a built-in in-memory
/// dataset (no `--data`/`--out` needed) — a self-contained smoke run, used
/// by CI together with `--trace`.
pub fn train(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let trace_path = args.get("trace").map(PathBuf::from);
    let out_dir = if quick {
        args.get("out").map(PathBuf::from)
    } else {
        Some(PathBuf::from(args.require("out")?))
    };
    let window = args.count("window", 1, "snapshots each network input stacks")?;
    let ranks = args.count("ranks", 4, "ranks the grid is split over")?;
    let strategy = strategy_from_str(args.get("strategy").unwrap_or("neighbor-pad"))?;

    let (data, arch, mut cfg, source) = if quick {
        let data = pde_euler::dataset::paper_dataset(16, 8);
        (
            data,
            ArchSpec::tiny(),
            TrainConfig::quick_test(),
            "built-in 16x16 paper pulse (--quick)".to_string(),
        )
    } else {
        let data_path = PathBuf::from(args.require("data")?);
        let data = DataSet::load(&data_path)
            .map_err(|e| format!("cannot load {}: {e}", data_path.display()))?;
        let (c, _, _) = data.shape();
        let mut arch = ArchSpec::paper();
        arch.channels[0] = c * window;
        let mut cfg = TrainConfig::paper();
        cfg.epochs = 20;
        (data, arch, cfg, data_path.display().to_string())
    };
    cfg.epochs = args.get_or("epochs", cfg.epochs)?;
    cfg.prediction =
        mode_from_str(
            args.get("mode")
                .unwrap_or(if quick { "absolute" } else { "residual" }),
        )?;
    cfg.window = window;
    cfg.seed = args.get_or("seed", 0x5EED_u64)?;
    let default_lr = cfg.lr;
    cfg.lr = args.get_or("lr", cfg.lr)?;
    if !(cfg.lr.is_finite() && cfg.lr > 0.0) {
        return Err(format!(
            "--lr {} is out of range: the learning rate is a positive, finite step size \
             (default {default_lr})",
            cfg.lr
        ));
    }
    cfg.threads_per_rank = threads_per_rank_from_args(args)?;
    let pairs = data.pair_count();
    let train_pairs: usize = args.get_or("train-pairs", pairs * 2 / 3)?;
    if train_pairs > pairs {
        return Err(format!(
            "--train-pairs {train_pairs} is out of range: {source} holds {pairs} snapshot \
             pairs, so pick at most {pairs} (default two thirds of them)"
        ));
    }
    let (c, h, w) = data.shape();
    crate::fleet::ranks_fit_grid("ranks", ranks, h, w)?;
    outln!(
        "training on {train_pairs} of {pairs} pairs from {source} ({c} ch, {h}x{w}) with \
         {ranks} ranks, {} epochs, {} + {}",
        cfg.epochs,
        strategy.label(),
        cfg.prediction.label()
    );
    outln!(
        "kernel path {}, {} kernel thread(s) per rank",
        pde_tensor::kernel_path().label(),
        pde_tensor::pool::resolve_budget(cfg.threads_per_rank, ranks)
    );

    let handle = trace_path.as_ref().map(|_| pde_trace::begin());
    let outcome = ParallelTrainer::new(arch.clone(), strategy, cfg)
        .train_view(&data, train_pairs, ranks)
        .map_err(|e| e.to_string())?;
    if let (Some(h), Some(path)) = (handle, trace_path.as_ref()) {
        write_trace(&h.finish(), path)?;
    }
    outln!(
        "done in {:.1}s; mean final loss {:.3}; bytes communicated during training: {}",
        outcome.wall_seconds,
        outcome.mean_final_loss(),
        outcome.total_bytes_sent()
    );
    for r in &outcome.rank_results {
        outln!(
            "  rank {:>3}: {:.2} GFLOP/s over {:.1}s ({} GEMM calls, {:.2e} FLOPs, \
             {} hot-path allocations)",
            r.rank,
            r.perf.gflops(r.train_seconds),
            r.train_seconds,
            r.perf.gemm_calls,
            r.perf.flops as f64,
            r.perf.allocs
        );
    }
    let total_flops: u64 = outcome.rank_results.iter().map(|r| r.perf.flops).sum();
    outln!(
        "  aggregate: {:.2} GFLOP/s across {ranks} ranks ({:.2e} FLOPs total)",
        total_flops as f64 / outcome.wall_seconds.max(1e-12) / 1e9,
        total_flops as f64
    );

    let Some(out_dir) = out_dir else {
        return Ok(()); // --quick without --out: smoke run, nothing persisted
    };
    let meta = ModelMeta {
        arch: arch.clone(),
        strategy,
        prediction: outcome.prediction,
        window: outcome.window,
        partition: outcome.partition,
        norm: outcome.norm.clone(),
    };
    meta.save(&out_dir)
        .map_err(|e| format!("cannot write meta: {e}"))?;
    for r in &outcome.rank_results {
        let mut net = arch.build_for(strategy, 0);
        restore(&mut net, &r.weights);
        let path = out_dir.join(format!("rank{:03}.pdenn", r.rank));
        save_params(&mut net, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    outln!(
        "model written to {}/ (meta.txt + {} rank checkpoints)",
        out_dir.display(),
        ranks
    );
    Ok(())
}

/// Rebuilds a [`ParallelInference`] from a model directory. A checkpoint
/// that cannot roll out is an `Err` here, before any rank runs.
pub(crate) fn load_fleet(dir: &Path) -> Result<(ModelMeta, ParallelInference), String> {
    let meta = ModelMeta::load(dir)?;
    if !meta.strategy.supports_rollout() {
        return Err(format!(
            "the model in {} was trained with {}, whose output lacks the boundary ring, \
             so it cannot roll out — retrain with --strategy zero-pad, neighbor-pad or deconv",
            dir.display(),
            meta.strategy.label()
        ));
    }
    let n_ranks = meta.partition.rank_count();
    let weights: Vec<Vec<f64>> = (0..n_ranks)
        .map(|r| {
            let mut net = meta.arch.build_for(meta.strategy, 0);
            let path = dir.join(format!("rank{r:03}.pdenn"));
            load_params(&mut net, &path)
                .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
            Ok(snapshot(&mut net))
        })
        .collect::<Result<_, String>>()?;
    let inf = ParallelInference::with_window(
        meta.arch.clone(),
        meta.strategy,
        meta.partition,
        weights,
        meta.norm.clone(),
        meta.prediction,
        meta.window,
    );
    Ok((meta, inf))
}

/// Parses `--halo-policy` / `--halo-timeout-ms` into a [`HaloPolicy`].
pub(crate) fn halo_policy_from_args(args: &Args) -> Result<HaloPolicy, String> {
    let timeout_ms: u64 = args.get_or("halo-timeout-ms", 250)?;
    let timeout = std::time::Duration::from_millis(timeout_ms);
    match args.get("halo-policy").unwrap_or("strict") {
        "strict" => Ok(HaloPolicy::Strict),
        "zero-fill" => Ok(HaloPolicy::Degrade {
            timeout,
            fallback: HaloFallback::ZeroFill,
        }),
        "last-known" => Ok(HaloPolicy::Degrade {
            timeout,
            fallback: HaloFallback::LastKnown,
        }),
        other => Err(format!(
            "unknown halo policy '{other}' (expected strict, zero-fill or last-known)"
        )),
    }
}

/// `pdeml infer` — parallel rollout from a stored model + dataset.
pub fn infer(args: &Args) -> Result<(), String> {
    let data_path = PathBuf::from(args.require("data")?);
    let model_dir = PathBuf::from(args.require("model")?);
    let steps: usize = args.get_or("steps", 10)?;
    let data = DataSet::load(&data_path)
        .map_err(|e| format!("cannot load {}: {e}", data_path.display()))?;
    let (meta, mut inf) = load_fleet(&model_dir)?;
    let policy = halo_policy_from_args(args)?;
    inf = inf.with_halo_policy(policy);
    if let Some(plan) =
        crate::fleet::fault_plan_from_args(args, policy, meta.partition.rank_count())?
    {
        inf = inf.with_fault_plan(plan);
    }
    let default_start = data.len().saturating_sub(steps + 1).max(meta.window - 1);
    let start: usize = args.get_or("start", default_start)?;
    if start + 1 < meta.window || start >= data.len() {
        return Err(format!(
            "--start {start} invalid: need window history ({}) and a snapshot to start from",
            meta.window
        ));
    }
    outln!(
        "rolling out {steps} steps from snapshot {start} with {} ranks ({} + {}, window {})",
        meta.partition.rank_count(),
        meta.strategy.label(),
        meta.prediction.label(),
        meta.window
    );
    let history: Vec<_> = (start + 1 - meta.window..=start)
        .map(|k| data.snapshot(k).clone())
        .collect();
    let trace_path = args.get("trace").map(PathBuf::from);
    let handle = trace_path.as_ref().map(|_| pde_trace::begin());
    let rollout = inf
        .rollout_from_history(&history, steps)
        .map_err(|e| format!("cannot serve this rollout: {e}"))?;
    if let (Some(h), Some(path)) = (handle, trace_path.as_ref()) {
        write_trace(&h.finish(), path)?;
    }
    outln!("boundary bytes exchanged: {}", rollout.total_bytes());
    if rollout.degraded() {
        outln!(
            "degraded halos: {} lost ({} zero-filled, {} stale-reused) — per rank:",
            rollout.total_halos_lost(),
            rollout
                .traffic
                .iter()
                .map(|t| t.halos_zero_filled)
                .sum::<u64>(),
            rollout.traffic.iter().map(|t| t.halos_stale).sum::<u64>()
        );
        for (rank, t) in rollout.traffic.iter().enumerate() {
            if t.degraded() {
                outln!(
                    "  rank {rank:>3}: {} lost, {} zero-filled, {} stale",
                    t.halos_lost,
                    t.halos_zero_filled,
                    t.halos_stale
                );
            }
        }
    } else if policy != HaloPolicy::Strict {
        outln!("no halos lost (all strips arrived within the timeout)");
    }

    // Compare against the solver where reference snapshots exist.
    let available = data.len().saturating_sub(start + 1).min(steps);
    if available > 0 {
        let reference: Vec<_> = (0..=available)
            .map(|s| data.snapshot(start + s).clone())
            .collect();
        let curve = rollout_error_curve(&rollout.states[..=available], &reference);
        outln!("mean-RMSE vs solver per step:");
        for (s, e) in curve.iter().enumerate() {
            outln!("  step {s}: {e:.4e}");
        }
        outln!("single-step per-field errors:");
        out!(
            "{}",
            format_error_table(&field_errors(&rollout.states[1], &reference[1], 1e-3))
        );
        if let Some(out) = args.get("out") {
            let mut csv = Csv::new(&["step", "mean_rmse"]);
            for (s, e) in curve.iter().enumerate() {
                csv.row_f64(&[s as f64, *e]);
            }
            csv.write_to(Path::new(out))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            outln!("wrote {out}");
        }
    } else {
        outln!("(no reference snapshots beyond the start point — skipping error report)");
    }
    Ok(())
}

/// Parses `--threads-per-rank`; an explicit budget is rejected, never
/// clamped, when it is 0 or exceeds the machine's cores.
fn threads_per_rank_from_args(args: &Args) -> Result<Option<usize>, String> {
    let Some(t) = args.get("threads-per-rank") else {
        return Ok(None);
    };
    let t: usize = t
        .parse()
        .map_err(|_| format!("--threads-per-rank: not a number: {t}"))?;
    let cores = pde_tensor::pool::available_cores();
    if t == 0 || t > cores {
        return Err(format!(
            "--threads-per-rank {t} is invalid: pick 1..={cores} \
             (this machine has {cores} core(s); omit the flag to \
             auto-size as cores / ranks)"
        ));
    }
    Ok(Some(t))
}

/// `pdeml scale` — calibrate the cost model on this machine and print the
/// strong/weak scaling projections.
pub fn scale(args: &Args) -> Result<(), String> {
    // The smallest calibration run is grid / 8 cells wide, and the solver
    // needs at least 4.
    let grid = args.at_least("grid", 96, 32, "cells along each side of the global grid")?;
    let epochs = args.count("epochs", 2, "calibration epochs per subproblem")?;
    let cores = args.count("cores", 64, "cores of the projected machine")?;
    let arch = ArchSpec::paper();
    // One rank on one kernel thread: the per-core cost the model scales.
    let cfg = TrainConfig {
        epochs,
        threads_per_rank: Some(1),
        ..TrainConfig::paper()
    };
    outln!("calibrating on {grid}x{grid} subproblems ({epochs} epochs each)…");
    let trainer = ParallelTrainer::new(arch, PaddingStrategy::ZeroPad, cfg);
    let mut samples = Vec::new();
    for &side in &[grid / 8, grid / 4, grid / 2] {
        let data = pde_euler::dataset::paper_dataset(side, 10);
        let out = trainer.train_view(&data, 8, 1).map_err(|e| e.to_string())?;
        samples.push(((side * side) as f64, out.wall_seconds / epochs as f64));
    }
    let cost = CostModel::calibrate(&samples);
    outln!(
        "fitted cost: {:.3e} s/cell/epoch + {:.3e} s overhead\n",
        cost.rate_s_per_cell,
        cost.overhead_s
    );
    let ranks = [1usize, 2, 4, 8, 16, 32, 64];
    outln!("strong scaling, {cores}-core machine, {grid}x{grid} global grid:");
    out!(
        "{}",
        format_scaling_table(&strong_scaling(&cost, grid * grid, epochs, &ranks, cores))
    );
    outln!(
        "\nweak scaling, {} cells per rank:",
        (grid / 8) * (grid / 8)
    );
    out!(
        "{}",
        format_scaling_table(&weak_scaling(
            &cost,
            (grid / 8) * (grid / 8),
            epochs,
            &ranks,
            cores
        ))
    );
    Ok(())
}

/// `pdeml info` — version and the Table-I architecture.
pub fn info() -> Result<(), String> {
    outln!(
        "pdeml {} — reproduction of 'Parallel Machine Learning of PDEs' (PDSEC 2021)",
        env!("CARGO_PKG_VERSION")
    );
    let arch = ArchSpec::paper();
    outln!(
        "\nTable I architecture ({} parameters):",
        arch.param_count()
    );
    out!("{}", arch.table());
    outln!("\npadding strategies: zero-pad | neighbor-pad | inner-crop | deconv");
    outln!("prediction modes:   absolute | residual");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pdeml <command> FLAGS…` fails with a hint naming its first flag,
    /// before any work starts, and does not panic.
    fn assert_refused(command: fn(&Args) -> Result<(), String>, flags: &[&str], hint: &str) {
        let argv: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        let args = Args::parse(&argv).unwrap();
        let err = std::panic::catch_unwind(|| command(&args))
            .unwrap_or_else(|_| panic!("{flags:?} panicked"))
            .unwrap_err();
        assert!(err.starts_with(&format!("{} ", flags[0])), "{err}");
        assert!(err.contains(hint), "{err}");
    }

    /// `pdeml train --quick FLAGS…` is refused (see [`assert_refused`]).
    fn assert_train_refused(flags: &[&str], hint: &str) {
        let flags: Vec<&str> = flags.iter().copied().chain(["--quick"]).collect();
        assert_refused(train, &flags, hint);
    }

    #[test]
    fn zero_ranks_is_refused_with_a_hint() {
        assert_train_refused(&["--ranks", "0"], "at least 1 (default 4)");
    }

    #[test]
    fn zero_window_is_refused_with_a_hint() {
        assert_train_refused(&["--window", "0"], "at least 1 (default 1)");
    }

    #[test]
    fn a_learning_rate_that_is_not_positive_and_finite_is_refused() {
        for lr in ["0", "-0.5", "NaN", "inf"] {
            assert_train_refused(&["--lr", lr], "positive, finite step size");
        }
    }

    #[test]
    fn more_train_pairs_than_the_data_holds_is_refused() {
        // The quick dataset is 8 snapshots, so 7 pairs.
        assert_train_refused(&["--train-pairs", "999"], "pick at most 7");
    }

    /// Where `simulate` would write if a refusal let it through.
    const NO_OUT: &str = "/nonexistent/pdeml-refused.pdeds";

    #[test]
    fn a_grid_below_four_cells_is_refused() {
        assert_refused(
            simulate,
            &["--grid", "3", "--out", NO_OUT],
            "at least 4 (default 64)",
        );
    }

    #[test]
    fn fewer_than_two_snapshots_is_refused() {
        assert_refused(
            simulate,
            &["--snapshots", "1", "--grid", "8", "--out", NO_OUT],
            "at least 2 (default 120)",
        );
    }

    #[test]
    fn a_scale_grid_below_32_is_refused() {
        assert_refused(scale, &["--grid", "16"], "at least 32 (default 96)");
    }

    #[test]
    fn zero_scale_epochs_is_refused() {
        assert_refused(
            scale,
            &["--epochs", "0", "--grid", "32"],
            "at least 1 (default 2)",
        );
    }

    #[test]
    fn zero_scale_cores_is_refused() {
        assert_refused(
            scale,
            &["--cores", "0", "--grid", "32", "--epochs", "1"],
            "at least 1 (default 64)",
        );
    }

    /// A hand-written `meta.txt` every case below breaks in one line.
    const GOOD_META: &str = "\
format = pdeml-meta-v1
channels = 4,6,4
kernel = 3
leak = 0.01
strategy = neighbor-pad
prediction = absolute
window = 1
global_h = 16
global_w = 16
py = 2
px = 2
norm_scales = 1.0,2.0,3.0,4.0
";

    #[test]
    fn checkpoints_that_cannot_roll_out_are_errors_not_panics() {
        assert!(ModelMeta::parse(GOOD_META).is_ok(), "the fixture parses");
        // (key, hand-edited value, what the error must name)
        let cases = [
            ("strategy", "inner-crop", "cannot roll out"),
            ("py", "0", "has no ranks"),
            ("px", "0", "has no ranks"),
            ("global_h", "1", "cannot feed a 2x2 process grid"),
            ("window", "0", "window"),
            ("window", "2", "8 input channels"),
            ("norm_scales", "1.0,2.0,3.0", "3 channels"),
            ("norm_scales", "1.0,0.0,3.0,4.0", "positive and finite"),
            ("norm_scales", "1.0,inf,3.0,4.0", "positive and finite"),
            ("channels", "4", "one layer or more"),
            ("channels", "4,0,4", "zero-width"),
            ("kernel", "4", "not odd"),
            ("leak", "1.5", "leak"),
        ];
        let dir = std::env::temp_dir().join(format!("pdeml_bad_meta_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (key, value, reason) in cases {
            let meta: String = GOOD_META
                .lines()
                .map(|line| match line.split_once(" = ") {
                    Some((k, _)) if k == key => format!("{key} = {value}\n"),
                    _ => format!("{line}\n"),
                })
                .collect();
            std::fs::write(dir.join("meta.txt"), meta).unwrap();
            let err = std::panic::catch_unwind(|| load_fleet(&dir).map(|_| ()))
                .unwrap_or_else(|_| panic!("{key} = {value} panicked the reader"))
                .unwrap_err();
            assert!(err.contains(reason), "{key} = {value}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
