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
fn write_trace(
    trace: &pde_trace::Trace,
    rows: &[pde_trace::RankMetrics],
    path: &Path,
) -> Result<(), String> {
    std::fs::write(path, trace.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "trace: {} events over {} rank tracks ({} dropped to ring overflow) -> {}",
        trace.events.len(),
        trace.ranks().len(),
        trace.total_dropped(),
        path.display()
    );
    print!("{}", pde_trace::metrics::format_table(rows));
    Ok(())
}

/// `pdeml simulate` — run the linearized-Euler solver and persist the
/// snapshots.
pub fn simulate(args: &Args) -> Result<(), String> {
    let grid: usize = args.get_or("grid", 64)?;
    let snapshots: usize = args.get_or("snapshots", 120)?;
    let out = PathBuf::from(args.require("out")?);
    let boundary = match args.get("boundary").unwrap_or("outflow") {
        "outflow" => Boundary::Outflow,
        "periodic" => Boundary::Periodic,
        "reflective" => Boundary::Reflective,
        "absorbing" => Boundary::Absorbing,
        other => return Err(format!("unknown boundary '{other}'")),
    };
    println!("simulating {grid}x{grid} linearized Euler, {snapshots} snapshots, {boundary:?} BCs…");
    let cfg = SolverConfig::paper(grid, grid);
    let data =
        SnapshotRecorder::new(cfg, boundary, &InitialCondition::paper_pulse(), 1).record(snapshots);
    data.save(&out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
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
    let window: usize = args.get_or("window", 1)?;
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
    let ranks: usize = args.get_or("ranks", 4)?;
    cfg.epochs = args.get_or("epochs", cfg.epochs)?;
    cfg.prediction =
        mode_from_str(
            args.get("mode")
                .unwrap_or(if quick { "absolute" } else { "residual" }),
        )?;
    cfg.window = window;
    cfg.seed = args.get_or("seed", 0x5EED_u64)?;
    cfg.lr = args.get_or("lr", cfg.lr)?;
    cfg.threads_per_rank = threads_per_rank_from_args(args)?;
    let train_pairs: usize = args.get_or("train-pairs", data.pair_count() * 2 / 3)?;
    let (c, h, w) = data.shape();
    println!(
        "training on {} of {} pairs from {} ({c} ch, {h}x{w}) with {ranks} ranks, \
         {} epochs, {} + {}",
        train_pairs,
        data.pair_count(),
        source,
        cfg.epochs,
        strategy.label(),
        cfg.prediction.label()
    );
    println!(
        "kernel path {}, {} kernel thread(s) per rank",
        pde_tensor::kernel_path().label(),
        pde_tensor::pool::resolve_budget(cfg.threads_per_rank, ranks)
    );

    let handle = trace_path.as_ref().map(|_| pde_trace::begin());
    let outcome = ParallelTrainer::new(arch.clone(), strategy, cfg)
        .train_view(&data, train_pairs, ranks)
        .map_err(|e| e.to_string())?;
    if let (Some(h), Some(path)) = (handle, trace_path.as_ref()) {
        let trace = h.finish();
        let rows = pde_ml_core::observe::train_metrics(&trace, &outcome);
        write_trace(&trace, &rows, path)?;
    }
    println!(
        "done in {:.1}s; mean final loss {:.3}; bytes communicated during training: {}",
        outcome.wall_seconds,
        outcome.mean_final_loss(),
        outcome.total_bytes_sent()
    );
    for r in &outcome.rank_results {
        println!(
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
    println!(
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
    println!(
        "model written to {}/ (meta.txt + {} rank checkpoints)",
        out_dir.display(),
        ranks
    );
    Ok(())
}

/// Rebuilds a [`ParallelInference`] from a model directory.
pub(crate) fn load_fleet(dir: &Path) -> Result<(ModelMeta, ParallelInference), String> {
    let meta = ModelMeta::load(dir)?;
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
    println!(
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
        let trace = h.finish();
        let rows = pde_ml_core::observe::rollout_metrics(&trace, &rollout);
        write_trace(&trace, &rows, path)?;
    }
    println!("boundary bytes exchanged: {}", rollout.total_bytes());
    if rollout.degraded() {
        println!(
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
                println!(
                    "  rank {rank:>3}: {} lost, {} zero-filled, {} stale",
                    t.halos_lost, t.halos_zero_filled, t.halos_stale
                );
            }
        }
    } else if policy != HaloPolicy::Strict {
        println!("no halos lost (all strips arrived within the timeout)");
    }

    // Compare against the solver where reference snapshots exist.
    let available = data.len().saturating_sub(start + 1).min(steps);
    if available > 0 {
        let reference: Vec<_> = (0..=available)
            .map(|s| data.snapshot(start + s).clone())
            .collect();
        let curve = rollout_error_curve(&rollout.states[..=available], &reference);
        println!("mean-RMSE vs solver per step:");
        for (s, e) in curve.iter().enumerate() {
            println!("  step {s}: {e:.4e}");
        }
        println!("single-step per-field errors:");
        print!(
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
            println!("wrote {out}");
        }
    } else {
        println!("(no reference snapshots beyond the start point — skipping error report)");
    }
    Ok(())
}

/// Nearest-rank percentile of an ascending-sorted latency list, or `None`
/// when the list is empty — a `--requests 0` run must report "n/a", not
/// panic on the `len() - 1` underflow.
///
/// The index rule is [`pde_telemetry::nearest_rank`] — the same one the
/// histogram quantile uses — so a p99.9 printed by serve-bench and a
/// p99.9 scraped from `pdeml_request_latency_us` pick the same sample.
pub(crate) fn percentile(sorted_ms: &[f64], p: f64) -> Option<f64> {
    if sorted_ms.is_empty() {
        return None;
    }
    let idx = pde_telemetry::nearest_rank(sorted_ms.len() as u64, p / 100.0) as usize;
    Some(sorted_ms[idx.min(sorted_ms.len() - 1)])
}

/// Console rendering of an optional latency: `12.34` or `n/a`.
pub(crate) fn fmt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".into(), |v| format!("{v:.2}"))
}

/// Parses `--transport` (default: the in-process channel mesh).
pub(crate) fn transport_from_args(args: &Args) -> Result<pde_commsim::TransportKind, String> {
    use pde_commsim::TransportKind;
    args.get("transport")
        .map_or(Ok(TransportKind::default()), TransportKind::parse)
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

/// Brings up the telemetry exporter on `--metrics-addr`, if given.
pub(crate) fn start_exporter(
    args: &Args,
    health: &std::sync::Arc<pde_telemetry::health::HealthModel>,
) -> Result<Option<pde_telemetry::exporter::Exporter>, String> {
    let Some(addr) = args.get("metrics-addr") else {
        return Ok(None);
    };
    let exporter = pde_telemetry::exporter::serve(addr, health.clone())
        .map_err(|err| format!("cannot serve metrics on {addr}: {err}"))?;
    println!(
        "metrics: http://{}/metrics (also /healthz, /readyz)",
        exporter.local_addr()
    );
    Ok(Some(exporter))
}

/// Sleeps out `--hold-ms` (so a scraper can catch the endpoint after the
/// run) and then stops the exporter thread.
pub(crate) fn hold_and_stop_exporter(
    exporter: &mut Option<pde_telemetry::exporter::Exporter>,
    hold_ms: u64,
) {
    if hold_ms > 0 && exporter.is_some() {
        println!("holding metrics endpoint for {hold_ms} ms…");
        std::thread::sleep(std::time::Duration::from_millis(hold_ms));
    }
    if let Some(e) = exporter.as_mut() {
        e.shutdown();
    }
}

/// `pdeml serve-bench` — the smoke drive for the persistent engine: N
/// requests through one warm [`InferEngine`] (threads + models resident),
/// printing requests/sec with p50/p99/p99.9 latency, under whatever faults,
/// kills and observers the flags arm. Its numbers are a sanity readout; the
/// measured ones are `BENCHMARK.json`'s `rollout_*` workloads.
///
/// `--quick` trains the tiny test net on the built-in dataset with the
/// zero-padding strategy — the communication-free configuration, so warm
/// requests are also steady-state allocation-free (reported per request).
///
/// `--metrics-addr` brings up the std-only telemetry exporter for the run
/// (live `/metrics`, `/healthz`, `/readyz`); `--flight-dir` arms the flight
/// recorder, which dumps a Chrome-trace + metrics snapshot whenever a
/// request breaks `--slo-ms` or a rank panics.
pub fn serve_bench(args: &Args) -> Result<(), String> {
    use pde_telemetry::health::HealthModel;
    use std::sync::Arc;

    let requests: usize = args.get_or("requests", 32)?;
    let steps: usize = args.get_or("steps", 2)?;
    let policy = halo_policy_from_args(args)?;
    let transport = transport_from_args(args)?;
    let trace_path = args.get("trace").map(PathBuf::from);
    let flight_dir = args.get("flight-dir").map(PathBuf::from);
    if trace_path.is_some() && flight_dir.is_some() {
        return Err(
            "--trace and --flight-dir are mutually exclusive (both own the global trace session)"
                .into(),
        );
    }
    let slo_ms: f64 = args.get_or("slo-ms", 0.0)?;
    let hold_ms: u64 = args.get_or("hold-ms", 0)?;
    let self_heal = crate::fleet::self_heal_from_args(args, policy)?;
    let kill_spec = args.get("kill-rank-at");

    // Exporter and health model come up before any training/loading so a
    // scraper pointed at --metrics-addr sees /healthz from the start.
    let health = Arc::new(HealthModel::new());
    pde_telemetry::collect_counter(
        "pdeml_trace_dropped_spans_total",
        "Trace spans dropped to per-thread ring overflow",
        pde_trace::dropped_spans_total,
    );
    let mut exporter = start_exporter(args, &health)?;

    let (inf, initial, source) = crate::fleet::fleet_from_args(args, "serve-bench", 4)?;
    let inf = inf.with_halo_policy(policy);
    let ranks = inf.partition().rank_count();
    let fault_plan = crate::fleet::fault_plan_from_args(args, policy, ranks)?;
    // `--kill-rank-at RANK:REQUEST[:STEP]` — the deterministic chaos plan:
    // that rank's serving thread dies at that point, and the self-healing
    // engine must respawn it and re-serve the batch.
    let chaos_plan = match kill_spec {
        Some(spec) => Some(pde_commsim::ChaosPlan::parse_for(
            &format!("kill:{spec}"),
            ranks,
        )?),
        None => None,
    };
    let threads_per_rank = threads_per_rank_from_args(args)?;
    let (c, h, w) = initial.shape();
    println!(
        "serve-bench: {requests} requests x {steps} steps on {source} \
         ({c} ch, {h}x{w}, {ranks} ranks, {} transport)",
        transport.label()
    );
    println!(
        "kernel path {}, {} kernel thread(s) per rank",
        pde_tensor::kernel_path().label(),
        pde_tensor::pool::resolve_budget(threads_per_rank, ranks)
    );

    // Warm: one engine, resident model, one unmeasured warm-up request to
    // pay residency costs (thread spawn, model restore, scratch sizing) —
    // which also registers every live telemetry series before the measured
    // loop, keeping the hot path allocation-free.
    let mut engine_cfg = EngineConfig::new(ranks).with_transport(transport);
    engine_cfg.threads_per_rank = threads_per_rank;
    if let Some(plan) = fault_plan {
        engine_cfg = engine_cfg.with_fault_plan(plan);
    }
    if self_heal {
        engine_cfg = engine_cfg.with_self_heal();
    }
    if let Some(plan) = chaos_plan {
        engine_cfg = engine_cfg.with_chaos_plan(plan);
    }
    let mut engine = InferEngine::with_config(engine_cfg);
    engine.register("serve", inf).expect("register serve model");
    engine
        .rollout("serve", &initial, steps)
        .map_err(|e| format!("cannot serve this rollout: {e}"))?;

    // Health checks read state the engine already maintains; they stay live
    // through the run and the --hold-ms window.
    crate::fleet::register_engine_health(&health, "world_poisoned", std::slice::from_ref(&engine));
    crate::fleet::register_halo_fallback_check(&health);

    let mut flight = match &flight_dir {
        Some(dir) => Some(
            FlightRecorder::new(dir)
                .map_err(|e| format!("cannot arm flight recorder in {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let handle = trace_path.as_ref().map(|_| pde_trace::begin());
    let lost_before: u64 = engine.traffic().iter().map(|t| t.halos_lost).sum();
    let mut warm_ms = Vec::with_capacity(requests);
    let mut last = None;
    let warm_t0 = std::time::Instant::now();
    for _ in 0..requests {
        let t = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.rollout("serve", &initial, steps)
        }));
        match outcome {
            Ok(Ok(r)) => {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if slo_ms > 0.0 && ms > slo_ms {
                    if let Some(f) = flight.as_mut() {
                        let dump = f
                            .trip("slo-exceeded")
                            .map_err(|e| format!("flight dump failed: {e}"))?;
                        println!(
                            "flight: request took {ms:.2} ms (SLO {slo_ms} ms) — \
                             {} events -> {}",
                            dump.events,
                            dump.trace_path.display()
                        );
                    }
                }
                warm_ms.push(ms);
                last = Some(r);
            }
            Ok(Err(e)) => return Err(format!("cannot serve this rollout: {e}")),
            Err(payload) => {
                // A rank died mid-request. Dump the flight ring, report the
                // (now failing) health model and bail — the bench numbers
                // would be meaningless.
                let reason = pde_ml_core::flight::classify_panic(payload.as_ref());
                if let Some(f) = flight.as_mut() {
                    if let Ok(dump) = f.trip(reason) {
                        println!("flight: {reason} — dump at {}", dump.trace_path.display());
                    }
                }
                print!("{}", health.report().describe());
                hold_and_stop_exporter(&mut exporter, hold_ms);
                return Err(format!(
                    "warm loop aborted after {} requests: rank panic classified as '{reason}'",
                    warm_ms.len()
                ));
            }
        }
    }
    let warm_s = warm_t0.elapsed().as_secs_f64();
    let lost_after: u64 = engine.traffic().iter().map(|t| t.halos_lost).sum();
    let halo_lost_per_request = (lost_after - lost_before) as f64 / requests.max(1) as f64;
    // `last` is None on a 0-request run — every per-request statistic below
    // degrades to "n/a" instead of panicking.
    let steady_allocs: Option<u64> = last
        .as_ref()
        .map(|r| r.rank_perf.iter().map(|p| p.allocs).max().unwrap_or(0));
    if let (Some(h), Some(path)) = (handle, trace_path.as_ref()) {
        let trace = h.finish();
        match &last {
            Some(last) => {
                let rows = pde_ml_core::observe::rollout_metrics(&trace, last);
                write_trace(&trace, &rows, path)?;
            }
            None => println!("(no requests ran — skipping trace {})", path.display()),
        }
    }

    warm_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let warm_rps = requests as f64 / warm_s;
    println!(
        "warm: {requests} requests in {warm_s:.3} s — {warm_rps:.1} req/s, \
         p50 {} ms, p99 {} ms, p99.9 {} ms, {} steady-state allocs/request",
        fmt_ms(percentile(&warm_ms, 50.0)),
        fmt_ms(percentile(&warm_ms, 99.0)),
        fmt_ms(percentile(&warm_ms, 99.9)),
        steady_allocs.map_or_else(|| "n/a".into(), |a| a.to_string())
    );
    let final_health = health.report();
    println!(
        "health: {} ({:.4} halos lost per warm request)",
        final_health.overall.as_str(),
        halo_lost_per_request
    );
    if self_heal {
        println!(
            "self-heal: {} rank respawn(s) during the warm loop",
            engine.respawned_ranks().len()
        );
    }
    if let Some(f) = &flight {
        println!(
            "flight recorder: {} dump(s) in {}",
            f.trips(),
            f.dir().display()
        );
    }

    hold_and_stop_exporter(&mut exporter, hold_ms);
    Ok(())
}

/// `pdeml scale` — calibrate the cost model on this machine and print the
/// strong/weak scaling projections.
pub fn scale(args: &Args) -> Result<(), String> {
    let grid: usize = args.get_or("grid", 96)?;
    let epochs: usize = args.get_or("epochs", 2)?;
    let cores: usize = args.get_or("cores", 64)?;
    let arch = ArchSpec::paper();
    let mut cfg = TrainConfig::paper();
    cfg.epochs = epochs;
    println!("calibrating on {grid}x{grid} subproblems ({epochs} epochs each)…");
    let mut samples = Vec::new();
    for &side in &[grid / 8, grid / 4, grid / 2] {
        let data = pde_euler::dataset::paper_dataset(side, 10);
        let out = SequentialTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg.clone())
            .train(&data, 8)
            .map_err(|e| e.to_string())?;
        samples.push(((side * side) as f64, out.seconds / epochs as f64));
    }
    let cost = CostModel::calibrate(&samples);
    println!(
        "fitted cost: {:.3e} s/cell/epoch + {:.3e} s overhead\n",
        cost.rate_s_per_cell, cost.overhead_s
    );
    let ranks = [1usize, 2, 4, 8, 16, 32, 64];
    println!("strong scaling, {cores}-core machine, {grid}x{grid} global grid:");
    print!(
        "{}",
        format_scaling_table(&strong_scaling(&cost, grid * grid, epochs, &ranks, cores))
    );
    println!(
        "\nweak scaling, {} cells per rank:",
        (grid / 8) * (grid / 8)
    );
    print!(
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
    println!(
        "pdeml {} — reproduction of 'Parallel Machine Learning of PDEs' (PDSEC 2021)",
        env!("CARGO_PKG_VERSION")
    );
    let arch = ArchSpec::paper();
    println!(
        "\nTable I architecture ({} parameters):",
        arch.param_count()
    );
    print!("{}", arch.table());
    println!("\npadding strategies: zero-pad | neighbor-pad | inner-crop | deconv");
    println!("prediction modes:   absolute | residual");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_list_is_none_not_a_panic() {
        // Regression: `(len - 1)` underflowed on an empty list, so a
        // `--requests 0` serve-bench panicked before reporting anything.
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 99.9), None);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let ms = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&ms, 0.0), Some(1.0));
        assert_eq!(percentile(&ms, 50.0), Some(3.0));
        assert_eq!(percentile(&ms, 100.0), Some(4.0));
        assert_eq!(percentile(&[7.5], 99.9), Some(7.5));
    }

    #[test]
    fn percentile_and_histogram_quantile_share_one_rule() {
        // Regression for the percentile dedup: serve-bench's list
        // percentile and the telemetry histogram quantile used to carry
        // two hand-rolled nearest-rank implementations; both now route
        // through pde_telemetry::nearest_rank. Samples stay below 2^k=32,
        // the histogram's exact-bucket region, so the two must agree
        // EXACTLY on every quantile — any future drift in either rule
        // breaks this test.
        let hist = pde_telemetry::histogram(
            "pdeml_test_percentile_dedup_us",
            "percentile dedup regression fixture",
        );
        let samples: Vec<u64> = vec![1, 2, 3, 5, 8, 13, 21, 21, 30, 31];
        for &s in &samples {
            hist.record(s);
        }
        let sorted: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        let snap = hist.snapshot();
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let list = percentile(&sorted, p).unwrap();
            let hist_q = snap.quantile(p / 100.0).unwrap();
            assert_eq!(
                list, hist_q as f64,
                "p{p}: list percentile and histogram quantile diverged"
            );
        }
    }

    #[test]
    fn missing_latencies_render_as_na() {
        assert_eq!(fmt_ms(None), "n/a");
        assert_eq!(fmt_ms(Some(12.345)), "12.35");
    }
}
