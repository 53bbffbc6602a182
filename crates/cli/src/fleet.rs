//! What the commands that roll a fleet out (`serve`, `world-node`, `infer`)
//! share before their first request: the fleet they serve, the argument
//! guards that keep a doomed configuration from starting, and `serve`'s
//! health checks over the engines it runs.

use crate::args::Args;
use crate::meta::ModelMeta;
use pde_ml_core::prelude::*;
use pde_telemetry::health::{ranks_alive_check, CheckStatus, HealthModel};
use pde_tensor::Tensor3;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

/// Deterministically trains the built-in quick fleet: paper dataset, tiny
/// arch, fixed seed. Same binary + same inputs ⇒ bitwise-identical weights
/// wherever it runs, which is what lets every process of a multi-process
/// world build its own copy instead of receiving a broadcast. Returns the
/// fleet and the state requests start from.
pub(crate) fn quick_fleet(
    ranks: usize,
    strategy: PaddingStrategy,
) -> Result<(ParallelInference, Tensor3), String> {
    let data = pde_euler::dataset::paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(arch.clone(), strategy, TrainConfig::quick_test())
        .train_view(&data, 6, ranks)
        .map_err(|e| e.to_string())?;
    let inf = ParallelInference::from_outcome(arch, strategy, &outcome);
    Ok((inf, data.snapshot(0).clone()))
}

/// The fleet `serve` runs: with `--quick` the communication-free
/// (zero-pad) quick fleet over `quick_ranks` ranks, otherwise the `--model`
/// checkpoint with the last `--data` snapshot as the initial state. The
/// third element names the source for the header.
pub(crate) fn fleet_from_args(
    args: &Args,
    quick_ranks: usize,
) -> Result<(ParallelInference, Tensor3, String), String> {
    if args.flag("quick") {
        let (inf, initial) = quick_fleet(quick_ranks, PaddingStrategy::ZeroPad)?;
        return Ok((inf, initial, "built-in 16x16 paper pulse (--quick)".into()));
    }
    let model_dir = PathBuf::from(args.require("model")?);
    let data_path = PathBuf::from(args.require("data")?);
    let (meta, inf) = crate::commands::load_fleet(&model_dir)?;
    require_window_1("serve", &model_dir, &meta)?;
    let data = pde_euler::DataSet::load(&data_path)
        .map_err(|e| format!("cannot load {}: {e}", data_path.display()))?;
    let initial = data.snapshot(data.len() - 1).clone();
    Ok((inf, initial, model_dir.display().to_string()))
}

/// Every serving command sends single-state requests, so a checkpoint
/// trained over a wider time window cannot be served by them.
pub(crate) fn require_window_1(cmd: &str, dir: &Path, meta: &ModelMeta) -> Result<(), String> {
    if meta.window == 1 {
        return Ok(());
    }
    Err(format!(
        "{cmd} drives single-state requests but the model in {} was trained with a \
         window of {} — retrain with --window 1",
        dir.display(),
        meta.window
    ))
}

/// Parses `--fault` for a world of `ranks` ranks, refusing it under the
/// strict halo policy, where the first lost strip would block forever.
pub(crate) fn fault_plan_from_args(
    args: &Args,
    policy: HaloPolicy,
    ranks: usize,
) -> Result<Option<FaultPlan>, String> {
    let Some(spec) = args.get("fault") else {
        return Ok(None);
    };
    if policy == HaloPolicy::Strict {
        return Err(
            "--fault with --halo-policy strict would hang on the first lost halo; \
             pick zero-fill or last-known"
                .into(),
        );
    }
    // parse_for also rejects plans naming ranks this world doesn't have.
    FaultPlan::parse_for(spec, ranks).map(Some)
}

/// Registers `serve`'s two checks over its sub-world engines, reading state
/// the engines already maintain, evaluated live at each probe:
///
/// * `sub_worlds_alive` — failed once a rank panic has poisoned every
///   sub-world, degraded while some sub-worlds still serve;
/// * `ranks_alive` — failed while any rank of any engine is dead; a
///   self-healed world reads ok again without re-registration.
pub(crate) fn register_engine_health(health: &HealthModel, engines: &[InferEngine]) {
    let poisoned: Vec<_> = engines.iter().map(InferEngine::poisoned_flag).collect();
    health.register("sub_worlds_alive", move || {
        let dead = poisoned
            .iter()
            .filter(|p| p.load(Ordering::Acquire))
            .count();
        if dead == 0 {
            return CheckStatus::Ok;
        }
        let why = format!(
            "a rank panic poisoned {dead} of {} world(s)",
            poisoned.len()
        );
        if dead < poisoned.len() {
            CheckStatus::Degraded(why)
        } else {
            CheckStatus::Failed(why)
        }
    });
    let alive: Vec<_> = engines
        .iter()
        .map(|e| ranks_alive_check(e.alive_flags()))
        .collect();
    health.register("ranks_alive", move || {
        for (world, check) in alive.iter().enumerate() {
            if let CheckStatus::Failed(why) = check() {
                return CheckStatus::Failed(format!("world {world}: {why}"));
            }
        }
        CheckStatus::Ok
    });
}
