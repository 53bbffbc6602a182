//! What the three serving commands (`serve`, `serve-bench`, `world-node`)
//! share before their first request: the fleet they serve, the argument
//! guards that keep a doomed configuration from starting, and the health
//! checks over the engines they run.

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

/// The fleet `serve` and `serve-bench` run: with `--quick` the
/// communication-free (zero-pad) quick fleet over `quick_ranks` ranks,
/// otherwise the `--model` checkpoint with the last `--data` snapshot as
/// the initial state. The third element names the source for the header.
pub(crate) fn fleet_from_args(
    args: &Args,
    cmd: &str,
    quick_ranks: usize,
) -> Result<(ParallelInference, Tensor3, String), String> {
    if args.flag("quick") {
        let (inf, initial) = quick_fleet(quick_ranks, PaddingStrategy::ZeroPad)?;
        return Ok((inf, initial, "built-in 16x16 paper pulse (--quick)".into()));
    }
    let model_dir = PathBuf::from(args.require("model")?);
    let data_path = PathBuf::from(args.require("data")?);
    let (meta, inf) = crate::commands::load_fleet(&model_dir)?;
    require_window_1(cmd, &model_dir, &meta)?;
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

/// Reads `--self-heal`, refusing configurations that cannot end well: a
/// scheduled `--kill-rank-at` nobody would heal, and healing under the
/// strict halo policy, which has no fallback strips to serve the
/// kill-to-respawn gap with.
pub(crate) fn self_heal_from_args(args: &Args, policy: HaloPolicy) -> Result<bool, String> {
    let self_heal = args.flag("self-heal");
    if args.get("kill-rank-at").is_some() && !self_heal {
        return Err(
            "--kill-rank-at kills a rank mid-batch, which only ends well with --self-heal \
             (otherwise the world poisons or hangs)"
                .into(),
        );
    }
    if self_heal && !matches!(policy, HaloPolicy::Degrade { .. }) {
        return Err(
            "--self-heal serves the kill-to-respawn gap with fallback halos, which needs \
             --halo-policy zero-fill or last-known"
                .into(),
        );
    }
    Ok(self_heal)
}

/// Registers the two checks every engine-backed server needs, over state
/// the engines already maintain, evaluated live at each probe:
///
/// * `poisoned_check` — failed once a rank panic has poisoned every engine's
///   world, degraded while some engines still serve;
/// * `ranks_alive` — failed while any rank of any engine is dead; a
///   self-healed world reads ok again without re-registration.
pub(crate) fn register_engine_health(
    health: &HealthModel,
    poisoned_check: &'static str,
    engines: &[InferEngine],
) {
    let poisoned: Vec<_> = engines.iter().map(InferEngine::poisoned_flag).collect();
    health.register(poisoned_check, move || {
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

/// Registers `halo_fallback_rate`: degraded once more than half of all
/// timed halo receives fell back to zero-fill or stale strips.
pub(crate) fn register_halo_fallback_check(health: &HealthModel) {
    // The same registry entries core::infer/commsim record into — the
    // lookup is idempotent by name.
    let attempts = pde_telemetry::counter(
        "pdeml_halo_recv_attempts_total",
        "Timed halo receives attempted, per rank",
    );
    let zero = pde_telemetry::counter(
        "pdeml_halos_zero_filled_total",
        "Lost halos replaced with zeros, per rank",
    );
    let stale = pde_telemetry::counter(
        "pdeml_halos_stale_total",
        "Lost halos replaced with the previous step's strip, per rank",
    );
    health.register("halo_fallback_rate", move || {
        let total = attempts.total();
        let fell_back = zero.total() + stale.total();
        if total > 0 && fell_back * 2 > total {
            CheckStatus::Degraded(format!(
                "{fell_back}/{total} halo receives fell back to zero-fill/stale"
            ))
        } else {
            CheckStatus::Ok
        }
    });
}
