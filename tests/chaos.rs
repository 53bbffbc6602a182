//! Chaos harness: deterministic kill-and-recover for self-healing worlds.
//!
//! A [`ChaosPlan`] schedules rank deaths ([`KillSpec`]s) the way a
//! [`FaultPlan`] schedules message loss — reproducible, and injected at
//! step boundaries. These tests drive the full recovery loop on BOTH
//! transports: a rank dies mid-batch, the engine respawns it, rebuilds the
//! mesh under a fresh generation epoch and re-serves, and the final
//! rollouts must be **bitwise identical** to a world that never lost
//! anyone. Healing is every engine's one answer to a rank death, so the
//! engines here are built exactly as `pdeml serve` builds them. Recovery
//! must also be observable (the `pdeml_rank_respawns_total` /
//! `pdeml_recovery_ms` series) and bounded in time — a heal that quietly
//! hangs is worse than a crash.
//!
//! The telemetry registry is process-global and tests in this binary run
//! concurrently, so every metrics assertion is a *delta* (or a ≥ bound),
//! never an absolute equality.

use pde_commsim::{test_timeout, ChaosPlan, KillSpec, TransportKind, World};
use pde_ml_core::prelude::*;
use pde_telemetry::health::{ranks_alive_check, CheckStatus, Health, HealthModel};
use std::time::{Duration, Instant};

/// A trained 4-rank fleet whose rollouts exchange halos (neighbor-pad), so
/// a dead rank actually matters to its neighbors.
fn trained_fleet(policy: HaloPolicy) -> (pde_euler::DataSet, ParallelInference) {
    let data = pde_euler::dataset::paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::NeighborPad,
        TrainConfig::quick_test(),
    )
    .train_view(&data, 6, 4)
    .unwrap();
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome)
        .with_halo_policy(policy);
    (data, inf)
}

/// A plan killing `rank` once, at `step` of the engine's `request`-th
/// request.
fn kill(rank: usize, request: usize, step: usize) -> ChaosPlan {
    ChaosPlan::new(vec![KillSpec {
        rank,
        request,
        step,
    }])
}

fn degrade_last_known() -> HaloPolicy {
    HaloPolicy::Degrade {
        timeout: test_timeout(),
        fallback: HaloFallback::LastKnown,
    }
}

fn assert_bitwise(a: &RolloutResult, b: &RolloutResult, what: &str) {
    assert_eq!(a.states.len(), b.states.len(), "{what}: state counts");
    for (k, (x, y)) in a.states.iter().zip(&b.states).enumerate() {
        let same = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "{what}: step {k} diverges bitwise");
    }
}

/// The tentpole property, once per transport: kill rank 2 during request 1
/// (at `step`), heal, and every request the caller observes — including
/// the retried one — is bitwise what a never-killed world serves. Under a
/// degrade policy the survivors mask the dead rank and only it respawns;
/// under [`HaloPolicy::Strict`] its neighbors die on their blocked
/// receives, theirs on theirs, and the heal brings back `respawned`, the
/// whole world.
fn kill_and_recover_is_bitwise(
    transport: TransportKind,
    policy: HaloPolicy,
    step: usize,
    respawned: &[usize],
) {
    let (data, inf) = trained_fleet(policy);
    let initial = data.snapshot(0).clone();

    let mut reference = InferEngine::with_config(EngineConfig::new(4).with_transport(transport));
    reference.register("m", inf.clone()).unwrap();

    let mut chaotic = InferEngine::with_config(
        EngineConfig::new(4)
            .with_transport(transport)
            .with_chaos_plan(kill(2, 1, step)),
    );
    chaotic.register("m", inf).unwrap();

    let respawns = pde_telemetry::counter(
        "pdeml_rank_respawns_total",
        "Dead ranks brought back by a supervisor, per rank",
    );
    let recoveries = pde_telemetry::histogram(
        "pdeml_recovery_ms",
        "Wall-clock milliseconds from dead-rank detection to a rebuilt world",
    );
    let respawns_before = respawns.get(2);
    let recoveries_before = recoveries.count();

    for request in 0..3 {
        let want = reference.rollout("m", &initial, 2).unwrap();
        let t0 = Instant::now();
        let got = chaotic.rollout("m", &initial, 2).unwrap();
        let elapsed = t0.elapsed();
        assert_bitwise(
            &got,
            &want,
            &format!("{transport:?} request {request} (kill fires on request 1)"),
        );
        // Bounded time-to-recovery: the healing request may pay the halo
        // timeout (the degraded serve of the doomed attempt) plus the
        // respawn, but never hang.
        assert!(
            elapsed < test_timeout() * 4 + Duration::from_secs(5),
            "{transport:?} request {request} took {elapsed:?} — recovery must be bounded"
        );
    }

    // "Exactly one" is asserted on what this engine owns; the global
    // series is shared with every other test in this binary (several of
    // which also respawn rank 2), so it only bounds from below.
    assert_eq!(
        chaotic.respawned_ranks(),
        respawned,
        "exactly one heal on the {transport:?} engine"
    );
    assert!(
        reference.respawned_ranks().is_empty(),
        "a never-killed engine heals nothing"
    );
    assert!(
        respawns.get(2) > respawns_before,
        "the respawn must land on rank 2's pdeml_rank_respawns_total shard"
    );
    assert!(
        recoveries.count() > recoveries_before,
        "the recovery gap must land on pdeml_recovery_ms"
    );
    // Observable the way an operator sees it: the Prometheus exposition
    // carries the per-rank respawn shard.
    let metrics = pde_telemetry::render_prometheus();
    assert!(
        metrics.contains("pdeml_rank_respawns_total{rank=\"2\"}"),
        "/metrics must expose the respawned rank"
    );

    assert!(
        !chaotic.is_poisoned(),
        "a healed world is not a poisoned world"
    );
}

#[test]
fn kill_and_recover_is_bitwise_on_the_channel_transport() {
    kill_and_recover_is_bitwise(TransportKind::Channel, degrade_last_known(), 0, &[2]);
}

#[test]
fn kill_and_recover_is_bitwise_on_the_tcp_transport() {
    kill_and_recover_is_bitwise(TransportKind::Tcp, degrade_last_known(), 0, &[2]);
}

#[test]
fn a_strict_kill_heals_bitwise_on_the_channel_transport() {
    kill_and_recover_is_bitwise(TransportKind::Channel, HaloPolicy::Strict, 1, &[0, 1, 2, 3]);
}

#[test]
fn a_strict_kill_heals_bitwise_on_the_tcp_transport() {
    kill_and_recover_is_bitwise(TransportKind::Tcp, HaloPolicy::Strict, 1, &[0, 1, 2, 3]);
}

#[test]
fn a_mid_rollout_kill_heals_too() {
    // Death between steps (step 1 of 3) instead of at the request top: the
    // survivors are already holding step-0 halos from the victim. The heal
    // must still converge to the never-killed bits.
    let (data, inf) = trained_fleet(degrade_last_known());
    let initial = data.snapshot(0).clone();
    let reference = inf.rollout(&initial, 3).unwrap();

    let mut engine = InferEngine::with_config(EngineConfig::new(4).with_chaos_plan(kill(1, 0, 1)));
    engine.register("m", inf).unwrap();
    let got = engine.rollout("m", &initial, 3).unwrap();
    assert_bitwise(&got, &reference, "mid-rollout kill");
}

#[test]
fn repeated_kills_exhaust_the_retry_budget() {
    // One kill per serve attempt on the same request (retries re-run the
    // same request index, so three one-shot events fire on attempts 1, 2
    // and 3): the engine heals and retries a bounded number of times, then
    // reports Recovering instead of looping forever.
    let (data, inf) = trained_fleet(degrade_last_known());
    let initial = data.snapshot(0).clone();
    let plan = ChaosPlan::new(
        (0..3)
            .map(|_| KillSpec {
                rank: 2,
                request: 0,
                step: 0,
            })
            .collect(),
    );
    let mut engine = InferEngine::with_config(EngineConfig::new(4).with_chaos_plan(plan));
    engine.register("m", inf.clone()).unwrap();
    let err = match engine.rollout("m", &initial, 2) {
        Ok(_) => panic!("must give up, not serve"),
        Err(e) => e,
    };
    assert!(
        matches!(err, InferError::Recovering { .. }),
        "got {err} — expected the Recovering give-up error"
    );
    assert!(
        !engine.is_poisoned(),
        "giving up on one request must not poison the healed world"
    );
    // The give-up path healed the world on its way out, so the same engine
    // serves cleanly once the chaos stops — bitwise against the cold world.
    let reference = inf.rollout(&initial, 2).unwrap();
    let got = engine.rollout("m", &initial, 2).unwrap();
    assert_bitwise(&got, &reference, "post-give-up request");
}

#[test]
fn health_model_tracks_kill_detect_respawn_end_to_end() {
    // The operator's view of a heal, on the raw world layer: ranks_alive
    // goes Ok → Failed("dead ranks: 2") → Ok as a rank dies and the
    // respawn brings it back, with no re-registration.
    let mut world = World::new(4).spawn_persistent();
    let health = HealthModel::new();
    health.register("ranks_alive", ranks_alive_check(world.alive_flags()));
    assert_eq!(health.report().overall, Health::Healthy);

    let gen = world.alloc_generations(1);
    let results = world.run_collect(gen, |ctx| {
        if ctx.rank() == 2 {
            panic!("chaos: killed rank 2");
        }
    });
    assert!(results[2].is_err(), "rank 2 died");
    assert_eq!(world.dead_ranks(), vec![2]);
    let report = health.report();
    assert_eq!(report.overall, Health::Unhealthy);
    assert!(matches!(
        &report.checks[0].1,
        CheckStatus::Failed(why) if why.contains("dead ranks: 2")
    ));

    let healed = world
        .respawn(|mut ctx, comm, _was_dead| {
            ctx.put_comm(comm);
        })
        .expect("a world with a corpse must heal");
    assert_eq!(healed.respawned, vec![2]);
    assert_eq!(
        health.report().overall,
        Health::Healthy,
        "the live check must see the re-armed flag without re-registration"
    );

    // And the healed world still computes: a ring pass touches every rank.
    let gen = world.alloc_generations(1);
    let out = world.run_collect(gen, |mut ctx| {
        let rank = ctx.rank();
        let size = ctx.size();
        let comm = ctx.comm();
        comm.send((rank + 1) % size, 5, vec![rank as f64]);
        comm.recv((rank + size - 1) % size, 5)[0]
    });
    let values: Vec<f64> = out.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(values, vec![3.0, 0.0, 1.0, 2.0]);
}

#[test]
fn chaos_plan_is_deterministic_across_runs() {
    // Two engines built from the same plan observe the same kill at the
    // same point — the reproducibility contract that makes a chaos
    // failure debuggable.
    let (data, inf) = trained_fleet(degrade_last_known());
    let initial = data.snapshot(0).clone();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut engine =
            InferEngine::with_config(EngineConfig::new(4).with_chaos_plan(kill(3, 1, 0)));
        engine.register("m", inf.clone()).unwrap();
        let mut states = Vec::new();
        for _ in 0..2 {
            states.push(engine.rollout("m", &initial, 2).unwrap());
        }
        runs.push(states);
    }
    for (req, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_bitwise(a, b, &format!("replayed chaos run, request {req}"));
    }
}

#[test]
fn a_scheduled_engine_heals_a_rank_death_and_keeps_serving() {
    // `pdeml serve`'s shape: a scheduler over an engine built with no
    // option beyond the kill, health-gated on its ranks. The kill during
    // request 1 heals inside the engine, so the dispatcher never retires,
    // admission never sheds `Unhealthy`, and every request is bitwise what
    // a never-killed engine serves.
    let (data, inf) = trained_fleet(HaloPolicy::Strict);
    let initial = data.snapshot(0).clone();
    let mut reference = InferEngine::new(4);
    reference.register("m", inf.clone()).unwrap();

    let engine = InferEngine::with_config(EngineConfig::new(4).with_chaos_plan(kill(1, 1, 0)));
    let health = std::sync::Arc::new(HealthModel::new());
    health.register("ranks_alive", ranks_alive_check(engine.alive_flags()));
    let sched = Scheduler::new(vec![engine], SchedulerConfig::default().with_health(health));
    sched.register("m", inf).unwrap();
    for request in 0..3 {
        let want = reference.rollout("m", &initial, 2).unwrap();
        let ticket = match sched.submit("m", std::slice::from_ref(&initial), 2) {
            Ok(ticket) => ticket,
            Err(e) => panic!("request {request} was shed: {e}"),
        };
        let got = match ticket.wait() {
            Ok(got) => got,
            Err(e) => panic!("request {request} failed: {e}"),
        };
        assert_bitwise(&got, &want, &format!("scheduled request {request}"));
    }
}
