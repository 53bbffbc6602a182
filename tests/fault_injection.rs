//! Fault-injection tests: what happens to the inference protocol when
//! boundary messages are lost, and how the resilient halo-exchange
//! subsystem degrades.
//!
//! The paper assumes a reliable MPI; these tests exercise the library's
//! loss-tolerant halo layer — the split-phase axis exchange the degraded
//! assembly runs ([`CartComm::post_x_sends`] then timed
//! [`CartComm::recv_halo_dir`] receives), and the [`HaloPolicy`] machinery
//! in `pde-ml-core` above it. Two invariants matter
//! everywhere: a *lost message* (timeout) is recoverable by policy, while a
//! *dead peer* (`PeerDead`) is fatal under every policy — the distinction
//! the old test-only `pull_with_fallback` helper erased by matching
//! `Err(_)`.
//!
//! All receive timeouts come from [`pde_commsim::test_timeout`]
//! (`PDEML_TEST_TIMEOUT_MS`, default generous): a healthy strip declared
//! lost on a loaded CI runner would make these tests flaky, while a
//! genuinely dropped strip never arrives no matter how long we wait.

use pde_commsim::{test_timeout, CartComm, Direction, FaultAction, FaultPlan, HaloRecv, World};
use pde_ml_core::infer::{assemble_halo_input_with, HaloCache};
use pde_ml_core::prelude::*;
use pde_tensor::Tensor3;

/// On a 1×2 grid, posts `strip` toward the other rank along x and waits
/// out one timed receive from it — the halo layer's split-phase exchange —
/// then keeps the rank alive until its peer's receive resolved too.
fn timed_x_exchange(cart: &mut CartComm, strip: Vec<f64>, tag: u32) -> HaloRecv {
    let dir = if cart.coords().1 == 0 {
        cart.post_x_sends(None, Some(strip), tag);
        Direction::Right
    } else {
        cart.post_x_sends(Some(strip), None, tag);
        Direction::Left
    };
    let got = cart.recv_halo_dir(dir, tag, test_timeout());
    cart.comm_mut().barrier();
    got.expect("a 1×2 grid has an x-neighbor")
}

/// Builds a trained 4-rank inference fleet for the rollout-policy tests.
fn trained_fleet(n_ranks: usize) -> (pde_euler::DataSet, ParallelInference) {
    let data = pde_euler::dataset::paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::NeighborPad,
        TrainConfig::quick_test(),
    )
    .train_view(&data, 6, n_ranks)
    .unwrap();
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);
    (data, inf)
}

#[test]
fn lost_halo_is_reported_lost_not_dead() {
    // 1×2 grid; the 0→1 edge drops everything. Rank 1 must classify its
    // missing strip as Lost (recoverable), NOT PeerDead, and the loss must
    // land in the stats. The healthy 1→0 direction stays Ok.
    let plan = FaultPlan::drop_edge(0, 1);
    let out = World::new(2).with_fault_plan(plan).run(|comm| {
        let rank = comm.rank();
        let mut cart = CartComm::new(comm, 1, 2, false);
        let got = timed_x_exchange(&mut cart, vec![rank as f64; 6], 7);
        (got, cart.comm().stats().report())
    });
    assert_eq!(out[0].0, HaloRecv::Ok(vec![1.0; 6]), "1→0 edge is healthy");
    assert_eq!(out[1].0, HaloRecv::Lost, "0→1 edge drops — lost, not dead");
    assert_eq!(out[1].1.halos_lost, 1);
    assert_eq!(out[0].1.halos_lost, 0);
}

#[test]
fn dead_peer_is_fatal_under_every_policy() {
    // Rank 0 exits without participating. Even the most permissive policy
    // (Degrade + LastKnown) must refuse to fabricate data for a dead
    // peer's whole subdomain: the degraded assembler panics. Which panic
    // wins is a race — the synchronization barrier sees the closed channel
    // ("disconnected"), or the receive classifies the peer dead first and
    // resolve_halo refuses ("neighbor is dead") — so both are accepted.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        World::new(2).run(|comm| {
            let rank = comm.rank();
            if rank == 0 {
                return Tensor3::zeros(1, 2, 2); // dies immediately
            }
            let mut cart = CartComm::new(comm, 1, 2, false);
            let local = Tensor3::from_fn(1, 4, 4, |_, i, j| (i + j) as f64);
            let mut cache = HaloCache::default();
            assemble_halo_input_with(
                &mut cart,
                &local,
                1,
                0,
                HaloPolicy::Degrade {
                    timeout: test_timeout(),
                    fallback: HaloFallback::LastKnown,
                },
                false,
                &mut cache,
            )
        });
    }));
    let payload = match outcome {
        Ok(_) => panic!("a dead peer must be fatal"),
        Err(p) => p,
    };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("disconnected") || msg.contains("neighbor is dead"),
        "unexpected panic message: {msg:?}"
    );
}

#[test]
fn last_known_fallback_reuses_exact_prior_step_strip() {
    // 1×2 grid, two assembly steps. The fault plan drops ONLY step 1's
    // x-phase message on the 0→1 edge (encoded tag >> 2 == step*2 == 2).
    // Under LastKnown, rank 1's step-1 left halo must be bitwise the strip
    // it received at step 0 — not zeros, not step 1's (lost) strip.
    let plan = FaultPlan::new(|s, d, t| {
        if s == 0 && d == 1 && (t >> 2) == 2 {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    });
    let halo = 2;
    let out = World::new(2).with_fault_plan(plan).run(move |comm| {
        let rank = comm.rank();
        let mut cart = CartComm::new(comm, 1, 2, false);
        let mut cache = HaloCache::default();
        let state = |step: usize| {
            Tensor3::from_fn(2, 4, 4, |c, i, j| {
                (1000 * step + 100 * rank + 10 * c + i + j) as f64 + 0.5
            })
        };
        // A short timeout is safe: the degraded assembler synchronizes
        // between sends and receives, so every delivered strip is
        // already inboxed when the timed receive runs — the timeout is
        // only ever waited out for the genuinely dropped message.
        let timeout = std::time::Duration::from_millis(100);
        let padded: Vec<Tensor3> = (0..2)
            .map(|step| {
                assemble_halo_input_with(
                    &mut cart,
                    &state(step),
                    halo,
                    step as u32,
                    HaloPolicy::Degrade {
                        timeout,
                        fallback: HaloFallback::LastKnown,
                    },
                    false,
                    &mut cache,
                )
            })
            .collect();
        cart.comm_mut().barrier();
        (padded, cart.comm().stats().report())
    });
    // Rank 1's left halo block (rows halo.., cols 0..halo) at step 1 must
    // equal the step-0 block bitwise — the cached strip, reused.
    let (padded, traffic) = &out[1];
    let step0_left = padded[0].window(halo, 0, 4, halo);
    let step1_left = padded[1].window(halo, 0, 4, halo);
    assert!(
        step0_left.as_slice().iter().any(|&v| v != 0.0),
        "step 0 strip arrived (sanity)"
    );
    assert_eq!(
        step0_left.as_slice(),
        step1_left.as_slice(),
        "LastKnown must reuse the prior strip bitwise"
    );
    // And the substitution is accounted as stale, not zero-filled.
    assert_eq!(traffic.halos_lost, 1);
    assert_eq!(traffic.halos_stale, 1);
    assert_eq!(traffic.halos_zero_filled, 0);
}

#[test]
fn degrade_rollout_completes_under_seeded_loss_and_is_deterministic() {
    // A multi-step rollout under seeded ~10% probabilistic loss must (a)
    // complete, (b) report nonzero lost/fallback counts, and (c) produce
    // bitwise-identical states on a second run — the loss pattern is a pure
    // hash of (seed, src, dst, tag), independent of thread scheduling.
    let (data, inf) = trained_fleet(4);
    // Short timeout is safe under the synchronized degraded exchange:
    // delivered strips are inboxed before the timed receive runs, so only
    // the plan-dropped messages ever wait this out.
    let inf = inf
        .with_halo_policy(HaloPolicy::Degrade {
            timeout: std::time::Duration::from_millis(100),
            fallback: HaloFallback::ZeroFill,
        })
        .with_fault_plan(FaultPlan::loss_rate(0.1, 0xFA57));
    let initial = data.snapshot(6).clone();
    let a = inf.rollout(&initial, 3).unwrap();
    let b = inf.rollout(&initial, 3).unwrap();
    assert_eq!(a.states.len(), 4, "rollout completed");
    assert!(
        a.total_halos_lost() > 0,
        "10% seeded loss over 24 halo messages should lose at least one \
         (if this seed loses none, pick another)"
    );
    assert_eq!(a.total_halos_lost(), a.total_fallbacks());
    assert!(a.degraded());
    for (k, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
        assert_eq!(
            sa.as_slice(),
            sb.as_slice(),
            "step {k}: degraded rollout must be deterministic"
        );
    }
    assert_eq!(a.traffic, b.traffic, "counters are deterministic too");
}

#[test]
fn dropped_edge_rollout_records_loss_in_traffic_report() {
    // Structural loss: every 0→1 message drops. On the 2×2 grid rank 1
    // loses exactly its from-left strip each step; the rollout still
    // completes and the TrafficReport pins the damage to rank 1.
    let (data, inf) = trained_fleet(4);
    let steps = 2;
    let inf = inf
        .with_halo_policy(HaloPolicy::Degrade {
            timeout: std::time::Duration::from_millis(100),
            fallback: HaloFallback::ZeroFill,
        })
        .with_fault_plan(FaultPlan::drop_edge(0, 1));
    let r = inf.rollout(data.snapshot(0), steps).unwrap();
    assert_eq!(r.n_steps(), steps);
    assert!(r
        .states
        .iter()
        .all(|s| s.as_slice().iter().all(|v| v.is_finite())));
    assert_eq!(r.traffic[1].halos_lost, steps as u64);
    assert_eq!(r.traffic[1].halos_zero_filled, steps as u64);
    assert!(r.traffic[1].degraded());
    for rank in [0, 2, 3] {
        assert!(
            !r.traffic[rank].degraded(),
            "rank {rank} only has healthy edges"
        );
    }
}

#[test]
fn delay_shorter_than_timeout_is_not_a_loss() {
    // A slow link is not a lossy link: a `delay:SRC-DST:MS` fault whose
    // delay is well under the halo timeout must deliver every strip as
    // `HaloRecv::Ok` — no halos_lost, no fallback substitution, and a
    // rollout bitwise identical to the fault-free strict protocol.
    let (data, inf) = trained_fleet(4);
    let initial = data.snapshot(6).clone();
    let strict = inf.rollout(&initial, 2).unwrap();

    // Both transports must treat a slow link the same way: the channel mesh
    // parks the delayed strip on a timer thread, the TCP mesh holds the
    // frame back before writing — either way it arrives, classifies Ok,
    // and the rollout equals the fault-free strict one bitwise.
    for kind in [
        pde_commsim::TransportKind::Channel,
        pde_commsim::TransportKind::Tcp,
    ] {
        let delayed = inf
            .clone()
            .with_halo_policy(HaloPolicy::Degrade {
                timeout: test_timeout(),
                fallback: HaloFallback::ZeroFill,
            })
            .with_transport(kind)
            .with_fault_plan(FaultPlan::delay_edge(
                0,
                1,
                std::time::Duration::from_millis(20),
            ))
            .rollout(&initial, 2)
            .unwrap();

        for t in &delayed.traffic {
            assert_eq!(t.halos_lost, 0, "{kind:?}: delayed must not read as lost");
            assert_eq!(t.halos_zero_filled, 0);
            assert_eq!(t.halos_stale, 0);
            assert!(!t.degraded());
        }
        for (k, (a, b)) in strict.states.iter().zip(&delayed.states).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{kind:?} step {k}: delayed-but-delivered must equal strict bitwise"
            );
        }
    }
}

#[test]
fn delayed_exchange_strip_arrives_ok_at_the_halo_layer() {
    // Same invariant one layer down: a 1×2 grid where the 0→1 edge is
    // delayed 20 ms. With a generous receive timeout the strip classifies
    // as Ok, carrying the payload intact.
    let plan = FaultPlan::delay_edge(0, 1, std::time::Duration::from_millis(20));
    let out = World::new(2).with_fault_plan(plan).run(|comm| {
        let rank = comm.rank();
        let mut cart = CartComm::new(comm, 1, 2, false);
        let got = timed_x_exchange(&mut cart, vec![rank as f64 + 0.25; 6], 11);
        (got, cart.comm().stats().report())
    });
    assert_eq!(
        out[1].0,
        HaloRecv::Ok(vec![0.25; 6]),
        "delayed strip is Ok, not Lost, with its payload intact"
    );
    assert_eq!(out[0].0, HaloRecv::Ok(vec![1.25; 6]));
    assert_eq!(out[0].1.halos_lost + out[1].1.halos_lost, 0);
}

#[test]
fn healthy_world_with_fault_plan_noise_everywhere_else_is_unaffected() {
    // Dropping an edge that the communication pattern never uses changes
    // nothing.
    let plan = FaultPlan::drop_edge(3, 0);
    let out = World::new(4).with_fault_plan(plan).run(|comm| {
        let mut cart = CartComm::new(comm, 2, 2, false);
        // Both axis exchanges on a 2×2 non-periodic grid: only the existing
        // neighbors participate; edge (3,0) is diagonal and unused.
        let me = cart.comm().rank() as f64;
        let strip = |cart: &CartComm, d| cart.neighbor(d).map(|_| vec![me; 2]);
        let (l, r) = (
            strip(&cart, Direction::Left),
            strip(&cart, Direction::Right),
        );
        let (from_left, from_right) = cart.exchange_x(l, r, 3);
        let (d, u) = (strip(&cart, Direction::Down), strip(&cart, Direction::Up));
        let (from_down, from_up) = cart.exchange_y(d, u, 4);
        [from_left, from_right, from_down, from_up]
            .iter()
            .filter(|x| x.is_some())
            .count()
    });
    // Every rank of a 2×2 grid has exactly 2 neighbors.
    assert_eq!(out, vec![2, 2, 2, 2]);
}

#[test]
fn dropped_message_is_counted_as_sent_but_never_received() {
    let plan = FaultPlan::drop_edge(0, 1);
    let traffic = World::new(2).with_fault_plan(plan).run(|mut comm| {
        if comm.rank() == 0 {
            comm.send(1, 9, vec![1.0, 2.0]);
        } else {
            let r = comm.recv_timeout(0, 9, std::time::Duration::from_millis(30));
            assert!(r.is_err());
        }
        comm.barrier();
        comm.stats().report()
    });
    assert_eq!(
        traffic[0].msgs_sent,
        1 + 1,
        "payload + barrier messages sent by rank 0"
    );
    // Rank 1 received only the barrier message, not the payload.
    assert_eq!(traffic[1].msgs_received, 1);
}

#[test]
fn collectives_survive_total_user_traffic_loss() {
    // Even a plan that drops ALL user messages must not break collectives
    // (they use the reserved tag space) — the world still synchronizes and
    // reduces correctly.
    let plan = FaultPlan::new(|_, _, _| FaultAction::Drop);
    let results = World::new(4).with_fault_plan(plan).run(|mut comm| {
        comm.barrier();
        let v = comm.allreduce_sum(&[comm.rank() as f64 + 1.0]);
        v[0]
    });
    assert_eq!(results, vec![10.0; 4]);
}

#[test]
fn seeded_loss_is_identical_over_channel_and_tcp_transports() {
    // Fault decisions hash (seed, src, dst, tag) INSIDE Comm — above the
    // Transport trait — so the same plan must drop the same strips whether
    // the mesh below is in-process channels or localhost TCP sockets. The
    // degraded rollouts must then agree bitwise, with equal TrafficReports
    // (including halos_lost / fallback counters).
    let (data, inf) = trained_fleet(4);
    let plan = FaultPlan::loss_rate(0.25, 0xD1CE);
    let initial = data.snapshot(1).clone();
    let run = |kind: pde_commsim::TransportKind| {
        inf.clone()
            .with_halo_policy(HaloPolicy::Degrade {
                timeout: test_timeout(),
                fallback: HaloFallback::ZeroFill,
            })
            .with_transport(kind)
            .with_fault_plan(plan.clone())
            .rollout(&initial, 3)
            .unwrap()
    };
    let channel = run(pde_commsim::TransportKind::Channel);
    let tcp = run(pde_commsim::TransportKind::Tcp);
    assert!(
        channel.total_halos_lost() > 0,
        "seed must actually lose strips for this test to mean anything"
    );
    for (k, (a, b)) in channel.states.iter().zip(&tcp.states).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "step {k}: seeded-loss rollout must be transport-independent"
        );
    }
    assert_eq!(
        channel.traffic, tcp.traffic,
        "loss pattern and substitutions must match counter-for-counter"
    );
}

#[test]
fn dropped_edge_damage_is_identical_over_channel_and_tcp_transports() {
    // Structural loss over both transports: every 0→1 message drops; the
    // damage report must pin the same loss to the same rank either way.
    let (data, inf) = trained_fleet(4);
    let steps = 2;
    let initial = data.snapshot(0).clone();
    let run = |kind: pde_commsim::TransportKind| {
        inf.clone()
            .with_halo_policy(HaloPolicy::Degrade {
                timeout: test_timeout(),
                fallback: HaloFallback::LastKnown,
            })
            .with_transport(kind)
            .with_fault_plan(FaultPlan::drop_edge(0, 1))
            .rollout(&initial, steps)
            .unwrap()
    };
    let channel = run(pde_commsim::TransportKind::Channel);
    let tcp = run(pde_commsim::TransportKind::Tcp);
    for report in [&channel.traffic, &tcp.traffic] {
        assert_eq!(report[1].halos_lost, steps as u64);
        assert!(report[1].degraded());
        for rank in [0, 2, 3] {
            assert!(!report[rank].degraded(), "rank {rank} has healthy edges");
        }
    }
    assert_eq!(channel.traffic, tcp.traffic);
    for (k, (a, b)) in channel.states.iter().zip(&tcp.states).enumerate() {
        assert_eq!(a.as_slice(), b.as_slice(), "step {k}");
    }
}

#[test]
fn absorbing_and_reflective_boundaries_compose_with_training() {
    // The full pipeline also works on datasets generated with the
    // extension boundary conditions — no hidden Outflow assumptions.
    use pde_euler::dataset::SnapshotRecorder;
    use pde_euler::{Boundary, InitialCondition, SolverConfig};
    for boundary in [
        Boundary::Reflective,
        Boundary::Absorbing,
        Boundary::Periodic,
    ] {
        let cfg = SolverConfig::paper(16, 16);
        let data =
            SnapshotRecorder::new(cfg, boundary, &InitialCondition::paper_pulse(), 1).record(8);
        let outcome = ParallelTrainer::new(
            ArchSpec::tiny(),
            PaddingStrategy::NeighborPad,
            TrainConfig::quick_test(),
        )
        .train(&data, 4)
        .unwrap_or_else(|e| panic!("{boundary:?}: {e}"));
        assert_eq!(outcome.total_bytes_sent(), 0, "{boundary:?}");
        assert!(outcome
            .rank_results
            .iter()
            .all(|r| r.epoch_losses.iter().all(|l| l.is_finite())));
    }
}
