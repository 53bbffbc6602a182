//! Concurrent-serving invariant: the sub-world equivalence guarantee — N
//! requests fanned out over split sub-worlds are bitwise what a serial
//! full-world engine serves, on both transports.

use pde_commsim::{TransportKind, World};
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::prelude::*;

/// Trains the deterministic 2-rank fixture both sides of the equivalence
/// serve.
fn trained_fixture() -> (pde_euler::DataSet, ParallelInference) {
    let data = pde_euler::dataset::paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::NeighborPad,
        TrainConfig::quick_test(),
    )
    .train_view(&data, 6, 2)
    .unwrap();
    (
        data,
        ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome),
    )
}

/// N requests over 2 sub-worlds must be bitwise what the same N produce on
/// a serial full-size world: same states, same per-rank traffic counters.
/// Sub-worlds renumber their comm ranks 0..g, so each request is
/// literally a serial 2-rank serve — this pins that nothing about the
/// scheduler or the split leaks into the numerics.
fn assert_scheduler_matches_serial(transport: TransportKind) {
    let (data, inf) = trained_fixture();
    let mut serial = InferEngine::with_config(EngineConfig::new(2).with_transport(transport));
    serial.register("m", inf.clone()).unwrap();
    let want: Vec<RolloutResult> = (0..8)
        .map(|k| serial.rollout("m", data.snapshot(k), 3).unwrap())
        .collect();

    let engines: Vec<InferEngine> = World::new(4)
        .with_transport(transport)
        .split_even(2)
        .unwrap()
        .into_iter()
        .map(|sub| InferEngine::from_world(sub, EngineConfig::new(2)))
        .collect();
    let sched = Scheduler::new(engines, SchedulerConfig::default());
    sched.register("m", inf).unwrap();
    // All 8 submitted before any is awaited: genuinely concurrent over the
    // two sub-worlds, whichever dispatcher grabs each one.
    let tickets: Vec<Ticket> = (0..8)
        .map(|k| {
            sched
                .submit("m", std::slice::from_ref(data.snapshot(k)), 3)
                .unwrap()
        })
        .collect();
    for (k, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().unwrap();
        for (s, (a, b)) in got.states.iter().zip(&want[k].states).enumerate() {
            let identical = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                identical,
                "request {k} step {s}: sub-world serve diverges bitwise from serial \
                 ({} transport)",
                transport.label()
            );
        }
        assert_eq!(
            got.traffic,
            want[k].traffic,
            "request {k}: per-rank traffic counters diverged ({} transport)",
            transport.label()
        );
    }
}

#[test]
fn requests_over_two_sub_worlds_match_serial_bitwise_channel() {
    assert_scheduler_matches_serial(TransportKind::parse("channel").unwrap());
}

#[test]
fn requests_over_two_sub_worlds_match_serial_bitwise_tcp() {
    assert_scheduler_matches_serial(TransportKind::parse("tcp").unwrap());
}
