//! The rollout path, layer by layer and at both shapes: `domain` slicing,
//! `commsim` transport and job dispatch, `core.infer` rank steps and halo
//! assembly, the warm `core.engine`, the `core.schedule` queue in front of
//! it, and what arming the program's own `trace` session costs.

use super::{timed_ms, Probes, Replica};
use crate::adapter::{
    self, assemble_halo_input, begin_program_trace, gather, pack_cols, scatter, set_thread_budget,
    CartComm, NetworkModel, ParallelInference, Scheduler, SchedulerConfig, Shape, Tensor3,
    TrainOutcome, TransportKind, World,
};
use crate::affinity;
use crate::procfs::CpuSample;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{self, RolloutSetup, MODEL, SNAPSHOTS};
use std::hint::black_box;
use std::time::Instant;

/// f64 values in one halo strip of a 1x2 partition: 4 channels x grid rows x
/// halo columns — 1 KB at toy shape, 64 KB at paper shape.
fn strip_values(shape: Shape) -> usize {
    let arch = shape.arch();
    arch.channels[0] * shape.grid() * adapter::STRATEGY.input_halo(arch.halo())
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Round-trip p50 in µs of one strip-sized message between two ranks.
fn pingpong_us(kind: TransportKind, values: usize, iters: usize) -> f64 {
    let warm = iters / 10;
    let mut per_rank = World::new(2).with_transport(kind).run(|mut comm| {
        let payload = vec![1.0; values];
        let mut trips = Vec::with_capacity(iters);
        for i in 0..warm + iters {
            if comm.rank() == 0 {
                let t = Instant::now();
                // A sender hands its strip over by value, as a halo pack does.
                comm.send(1, 1, payload.clone());
                black_box(comm.recv(1, 2));
                if i >= warm {
                    trips.push(us(t.elapsed()));
                }
            } else {
                let strip = comm.recv(0, 1);
                comm.send(0, 2, strip);
            }
        }
        trips
    });
    stats::p50(&per_rank.swap_remove(0))
}

/// `commsim`: transport round trips, the barrier, and what it costs to hand
/// a closure to rank threads — spawned cold or already resident.
pub fn commsim(p: &mut Probes) {
    let iters = 200 * p.reps;
    let mut tcp_paper_us = 0.0;
    for (kind, kind_name) in [
        (TransportKind::Channel, "channel"),
        (TransportKind::Tcp, "tcp"),
    ] {
        for shape in [Shape::Toy, Shape::Paper] {
            let rtt = p.main.scope("commsim.pingpong", |_| {
                pingpong_us(kind, strip_values(shape), iters)
            });
            p.report.metric(
                &format!("commsim.pingpong_us_p50.{kind_name}.{}", shape.label()),
                rtt,
                "us",
            );
            if (kind, shape) == (TransportKind::Tcp, Shape::Paper) {
                tcp_paper_us = rtt;
            }
        }
    }
    // ROADMAP item 1's gap: the model's one-way time for a paper strip over
    // half the measured loopback round trip.
    let bytes = strip_values(Shape::Paper) * 8;
    let predicted_us = NetworkModel::cluster_default().p2p(bytes) * 1e6;
    p.report.metric(
        "perfmodel.comm_pred_over_measured",
        predicted_us / (tcp_paper_us / 2.0),
        "ratio",
    );

    let mut barriers = p.main.scope("commsim.barrier", |_| {
        World::new(2).run(|mut comm| {
            (0..iters)
                .map(|_| {
                    let t = Instant::now();
                    comm.barrier();
                    us(t.elapsed())
                })
                .collect::<Vec<f64>>()
        })
    });
    p.report.metric(
        "commsim.barrier_us_p50",
        stats::p50(&barriers.swap_remove(0)),
        "us",
    );

    let cold = timed_ms(&mut p.main, "commsim.world_run", 2, 10 * p.reps, || {
        World::new(2).run(|_comm| ());
    });
    p.report
        .metric("commsim.world_run_us", stats::median(&cold) * 1e3, "us");

    let mut resident = World::new(2).spawn_persistent();
    let jobs: Vec<f64> = p.main.scope("commsim.persistent_job", |_| {
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                resident.run(|_ctx| ());
                us(t.elapsed())
            })
            .collect()
    });
    p.report
        .metric("commsim.persistent_job_us_p50", stats::p50(&jobs), "us");
}

/// `domain`: slicing a paper-shape state over the ranks and back.
pub fn domain(p: &mut Probes, inference: &ParallelInference, state: &Tensor3) {
    let part = *inference.partition();
    let reps = 10 * p.reps;
    let locals = scatter(state, &part);
    let halo = inference.input_halo();
    let t = timed_ms(&mut p.main, "domain.scatter", 1, reps, || {
        black_box(scatter(state, &part));
    });
    p.report
        .metric("domain.scatter_us", stats::median(&t) * 1e3, "us");
    let t = timed_ms(&mut p.main, "domain.gather", 1, reps, || {
        black_box(gather(&locals, &part));
    });
    p.report
        .metric("domain.gather_us", stats::median(&t) * 1e3, "us");
    let t = timed_ms(&mut p.main, "domain.pack_cols", 1, reps, || {
        black_box(pack_cols(&locals[0], locals[0].w() - halo, halo));
    });
    p.report
        .metric("domain.pack_cols_us", stats::median(&t) * 1e3, "us");
}

/// One rank thread's view of a request, timed part by part: halo assembly
/// alone, then whole steps. Returns the slower rank's p50 of each (a request
/// waits for both ranks), assembly in µs and step in ms.
fn rank_steps(inference: &ParallelInference, state: &Tensor3, requests: usize) -> (f64, f64) {
    let part = *inference.partition();
    let halo = inference.input_halo();
    let history = inference.scatter_history(std::slice::from_ref(state));
    let per_rank = World::new(adapter::RANKS).run(|comm| {
        set_thread_budget(1);
        let rank = comm.rank();
        affinity::pin_this_rank(rank).expect("a rank thread may choose its CPU");
        let mut cart = CartComm::new(comm, part.py(), part.px(), false);
        let mut machine = inference.rank_state(rank);
        let (mut assemble, mut step) = (Vec::new(), Vec::new());
        let mut tag = 0;
        // Like a request: reset, then STEPS steps; the reset is not timed.
        for _ in 0..requests {
            machine.reset(&history[rank]);
            let t = Instant::now();
            black_box(assemble_halo_input(&mut cart, machine.latest(), halo, tag));
            assemble.push(us(t.elapsed()));
            tag += 1;
            for _ in 0..adapter::STEPS {
                let t = Instant::now();
                machine.step(&mut cart, tag);
                step.push(us(t.elapsed()) / 1e3);
                tag += 1;
            }
        }
        // Quiet windows, as the request latency they are compared with.
        (stats::quiet(&assemble).p50, stats::quiet(&step).p50)
    });
    per_rank.into_iter().fold((0.0, 0.0), |(a, s), (ra, rs)| {
        (f64::max(a, ra), f64::max(s, rs))
    })
}

/// What the closed-loop replicas of one shape measured.
pub struct Served {
    /// Warm-engine request p50, ms.
    pub request_ms_p50: f64,
    pub replica: Replica,
}

/// The shortened rollout workload of one shape: the closed loop once plain
/// and once under the benchmark's spans. Gives the warm-engine p50, the
/// tracing tax and the process counters of that workload.
fn serve_closed_loop(
    p: &mut Probes,
    setup: &mut RolloutSetup,
    n: usize,
    track: u32,
) -> Result<Served, String> {
    let cpu_before = CpuSample::read(None)?;
    let (plain, failed_plain) = workloads::closed_loop(setup, n, &mut Spans::new(false, 0))?;
    let cpu_after = CpuSample::read(None)?;
    let mut spans = Spans::new(true, track);
    let (traced, failed_traced) = workloads::closed_loop(setup, n, &mut spans)?;
    p.tracks.push(spans);
    let failed = failed_plain + failed_traced;
    let (plain_ms, traced_ms): (f64, f64) = (plain.iter().sum(), traced.iter().sum());
    Ok(Served {
        request_ms_p50: stats::quiet(&plain).p50,
        replica: Replica {
            attempted: 2 * n as u64,
            failed,
            digest: setup.digest(),
            failures: (failed > 0)
                .then(|| {
                    format!(
                        "{failed} of {} rollouts failed or differ from their reference",
                        2 * n
                    )
                })
                .into_iter()
                .collect(),
            tracing_tax_frac: (traced_ms - plain_ms) / plain_ms,
            sys_cpu_frac: cpu_after.sys_frac_since(&cpu_before),
            minor_faults_per_op: (cpu_after.minor_faults - cpu_before.minor_faults) as f64
                / n as f64,
        },
    })
}

/// `core.infer` and `core.engine` at one shape. `setup` holds the warm
/// engine; returns the closed-loop replica of that shape's workload.
fn shape_probes(p: &mut Probes, shape: Shape, setup: &mut RolloutSetup) -> Result<Served, String> {
    let label = shape.label();
    let (requests, loop_n, track) = match shape {
        Shape::Toy => (500 * p.reps, 5_000 * p.reps, 20),
        Shape::Paper => (6 * p.reps, 10 * p.reps, 21),
    };
    let state = setup.snapshots[0].clone();
    let (assemble_us, step_ms) = p.main.scope("core.infer.rank_steps", |_| {
        rank_steps(&setup.inference, &state, requests)
    });
    p.report.metric(
        &format!("core.infer.assemble_halo_us_p50.{label}"),
        assemble_us,
        "us",
    );
    p.report.metric(
        &format!("core.infer.rank_step_ms_p50.{label}"),
        step_ms,
        "ms",
    );
    let served = serve_closed_loop(p, setup, loop_n, track)?;
    // What the engine adds around the rank steps of a warm request.
    p.report.metric(
        &format!("core.engine.request_overhead_us.{label}"),
        (served.request_ms_p50 - adapter::STEPS as f64 * step_ms) * 1e3,
        "us",
    );
    Ok(served)
}

/// `core.schedule`: the toy model behind a one-sub-world scheduler, closed
/// loop, with the program's own phase split of every request.
fn schedule(p: &mut Probes, setup: &RolloutSetup, engine_p50_ms: f64) -> Result<(), String> {
    let n = 2_000 * p.reps;
    let scheduler = Scheduler::new(
        vec![workloads::pinned_engine(TransportKind::Channel)?],
        SchedulerConfig::default(),
    );
    scheduler
        .register(MODEL, setup.inference.clone())
        .map_err(|e| e.to_string())?;
    let (mut submit, mut total) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut queue, mut dispatch, mut rollout) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    p.main.scope("core.schedule.closed_loop", |_| {
        for i in 0..n + n / 10 {
            let k = i % SNAPSHOTS;
            let t = Instant::now();
            let ticket = scheduler
                .submit(
                    MODEL,
                    std::slice::from_ref(&setup.snapshots[k]),
                    adapter::STEPS,
                )
                .map_err(|e| e.to_string())?;
            let submitted = us(t.elapsed());
            let (result, phases) = ticket.wait_traced();
            let done = us(t.elapsed());
            let result = result.map_err(|e| e.to_string())?;
            if !workloads::same_bits(&result.states, &setup.references[k]) {
                return Err(format!("scheduled rollout {i} differs from its reference"));
            }
            if i >= n / 10 {
                submit.push(submitted);
                total.push(done);
                queue.push(phases.queue_us as f64);
                dispatch.push(phases.dispatch_us as f64);
                rollout.push(phases.rollout_us as f64);
            }
        }
        Ok(())
    })?;
    let r = &mut p.report;
    r.metric("core.schedule.submit_us_p50", stats::p50(&submit), "us");
    r.metric("core.schedule.queue_us_p50", stats::p50(&queue), "us");
    r.metric("core.schedule.dispatch_us_p50", stats::p50(&dispatch), "us");
    r.metric("core.schedule.rollout_us_p50", stats::p50(&rollout), "us");
    r.metric(
        "core.schedule.over_engine_us",
        stats::p50(&total) - engine_p50_ms * 1e3,
        "us",
    );
    Ok(())
}

/// Everything on the rollout path. `fleet` is the paper model the training
/// probes trained; returns the replicas of `rollout_toy` and `rollout_paper`.
pub fn rollout(
    p: &mut Probes,
    seed: u64,
    fleet: &TrainOutcome,
    paper_states: &[Tensor3],
) -> Result<(Replica, Replica), String> {
    commsim(p);
    let toy = toy_probes(p, seed)?;
    let paper = paper_probes(p, fleet, paper_states)?;
    Ok((toy, paper))
}

/// Toy shape, on the workload's own set-up: `core.infer`, `core.engine`,
/// `core.schedule` and `trace`, where dispatch and wake-ups are the cost.
fn toy_probes(p: &mut Probes, seed: u64) -> Result<Replica, String> {
    let (mut toy, _) = workloads::rollout_setup(Shape::Toy, seed, TransportKind::Channel)?;
    let toy_served = shape_probes(p, Shape::Toy, &mut toy)?;
    // The prediction rollout_toy rests on: kernels are a few per cent of a
    // request. GEMM-driver time of the busier rank over the request's p50.
    let warm = toy
        .engine
        .rollout(MODEL, &toy.snapshots[0], adapter::STEPS)
        .map_err(|e| e.to_string())?;
    let kernel_ms = warm
        .rank_perf
        .iter()
        .map(|c| c.kernel_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    p.report.note(format!(
        "bypass check: tensor's share of a rollout_toy request is {:.1} % ({:.1} us in GEMM of {:.1} us)",
        100.0 * kernel_ms / toy_served.request_ms_p50,
        kernel_ms * 1e3,
        toy_served.request_ms_p50 * 1e3
    ));
    schedule(p, &toy, toy_served.request_ms_p50)?;

    let toy_n = 2_000 * p.reps;
    let plain = workloads::closed_loop(&mut toy, toy_n, &mut Spans::new(false, 0))?.0;
    // The program's own trace session armed: its spans now record on every
    // rank thread of every request.
    let session = begin_program_trace();
    let armed = workloads::closed_loop(&mut toy, toy_n, &mut Spans::new(false, 0))?.0;
    black_box(session.finish());
    let (plain_ms, armed_ms): (f64, f64) = (plain.iter().sum(), armed.iter().sum());
    // Requests per second lost: 1 - rps_armed / rps_plain.
    p.report
        .metric("trace.armed_tax_frac", 1.0 - plain_ms / armed_ms, "frac");

    // Eight requests in one round of rank jobs against eight rounds of one.
    let histories: Vec<&[Tensor3]> = (0..8)
        .map(|k| std::slice::from_ref(&toy.snapshots[k % SNAPSHOTS]))
        .collect();
    let batched = timed_ms(
        &mut p.main,
        "core.engine.rollout_batch8",
        10,
        100 * p.reps,
        || {
            black_box(
                toy.engine
                    .rollout_batch(MODEL, &histories, adapter::STEPS)
                    .expect("a registered model"),
            );
        },
    );
    let sequential = timed_ms(
        &mut p.main,
        "core.engine.rollout_seq8",
        10,
        100 * p.reps,
        || {
            for h in &histories {
                black_box(
                    toy.engine
                        .rollout(MODEL, &h[0], adapter::STEPS)
                        .expect("a registered model"),
                );
            }
        },
    );
    p.report.metric(
        "core.engine.batch8_over_seq8",
        stats::median(&batched) / stats::median(&sequential),
        "ratio",
    );

    let (mut toy_tcp, _) = workloads::rollout_setup(Shape::Toy, seed, TransportKind::Tcp)?;
    let (tcp, tcp_failed) = workloads::closed_loop(&mut toy_tcp, toy_n, &mut Spans::new(false, 0))?;
    if tcp_failed > 0 {
        return Err(format!(
            "{tcp_failed} rollouts over tcp differ from their reference"
        ));
    }
    p.report.metric(
        "core.engine.tcp_over_channel",
        stats::p50(&tcp) / toy_served.request_ms_p50,
        "ratio",
    );
    Ok(toy_served.replica)
}

/// Paper shape, on the model the training probes trained: `domain`,
/// `core.infer` and `core.engine`, where the forward pass is the cost.
fn paper_probes(
    p: &mut Probes,
    fleet: &TrainOutcome,
    paper_states: &[Tensor3],
) -> Result<Replica, String> {
    let inference = adapter::inference(Shape::Paper, fleet);
    let snapshots: Vec<Tensor3> = paper_states[..SNAPSHOTS].to_vec();
    let references = snapshots
        .iter()
        .map(|s| inference.reference_rollout(s, adapter::STEPS))
        .collect();
    let mut engine = workloads::pinned_engine(TransportKind::Channel)?;
    let t = Instant::now();
    p.main
        .scope("core.engine.register", |_| {
            engine.register(MODEL, inference.clone())
        })
        .map_err(|e| e.to_string())?;
    p.report.metric(
        "core.engine.register_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let mut paper = RolloutSetup {
        engine,
        inference,
        snapshots,
        references,
    };
    // The first request warms the resident scratch; the second is warm, and
    // its counters are exact.
    let cold = paper
        .engine
        .rollout(MODEL, &paper.snapshots[0], adapter::STEPS)
        .map_err(|e| e.to_string())?;
    if !workloads::same_bits(&cold.states, &paper.references[0]) {
        return Err("the first paper rollout differs from its reference".into());
    }
    let warm = paper
        .engine
        .rollout(MODEL, &paper.snapshots[0], adapter::STEPS)
        .map_err(|e| e.to_string())?;
    let steps = adapter::STEPS as f64;
    let r = &mut p.report;
    r.metric(
        "tensor.allocs_per_warm_request",
        warm.rank_perf.iter().map(|c| c.allocs).sum::<u64>() as f64,
        "count",
    );
    r.metric(
        "commsim.msgs_per_step",
        warm.traffic.iter().map(|t| t.msgs_sent).sum::<u64>() as f64 / steps,
        "count",
    );
    r.metric(
        "commsim.bytes_per_step",
        warm.total_bytes() as f64 / steps,
        "count",
    );

    let state = paper.snapshots[0].clone();
    domain(p, &paper.inference, &state);
    let reps = 3 * p.reps;
    let t = timed_ms(&mut p.main, "core.infer.scatter_history", 1, reps, || {
        black_box(
            paper
                .inference
                .scatter_history(std::slice::from_ref(&state)),
        );
    });
    p.report.metric(
        "core.infer.scatter_history_us",
        stats::median(&t) * 1e3,
        "us",
    );
    // A rank's trajectory is its local state at every step; stitching does
    // not read the values, so the scattered initial state stands in for all.
    let trajectories: Vec<Vec<Tensor3>> = paper
        .inference
        .scatter_history(std::slice::from_ref(&state))
        .into_iter()
        .map(|mut h| vec![h.remove(0); adapter::STEPS + 1])
        .collect();
    let t = timed_ms(&mut p.main, "core.infer.stitch", 1, reps, || {
        black_box(
            paper
                .inference
                .stitch_states(&state, &trajectories, adapter::STEPS),
        );
    });
    p.report
        .metric("core.infer.stitch_us", stats::median(&t) * 1e3, "us");
    let cold = timed_ms(
        &mut p.main,
        "core.infer.cold_rollout",
        0,
        p.reps.max(2),
        || {
            black_box(
                paper
                    .inference
                    .rollout(&state, adapter::STEPS)
                    .expect("a valid initial state"),
            );
        },
    );
    let cold_ms = stats::median(&cold);
    p.report.metric("core.infer.cold_rollout_ms", cold_ms, "ms");

    let paper_served = shape_probes(p, Shape::Paper, &mut paper)?;
    p.report.metric(
        "core.engine.warm_over_cold",
        paper_served.request_ms_p50 / cold_ms,
        "ratio",
    );
    Ok(paper_served.replica)
}
