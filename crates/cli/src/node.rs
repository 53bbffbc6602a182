//! `pdeml world-node` — one rank of a multi-process TCP world, plus the
//! `--launch` orchestrator that spawns a whole world on localhost.
//!
//! The paper's scheme needs no weight movement: training is deterministic
//! and communication-free, so every process of a world trains the SAME
//! quick fleet from the same seed and ends up with bitwise-identical
//! weights — the only wire traffic is the inference-time halo exchange,
//! now over real sockets ([`pde_commsim::connect_tcp_world`]).
//!
//! Worker mode (`--rank R --peers a0,a1,…`) joins the rendezvous as rank
//! `R`, serves the lockstep request batch, and gathers its request-0
//! trajectory + traffic counters to rank 0. Rank 0 stitches the gathered
//! trajectories and verifies them **bitwise** against an in-process
//! channel-transport rollout of the identical fleet — the cross-process
//! equivalence check behind DESIGN.md §4h.
//!
//! `--launch` is the driver: it picks N loopback ports, spawns ranks 1..N
//! as child processes of the current executable and runs rank 0 in-process
//! (so `--metrics-addr` scrapes the driver).
//!
//! `--trace-dir DIR` turns on cross-process tracing: every process records
//! its serving loop under a trace session and dumps a Chrome-trace *shard*
//! (`DIR/shard_rankR.json`, exported with `pid = R`) on exit; the launcher
//! then splices the shards into `DIR/merged_trace.json` — one Perfetto
//! timeline with a process group per rank.

use crate::args::Args;
use crate::commands::halo_policy_from_args;
use crate::fleet::{fault_plan_from_args, quick_fleet, require_window_1};
use pde_commsim::{connect_tcp_world, record_recovery, CartComm, TrafficReport};
use pde_ml_core::prelude::*;
use pde_telemetry::exporter::Exporter;
use pde_telemetry::health::{CheckStatus, HealthModel};
use pde_tensor::Tensor3;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit code of a rank killed by `--kill-at` — distinguishable from a
/// genuine crash when the launcher reaps the corpse.
const KILL_EXIT: i32 = 86;

/// Recovery epochs a world may burn through before the driver gives up
/// (a rank that keeps dying points at a real bug, not chaos).
const MAX_RECOVERY_EPOCHS: u32 = 4;

/// Generation base of a recovery epoch: requests within the epoch run at
/// `epoch_base | (req + 1)`, so every rejoin jumps the whole world forward
/// and any frame stamped by a previous epoch is discarded on arrival.
/// Epoch 0 reproduces the pre-recovery generation numbers exactly, which
/// keeps healthy worlds bitwise-identical to older builds.
fn epoch_base(epoch: u32) -> u32 {
    epoch << 16
}

/// Dispatches `pdeml world-node`: `--launch` drives a whole world, rank
/// mode (`--rank`/`--peers`) serves one member of it.
pub fn world_node(args: &Args) -> Result<(), String> {
    if args.flag("launch") {
        launch(args)
    } else {
        worker(args)
    }
}

/// The fleet every process of the world serves, and the state requests
/// start from. `--restore DIR` loads a `pdeml train` checkpoint — every
/// process, including a *respawned* replacement rank, restores from the
/// same files, so a rejoin costs a weight load, not a retrain, and the
/// initial state is regenerated deterministically from the solver so all
/// processes still agree bitwise. Otherwise every process retrains the
/// deterministic quick fleet with neighbor padding, so rollouts actually
/// exchange halos.
fn fleet_from_args(
    args: &Args,
    n_ranks: usize,
    policy: HaloPolicy,
    fault: Option<&FaultPlan>,
) -> Result<(Tensor3, ParallelInference), String> {
    let (inf, initial) = match args.get("restore") {
        None => quick_fleet(n_ranks, PaddingStrategy::NeighborPad)?,
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let (meta, inf) = crate::commands::load_fleet(dir)
                .map_err(|e| format!("--restore {}: {e}", dir.display()))?;
            if meta.partition.rank_count() != n_ranks {
                return Err(format!(
                    "--restore {}: checkpoint is partitioned over {} ranks but this world has \
                     {n_ranks} — pass --ranks {}",
                    dir.display(),
                    meta.partition.rank_count(),
                    meta.partition.rank_count()
                ));
            }
            require_window_1("world-node", dir, &meta)
                .map_err(|e| format!("--restore {}: {e}", dir.display()))?;
            let (gh, gw) = (meta.partition.global_h(), meta.partition.global_w());
            if gh != gw {
                return Err(format!(
                    "--restore {}: checkpoint covers a {gh}x{gw} grid; world-node regenerates \
                     its initial state from the square built-in solver and needs gh == gw",
                    dir.display()
                ));
            }
            let initial = pde_euler::dataset::paper_dataset(gh, 2).snapshot(0).clone();
            (inf, initial)
        }
    };
    let mut inf = inf.with_halo_policy(policy);
    if let Some(plan) = fault {
        inf = inf.with_fault_plan(plan.clone());
    }
    Ok((initial, inf))
}

/// What rank 0 learns about one lockstep world run.
struct WorldRun {
    /// Stitched global states of request 0: `[initial, pred_1, …, pred_K]`.
    states: Vec<Tensor3>,
    /// Per-rank traffic deltas of request 0 (the snapshot window matches
    /// [`ParallelInference::rollout_from_history`]'s: steps + quiesce,
    /// alignment barriers excluded).
    traffic: Vec<TrafficReport>,
}

/// A peer-supplied `f64` that must be a non-negative whole number — how
/// every count travels over the all-`f64` collectives.
fn count_from_f64(v: f64, what: &str) -> Result<u64, String> {
    // 2^53: above it an f64 no longer holds every integer.
    if (0.0..=9_007_199_254_740_992.0).contains(&v) && v.fract() == 0.0 {
        Ok(v as u64)
    } else {
        Err(format!("{what} {v} is not a count"))
    }
}

/// Wire form of a [`TrafficReport`] for the end-of-run gather.
fn encode_traffic(t: &TrafficReport) -> [f64; 6] {
    [
        t.msgs_sent as f64,
        t.bytes_sent as f64,
        t.msgs_received as f64,
        t.halos_lost as f64,
        t.halos_zero_filled as f64,
        t.halos_stale as f64,
    ]
}

fn decode_traffic(payload: &[f64]) -> Result<TrafficReport, String> {
    let [sent, bytes, received, lost, zero_filled, stale] = payload else {
        return Err(format!(
            "traffic report has {} values, expected 6",
            payload.len()
        ));
    };
    let count = |v: &f64| count_from_f64(*v, "traffic counter");
    Ok(TrafficReport {
        msgs_sent: count(sent)?,
        bytes_sent: count(bytes)?,
        msgs_received: count(received)?,
        halos_lost: count(lost)?,
        halos_zero_filled: count(zero_filled)?,
        halos_stale: count(stale)?,
    })
}

/// Rank 0's membership verdict, broadcast at the top of every request of a
/// self-healing world.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Every peer is alive; serve the request.
    Healthy,
    /// `dead` ranks are gone: every rank rebuilds the mesh on loopback
    /// `fresh_ports` (one per rank, dead ones included) under the next
    /// epoch. A whole fresh set, because the old ports sit in TIME_WAIT.
    Heal {
        dead: Vec<usize>,
        fresh_ports: Vec<u16>,
    },
}

impl Verdict {
    /// `[0]`, or `[1, n_dead, dead…, fresh ports…]`.
    fn encode(&self) -> Vec<f64> {
        match self {
            Verdict::Healthy => vec![0.0],
            Verdict::Heal { dead, fresh_ports } => [1.0, dead.len() as f64]
                .into_iter()
                .chain(dead.iter().map(|&r| r as f64))
                .chain(fresh_ports.iter().map(|&p| f64::from(p)))
                .collect(),
        }
    }

    /// Decodes a verdict for a world of `n_ranks`. The payload arrived over
    /// the network, so its length, tag and every index are checked.
    fn decode(payload: &[f64], n_ranks: usize) -> Result<Verdict, String> {
        let values: Vec<u64> = payload
            .iter()
            .map(|&v| count_from_f64(v, "verdict value"))
            .collect::<Result<_, _>>()?;
        let n = n_ranks as u64;
        match values.as_slice() {
            [0] => Ok(Verdict::Healthy),
            [1, n_dead, rest @ ..]
                if (1..=n).contains(n_dead) && rest.len() as u64 == n_dead + n =>
            {
                let (dead, ports) = rest.split_at(*n_dead as usize);
                if let Some(r) = dead.iter().find(|&&r| r >= n) {
                    return Err(format!("dead rank {r} is outside a {n}-rank world"));
                }
                let fresh_ports = ports
                    .iter()
                    .map(|&p| u16::try_from(p).map_err(|_| format!("port {p} exceeds 16 bits")))
                    .collect::<Result<_, _>>()?;
                Ok(Verdict::Heal {
                    dead: dead.iter().map(|&r| r as usize).collect(),
                    fresh_ports,
                })
            }
            _ => Err(format!(
                "{payload:?} is neither [0] nor [1, n_dead, dead…, ports…] for {n} ranks"
            )),
        }
    }
}

/// Writes this process's Chrome-trace shard — every row under `pid ==
/// rank`, the convention [`pde_trace::merge_chrome_shards`] relies on.
fn write_trace_shard(
    dir: &std::path::Path,
    rank: usize,
    handle: pde_trace::TraceHandle,
) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create --trace-dir {}: {e}", dir.display()))?;
    let path = dir.join(format!("shard_rank{rank}.json"));
    let json = handle.finish().chrome_json_for_pid(rank as u64);
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn parse_peers(spec: &str) -> Result<Vec<SocketAddr>, String> {
    let peers: Vec<SocketAddr> = spec
        .split(',')
        .map(|a| {
            a.trim()
                .parse()
                .map_err(|_| format!("--peers: '{a}' is not HOST:PORT"))
        })
        .collect::<Result<_, String>>()?;
    if peers.len() < 2 {
        return Err("--peers needs at least two comma-separated addresses".into());
    }
    Ok(peers)
}

/// Per-rank serving parameters shared by worker and launch modes.
struct ServeOpts {
    requests: usize,
    steps: usize,
    connect_timeout: Duration,
    record_live: bool,
    /// Run the membership protocol: a verdict round before every request,
    /// and on a dead-rank verdict rebuild the mesh under a fresh epoch and
    /// restart the batch.
    self_heal: bool,
    /// Die (exit [`KILL_EXIT`]) at the top of this request — the chaos
    /// injection a launcher schedules with `--kill-rank-at`.
    kill_at: Option<usize>,
    /// First epoch to rendezvous under (0 for original members; a
    /// respawned process is told the recovery epoch via `--epoch`).
    start_epoch: u32,
}

/// Respawns replacement `world-node --respawn` processes for the given dead
/// ranks, pointed at the fresh mesh addresses and the new epoch.
type RespawnFn<'a> = &'a mut dyn FnMut(&[usize], &[SocketAddr], u32) -> Result<(), String>;

/// Rank 0's process-respawning half of the recovery protocol — only the
/// launcher holds child handles, so only it can fork replacements.
struct HealDriver<'a> {
    respawn: RespawnFn<'a>,
    /// Surfaced through `/readyz`: true from dead-rank detection until the
    /// mesh is rebuilt.
    recovering: Option<Arc<AtomicBool>>,
}

/// Reserves `n` distinct loopback addresses by binding ephemeral listeners
/// and releasing them — the pre-fork rendezvous trick (the reuse race
/// window is negligible on localhost). Recovery needs *fresh* ports: the
/// old ones sit in TIME_WAIT and cannot be re-bound without SO_REUSEADDR.
fn reserve_loopback_ports(n: usize) -> Result<Vec<SocketAddr>, String> {
    (0..n)
        .map(|_| {
            std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("cannot reserve a loopback port: {e}"))
        })
        .collect()
}

/// One round of the membership protocol, run by every rank at the top of
/// every request when self-healing is on (the ezmpc synchronizer's
/// Start/Next/Abort epoch handshake is the reference shape):
///
/// 1. rank 0 inspects its transport's per-peer aliveness and broadcasts a
///    [`Verdict`];
/// 2. on a heal verdict, rank 0 forks replacement processes (via the
///    [`HealDriver`]), then **every** rank drops its old mesh and
///    rendezvouses on the fresh addresses under the next epoch's
///    generation base (the respawned process dials with retry/backoff
///    until everyone is bound, and the rendezvous hello rejects any
///    process that disagrees on the epoch);
/// 3. rank 0 stamps `pdeml_rank_respawns_total{rank=…}` and the
///    `pdeml_recovery_ms` histogram with the detection-to-rebuilt gap.
///
/// Returns `Ok(true)` when the world was healed (the caller restarts its
/// batch so every request is ultimately served by a full-strength world),
/// `Ok(false)` when the verdict was healthy.
#[allow(clippy::too_many_arguments)]
fn membership_round(
    rank: usize,
    cart: &mut CartComm,
    epoch: &mut u32,
    part: &GridPartition,
    opts: &ServeOpts,
    fault: Option<&FaultPlan>,
    heal: &mut Option<HealDriver<'_>>,
) -> Result<bool, String> {
    let n = part.rank_count();
    let mut verdict = Verdict::Healthy;
    let mut detect_t0 = None;
    if rank == 0 {
        let dead = cart.comm().dead_peers();
        if !dead.is_empty() {
            detect_t0 = Some(Instant::now());
            let fresh_ports = reserve_loopback_ports(n)?
                .iter()
                .map(SocketAddr::port)
                .collect();
            verdict = Verdict::Heal { dead, fresh_ports };
        }
    }
    // Root-to-all, so a dead non-root peer cannot break the broadcast
    // (writes to the dead are swallowed by the transport).
    let payload = cart.comm_mut().broadcast(0, verdict.encode());
    let verdict = Verdict::decode(&payload, n)
        .map_err(|e| format!("rank {rank}: bad membership verdict from rank 0: {e}"))?;
    let Verdict::Heal { dead, fresh_ports } = verdict else {
        return Ok(false);
    };
    let fresh: Vec<SocketAddr> = fresh_ports
        .iter()
        .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
        .collect();
    *epoch += 1;
    if *epoch > MAX_RECOVERY_EPOCHS {
        return Err(format!(
            "rank {rank}: giving up after {MAX_RECOVERY_EPOCHS} recovery epochs — \
             a rank that keeps dying is a bug, not chaos"
        ));
    }
    if rank == 0 {
        let driver = heal.as_mut().ok_or_else(|| {
            "dead ranks detected but this process cannot fork replacements — \
             self-healing worlds are driven by `world-node --launch --self-heal`"
                .to_string()
        })?;
        if let Some(flag) = &driver.recovering {
            flag.store(true, Ordering::Release);
        }
        (driver.respawn)(&dead, &fresh, *epoch)?;
    }
    let comm = connect_tcp_world(
        rank,
        &fresh,
        epoch_base(*epoch),
        opts.connect_timeout,
        fault,
    )
    .map_err(|e| {
        format!(
            "rank {rank}: epoch-{epoch} rendezvous failed: {e}",
            epoch = *epoch
        )
    })?;
    // Assigning tears down this rank's half of the old mesh (FIN per peer).
    *cart = CartComm::new(comm, part.py(), part.px(), false);
    if rank == 0 {
        record_recovery(
            &dead,
            detect_t0.expect("rank 0 timed its own detection").elapsed(),
        );
        if let Some(driver) = heal {
            if let Some(flag) = &driver.recovering {
                flag.store(false, Ordering::Release);
            }
        }
        println!(
            "self-heal: respawned rank(s) {dead:?} at epoch {epoch}; restarting the batch",
            epoch = *epoch
        );
    }
    Ok(true)
}

/// Joins the TCP world as `rank` and serves `requests` lockstep rollout
/// requests of `steps` steps each. Returns the gathered [`WorldRun`] on
/// rank 0, `None` elsewhere.
///
/// Each request is an alignment barrier, a fresh monotonic generation, and
/// then [`RankRolloutState::serve_request`] — the same per-rank protocol
/// the in-process drivers run, so its traffic window (which excludes the
/// alignment barrier) is comparable 1:1 with theirs. With `opts.self_heal` a
/// [`membership_round`] precedes every request; a healed world restarts
/// the batch from request 0, so the evidence rank 0 gathers at the end is
/// always from full-strength, bitwise-deterministic serves.
fn run_rank(
    rank: usize,
    peers: &[SocketAddr],
    inf: &ParallelInference,
    initial: &Tensor3,
    fault: Option<&FaultPlan>,
    opts: &ServeOpts,
    mut heal: Option<HealDriver<'_>>,
) -> Result<Option<WorldRun>, String> {
    let n = peers.len();
    if rank >= n {
        return Err(format!("--rank {rank} out of range for {n} peers"));
    }
    let part = *inf.partition();
    if part.rank_count() != n {
        return Err(format!(
            "fleet is partitioned over {} ranks but {n} peers were given",
            part.rank_count()
        ));
    }
    let history = [initial.clone()];
    inf.validate_request(&history, opts.steps)
        .map_err(|e| e.to_string())?;
    let mut st = inf.rank_state(rank);
    if opts.self_heal && !st.quiesces() {
        return Err(
            "--self-heal serves the kill-to-respawn gap with fallback halos, which needs \
             --halo-policy zero-fill or last-known (and a halo-exchanging fleet)"
                .into(),
        );
    }

    let mut epoch = opts.start_epoch;
    let comm = connect_tcp_world(rank, peers, epoch_base(epoch), opts.connect_timeout, fault)
        .map_err(|e| format!("rank {rank}: TCP rendezvous failed: {e}"))?;
    let mut cart = CartComm::new(comm, part.py(), part.px(), false);
    // Survivors keep serving through the kill-to-respawn gap: a dead
    // neighbor degrades to the fallback strip instead of aborting the rank
    // (the degraded serves are discarded when the healed batch restarts).
    st.set_survive_dead(opts.self_heal);

    // Pre-registered so the hot loop is lock-free (registration takes the
    // registry lock once per process).
    let live_requests = opts.record_live.then(|| {
        (
            pde_telemetry::counter(
                "pdeml_requests_total",
                "Rollout requests served by the warm engine",
            ),
            pde_telemetry::histogram(
                "pdeml_request_latency_us",
                "Warm rollout request latency in microseconds",
            ),
        )
    });

    let requests = opts.requests;
    let steps = opts.steps;
    let mut req0_delta = TrafficReport::default();
    let mut req0_traj: Vec<Tensor3> = Vec::new();
    let mut trajectory: Vec<Tensor3> = Vec::new();
    // A heal restarts the WHOLE batch: the degraded serves between the kill
    // and the detection are discarded, so every request in the evidence —
    // including the request-0 trajectory gathered below — was served by a
    // full-strength world and stays bitwise-deterministic.
    'batch: loop {
        let mut req = 0;
        while req < requests {
            if opts.kill_at == Some(req) {
                // Chaos: die at the top of this request, as abruptly as a
                // crashed process — the OS closing the sockets is the only
                // goodbye the survivors get.
                std::process::exit(KILL_EXIT);
            }
            if opts.self_heal
                && membership_round(rank, &mut cart, &mut epoch, &part, opts, fault, &mut heal)?
            {
                continue 'batch;
            }
            cart.comm_mut().barrier(); // alignment — outside the traffic window
            cart.comm_mut()
                .set_generation(epoch_base(epoch) | (req as u32 + 1));
            let t0 = Instant::now();
            let served = st.serve_request(&mut cart, &history, steps, &mut trajectory, |_| {});
            if let Some((reqs, lat)) = live_requests {
                reqs.inc(pde_telemetry::DRIVER);
                lat.record(t0.elapsed().as_micros() as u64);
            }
            if req == 0 {
                req0_delta = served.traffic;
                req0_traj.clone_from(&trajectory);
            }
            req += 1;
        }
        // Post-batch verdict: a kill on the last request may be detected
        // only after its degraded serve — never gather over a fresh corpse.
        if opts.self_heal
            && membership_round(rank, &mut cart, &mut epoch, &part, opts, fault, &mut heal)?
        {
            continue 'batch;
        }
        break;
    }

    // Gather request-0 evidence at rank 0: flattened physical trajectory
    // plus the traffic delta. Collectives are fault-exempt, so this works
    // under any injected plan.
    let flat: Vec<f64> = req0_traj
        .iter()
        .flat_map(|t| t.as_slice().iter().copied())
        .collect();
    let gathered_traj = cart.comm_mut().gather(0, &flat);
    let gathered_traffic = cart.comm_mut().gather(0, &encode_traffic(&req0_delta));
    let Some(trajs) = gathered_traj else {
        return Ok(None); // worker ranks are done; Drop sends the FIN
    };
    let reports = gathered_traffic.expect("root sees both gathers");

    let (c, _, _) = initial.shape();
    let mut histories: Vec<Vec<Tensor3>> = Vec::with_capacity(n);
    for (r, flat) in trajs.iter().enumerate() {
        let b = part.block_of_rank(r);
        let plane = c * b.h * b.w;
        if flat.len() != plane * (steps + 1) {
            return Err(format!(
                "rank {r} gathered {} values, expected {} ({} states of {c}x{}x{})",
                flat.len(),
                plane * (steps + 1),
                steps + 1,
                b.h,
                b.w
            ));
        }
        histories.push(
            (0..=steps)
                .map(|k| Tensor3::from_vec(c, b.h, b.w, flat[k * plane..(k + 1) * plane].to_vec()))
                .collect(),
        );
    }
    let traffic = reports
        .iter()
        .enumerate()
        .map(|(r, v)| decode_traffic(v).map_err(|e| format!("rank {r}: {e}")))
        .collect::<Result<_, String>>()?;
    Ok(Some(WorldRun {
        states: inf.stitch_states(initial, &histories, steps),
        traffic,
    }))
}

/// Verifies a TCP world run against the in-process channel transport: the
/// same fleet rolled out over crossbeam channels must produce bitwise-
/// identical states AND identical per-rank traffic counters.
fn verify_against_channel(
    inf: &ParallelInference,
    initial: &Tensor3,
    steps: usize,
    run: &WorldRun,
) -> Result<(), String> {
    let reference = inf
        .rollout_from_history(std::slice::from_ref(initial), steps)
        .map_err(|e| e.to_string())?;
    if run.states.len() != reference.states.len() {
        return Err(format!(
            "TCP world produced {} states, channel reference {}",
            run.states.len(),
            reference.states.len()
        ));
    }
    for (k, (a, b)) in run.states.iter().zip(&reference.states).enumerate() {
        let identical = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        if !identical {
            return Err(format!(
                "step {k}: TCP world states diverge bitwise from the channel reference"
            ));
        }
    }
    if run.traffic != reference.traffic {
        return Err(format!(
            "per-rank traffic counters diverge:\n  tcp:     {:?}\n  channel: {:?}",
            run.traffic, reference.traffic
        ));
    }
    Ok(())
}

/// Reads `--self-heal`, refusing configurations that cannot end well: a
/// scheduled `--kill-rank-at` nobody would heal, and healing under the
/// strict halo policy, which has no fallback strips to serve the
/// kill-to-respawn gap with.
fn self_heal_from_args(args: &Args, policy: HaloPolicy) -> Result<bool, String> {
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

/// Brings up the telemetry exporter on `--metrics-addr`, if given.
fn start_exporter(args: &Args, health: &Arc<HealthModel>) -> Result<Option<Exporter>, String> {
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
fn hold_and_stop_exporter(exporter: &mut Option<Exporter>, hold_ms: u64) {
    if hold_ms > 0 && exporter.is_some() {
        println!("holding metrics endpoint for {hold_ms} ms…");
        std::thread::sleep(Duration::from_millis(hold_ms));
    }
    if let Some(e) = exporter.as_mut() {
        e.shutdown();
    }
}

/// `--requests`, the size of the lockstep batch every rank serves; the
/// world gathers request 0's trajectory, so there must be one.
fn requests_from_args(args: &Args) -> Result<usize, String> {
    args.count("requests", 8, "lockstep requests every rank serves")
}

/// One member process of a world (`--rank R --peers …`).
///
/// Self-healing extras: `--self-heal` turns on the per-request membership
/// protocol, `--kill-at REQ` makes this rank die at the top of request REQ
/// (chaos injection, scheduled by the launcher), and `--respawn --epoch E`
/// marks a replacement process that rendezvouses under recovery epoch `E`
/// instead of 0.
fn worker(args: &Args) -> Result<(), String> {
    let rank: usize = args
        .require("rank")?
        .parse()
        .map_err(|_| "--rank: not a rank index".to_string())?;
    let peers = parse_peers(args.require("peers")?)?;
    let requests = requests_from_args(args)?;
    let steps: usize = args.get_or("steps", 2)?;
    let policy = halo_policy_from_args(args)?;
    let fault_plan = fault_plan_from_args(args, policy, peers.len())?;
    let connect_ms: u64 = args.get_or("connect-timeout-ms", 30_000)?;
    let respawn = args.flag("respawn");
    let start_epoch: u32 = args.get_or("epoch", 0)?;
    if respawn && start_epoch == 0 {
        return Err("--respawn needs the recovery --epoch the world healed into".into());
    }
    let kill_at = match args.get("kill-at") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| "--kill-at: not a request index".to_string())?,
        ),
        None => None,
    };
    let opts = ServeOpts {
        requests,
        steps,
        connect_timeout: Duration::from_millis(connect_ms),
        record_live: false,
        self_heal: args.flag("self-heal"),
        kill_at,
        start_epoch,
    };

    let (initial, inf) = fleet_from_args(args, peers.len(), policy, fault_plan.as_ref())?;
    // The session starts *after* fleet setup so the shard holds only the
    // serving loop (training would record under the training world's rank
    // labels, which are meaningless in the merged timeline).
    let trace = args.get("trace-dir").map(|dir| {
        let handle = pde_trace::begin();
        pde_trace::set_thread_rank(rank as u32);
        (std::path::PathBuf::from(dir), handle)
    });
    let run = run_rank(
        rank,
        &peers,
        &inf,
        &initial,
        fault_plan.as_ref(),
        &opts,
        None,
    )?;
    if let Some((dir, handle)) = trace {
        pde_trace::set_thread_rank(pde_trace::DRIVER_RANK);
        let path = write_trace_shard(&dir, rank, handle)?;
        println!(
            "world-node rank {rank}: wrote trace shard {}",
            path.display()
        );
    }
    match run {
        None => {
            println!("world-node rank {rank}: served {requests} lockstep requests x {steps} steps");
            Ok(())
        }
        Some(run) => {
            verify_against_channel(&inf, &initial, steps, &run)?;
            println!(
                "world-node rank 0: {} ranks over TCP — rollouts bitwise-equal to the channel \
                 transport, per-rank traffic counters identical",
                peers.len()
            );
            Ok(())
        }
    }
}

/// The launcher's child processes, by rank. Dropping the table kills and
/// reaps every child still in it, so an early return never leaves orphans.
struct Children(Vec<(usize, std::process::Child)>);

impl Drop for Children {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The orchestrator: N-rank world as N OS processes on localhost.
fn launch(args: &Args) -> Result<(), String> {
    let n: usize = args.get_or("ranks", 4)?;
    if n < 2 {
        return Err("--launch needs --ranks >= 2 (one process per rank)".into());
    }
    let requests = requests_from_args(args)?;
    let steps: usize = args.get_or("steps", 2)?;
    let policy = halo_policy_from_args(args)?;
    let fault_plan = fault_plan_from_args(args, policy, n)?;
    let connect_ms: u64 = args.get_or("connect-timeout-ms", 30_000)?;
    let hold_ms: u64 = args.get_or("hold-ms", 0)?;
    let self_heal = self_heal_from_args(args, policy)?;

    // `--kill-rank-at RANK:REQ` — chaos: child RANK exits abruptly at the
    // top of request REQ; the membership protocol must detect, respawn and
    // re-serve. Rank 0 is the in-process driver, so only 1..n are fair game.
    let kill_rank_at: Option<(usize, usize)> = match args.get("kill-rank-at") {
        Some(spec) => {
            let (r, q) = spec
                .split_once(':')
                .ok_or_else(|| format!("--kill-rank-at '{spec}' is not RANK:REQUEST"))?;
            let rank: usize = r
                .trim()
                .parse()
                .map_err(|_| format!("--kill-rank-at rank '{r}' is not a rank index"))?;
            let req: usize = q
                .trim()
                .parse()
                .map_err(|_| format!("--kill-rank-at request '{q}' is not a request index"))?;
            if rank == 0 || rank >= n {
                return Err(format!(
                    "--kill-rank-at rank {rank} must be a child rank (1..={})",
                    n - 1
                ));
            }
            if req >= requests {
                return Err(format!(
                    "--kill-rank-at request {req} never happens (only {requests} requests)"
                ));
            }
            Some((rank, req))
        }
        None => None,
    };
    // Rank 0's fleet, loaded (or trained) before any child exists: every
    // check that can refuse the run happens before the first spawn.
    let (initial, inf) = fleet_from_args(args, n, policy, fault_plan.as_ref())?;

    // The smoke-scrape contract: both series exist (at zero) from the
    // moment the exporter is up, even before the first request lands.
    let panic_counter = pde_telemetry::counter(
        "pdeml_rank_panics_total",
        "Rank jobs that panicked (world poisons), per rank",
    );
    pde_telemetry::counter(
        "pdeml_requests_total",
        "Rollout requests served by the warm engine",
    );
    // Self-heal observability: the respawn/recovery series exist (at zero)
    // from the first scrape, and `/readyz` dips to degraded while a
    // replacement rank is being brought up.
    let recovering = Arc::new(AtomicBool::new(false));
    let health = Arc::new(HealthModel::new());
    if self_heal {
        pde_telemetry::counter(
            "pdeml_rank_respawns_total",
            "Dead ranks brought back by a supervisor, per rank",
        );
        pde_telemetry::histogram(
            "pdeml_recovery_ms",
            "Wall-clock milliseconds from dead-rank detection to a rebuilt world",
        );
        let flag = recovering.clone();
        health.register("membership", move || {
            if flag.load(Ordering::Acquire) {
                CheckStatus::Degraded("respawning dead ranks".into())
            } else {
                CheckStatus::Ok
            }
        });
    }
    let mut exporter = start_exporter(args, &health)?;

    // Pick N free loopback ports by binding ephemeral listeners, recording
    // the assigned addresses and releasing them — the usual pre-fork
    // rendezvous trick (the reuse race window is negligible on localhost).
    let addrs = reserve_loopback_ports(n)?;

    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the pdeml binary: {e}"))?;
    // One spawner for initial members AND respawned replacements — the only
    // differences are the peer list, the `--respawn --epoch E` marker, and
    // that a replacement never inherits a `--kill-at` (it must live).
    let spawn_rank = |rank: usize,
                      peer_addrs: &[SocketAddr],
                      epoch: Option<u32>,
                      kill: Option<usize>|
     -> Result<std::process::Child, String> {
        let peers: String = peer_addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("world-node")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--peers")
            .arg(peers)
            .arg("--requests")
            .arg(requests.to_string())
            .arg("--steps")
            .arg(steps.to_string())
            .arg("--connect-timeout-ms")
            .arg(connect_ms.to_string());
        // --restore forwards to every child, *including respawned
        // replacements*: a rejoining rank loads the checkpoint instead of
        // retraining the fleet from seed, shrinking the recovery window.
        for flag in [
            "halo-policy",
            "halo-timeout-ms",
            "fault",
            "restore",
            "trace-dir",
        ] {
            if let Some(v) = args.get(flag) {
                cmd.arg(format!("--{flag}")).arg(v);
            }
        }
        if self_heal {
            cmd.arg("--self-heal");
        }
        if let Some(e) = epoch {
            cmd.arg("--respawn").arg("--epoch").arg(e.to_string());
        }
        if let Some(req) = kill {
            cmd.arg("--kill-at").arg(req.to_string());
        }
        cmd.spawn()
            .map_err(|e| format!("cannot spawn rank {rank}: {e}"))
    };

    // RefCell: the respawn callback (running inside rank 0's request loop)
    // swaps replacement children into the same table the final reap reads.
    let children = std::cell::RefCell::new(Children(Vec::with_capacity(n - 1)));
    for rank in 1..n {
        let kill = kill_rank_at.and_then(|(r, req)| (r == rank).then_some(req));
        let child = spawn_rank(rank, &addrs, None, kill)?;
        children.borrow_mut().0.push((rank, child));
    }
    println!(
        "world-node: ranks 1..{n} launched as OS processes, rank 0 in-process; \
         {requests} requests x {steps} steps over localhost TCP"
    );

    if self_heal {
        if let Some(dir) = args.get("restore") {
            println!("self-heal: respawned ranks restore weights from {dir} (no retrain)");
        }
    }
    // Rank 0's respawn half of the membership protocol: reap each corpse
    // (an exit of KILL_EXIT is scheduled chaos; anything else is reported
    // but still healed), fork the replacement into the fresh mesh, and
    // swap it into the child table so the final reap judges the survivor.
    let mut respawn_cb = |dead: &[usize], fresh: &[SocketAddr], epoch: u32| -> Result<(), String> {
        let mut table = children.borrow_mut();
        for &d in dead {
            let slot = table
                .0
                .iter_mut()
                .find(|(r, _)| *r == d)
                .ok_or_else(|| format!("dead rank {d} is not one of my children"))?;
            match slot.1.wait() {
                Ok(status) if status.code() == Some(KILL_EXIT) => {
                    println!("self-heal: rank {d} died on schedule (chaos kill), respawning");
                }
                Ok(status) => println!("self-heal: rank {d} died with {status}, respawning"),
                Err(e) => println!("self-heal: rank {d} corpse unreapable ({e}), respawning"),
            }
            slot.1 = spawn_rank(d, fresh, Some(epoch), None)?;
        }
        Ok(())
    };
    let heal = self_heal.then(|| HealDriver {
        respawn: &mut respawn_cb,
        recovering: Some(recovering.clone()),
    });
    let opts = ServeOpts {
        requests,
        steps,
        connect_timeout: Duration::from_millis(connect_ms),
        record_live: true,
        self_heal,
        kill_at: None,
        start_epoch: 0,
    };
    // Rank 0's shard session — started here (post-training) so it covers
    // exactly the serving loop, like every child's.
    let trace = args.get("trace-dir").map(|dir| {
        let handle = pde_trace::begin();
        pde_trace::set_thread_rank(0);
        (std::path::PathBuf::from(dir), handle)
    });
    let run = run_rank(0, &addrs, &inf, &initial, fault_plan.as_ref(), &opts, heal);
    // Reap the children before judging the run: their exit codes are part
    // of the verdict, and a failed rendezvous must not leave orphans.
    let mut child_failures = Vec::new();
    for (rank, mut child) in std::mem::take(&mut children.into_inner().0) {
        if run.is_err() {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => child_failures.push(format!("rank {rank} exited with {status}")),
            Err(e) => child_failures.push(format!("rank {rank}: wait failed: {e}")),
        }
    }
    // Merge point: the children have exited (their shards are on disk) and
    // rank 0's session must end *before* the channel-reference rollouts
    // below, whose worker threads would otherwise record into this shard.
    if let Some((dir, handle)) = trace {
        pde_trace::set_thread_rank(pde_trace::DRIVER_RANK);
        write_trace_shard(&dir, 0, handle)?;
        let mut shards = Vec::with_capacity(n);
        let mut found = 0usize;
        for rank in 0..n {
            let path = dir.join(format!("shard_rank{rank}.json"));
            match std::fs::read_to_string(&path) {
                Ok(s) => {
                    shards.push(s);
                    found += 1;
                }
                // A chaos-killed rank dies before its dump; the merge
                // carries on with whoever made it to disk.
                Err(_) => println!("trace: no shard from rank {rank} ({})", path.display()),
            }
        }
        let merged_path = dir.join("merged_trace.json");
        std::fs::write(&merged_path, pde_trace::merge_chrome_shards(&shards))
            .map_err(|e| format!("cannot write {}: {e}", merged_path.display()))?;
        println!(
            "trace: merged {found}/{n} shard(s) into {} (open in ui.perfetto.dev)",
            merged_path.display()
        );
    }
    let run = run?.expect("rank 0 gathers the world run");
    if !child_failures.is_empty() {
        panic_counter.inc(pde_telemetry::DRIVER);
        hold_and_stop_exporter(&mut exporter, hold_ms);
        return Err(format!(
            "world-node children failed: {}",
            child_failures.join("; ")
        ));
    }
    verify_against_channel(&inf, &initial, steps, &run)?;
    println!(
        "verify: rollouts bitwise-equal to the channel transport, per-rank traffic \
         counters identical"
    );

    hold_and_stop_exporter(&mut exporter, hold_ms);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_requests_is_refused_with_a_hint_before_the_rendezvous() {
        // A batch of 0 requests leaves no request-0 trajectory to gather.
        let argv: Vec<String> = "--rank 0 --peers 127.0.0.1:1,127.0.0.1:2 \
                                 --connect-timeout-ms 1 --requests 0"
            .split_whitespace()
            .map(String::from)
            .collect();
        let err = world_node(&Args::parse(&argv).unwrap()).unwrap_err();
        assert!(err.starts_with("--requests 0 is out of range"), "{err}");
        assert!(err.contains("at least 1 (default 8)"), "{err}");
    }

    #[test]
    fn peers_parse_and_reject_garbage() {
        let peers = parse_peers("127.0.0.1:4000, 127.0.0.1:4001").unwrap();
        assert_eq!(peers.len(), 2);
        assert!(
            parse_peers("127.0.0.1:4000").is_err(),
            "one peer is no world"
        );
        assert!(parse_peers("localhost:nope,127.0.0.1:1").is_err());
    }

    #[test]
    fn traffic_report_round_trips_through_f64() {
        let t = TrafficReport {
            msgs_sent: 12,
            bytes_sent: 4096,
            msgs_received: 11,
            halos_lost: 3,
            halos_zero_filled: 2,
            halos_stale: 1,
        };
        assert_eq!(decode_traffic(&encode_traffic(&t)), Ok(t));
    }

    #[test]
    fn malformed_traffic_reports_are_errors_not_panics() {
        assert!(decode_traffic(&[]).is_err(), "empty");
        assert!(decode_traffic(&[1.0; 5]).is_err(), "short");
        assert!(decode_traffic(&[1.0; 7]).is_err(), "long");
        for bad in [0.5, -1.0, f64::NAN, f64::INFINITY, 1e300] {
            let mut payload = [1.0; 6];
            payload[3] = bad;
            assert!(decode_traffic(&payload).is_err(), "{bad} is not a count");
        }
    }

    #[test]
    fn verdicts_round_trip() {
        for verdict in [
            Verdict::Healthy,
            Verdict::Heal {
                dead: vec![2],
                fresh_ports: vec![40_000, 40_001, 40_002, 65_535],
            },
            Verdict::Heal {
                dead: vec![1, 3],
                fresh_ports: vec![1, 2, 3, 4],
            },
        ] {
            assert_eq!(Verdict::decode(&verdict.encode(), 4), Ok(verdict));
        }
    }

    #[test]
    fn malformed_verdicts_are_errors_not_panics() {
        let heal = Verdict::Heal {
            dead: vec![2],
            fresh_ports: vec![40_000, 40_001, 40_002, 40_003],
        }
        .encode();
        assert!(Verdict::decode(&heal, 4).is_ok());
        let mutated = |at: usize, v: f64| {
            let mut p = heal.clone();
            p[at] = v;
            p
        };
        for (what, payload) in [
            ("empty", vec![]),
            ("unknown tag", vec![2.0]),
            ("NaN tag", vec![f64::NAN]),
            ("healthy with trailing values", vec![0.0, 1.0]),
            ("heal with nothing else", vec![1.0]),
            ("one port short", heal[..heal.len() - 1].to_vec()),
            ("one value long", [heal.as_slice(), &[1.0]].concat()),
            ("dead count larger than the payload", mutated(1, 3.0)),
            ("dead count larger than the world", mutated(1, 9.0)),
            ("zero dead ranks", vec![1.0, 0.0, 1.0, 2.0, 3.0, 4.0]),
            ("fractional dead count", mutated(1, 1.5)),
            ("negative dead count", mutated(1, -1.0)),
            ("dead rank outside the world", mutated(2, 4.0)),
            ("fractional dead rank", mutated(2, 0.5)),
            ("port over 16 bits", mutated(3, 65_536.0)),
            ("negative port", mutated(4, -1.0)),
            ("NaN port", mutated(5, f64::NAN)),
        ] {
            assert!(Verdict::decode(&payload, 4).is_err(), "{what}: {payload:?}");
        }
        // The payload must fit the world it is decoded for.
        assert!(
            Verdict::decode(&heal, 3).is_err(),
            "ports for 4 ranks, world of 3"
        );
    }
}
