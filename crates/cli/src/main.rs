//! `pdeml` — command-line driver for the pde-ml workspace.
//!
//! ```text
//! pdeml simulate --grid 64 --snapshots 120 --out run.pdeds
//! pdeml train    --data run.pdeds --ranks 4 --epochs 20 --out model/
//! pdeml infer    --data run.pdeds --model model/ --steps 10 --out rollout.csv
//! pdeml serve    --quick --addr 127.0.0.1:8080
//! pdeml scale    --grid 128
//! pdeml info
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency tree at zero beyond the workspace crates. Command output goes
//! through the one writer in [`out`]; `print!` and `println!` are refused.

#![deny(clippy::print_stdout)]

#[macro_use]
mod out;
mod args;
mod commands;
mod fleet;
mod meta;
mod node;
mod serve;

use std::process::ExitCode;

const USAGE: &str = "\
pdeml — parallel ML of PDEs (reproduction of Totounferoush et al., PDSEC 2021)

USAGE:
  pdeml simulate --grid N --snapshots S --out FILE
                 [--boundary outflow|periodic|reflective|absorbing]
  pdeml train    --data FILE --out DIR
                 [--ranks P] [--epochs E] [--train-pairs N]
                 [--strategy neighbor-pad|zero-pad|inner-crop|deconv]
                 [--mode absolute|residual] [--window W] [--seed S] [--lr LR]
                 [--threads-per-rank T] [--quick] [--trace OUT.json]
  pdeml infer    --data FILE --model DIR [--steps K] [--start IDX] [--out CSV]
                 [--halo-policy strict|zero-fill|last-known] [--halo-timeout-ms N]
                 [--fault drop:SRC-DST|loss:RATE:SEED|delay:SRC-DST:MS]
                 [--trace OUT.json]
  pdeml serve    [--quick | --data FILE --model DIR] [--addr HOST:PORT]
                 [--sub-worlds N] [--ranks-per-world R] [--queue-depth N]
                 [--slo-ms N] [--transport channel|tcp]
                 [--access-log PATH] [--access-log-sample N] [--trace-out PATH]
  pdeml world-node --launch [--ranks N] [--requests N] [--steps K]
                 [--halo-policy strict|zero-fill|last-known] [--halo-timeout-ms N]
                 [--fault drop:SRC-DST|loss:RATE:SEED|delay:SRC-DST:MS]
                 [--self-heal] [--kill-rank-at RANK:REQUEST] [--restore DIR]
                 [--metrics-addr HOST:PORT] [--hold-ms N]
                 [--connect-timeout-ms N] [--trace-dir DIR]
  pdeml world-node --rank R --peers HOST:PORT,HOST:PORT,…
                 [--requests N] [--steps K] [--halo-policy …] [--fault …]
                 [--self-heal] [--kill-at REQUEST] [--respawn --epoch E]
  pdeml scale    [--grid N] [--epochs E] [--cores C]
  pdeml info

`--quick` trains the tiny test net on a built-in dataset (no --data/--out).
Counts (`--ranks`, `--window`, `--requests`, serve's sizes and
`--access-log-sample`, scale's `--epochs` and `--cores`) are at least 1,
`simulate --grid` at least 4 and `--snapshots` at least 2, `scale --grid`
at least 32; `--lr` is positive and finite.
`serve` is the HTTP inference front end for one model: it splits one world
into `--sub-worlds` independent sub-worlds of `--ranks-per-world` ranks
behind a bounded request queue of `--queue-depth` with SLO-aware admission
control (shed requests get 429/503, and count on
pdeml_requests_rejected_total{reason=}). POST /v1/rollout serves a window
of states; GET /v1/example prints a ready-to-POST body; /metrics, /healthz
and /readyz answer on the same port. Every rollout
response echoes X-PDEML-Request-Id and a Server-Timing phase split
(queue/dispatch/rollout); `--access-log PATH` appends one JSON line per
sampled request (1-in-N with `--access-log-sample N`) and `--trace-out
PATH` writes a request-id-tagged Chrome trace on shutdown.
`--transport tcp` keeps every rank in-process but moves all messages over
loopback sockets.
`world-node --launch` runs an N-rank world as N OS processes over localhost
TCP (rank 0 stays in the driver process) and verifies the rollouts bitwise
against the in-process channel transport; `--trace-dir DIR` makes every
process dump a Chrome-trace shard and the launcher merge them into
DIR/merged_trace.json, one timeline with a process group per rank.
Performance numbers (latency under load, warm vs cold, channel vs TCP) come
from `bash benchmark/run.sh`, not from these commands.
`--trace OUT.json` records a per-rank timeline (Chrome trace format; open in
Perfetto or chrome://tracing) and prints per rank what the trace saw:
events, busy ms per category, bytes sent, halos lost, events dropped.
`world-node --launch --metrics-addr` serves live Prometheus metrics plus
/healthz and /readyz from the launcher; `--hold-ms` keeps the endpoint up after
the run so a scraper can catch it. `--self-heal` makes the world survive a
dead rank: the launcher detects it, respawns the rank process, rebuilds the
mesh under a fresh generation epoch and re-serves the batch — `--kill-rank-at`
injects exactly that failure deterministically (needs a degrade halo policy).
`world-node --restore DIR` loads the fleet from a `pdeml train` checkpoint
directory instead of retraining it — respawned replacement ranks restore
from the same files, shrinking the recovery window to a weight load.
`--threads-per-rank` caps each training rank's kernel worker pool (default:
cores / ranks; see also the PDEML_THREADS_PER_RANK and
PDEML_KERNEL=scalar|simd environment variables).

Run `pdeml <command>` with no flags to see that command's defaults.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let parsed = match args::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("argument error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // The kernel layer reads these lazily, mid-run, and panics on a bad
    // value; refuse it here, before any command starts work.
    if let Err(e) = pde_tensor::gemm::env_kernel_path().and(pde_tensor::pool::env_thread_budget()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match cmd.as_str() {
        "simulate" => commands::simulate(&parsed),
        "train" => commands::train(&parsed),
        "infer" => commands::infer(&parsed),
        "serve" => serve::serve(&parsed),
        "world-node" => node::world_node(&parsed),
        "scale" => commands::scale(&parsed),
        "info" => commands::info(),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
