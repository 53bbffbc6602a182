//! The traced run: every layer timed from outside through its public
//! functions, under the benchmark's own spans, on shortened workloads.
//!
//! One traced run fills the whole per-layer table, whichever workload it is
//! named for; the workload picks whose shortened replica supplies the
//! counts, the digest, `bench.tracing_tax_frac` and the `proc.*` rows.

mod rollout;
mod serve;
mod train;

use crate::report::Report;
use crate::spans::{self, Spans};
use std::time::Instant;

/// State every probe shares: the report being filled, the main thread's
/// recorder, the recorders other threads handed back, and the repeat count
/// probes scale their loops by.
pub struct Probes {
    pub report: Report,
    pub main: Spans,
    pub tracks: Vec<Spans>,
    pub reps: usize,
}

/// What the shortened, traced replica of one workload measured.
pub struct Replica {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Time per operation with the benchmark's spans on, over the same with
    /// them off, minus one.
    pub tracing_tax_frac: f64,
    /// Share of the process under test's CPU time spent in the kernel.
    pub sys_cpu_frac: f64,
    pub minor_faults_per_op: f64,
}

/// Runs `f` `warm` times unrecorded, then `reps` times each under a span
/// named `name`; returns the recorded durations in ms.
pub fn timed_ms(
    spans: &mut Spans,
    name: &'static str,
    warm: usize,
    reps: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    for _ in 0..warm {
        f();
    }
    (0..reps.max(1))
        .map(|_| {
            spans.scope(name, |_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect()
}

/// The per-layer run of workload `name`.
pub fn run(name: &str, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut p = Probes {
        report: Report::new(name),
        main: Spans::new(true, 0),
        tracks: Vec::new(),
        // Two repeats of every kernel probe at the declared 15 s.
        reps: (seconds as usize / 7).clamp(1, 3),
    };
    let (fleet, data, train_paper) = train::training(&mut p, seed)?;
    train::tensor(&mut p, seed);
    let (rollout_toy, rollout_paper) = rollout::rollout(&mut p, seed, &fleet, data.snapshots())?;
    drop((fleet, data));
    let serve_http = serve::serve(&mut p, seed)?;

    let replica = match name {
        "train_paper" => train_paper,
        "rollout_paper" => rollout_paper,
        "rollout_toy" => rollout_toy,
        "serve_http" => serve_http,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let Probes {
        mut report,
        main,
        mut tracks,
        ..
    } = p;
    report.attempted = replica.attempted;
    report.failed = replica.failed;
    report.digest = replica.digest;
    for failure in replica.failures {
        report.fail(failure);
    }
    report.metric("bench.tracing_tax_frac", replica.tracing_tax_frac, "frac");
    report.metric("proc.sys_cpu_frac", replica.sys_cpu_frac, "frac");
    report.metric(
        "proc.minor_faults_per_op",
        replica.minor_faults_per_op,
        "count",
    );

    tracks.insert(0, main);
    let spans: usize = tracks.iter().map(Spans::len).sum();
    let path = format!("benchmark/out/trace_{name}.json");
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, spans::chrome_json(&tracks)));
    report.note(match written {
        Ok(()) => format!("{spans} spans on {} tracks written to {path}", tracks.len()),
        Err(e) => format!("{spans} spans recorded; could not write {path}: {e}"),
    });
    Ok(report)
}
