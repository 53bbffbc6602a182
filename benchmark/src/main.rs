//! The repo benchmark. See `benchmark/README.md`.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints its metrics, the result line last. Without
//! `--workload` (or with `--repeat N`) every run is a fresh child process of
//! this executable, so each workload's peak memory is its own.

mod adapter;
mod affinity;
mod http;
mod layers;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use adapter::Shape;
use report::{Declared, Report};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: pde-benchmark [--workload train_paper|rollout_paper|rollout_toy|serve_http]
                     [--seed N] [--seconds S] [--trace 0|1 | --traced] [--repeat N] [--check]
  no --workload   run every workload, each in a fresh process
  --trace 1       the per-layer run: the benchmark's own spans, shortened workloads,
                  Chrome trace written to benchmark/out/
  --repeat N      N fresh runs per workload; prints median, quartiles, (max-min)/median
  --check         validate the emitted metrics against ./BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    repeat: Option<usize>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        repeat: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--traced" => args.traced = true,
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                args.repeat = Some(n);
            }
            "--check" => args.check = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}' (one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

/// `BENCHMARK.json` of the directory the benchmark runs from.
fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read ./BENCHMARK.json (run from the repo root): {e}"))?;
    Declared::parse(&text)
}

fn run_workload(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    if traced {
        return layers::run(name, seed, seconds);
    }
    match name {
        "train_paper" => workloads::train_paper(seed, seconds),
        "rollout_paper" => workloads::rollout(Shape::Paper, seed, seconds),
        "rollout_toy" => workloads::rollout(Shape::Toy, seed, seconds),
        "serve_http" => workloads::serve_http(seed, seconds),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// One workload in this process: the table, then the result line.
fn single(name: &str, args: &Args, seconds: u64) -> Result<bool, String> {
    let report = run_workload(name, args.seed, seconds, args.traced)?;
    print!("{}", report.human());
    let mut ok = report.correct;
    if args.check {
        let problems = declared()?.check(&report, args.traced);
        for p in &problems {
            println!("  CHECK: {p}");
        }
        ok &= problems.is_empty();
    }
    println!("{}", report.json_line());
    Ok(ok)
}

/// Runs `name` in a fresh child process, echoes its table and returns the
/// report rebuilt from its result line.
fn child(name: &str, args: &Args, seconds: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.check {
        cmd.arg("--check");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((table, line)) => (table, line),
        None => ("", stdout.trim_end()),
    };
    println!("{table}");
    let report = Report::from_json_line(name, line).map_err(|e| {
        format!(
            "{name} run printed no result line ({e}); exit {:?}; stderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    if !out.status.success() {
        return Err(format!(
            "{name} run failed its checks (exit {:?})",
            out.status.code()
        ));
    }
    Ok(report)
}

/// Median, quartiles and relative range of every metric over `runs`.
fn spread_table(name: &str, runs: &[Report]) {
    println!("spread of {name} over {} fresh runs:", runs.len());
    println!(
        "  {:<44} {:>14} {:>14} {:>14} {:>12}  unit",
        "metric", "median", "q1", "q3", "(max-min)/med"
    );
    for m in &runs[0].metrics {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.value(&m.name)).collect();
        let median = stats::median(&values);
        let [q1, _, q3] = if values.len() >= 2 {
            stats::quartiles(&values)
        } else {
            [median; 3]
        };
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let range = if median != 0.0 {
            (hi - lo) / median.abs()
        } else {
            0.0
        };
        println!(
            "  {:<44} {median:>14.6} {q1:>14.6} {q3:>14.6} {range:>12.4}  {}",
            m.name, m.unit
        );
    }
}

/// Every workload (or the one named) `repeat` times, each run a fresh process.
fn parent(args: &Args, seconds: u64) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut ok = true;
    for name in names {
        let mut runs = Vec::new();
        for _ in 0..args.repeat.unwrap_or(1) {
            let report = child(name, args, seconds)?;
            ok &= report.correct;
            runs.push(report);
        }
        if args.repeat.is_some() {
            spread_table(name, &runs);
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    spans::process_start();
    let outcome = parse_args().and_then(|args| {
        let cores = affinity::cpus();
        if cores < adapter::RANKS {
            return Err(format!(
                "the benchmark runs {} rank threads and needs as many cores; this host has {cores}",
                adapter::RANKS
            ));
        }
        let seconds = match args.seconds {
            Some(s) => s,
            None => declared()?.run_seconds,
        };
        match (&args.workload, args.repeat) {
            (Some(name), None) => single(name, &args, seconds),
            _ => parent(&args, seconds),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pde-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
