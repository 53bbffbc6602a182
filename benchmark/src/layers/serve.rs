//! `cli.serve`: the `pdeml serve` process at three offered rates, with what
//! the HTTP front end adds on top of the scheduler's own phase split.

use super::{timed_ms, Probes, Replica};
use crate::http::{self, Sample};
use crate::procfs::CpuSample;
use crate::spans::Spans;
use crate::stats::sorted;
use crate::stats::{self, Rng};
use crate::workloads::{self, SERVE_LIMIT_MS, SERVE_RATE};

/// Offered rates, requests per second; the middle one is the reference.
const RATES: [f64; 3] = [200.0, SERVE_RATE, 600.0];

/// The backlog grows when requests of the last third of a phase are sent
/// this much later, on average, than those of the first third.
const BACKLOG_MS: f64 = 1.0;

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// True when the phase met the latency limit on its tail percentile without
/// a growing backlog.
fn sustained(samples: &[Sample], tail_ms: f64) -> bool {
    let third = samples.len() / 3;
    let early = mean(samples[..third].iter().map(Sample::lag_ms));
    let late = mean(samples[samples.len() - third..].iter().map(Sample::lag_ms));
    tail_ms <= SERVE_LIMIT_MS && late - early <= BACKLOG_MS
}

pub fn serve(p: &mut Probes, seed: u64) -> Result<Replica, String> {
    let setup = p
        .main
        .scope("cli.serve.setup", |_| workloads::serve_setup(seed))?;
    let addr = setup.server.addr;
    p.report
        .metric("cli.serve.ready_s", setup.server.ready_s, "s");
    p.report.metric(
        "cli.serve.request_bytes",
        setup.requests[0].len() as f64,
        "B",
    );
    let scrape = timed_ms(
        &mut p.main,
        "cli.serve.metrics_scrape",
        1,
        3 * p.reps,
        || {
            http::fetch(addr, "GET", "/metrics", b"").expect("/metrics answers");
        },
    );
    p.report
        .metric("cli.serve.metrics_scrape_ms", stats::median(&scrape), "ms");

    let phase_s = p.reps as f64;
    let mut rng = Rng::new(seed ^ 0x5E21);
    let pid = Some(setup.server.pid());
    let cpu_before = CpuSample::read(pid)?;
    let mut max_rate_ok = 0.0;
    let mut reference: Vec<Sample> = Vec::new();
    let mut wrong = 0;
    let mut attempted = 0;
    for (i, rate) in RATES.into_iter().enumerate() {
        let n = (rate * phase_s) as usize;
        let mut spans = Spans::new(true, 30 + i as u32);
        let samples = setup.offer(rate, n, &mut rng, &mut spans);
        p.tracks.push(spans);
        attempted += n;
        wrong += samples.iter().filter(|s| !s.good(f64::INFINITY)).count();
        let latencies = sorted(&samples.iter().map(Sample::latency_ms).collect::<Vec<_>>());
        let tail_pct = stats::tail_percentile(n);
        let tail_ms = stats::percentile(&latencies, tail_pct);
        let good = samples.iter().filter(|s| s.good(SERVE_LIMIT_MS)).count();
        let queue: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.server_ms.map(|t| t[0]))
            .collect();
        if queue.is_empty() {
            return Err(format!(
                "no response at {rate} req/s carried a Server-Timing header"
            ));
        }
        let tag = format!("r{rate}");
        let r = &mut p.report;
        r.note(format!("cli.serve {tag}: {n} requests, tail = p{tail_pct}"));
        r.metric(
            &format!("cli.serve.p50_ms.{tag}"),
            stats::percentile(&latencies, 50.0),
            "ms",
        );
        r.metric(&format!("cli.serve.tail_ms.{tag}"), tail_ms, "ms");
        r.metric(
            &format!("cli.serve.goodput_frac.{tag}"),
            good as f64 / n as f64,
            "frac",
        );
        r.metric(
            &format!("cli.serve.queue_ms_p50.{tag}"),
            stats::p50(&queue),
            "ms",
        );
        if sustained(&samples, tail_ms) {
            max_rate_ok = rate;
        }
        if rate == SERVE_RATE {
            reference = samples;
        }
    }
    let cpu_after = CpuSample::read(pid)?;
    p.report.metric("cli.serve.max_rate_ok", max_rate_ok, "1/s");

    // At the reference rate: what the client waited beyond the phases the
    // server accounts for (parse, encode, sockets), and how late sends ran.
    let overhead: Vec<f64> = reference
        .iter()
        .filter_map(|s| s.server_ms.map(|t| s.service_ms() - t.iter().sum::<f64>()))
        .collect();
    p.report.metric(
        "cli.serve.http_overhead_ms_p50",
        stats::p50(&overhead),
        "ms",
    );
    p.report.metric(
        "cli.serve.response_bytes",
        reference[0].wire_bytes as f64,
        "B",
    );
    let lags = sorted(&reference.iter().map(Sample::lag_ms).collect::<Vec<_>>());
    p.report.metric(
        "cli.serve.generator_lag_ms_p99",
        stats::percentile(&lags, 99.0),
        "ms",
    );

    // The reference phase again with the recorder off: the tracing tax.
    let n = reference.len();
    let plain = setup.offer(SERVE_RATE, n, &mut rng, &mut Spans::new(false, 0));
    attempted += n;
    wrong += plain.iter().filter(|s| !s.good(f64::INFINITY)).count();
    let p50 = |samples: &[Sample]| {
        stats::p50(&samples.iter().map(Sample::latency_ms).collect::<Vec<_>>())
    };
    let (traced_ms, plain_ms) = (p50(&reference), p50(&plain));

    Ok(Replica {
        attempted: attempted as u64,
        failed: wrong as u64,
        digest: setup.digest(),
        failures: (wrong > 0)
            .then(|| {
                format!("{wrong} of {attempted} responses were not 200 with the reference bytes")
            })
            .into_iter()
            .collect(),
        tracing_tax_frac: (traced_ms - plain_ms) / plain_ms,
        sys_cpu_frac: cpu_after.sys_frac_since(&cpu_before),
        minor_faults_per_op: (cpu_after.minor_faults - cpu_before.minor_faults) as f64
            / (attempted - n) as f64,
    })
}
