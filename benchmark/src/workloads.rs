//! The four workloads as a user meets them, tracing off: set-up, a timed
//! phase whose length is a count derived from `--seconds` (never a clock),
//! output checks on every operation, and the end-to-end metrics.

use crate::adapter::{self, InferEngine, ParallelInference, Shape, Tensor3, TransportKind};
use crate::affinity;
use crate::http::{self, ServerChild};
use crate::procfs;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, Digest, Rng};
use std::time::Instant;

/// Name the rollout workloads register their model under.
pub const MODEL: &str = "bench";
/// Initial snapshots the rollout clients cycle over.
pub const SNAPSHOTS: usize = 4;
/// A workload's set-up runs at least `MIN_SETUPS` times and `setup_s` is
/// the median; a set-up of milliseconds repeats, up to `MAX_SETUPS` times,
/// until `SETUP_BUDGET_S` is spent, because its single timings jitter most.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 0.5;
/// Reference arrival rate of `serve_http`, requests per second.
pub const SERVE_RATE: f64 = 400.0;
/// Latency limit of `serve_http` on its tail percentile, ms from due time.
pub const SERVE_LIMIT_MS: f64 = 10.0;

pub const NAMES: [&str; 4] = ["train_paper", "rollout_paper", "rollout_toy", "serve_http"];

/// Mini-batch (= pairs per epoch) of `train_paper`. A quarter of the paper's
/// 16: at 16 two thirds of the call is the first epoch touching 8 GB for the
/// first time, page by page through the hypervisor — the noisiest thing this
/// host does — and returning that much memory slows the host's handling of
/// every later run for minutes.
pub const TRAIN_BATCH: usize = 4;

/// Epochs of `train_paper`: the first pays every allocation (about 2 s at
/// the seed), each further one is warm (about 1.3 s).
pub fn train_epochs(seconds: u64) -> usize {
    (seconds as usize * 2 / 3).max(2)
}

/// Requests of a closed-loop rollout run: about 5.5 a second at paper shape
/// at the seed, and never fewer than the 100 a p90 needs; 5 000 a second at
/// toy shape, where the seed serves 5 000 to 15 000 depending on the host.
pub fn rollout_requests(shape: Shape, seconds: u64) -> usize {
    match shape {
        Shape::Paper => (seconds as usize * 11 / 2).max(100),
        Shape::Toy => seconds as usize * 5_000,
    }
}

/// Unmeasured, checked requests between set-up and the timed phase. After a
/// second or so of load this host's vCPUs leave the state they idle in, in
/// which cross-thread wake-ups are twice as fast, and the toy set-up is too
/// short to get there; the paper set-up already is that load.
fn rollout_warmup(shape: Shape, n: usize) -> usize {
    match shape {
        Shape::Paper => 2,
        Shape::Toy => n / 10,
    }
}

/// Runs set-up several times, keeps the last result and returns the median
/// of the durations the set-ups report, in seconds. Earlier results are
/// dropped before the next set-up starts, so peak memory is that of one.
fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let (result, seconds) = setup()?;
        last = Some(result);
        times.push(seconds);
    }
    Ok((last.expect("MIN_SETUPS >= 1"), stats::median(&times)))
}

/// A set-up whose whole duration counts.
fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let result = setup()?;
    Ok((result, t.elapsed().as_secs_f64()))
}

fn end_to_end(report: &mut Report, setup_s: f64, rss_mb: f64, per_s: f64, p50: f64, tail: f64) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("throughput_per_s", per_s, "1/s");
    report.metric("latency_ms_p50", p50, "ms");
    report.metric("latency_ms_tail", tail, "ms");
}

/// `train_paper`: one `ParallelTrainer::train` call at paper shape.
pub fn train_paper(seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report::new("train_paper");
    let (batch, epochs) = (TRAIN_BATCH, train_epochs(seconds));
    let (data, setup_s) =
        repeat_setup(|| timed(|| Ok(adapter::seeded_dataset(Shape::Paper, batch + 1, seed))))?;
    let cfg = adapter::train_config(batch, epochs, seed);

    let t = Instant::now();
    let outcome = adapter::train_fleet(Shape::Paper, &cfg, &data, batch, adapter::RANKS);
    let wall_s = t.elapsed().as_secs_f64();

    let passes = (batch * epochs) as u64;
    report.attempted = passes;
    check_training(&mut report, &outcome);
    if !report.correct {
        report.failed = passes;
    }
    report.note(format!(
        "1 train call: batch {batch}, {epochs} epochs, {passes} sample passes, P={}; \
         latency p50 = tail = that call (n=1)",
        adapter::RANKS
    ));
    end_to_end(
        &mut report,
        setup_s,
        procfs::peak_rss_mb(None)?,
        passes as f64 / wall_s,
        wall_s * 1e3,
        wall_s * 1e3,
    );
    Ok(report)
}

/// The training output checks: finite losses, not one byte sent; the digest
/// covers every rank's weights and loss history.
pub fn check_training(report: &mut Report, outcome: &adapter::TrainOutcome) {
    let mut digest = Digest::default();
    for r in &outcome.rank_results {
        if !r.epoch_losses.iter().all(|l| l.is_finite()) {
            report.fail(format!(
                "rank {} has a non-finite loss: {:?}",
                r.rank, r.epoch_losses
            ));
        }
        digest.f64s(&r.weights);
        digest.f64s(&r.epoch_losses);
    }
    if outcome.total_bytes_sent() != 0 {
        report.fail(format!(
            "training sent {} bytes, must be 0",
            outcome.total_bytes_sent()
        ));
    }
    report.digest = digest.value();
}

/// A warm engine with its model registered, the snapshots clients send and
/// the reference rollout of each.
pub struct RolloutSetup {
    pub engine: InferEngine,
    pub inference: ParallelInference,
    pub snapshots: Vec<Tensor3>,
    pub references: Vec<Vec<Tensor3>>,
}

/// What a user pays before the first request of a rollout workload: seeded
/// data, a model trained on it, a warm engine with the model registered, and
/// one checked request per snapshot. Returns the seconds that took. The
/// thread-free reference rollouts every response is compared with are the
/// benchmark's own cost: the first set-up computes them into `references`,
/// before the engine exists, and their time is not counted.
fn serving_setup(
    shape: Shape,
    seed: u64,
    transport: TransportKind,
    references: &mut Option<Vec<Vec<Tensor3>>>,
) -> Result<(RolloutSetup, f64), String> {
    let t = Instant::now();
    // Toy: the `--quick` recipe (6 pairs, batch 4, 2 epochs). Paper: one
    // step on one pair — weights that are no longer the initial ones, from a
    // training run small enough that peak memory is the serving path's.
    let (pairs, batch, epochs) = match shape {
        Shape::Toy => (6, 4, 2),
        Shape::Paper => (1, 1, 1),
    };
    let data = adapter::seeded_dataset(shape, (pairs + 1).max(SNAPSHOTS), seed);
    let cfg = adapter::train_config(batch, epochs, seed);
    let outcome = adapter::train_fleet(shape, &cfg, &data, pairs, adapter::RANKS);
    let inference = adapter::inference(shape, &outcome);
    let snapshots: Vec<Tensor3> = (0..SNAPSHOTS).map(|k| data.snapshot(k).clone()).collect();
    let mut counted = t.elapsed();

    let references = references.get_or_insert_with(|| {
        snapshots
            .iter()
            .map(|s| inference.reference_rollout(s, adapter::STEPS))
            .collect()
    });

    let t = Instant::now();
    let mut engine = pinned_engine(transport)?;
    engine
        .register(MODEL, inference.clone())
        .map_err(|e| e.to_string())?;
    let mut setup = RolloutSetup {
        engine,
        inference,
        snapshots,
        references: references.clone(),
    };
    let (_, failed) = closed_loop(&mut setup, SNAPSHOTS, &mut Spans::new(false, 0))?;
    if failed > 0 {
        return Err(format!(
            "{failed} warm-up rollouts differ from their reference"
        ));
    }
    counted += t.elapsed();
    Ok((setup, counted.as_secs_f64()))
}

/// A warm engine whose rank threads are pinned, rank N to CPU N.
pub fn pinned_engine(transport: TransportKind) -> Result<InferEngine, String> {
    let engine = adapter::engine(transport);
    // Every engine alive names its ranks alike, so the count is a multiple.
    let pinned = affinity::pin_ranks()?;
    if pinned == 0 || pinned % adapter::RANKS != 0 {
        return Err(format!(
            "found {pinned} threads named pdeml-rank-<N>, expected {} per engine",
            adapter::RANKS
        ));
    }
    Ok(engine)
}

/// Set-up of a rollout workload, repeated; returns it with `setup_s`.
pub fn rollout_setup(
    shape: Shape,
    seed: u64,
    transport: TransportKind,
) -> Result<(RolloutSetup, f64), String> {
    let mut references = None;
    repeat_setup(|| serving_setup(shape, seed, transport, &mut references))
}

impl RolloutSetup {
    /// The digest of a rollout workload: the bits of every reference, which
    /// each response was checked against.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for states in &self.references {
            for s in states {
                d.f64s(s.as_slice());
            }
        }
        d.value()
    }
}

/// Bitwise equality of two state sequences.
pub fn same_bits(a: &[Tensor3], b: &[Tensor3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The closed loop of one client, pinned to CPU 0 while it lasts: `n`
/// requests cycling over the snapshots, each timed alone and then checked.
/// Returns latencies in ms and the number of requests that failed or
/// differed from their reference.
pub fn closed_loop(
    setup: &mut RolloutSetup,
    n: usize,
    spans: &mut Spans,
) -> Result<(Vec<f64>, u64), String> {
    let _client = affinity::ClientPin::new()?;
    let mut latencies = Vec::with_capacity(n);
    let mut failed = 0;
    for i in 0..n {
        let k = i % SNAPSHOTS;
        spans.set_request(i as u64 + 1);
        spans.scope("request", |spans| {
            let t = Instant::now();
            let result = spans.scope("core.engine.rollout", |_| {
                setup
                    .engine
                    .rollout(MODEL, &setup.snapshots[k], adapter::STEPS)
            });
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = spans.scope(
                "bench.check",
                |_| matches!(&result, Ok(r) if same_bits(&r.states, &setup.references[k])),
            );
            failed += u64::from(!ok);
        });
    }
    Ok((latencies, failed))
}

/// `rollout_paper` / `rollout_toy`: a warm engine, one closed-loop client.
pub fn rollout(shape: Shape, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report::new(&format!("rollout_{}", shape.label()));
    let (mut setup, setup_s) = rollout_setup(shape, seed, TransportKind::Channel)?;
    let planned = rollout_requests(shape, seconds);
    let off = &mut Spans::new(false, 0);
    let (_, mut failed) = closed_loop(&mut setup, rollout_warmup(shape, planned), off)?;
    // The count fixes the run's length; the clock only ends a run that the
    // host has made half as long again — it must still end.
    let (started, limit_s) = (Instant::now(), 1.5 * seconds as f64);
    let mut latencies = Vec::with_capacity(planned);
    while latencies.len() < planned && started.elapsed().as_secs_f64() < limit_s {
        let chunk = (planned - latencies.len()).min((planned / 20).next_multiple_of(SNAPSHOTS));
        let (ms, bad) = closed_loop(&mut setup, chunk, off)?;
        latencies.extend(ms);
        failed += bad;
    }
    let n = latencies.len();
    if n < planned {
        report.note(format!(
            "stopped after {limit_s} s with {n} of {planned} requests done"
        ));
    }

    report.attempted = n as u64;
    report.failed = failed;
    report.digest = setup.digest();
    if failed > 0 {
        report.fail(format!(
            "{failed} of {n} rollouts failed or differ from their reference"
        ));
    }
    let quiet = stats::quiet(&latencies);
    report.note(format!(
        "closed loop, 1 client, {n} requests x {} steps over {SNAPSHOTS} snapshots; p50, p{} and \
         throughput over the {} requests of the {} quietest of {} windows",
        adapter::STEPS,
        quiet.tail_pct,
        quiet.kept,
        stats::QUIET_WINDOWS,
        stats::WINDOWS
    ));
    // Throughput over the timed requests alone: the client's own checking
    // between them is not the system's time.
    end_to_end(
        &mut report,
        setup_s,
        procfs::peak_rss_mb(None)?,
        1e3 / quiet.mean,
        quiet.p50,
        quiet.tail,
    );
    Ok(report)
}

/// What `serve_http` set-up leaves: the server, the request kinds as wire
/// bytes and the verified reference body of each.
pub struct ServeSetup {
    pub server: ServerChild,
    pub requests: Vec<Vec<u8>>,
    pub references: Vec<Vec<u8>>,
}

/// `state C H W v…` — the server's wire form of one state.
fn encode_state(t: &Tensor3) -> String {
    let (c, h, w) = t.shape();
    let mut line = format!("state {c} {h} {w}");
    for v in t.as_slice() {
        line.push_str(&format!(" {v:.17e}"));
    }
    line.push('\n');
    line
}

/// Parses a rollout response body into its states' values; `None` unless it
/// is `steps K` followed by exactly `K + 1` finite states of shape `shape`.
fn parse_states(body: &[u8], steps: usize, shape: (usize, usize, usize)) -> Option<Vec<Vec<f64>>> {
    let text = std::str::from_utf8(body).ok()?;
    let mut lines = text.lines();
    if lines.next()? != format!("steps {steps}") {
        return None;
    }
    let states: Vec<Vec<f64>> = lines
        .map(|line| {
            let mut tokens = line.split_whitespace();
            let dims = (tokens.next()? == "state").then(|| {
                let mut dim = || tokens.next()?.parse::<usize>().ok();
                Some((dim()?, dim()?, dim()?))
            })??;
            let values: Vec<f64> = tokens.map(|t| t.parse().ok()).collect::<Option<_>>()?;
            let ok = dims == shape
                && values.len() == shape.0 * shape.1 * shape.2
                && values.iter().all(|v| v.is_finite());
            ok.then_some(values)
        })
        .collect::<Option<_>>()?;
    (states.len() == steps + 1).then_some(states)
}

/// Set-up of `serve_http`: start the server, wait for `/readyz`, learn the
/// model from `/v1/example`, build one request per seeded snapshot, verify
/// the first response to each (it becomes the reference) and warm up.
pub fn serve_setup(seed: u64) -> Result<ServeSetup, String> {
    let server = ServerChild::spawn()?;
    let example = http::fetch(server.addr, "GET", "/v1/example", b"")?;
    let text = String::from_utf8_lossy(&example.body).into_owned();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .map(|v| v.trim().to_string())
            .ok_or(format!("/v1/example has no '{name}' line"))
    };
    let model = field("model ")?;
    let steps: usize = field("steps ")?
        .parse()
        .map_err(|e| format!("steps: {e}"))?;
    let dims: Vec<usize> = field("state ")?
        .split_whitespace()
        .take(3)
        .filter_map(|t| t.parse().ok())
        .collect();
    let &[c, h, w] = dims.as_slice() else {
        return Err("/v1/example state line has no C H W".into());
    };
    if (c, h, w) != (4, Shape::Toy.grid(), Shape::Toy.grid()) {
        return Err(format!(
            "expected the 4x16x16 toy model, server has {c}x{h}x{w}"
        ));
    }

    let data = adapter::seeded_dataset(Shape::Toy, SNAPSHOTS, seed);
    let mut requests = Vec::new();
    let mut references = Vec::new();
    for k in 0..SNAPSHOTS {
        let body = format!(
            "model {model}\nsteps {steps}\n{}",
            encode_state(data.snapshot(k))
        );
        let first = http::fetch(server.addr, "POST", "/v1/rollout", body.as_bytes())?;
        if first.status != 200 {
            return Err(format!("reference request {k} answered {}", first.status));
        }
        let states = parse_states(&first.body, steps, (c, h, w)).ok_or(format!(
            "reference response {k} is not {} finite {c}x{h}x{w} states",
            steps + 1
        ))?;
        // The response echoes the request's state as its step 0.
        if !states[0]
            .iter()
            .zip(data.snapshot(k).as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return Err(format!(
                "reference response {k} does not start from the state sent"
            ));
        }
        requests.push(http::request_bytes("POST", "/v1/rollout", body.as_bytes()));
        references.push(first.body);
    }
    let setup = ServeSetup {
        server,
        requests,
        references,
    };
    // Warm the connection path; every answer must already repeat its reference.
    let warm = setup.offer(
        1000.0,
        4 * SNAPSHOTS,
        &mut Rng::new(seed),
        &mut Spans::new(false, 0),
    );
    if let Some(bad) = warm.iter().find(|s| !s.good(f64::INFINITY)) {
        return Err(format!(
            "warm-up request answered {} (matches: {})",
            bad.status, bad.matches
        ));
    }
    Ok(setup)
}

impl ServeSetup {
    /// Offers `n` requests at `rate` per second on a seeded open-loop schedule.
    pub fn offer(
        &self,
        rate: f64,
        n: usize,
        rng: &mut Rng,
        spans: &mut Spans,
    ) -> Vec<http::Sample> {
        let due = http::schedule(rate, n, rng);
        http::open_loop(
            self.server.addr,
            &self.requests,
            &self.references,
            &due,
            spans,
        )
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for body in &self.references {
            d.bytes(body);
        }
        d.value()
    }
}

/// `serve_http`: the real `pdeml serve` under an open loop at the reference
/// rate for the whole run.
pub fn serve_http(seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report::new("serve_http");
    let (setup, setup_s) = repeat_setup(|| timed(|| serve_setup(seed)))?;
    let n = (SERVE_RATE * seconds as f64) as usize;
    let mut rng = Rng::new(seed ^ 0x0A11_0CA7);
    // Two unmeasured seconds at the reference rate: see `rollout_warmup`.
    let warm = setup.offer(
        SERVE_RATE,
        2 * SERVE_RATE as usize,
        &mut rng,
        &mut Spans::new(false, 0),
    );
    let cold_wrong = warm.iter().filter(|s| !s.good(f64::INFINITY)).count();
    let t = Instant::now();
    let samples = setup.offer(SERVE_RATE, n, &mut rng, &mut Spans::new(false, 0));
    let wall_s = t.elapsed().as_secs_f64();
    let rss_mb = procfs::peak_rss_mb(Some(setup.server.pid()))?;

    let good = samples.iter().filter(|s| s.good(SERVE_LIMIT_MS)).count();
    let wrong = cold_wrong + samples.iter().filter(|s| !s.good(f64::INFINITY)).count();
    report.attempted = n as u64;
    report.failed = wrong as u64;
    report.digest = setup.digest();
    if wrong > 0 {
        report.fail(format!(
            "{wrong} of {n} responses were not 200 with the reference bytes"
        ));
    }
    let latencies: Vec<f64> = samples.iter().map(http::Sample::latency_ms).collect();
    let lags: Vec<f64> = samples.iter().map(http::Sample::lag_ms).collect();
    let quiet = stats::quiet(&latencies);
    report.note(format!(
        "open loop at {SERVE_RATE} req/s, {n} requests, <= {} connections, latency from due time; \
         p50 and p{} over the {} requests of the {} quietest of {} windows; over the whole run: \
         limit {SERVE_LIMIT_MS} ms, goodput {:.5} ({good} good), generator lag p99 {:.3} ms",
        http::MAX_CONNECTIONS,
        quiet.tail_pct,
        quiet.kept,
        stats::QUIET_WINDOWS,
        stats::WINDOWS,
        good as f64 / n as f64,
        stats::percentile(&stats::sorted(&lags), 99.0),
    ));
    // Good answers per second of the whole run: goodput folded into the
    // throughput metric.
    end_to_end(
        &mut report,
        setup_s,
        rss_mb,
        good as f64 / wall_s,
        quiet.p50,
        quiet.tail,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_seconds() {
        assert_eq!(train_epochs(15), 10);
        assert_eq!(train_epochs(20), 13);
        assert_eq!(train_epochs(1), 2);
        assert_eq!(rollout_requests(Shape::Paper, 15), 100);
        assert_eq!(rollout_requests(Shape::Paper, 20), 110);
        assert_eq!(rollout_requests(Shape::Toy, 15), 75_000);
    }

    #[test]
    fn state_lines_round_trip_and_reject_wrong_shapes() {
        let t = Tensor3::from_vec(1, 2, 2, vec![1.0, -0.5, 1e-300, 3.25]);
        let body = format!("steps 1\n{}{}", encode_state(&t), encode_state(&t));
        let states = parse_states(body.as_bytes(), 1, (1, 2, 2)).unwrap();
        assert_eq!(states, vec![t.as_slice().to_vec(); 2]);
        assert!(parse_states(body.as_bytes(), 2, (1, 2, 2)).is_none());
        assert!(parse_states(body.as_bytes(), 1, (1, 4, 1)).is_none());
        let nan = body.replace("3.25", "NaN");
        assert!(parse_states(nan.as_bytes(), 1, (1, 2, 2)).is_none());
    }

    #[test]
    fn same_bits_tells_zero_from_negative_zero() {
        let a = vec![Tensor3::from_vec(1, 1, 2, vec![0.0, 1.0])];
        let b = vec![Tensor3::from_vec(1, 1, 2, vec![-0.0, 1.0])];
        assert!(same_bits(&a, &a));
        assert!(!same_bits(&a, &b));
    }
}
