//! `pdeml serve` — the HTTP inference front end over the concurrent
//! scheduler.
//!
//! The server splits one persistent world into `--sub-worlds` disjoint
//! sub-worlds ([`pde_commsim::World::split_even`]), wraps each in an
//! engine and fans requests out through
//! [`pde_ml_core::schedule::Scheduler`] — bounded queue, SLO-aware
//! admission. The listener, request reader, response framing and
//! the `/metrics` `/healthz` `/readyz` routes are [`pde_telemetry::http`] —
//! the same code the metrics exporter runs; this file adds the inference
//! routes.
//!
//! `POST /v1/rollout` with a body in the text wire format of
//! [`pde_ml_cli::wire`] (`model`, `steps`, then window-many `state` lines)
//! yields `200` with `steps`/`state` lines for the rollout (initial state
//! included), written into the listener's pooled reply buffer, or a typed
//! failure: `400` malformed request (a step count whose answer would exceed
//! the response bound among them, and a state holding a NaN or an
//! infinity), `404` unknown model, `422` a rollout that is not finite, `429`
//! shed by admission (queue full / SLO breach), `503` unhealthy. The
//! networks serve in `f32`, so a finite state whose normalized values lie
//! past `f32::MAX` (≈ 3.4e38) is such a `422`, naming step 1: it narrows to
//! infinity on the way in. `GET /v1/example`
//! returns a ready-to-POST request body for the registered model;
//! `POST /shutdown` stops the server (for CI).
//!
//! Every `/v1/rollout` response — success or rejection — carries the
//! request id allocated at ingress (`X-PDEML-Request-Id`) and a
//! `Server-Timing` header with the queue/dispatch/rollout phase split in
//! milliseconds. `--access-log PATH` appends one JSON line per sampled
//! request (`--access-log-sample N` keeps 1-in-N); `--trace-out PATH`
//! records a trace session for the server's lifetime and writes the
//! Chrome-trace JSON on shutdown, with each span tagged by the request id
//! it served (README "End-to-end request tracing").

use crate::args::Args;
use pde_commsim::{TransportKind, World};
use pde_ml_cli::wire::{encode_state_into, parse_rollout_request};
use pde_ml_core::prelude::*;
use pde_telemetry::health::HealthModel;
use pde_telemetry::http::{ops_route, Listener, Request, Response, StopHandle};
use pde_tensor::Tensor3;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sampled JSONL access log for `/v1/rollout`: one line per kept request
/// with the request id and the phase-latency split, so a slow request can
/// be followed from this line to its `Server-Timing` header to its spans
/// in a trace dump — all three carry the same id.
struct AccessLog {
    file: Mutex<std::fs::File>,
    /// Keep 1-in-`sample` requests (1 = log everything; at least 1).
    sample: u64,
    seq: AtomicU64,
}

impl AccessLog {
    fn open(path: &str, sample: u64) -> Result<AccessLog, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open access log {path}: {e}"))?;
        Ok(AccessLog {
            file: Mutex::new(file),
            sample,
            seq: AtomicU64::new(0),
        })
    }

    fn record(&self, line: &str) {
        if !self
            .seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample)
        {
            return;
        }
        if let Ok(mut f) = self.file.lock() {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// One access-log line. Schema (all integers; durations in microseconds):
/// `{"ts_ms":…,"id":…,"model":"…","steps":…,"status":…,
///   "queue_us":…,"dispatch_us":…,"rollout_us":…,"total_us":…}`.
fn access_log_line(
    ts_ms: u64,
    id: RequestId,
    model: &str,
    steps: usize,
    status: &str,
    phases: &RequestPhases,
    total_us: u64,
) -> String {
    // The status line starts with the numeric code ("429 Too Many Requests").
    let code: u32 = status
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    let mut escaped = String::with_capacity(model.len());
    for c in model.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    format!(
        "{{\"ts_ms\":{ts_ms},\"id\":{},\"model\":\"{escaped}\",\"steps\":{steps},\
         \"status\":{code},\"queue_us\":{},\"dispatch_us\":{},\"rollout_us\":{},\
         \"total_us\":{total_us}}}\n",
        id.as_u64(),
        phases.queue_us,
        phases.dispatch_us,
        phases.rollout_us,
    )
}

/// `Server-Timing` value for the phase split, milliseconds as the header's
/// `dur` unit prescribes.
fn server_timing(phases: &RequestPhases) -> String {
    format!(
        "queue;dur={:.3}, dispatch;dur={:.3}, rollout;dur={:.3}",
        phases.queue_us as f64 / 1e3,
        phases.dispatch_us as f64 / 1e3,
        phases.rollout_us as f64 / 1e3,
    )
}

/// Splits a fresh world into sub-worlds, wires per-sub-world health
/// checks, and brings up the scheduler with the model registered.
fn build_scheduler(
    inf: &ParallelInference,
    sub_worlds: usize,
    transport: TransportKind,
    cfg: SchedulerConfig,
    health: &Arc<HealthModel>,
) -> Result<Scheduler, String> {
    let ranks = inf.partition().rank_count();
    let world = World::new(ranks * sub_worlds).with_transport(transport);
    let engines = InferEngine::over_sub_worlds(world, sub_worlds)?;
    crate::fleet::register_engine_health(health, &engines);
    let sched = Scheduler::new(engines, cfg.with_health(health.clone()));
    sched
        .register("serve", inf.clone())
        .map_err(|e| e.to_string())?;
    Ok(sched)
}

/// `pdeml serve` — the HTTP server.
pub fn serve(args: &Args) -> Result<(), String> {
    let sub_worlds = args.count("sub-worlds", 2, "worlds serving requests side by side")?;
    let ranks_per_world = args.count(
        "ranks-per-world",
        2,
        "ranks each sub-world splits the grid over",
    )?;
    let queue_depth = args.count(
        "queue-depth",
        32,
        "admitted requests that may wait for a sub-world",
    )?;
    let slo_ms: u64 = args.get_or("slo-ms", 0)?;
    let transport = args
        .get("transport")
        .map_or(Ok(TransportKind::default()), TransportKind::parse)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let access_log = match args.get("access-log") {
        Some(path) => {
            let sample = args.count(
                "access-log-sample",
                1,
                "requests each logged line stands for",
            )?;
            Some(AccessLog::open(path, sample as u64)?)
        }
        None => None,
    };
    let trace_out = args.get("trace-out").map(str::to_string);

    let (inf, initial, source) = crate::fleet::fleet_from_args(args, ranks_per_world)?;
    let ranks = inf.partition().rank_count();
    let mut cfg = SchedulerConfig::default().with_queue_depth(queue_depth);
    if slo_ms > 0 {
        cfg = cfg.with_slo_ms(slo_ms);
    }
    // The session must be live before the scheduler spawns its dispatcher
    // threads: they adopt the session active *now* and propagate it to the
    // rank jobs of every request they dispatch, which is how serve-path
    // spans (tagged with the request id) end up in this trace.
    let trace = trace_out.as_ref().map(|_| pde_trace::begin());
    let health = Arc::new(HealthModel::new());
    let sched = build_scheduler(&inf, sub_worlds, transport, cfg, &health)?;
    // Unmeasured warm-up requests pay residency costs (model restore,
    // scratch sizing) before traffic arrives. Sequential on purpose: a
    // tiny --queue-depth must not shed the server's own warm-up.
    for _ in 0..sub_worlds {
        sched
            .submit("serve", std::slice::from_ref(&initial), 1)
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }

    let listener = Listener::bind(addr).map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    outln!(
        "serving on http://{} — model 'serve' from {source} \
         ({sub_worlds} sub-world(s) x {ranks} ranks, {} transport, \
         queue {queue_depth}, slo {})",
        listener.local_addr(),
        transport.label(),
        if slo_ms > 0 {
            format!("{slo_ms} ms")
        } else {
            "off".into()
        }
    );
    outln!("POST /v1/rollout (GET /v1/example for a request body); /metrics /healthz /readyz; POST /shutdown to stop");

    let server = Server {
        sched,
        health,
        stop: listener.stop_handle(),
        initial,
        window: inf.window(),
        access_log,
    };
    // Returns once /shutdown was answered and every connection has closed;
    // dropping the server's scheduler then joins its dispatchers after the
    // queue drains.
    listener.run(move |request| server.route(request));
    outln!("shutdown requested; scheduler drained");
    if let (Some(path), Some(handle)) = (trace_out, trace) {
        let trace = handle.finish();
        std::fs::write(&path, trace.chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!(
            "wrote trace {path}: {} events ({} dropped to ring overflow)",
            trace.events.len(),
            trace.total_dropped()
        );
    }
    Ok(())
}

/// Everything a connection thread needs to answer a request.
struct Server {
    sched: Scheduler,
    health: Arc<HealthModel>,
    stop: StopHandle,
    initial: Tensor3,
    window: usize,
    access_log: Option<AccessLog>,
}

impl Server {
    fn route(&self, request: &mut Request) -> Response {
        if let Some(response) = ops_route(request, &self.health) {
            return response;
        }
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/v1/example") => {
                let mut body = std::mem::take(&mut request.reply);
                body.push_str("model serve\nsteps 2\n");
                for _ in 0..self.window {
                    encode_state_into(&mut body, &self.initial);
                }
                Response::text("200 OK", body)
            }
            ("POST", "/v1/rollout") => {
                let reply = std::mem::take(&mut request.reply);
                self.rollout(request.body(), reply)
            }
            ("POST", "/shutdown") => {
                self.stop.stop();
                Response::text("200 OK", "shutting down\n")
            }
            _ => Response::text("404 Not Found", "unknown route\n"),
        }
    }

    /// Serves one `/v1/rollout` body; a `200` answer is written into
    /// `reply`.
    fn rollout(&self, body: &[u8], mut reply: String) -> Response {
        let text = String::from_utf8_lossy(body);
        let (model, steps, history) = match parse_rollout_request(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                reply.push_str(&e);
                reply.push('\n');
                return Response::text("400 Bad Request", reply);
            }
        };
        // The request id is allocated at ingress, before admission, so
        // even a shed request has an id its 429 can be correlated by.
        let id = RequestId::fresh();
        let ingress = Instant::now();
        // Admission happens inside submit; the wait happens here, on
        // this connection's thread.
        let (result, phases) = match self.sched.submit_with_id(id, &model, &history, steps) {
            Ok(ticket) => ticket.wait_traced(),
            Err(e) => (Err(e), RequestPhases::default()),
        };
        let total_us = ingress.elapsed().as_micros() as u64;
        let status = match result {
            Ok(rollout) => {
                // A finite input can still drive the networks out of range
                // (1e308 overflows; past f32::MAX, normalized, the serving
                // networks see infinity): such a trajectory is not an answer.
                let non_finite = rollout
                    .states
                    .iter()
                    .position(|s| !s.as_slice().iter().all(|v| v.is_finite()));
                if let Some(step) = non_finite {
                    let _ = writeln!(
                        reply,
                        "step {step} of the rollout holds a NaN or infinite value — the \
                         input is outside what the model was trained on"
                    );
                    "422 Unprocessable Content"
                } else {
                    let _ = writeln!(reply, "steps {}", rollout.states.len() - 1);
                    for state in &rollout.states {
                        encode_state_into(&mut reply, state);
                    }
                    "200 OK"
                }
            }
            Err(e) => {
                let _ = writeln!(reply, "{e}");
                status_for(&e)
            }
        };
        if let Some(log) = &self.access_log {
            let ts_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            log.record(&access_log_line(
                ts_ms, id, &model, steps, status, &phases, total_us,
            ));
        }
        Response {
            extra_headers: format!(
                "X-PDEML-Request-Id: {id}\r\nServer-Timing: {}\r\n",
                server_timing(&phases)
            ),
            ..Response::text(status, reply)
        }
    }
}

/// HTTP status for a failed rollout: caller errors are 4xx, shed load is
/// 429 (retryable), infrastructure trouble is 503.
fn status_for(e: &InferError) -> &'static str {
    match e {
        InferError::UnknownModel { .. } => "404 Not Found",
        InferError::Rejected {
            reason: RejectReason::QueueFull | RejectReason::SloBreach,
        } => "429 Too Many Requests",
        InferError::Rejected {
            reason: RejectReason::Unhealthy,
        } => "503 Service Unavailable",
        InferError::Recovering { .. } => "503 Service Unavailable",
        _ => "400 Bad Request",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_telemetry::http::{MAX_REQUEST_BODY, MAX_REQUEST_HEAD, REQUEST_DEADLINE};
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpStream};
    use std::time::Duration;

    /// Runs `check` against `pdeml serve`'s router over a quick
    /// one-sub-world scheduler, listening on an ephemeral port.
    fn on_serve_listener(check: impl Fn(&str, SocketAddr)) {
        let health = Arc::new(HealthModel::new());
        let (inf, initial) = crate::fleet::quick_fleet(2, PaddingStrategy::ZeroPad).unwrap();
        let sched = build_scheduler(
            &inf,
            1,
            TransportKind::Channel,
            SchedulerConfig::default(),
            &health,
        )
        .unwrap();
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let stop = listener.stop_handle();
        let server = Server {
            sched,
            health,
            stop: stop.clone(),
            initial,
            window: inf.window(),
            access_log: None,
        };
        let accept_loop =
            std::thread::spawn(move || listener.run(move |request| server.route(request)));
        check("serve", addr);
        stop.stop();
        accept_loop.join().unwrap();
    }

    /// Runs `check` against both listeners built on `pde_telemetry::http`:
    /// the metrics exporter, then `pdeml serve`.
    fn on_both_listeners(check: impl Fn(&str, SocketAddr)) {
        let exporter =
            pde_telemetry::exporter::serve("127.0.0.1:0", Arc::new(HealthModel::new())).unwrap();
        check("exporter", exporter.local_addr());
        drop(exporter);
        on_serve_listener(check);
    }

    /// Sends `request`, half-closes, and returns everything the server
    /// answers before it closes.
    fn exchange(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn status_line(response: &str) -> &str {
        response.lines().next().unwrap_or("")
    }

    fn encode_state(t: &Tensor3) -> String {
        let mut line = String::new();
        encode_state_into(&mut line, t);
        line
    }

    #[test]
    fn a_request_split_into_one_byte_segments_still_routes() {
        on_both_listeners(|who, addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            for byte in b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi" {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(status_line(&response).contains("200"), "{who}: {response}");
            assert!(
                response.ends_with("overall: healthy\n"),
                "{who}: {response}"
            );
        });
    }

    #[test]
    fn requests_outside_the_bounds_are_refused_from_what_was_read() {
        // A head of `len` bytes before the blank line.
        let head = |len: usize| {
            let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
            head.resize(len, b'a');
            head
        };
        let terminated = |len: usize| [head(len).as_slice(), b"\r\n\r\n"].concat();
        let post = |length: &str, body: &str| {
            format!("POST /v1/rollout HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{body}")
                .into_bytes()
        };
        // Parses as a complete rollout request on its own, so only the
        // unmet Content-Length can refuse it.
        let short_body = "model serve\nsteps 0\nstate 1 1 1 0.0\n";
        let cases = [
            ("200", "overall: healthy", terminated(MAX_REQUEST_HEAD)),
            (
                "400",
                "request head too large",
                terminated(MAX_REQUEST_HEAD + 1),
            ),
            ("400", "request head too large", head(MAX_REQUEST_HEAD + 4)),
            (
                "400",
                "request body too large",
                post(&(MAX_REQUEST_BODY + 1).to_string(), ""),
            ),
            ("400", "Content-Length is not a number", post("lots", "")),
            (
                "400",
                "connection closed mid-request",
                post(&(short_body.len() + 1).to_string(), short_body),
            ),
        ];
        on_both_listeners(|who, addr| {
            for (status, why, request) in &cases {
                let t0 = Instant::now();
                let response = exchange(addr, request);
                assert!(status_line(&response).contains(status), "{who}: {response}");
                assert!(response.contains(why), "{who}: {response}");
                assert!(
                    t0.elapsed() < REQUEST_DEADLINE / 2,
                    "{who}: '{why}' is decided from the bytes read, not by the deadline"
                );
            }
        });
    }

    #[test]
    fn a_slow_writer_gets_one_deadline_for_head_and_body() {
        // ~60 head bytes at one per 25 ms spend most of the budget on the
        // head; the body then trickles on. The cut-off must come one
        // REQUEST_DEADLINE after the connect, not one after the head.
        let request = [
            b"POST /v1/rollout HTTP/1.1\r\nHost: slow\r\nContent-Length: 4000\r\n\r\n".as_slice(),
            &[b'x'; 4000],
        ]
        .concat();
        on_both_listeners(|who, addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            let connected = Instant::now();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(25)))
                .unwrap();
            let mut response = Vec::new();
            let mut chunk = [0u8; 1024];
            for byte in &request {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                // Doubles as the pacing sleep: blocks 25 ms unless the
                // server has answered.
                if let Ok(n) = stream.read(&mut chunk) {
                    response.extend_from_slice(&chunk[..n]);
                    break;
                }
            }
            let answered = connected.elapsed();
            let response = String::from_utf8_lossy(&response);
            assert!(status_line(&response).contains("400"), "{who}: {response}");
            assert!(response.contains("request too slow"), "{who}: {response}");
            assert!(
                answered >= REQUEST_DEADLINE && answered < REQUEST_DEADLINE * 3 / 2,
                "{who}: cut off after {answered:?}, deadline is {REQUEST_DEADLINE:?}"
            );
        });
    }

    #[test]
    fn a_rollout_200_matches_the_pre_merge_server_byte_for_byte() {
        // Golden bytes captured from the server as it was before the HTTP
        // merge (`serve.rs::respond_with`), for a zero-step rollout — which
        // echoes the request's state, so the response is independent of the
        // trained weights — with the two per-request header values masked.
        let sent = [
            "0",
            "-0",
            "1",
            "-2.5e-17",
            "0.1",
            "1e300",
            "2.2250738585072014e-308",
            "3",
        ];
        let echoed = [
            "0.00000000000000000e0",
            "-0.00000000000000000e0",
            "1.00000000000000000e0",
            "-2.49999999999999995e-17",
            "1.00000000000000006e-1",
            "1.00000000000000005e300",
            "2.22507385850720138e-308",
            "3.00000000000000000e0",
        ];
        let state_line = |values: &[&str]| {
            let mut line = String::from("state 4 16 16");
            for i in 0..4 * 16 * 16 {
                line.push(' ');
                line.push_str(values[i % values.len()]);
            }
            line.push('\n');
            line
        };
        let body = format!("model serve\nsteps 0\n{}", state_line(&sent));
        let expected = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 23830\r\nX-PDEML-Request-Id: *\r\nServer-Timing: *\r\n\
             Connection: close\r\n\r\nsteps 0\n{}",
            state_line(&echoed)
        );
        on_serve_listener(|_, addr| {
            let response = exchange(
                addr,
                format!(
                    "POST /v1/rollout HTTP/1.1\r\nHost: golden\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
            let masked: String = response
                .split_inclusive("\r\n")
                .map(|line| {
                    match ["X-PDEML-Request-Id: ", "Server-Timing: "]
                        .iter()
                        .find(|name| line.starts_with(**name))
                    {
                        Some(name) => format!("{name}*\r\n"),
                        None => line.to_string(),
                    }
                })
                .collect();
            assert_eq!(masked, expected);
        });
    }

    #[test]
    fn a_hostile_step_count_is_a_400_and_serving_carries_on() {
        let post = |body: &str| {
            format!(
                "POST /v1/rollout HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        };
        on_serve_listener(|_, addr| {
            let example = exchange(addr, b"GET /v1/example HTTP/1.1\r\n\r\n");
            let body = example.split_once("\r\n\r\n").unwrap().1.to_string();
            // u64::MAX made `n_steps + 1` wrap and panicked both ranks; 1e8
            // would have asked for a ~800 GB trajectory.
            for steps in [u64::MAX.to_string(), "100000000".into()] {
                let hostile = body.replace("steps 2\n", &format!("steps {steps}\n"));
                let response = exchange(addr, &post(&hostile));
                assert!(status_line(&response).contains("400"), "{response}");
                assert!(
                    response.contains("more than one response carries"),
                    "{response}"
                );
            }
            let response = exchange(addr, &post(&body));
            assert!(status_line(&response).contains("200"), "{response}");
            let response = exchange(addr, b"GET /readyz HTTP/1.1\r\n\r\n");
            assert!(status_line(&response).contains("200"), "{response}");
        });
    }

    #[test]
    fn non_finite_input_is_a_400_and_a_non_finite_rollout_a_422() {
        let post = |body: &str| {
            format!(
                "POST /v1/rollout HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        };
        on_serve_listener(|_, addr| {
            let example = exchange(addr, b"GET /v1/example HTTP/1.1\r\n\r\n");
            let body = example.split_once("\r\n\r\n").unwrap().1.to_string();
            // The example body with every value of its state set to `v`.
            let filled = |v: &str| {
                let (head, state) = body.split_once("state ").unwrap();
                let dims: Vec<&str> = state.split_whitespace().take(3).collect();
                let n: usize = dims.iter().map(|d| d.parse::<usize>().unwrap()).product();
                format!("{head}state {} {}\n", dims.join(" "), vec![v; n].join(" "))
            };
            for v in ["NaN", "inf", "-inf"] {
                let response = exchange(addr, &post(&filled(v)));
                assert!(status_line(&response).contains("400"), "{v}: {response}");
                assert!(response.contains("NaN or infinite"), "{v}: {response}");
            }
            // Finite, but far outside the training data: the networks
            // overflow and every predicted value is NaN. Past f32's range
            // the serving networks' input itself narrows to infinity.
            for v in ["1e308", "1e39", "-1e39"] {
                let response = exchange(addr, &post(&filled(v)));
                assert!(status_line(&response).contains("422"), "{v}: {response}");
                assert!(
                    response.contains("step 1 of the rollout"),
                    "{v}: {response}"
                );
            }
            let response = exchange(addr, &post(&body));
            assert!(status_line(&response).contains("200"), "{response}");
            let response = exchange(addr, b"GET /readyz HTTP/1.1\r\n\r\n");
            assert!(status_line(&response).contains("200"), "{response}");
        });
    }

    #[test]
    fn state_lines_round_trip_bitwise() {
        let t = Tensor3::from_vec(
            2,
            1,
            3,
            vec![0.1, -2.5e-17, 3.0, f64::MIN_POSITIVE, 1e300, -0.0],
        );
        let body = format!("model m\nsteps 4\n{}", encode_state(&t));
        let (model, steps, history) = parse_rollout_request(&body).unwrap();
        assert_eq!(model, "m");
        assert_eq!(steps, 4);
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].as_slice(), t.as_slice(), "exact f64 round-trip");
    }

    #[test]
    fn access_log_line_is_json_with_the_three_phases() {
        let phases = RequestPhases {
            queue_us: 120,
            dispatch_us: 45,
            rollout_us: 9_800,
        };
        let line = access_log_line(
            1_700_000_000_000,
            RequestId(42),
            "se\"rve",
            3,
            "429 Too Many Requests",
            &phases,
            10_000,
        );
        assert!(line.ends_with('\n'));
        assert_eq!(
            line.trim_end(),
            "{\"ts_ms\":1700000000000,\"id\":42,\"model\":\"se\\\"rve\",\"steps\":3,\
             \"status\":429,\"queue_us\":120,\"dispatch_us\":45,\"rollout_us\":9800,\
             \"total_us\":10000}"
        );
        assert_eq!(
            server_timing(&phases),
            "queue;dur=0.120, dispatch;dur=0.045, rollout;dur=9.800"
        );
    }

    /// `pdeml serve FLAG 0` fails with a hint before it opens the access
    /// log or loads a model (there is none: without `--quick` or `--model`
    /// the first step past the flags would fail on its own).
    fn assert_zero_refused(flag: &str, default: usize) {
        let log = std::env::temp_dir().join(format!("pdeml_zero_{}.jsonl", std::process::id()));
        let log = log.to_string_lossy();
        let argv = ["--access-log", &log, flag, "0"].map(String::from);
        let err = serve(&Args::parse(&argv).unwrap()).unwrap_err();
        assert!(!std::path::Path::new(&*log).exists(), "{err}");
        assert!(
            err.starts_with(&format!("{flag} 0 is out of range")),
            "{err}"
        );
        assert!(
            err.contains(&format!("at least 1 (default {default})")),
            "{err}"
        );
    }

    #[test]
    fn zero_sub_worlds_is_refused_with_a_hint() {
        assert_zero_refused("--sub-worlds", 2);
    }

    #[test]
    fn zero_ranks_per_world_is_refused_with_a_hint() {
        assert_zero_refused("--ranks-per-world", 2);
    }

    #[test]
    fn zero_queue_depth_is_refused_with_a_hint() {
        assert_zero_refused("--queue-depth", 32);
    }

    #[test]
    fn zero_access_log_sample_is_refused_with_a_hint() {
        assert_zero_refused("--access-log-sample", 1);
    }

    #[test]
    fn malformed_requests_are_parse_errors() {
        assert!(parse_rollout_request("").is_err());
        assert!(parse_rollout_request("model m\nsteps 2\n").is_err());
        assert!(parse_rollout_request("model m\nstate 1 1 1 0.0\n").is_err());
        assert!(parse_rollout_request("steps 2\nstate 1 1 1 0.0\n").is_err());
        // Value count must match the declared dims.
        assert!(parse_rollout_request("model m\nsteps 1\nstate 1 2 2 0.0\n").is_err());
        // Dims must not overflow.
        let huge = format!("model m\nsteps 1\nstate {} {} 2 0.0\n", usize::MAX, 2);
        assert!(parse_rollout_request(&huge).is_err());
    }
}
