//! The `pdeml serve` child process and the HTTP load the benchmark offers it:
//! a blocking one-shot client for set-up, and the open-loop generator — one
//! thread, at most two connections — that times every request from the
//! instant it was due.

use crate::spans::Spans;
use crate::stats::Rng;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections the generator may hold open at once.
pub const MAX_CONNECTIONS: usize = 2;
/// The generator sleeps until this long before a due time, then spins, so a
/// send is late by microseconds and not by a timer's slack.
const SPIN_NS: u64 = 80_000;

/// A parsed HTTP response.
pub struct Response {
    pub status: u16,
    pub head: String,
    pub body: Vec<u8>,
}

impl Response {
    /// The head and the body of `raw`, once the blank line and all
    /// `Content-Length` bytes after it have arrived.
    fn split(raw: &[u8]) -> Option<(String, &[u8])> {
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
        let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
        let length: usize = header(&head, "content-length")?.parse().ok()?;
        let body = raw.get(head_end + 4..head_end + 4 + length)?;
        Some((head, body))
    }

    fn parse(raw: &[u8]) -> Option<Response> {
        let (head, body) = Self::split(raw)?;
        let status = head.split_whitespace().nth(1)?.parse().ok()?;
        Some(Response {
            status,
            head,
            body: body.to_vec(),
        })
    }

    /// The `queue`, `dispatch` and `rollout` durations (ms) of the
    /// `Server-Timing` header.
    pub fn server_timing_ms(&self) -> Option<[f64; 3]> {
        let value = header(&self.head, "server-timing")?;
        let mut out = [0.0; 3];
        for (slot, phase) in out.iter_mut().zip(["queue", "dispatch", "rollout"]) {
            let entry = value.split(',').find(|e| e.trim().starts_with(phase))?;
            *slot = entry.split("dur=").nth(1)?.trim().parse().ok()?;
        }
        Some(out)
    }
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

/// The bytes of one request as they go on the wire.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One blocking request on a fresh connection (the server closes after
/// every response).
pub fn fetch(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
    let ctx = |e: std::io::Error| format!("{method} {path} on {addr}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(ctx)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(ctx)?;
    stream
        .write_all(&request_bytes(method, path, body))
        .map_err(ctx)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(ctx)?;
    Response::parse(&raw).ok_or_else(|| format!("{method} {path} on {addr}: malformed response"))
}

/// A running `pdeml serve`; shut down and reaped when dropped, panic or not.
pub struct ServerChild {
    child: Child,
    /// Drains the child's stdout so it never blocks on a full pipe.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn to the first `200` from `/readyz`.
    pub ready_s: f64,
}

impl ServerChild {
    /// Where the `pdeml` binary is: `PDEML_BIN`, else beside this executable
    /// (the two builds share a target directory).
    pub fn locate() -> Result<std::path::PathBuf, String> {
        let path = match std::env::var_os("PDEML_BIN") {
            Some(p) => std::path::PathBuf::from(p),
            None => std::env::current_exe()
                .map_err(|e| format!("cannot locate this executable: {e}"))?
                .with_file_name("pdeml"),
        };
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "pdeml binary not found at {} — run `cargo build --release -p pde-ml-cli` or set PDEML_BIN",
                path.display()
            ))
        }
    }

    /// Starts the toy server the issue fixes (`--quick`, one sub-world of
    /// two ranks) on an ephemeral port and polls `/readyz` until it is up.
    pub fn spawn() -> Result<ServerChild, String> {
        let bin = Self::locate()?;
        let started = Instant::now();
        let mut child = Command::new(&bin)
            .args([
                "serve",
                "--quick",
                "--sub-worlds",
                "1",
                "--ranks-per-world",
                "2",
            ])
            .args(["--addr", "127.0.0.1:0"])
            .env("PDEML_THREADS_PER_RANK", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        // From here on the guard owns the child, so an early return reaps it.
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = ServerChild {
            child,
            drain: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s: 0.0,
        };
        // The server prints its bound address once the model is trained.
        let mut line = String::new();
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("pdeml serve exited before it printed its address".into());
            }
            if let Some(rest) = line.split("http://").nth(1) {
                let text = rest.split_whitespace().next().unwrap_or("");
                break text
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("cannot parse server address '{text}': {e}"))?;
            }
        };
        server.addr = addr;
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut backoff = Duration::from_micros(200);
        loop {
            if matches!(fetch(addr, "GET", "/readyz", b""), Ok(r) if r.status == 200) {
                break;
            }
            if Instant::now() > deadline {
                return Err("pdeml serve never became ready".into());
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(20));
        }
        server.ready_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = fetch(self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(3);
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // The pipe closed with the child, so the drain thread has ended.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Due times in ns for `n` requests at `rate` per second: seeded
/// exponential gaps (independent users), scaled so the schedule spans
/// exactly `n / rate` seconds whatever the seed drew.
pub fn schedule(rate: f64, n: usize, rng: &mut Rng) -> Vec<u64> {
    let mut at = 0.0;
    let cumulative: Vec<f64> = (0..n)
        .map(|_| {
            at += rng.exp();
            at
        })
        .collect();
    let span_ns = n as f64 / rate * 1e9;
    cumulative
        .iter()
        .map(|c| (c / at * span_ns) as u64)
        .collect()
}

/// What the generator saw of one request; times in ns since the loop began.
#[derive(Clone, Debug)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// 0 when the request failed before a status arrived.
    pub status: u16,
    /// The body equals the reference for its kind, byte for byte.
    pub matches: bool,
    pub server_ms: Option<[f64; 3]>,
    /// Bytes of the response on the wire, head and body.
    pub wire_bytes: usize,
}

impl Sample {
    /// Latency as an independent user sees it: from the due time, so a
    /// stall also counts against the requests it delayed.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }

    /// Send to completion: what the server and the sockets took.
    pub fn service_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }

    /// Answered 200, with the right bytes, within `limit_ms` of its due time.
    pub fn good(&self, limit_ms: f64) -> bool {
        self.status == 200 && self.matches && self.latency_ms() <= limit_ms
    }
}

struct InFlight {
    index: usize,
    stream: TcpStream,
    sent_ns: u64,
    raw: Vec<u8>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    /// `ppoll(2)`: the one wait that covers "a connection became readable"
    /// and "the next request is due" with nanosecond timeouts.
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Blocks until one of `streams` is readable or `timeout_ns` has passed
/// (`None` waits for a stream only).
fn wait_readable(streams: &VecDeque<InFlight>, timeout_ns: Option<u64>) {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = timeout_ns.map(|ns| Timespec {
        tv_sec: (ns / 1_000_000_000) as i64,
        tv_nsec: (ns % 1_000_000_000) as i64,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` points at `fds.len()` initialised `pollfd`-layout
    // structs that outlive the call, every descriptor is an open socket
    // owned by `streams`, `ts_ptr` is null or points at a live `timespec`,
    // and a null signal mask leaves the mask unchanged. The result is not
    // needed: the caller re-reads every stream and the clock.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, ts_ptr, std::ptr::null());
    }
}

/// Sends `due_ns.len()` requests on the open-loop schedule `due_ns`, request
/// `i` being `requests[i % requests.len()]`, and checks each response body
/// against `expect` for its kind. Never more than [`MAX_CONNECTIONS`] in
/// flight: a request that is due while both are busy waits, and that wait is
/// in its latency and its lag.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expect: &[Vec<u8>],
    due_ns: &[u64],
    spans: &mut Spans,
) -> Vec<Sample> {
    let n = due_ns.len();
    let kinds = requests.len();
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut samples: Vec<Option<Sample>> = vec![None; n];
    let mut active: VecDeque<InFlight> = VecDeque::with_capacity(MAX_CONNECTIONS);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    while next < n || !active.is_empty() {
        let now = now_ns();
        if next < n && active.len() < MAX_CONNECTIONS && due_ns[next] <= now {
            let index = next;
            next += 1;
            spans.set_request(index as u64 + 1);
            let sent = spans.scope("cli.serve.send", |_| {
                let mut stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.write_all(&requests[index % kinds])?;
                // Written while blocking; every read from here on polls.
                stream.set_nonblocking(true)?;
                Ok::<_, std::io::Error>(stream)
            });
            match sent {
                Ok(stream) => active.push_back(InFlight {
                    index,
                    stream,
                    sent_ns: now_ns(),
                    raw: Vec::with_capacity(expect[index % kinds].len() + 512),
                }),
                Err(_) => {
                    let t = now_ns();
                    samples[index] = Some(failed_sample(due_ns[index], t, t));
                }
            }
            continue;
        }
        // Nothing to send yet: wait for a response, but no longer than until
        // shortly before the next due time if a connection is free for it.
        let until_due =
            (next < n && active.len() < MAX_CONNECTIONS).then(|| due_ns[next].saturating_sub(now));
        match until_due {
            Some(ns) if ns <= SPIN_NS => {
                std::thread::yield_now();
                if active.is_empty() {
                    continue;
                }
            }
            Some(ns) => wait_readable(&active, Some(ns - SPIN_NS)),
            None => wait_readable(&active, None),
        }
        // Read whatever has arrived, oldest connection first.
        let mut i = 0;
        while i < active.len() {
            let conn = &mut active[i];
            let finished = loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => break true,
                    Ok(k) => {
                        conn.raw.extend_from_slice(&chunk[..k]);
                        if Response::split(&conn.raw).is_some() {
                            break true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break true,
                }
            };
            if !finished {
                i += 1;
                continue;
            }
            let done_ns = now_ns();
            let conn = active.remove(i).expect("index in range");
            let kind = conn.index % kinds;
            samples[conn.index] = Some(match Response::parse(&conn.raw) {
                Some(resp) => Sample {
                    due_ns: due_ns[conn.index],
                    sent_ns: conn.sent_ns,
                    done_ns,
                    status: resp.status,
                    matches: resp.body == expect[kind],
                    server_ms: resp.server_timing_ms(),
                    wire_bytes: conn.raw.len(),
                },
                None => failed_sample(due_ns[conn.index], conn.sent_ns, done_ns),
            });
        }
    }
    samples
        .into_iter()
        .map(|s| s.expect("every request was accounted for"))
        .collect()
}

fn failed_sample(due_ns: u64, sent_ns: u64, done_ns: u64) -> Sample {
    Sample {
        due_ns,
        sent_ns,
        done_ns,
        status: 0,
        matches: false,
        server_ms: None,
        wire_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn schedule_spans_n_over_rate_and_repeats_per_seed() {
        let a = schedule(400.0, 1000, &mut Rng::new(5));
        let b = schedule(400.0, 1000, &mut Rng::new(5));
        let c = schedule(400.0, 1000, &mut Rng::new(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*a.last().unwrap(), 2_500_000_000);
        // Exponential gaps: about 1 - 1/e of them are shorter than the mean.
        let mean = 2_500_000u64;
        let short = a.windows(2).filter(|w| w[1] - w[0] < mean).count();
        assert!((550..720).contains(&short), "{short}");
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let s = Sample {
            due_ns: 1_000_000,
            sent_ns: 3_000_000,
            done_ns: 4_500_000,
            status: 200,
            matches: true,
            server_ms: None,
            wire_bytes: 0,
        };
        assert_eq!(s.latency_ms(), 3.5);
        assert_eq!(s.lag_ms(), 2.0);
        assert_eq!(s.service_ms(), 1.5);
        assert!(s.good(3.5) && !s.good(3.4));
        assert!(!Sample {
            status: 429,
            ..s.clone()
        }
        .good(10.0));
        assert!(!Sample {
            matches: false,
            ..s
        }
        .good(10.0));
    }

    #[test]
    fn response_parsing_waits_for_the_whole_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nServer-Timing: queue;dur=0.005, \
                    dispatch;dur=0.013, rollout;dur=0.115\r\n\r\nabcd";
        assert!(Response::parse(&raw[..raw.len() - 1]).is_none());
        let r = Response::parse(raw).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"abcd"[..]));
        assert_eq!(r.server_timing_ms(), Some([0.005, 0.013, 0.115]));
    }

    /// A server that answers one connection at a time, `service` after the
    /// request arrives — so a third request due while two are in flight must
    /// wait for a connection, and the wait must show as lag and latency.
    #[test]
    fn a_stall_delays_later_requests_and_is_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Duration::from_millis(30);
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 256];
                let _ = s.read(&mut buf).unwrap();
                std::thread::sleep(service);
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        let requests = vec![request_bytes("POST", "/x", b"hi")];
        let expect = vec![b"ok".to_vec()];
        // All three due almost at once; only two connections exist.
        let due = [0, 1_000_000, 2_000_000];
        let samples = open_loop(addr, &requests, &expect, &due, &mut Spans::new(false, 0));
        server.join().unwrap();
        assert!(samples.iter().all(|s| s.status == 200 && s.matches));
        assert!(samples[0].lag_ms() < 10.0 && samples[1].lag_ms() < 10.0);
        // The third could only be sent once the first finished (~30 ms in).
        assert!(samples[2].lag_ms() >= 20.0, "lag {}", samples[2].lag_ms());
        // It then queued behind the second: ~90 ms after it was due.
        assert!(
            samples[2].latency_ms() >= 80.0,
            "{}",
            samples[2].latency_ms()
        );
        assert!(samples[2].latency_ms() >= samples[2].service_ms() + 20.0);
    }
}
