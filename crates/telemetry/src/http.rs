//! The workspace's one HTTP/1.1 server: std-only, one request per
//! connection, `Connection: close`.
//!
//! Both listeners in the tree — the metrics [`crate::exporter`] and the
//! `pdeml serve` inference front end — are this module plus a handler
//! closure. It owns the four decisions they must agree on:
//!
//! * [`read_request`] — the head and the `Content-Length` body under ONE
//!   deadline, with both sizes bounded before anything is buffered;
//! * [`write_response`] — the fixed header set and order;
//! * [`Listener::run`] — the accept loop: one thread per connection, a stop
//!   flag, and a self-connect to wake `accept` so the flag is seen;
//! * [`ops_route`] — `/metrics`, `/healthz` and `/readyz`, including which
//!   health state maps to `200` and which to `503`.
//!
//! Hand-rolled over `std::net` so the telemetry crate stays dependency-free:
//! the exporter is the tool you reach for when things are broken, so it must
//! not share failure modes with the stack it observes.

use crate::health::{Health, HealthModel};
use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most bytes a request head (request line + headers, up to but excluding
/// the blank line) may span.
pub const MAX_REQUEST_HEAD: usize = 4096;
/// Largest request body buffered — a window of states for a big grid is
/// ~1 MB; 16 MB leaves headroom without letting a rogue client exhaust
/// memory.
pub const MAX_REQUEST_BODY: usize = 16 << 20;
/// Wall-clock budget for reading one whole request, armed ONCE per
/// connection and checked before every read, so a trickling client is cut
/// off after this long in total (plus at most one [`READ_SLICE`]).
pub const REQUEST_DEADLINE: Duration = Duration::from_millis(2000);
/// Longest a single read blocks before the deadline is looked at again.
const READ_SLICE: Duration = Duration::from_millis(100);

const TEXT: &str = "text/plain; charset=utf-8";
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One parsed request.
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// One response; [`write_response`] frames it.
pub struct Response {
    /// Status code and reason, e.g. `"200 OK"`.
    pub status: &'static str,
    pub content_type: &'static str,
    /// Extra header lines, each `\r\n`-terminated, written between
    /// `Content-Length` and `Connection`.
    pub extra_headers: String,
    pub body: String,
}

impl Response {
    /// A plain-text response with no extra headers.
    pub fn text(status: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: TEXT,
            extra_headers: String::new(),
            body: body.into(),
        }
    }
}

fn invalid(why: &str) -> Error {
    Error::new(ErrorKind::InvalidData, why)
}

/// The `Content-Length` of a request head: 0 when the header is absent, an
/// error when it is not a number or exceeds [`MAX_REQUEST_BODY`].
fn content_length(head: &str) -> std::io::Result<usize> {
    let Some((_, value)) = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
    else {
        return Ok(0);
    };
    let n: usize = value
        .trim()
        .parse()
        .map_err(|_| invalid("Content-Length is not a number"))?;
    if n > MAX_REQUEST_BODY {
        return Err(invalid("request body too large"));
    }
    Ok(n)
}

/// Reads one request: the head up to `\r\n\r\n`, then exactly
/// `Content-Length` body bytes.
///
/// TCP does not preserve write boundaries, so every read loops until its
/// terminator or byte count; [`REQUEST_DEADLINE`] covers the whole request.
/// A head longer than [`MAX_REQUEST_HEAD`], an oversized or malformed
/// `Content-Length`, a connection closed before the last promised byte, or
/// a spent deadline is an error — the caller answers `400`.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    // Armed once per connection (one syscall, not one per read): a blocked
    // read wakes every slice to check the deadline.
    stream.set_read_timeout(Some(READ_SLICE))?;
    let mut chunk = [0u8; 4096];
    let mut read_more = |into: &mut Vec<u8>| -> std::io::Result<()> {
        loop {
            if Instant::now() >= deadline {
                return Err(Error::new(ErrorKind::TimedOut, "request too slow"));
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed mid-request",
                    ))
                }
                Ok(n) => {
                    into.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    };

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut scanned = 0usize;
    let head_end = loop {
        // The terminator can straddle a chunk boundary: rescan from 3 bytes
        // before the new data, not the whole buffer.
        let from = scanned.saturating_sub(3);
        if let Some(pos) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + pos;
        }
        scanned = buf.len();
        if buf.len() >= MAX_REQUEST_HEAD + 4 {
            break buf.len(); // no terminator within the bound
        }
        read_more(&mut buf)?;
    };
    if head_end > MAX_REQUEST_HEAD {
        return Err(invalid("request head too large"));
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let want = content_length(&head)?;
    let mut first = head.lines().next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("").to_string();
    let path = first.next().unwrap_or("/").to_string();

    let mut body = buf.split_off(head_end + 4);
    while body.len() < want {
        read_more(&mut body)?;
    }
    body.truncate(want);
    Ok(Request { method, path, body })
}

/// Writes `response` with the header set and order every endpoint shares.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let bytes = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        response.status,
        response.content_type,
        response.body.len(),
        response.extra_headers,
        response.body
    );
    stream.write_all(bytes.as_bytes())
}

/// The operational routes every listener serves: the registry as Prometheus
/// text on `/metrics`, and `health` on `/healthz` (liveness: anything but
/// unhealthy is `200`) and `/readyz` (readiness: only healthy is `200`).
/// `None` for any other request.
pub fn ops_route(request: &Request, health: &HealthModel) -> Option<Response> {
    if request.method != "GET" {
        return None;
    }
    let readiness = match request.path.as_str() {
        "/metrics" => {
            return Some(Response {
                content_type: PROMETHEUS_TEXT,
                ..Response::text("200 OK", crate::render_prometheus())
            })
        }
        "/healthz" => false,
        "/readyz" => true,
        _ => return None,
    };
    let report = health.report();
    let passes = match report.overall {
        Health::Healthy => true,
        Health::Degraded => !readiness,
        Health::Unhealthy => false,
    };
    let status = if passes {
        "200 OK"
    } else {
        "503 Service Unavailable"
    };
    Some(Response::text(status, report.describe()))
}

/// Stops a [`Listener`]'s accept loop from any thread.
#[derive(Clone)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Raises the stop flag, then pokes the loop — parked in `accept` —
    /// awake with a throwaway connection so it observes the flag.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound socket whose accept loop has not started yet.
pub struct Listener {
    listener: TcpListener,
    stop: StopHandle,
}

impl Listener {
    /// Binds `addr` (port 0 for ephemeral).
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let stop = StopHandle {
            flag: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        };
        Ok(Listener { listener, stop })
    }

    /// The bound address — useful when serving on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Serves until [`StopHandle::stop`]: each connection gets its own
    /// thread, which reads one request, answers `400` if that fails and
    /// `handler`'s response otherwise, and closes. Thread-per-connection
    /// because a handler may block (an inference request waits out a whole
    /// queued rollout) and a slow client must not hold up the next one;
    /// the caller's admission control, not connection count, limits
    /// concurrency. Returns once every connection thread has finished, so a
    /// response being written when the loop stops still reaches its client.
    pub fn run(self, handler: impl Fn(Request) -> Response + Send + Sync + 'static) {
        let handler = Arc::new(handler);
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.stop.flag.load(Ordering::Acquire) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            let handler = handler.clone();
            connections.retain(|c| !c.is_finished());
            connections.push(std::thread::spawn(move || {
                let response = match read_request(&mut stream) {
                    Ok(request) => handler(request),
                    Err(e) => Response::text("400 Bad Request", format!("{e}\n")),
                };
                // The client may already be gone; nothing to do about it.
                let _ = write_response(&mut stream, &response);
            }));
        }
        for connection in connections {
            let _ = connection.join();
        }
    }
}
