//! The workspace's one HTTP/1.1 server: std-only, one request per
//! connection, `Connection: close`.
//!
//! Both listeners in the tree — the metrics [`crate::exporter`] and the
//! `pdeml serve` inference front end — are this module plus a handler
//! closure. It owns the five decisions they must agree on:
//!
//! * `read_request` — the head and the `Content-Length` body under ONE
//!   deadline, with both sizes bounded before anything is buffered;
//! * `write_response` — the fixed header set and order, sent with the
//!   body in one vectored write;
//! * [`Listener::run`] — the accept loop: one thread per connection, a stop
//!   flag, and a self-connect to wake `accept` so the flag is seen;
//! * [`BufferPool`] — the listener's reusable request and reply buffers,
//!   so a warm connection allocates none of its large buffers;
//! * [`ops_route`] — `/metrics`, `/healthz` and `/readyz`, including which
//!   health state maps to `200` and which to `503`.
//!
//! Hand-rolled over `std::net` so the telemetry crate stays dependency-free:
//! the exporter is the tool you reach for when things are broken, so it must
//! not share failure modes with the stack it observes.

use crate::health::{Health, HealthModel};
use std::io::{Error, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Most bytes a request head (request line + headers, up to but excluding
/// the blank line) may span.
pub const MAX_REQUEST_HEAD: usize = 4096;
/// Largest request body buffered — a window of states for a big grid is
/// ~1 MB; 16 MB leaves headroom without letting a rogue client exhaust
/// memory.
pub const MAX_REQUEST_BODY: usize = 16 << 20;
/// Largest response body a handler may be asked to build. The request
/// decides how big a rollout's answer is (`steps + 1` states), so this is
/// the bound on what one request can make the server allocate for it:
/// 256 MiB is about 40 paper-shape (4×256×256) states in the text wire
/// format, or 10 000 toy (4×16×16) ones.
pub const MAX_RESPONSE_BODY: usize = 256 << 20;
/// Most buffer sets a [`Listener`] keeps for reuse between connections —
/// one set per concurrently open connection it expects to see warm.
const POOLED_BUFFER_SETS: usize = 4;
/// Largest capacity a pooled buffer may keep: a bigger one (a 16 MiB
/// request, a long rollout's response) is freed when its connection ends
/// instead of staying resident.
pub const MAX_POOLED_CAPACITY: usize = 1 << 20;
/// Wall-clock budget for reading one whole request, armed ONCE per
/// connection and checked before every read, so a trickling client is cut
/// off after this long in total (plus at most one [`READ_SLICE`]).
pub const REQUEST_DEADLINE: Duration = Duration::from_millis(2000);
/// Longest a single read blocks before the deadline is looked at again.
const READ_SLICE: Duration = Duration::from_millis(100);

const TEXT: &str = "text/plain; charset=utf-8";
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One parsed request, lent to the handler. Its read buffer and its
/// [`reply`](Request::reply) string belong to the listener's
/// [`BufferPool`] and go back there once the response is written.
pub struct Request {
    pub method: String,
    pub path: String,
    /// Everything read from the connection: the head, then the body from
    /// `body_start`.
    read: Vec<u8>,
    body_start: usize,
    /// An empty string with the capacity earlier responses grew it to. A
    /// handler with a large body takes it (`std::mem::take`), writes the
    /// body into it and returns it as [`Response::body`], so a warm
    /// connection builds its answer without allocating.
    pub reply: String,
}

impl Request {
    /// The `Content-Length` bytes after the head.
    pub fn body(&self) -> &[u8] {
        &self.read[self.body_start..]
    }
}

/// One response; `write_response` frames it.
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

/// Bytes asked of one read while the head is still arriving.
const HEAD_READ: usize = 4096;

/// Reads one request into `request`'s pooled read buffer: the head up to
/// `\r\n\r\n`, then exactly `Content-Length` body bytes, which stay in
/// place behind the head.
///
/// TCP does not preserve write boundaries, so every read loops until its
/// terminator or byte count; [`REQUEST_DEADLINE`] covers the whole request.
/// A head longer than [`MAX_REQUEST_HEAD`], an oversized or malformed
/// `Content-Length`, a connection closed before the last promised byte, or
/// a spent deadline is an error — the caller answers `400`.
fn read_request(stream: &mut TcpStream, request: &mut Request) -> std::io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    // Armed once per connection (one syscall, not one per read): a blocked
    // read wakes every slice to check the deadline.
    stream.set_read_timeout(Some(READ_SLICE))?;
    // Appends what one read returns, at most `room` bytes, to `buf`.
    let mut read_more = |buf: &mut Vec<u8>, room: usize| -> std::io::Result<()> {
        let filled = buf.len();
        buf.resize(filled + room, 0);
        let read = loop {
            if Instant::now() >= deadline {
                break Err(Error::new(ErrorKind::TimedOut, "request too slow"));
            }
            match stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    break Err(Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed mid-request",
                    ))
                }
                Ok(n) => break Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => break Err(e),
            }
        };
        buf.truncate(filled + *read.as_ref().unwrap_or(&0));
        read.map(|_| ())
    };

    let buf = &mut request.read;
    buf.clear();
    let mut scanned = 0usize;
    let head_end = loop {
        // The terminator can straddle a read boundary: rescan from 3 bytes
        // before the new data, not the whole buffer.
        let from = scanned.saturating_sub(3);
        if let Some(pos) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + pos;
        }
        scanned = buf.len();
        if buf.len() >= MAX_REQUEST_HEAD + 4 {
            break buf.len(); // no terminator within the bound
        }
        read_more(buf, HEAD_READ)?;
    };
    if head_end > MAX_REQUEST_HEAD {
        return Err(invalid("request head too large"));
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let want = content_length(&head)?;
    let mut first = head.lines().next().unwrap_or("").split_whitespace();
    request.method = first.next().unwrap_or("").to_string();
    request.path = first.next().unwrap_or("/").to_string();

    let body_start = head_end + 4;
    let end = body_start + want;
    while buf.len() < end {
        read_more(buf, end - buf.len())?;
    }
    buf.truncate(end);
    request.body_start = body_start;
    Ok(())
}

/// Sends `response`: the header set and order every endpoint shares, then
/// the body — both in one vectored write (one syscall while the socket
/// takes it all), so the body is never copied.
fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len(),
        response.extra_headers,
    );
    let mut parts = [
        IoSlice::new(head.as_bytes()),
        IoSlice::new(response.body.as_bytes()),
    ];
    let mut unsent = &mut parts[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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

/// The two large buffers one connection works in.
#[derive(Default)]
struct BufferSet {
    read: Vec<u8>,
    reply: String,
}

/// A listener's reusable connection buffers. A connection thread takes one
/// set when it starts and gives it back after its response is written, so
/// two live connections never hold the same buffer, and a warm server
/// neither allocates nor page-faults its large per-request buffers. Bounded
/// by constants: at most `POOLED_BUFFER_SETS` (4) sets, and a buffer that
/// grew past [`MAX_POOLED_CAPACITY`] is freed rather than kept.
pub struct BufferPool {
    free: Mutex<Vec<BufferSet>>,
}

impl BufferPool {
    fn new() -> BufferPool {
        BufferPool {
            free: Mutex::new(Vec::with_capacity(POOLED_BUFFER_SETS)),
        }
    }

    fn sets(&self) -> MutexGuard<'_, Vec<BufferSet>> {
        // A set is plain bytes: a panic elsewhere cannot leave one invalid.
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn take(&self) -> BufferSet {
        self.sets().pop().unwrap_or_default()
    }

    fn give(&self, mut set: BufferSet) {
        if set.read.capacity() > MAX_POOLED_CAPACITY {
            set.read = Vec::new();
        }
        if set.reply.capacity() > MAX_POOLED_CAPACITY {
            set.reply = String::new();
        }
        set.read.clear();
        set.reply.clear();
        let mut free = self.sets();
        if free.len() < POOLED_BUFFER_SETS {
            free.push(set);
        }
    }

    /// The capacity in bytes of every buffer the pool holds right now.
    pub fn retained(&self) -> Vec<usize> {
        self.sets()
            .iter()
            .flat_map(|set| [set.read.capacity(), set.reply.capacity()])
            .collect()
    }
}

/// Answers one connection from a pooled buffer set: read, handle, write.
fn serve_connection(
    mut stream: TcpStream,
    handler: &impl Fn(&mut Request) -> Response,
    pool: &BufferPool,
) {
    let mut set = pool.take();
    let mut request = Request {
        method: String::new(),
        path: String::new(),
        read: std::mem::take(&mut set.read),
        body_start: 0,
        reply: std::mem::take(&mut set.reply),
    };
    let response = match read_request(&mut stream, &mut request) {
        Ok(()) => handler(&mut request),
        Err(e) => Response::text("400 Bad Request", format!("{e}\n")),
    };
    // The client may already be gone; nothing to do about it.
    let _ = write_response(&mut stream, &response);
    set.read = request.read;
    // The pooled reply comes back as the response body when the handler
    // used it; otherwise keep whichever of the two strings is larger.
    set.reply = if response.body.capacity() > request.reply.capacity() {
        response.body
    } else {
        request.reply
    };
    pool.give(set);
}

/// A bound socket whose accept loop has not started yet.
pub struct Listener {
    listener: TcpListener,
    stop: StopHandle,
    pool: Arc<BufferPool>,
}

impl Listener {
    /// Binds `addr` (port 0 for ephemeral).
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let stop = StopHandle {
            flag: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        };
        Ok(Listener {
            listener,
            stop,
            pool: Arc::new(BufferPool::new()),
        })
    }

    /// The bound address — useful when serving on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// This listener's connection buffers, to inspect what it keeps.
    pub fn buffer_pool(&self) -> Arc<BufferPool> {
        self.pool.clone()
    }

    /// Serves until [`StopHandle::stop`]: each connection gets its own
    /// thread, which reads one request, answers `400` if that fails and
    /// `handler`'s response otherwise, and closes. Thread-per-connection
    /// because a handler may block (an inference request waits out a whole
    /// queued rollout) and a slow client must not hold up the next one;
    /// the caller's admission control, not connection count, limits
    /// concurrency. Returns once every connection thread has finished, so a
    /// response being written when the loop stops still reaches its client.
    pub fn run(self, handler: impl Fn(&mut Request) -> Response + Send + Sync + 'static) {
        let handler = Arc::new(handler);
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.stop.flag.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let handler = handler.clone();
            let pool = self.pool.clone();
            connections.retain(|c| !c.is_finished());
            connections.push(std::thread::spawn(move || {
                serve_connection(stream, &*handler, &pool)
            }));
        }
        for connection in connections {
            let _ = connection.join();
        }
    }
}
