//! The metrics exporter: `/metrics`, `/healthz`, `/readyz` on a background
//! thread, for a process whose main job is something else (`pdeml
//! world-node --launch`; `pdeml serve` answers the same routes on its own
//! listener). All of the HTTP is [`crate::http`]; this file is the thread
//! and its shutdown. A scrape every few seconds from one or two
//! collectors is the design load.

use crate::health::HealthModel;
use crate::http::{ops_route, Listener, Response, StopHandle};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running exporter. Dropping it stops the accept loop and joins the
/// serving thread.
pub struct Exporter {
    local_addr: SocketAddr,
    stop: StopHandle,
    handle: Option<JoinHandle<()>>,
}

impl Exporter {
    /// The bound address — useful when serving on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals the accept loop to exit and joins it.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.stop();
            let _ = handle.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and serves
/// the global registry plus `health` on a named background thread.
pub fn serve(addr: &str, health: Arc<HealthModel>) -> std::io::Result<Exporter> {
    let listener = Listener::bind(addr)?;
    let local_addr = listener.local_addr();
    let stop = listener.stop_handle();
    let handle = std::thread::Builder::new()
        .name("pdeml-metrics".into())
        .spawn(move || {
            listener.run(move |request| {
                ops_route(request, &health).unwrap_or_else(|| {
                    Response::text(
                        "404 Not Found",
                        "not found; try /metrics /healthz /readyz\n",
                    )
                })
            })
        })
        .expect("spawn metrics exporter thread");
    Ok(Exporter {
        local_addr,
        stop,
        handle: Some(handle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::CheckStatus;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        let status = body.lines().next().unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let c = crate::counter("pdeml_test_exporter_total", "exporter test");
        c.inc(crate::DRIVER);
        let health = Arc::new(HealthModel::new());
        health.register("always_ok", || CheckStatus::Ok);
        let mut exporter = serve("127.0.0.1:0", health).unwrap();
        let addr = exporter.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("# TYPE pdeml_test_exporter_total counter"));
        assert!(body.contains("pdeml_test_exporter_total 1"));

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"));
        assert!(body.contains("overall: healthy"));

        let (status, _) = get(addr, "/readyz");
        assert!(status.contains("200"));

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"));

        exporter.shutdown();
    }

    #[test]
    fn degraded_fails_readyz_only() {
        let health = Arc::new(HealthModel::new());
        health.register("degraded", || CheckStatus::Degraded("test".into()));
        let exporter = serve("127.0.0.1:0", health).unwrap();
        let addr = exporter.local_addr();
        let (status, _) = get(addr, "/healthz");
        assert!(status.contains("200"));
        let (status, body) = get(addr, "/readyz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("overall: degraded"));
    }
}
