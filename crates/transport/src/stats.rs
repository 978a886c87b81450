//! `--stats-addr`: a tiny HTTP listener exporting live telemetry.
//!
//! Deliberately minimal — one blocking thread, no keep-alive, no
//! request parsing beyond the GET path — because its only clients are
//! `curl`, a Prometheus scraper, and the e2e test. Two endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition of the registry.
//! * `GET /metrics.json` — the same snapshot as JSON lines, each line
//!   stamped with the server's wall-clock microseconds.
//!
//! Independently of scrapes, the server thread dumps the JSONL form to
//! stderr at a fixed cadence when asked, so a node's telemetry history
//! survives in its log even if nothing ever connects.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use telemetry::{export, Registry, WallClock};

/// Accept-loop poll interval (also bounds shutdown latency).
const POLL: Duration = Duration::from_millis(50);

/// A running stats listener; dropping it stops the thread.
pub struct StatsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl StatsServer {
    /// Bind `addr` and serve `registry` until the server is dropped.
    /// `dump_every` additionally writes a JSONL snapshot to stderr at
    /// that cadence.
    pub fn serve(
        addr: &str,
        registry: Arc<Registry>,
        dump_every: Option<Duration>,
    ) -> std::io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        thread::spawn(move || {
            let clock = WallClock::new();
            let mut next_dump = dump_every.map(|d| Instant::now() + d);
            loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(at) = next_dump {
                    if Instant::now() >= at {
                        eprint!("{}", export::jsonl_at(&registry.snapshot(), clock.now_us()));
                        next_dump = dump_every.map(|d| at + d);
                    }
                }
                match listener.accept() {
                    Ok((stream, _)) => handle(stream, &registry, &clock),
                    Err(_) => thread::sleep(POLL),
                }
            }
        });
        Ok(StatsServer {
            addr: bound,
            shutdown,
        })
    }

    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Answer one request and close the connection.
fn handle(mut stream: std::net::TcpStream, registry: &Registry, clock: &WallClock) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Read enough for the request line; everything past the path is
    // ignored, so a short read of a long header block is fine too.
    let mut buf = [0u8; 1024];
    let n = match stream.read(&mut buf) {
        Ok(n) if n > 0 => n,
        _ => return,
    };
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request.split_whitespace().nth(1).unwrap_or("").to_string();
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            export::prometheus(&registry.snapshot()),
        ),
        "/metrics.json" => (
            "200 OK",
            "application/json",
            export::jsonl_at(&registry.snapshot(), clock.now_us()),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        // One write: `write!` would send the pieces separately, and the
        // server answers whatever its first read returns.
        let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        let mut line = String::new();
        // Skip headers, then read the body to EOF (connection closes).
        while reader.read_line(&mut line).unwrap() > 0 {
            if line == "\r\n" {
                break;
            }
            line.clear();
        }
        reader.read_to_string(&mut body).unwrap();
        (status, body)
    }

    #[test]
    fn serves_prometheus_and_jsonl() {
        let registry = Arc::new(Registry::new());
        registry.counter("frames_enqueued_total", &[]).add(5);
        let server = StatsServer::serve("127.0.0.1:0", registry.clone(), None).unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(body.contains("frames_enqueued_total 5\n"), "{body}");

        registry.counter("frames_enqueued_total", &[]).add(2);
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("frames_enqueued_total 7\n"), "{body}");

        let (status, body) = get(addr, "/metrics.json");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(
            body.contains("\"name\":\"frames_enqueued_total\""),
            "{body}"
        );
        assert!(body.contains("\"ts_us\":"), "{body}");

        let (status, _) = get(addr, "/nope");
        assert!(status.starts_with("HTTP/1.1 404"), "{status}");
    }
}
