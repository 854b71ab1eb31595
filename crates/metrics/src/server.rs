//! Embedded scrape endpoint: a std-only HTTP/1.1 server exposing
//! `/metrics` (Prometheus text exposition format 0.0.4) and `/healthz`.
//!
//! Deliberately minimal — one accept loop on a dedicated thread, one
//! request per connection (`Connection: close`), bounded reads with a
//! socket timeout — because the only clients are a scraper and `curl`,
//! and the repo's no-new-dependencies rule rules out an HTTP stack.

use crate::aggregate::Aggregator;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Largest request head we will buffer before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8192;

/// Binds `addr` (e.g. `127.0.0.1:9898`; port 0 picks a free port) and
/// serves scrapes from a detached background thread for the life of the
/// process. Returns the bound address.
pub fn serve(addr: &str, agg: Arc<Aggregator>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("nofis-metrics".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                // One scrape at a time: scrapes are rare and cheap, and a
                // serial loop cannot be wedged open by a slow client
                // thanks to the read timeout.
                let _ = handle(stream, &agg);
            }
        })?;
    Ok(bound)
}

fn handle(mut stream: TcpStream, agg: &Aggregator) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let path = match read_request_path(&mut stream) {
        Some(p) => p,
        None => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    match path.as_str() {
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &agg.registry().render_prometheus(),
        ),
        "/healthz" => {
            let h = agg.health(nofis_telemetry::now_us());
            let status = if h.healthy { 200 } else { 503 };
            let body = format!(
                "{{\"healthy\":{},\"workers_alive\":{},\"queue_depth\":{},\"jobs_active\":{},\"last_event_us\":{}}}\n",
                h.healthy,
                h.workers_alive,
                h.queue_depth,
                h.jobs_active,
                h.last_event_us
            );
            respond(&mut stream, status, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Reads the request head (up to the blank line) and returns the request
/// target of a well-formed `GET <path> HTTP/1.x` line.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() >= MAX_REQUEST_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = (parts.next()?, parts.next()?, parts.next()?);
    if method != "GET" || !version.starts_with("HTTP/1.") {
        return None;
    }
    // Ignore any query string: `/metrics?x=y` scrapes `/metrics`.
    Some(target.split('?').next().unwrap_or(target).to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        let agg = Arc::new(Aggregator::new(Arc::new(MetricsRegistry::new())));
        let addr = serve("127.0.0.1:0", Arc::clone(&agg)).unwrap();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE nofis_jobs_active gauge"));
        assert!(body.contains("nofis_stage_step_seconds_bucket"));

        let (status, body) = get(addr, "/healthz?verbose=1");
        assert_eq!(status, 200, "idle process is healthy: {body}");
        assert!(body.contains("\"healthy\":true"));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
    }
}
