//! Minimal HTTP/1.1 exposition endpoint.
//!
//! A second listener serves a few read-only routes:
//!
//! * `GET /metrics` — the global `sc-obs` registry rendered by
//!   [`sc_obs::RegistrySnapshot::to_prometheus_text`] (text format
//!   `version=0.0.4`, the format every Prometheus scraper ingests),
//! * `GET /healthz` — `ok` while the server is up, `503 draining` once
//!   shutdown has begun,
//! * `GET /debug/traces` — the tail sampler's retained request traces as
//!   a JSON array (slowest first), and
//! * `GET /debug/traces/<trace_id>` — one trace in Chrome trace-event
//!   format: save the body and load it in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) to see the request's flame
//!   graph. `<trace_id>` is the 16-hex-digit ID from the JSON list, the
//!   slow-query log, or a traced client.
//!
//! Requests are parsed just enough to route (request line + headers are
//! read and discarded, bounded at 8 KiB); every response closes the
//! connection. This is deliberately not a web framework — it is a port
//! for scrapers.

use crate::obs::server as obs;
use crate::server::IDLE_POLL;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Accept loop for the metrics port. Runs until `shutdown` is set.
pub(crate) fn run_http_loop(listener: TcpListener, shutdown: Arc<AtomicBool>) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking metrics listener");
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Scrapes are answered inline: they are cheap (one
                // snapshot + one write) and serializing them keeps the
                // thread count fixed.
                let _ = serve_one(stream, &shutdown);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(IDLE_POLL),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

fn serve_one(mut stream: TcpStream, shutdown: &AtomicBool) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the header terminator; tolerate request bodies by simply
    // not reading them (both routes are GETs).
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let request_line = buf
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => {
            obs().metrics_scrapes.inc();
            let text = sc_obs::Registry::global().snapshot().to_prometheus_text();
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", text)
        }
        ("GET", "/healthz") => {
            if shutdown.load(Ordering::SeqCst) {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "draining\n".into(),
                )
            } else {
                ("200 OK", "text/plain; charset=utf-8", "ok\n".into())
            }
        }
        ("GET", "/debug/traces") => {
            let sampler = sc_obs::TailSampler::global();
            let traces = sampler.traces();
            let mut body = String::from("[");
            for (i, t) in traces.iter().enumerate() {
                if i > 0 {
                    body.push_str(",\n ");
                }
                body.push_str(&t.to_json());
            }
            body.push_str("]\n");
            ("200 OK", "application/json; charset=utf-8", body)
        }
        ("GET", p) if p.strip_prefix("/debug/traces/").is_some() => {
            let id = p.strip_prefix("/debug/traces/").unwrap_or("");
            match sc_obs::trace::parse_trace_id(id)
                .and_then(|id| sc_obs::TailSampler::global().find(id))
            {
                Some(t) => (
                    "200 OK",
                    "application/json; charset=utf-8",
                    t.to_chrome_trace(),
                ),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "no such trace (expired from the sampler, or never retained)\n".into(),
                ),
            }
        }
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".into(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
