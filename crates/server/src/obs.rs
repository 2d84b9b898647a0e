//! Server instrumentation handles (`server.*`).
//!
//! Metric map:
//!
//! | name                         | kind      | meaning                                   |
//! |------------------------------|-----------|-------------------------------------------|
//! | `server.connections`         | counter   | TCP connections accepted                  |
//! | `server.active_sessions`     | gauge     | session threads currently alive           |
//! | `server.requests`            | counter   | decoded requests handled (any outcome)    |
//! | `server.auth_failures`       | counter   | Hello frames with an unknown token        |
//! | `server.protocol_errors`     | counter   | malformed frames/messages (conn dropped)  |
//! | `server.statement_errors`    | counter   | statements the engine rejected            |
//! | `server.slow_queries`        | counter   | statements over the slow-query threshold  |
//! | `server.bytes_in`            | counter   | frame bytes received (prefix included)    |
//! | `server.bytes_out`           | counter   | frame bytes sent (prefix included)        |
//! | `server.request.duration_ns` | span      | end-to-end request handling latency       |
//! | `server.statement.exec_ns`   | histogram | statement execution time, group-commit queueing excluded |
//! | `server.statement.commit_wait_ns` | histogram | time queued in the group-commit WAL  |
//! | `server.metrics_scrapes`     | counter   | HTTP `GET /metrics` requests served       |
//! | `server.traces_retained`     | counter   | request traces kept by the tail sampler   |
//!
//! Key families also register `# HELP` descriptions
//! ([`Registry::describe`]) so the Prometheus exposition is
//! self-documenting.

use sc_obs::{Counter, Gauge, Histogram, Registry, SpanHandle};
use std::sync::OnceLock;

pub(crate) struct ServerObs {
    pub connections: Counter,
    pub active_sessions: Gauge,
    pub requests: Counter,
    pub auth_failures: Counter,
    pub protocol_errors: Counter,
    pub statement_errors: Counter,
    pub slow_queries: Counter,
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    pub request: SpanHandle,
    pub statement_exec_ns: Histogram,
    pub commit_wait_ns: Histogram,
    pub metrics_scrapes: Counter,
    pub traces_retained: Counter,
}

pub(crate) fn server() -> &'static ServerObs {
    static OBS: OnceLock<ServerObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        r.describe("server.requests", "decoded requests handled (any outcome)");
        r.describe(
            "server.active_sessions",
            "session threads currently serving a connection",
        );
        r.describe(
            "server.slow_queries",
            "statements over the slow-query threshold (see the slow-query log)",
        );
        r.describe(
            "server.statement.exec_ns",
            "statement execution time in ns, group-commit queueing excluded",
        );
        r.describe(
            "server.statement.commit_wait_ns",
            "time queued in the group-commit WAL in ns",
        );
        r.describe(
            "server.traces_retained",
            "request traces kept by the tail sampler (slowest-K + 1-in-N)",
        );
        ServerObs {
            connections: r.counter("server.connections"),
            active_sessions: r.gauge("server.active_sessions"),
            requests: r.counter("server.requests"),
            auth_failures: r.counter("server.auth_failures"),
            protocol_errors: r.counter("server.protocol_errors"),
            statement_errors: r.counter("server.statement_errors"),
            slow_queries: r.counter("server.slow_queries"),
            bytes_in: r.counter("server.bytes_in"),
            bytes_out: r.counter("server.bytes_out"),
            request: r.span("server.request"),
            statement_exec_ns: r.histogram("server.statement.exec_ns"),
            commit_wait_ns: r.histogram("server.statement.commit_wait_ns"),
            metrics_scrapes: r.counter("server.metrics_scrapes"),
            traces_retained: r.counter("server.traces_retained"),
        }
    })
}
