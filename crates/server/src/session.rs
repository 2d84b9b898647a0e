//! Per-connection session loop.
//!
//! Each accepted TCP connection gets one session thread running
//! [`run_session`]: an auth handshake (the first non-`Ping` request must
//! be a `Hello` carrying a registered token), then a request/response
//! loop over the shared engine. Statement-level failures are reported as
//! typed [`Response::Error`]s and the connection stays open;
//! protocol-level failures (undecodable frame, oversized length) get one
//! final `Error { code: Protocol }` frame and the connection is dropped.
//!
//! The loop polls with a short socket read timeout so the server's
//! shutdown flag is observed promptly: on drain, an in-flight request is
//! finished and answered, then the connection closes.

use crate::frame::{write_frame, FrameError, FrameEvent, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use crate::obs::server as obs;
use crate::protocol::{ErrorCode, Request, Response};
use crate::slowlog::{SlowQueryLog, SlowQueryMeta};
use crate::tenant::{confine_statement, scrub_message, TenantMap};
use sc_nosql::{parse_statement, Db, NosqlError, Session, Statement};
use sc_obs::trace::{self, Attr, TailSampler};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything a session needs, shared by reference from the server.
pub(crate) struct SessionContext {
    pub db: Db,
    pub tenants: Arc<TenantMap>,
    pub slowlog: Arc<SlowQueryLog>,
    pub shutdown: Arc<AtomicBool>,
}

/// Maps an engine error to a wire error code.
fn error_code(e: &NosqlError) -> ErrorCode {
    match e {
        NosqlError::Parse(_) => ErrorCode::Parse,
        NosqlError::UnknownKeyspace(_)
        | NosqlError::UnknownTable(_)
        | NosqlError::UnknownColumn { .. } => ErrorCode::NotFound,
        NosqlError::TypeMismatch { .. }
        | NosqlError::MissingPrimaryKey(_)
        | NosqlError::AlreadyExists(_)
        | NosqlError::AggregateOverflow { .. }
        | NosqlError::Unsupported(_) => ErrorCode::Invalid,
        NosqlError::Storage(_) | NosqlError::Corrupt(_) => ErrorCode::Internal,
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let payload = resp.encode();
    obs().bytes_out.add(payload.len() as u64 + 4);
    write_frame(stream, &payload)
}

/// Runs one connection to completion. Never panics on peer input: every
/// malformed byte sequence ends in a typed error and/or a closed socket.
pub(crate) fn run_session(mut stream: TcpStream, ctx: &SessionContext) {
    obs().connections.inc();
    obs().active_sessions.add(1);
    // The gauge must drop on *every* exit path, including an engine panic
    // unwinding through the loop.
    struct ActiveGuard;
    impl Drop for ActiveGuard {
        fn drop(&mut self) {
            obs().active_sessions.add(-1);
        }
    }
    let _guard = ActiveGuard;

    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(reader_stream, DEFAULT_MAX_FRAME_BYTES);
    let mut tenant: Option<String> = None;
    // One engine session per connection: carries the connection's USE
    // keyspace and commit-wait accounting. Statements from different
    // connections execute concurrently in the engine.
    let mut engine = ctx.db.session();

    loop {
        let payload = match reader.next_event() {
            Ok(FrameEvent::Frame(p)) => p,
            Ok(FrameEvent::TimedOut) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    // Drain: nothing in flight, close. A client mid-send
                    // gets a clean shutdown notice only if its frame
                    // completed; a half-sent frame is simply dropped.
                    if !reader.mid_frame() {
                        let _ = send(
                            &mut stream,
                            &Response::Error {
                                code: ErrorCode::ShuttingDown,
                                message: "server is shutting down".into(),
                            },
                        );
                    }
                    return;
                }
                continue;
            }
            Ok(FrameEvent::Eof) => return,
            Err(FrameError::TooLarge { declared, max }) => {
                obs().protocol_errors.inc();
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!("declared frame length {declared} exceeds maximum {max}"),
                    },
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        obs().bytes_in.add(payload.len() as u64 + 4);
        let request_span = obs().request.start();
        obs().requests.inc();

        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                obs().protocol_errors.inc();
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!("undecodable request: {e}"),
                    },
                );
                return;
            }
        };

        let response = match request {
            Request::Ping => Response::Pong,
            Request::Hello { token } => match ctx.tenants.authenticate(&token) {
                Some(name) => {
                    tenant = Some(name.to_string());
                    Response::HelloOk {
                        tenant: name.to_string(),
                    }
                }
                None => {
                    obs().auth_failures.inc();
                    let _ = send(
                        &mut stream,
                        &Response::Error {
                            code: ErrorCode::Auth,
                            message: "unknown auth token".into(),
                        },
                    );
                    // Failed handshakes close the connection: a client
                    // cannot sit and enumerate tokens on one socket.
                    return;
                }
            },
            Request::Query { cql, trace_id } => match &tenant {
                None => {
                    obs().auth_failures.inc();
                    Response::Error {
                        code: ErrorCode::Auth,
                        message: "handshake required before queries (send Hello)".into(),
                    }
                }
                Some(tenant) => {
                    // Client-supplied ID wins (round-trip correlation);
                    // otherwise the server mints one so the slow-query
                    // log and sampler can still link up.
                    let id = trace_id
                        .filter(|&id| id != 0)
                        .unwrap_or_else(trace::next_trace_id);
                    let mut resp = execute_query(ctx, &mut engine, tenant, &cql, id);
                    // Echo the ID only to clients that asked: old clients
                    // reject trailing response bytes.
                    if let Response::Rows {
                        trace_id: echo @ None,
                        ..
                    } = &mut resp
                    {
                        if trace_id.is_some() {
                            *echo = Some(id);
                        }
                    }
                    resp
                }
            },
        };
        drop(request_span);
        if send(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// The sampler bucket a statement falls into.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select { .. } => "select",
        Statement::Explain { .. } => "explain",
        Statement::Insert { .. } => "insert",
        Statement::Update { .. } => "update",
        Statement::Delete { .. } => "delete",
        Statement::Batch { .. } => "batch",
        Statement::Truncate { .. } => "truncate",
        Statement::Use { .. } => "use",
        Statement::CreateKeyspace { .. }
        | Statement::CreateTable { .. }
        | Statement::CreateIndex { .. } => "ddl",
    }
}

/// Parses, confines, and executes one statement for `tenant`, building
/// its request trace (when tracing is enabled) along the way.
fn execute_query(
    ctx: &SessionContext,
    engine: &mut Session,
    tenant: &str,
    cql: &str,
    trace_id: u64,
) -> Response {
    // The trace starts before parse so `server.parse` lands in the tree;
    // its kind is refined once the statement is known.
    let mut guard = trace::begin(trace_id, "query");
    let parse_result = {
        let _parse = trace::stage("server.parse");
        parse_statement(cql)
    };
    let mut stmt = match parse_result {
        Ok(s) => s,
        Err(e) => {
            obs().statement_errors.inc();
            // Parse failures never reach the engine; their traces carry
            // no attribution worth retaining.
            drop(guard);
            return Response::Error {
                code: ErrorCode::Parse,
                message: e.to_string(),
            };
        }
    };
    guard.set_kind(statement_kind(&stmt));
    confine_statement(&mut stmt, tenant);
    let started = Instant::now();
    let result = {
        let _exec = trace::stage("server.execute");
        engine.execute(&stmt)
    };
    // Attribute time honestly: wall clock includes waiting in the
    // group-commit queue behind *other* sessions' appends; the slow-query
    // log and latency metrics should charge a statement only for its own
    // execution.
    let commit_wait = engine.last_commit_wait();
    let exec = started.elapsed().saturating_sub(commit_wait);
    obs().statement_exec_ns.record(exec.as_nanos() as u64);
    obs().commit_wait_ns.record(commit_wait.as_nanos() as u64);
    let mut meta = SlowQueryMeta::default();
    if let Some(mut t) = guard.finish() {
        t.tenant = tenant.to_string();
        t.detail = crate::slowlog::truncate_cql(cql);
        meta = SlowQueryMeta {
            trace_id,
            blocks_read: t.attr_total(Attr::BlocksRead),
            block_cache_hits: t.attr_total(Attr::BlockCacheHits),
        };
        if TailSampler::global().offer(t) {
            obs().traces_retained.inc();
        }
    }
    if ctx.slowlog.observe(tenant, cql, exec, commit_wait, meta) {
        obs().slow_queries.inc();
    }
    match result {
        Ok(rows) => {
            let columns = rows.columns().to_vec();
            let rows = rows
                .into_rows()
                .into_iter()
                .map(|row| row.into_values())
                .collect();
            Response::Rows {
                columns,
                rows,
                trace_id: None,
            }
        }
        Err(e) => {
            obs().statement_errors.inc();
            Response::Error {
                code: error_code(&e),
                message: scrub_message(&e.to_string(), tenant),
            }
        }
    }
}
