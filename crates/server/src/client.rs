//! Blocking client for the framed CQL protocol.
//!
//! ```no_run
//! use sc_server::client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:9042").unwrap();
//! client.hello("my-token").unwrap();
//! let rows = client.query("SELECT * FROM app.t").unwrap();
//! for row in &rows {
//!     println!("{:?}", row.get("id"));
//! }
//! ```
//!
//! One connection is one session: a single in-flight request at a time,
//! strictly request → response. The client is what the integration tests
//! and the benchmark's server layer (`server.ping_rtt_us`) drive.

use crate::frame::{write_frame, FrameError, FrameEvent, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use crate::protocol::{ErrorCode, Request, Response};
use sc_nosql::QueryResult;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure (includes the server closing the connection).
    Io(io::Error),
    /// The server sent bytes the client could not decode, or an
    /// unexpected response kind.
    Protocol(String),
    /// The server answered with a typed error.
    Server {
        /// Wire error code.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Protocol(m) => write!(f, "client protocol error: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A blocking protocol client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Buffered reader over a clone of `stream`: a whole response usually
    /// arrives in one packet, so one `read` syscall replaces the separate
    /// prefix + payload reads.
    reader: FrameReader<TcpStream>,
}

impl Client {
    /// Connects to a server's CQL protocol address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = FrameReader::new(stream.try_clone()?, DEFAULT_MAX_FRAME_BYTES);
        Ok(Client { stream, reader })
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = loop {
            match self.reader.next_event()? {
                FrameEvent::Frame(p) => break p,
                // The client sets no read timeout; a spurious WouldBlock is
                // retried rather than surfaced.
                FrameEvent::TimedOut => continue,
                FrameEvent::Eof => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
            }
        };
        Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Authenticates the connection; returns the tenant name the token
    /// maps to. Must precede [`Client::query`].
    pub fn hello(&mut self, token: &str) -> Result<String, ClientError> {
        match self.call(&Request::Hello {
            token: token.to_string(),
        })? {
            Response::HelloOk { tenant } => Ok(tenant),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to Hello: {other:?}"
            ))),
        }
    }

    /// Executes one CQL statement in the tenant's namespace. Mutations
    /// and DDL return an empty result.
    pub fn query(&mut self, cql: &str) -> Result<QueryResult, ClientError> {
        match self.call(&Request::Query {
            cql: cql.to_string(),
            trace_id: None,
        })? {
            Response::Rows { columns, rows, .. } => Ok(QueryResult::new(columns, rows)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to Query: {other:?}"
            ))),
        }
    }

    /// Like [`Client::query`], but mints a trace ID, sends it with the
    /// statement, and returns it alongside the result. The server builds
    /// the request's span tree under this ID — look it up at
    /// `GET /debug/traces/<id as 16-digit hex>` on the metrics port, or
    /// match it against slow-query-log entries. The returned ID is the
    /// one the server echoed (always the sent one on a tracing server).
    pub fn query_traced(&mut self, cql: &str) -> Result<(QueryResult, u64), ClientError> {
        let id = sc_obs::trace::next_trace_id();
        match self.call(&Request::Query {
            cql: cql.to_string(),
            trace_id: Some(id),
        })? {
            Response::Rows {
                columns,
                rows,
                trace_id,
            } => Ok((QueryResult::new(columns, rows), trace_id.unwrap_or(id))),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to Query: {other:?}"
            ))),
        }
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to Ping: {other:?}"
            ))),
        }
    }
}
