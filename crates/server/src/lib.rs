//! # sc-server
//!
//! The network front door that turns the embedded NoSQL engine into a
//! multi-tenant service (ROADMAP item 2). Everything is `std`-only —
//! plain blocking TCP with thread-per-session — modelled on the shape of
//! DriftDB's `driftdb-server` (protocol + auth, metrics port, slow-query
//! log) scaled down to this workspace's zero-dependency rules.
//!
//! Two ports:
//!
//! * **CQL protocol port** — a length-framed request/response protocol
//!   ([`frame`], [`protocol`]) carrying CQL statements. Each connection
//!   authenticates with a tenant token ([`tenant`]); every statement is
//!   then confined to the tenant's keyspace namespace by rewriting
//!   keyspace references to `{tenant}__{keyspace}` after parsing, so
//!   cross-tenant reads are structurally impossible.
//! * **metrics HTTP port** — `GET /metrics` renders the global `sc-obs`
//!   registry as Prometheus text (`server.*` series included),
//!   `GET /healthz` answers `ok`/`draining`.
//!
//! Every connection gets its own [`sc_nosql::Session`] (its `USE`
//! keyspace and commit-wait accounting) over one shared
//! [`sc_nosql::Db`], a cloneable handle to the concurrent engine:
//! sessions on different threads execute at once, their writes coalesce
//! in the group-commit log, and each `SELECT` reads an MVCC snapshot pinned
//! at its start, so it sees no write that commits after it. Only DDL and
//! `TRUNCATE` hold the table registry exclusively. Statements slower than a
//! configurable threshold land in a ring-buffered slow-query log
//! ([`slowlog`]). Shutdown drains: in-flight requests finish, then every
//! session and listener thread is joined.
//!
//! ```no_run
//! use sc_nosql::{Db, OpenOptions};
//! use sc_server::{Server, ServerConfig};
//! use sc_server::client::Client;
//!
//! let db = Db::open(OpenOptions::default()).unwrap();
//! let config = ServerConfig::default().tenant("city1", "tok-city1");
//! let server = Server::start(config, db).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.hello("tok-city1").unwrap();
//! client.query("CREATE KEYSPACE app").unwrap();
//! client.query("CREATE TABLE app.t (id int, v text, PRIMARY KEY (id))").unwrap();
//! client.query("INSERT INTO app.t (id, v) VALUES (1, 'hello')").unwrap();
//! let rows = client.query("SELECT v FROM app.t WHERE id = 1").unwrap();
//! assert_eq!(rows.first().unwrap().get_text("v").unwrap(), "hello");
//!
//! server.shutdown();
//! ```

pub mod client;
pub mod frame;
mod http;
mod obs;
pub mod protocol;
pub mod server;
mod session;
pub mod slowlog;
pub mod tenant;

pub use client::{Client, ClientError};
pub use protocol::{ErrorCode, Request, Response};
pub use server::{Server, ServerConfig, ServerError};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use tenant::{TenantError, TenantMap};
