//! The server: configuration, listener threads, graceful shutdown.

use crate::http::run_http_loop;
use crate::session::{run_session, SessionContext};
use crate::slowlog::{SlowQuery, SlowQueryLog};
use crate::tenant::{TenantError, TenantMap};
use sc_nosql::Db;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Slow-query ring capacity.
const SLOW_QUERY_CAPACITY: usize = 128;

/// Socket read timeout and accept-loop poll interval; bounds how long
/// shutdown waits for an idle session to notice the drain flag.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(25);

/// Tail-sampler retention: keep the slowest this many traces per statement
/// kind.
const TRACE_SLOWEST: usize = 8;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// CQL protocol bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Metrics/health HTTP bind address; port 0 picks an ephemeral port.
    pub metrics_addr: String,
    /// `(tenant, token)` pairs; see [`TenantMap::register`].
    pub tenants: Vec<(String, String)>,
    /// Statements slower than this land in the slow-query log.
    pub slow_query_threshold: Duration,
    /// Whether request tracing is on (`sc_obs::set_trace_enabled`):
    /// every statement builds a span tree and is offered to the global
    /// tail sampler, readable at `GET /debug/traces`.
    pub tracing: bool,
    /// Tail-sampler retention: besides the slowest 8 traces per statement
    /// kind, keep 1 in `trace_sample_one_in` (0 disables the systematic
    /// sample; 1 keeps everything up to the ring bound).
    pub trace_sample_one_in: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            tenants: Vec::new(),
            slow_query_threshold: Duration::from_millis(100),
            tracing: true,
            trace_sample_one_in: 64,
        }
    }
}

impl ServerConfig {
    /// Registers a tenant/token pair (builder style).
    pub fn tenant(mut self, tenant: &str, token: &str) -> ServerConfig {
        self.tenants.push((tenant.to_string(), token.to_string()));
        self
    }

    /// Sets the slow-query threshold (builder style).
    pub fn slow_query_threshold(mut self, threshold: Duration) -> ServerConfig {
        self.slow_query_threshold = threshold;
        self
    }

    /// Enables or disables request tracing (builder style).
    pub fn tracing(mut self, on: bool) -> ServerConfig {
        self.tracing = on;
        self
    }

    /// Sets the tail-sampler retention policy (builder style): keep the
    /// slowest 8 plus 1-in-`one_in` traces per statement kind.
    pub fn trace_policy(mut self, one_in: u64) -> ServerConfig {
        self.trace_sample_one_in = one_in;
        self
    }
}

/// Failure to start the server.
#[derive(Debug)]
pub enum ServerError {
    /// A listener could not bind.
    Io(io::Error),
    /// Tenant registration was rejected.
    Tenant(TenantError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server I/O error: {e}"),
            ServerError::Tenant(e) => write!(f, "tenant configuration error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl From<TenantError> for ServerError {
    fn from(e: TenantError) -> ServerError {
        ServerError::Tenant(e)
    }
}

/// A running server. Dropping the handle without calling
/// [`Server::shutdown`] detaches the threads (they keep serving
/// until the process exits); tests and the CLI call `shutdown` for a
/// drained stop.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    http_handle: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    slowlog: Arc<SlowQueryLog>,
    db: Db,
}

impl Server {
    /// Binds both listeners and spawns the accept loops over `db`.
    pub fn start(config: ServerConfig, db: Db) -> Result<Server, ServerError> {
        let mut tenants = TenantMap::new();
        for (tenant, token) in &config.tenants {
            tenants.register(tenant, token)?;
        }
        let tenants = Arc::new(tenants);
        let slowlog = Arc::new(SlowQueryLog::new(
            config.slow_query_threshold,
            SLOW_QUERY_CAPACITY,
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        // Tracing is a process-global toggle (the trace context lives in
        // sc-obs, below the server); the sampler ring keeps ~4× the
        // slowest-K so the systematic sample has room of its own.
        sc_obs::set_trace_enabled(config.tracing);
        sc_obs::TailSampler::global().set_policy(
            TRACE_SLOWEST,
            config.trace_sample_one_in,
            TRACE_SLOWEST * 4,
        );

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = TcpListener::bind(&config.metrics_addr)?;
        let metrics_addr = metrics_listener.local_addr()?;

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let sessions = Arc::clone(&sessions);
            let db = db.clone();
            let tenants = Arc::clone(&tenants);
            let slowlog = Arc::clone(&slowlog);
            std::thread::Builder::new()
                .name("sc-server-accept".into())
                .spawn(move || {
                    run_accept_loop(listener, shutdown, sessions, move |shutdown| {
                        SessionContext {
                            db: db.clone(),
                            tenants: Arc::clone(&tenants),
                            slowlog: Arc::clone(&slowlog),
                            shutdown,
                        }
                    })
                })?
        };
        let http_handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("sc-server-http".into())
                .spawn(move || run_http_loop(metrics_listener, shutdown))?
        };

        Ok(Server {
            addr,
            metrics_addr,
            shutdown,
            accept_handle: Some(accept_handle),
            http_handle: Some(http_handle),
            sessions,
            slowlog,
            db,
        })
    }

    /// The bound CQL protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics/health HTTP address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// The shared engine handle the sessions execute against.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Retained slow-query entries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slowlog.entries()
    }

    /// Total statements ever recorded as slow (including entries the ring
    /// has dropped).
    pub fn slow_queries_recorded(&self) -> u64 {
        self.slowlog.total_recorded()
    }

    /// Session threads whose sockets are still open. Finished threads are
    /// reaped lazily by the accept loop and on [`Server::shutdown`].
    pub fn active_sessions(&self) -> usize {
        let sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.iter().filter(|h| !h.is_finished()).count()
    }

    /// Graceful stop: stop accepting, let every session finish its
    /// in-flight request, join all threads. Idempotent in effect; consumes
    /// the handle.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.http_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
            sessions.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn run_accept_loop(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    make_context: impl Fn(Arc<AtomicBool>) -> SessionContext + Send + 'static,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking protocol listener");
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(e) = spawn_session(stream, &make_context, &shutdown, &sessions) {
                    // Out of threads or sockets: drop the connection, keep
                    // serving the ones we have.
                    let _ = e;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                reap_finished(&sessions);
                std::thread::sleep(IDLE_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

fn spawn_session(
    stream: TcpStream,
    make_context: &impl Fn(Arc<AtomicBool>) -> SessionContext,
    shutdown: &Arc<AtomicBool>,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_POLL))?;
    stream.set_nodelay(true)?;
    let ctx = make_context(Arc::clone(shutdown));
    let handle = std::thread::Builder::new()
        .name("sc-server-session".into())
        .spawn(move || run_session(stream, &ctx))?;
    let mut sessions = sessions.lock().unwrap_or_else(|e| e.into_inner());
    sessions.push(handle);
    Ok(())
}

/// Joins (and forgets) session threads that have already returned, so a
/// long-lived server does not accumulate one JoinHandle per connection
/// ever served.
fn reap_finished(sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let mut sessions = sessions.lock().unwrap_or_else(|e| e.into_inner());
    let mut kept = Vec::with_capacity(sessions.len());
    for h in sessions.drain(..) {
        if h.is_finished() {
            let _ = h.join();
        } else {
            kept.push(h);
        }
    }
    *sessions = kept;
}
