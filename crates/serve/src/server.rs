//! The `rtlb serve` daemon: a std-only TCP server speaking
//! [`rtlb-rpc-v1`](crate::proto).
//!
//! One thread accepts connections; each connection gets its own thread
//! reading one request line at a time (requests on one connection are
//! sequential; concurrency comes from concurrent connections). Analysis
//! ops (`open` / `delta` / `analyze`) pass **admission control** — an
//! atomic in-flight counter capped at
//! [`ServeConfig::max_inflight`] — and are answered with a typed `busy`
//! error when the server is saturated; there is no queue to grow without
//! bound. Control ops (`close` / `stats` / `shutdown`) always run.
//!
//! Every analysis op runs under [`catch_unwind`] with a per-request
//! [`CancelToken`] deadline, so the failure taxonomy of the batch driver
//! applies verbatim: `parse-error`, `infeasible`, `overflow`, `timeout`,
//! `panicked` — one request's failure never takes down its connection,
//! its siblings, or the daemon. A request that panics while holding a
//! checked-out session poisons only that session (it is dropped, and
//! later requests against its id get `no-session`).
//!
//! Reads poll with a 200 ms timeout so every connection thread notices
//! [`Server::shutdown`] (or a `shutdown` request) promptly; the daemon
//! joins all of its threads before reporting the final
//! [`MetricsSnapshot`].
//!
//! With [`ServeConfig::cache_dir`] set, `analyze` requests consult the
//! content-addressed [`ResultCache`] before running the pipeline and
//! store fresh `ok` bounds back (`cache.hit` / `cache.miss` /
//! `cache.write` counters); a hit's response body is byte-identical to
//! the fresh analysis it replaces.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtlb_cache::ResultCache;
use rtlb_core::{
    analyze_ctl, classify, panic_message, AnalysisError, AnalysisOptions, AnalysisSession,
    CancelToken, OutcomeKind, SystemModel,
};
use rtlb_format::{instance, ParseError, ParsedSystem};
use rtlb_obs::{Json, MetricsRegistry, MetricsSnapshot, NULL_PROBE};

use crate::pool::{Checkout, SessionPool};
use crate::proto::{
    bounds_body, err_response, ok_response, parse_request, ErrorCode, Op, Request, RpcError,
};

/// Instance parser used for `open`/`analyze` request bodies. The default
/// is [`rtlb_format::instance::parse`]; tests inject hostile parsers
/// (blocking, panicking) to exercise admission and fault isolation
/// deterministically.
pub type InstanceParser = dyn Fn(&str) -> Result<ParsedSystem, ParseError> + Send + Sync;

/// Everything `rtlb serve` accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Live-session cap of the pool (LRU eviction past it).
    pub max_sessions: usize,
    /// Concurrent analysis requests admitted; over-limit requests get a
    /// `busy` error. `0` is a drain mode: every analysis op is refused
    /// while control ops still work.
    pub max_inflight: usize,
    /// Deadline applied to analysis requests that do not carry their
    /// own `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Analysis options shared by every request (same defaults as
    /// `rtlb analyze`).
    pub options: AnalysisOptions,
    /// Directory of the content-addressed result cache consulted (and
    /// filled) by `analyze` requests; `None` disables caching. The
    /// cached bounds body is byte-identical to a fresh analysis.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_sessions: 8,
            max_inflight: 4,
            default_deadline_ms: None,
            options: AnalysisOptions::default(),
            cache_dir: None,
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    pool: Mutex<SessionPool>,
    inflight: AtomicUsize,
    registry: MetricsRegistry,
    stop: AtomicBool,
    parser: Box<InstanceParser>,
    /// The content-addressed result cache `analyze` requests consult,
    /// with the options fingerprint folded into every key.
    cache: Option<ResultCache>,
    fingerprint: String,
}

/// A running daemon. Dropping it shuts it down and joins its threads.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

/// Binds and starts a daemon with the stock instance parser.
///
/// # Errors
///
/// A human-readable message when the address cannot be bound.
pub fn serve(config: ServeConfig) -> Result<Server, String> {
    serve_with_parser(config, Box::new(instance::parse))
}

/// [`serve`] with an injected instance parser (testing hook: a parser
/// that blocks holds an admission slot, a parser that panics exercises
/// the `panicked` path — neither needs a pathological instance file).
///
/// # Errors
///
/// Same as [`serve`].
pub fn serve_with_parser(
    config: ServeConfig,
    parser: Box<InstanceParser>,
) -> Result<Server, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // Open (or create) the cache before accepting traffic: a cache that
    // cannot be pinned is a startup error, never a silent no-cache run.
    let cache = match &config.cache_dir {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };
    let fingerprint = config.options.semantic_fingerprint();
    let max_sessions = config.max_sessions;
    let shared = Arc::new(Shared {
        config,
        addr,
        pool: Mutex::new(SessionPool::new(max_sessions)),
        inflight: AtomicUsize::new(0),
        registry: MetricsRegistry::new(),
        stop: AtomicBool::new(false),
        parser,
        cache,
        fingerprint,
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));
    Ok(Server {
        shared,
        accept: Some(accept),
    })
}

impl Server {
    /// The address the daemon actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A point-in-time snapshot of the daemon's metrics registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared.registry.snapshot()
    }

    /// Blocks until the daemon stops (a `shutdown` request arrived),
    /// then returns the final metrics snapshot. This is `rtlb serve`'s
    /// foreground mode.
    pub fn wait(mut self) -> MetricsSnapshot {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.shared.registry.snapshot()
    }

    /// Stops the daemon from the owning side, joins every thread, and
    /// returns the final metrics snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.registry.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept call; an error just means the loop
        // already exited.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.registry.counter_add("serve.connections", 1);
        let conn_shared = Arc::clone(shared);
        connections.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &conn_shared);
        }));
    }
    for conn in connections {
        let _ = conn.join();
    }
}

/// Reads request lines until EOF or shutdown, answering each with one
/// response line. Read timeouts only exist to poll the stop flag; a
/// partially read line survives them (the buffered reader keeps
/// appending to `line`).
fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    // One-line request/response traffic stalls badly under Nagle +
    // delayed ACK (~40 ms per exchange); this is a latency protocol.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match reader.read_line(&mut line) {
            Ok(0) => {
                // EOF; a final unterminated line still deserves an answer.
                if !line.trim().is_empty() {
                    let (response, _) = handle_line(line.trim(), shared);
                    writeln!(writer, "{}", response.render())?;
                }
                return Ok(());
            }
            Ok(_) if !line.ends_with('\n') => continue,
            Ok(_) => {
                if !line.trim().is_empty() {
                    let (response, stop) = handle_line(line.trim(), shared);
                    writeln!(writer, "{}", response.render())?;
                    writer.flush()?;
                    if stop {
                        // Wake the accept loop so it observes the flag.
                        let _ = TcpStream::connect(shared.addr);
                        return Ok(());
                    }
                }
                line.clear();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(e) => return Err(e),
        }
    }
}

/// Parses and dispatches one request line; returns the response and
/// whether the daemon should stop.
fn handle_line(line: &str, shared: &Shared) -> (Json, bool) {
    let started = Instant::now();
    shared.registry.counter_add("serve.requests", 1);
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            shared.registry.counter_add(error_counter(e.code), 1);
            return (err_response(&None, "?", &e), false);
        }
    };
    shared.registry.counter_add(op_counter(&request.op), 1);
    let op_label = request.op.label();
    let stopping = matches!(request.op, Op::Shutdown);
    let response = match dispatch(request, shared) {
        Ok(response) => {
            shared.registry.counter_add("serve.ok", 1);
            response
        }
        Err((id, e)) => {
            shared.registry.counter_add(error_counter(e.code), 1);
            err_response(&id, op_label, &e)
        }
    };
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared
        .registry
        .observe_value("serve.request_micros", micros);
    if stopping {
        shared.stop.store(true, Ordering::Release);
    }
    (response, stopping)
}

type OpResult = Result<Json, (Option<String>, RpcError)>;

fn dispatch(request: Request, shared: &Shared) -> OpResult {
    let Request { id, op } = request;
    match op {
        Op::Open {
            instance,
            deadline_ms,
        } => op_open(&id, &instance, deadline_ms, shared),
        Op::Delta {
            session,
            edits,
            deadline_ms,
        } => op_delta(&id, &session, &edits, deadline_ms, shared),
        Op::Analyze {
            instance,
            deadline_ms,
        } => op_analyze(&id, &instance, deadline_ms, shared),
        Op::Close { session } => {
            let closed = shared.pool.lock().expect("pool poisoned").close(&session);
            publish_pool_gauges(shared);
            if closed {
                Ok(ok_response(
                    &id,
                    "close",
                    vec![("session".to_owned(), Json::str(session))],
                ))
            } else {
                Err((
                    id,
                    RpcError {
                        code: ErrorCode::NoSession,
                        message: format!("unknown session `{session}`"),
                    },
                ))
            }
        }
        Op::Stats => Ok(op_stats(&id, shared)),
        Op::Shutdown => Ok(ok_response(
            &id,
            "shutdown",
            vec![("stopping".to_owned(), Json::Bool(true))],
        )),
    }
}

fn op_open(
    id: &Option<String>,
    instance_text: &str,
    deadline_ms: Option<u64>,
    shared: &Shared,
) -> OpResult {
    let _permit = admit(id, shared)?;
    let token = deadline_token(deadline_ms, &shared.config);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let parsed = (shared.parser)(instance_text).map_err(parse_rpc_error)?;
        AnalysisSession::new_ctl(
            parsed.graph,
            SystemModel::shared(),
            shared.config.options,
            &NULL_PROBE,
            &token,
        )
        .map_err(analysis_rpc_error)
    }));
    let session = request_outcome(id, outcome)?;
    let mut body = bounds_body(session.graph(), &session.bounds());
    let session_id = shared.pool.lock().expect("pool poisoned").admit(session);
    publish_pool_gauges(shared);
    body.insert(0, ("session".to_owned(), Json::str(session_id)));
    Ok(ok_response(id, "open", body))
}

fn op_analyze(
    id: &Option<String>,
    instance_text: &str,
    deadline_ms: Option<u64>,
    shared: &Shared,
) -> OpResult {
    let _permit = admit(id, shared)?;
    let token = deadline_token(deadline_ms, &shared.config);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let parsed = (shared.parser)(instance_text).map_err(parse_rpc_error)?;
        let analyze = || {
            analyze_ctl(
                &parsed.graph,
                &SystemModel::shared(),
                shared.config.options,
                &NULL_PROBE,
                &token,
            )
            .map(|analysis| analysis.bounds().to_vec())
            .map_err(analysis_rpc_error)
        };
        // With a cache attached, a hit skips the pipeline and its
        // response body is byte-identical to a fresh analysis. A failed
        // store still answers with the fresh bounds.
        let bounds = match &shared.cache {
            Some(cache) => {
                let (_, bounds, _) = cache.lookup_or_analyze(
                    &parsed,
                    &shared.fingerprint,
                    &shared.registry,
                    analyze,
                )?;
                bounds
            }
            None => analyze()?,
        };
        Ok((parsed.graph, bounds))
    }));
    let (graph, bounds) = request_outcome(id, outcome)?;
    Ok(ok_response(id, "analyze", bounds_body(&graph, &bounds)))
}

fn op_delta(
    id: &Option<String>,
    session_id: &str,
    edits: &[String],
    deadline_ms: Option<u64>,
    shared: &Shared,
) -> OpResult {
    let _permit = admit(id, shared)?;
    let token = deadline_token(deadline_ms, &shared.config);
    let checkout = shared
        .pool
        .lock()
        .expect("pool poisoned")
        .checkout(session_id);
    let (mut session, rebuilt) = match checkout {
        Checkout::Missing => {
            return Err((
                id.clone(),
                RpcError {
                    code: ErrorCode::NoSession,
                    message: format!("unknown session `{session_id}`"),
                },
            ))
        }
        Checkout::Live(session) => (*session, false),
        Checkout::Parked(graph) => {
            // Transparent re-analysis of an evicted session: from-scratch
            // cost now, bit-identical bounds after.
            shared.registry.counter_add("serve.session_rebuilds", 1);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                AnalysisSession::new_ctl(
                    graph,
                    SystemModel::shared(),
                    shared.config.options,
                    &NULL_PROBE,
                    &token,
                )
                .map_err(analysis_rpc_error)
            }));
            match request_outcome(id, outcome) {
                Ok(session) => (session, true),
                Err(e) => {
                    // The graph was consumed by the failed rebuild; the
                    // session id dies with it.
                    shared.pool.lock().expect("pool poisoned").abandon();
                    publish_pool_gauges(shared);
                    return Err(e);
                }
            }
        }
    };

    // Resolve the edit lines against the session's graph before touching
    // it, so malformed edits return the session unchanged.
    let deltas = match resolve_edit_lines(edits, &mut session) {
        Ok(deltas) => deltas,
        Err(e) => {
            shared
                .pool
                .lock()
                .expect("pool poisoned")
                .checkin(session_id.to_owned(), session);
            publish_pool_gauges(shared);
            return Err((id.clone(), e));
        }
    };

    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut session = session;
        let result = session.apply_ctl(&deltas, &NULL_PROBE, &token);
        (session, result)
    }));
    match outcome {
        Ok((session, result)) => {
            let response = match result {
                Ok(stats) => {
                    let mut body = vec![
                        ("session".to_owned(), Json::str(session_id)),
                        ("rebuilt".to_owned(), Json::Bool(rebuilt)),
                        (
                            "tasks_recomputed".to_owned(),
                            Json::Int(i64::try_from(stats.tasks_recomputed()).unwrap_or(i64::MAX)),
                        ),
                    ];
                    body.extend(bounds_body(session.graph(), &session.bounds()));
                    Ok(ok_response(id, "delta", body))
                }
                // A failed apply (infeasible edit, deadline) keeps the
                // session recoverable: the dirt is retained and the next
                // successful apply consumes it.
                Err(e) => Err((id.clone(), analysis_rpc_error(e))),
            };
            shared
                .pool
                .lock()
                .expect("pool poisoned")
                .checkin(session_id.to_owned(), session);
            publish_pool_gauges(shared);
            response
        }
        Err(payload) => {
            // The session was lost to the panic: poisoned, not reused.
            shared.pool.lock().expect("pool poisoned").abandon();
            publish_pool_gauges(shared);
            Err((id.clone(), panic_rpc_error(payload.as_ref())))
        }
    }
}

fn op_stats(id: &Option<String>, shared: &Shared) -> Json {
    publish_pool_gauges(shared);
    let pool = shared.pool.lock().expect("pool poisoned").stats();
    let mut snapshot = shared.registry.snapshot();
    snapshot.normalize();
    ok_response(
        id,
        "stats",
        vec![
            (
                "sessions".to_owned(),
                Json::obj([
                    ("live", Json::Int(pool.live as i64)),
                    ("parked", Json::Int(pool.parked as i64)),
                    ("checked_out", Json::Int(pool.checked_out as i64)),
                    ("resident", Json::Int(pool.resident() as i64)),
                    (
                        "evictions",
                        Json::Int(i64::try_from(pool.evictions).unwrap_or(i64::MAX)),
                    ),
                    (
                        "parked_drops",
                        Json::Int(i64::try_from(pool.parked_drops).unwrap_or(i64::MAX)),
                    ),
                ]),
            ),
            (
                "inflight".to_owned(),
                Json::Int(shared.inflight.load(Ordering::Relaxed) as i64),
            ),
            (
                "max_inflight".to_owned(),
                Json::Int(shared.config.max_inflight as i64),
            ),
            (
                "max_sessions".to_owned(),
                Json::Int(shared.config.max_sessions as i64),
            ),
            ("metrics".to_owned(), snapshot.to_json()),
        ],
    )
}

/// RAII admission slot: holds one unit of `serve.inflight` capacity.
struct Permit<'a> {
    inflight: &'a AtomicUsize,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Admission control for analysis ops: take a slot or fail `busy` —
/// never queue.
fn admit<'a>(
    id: &Option<String>,
    shared: &'a Shared,
) -> Result<Permit<'a>, (Option<String>, RpcError)> {
    let max = shared.config.max_inflight;
    let mut current = shared.inflight.load(Ordering::Relaxed);
    loop {
        if current >= max {
            return Err((
                id.clone(),
                RpcError {
                    code: ErrorCode::Busy,
                    message: format!(
                        "{current} analysis request(s) in flight (limit {max}); retry later"
                    ),
                },
            ));
        }
        match shared.inflight.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                return Ok(Permit {
                    inflight: &shared.inflight,
                })
            }
            Err(observed) => current = observed,
        }
    }
}

/// Unwraps a `catch_unwind` around a request body into the op result.
fn request_outcome<T>(
    id: &Option<String>,
    outcome: std::thread::Result<Result<T, RpcError>>,
) -> Result<T, (Option<String>, RpcError)> {
    match outcome {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err((id.clone(), e)),
        Err(payload) => Err((id.clone(), panic_rpc_error(payload.as_ref()))),
    }
}

fn deadline_token(deadline_ms: Option<u64>, config: &ServeConfig) -> CancelToken {
    match deadline_ms.or(config.default_deadline_ms) {
        Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
        None => CancelToken::none(),
    }
}

/// Parses and resolves edit lines into ready-to-apply deltas. Line
/// numbers in errors are 1-based positions in the request's `edits`
/// array.
fn resolve_edit_lines(
    edits: &[String],
    session: &mut AnalysisSession,
) -> Result<Vec<rtlb_core::Delta>, RpcError> {
    let mut deltas = Vec::new();
    for (index, text) in edits.iter().enumerate() {
        let line = index + 1;
        let parsed = rtlb_format::parse_edit_line(text, line)
            .map_err(|e| RpcError::bad_request(format!("edit {e}")))?;
        deltas.extend(
            rtlb_format::resolve_edits(&parsed, session.graph(), line)
                .map_err(|e| RpcError::bad_request(format!("edit {e}")))?,
        );
    }
    Ok(deltas)
}

fn parse_rpc_error(e: ParseError) -> RpcError {
    RpcError {
        code: ErrorCode::Outcome(OutcomeKind::ParseError),
        message: e.to_string(),
    }
}

fn analysis_rpc_error(e: AnalysisError) -> RpcError {
    let code = match &e {
        // A delta referencing an unknown task/edge/resource is a client
        // mistake, not an analysis outcome.
        AnalysisError::InvalidDelta(_) => ErrorCode::BadRequest,
        other => ErrorCode::Outcome(classify(other)),
    };
    RpcError {
        code,
        message: e.to_string(),
    }
}

fn panic_rpc_error(payload: &(dyn std::any::Any + Send)) -> RpcError {
    RpcError {
        code: ErrorCode::Outcome(OutcomeKind::Panicked),
        message: panic_message(payload),
    }
}

fn publish_pool_gauges(shared: &Shared) {
    let stats = shared.pool.lock().expect("pool poisoned").stats();
    shared
        .registry
        .gauge_set("serve.sessions_resident", stats.resident() as i64);
    shared
        .registry
        .gauge_set("serve.sessions_live", stats.live as i64);
    shared
        .registry
        .gauge_set("serve.sessions_parked", stats.parked as i64);
}

fn op_counter(op: &Op) -> &'static str {
    match op {
        Op::Open { .. } => "serve.op.open",
        Op::Delta { .. } => "serve.op.delta",
        Op::Analyze { .. } => "serve.op.analyze",
        Op::Close { .. } => "serve.op.close",
        Op::Stats => "serve.op.stats",
        Op::Shutdown => "serve.op.shutdown",
    }
}

fn error_counter(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::Busy => "serve.error.busy",
        ErrorCode::BadRequest => "serve.error.bad_request",
        ErrorCode::NoSession => "serve.error.no_session",
        ErrorCode::Outcome(OutcomeKind::Ok) => "serve.error.none",
        ErrorCode::Outcome(OutcomeKind::ParseError) => "serve.error.parse_error",
        ErrorCode::Outcome(OutcomeKind::Infeasible) => "serve.error.infeasible",
        ErrorCode::Outcome(OutcomeKind::Overflow) => "serve.error.overflow",
        ErrorCode::Outcome(OutcomeKind::Timeout) => "serve.error.timeout",
        ErrorCode::Outcome(OutcomeKind::Panicked) => "serve.error.panicked",
    }
}
