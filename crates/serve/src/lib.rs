//! Matching-as-a-service: a dependency-free HTTP/1.1 + JSON daemon
//! over the [`subgemini_engine`] session layer.
//!
//! The paper's algorithm is built to be run repeatedly — a pattern
//! library swept over one big main circuit — and the engine registry
//! makes the compile-once/query-many split explicit. This crate is the
//! long-lived front end: a small pool of worker threads, each blocked
//! in `accept` on its own clone of one std `TcpListener`, so the
//! kernel hands every connection to an idle worker the moment it
//! arrives. One HTTP request per connection (`Connection: close`),
//! JSON bodies built on the existing v1 report schema. No external
//! dependencies; the HTTP layer is ~200 lines of plain std.
//!
//! Lifecycle:
//!
//! 1. [`Server::bind`] binds the address (`127.0.0.1:0` picks an
//!    ephemeral port — read it back via [`Server::local_addr`]).
//! 2. [`Server::run`] serves until shutdown is requested — by SIGINT /
//!    SIGTERM (see [`signal::install`]) or a `POST /v1/shutdown`.
//!    Its own thread only watches the shutdown flag, every 5 ms.
//! 3. Shutdown drains: every in-flight search's [`CancelToken`] is
//!    tripped (searches finish promptly with `completeness: truncated
//!    (cancelled)` — a valid, reported prefix; a search that begins
//!    after this point starts cancelled), workers finish writing their
//!    responses, and loopback connections wake the workers still
//!    blocked in `accept`, which drop them unanswered and exit.
//!    [`Server::run`] then returns a [`DrainReport`] whose `drained`
//!    count says how many searches were interrupted (0 on an idle
//!    shutdown).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use subgemini::events::{journal_to_ndjson, EventJournal};
use subgemini::metrics::json::Value;
use subgemini::CancelToken;
use subgemini_engine::Engine;

pub mod http;
mod routes;
pub mod signal;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 = ephemeral).
    pub addr: String,
    /// Worker threads handling connections (≥ 1).
    pub workers: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// NDJSON access log target: a file path, or `-` for stdout.
    /// `None` (default) logs nothing.
    pub access_log: Option<String>,
    /// Capture full reports + event journals of requests slower than
    /// this many milliseconds (and of every truncated request) in a
    /// bounded ring served at `GET /v1/requests`. `None` (default)
    /// disables capture.
    pub slow_ms: Option<u64>,
    /// Capture-ring capacity: how many slow/truncated requests are
    /// kept (oldest evicted first).
    pub slow_keep: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            max_body_bytes: 16 << 20,
            access_log: None,
            slow_ms: None,
            slow_keep: 32,
        }
    }
}

/// The structured NDJSON access log: one compact JSON line per HTTP
/// request, flushed per line so tails see it promptly.
pub(crate) struct AccessLog {
    sink: Mutex<Box<dyn io::Write + Send>>,
}

impl AccessLog {
    fn open(target: &str) -> io::Result<AccessLog> {
        let sink: Box<dyn io::Write + Send> = if target == "-" {
            Box::new(io::stdout())
        } else {
            Box::new(std::fs::File::create(target)?)
        };
        Ok(AccessLog {
            sink: Mutex::new(sink),
        })
    }

    pub(crate) fn write_line(&self, line: &str) {
        let mut sink = self.sink.lock().expect("access log poisoned");
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }
}

/// One search request, built once by the search route: the access log
/// and the capture ring both describe the request from it.
#[derive(Clone, Debug)]
pub(crate) struct SearchRecord {
    pub(crate) request_id: u64,
    /// `find`, `explain`, `survey` or `hierarchize`.
    pub(crate) kind: &'static str,
    pub(crate) circuit: String,
    /// The pattern's name, or `library:<name>` (`library:(inline)`) for
    /// a survey or hierarchize.
    pub(crate) pattern: String,
    /// The engine's wall time for the search.
    pub(crate) wall_ns: u64,
    /// Deterministic effort spent; hierarchize reports none.
    pub(crate) effort_spent: Option<u64>,
    pub(crate) truncated: bool,
}

impl SearchRecord {
    fn completeness(&self) -> &'static str {
        if self.truncated {
            "truncated"
        } else {
            "complete"
        }
    }

    /// The capture ring's summary of the request, whose route is the
    /// search kind.
    pub(crate) fn summary(&self) -> Vec<(String, Value)> {
        vec![
            ("request_id".into(), Value::int(self.request_id)),
            ("route".into(), Value::Str(self.kind.into())),
            ("circuit".into(), Value::Str(self.circuit.clone())),
            ("pattern".into(), Value::Str(self.pattern.clone())),
            ("wall_ns".into(), Value::int(self.wall_ns)),
            (
                "completeness".into(),
                Value::Str(self.completeness().into()),
            ),
        ]
    }
}

/// One slow/truncated request kept in the capture ring: everything
/// needed to answer "why was request N slow?" after the fact.
#[derive(Clone, Debug)]
pub(crate) struct CapturedRequest {
    pub(crate) record: SearchRecord,
    /// The response document.
    pub(crate) report: Value,
    /// The merged event journal as NDJSON (find and survey run with
    /// `trace_events` forced on while capture is configured).
    pub(crate) journal: String,
}

/// A bounded ring of [`CapturedRequest`]s (oldest evicted first).
pub(crate) struct CaptureRing {
    slow_ns: u64,
    keep: usize,
    ring: Mutex<VecDeque<CapturedRequest>>,
}

impl CaptureRing {
    fn new(slow_ms: u64, keep: usize) -> Self {
        Self {
            slow_ns: slow_ms.saturating_mul(1_000_000),
            keep: keep.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Keeps a finished search if it qualifies: truncated, or slower
    /// than the threshold. Only a kept search's journals are serialized.
    pub(crate) fn offer(&self, record: &SearchRecord, report: Value, journals: &[EventJournal]) {
        if !record.truncated && record.wall_ns < self.slow_ns {
            return;
        }
        let captured = CapturedRequest {
            record: record.clone(),
            report,
            journal: journals.iter().map(journal_to_ndjson).collect(),
        };
        let mut ring = self.ring.lock().expect("capture ring poisoned");
        if ring.len() == self.keep {
            ring.pop_front();
        }
        ring.push_back(captured);
    }

    /// Newest-first summaries of every held capture.
    pub(crate) fn summaries(&self) -> Vec<Value> {
        let ring = self.ring.lock().expect("capture ring poisoned");
        ring.iter()
            .rev()
            .map(|c| Value::Obj(c.record.summary()))
            .collect()
    }

    pub(crate) fn get(&self, id: u64) -> Option<CapturedRequest> {
        let ring = self.ring.lock().expect("capture ring poisoned");
        ring.iter()
            .rev()
            .find(|c| c.record.request_id == id)
            .cloned()
    }
}

/// Shared mutable server state: the shutdown flag, counters, and the
/// registry of in-flight searches' cancel tokens.
pub(crate) struct ServerState {
    shutdown: AtomicBool,
    served: AtomicU64,
    http_errors: AtomicU64,
    /// Responses by status class: `[2xx, 4xx, 5xx]`.
    responses: [AtomicU64; 3],
    next_search: AtomicU64,
    in_flight: Mutex<HashMap<u64, CancelToken>>,
    /// Searches cancelled by shutdown: those in flight when it began
    /// plus those that began after it.
    drained: AtomicUsize,
    started: Instant,
    access_log: Option<AccessLog>,
    capture: Option<CaptureRing>,
}

impl ServerState {
    fn new(config: &ServeConfig) -> io::Result<Self> {
        let access_log = match config.access_log.as_deref() {
            Some(target) => Some(AccessLog::open(target)?),
            None => None,
        };
        Ok(Self {
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            responses: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            next_search: AtomicU64::new(0),
            in_flight: Mutex::new(HashMap::new()),
            drained: AtomicUsize::new(0),
            started: Instant::now(),
            access_log,
            capture: config
                .slow_ms
                .map(|slow_ms| CaptureRing::new(slow_ms, config.slow_keep)),
        })
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Registers a search about to run; its token is tripped on
    /// shutdown, and dropping the returned guard deregisters it — also
    /// when the search panics. A search that begins once shutdown has
    /// been requested gets an already-cancelled token and counts as
    /// drained, so it cannot hold the drain open.
    pub(crate) fn begin_search(&self) -> (InFlight<'_>, CancelToken) {
        let id = self.next_search.fetch_add(1, Ordering::Relaxed);
        let token = CancelToken::new();
        // The flag is read under the registry lock, which
        // `cancel_in_flight` also holds: a search is either registered
        // before the drain trips it, or sees the flag here.
        let mut map = self.in_flight.lock().expect("in-flight registry poisoned");
        if self.is_shutting_down() {
            token.cancel();
            self.drained.fetch_add(1, Ordering::Relaxed);
        } else {
            map.insert(id, token.clone());
        }
        (InFlight { state: self, id }, token)
    }

    /// Cancels every in-flight search and counts them as drained.
    fn cancel_in_flight(&self) {
        let map = self.in_flight.lock().expect("in-flight registry poisoned");
        for token in map.values() {
            token.cancel();
        }
        self.drained.fetch_add(map.len(), Ordering::Relaxed);
    }

    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    pub(crate) fn http_errors(&self) -> u64 {
        self.http_errors.load(Ordering::Relaxed)
    }

    pub(crate) fn in_flight_count(&self) -> usize {
        self.in_flight
            .lock()
            .expect("in-flight registry poisoned")
            .len()
    }

    /// Bumps the status-class counter for one finished response.
    fn note_response(&self, status: u16) {
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.responses[class].fetch_add(1, Ordering::Relaxed);
    }

    /// Responses served by status class: `[2xx, 4xx, 5xx]`.
    pub(crate) fn response_classes(&self) -> [u64; 3] {
        [
            self.responses[0].load(Ordering::Relaxed),
            self.responses[1].load(Ordering::Relaxed),
            self.responses[2].load(Ordering::Relaxed),
        ]
    }

    /// Whole seconds since the server state was created.
    pub(crate) fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The slow/truncated-request capture ring, when configured.
    pub(crate) fn capture(&self) -> Option<&CaptureRing> {
        self.capture.as_ref()
    }
}

/// One search's in-flight registration; deregisters on drop.
pub(crate) struct InFlight<'a> {
    state: &'a ServerState,
    id: u64,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Runs while a panicking search unwinds, so it must not panic
        // itself; a poisoned registry already fails every other use.
        if let Ok(mut map) = self.state.in_flight.lock() {
            map.remove(&self.id);
        }
    }
}

/// Builds the one-line access-log record for a finished request: its
/// method and HTTP path when it parsed, the exchange's wall time, and
/// the search's record when it was a search that answered 200.
fn access_line(
    record: Option<&SearchRecord>,
    request: Option<(&str, &str)>,
    status: u16,
    wall_ns: u64,
) -> String {
    let opt_str = |v: Option<&str>| v.map_or(Value::Null, |s| Value::Str(s.to_string()));
    let opt_int = |v: Option<u64>| v.map_or(Value::Null, Value::int);
    Value::Obj(vec![
        ("request_id".into(), opt_int(record.map(|r| r.request_id))),
        ("method".into(), opt_str(request.map(|(method, _)| method))),
        ("route".into(), opt_str(request.map(|(_, path)| path))),
        ("status".into(), Value::int(u64::from(status))),
        ("wall_ns".into(), Value::int(wall_ns)),
        (
            "effort_spent".into(),
            opt_int(record.and_then(|r| r.effort_spent)),
        ),
        (
            "completeness".into(),
            opt_str(record.map(|r| r.completeness())),
        ),
        (
            "circuit".into(),
            opt_str(record.map(|r| r.circuit.as_str())),
        ),
        (
            "pattern".into(),
            opt_str(record.map(|r| r.pattern.as_str())),
        ),
    ])
    .compact()
}

/// A clonable handle that asks a running server to shut down (used by
/// the signal handler and tests).
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Requests shutdown. [`Server::run`]'s thread notices within one
    /// 5 ms tick and wakes the workers blocked in `accept`.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    pub(crate) fn state(&self) -> &Arc<ServerState> {
        &self.state
    }
}

/// What a finished server did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections served to completion.
    pub served: u64,
    /// Searches cancelled (drained) by shutdown: those in flight when
    /// it began, plus any that began during it — 0 for a clean idle
    /// shutdown.
    pub drained: usize,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    engine: Arc<Engine>,
    /// The bound listener, cloned once per worker: every worker blocks
    /// in `accept` on its own handle to the one socket.
    listeners: Vec<TcpListener>,
    state: Arc<ServerState>,
    max_body_bytes: usize,
}

impl Server {
    /// Binds the configured address.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, and failures to clone the listener
    /// for each worker.
    pub fn bind(engine: Arc<Engine>, config: &ServeConfig) -> io::Result<Server> {
        let mut listeners = vec![TcpListener::bind(&config.addr)?];
        for _ in 1..config.workers.max(1) {
            listeners.push(listeners[0].try_clone()?);
        }
        Ok(Server {
            engine,
            listeners,
            state: Arc::new(ServerState::new(config)?),
            max_body_bytes: config.max_body_bytes,
        })
    }

    /// The resolved bound address (the actual port when binding `:0`).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (cannot happen for a
    /// freshly bound listener).
    pub fn local_addr(&self) -> SocketAddr {
        self.listeners[0]
            .local_addr()
            .expect("bound listener has addr")
    }

    /// A handle that requests shutdown from another thread or a signal
    /// handler.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested, then drains and returns.
    pub fn run(self) -> DrainReport {
        let wake = wake_addr(self.local_addr());
        let handles: Vec<_> = self
            .listeners
            .into_iter()
            .map(|listener| {
                let engine = Arc::clone(&self.engine);
                let state = Arc::clone(&self.state);
                let max_body = self.max_body_bytes;
                thread::spawn(move || accept_loop(&listener, &engine, &state, max_body))
            })
            .collect();
        while !self.state.is_shutting_down() {
            thread::sleep(TICK);
        }
        // Drain: trip every in-flight search's token (they complete as
        // truncated-with-reason-cancelled) and let busy workers finish
        // writing responses. Workers blocked in `accept` are woken by
        // loopback connections, which they drop unanswered. A real
        // client may take a wake-up's place, so rather than counting,
        // wake the unfinished workers once per tick until all exit.
        // Exits are looked for every 100 µs, so an idle shutdown is not
        // held for a whole tick after its wake-ups.
        self.state.cancel_in_flight();
        let running = || handles.iter().any(|h| !h.is_finished());
        while running() {
            for _ in handles.iter().filter(|h| !h.is_finished()) {
                let _ = TcpStream::connect_timeout(&wake, TICK);
            }
            let woken = Instant::now();
            while woken.elapsed() < TICK && running() {
                thread::sleep(Duration::from_micros(100));
            }
        }
        for h in handles {
            let _ = h.join();
        }
        DrainReport {
            served: self.state.served(),
            drained: self.state.drained.load(Ordering::Relaxed),
        }
    }
}

/// How long `run` sleeps between looks at the shutdown flag, and how
/// long a worker backs off after a failed `accept` (e.g. `EMFILE`).
const TICK: Duration = Duration::from_millis(5);

/// The address `run` connects to when waking workers: the bound one,
/// with an unspecified IP (`0.0.0.0`, `[::]`) replaced by the loopback
/// address of the same family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// One worker: blocks in `accept` and serves each connection itself,
/// so the kernel hands a connection to an idle worker the moment it
/// arrives. A connection accepted once shutdown has been requested (a
/// wake-up from [`Server::run`], or a late client) is dropped
/// unanswered: it is not served, counted or logged.
fn accept_loop(listener: &TcpListener, engine: &Engine, state: &Arc<ServerState>, max_body: usize) {
    while !state.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) if !state.is_shutting_down() => {
                handle_connection(stream, engine, state, max_body);
            }
            Ok(_) => break,
            Err(_) => thread::sleep(TICK),
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    state: &Arc<ServerState>,
    max_body: usize,
) {
    // Workers block on their own sockets; generous timeouts keep a
    // stalled client from wedging a worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut reader = io::BufReader::new(stream);
    let t0 = Instant::now();
    let mut record = None;
    let mut request_line: Option<(String, String)> = None;
    let response = match http::read_request(&mut reader, max_body) {
        Ok(request) => {
            request_line = Some((request.method.clone(), request.path.clone()));
            // A panicking handler (e.g. a degenerate uploaded pattern
            // hitting a core precondition) must not shrink the worker
            // pool: catch it and answer 500.
            let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                routes::route(engine, state, &request, &mut record)
            }));
            match handled {
                Ok(response) => response,
                Err(_) => {
                    state.http_errors.fetch_add(1, Ordering::Relaxed);
                    http::Response::error(500, "internal error handling the request")
                }
            }
        }
        Err(e) => {
            state.http_errors.fetch_add(1, Ordering::Relaxed);
            http::Response::error(e.status(), e.message())
        }
    };
    state.note_response(response.status);
    if let Some(log) = &state.access_log {
        let request = request_line.as_ref().map(|(m, p)| (m.as_str(), p.as_str()));
        log.write_line(&access_line(
            record.as_ref(),
            request,
            response.status,
            t0.elapsed().as_nanos() as u64,
        ));
    }
    let mut stream = reader.into_inner();
    if response.write_to(&mut stream).is_ok() {
        state.served.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_finish_search_bookkeeping() {
        let state = ServerState::new(&ServeConfig::default()).unwrap();
        let (a, _ta) = state.begin_search();
        let (b, tb) = state.begin_search();
        assert_ne!(a.id, b.id);
        assert_eq!(state.in_flight_count(), 2);
        drop(a);
        state.cancel_in_flight();
        assert_eq!(state.drained.load(Ordering::Relaxed), 1);
        assert!(tb.is_cancelled());
        drop(b);
        assert_eq!(state.in_flight_count(), 0);
    }

    #[test]
    fn search_begun_after_shutdown_starts_cancelled_and_counts_as_drained() {
        let state = ServerState::new(&ServeConfig::default()).unwrap();
        state.request_shutdown();
        let (registration, token) = state.begin_search();
        assert!(token.is_cancelled());
        assert_eq!(state.drained.load(Ordering::Relaxed), 1);
        // Never registered, so the drain's own sweep cannot count it twice.
        assert_eq!(state.in_flight_count(), 0);
        state.cancel_in_flight();
        assert_eq!(state.drained.load(Ordering::Relaxed), 1);
        drop(registration);
        assert_eq!(state.in_flight_count(), 0);
    }

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback() {
        let wake = |s: &str| wake_addr(s.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
    }

    #[test]
    fn shutdown_handle_flips_flag() {
        let state = Arc::new(ServerState::new(&ServeConfig::default()).unwrap());
        let handle = ShutdownHandle {
            state: Arc::clone(&state),
        };
        assert!(!state.is_shutting_down());
        handle.shutdown();
        assert!(state.is_shutting_down());
    }
}
