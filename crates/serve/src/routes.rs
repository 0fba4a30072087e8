//! The daemon's JSON API: URL dispatch plus the request/response glue
//! between HTTP bodies and engine requests.
//!
//! | Method | Path                  | Body                        | Answer |
//! |--------|-----------------------|-----------------------------|--------|
//! | GET    | `/healthz`            | —                           | status, uptime, version |
//! | GET    | `/metrics`            | —                           | server + engine counters + telemetry rollups |
//! | GET    | `/metrics?format=prometheus` | —                    | Prometheus text-format v0.0.4 |
//! | GET    | `/v1/requests`        | —                           | slow/truncated capture-ring summaries |
//! | GET    | `/v1/requests/{id}`   | —                           | one captured report + event journal |
//! | POST   | `/v1/circuits/{name}` | raw deck (`?format=spice\|verilog`) | compile info |
//! | POST   | `/v1/libraries/{name}`| raw deck of cell definitions | cell list |
//! | POST   | `/v1/find`            | JSON find request           | v1 report + instances |
//! | POST   | `/v1/survey`          | JSON survey request         | per-cell v1 reports |
//! | POST   | `/v1/explain`         | JSON find request           | explain report + v1 report |
//! | POST   | `/v1/hierarchize`     | JSON survey-shaped request  | hierarchy report + hierarchical deck |
//! | POST   | `/v1/shutdown`        | —                           | ack, then drain |
//!
//! Any other method on one of these paths answers 405; any other path
//! answers 404.
//!
//! Find/survey/explain bodies name a registered circuit (`"circuit":
//! "chip"`) or carry an inline one (`"circuit_source": "<deck>"`,
//! optional `"circuit_format"`); patterns name a registered library
//! cell (`"pattern": {"library": "lib", "cell": "inv"}`) or carry
//! inline source (`{"source": "<deck>", "cell": "inv"}`). The optional
//! `"options"` object maps one-to-one onto the CLI flags:
//! `ignore_globals`, `max_instances`, `threads`, `metrics`, `events`,
//! `max_effort`, `deadline_ms`. Any other key answers 400. Every
//! request carries its own budget and cancel token — a deadline that
//! expires mid-search answers 200 with `"completeness": "truncated"`,
//! exactly like the CLI. A search on a registered circuit prunes its
//! candidates against the circuit's fingerprint index; an inline one
//! does not.
//!
//! `u64` digests are emitted as 16-digit hex strings: the JSON number
//! type (f64) cannot carry them exactly.

use std::sync::Arc;

use subgemini::events::EventJournal;
use subgemini::metrics::json::{self, Value};
use subgemini::metrics::{outcome_to_json, REPORT_SCHEMA_VERSION};
use subgemini::telemetry::prometheus::TextWriter;
use subgemini::CancelToken;
use subgemini_engine::source::{
    check_patterns, load_cell, load_library, main_from_doc, parse_text, CellMode, SourceKind,
};
use subgemini_engine::{
    CircuitSource, Engine, EngineError, ExplainRequest, FindRequest, HierarchizeRequest,
    LibrarySource, PatternSource, RequestOptions, SurveyRequest,
};
use subgemini_netlist::Netlist;

use crate::http::{Request, Response};
use crate::{SearchRecord, ServerState};

/// Dispatches one parsed request by its path, then by its method: a
/// known path asked with another method answers 405. A search that
/// answers 200 leaves its record in `record`.
pub(crate) fn route(
    engine: &Engine,
    state: &Arc<ServerState>,
    req: &Request,
    record: &mut Option<SearchRecord>,
) -> Response {
    let path = req.path.as_str();
    let mut searching = |kind: Kind| search(engine, state, req, kind, record);
    let (method, handler): (&str, Box<dyn FnOnce() -> Response + '_>) = match path {
        "/healthz" => ("GET", Box::new(|| healthz(state))),
        "/metrics" => ("GET", Box::new(|| metrics(engine, state, req))),
        "/v1/requests" => ("GET", Box::new(|| list_captures(state))),
        "/v1/shutdown" => ("POST", Box::new(|| shutdown(state))),
        "/v1/find" => ("POST", Box::new(move || searching(find))),
        "/v1/explain" => ("POST", Box::new(move || searching(explain))),
        "/v1/survey" => ("POST", Box::new(move || searching(survey))),
        "/v1/hierarchize" => ("POST", Box::new(move || searching(hierarchize))),
        _ => {
            if let Some(id) = path.strip_prefix("/v1/requests/") {
                ("GET", Box::new(move || get_capture(state, id)))
            } else if let Some(name) = path.strip_prefix("/v1/circuits/") {
                (
                    "POST",
                    Box::new(move || register_circuit(engine, req, name)),
                )
            } else if let Some(name) = path.strip_prefix("/v1/libraries/") {
                (
                    "POST",
                    Box::new(move || register_library(engine, req, name)),
                )
            } else {
                return Response::error(404, "no such endpoint");
            }
        }
    };
    if req.method != method {
        return Response::error(405, "method not allowed");
    }
    handler()
}

fn healthz(state: &Arc<ServerState>) -> Response {
    Response::json(
        200,
        Value::Obj(vec![
            ("status".into(), Value::Str("ok".into())),
            ("uptime_seconds".into(), Value::int(state.uptime_seconds())),
            (
                "version".into(),
                Value::Str(env!("CARGO_PKG_VERSION").into()),
            ),
            ("schema_version".into(), Value::int(REPORT_SCHEMA_VERSION)),
        ])
        .pretty(),
    )
}

fn shutdown(state: &ServerState) -> Response {
    state.request_shutdown();
    Response::json(
        200,
        Value::Obj(vec![("status".into(), Value::Str("shutting-down".into()))]).pretty(),
    )
}

fn metrics(engine: &Engine, state: &Arc<ServerState>, req: &Request) -> Response {
    match req.query_value("format") {
        None | Some("json") => json_metrics(engine, state),
        Some("prometheus") => prometheus_metrics(engine, state),
        Some(other) => Response::error(
            400,
            &format!("format: `{other}` is not `json` or `prometheus`"),
        ),
    }
}

/// Prometheus text-format v0.0.4 exposition over the same counters and
/// telemetry rollups the JSON shape reports.
fn prometheus_metrics(engine: &Engine, state: &Arc<ServerState>) -> Response {
    let status = engine.status();
    let snap = &status.telemetry;
    let schema = REPORT_SCHEMA_VERSION.to_string();
    let mut w = TextWriter::new();
    w.gauge(
        "subg_build_info",
        "Build metadata; the value is always 1.",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("schema_version", &schema),
        ],
        1,
    );
    w.gauge(
        "subg_uptime_seconds",
        "Seconds since the daemon started.",
        &[],
        state.uptime_seconds(),
    );
    w.counter(
        "subg_connections_served_total",
        "Connections answered to completion.",
        &[],
        state.served(),
    );
    w.counter(
        "subg_http_errors_total",
        "Unparseable requests plus panicking handlers.",
        &[],
        state.http_errors(),
    );
    let [c2, c4, c5] = state.response_classes();
    for (class, v) in [("2xx", c2), ("4xx", c4), ("5xx", c5)] {
        w.counter(
            "subg_http_responses_total",
            "Responses by status class.",
            &[("class", class)],
            v,
        );
    }
    w.gauge(
        "subg_in_flight_searches",
        "Searches currently running.",
        &[],
        state.in_flight_count() as u64,
    );
    w.gauge(
        "subg_registered_circuits",
        "Circuits in the registry.",
        &[],
        status.circuits.len() as u64,
    );
    w.gauge(
        "subg_registered_libraries",
        "Pattern libraries in the registry.",
        &[],
        status.libraries.len() as u64,
    );
    for (kind, v) in &status.requests {
        w.counter(
            "subg_engine_requests_total",
            "Engine request counters by kind (includes `truncated`).",
            &[("kind", kind)],
            *v,
        );
    }
    for (endpoint, r) in &snap.endpoints {
        let labels = [("endpoint", endpoint.as_str())];
        w.counter(
            "subg_requests_total",
            "Completed search requests folded into telemetry.",
            &labels,
            r.requests,
        );
        w.counter(
            "subg_truncated_requests_total",
            "Requests that stopped early under a budget, deadline, or cancellation.",
            &labels,
            r.truncated,
        );
        w.histogram(
            "subg_request_wall_ns",
            "End-to-end search wall time in nanoseconds (log2 buckets).",
            &labels,
            &r.wall_ns,
        );
        w.histogram(
            "subg_request_effort",
            "Deterministic effort per request (log2 buckets).",
            &labels,
            &r.effort,
        );
        w.histogram(
            "subg_request_backtracks",
            "Phase II backtracks per request (log2 buckets).",
            &labels,
            &r.backtracks,
        );
        w.counter(
            "subg_pruned_candidates_total",
            "Candidates pruned by the fingerprint index.",
            &labels,
            r.pruned_candidates,
        );
        w.counter(
            "subg_admitted_candidates_total",
            "Candidates admitted past the fingerprint index.",
            &labels,
            r.admitted_candidates,
        );
        for (reason, v) in &r.truncation_reasons {
            w.counter(
                "subg_truncation_total",
                "Truncations by reason.",
                &[("endpoint", endpoint.as_str()), ("reason", reason.as_str())],
                *v,
            );
        }
        for (reason, v) in &r.reject_reasons {
            w.counter(
                "subg_reject_total",
                "Phase II candidate rejects by reason.",
                &[("endpoint", endpoint.as_str()), ("reason", reason.as_str())],
                *v,
            );
        }
    }
    for (circuit, r) in &snap.circuits {
        let labels = [("circuit", circuit.as_str())];
        w.counter(
            "subg_circuit_requests_total",
            "Completed requests per registered circuit.",
            &labels,
            r.requests,
        );
        w.histogram(
            "subg_circuit_wall_ns",
            "End-to-end search wall time per registered circuit (log2 buckets).",
            &labels,
            &r.wall_ns,
        );
        w.counter(
            "subg_circuit_pruned_candidates_total",
            "Candidates pruned by the circuit's fingerprint index.",
            &labels,
            r.pruned_candidates,
        );
        w.counter(
            "subg_circuit_admitted_candidates_total",
            "Candidates admitted past the circuit's fingerprint index.",
            &labels,
            r.admitted_candidates,
        );
    }
    Response::prometheus(w.finish())
}

fn json_metrics(engine: &Engine, state: &Arc<ServerState>) -> Response {
    let status = engine.status();
    let circuits = status
        .circuits
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("name".into(), Value::Str(c.name.clone())),
                ("devices".into(), Value::int(c.devices as u64)),
                ("nets".into(), Value::int(c.nets as u64)),
                ("digest".into(), Value::Str(format!("{:016x}", c.digest))),
                ("artifact_bytes".into(), Value::int(c.artifact_bytes as u64)),
            ])
        })
        .collect();
    let libraries = status
        .libraries
        .iter()
        .map(|(name, cells)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(name.clone())),
                ("cells".into(), Value::int(*cells as u64)),
            ])
        })
        .collect();
    let requests = status
        .requests
        .iter()
        .map(|(k, v)| (k.to_string(), Value::int(*v)))
        .collect();
    let [c2, c4, c5] = state.response_classes();
    let doc = Value::Obj(vec![
        (
            "server".into(),
            Value::Obj(vec![
                ("served".into(), Value::int(state.served())),
                ("http_errors".into(), Value::int(state.http_errors())),
                (
                    "in_flight".into(),
                    Value::int(state.in_flight_count() as u64),
                ),
                ("uptime_seconds".into(), Value::int(state.uptime_seconds())),
                (
                    "version".into(),
                    Value::Str(env!("CARGO_PKG_VERSION").into()),
                ),
                ("schema_version".into(), Value::int(REPORT_SCHEMA_VERSION)),
                (
                    "responses".into(),
                    Value::Obj(vec![
                        ("2xx".into(), Value::int(c2)),
                        ("4xx".into(), Value::int(c4)),
                        ("5xx".into(), Value::int(c5)),
                    ]),
                ),
            ]),
        ),
        (
            "engine".into(),
            Value::Obj(vec![
                ("circuits".into(), Value::Arr(circuits)),
                ("libraries".into(), Value::Arr(libraries)),
                ("requests".into(), Value::Obj(requests)),
            ]),
        ),
        ("telemetry".into(), status.telemetry.to_json()),
    ]);
    Response::json(200, doc.pretty())
}

fn body_text(req: &Request) -> Result<&str, String> {
    std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())
}

/// Reads a deck-format name; an absent one means SPICE. `Some(None)` is
/// a value that is not a string. `field` names the value in errors.
fn deck_format(field: &str, name: Option<Option<&str>>) -> Result<SourceKind, String> {
    let Some(name) = name else {
        return Ok(SourceKind::Spice);
    };
    let name = name.ok_or_else(|| format!("{field}: expected a string"))?;
    SourceKind::from_name(name)
        .ok_or_else(|| format!("{field}: `{name}` is not `spice` or `verilog`"))
}

/// An uploaded deck: the body's text and the format its `?format=` names.
fn body_deck(req: &Request) -> Result<(&str, SourceKind), String> {
    let kind = deck_format("format", req.query_value("format").map(Some));
    Ok((body_text(req)?, kind?))
}

fn register_circuit(engine: &Engine, req: &Request, name: &str) -> Response {
    if name.is_empty() || name.contains('/') {
        return Response::error(400, "circuit name must be a single non-empty path segment");
    }
    let parsed = body_deck(req)
        .and_then(|(text, kind)| parse_text(text, kind, name))
        .and_then(|doc| main_from_doc(&doc, name, name));
    match parsed {
        Ok(main) => {
            let info = engine.register_circuit(name, main);
            Response::json(
                200,
                Value::Obj(vec![
                    ("circuit".into(), Value::Str(info.name)),
                    ("devices".into(), Value::int(info.devices as u64)),
                    ("nets".into(), Value::int(info.nets as u64)),
                    ("digest".into(), Value::Str(format!("{:016x}", info.digest))),
                    (
                        "artifact_bytes".into(),
                        Value::int(info.artifact_bytes as u64),
                    ),
                ])
                .pretty(),
            )
        }
        Err(e) => Response::error(400, &e),
    }
}

fn register_library(engine: &Engine, req: &Request, name: &str) -> Response {
    if name.is_empty() || name.contains('/') {
        return Response::error(400, "library name must be a single non-empty path segment");
    }
    let parsed = body_deck(req)
        .and_then(|(text, kind)| parse_text(text, kind, name))
        .and_then(|doc| load_library(&doc, CellMode::Flat, name));
    match parsed {
        Ok(cells) => {
            let info = engine.register_library(name, cells);
            Response::json(
                200,
                Value::Obj(vec![
                    ("library".into(), Value::Str(info.name)),
                    (
                        "cells".into(),
                        Value::Arr(info.cells.into_iter().map(Value::Str).collect()),
                    ),
                ])
                .pretty(),
            )
        }
        Err(e) => Response::error(400, &e),
    }
}

/// The circuit named or embedded in a JSON request body.
enum BodyCircuit {
    Named(String),
    Inline(Box<Netlist>),
}

impl BodyCircuit {
    fn as_source(&self) -> CircuitSource<'_> {
        match self {
            BodyCircuit::Named(name) => CircuitSource::Registered(name),
            BodyCircuit::Inline(netlist) => CircuitSource::Inline(netlist),
        }
    }
}

fn circuit_from(body: &Value) -> Result<BodyCircuit, String> {
    if let Some(name) = body.get("circuit") {
        let name = name.as_str().ok_or("circuit: expected a string")?;
        return Ok(BodyCircuit::Named(name.to_string()));
    }
    if let Some(src) = body.get("circuit_source") {
        let text = src.as_str().ok_or("circuit_source: expected a string")?;
        let kind = deck_format(
            "circuit_format",
            body.get("circuit_format").map(Value::as_str),
        )?;
        let doc = parse_text(text, kind, "circuit_source")?;
        return main_from_doc(&doc, "circuit", "circuit_source")
            .map(|n| BodyCircuit::Inline(Box::new(n)));
    }
    Err("body needs `circuit` (a registered name) or `circuit_source` (an inline deck)".into())
}

/// The pattern named or embedded in a JSON request body.
enum BodyPattern {
    Library { library: String, cell: String },
    Inline(Box<Netlist>),
}

impl BodyPattern {
    fn as_source(&self) -> PatternSource<'_> {
        match self {
            BodyPattern::Library { library, cell } => PatternSource::Library { library, cell },
            BodyPattern::Inline(netlist) => PatternSource::Inline(netlist),
        }
    }
}

fn pattern_from(body: &Value) -> Result<BodyPattern, String> {
    let spec = body.get("pattern").ok_or("body needs a `pattern` object")?;
    if let Some(library) = spec.get("library") {
        let library = library
            .as_str()
            .ok_or("pattern.library: expected a string")?;
        let cell = spec
            .get("cell")
            .and_then(Value::as_str)
            .ok_or("pattern.cell: expected a string")?;
        return Ok(BodyPattern::Library {
            library: library.to_string(),
            cell: cell.to_string(),
        });
    }
    if let Some(src) = spec.get("source") {
        let text = src.as_str().ok_or("pattern.source: expected a string")?;
        let cell = spec
            .get("cell")
            .and_then(Value::as_str)
            .ok_or("pattern.cell: expected a string")?;
        let kind = deck_format("pattern.format", spec.get("format").map(Value::as_str))?;
        let pattern = load_cell(&parse_text(text, kind, "pattern")?, cell, "pattern")?;
        check_patterns(std::slice::from_ref(&pattern), "pattern")?;
        return Ok(BodyPattern::Inline(Box::new(pattern)));
    }
    Err("pattern needs `library`+`cell` or `source`+`cell`".into())
}

fn expect_bool(key: &str, v: &Value) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("options.{key}: expected a boolean")),
    }
}

fn expect_count(key: &str, v: &Value) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("options.{key}: expected a non-negative integer"))
}

fn options_from(body: &Value) -> Result<RequestOptions, String> {
    let mut opts = RequestOptions::default();
    let Some(spec) = body.get("options") else {
        return Ok(opts);
    };
    let Value::Obj(fields) = spec else {
        return Err("options: expected an object".into());
    };
    let mut budget = subgemini::WorkBudget::default();
    for (key, v) in fields {
        match key.as_str() {
            "ignore_globals" => opts.respect_globals = !expect_bool(key, v)?,
            "max_instances" => opts.max_instances = expect_count(key, v)? as usize,
            "threads" => opts.threads = expect_count(key, v)? as usize,
            "metrics" => opts.collect_metrics = expect_bool(key, v)?,
            "events" => opts.trace_events = expect_bool(key, v)?,
            "max_effort" => budget.max_effort = Some(expect_count(key, v)?),
            "deadline_ms" => budget.deadline_ms = Some(expect_count(key, v)?),
            other => return Err(format!("options: unknown key `{other}`")),
        }
    }
    if !budget.is_unlimited() {
        opts.budget = Some(budget);
    }
    Ok(opts)
}

fn parse_body(req: &Request) -> Result<Value, String> {
    json::parse(body_text(req)?)
}

/// The 404 both capture endpoints answer when capture is off.
fn capture_off() -> Response {
    Response::error(
        404,
        "slow-request capture is off; start the daemon with --slow-ms to enable it",
    )
}

fn list_captures(state: &ServerState) -> Response {
    let Some(ring) = state.capture() else {
        return capture_off();
    };
    let entries = Value::Arr(ring.summaries());
    Response::json(200, Value::Obj(vec![("requests".into(), entries)]).pretty())
}

fn get_capture(state: &ServerState, id: &str) -> Response {
    let Some(ring) = state.capture() else {
        return capture_off();
    };
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "request id must be a non-negative integer");
    };
    let Some(c) = ring.get(id) else {
        return Response::error(
            404,
            "no captured request with that id (evicted or never slow)",
        );
    };
    let journal_lines = c
        .journal
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|_| Value::Str(line.to_string())))
        .collect();
    let mut doc = c.record.summary();
    doc.push(("report".into(), c.report));
    doc.push(("journal".into(), Value::Arr(journal_lines)));
    Response::json(200, Value::Obj(doc).pretty())
}

/// The library named or embedded in a survey body.
enum BodyLibrary {
    Named(String),
    Inline(Vec<Netlist>),
}

impl BodyLibrary {
    fn as_source(&self) -> LibrarySource<'_> {
        match self {
            BodyLibrary::Named(name) => LibrarySource::Registered(name),
            BodyLibrary::Inline(cells) => LibrarySource::Inline(cells),
        }
    }

    /// The pattern label a library search is logged and captured under.
    fn label(&self) -> String {
        match self {
            BodyLibrary::Named(name) => format!("library:{name}"),
            BodyLibrary::Inline(_) => "library:(inline)".to_string(),
        }
    }
}

/// The library named or embedded in a JSON request body; an inline
/// deck elaborates its cells in `mode`.
fn library_from(body: &Value, mode: CellMode) -> Result<BodyLibrary, String> {
    let spec = body
        .get("library")
        .ok_or("body needs a `library` (name or object)")?;
    if let Some(name) = spec.as_str() {
        return Ok(BodyLibrary::Named(name.to_string()));
    }
    if let Some(src) = spec.get("source") {
        let text = src.as_str().ok_or("library.source: expected a string")?;
        let kind = deck_format("library.format", spec.get("format").map(Value::as_str))?;
        let doc = parse_text(text, kind, "library")?;
        return load_library(&doc, mode, "library").map(BodyLibrary::Inline);
    }
    Err("library needs a registered name or a `source` deck".into())
}

/// What a search kind's step hands back to [`search`].
struct Searched {
    record: SearchRecord,
    /// The response document.
    doc: Value,
    /// The event journals the search recorded, in order.
    journals: Vec<EventJournal>,
}

/// Why a search answered without a report: the status and the message.
struct Refusal(u16, String);

/// A malformed body answers 400.
impl From<String> for Refusal {
    fn from(e: String) -> Self {
        Refusal(400, e)
    }
}

impl From<EngineError> for Refusal {
    fn from(e: EngineError) -> Self {
        let status = match e {
            EngineError::UnknownCircuit(_)
            | EngineError::UnknownLibrary(_)
            | EngineError::UnknownCell { .. } => 404,
            EngineError::Invalid(_) => 400,
        };
        Refusal(status, e.to_string())
    }
}

/// What the search route lends a kind's step.
struct Lent {
    cancel: CancelToken,
    /// Whether a capture ring is configured.
    capture: bool,
}

impl Lent {
    /// The body's options, run under the request's cancel token. With
    /// `journal`, the event journal is forced on while capture is
    /// configured, for a kind whose response never serializes it and
    /// whose engine call does not record one itself.
    fn options(self, body: &Value, journal: bool) -> Result<RequestOptions, String> {
        let mut options = options_from(body)?;
        options.cancel = Some(self.cancel);
        options.trace_events |= journal && self.capture;
        Ok(options)
    }
}

/// A search kind's own step: parse its sources in order (the circuit,
/// then the pattern or library, then the options), call the engine and
/// build the response document.
type Kind = fn(&Engine, &Value, Lent) -> Result<Searched, Refusal>;

/// The one route every search takes. The search is registered in
/// flight before its body is read, so a draining shutdown cancels and
/// counts it. A 200 is offered to the capture ring and leaves its
/// record in `record`.
fn search(
    engine: &Engine,
    state: &ServerState,
    req: &Request,
    kind: Kind,
    record: &mut Option<SearchRecord>,
) -> Response {
    let (_registration, cancel) = state.begin_search();
    let capture = state.capture().is_some();
    let searched = parse_body(req)
        .map_err(Refusal::from)
        .and_then(|body| kind(engine, &body, Lent { cancel, capture }));
    match searched {
        Ok(searched) => {
            let response = Response::json(200, searched.doc.pretty());
            if let Some(ring) = state.capture() {
                ring.offer(&searched.record, searched.doc, &searched.journals);
            }
            *record = Some(searched.record);
            response
        }
        Err(Refusal(status, e)) => Response::error(status, &e),
    }
}

fn find(engine: &Engine, body: &Value, lent: Lent) -> Result<Searched, Refusal> {
    let circuit = circuit_from(body)?;
    let pattern = pattern_from(body)?;
    let resp = engine.find(&FindRequest {
        circuit: circuit.as_source(),
        pattern: pattern.as_source(),
        options: lent.options(body, true)?,
    })?;
    let Value::Obj(mut doc) = outcome_to_json(&resp.outcome) else {
        unreachable!("outcome_to_json answers an object");
    };
    // v1-additive: the base report keeps its exact field order; the
    // daemon appends its own fields after it.
    let instance_devices = resp
        .instance_devices()
        .map(|names| Value::Arr(names.into_iter().map(|n| Value::Str(n.into())).collect()));
    doc.extend([
        ("circuit".into(), Value::Str(resp.circuit.clone())),
        ("pattern".into(), Value::Str(resp.pattern.clone())),
        ("found".into(), Value::int(resp.outcome.count() as u64)),
        (
            "instance_devices".into(),
            Value::Arr(instance_devices.collect()),
        ),
        ("wall_ns".into(), Value::int(resp.wall_ns)),
        ("effort_spent".into(), Value::int(resp.effort_spent)),
    ]);
    Ok(Searched {
        record: SearchRecord {
            request_id: resp.request_id,
            kind: "find",
            circuit: resp.circuit,
            pattern: resp.pattern,
            wall_ns: resp.wall_ns,
            effort_spent: Some(resp.effort_spent),
            truncated: resp.outcome.completeness.is_truncated(),
        },
        doc: Value::Obj(doc),
        journals: resp.outcome.events.into_iter().collect(),
    })
}

fn explain(engine: &Engine, body: &Value, lent: Lent) -> Result<Searched, Refusal> {
    let circuit = circuit_from(body)?;
    let pattern = pattern_from(body)?;
    // The engine records the journal of every explain itself.
    let resp = engine.explain(&ExplainRequest {
        circuit: circuit.as_source(),
        pattern: pattern.as_source(),
        options: lent.options(body, false)?,
    })?;
    let doc = Value::Obj(vec![
        ("circuit".into(), Value::Str(resp.circuit.clone())),
        ("pattern".into(), Value::Str(resp.pattern.clone())),
        ("found".into(), Value::int(resp.outcome.count() as u64)),
        ("explain".into(), resp.report.to_json()),
        ("report".into(), outcome_to_json(&resp.outcome)),
        ("request_id".into(), Value::int(resp.request_id)),
        ("wall_ns".into(), Value::int(resp.wall_ns)),
        ("effort_spent".into(), Value::int(resp.effort_spent)),
    ]);
    Ok(Searched {
        record: SearchRecord {
            request_id: resp.request_id,
            kind: "explain",
            circuit: resp.circuit,
            pattern: resp.pattern,
            wall_ns: resp.wall_ns,
            effort_spent: Some(resp.effort_spent),
            truncated: resp.outcome.completeness.is_truncated(),
        },
        doc,
        journals: resp.outcome.events.into_iter().collect(),
    })
}

fn survey(engine: &Engine, body: &Value, lent: Lent) -> Result<Searched, Refusal> {
    let circuit = circuit_from(body)?;
    let library = library_from(body, CellMode::Flat)?;
    let resp = engine.survey(&SurveyRequest {
        circuit: circuit.as_source(),
        library: library.as_source(),
        options: lent.options(body, true)?,
    })?;
    let rows = resp.rows.iter().map(|row| {
        Value::Obj(vec![
            ("cell".into(), Value::Str(row.cell.clone())),
            ("found".into(), Value::int(row.outcome.count() as u64)),
            ("report".into(), outcome_to_json(&row.outcome)),
        ])
    });
    let doc = Value::Obj(vec![
        ("circuit".into(), Value::Str(resp.circuit.clone())),
        ("rows".into(), Value::Arr(rows.collect())),
        ("request_id".into(), Value::int(resp.request_id)),
        ("wall_ns".into(), Value::int(resp.wall_ns)),
        ("effort_spent".into(), Value::int(resp.effort_spent)),
    ]);
    let truncated = resp
        .rows
        .iter()
        .any(|r| r.outcome.completeness.is_truncated());
    Ok(Searched {
        record: SearchRecord {
            request_id: resp.request_id,
            kind: "survey",
            circuit: resp.circuit,
            pattern: library.label(),
            wall_ns: resp.wall_ns,
            effort_spent: Some(resp.effort_spent),
            truncated,
        },
        doc,
        // One journal per row; their concatenated NDJSON keeps each
        // row's `journal_end` trailer as the separator.
        journals: resp
            .rows
            .into_iter()
            .filter_map(|r| r.outcome.events)
            .collect(),
    })
}

fn hierarchize(engine: &Engine, body: &Value, lent: Lent) -> Result<Searched, Refusal> {
    let circuit = circuit_from(body)?;
    // Inline decks keep one level of `X`-instance structure: flat
    // elaboration (what find/survey use for patterns) would erase
    // the reference depth the level grouping reconstructs.
    // Registered libraries pass through as stored —
    // libraries uploaded over HTTP are flattened at registration,
    // so a full tree needs the library inline in the request.
    let library = library_from(body, CellMode::Hierarchical)?;
    let resp = engine.hierarchize(&HierarchizeRequest {
        circuit: circuit.as_source(),
        library: library.as_source(),
        options: lent.options(body, false)?,
    })?;
    let doc = Value::Obj(vec![
        ("circuit".into(), Value::Str(resp.circuit.clone())),
        ("hierarchy".into(), resp.report.to_json()),
        ("deck".into(), Value::Str(resp.deck)),
        ("rounds".into(), Value::int(resp.rounds as u64)),
        ("request_id".into(), Value::int(resp.request_id)),
        ("wall_ns".into(), Value::int(resp.wall_ns)),
    ]);
    Ok(Searched {
        record: SearchRecord {
            request_id: resp.request_id,
            kind: "hierarchize",
            circuit: resp.circuit,
            pattern: library.label(),
            wall_ns: resp.wall_ns,
            effort_spent: None,
            truncated: resp.report.levels.iter().any(|l| l.truncated_cells > 0),
        },
        doc,
        // Hierarchize rounds carry no per-match journals; capture
        // records the report document alone.
        journals: Vec::new(),
    })
}
