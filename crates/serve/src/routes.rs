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
//! Find/survey/explain bodies name a registered circuit (`"circuit":
//! "chip"`) or carry an inline one (`"circuit_source": "<deck>"`,
//! optional `"circuit_format"`); patterns name a registered library
//! cell (`"pattern": {"library": "lib", "cell": "inv"}`) or carry
//! inline source (`{"source": "<deck>", "cell": "inv"}`). The optional
//! `"options"` object maps one-to-one onto the CLI flags:
//! `ignore_globals`, `max_instances`, `threads`, `metrics`, `events`,
//! `max_effort`, `deadline_ms`, `prune`. Any other key answers 400.
//! Every
//! request carries its own budget and cancel token — a deadline that
//! expires mid-search answers 200 with `"completeness": "truncated"`,
//! exactly like the CLI.
//!
//! `u64` digests are emitted as 16-digit hex strings: the JSON number
//! type (f64) cannot carry them exactly.

use std::sync::Arc;

use subgemini::metrics::json::{self, Value};
use subgemini::metrics::{outcome_to_json, REPORT_SCHEMA_VERSION};
use subgemini::telemetry::prometheus::TextWriter;
use subgemini_engine::source::{
    load_cell, load_cells, main_from_doc, parse_text, CellMode, SourceKind,
};
use subgemini_engine::{
    CircuitSource, Engine, EngineError, ExplainRequest, FindRequest, FindResponse,
    HierarchizeRequest, HierarchizeResponse, LibrarySource, PatternSource, RequestOptions,
    SurveyRequest, SurveyResponse,
};
use subgemini_netlist::Netlist;

use crate::http::{Request, Response};
use crate::{CapturedRequest, ServerState};

/// Per-request correlation fields the search handlers report back to
/// the connection loop for the access log.
#[derive(Debug, Default)]
pub(crate) struct RequestMeta {
    pub(crate) request_id: Option<u64>,
    pub(crate) circuit: Option<String>,
    pub(crate) pattern: Option<String>,
    pub(crate) effort_spent: Option<u64>,
    pub(crate) completeness: Option<&'static str>,
}

/// Dispatches one parsed request.
pub(crate) fn route(
    engine: &Engine,
    state: &Arc<ServerState>,
    req: &Request,
    meta: &mut RequestMeta,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(engine, state, req),
        ("GET", "/v1/requests") => list_captures(state),
        ("GET", path) if path.starts_with("/v1/requests/") => {
            get_capture(state, &path["/v1/requests/".len()..])
        }
        ("POST", "/v1/shutdown") => {
            state.request_shutdown();
            Response::json(
                200,
                Value::Obj(vec![("status".into(), Value::Str("shutting-down".into()))]).pretty(),
            )
        }
        ("POST", "/v1/find") => searching(state, |cancel| find(engine, state, req, cancel, meta)),
        ("POST", "/v1/explain") => {
            searching(state, |cancel| explain(engine, state, req, cancel, meta))
        }
        ("POST", "/v1/survey") => {
            searching(state, |cancel| survey(engine, state, req, cancel, meta))
        }
        ("POST", "/v1/hierarchize") => searching(state, |cancel| {
            hierarchize(engine, state, req, cancel, meta)
        }),
        ("POST", path) if path.starts_with("/v1/circuits/") => {
            register_circuit(engine, req, &path["/v1/circuits/".len()..])
        }
        ("POST", path) if path.starts_with("/v1/libraries/") => {
            register_library(engine, req, &path["/v1/libraries/".len()..])
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/requests" | "/v1/find" | "/v1/survey" | "/v1/explain"
            | "/v1/hierarchize" | "/v1/shutdown",
        ) => Response::error(405, "method not allowed"),
        (_, path) if path.starts_with("/v1/requests/") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such endpoint"),
    }
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

/// Runs a search-shaped handler with an in-flight registration, so a
/// draining shutdown can cancel it.
fn searching(
    state: &Arc<ServerState>,
    f: impl FnOnce(subgemini::CancelToken) -> Response,
) -> Response {
    let (_registration, token) = state.begin_search();
    f(token)
}

fn engine_failure(e: &EngineError) -> Response {
    let status = match e {
        EngineError::UnknownCircuit(_)
        | EngineError::UnknownLibrary(_)
        | EngineError::UnknownCell { .. } => 404,
        EngineError::Invalid(_) => 400,
    };
    Response::error(status, &e.to_string())
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

fn body_format(req: &Request) -> Result<SourceKind, String> {
    match req.query_value("format") {
        None => Ok(SourceKind::Spice),
        Some(name) => SourceKind::from_name(name)
            .ok_or_else(|| format!("format: `{name}` is not `spice` or `verilog`")),
    }
}

fn register_circuit(engine: &Engine, req: &Request, name: &str) -> Response {
    if req.method != "POST" {
        return Response::error(405, "method not allowed");
    }
    if name.is_empty() || name.contains('/') {
        return Response::error(400, "circuit name must be a single non-empty path segment");
    }
    let parsed = body_text(req)
        .and_then(|text| body_format(req).map(|kind| (text, kind)))
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

fn cells_from_deck(
    text: &str,
    kind: SourceKind,
    label: &str,
    mode: CellMode,
) -> Result<Vec<Netlist>, String> {
    let cells = load_cells(&parse_text(text, kind, label)?, mode, label)?;
    if cells.is_empty() {
        return Err(format!("{label}: no cell definitions"));
    }
    Ok(cells)
}

fn register_library(engine: &Engine, req: &Request, name: &str) -> Response {
    if req.method != "POST" {
        return Response::error(405, "method not allowed");
    }
    if name.is_empty() || name.contains('/') {
        return Response::error(400, "library name must be a single non-empty path segment");
    }
    let parsed = body_text(req)
        .and_then(|text| body_format(req).map(|kind| (text, kind)))
        .and_then(|(text, kind)| cells_from_deck(text, kind, name, CellMode::Flat));
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
        let kind = match body.get("circuit_format") {
            None => SourceKind::Spice,
            Some(v) => {
                let name = v.as_str().ok_or("circuit_format: expected a string")?;
                SourceKind::from_name(name).ok_or_else(|| {
                    format!("circuit_format: `{name}` is not `spice` or `verilog`")
                })?
            }
        };
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
        let kind = match spec.get("format") {
            None => SourceKind::Spice,
            Some(v) => {
                let name = v.as_str().ok_or("pattern.format: expected a string")?;
                SourceKind::from_name(name).ok_or_else(|| {
                    format!("pattern.format: `{name}` is not `spice` or `verilog`")
                })?
            }
        };
        let doc = parse_text(text, kind, "pattern")?;
        return load_cell(&doc, cell, "pattern").map(|n| BodyPattern::Inline(Box::new(n)));
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
            "prune" => {
                let name = v.as_str().ok_or("options.prune: expected a string")?;
                opts.prune = match name {
                    "auto" => subgemini::PrunePolicy::Auto,
                    "always" => subgemini::PrunePolicy::Always,
                    "never" => subgemini::PrunePolicy::Never,
                    other => {
                        return Err(format!(
                            "options.prune: `{other}` is not a policy (expected `auto`, `always` or `never`)"
                        ))
                    }
                };
            }
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

fn find_response_doc(resp: &FindResponse) -> Value {
    let Value::Obj(mut fields) = outcome_to_json(&resp.outcome) else {
        unreachable!("outcome_to_json answers an object");
    };
    // v1-additive: the base report keeps its exact field order; the
    // daemon appends its own fields after it.
    fields.push(("circuit".into(), Value::Str(resp.circuit.clone())));
    fields.push(("pattern".into(), Value::Str(resp.pattern.clone())));
    fields.push(("found".into(), Value::int(resp.outcome.count() as u64)));
    fields.push((
        "instance_devices".into(),
        Value::Arr(
            resp.instance_devices
                .iter()
                .map(|names| Value::Arr(names.iter().map(|n| Value::Str(n.clone())).collect()))
                .collect(),
        ),
    ));
    fields.push(("wall_ns".into(), Value::int(resp.wall_ns)));
    fields.push(("effort_spent".into(), Value::int(resp.effort_spent)));
    Value::Obj(fields)
}

/// `"complete"` / `"truncated"` for logs and captures.
fn completeness_str(outcome: &subgemini::MatchOutcome) -> &'static str {
    if outcome.completeness.is_truncated() {
        "truncated"
    } else {
        "complete"
    }
}

/// Serializes the outcome's event journal as NDJSON (empty string when
/// the search ran without `trace_events`).
fn journal_text(outcome: &subgemini::MatchOutcome) -> String {
    outcome
        .events
        .as_ref()
        .map(subgemini::events::journal_to_ndjson)
        .unwrap_or_default()
}

/// Offers a finished search to the capture ring, if one is configured
/// and the request qualifies (slow or truncated).
#[allow(clippy::too_many_arguments)]
fn maybe_capture(
    state: &Arc<ServerState>,
    route: &'static str,
    id: u64,
    circuit: &str,
    pattern: &str,
    wall_ns: u64,
    completeness: &'static str,
    report: &Value,
    journal: String,
) {
    let Some(ring) = state.capture() else {
        return;
    };
    if !ring.wants(wall_ns, completeness == "truncated") {
        return;
    }
    ring.push(CapturedRequest {
        id,
        route,
        circuit: circuit.to_string(),
        pattern: pattern.to_string(),
        wall_ns,
        completeness,
        report: report.pretty(),
        journal,
    });
}

fn list_captures(state: &Arc<ServerState>) -> Response {
    let Some(ring) = state.capture() else {
        return Response::error(
            404,
            "slow-request capture is off; start the daemon with --slow-ms to enable it",
        );
    };
    let entries = ring
        .entries()
        .into_iter()
        .map(|c| {
            Value::Obj(vec![
                ("request_id".into(), Value::int(c.id)),
                ("route".into(), Value::Str(c.route.into())),
                ("circuit".into(), Value::Str(c.circuit)),
                ("pattern".into(), Value::Str(c.pattern)),
                ("wall_ns".into(), Value::int(c.wall_ns)),
                ("completeness".into(), Value::Str(c.completeness.into())),
            ])
        })
        .collect();
    Response::json(
        200,
        Value::Obj(vec![("requests".into(), Value::Arr(entries))]).pretty(),
    )
}

fn get_capture(state: &Arc<ServerState>, id: &str) -> Response {
    let Some(ring) = state.capture() else {
        return Response::error(
            404,
            "slow-request capture is off; start the daemon with --slow-ms to enable it",
        );
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
    let report = json::parse(&c.report).unwrap_or(Value::Null);
    let doc = Value::Obj(vec![
        ("request_id".into(), Value::int(c.id)),
        ("route".into(), Value::Str(c.route.into())),
        ("circuit".into(), Value::Str(c.circuit)),
        ("pattern".into(), Value::Str(c.pattern)),
        ("wall_ns".into(), Value::int(c.wall_ns)),
        ("completeness".into(), Value::Str(c.completeness.into())),
        ("report".into(), report),
        ("journal".into(), Value::Arr(journal_lines)),
    ]);
    Response::json(200, doc.pretty())
}

fn survey_response_doc(resp: &SurveyResponse) -> Value {
    let rows = resp
        .rows
        .iter()
        .map(|row| {
            Value::Obj(vec![
                ("cell".into(), Value::Str(row.cell.clone())),
                ("found".into(), Value::int(row.outcome.count() as u64)),
                ("report".into(), outcome_to_json(&row.outcome)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("circuit".into(), Value::Str(resp.circuit.clone())),
        ("rows".into(), Value::Arr(rows)),
        ("request_id".into(), Value::int(resp.request_id)),
        ("wall_ns".into(), Value::int(resp.wall_ns)),
        ("effort_spent".into(), Value::int(resp.effort_spent)),
    ])
}

fn find(
    engine: &Engine,
    state: &Arc<ServerState>,
    req: &Request,
    cancel: subgemini::CancelToken,
    meta: &mut RequestMeta,
) -> Response {
    let prepared = parse_body(req).and_then(|body| {
        let circuit = circuit_from(&body)?;
        let pattern = pattern_from(&body)?;
        let options = options_from(&body)?;
        Ok((circuit, pattern, options))
    });
    let (circuit, pattern, mut options) = match prepared {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    options.cancel = Some(cancel);
    // Capture needs the journal; the find response never serializes it,
    // so forcing it on does not change the response bytes.
    if state.capture().is_some() {
        options.trace_events = true;
    }
    match engine.find(&FindRequest {
        circuit: circuit.as_source(),
        pattern: pattern.as_source(),
        options,
    }) {
        Ok(resp) => {
            let completeness = completeness_str(&resp.outcome);
            meta.request_id = Some(resp.request_id);
            meta.circuit = Some(resp.circuit.clone());
            meta.pattern = Some(resp.pattern.clone());
            meta.effort_spent = Some(resp.effort_spent);
            meta.completeness = Some(completeness);
            let doc = find_response_doc(&resp);
            maybe_capture(
                state,
                "find",
                resp.request_id,
                &resp.circuit,
                &resp.pattern,
                resp.wall_ns,
                completeness,
                &doc,
                journal_text(&resp.outcome),
            );
            Response::json(200, doc.pretty())
        }
        Err(e) => engine_failure(&e),
    }
}

fn explain(
    engine: &Engine,
    state: &Arc<ServerState>,
    req: &Request,
    cancel: subgemini::CancelToken,
    meta: &mut RequestMeta,
) -> Response {
    let prepared = parse_body(req).and_then(|body| {
        let circuit = circuit_from(&body)?;
        let pattern = pattern_from(&body)?;
        let options = options_from(&body)?;
        Ok((circuit, pattern, options))
    });
    let (circuit, pattern, mut options) = match prepared {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    options.cancel = Some(cancel);
    match engine.explain(&ExplainRequest {
        circuit: circuit.as_source(),
        pattern: pattern.as_source(),
        options,
    }) {
        Ok(resp) => {
            let completeness = completeness_str(&resp.outcome);
            meta.request_id = Some(resp.request_id);
            meta.circuit = Some(resp.circuit.clone());
            meta.pattern = Some(resp.pattern.clone());
            meta.effort_spent = Some(resp.effort_spent);
            meta.completeness = Some(completeness);
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
            maybe_capture(
                state,
                "explain",
                resp.request_id,
                &resp.circuit,
                &resp.pattern,
                resp.wall_ns,
                completeness,
                &doc,
                journal_text(&resp.outcome),
            );
            Response::json(200, doc.pretty())
        }
        Err(e) => engine_failure(&e),
    }
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
        let kind = match spec.get("format") {
            None => SourceKind::Spice,
            Some(v) => {
                let name = v.as_str().ok_or("library.format: expected a string")?;
                SourceKind::from_name(name).ok_or_else(|| {
                    format!("library.format: `{name}` is not `spice` or `verilog`")
                })?
            }
        };
        return cells_from_deck(text, kind, "library", mode).map(BodyLibrary::Inline);
    }
    Err("library needs a registered name or a `source` deck".into())
}

fn survey(
    engine: &Engine,
    state: &Arc<ServerState>,
    req: &Request,
    cancel: subgemini::CancelToken,
    meta: &mut RequestMeta,
) -> Response {
    let prepared = parse_body(req).and_then(|body| {
        let circuit = circuit_from(&body)?;
        let library = library_from(&body, CellMode::Flat)?;
        let options = options_from(&body)?;
        Ok((circuit, library, options))
    });
    let (circuit, library, mut options) = match prepared {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    options.cancel = Some(cancel);
    // Same reasoning as `find`: survey rows never serialize journals.
    if state.capture().is_some() {
        options.trace_events = true;
    }
    let library_label = match &library {
        BodyLibrary::Named(name) => format!("library:{name}"),
        BodyLibrary::Inline(_) => "library:(inline)".to_string(),
    };
    match engine.survey(&SurveyRequest {
        circuit: circuit.as_source(),
        library: library.as_source(),
        options,
    }) {
        Ok(resp) => {
            let truncated = resp
                .rows
                .iter()
                .any(|r| r.outcome.completeness.is_truncated());
            let completeness = if truncated { "truncated" } else { "complete" };
            meta.request_id = Some(resp.request_id);
            meta.circuit = Some(resp.circuit.clone());
            meta.pattern = Some(library_label.clone());
            meta.effort_spent = Some(resp.effort_spent);
            meta.completeness = Some(completeness);
            let doc = survey_response_doc(&resp);
            // One journal per row; concatenated NDJSON keeps each
            // row's `journal_end` trailer as the separator.
            let journal = resp
                .rows
                .iter()
                .map(|r| journal_text(&r.outcome))
                .collect::<Vec<_>>()
                .concat();
            maybe_capture(
                state,
                "survey",
                resp.request_id,
                &resp.circuit,
                &library_label,
                resp.wall_ns,
                completeness,
                &doc,
                journal,
            );
            Response::json(200, doc.pretty())
        }
        Err(e) => engine_failure(&e),
    }
}

fn hierarchize_response_doc(resp: &HierarchizeResponse) -> Value {
    Value::Obj(vec![
        ("circuit".into(), Value::Str(resp.circuit.clone())),
        ("hierarchy".into(), resp.report.to_json()),
        ("deck".into(), Value::Str(resp.deck.clone())),
        ("rounds".into(), Value::int(resp.rounds as u64)),
        ("request_id".into(), Value::int(resp.request_id)),
        ("wall_ns".into(), Value::int(resp.wall_ns)),
    ])
}

fn hierarchize(
    engine: &Engine,
    state: &Arc<ServerState>,
    req: &Request,
    cancel: subgemini::CancelToken,
    meta: &mut RequestMeta,
) -> Response {
    let prepared = parse_body(req).and_then(|body| {
        let circuit = circuit_from(&body)?;
        // Inline decks keep one level of `X`-instance structure: flat
        // elaboration (what find/survey use for patterns) would erase
        // the reference depth the level grouping reconstructs.
        // Registered libraries pass through as stored —
        // libraries uploaded over HTTP are flattened at registration,
        // so a full tree needs the library inline in the request.
        let library = library_from(&body, CellMode::Hierarchical)?;
        let options = options_from(&body)?;
        Ok((circuit, library, options))
    });
    let (circuit, library, mut options) = match prepared {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    options.cancel = Some(cancel);
    let library_label = match &library {
        BodyLibrary::Named(name) => format!("library:{name}"),
        BodyLibrary::Inline(_) => "library:(inline)".to_string(),
    };
    match engine.hierarchize(&HierarchizeRequest {
        circuit: circuit.as_source(),
        library: library.as_source(),
        options,
    }) {
        Ok(resp) => {
            let truncated = resp.report.levels.iter().any(|l| l.truncated_cells > 0);
            let completeness = if truncated { "truncated" } else { "complete" };
            meta.request_id = Some(resp.request_id);
            meta.circuit = Some(resp.circuit.clone());
            meta.pattern = Some(library_label.clone());
            meta.completeness = Some(completeness);
            let doc = hierarchize_response_doc(&resp);
            // Hierarchize rounds carry no per-match journals; capture
            // records the report document alone.
            maybe_capture(
                state,
                "hierarchize",
                resp.request_id,
                &resp.circuit,
                &library_label,
                resp.wall_ns,
                completeness,
                &doc,
                String::new(),
            );
            Response::json(200, doc.pretty())
        }
        Err(e) => engine_failure(&e),
    }
}
