//! Observability end-to-end: Prometheus exposition invariants, the
//! NDJSON access log, the slow/truncated capture ring, status-class
//! accounting (including the panic→500 path), and the zero-perturbation
//! contract — a fully instrumented daemon answers the same bytes as a
//! plain one.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use subgemini::metrics::json;
use subgemini_engine::source::{load_cell, parse_text, SourceKind};
use subgemini_engine::Engine;
use subgemini_serve::{DrainReport, ServeConfig, Server};

const CELLS: &str = "\
.global vdd gnd
.subckt inv a y
mp y a vdd vdd pmos
mn y a gnd gnd nmos
.ends
";

const CHIP: &str = "\
.global vdd gnd
mq1p w0 in vdd vdd pmos
mq1n w0 in gnd gnd nmos
mq2p w1 w0 vdd vdd pmos
mq2n w1 w0 gnd gnd nmos
";

/// A pattern whose cell has a port net no device touches. The daemon's
/// loaders refuse it (400), but a library registered through the engine
/// API is not checked, and `find_all` asserts patterns are fully
/// connected, so a find request over it panics inside the handler.
const ISOLATED_NET_CELL: &str = "\
.subckt bad a y z
mp y a vdd vdd pmos
.ends
";

fn start_with(
    engine: Arc<Engine>,
    config: ServeConfig,
) -> (SocketAddr, thread::JoinHandle<DrainReport>, impl Fn()) {
    let server = Server::bind(engine, &config).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.run());
    (addr, join, move || handle.shutdown())
}

fn ephemeral() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// One HTTP request; returns (status, headers, body).
fn call_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (status, head.to_string(), body.to_string())
}

fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = call_raw(addr, method, path, body);
    (status, body)
}

fn parse_json(body: &str) -> json::Value {
    json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

const FIND_INV: &str = r#"{"circuit": "chip", "pattern": {"library": "cells", "cell": "inv"}}"#;

fn register_chip_and_cells(addr: SocketAddr) {
    let (status, body) = call(addr, "POST", "/v1/circuits/chip", CHIP);
    assert_eq!(status, 200, "{body}");
    let (status, body) = call(addr, "POST", "/v1/libraries/cells", CELLS);
    assert_eq!(status, 200, "{body}");
}

/// Every sample line of a Prometheus exposition, `name{labels}` → value.
fn samples(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, value) = l.rsplit_once(' ').expect("sample line");
            (key.to_string(), value.parse().expect("numeric sample"))
        })
        .collect()
}

#[test]
fn prometheus_exposition_is_well_formed_and_monotone_under_load() {
    let (addr, join, shutdown) = start_with(Arc::new(Engine::new()), ephemeral());
    register_chip_and_cells(addr);
    let fire_finds = |n: usize| {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| scope.spawn(move || call(addr, "POST", "/v1/find", FIND_INV)))
                .collect();
            for h in handles {
                let (status, body) = h.join().unwrap();
                assert_eq!(status, 200, "{body}");
            }
        });
    };
    fire_finds(8);
    let (status, head, first) = call_raw(addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );

    // One `# TYPE` (and one `# HELP`) per family, no duplicates.
    for marker in ["# TYPE ", "# HELP "] {
        let mut seen = std::collections::BTreeSet::new();
        for line in first.lines().filter(|l| l.starts_with(marker)) {
            assert!(seen.insert(line.to_string()), "duplicate: {line}");
        }
    }
    // Every histogram family carries buckets, a +Inf bucket, a sum,
    // and a count.
    let histograms: Vec<&str> = first
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" histogram"))
        .collect();
    assert!(!histograms.is_empty(), "{first}");
    for family in &histograms {
        for suffix in ["_bucket", "_sum", "_count"] {
            assert!(
                first
                    .lines()
                    .any(|l| l.starts_with(&format!("{family}{suffix}"))),
                "{family} is missing {suffix} samples"
            );
        }
        assert!(
            first.contains("le=\"+Inf\"") && first.contains(&format!("{family}_bucket")),
            "{family} is missing its +Inf bucket"
        );
    }
    // The headline counter matches the finds issued.
    let first_samples = samples(&first);
    assert_eq!(
        first_samples.get("subg_requests_total{endpoint=\"find\"}"),
        Some(&8.0),
        "{first}"
    );
    assert_eq!(
        first_samples.get("subg_circuit_requests_total{circuit=\"chip\"}"),
        Some(&8.0)
    );

    // A second scrape under more load: every counter/bucket sample that
    // existed is still there and has not decreased.
    fire_finds(8);
    let (_, _, second) = call_raw(addr, "GET", "/metrics?format=prometheus", "");
    let second_samples = samples(&second);
    for (key, v1) in &first_samples {
        if key.starts_with("subg_uptime") || key.starts_with("subg_in_flight") {
            continue; // gauges
        }
        let v2 = second_samples
            .get(key)
            .unwrap_or_else(|| panic!("sample `{key}` vanished between scrapes"));
        assert!(v2 >= v1, "`{key}` went backwards: {v1} -> {v2}");
    }
    assert_eq!(
        second_samples.get("subg_requests_total{endpoint=\"find\"}"),
        Some(&16.0)
    );
    shutdown();
    join.join().unwrap();
}

#[test]
fn prometheus_label_values_are_escaped() {
    let (addr, join, shutdown) = start_with(Arc::new(Engine::new()), ephemeral());
    // A circuit name with a quote and a backslash: legal as a path
    // segment, must be escaped in the exposition.
    let name = "we\"ird\\chip";
    let (status, body) = call(addr, "POST", &format!("/v1/circuits/{name}"), CHIP);
    assert_eq!(status, 200, "{body}");
    let (status, body) = call(addr, "POST", "/v1/libraries/cells", CELLS);
    assert_eq!(status, 200, "{body}");
    let req = r#"{"circuit": "we\"ird\\chip", "pattern": {"library": "cells", "cell": "inv"}}"#;
    let (status, body) = call(addr, "POST", "/v1/find", req);
    assert_eq!(status, 200, "{body}");
    let (_, text) = call(addr, "GET", "/metrics?format=prometheus", "");
    assert!(
        text.contains("subg_circuit_requests_total{circuit=\"we\\\"ird\\\\chip\"} 1"),
        "{text}"
    );
    // The raw (unescaped) label never appears.
    assert!(!text.contains("circuit=\"we\"ird\\chip\""), "{text}");
    shutdown();
    join.join().unwrap();
}

#[test]
fn status_classes_count_and_panicking_route_answers_500() {
    let engine = Arc::new(Engine::new());
    let bad = parse_text(ISOLATED_NET_CELL, SourceKind::Spice, "bad").unwrap();
    engine.register_library("bad", vec![load_cell(&bad, "bad", "bad").unwrap()]);
    let (addr, join, shutdown) = start_with(engine, ephemeral());
    register_chip_and_cells(addr);
    let (status, _) = call(addr, "GET", "/healthz", ""); // 2xx
    assert_eq!(status, 200);
    let (status, _) = call(addr, "GET", "/v1/nope", ""); // 4xx
    assert_eq!(status, 404);
    // The panic path: a degenerate pattern trips a core precondition
    // inside the handler; catch_unwind must turn it into a 500, not a
    // dead worker.
    let body = json::Value::Obj(vec![
        ("circuit".into(), json::Value::Str("chip".into())),
        (
            "pattern".into(),
            json::Value::Obj(vec![
                ("library".into(), json::Value::Str("bad".into())),
                ("cell".into(), json::Value::Str("bad".into())),
            ]),
        ),
    ])
    .compact();
    let (status, resp) = call(addr, "POST", "/v1/find", &body);
    assert_eq!(status, 500, "{resp}");
    assert!(parse_json(&resp).get("error").is_some(), "{resp}");
    // The worker pool survived: the next request still answers.
    let (status, resp) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = parse_json(&resp);
    let server = doc.get("server").unwrap();
    let class = |k: &str| server.get("responses").unwrap().get(k).unwrap().as_u64();
    assert!(class("2xx").unwrap() >= 3, "{resp}"); // healthz + registrations
    assert!(class("4xx").unwrap() >= 1, "{resp}");
    assert_eq!(class("5xx"), Some(1), "{resp}");
    assert_eq!(server.get("http_errors").unwrap().as_u64(), Some(1));
    // The panicking search deregistered itself: nothing is left in
    // flight, and the idle shutdown drains nothing.
    assert_eq!(server.get("in_flight").unwrap().as_u64(), Some(0), "{resp}");
    let (_, text) = call(addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(samples(&text)["subg_in_flight_searches"], 0.0, "{text}");
    shutdown();
    assert_eq!(join.join().unwrap().drained, 0);
}

#[test]
fn healthz_and_json_metrics_carry_build_and_telemetry_fields() {
    let (addr, join, shutdown) = start_with(Arc::new(Engine::new()), ephemeral());
    register_chip_and_cells(addr);
    let (status, body) = call(addr, "POST", "/v1/find", FIND_INV);
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body);
    assert_eq!(doc.get("request_id").unwrap().as_u64(), Some(1));
    assert!(doc.get("wall_ns").unwrap().as_u64().is_some());
    assert!(doc.get("effort_spent").unwrap().as_u64().unwrap() > 0);

    let (status, body) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = parse_json(&body);
    assert_eq!(
        health.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health.get("uptime_seconds").unwrap().as_u64().is_some());
    assert!(health.get("schema_version").unwrap().as_u64().is_some());

    let (_, body) = call(addr, "GET", "/metrics", "");
    let doc = parse_json(&body);
    let server = doc.get("server").unwrap();
    assert_eq!(
        server.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(server.get("uptime_seconds").unwrap().as_u64().is_some());
    let telemetry = doc.get("telemetry").unwrap();
    let find = telemetry
        .get("endpoints")
        .unwrap()
        .get("find")
        .unwrap_or_else(|| panic!("{body}"));
    assert_eq!(find.get("requests").unwrap().as_u64(), Some(1));
    shutdown();
    join.join().unwrap();
}

#[test]
fn capture_ring_records_slow_requests_and_serves_them_by_id() {
    let engine = Arc::new(Engine::new());
    let config = ServeConfig {
        slow_ms: Some(0), // everything qualifies
        slow_keep: 2,
        ..ephemeral()
    };
    let (addr, join, shutdown) = start_with(engine, config);
    register_chip_and_cells(addr);
    for _ in 0..3 {
        let (status, body) = call(addr, "POST", "/v1/find", FIND_INV);
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = call(addr, "GET", "/v1/requests", "");
    assert_eq!(status, 200, "{body}");
    let list = parse_json(&body);
    let entries = list.get("requests").unwrap().as_arr().unwrap();
    // keep=2 evicted the oldest of the three; newest first.
    assert_eq!(entries.len(), 2, "{body}");
    assert_eq!(entries[0].get("request_id").unwrap().as_u64(), Some(3));
    assert_eq!(entries[1].get("request_id").unwrap().as_u64(), Some(2));
    assert_eq!(entries[0].get("route").unwrap().as_str(), Some("find"));
    assert_eq!(entries[0].get("circuit").unwrap().as_str(), Some("chip"));
    assert_eq!(
        entries[0].get("completeness").unwrap().as_str(),
        Some("complete")
    );

    let (status, body) = call(addr, "GET", "/v1/requests/3", "");
    assert_eq!(status, 200, "{body}");
    let captured = parse_json(&body);
    assert_eq!(captured.get("request_id").unwrap().as_u64(), Some(3));
    let report = captured.get("report").unwrap();
    assert_eq!(report.get("found").unwrap().as_u64(), Some(2));
    // The journal rode along even though the find response never
    // carries one: `trace_events` is forced while capture is on.
    let journal = captured.get("journal").unwrap().as_arr().unwrap();
    assert!(!journal.is_empty(), "{body}");
    assert!(
        journal
            .iter()
            .any(|e| e.get("event").and_then(json::Value::as_str) == Some("journal_end")),
        "{body}"
    );

    // Evicted and never-captured ids answer 404; garbage answers 400.
    let (status, _) = call(addr, "GET", "/v1/requests/1", "");
    assert_eq!(status, 404);
    let (status, _) = call(addr, "GET", "/v1/requests/zzz", "");
    assert_eq!(status, 400);
    shutdown();
    join.join().unwrap();
}

#[test]
fn capture_endpoints_answer_404_when_capture_is_off() {
    let (addr, join, shutdown) = start_with(Arc::new(Engine::new()), ephemeral());
    let (status, body) = call(addr, "GET", "/v1/requests", "");
    assert_eq!(status, 404);
    assert!(body.contains("--slow-ms"), "{body}");
    let (status, _) = call(addr, "GET", "/v1/requests/1", "");
    assert_eq!(status, 404);
    shutdown();
    join.join().unwrap();
}

#[test]
fn access_log_emits_one_ndjson_line_per_request() {
    let log_path = std::env::temp_dir().join(format!(
        "subg-observability-access-{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        access_log: Some(log_path.to_string_lossy().into_owned()),
        ..ephemeral()
    };
    let (addr, join, shutdown) = start_with(Arc::new(Engine::new()), config);
    register_chip_and_cells(addr);
    let (status, _) = call(addr, "POST", "/v1/find", FIND_INV);
    assert_eq!(status, 200);
    let (status, _) = call(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    shutdown();
    join.join().unwrap();

    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<json::Value> = text.lines().map(parse_json).collect();
    assert_eq!(lines.len(), 4, "{text}");
    let find_line = lines
        .iter()
        .find(|l| l.get("route").and_then(json::Value::as_str) == Some("/v1/find"))
        .unwrap_or_else(|| panic!("{text}"));
    assert_eq!(find_line.get("status").unwrap().as_u64(), Some(200));
    assert_eq!(find_line.get("request_id").unwrap().as_u64(), Some(1));
    assert_eq!(find_line.get("circuit").unwrap().as_str(), Some("chip"));
    assert_eq!(find_line.get("pattern").unwrap().as_str(), Some("inv"));
    assert_eq!(
        find_line.get("completeness").unwrap().as_str(),
        Some("complete")
    );
    assert!(find_line.get("wall_ns").unwrap().as_u64().is_some());
    assert!(find_line.get("effort_spent").unwrap().as_u64().unwrap() > 0);
    let miss_line = lines
        .iter()
        .find(|l| l.get("route").and_then(json::Value::as_str) == Some("/v1/nope"))
        .unwrap();
    assert_eq!(miss_line.get("status").unwrap().as_u64(), Some(404));
    assert!(matches!(
        miss_line.get("request_id"),
        Some(json::Value::Null)
    ));
    let _ = std::fs::remove_file(&log_path);
}

/// The completeness a search's response reports: find's own field,
/// explain's report, any survey row, or any hierarchize level.
fn response_completeness(kind: &str, doc: &json::Value) -> String {
    let truncated = match kind {
        "find" => return doc.get("completeness").unwrap().as_str().unwrap().into(),
        "explain" => {
            let report = doc.get("report").unwrap();
            return report.get("completeness").unwrap().as_str().unwrap().into();
        }
        "survey" => doc
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|row| {
                let report = row.get("report").unwrap();
                report.get("completeness").unwrap().as_str() == Some("truncated")
            }),
        _ => {
            let levels = doc.get("hierarchy").unwrap().get("levels").unwrap();
            levels
                .as_arr()
                .unwrap()
                .iter()
                .any(|level| level.get("truncated_cells").unwrap().as_u64() != Some(0))
        }
    };
    if truncated { "truncated" } else { "complete" }.into()
}

/// Every search route describes a request the same way in its response
/// envelope, its access-log line and its capture: the same request id,
/// circuit, pattern label and completeness. The access log names the
/// HTTP path, the capture the search kind, and the captured report is
/// the response body.
#[test]
fn every_search_route_agrees_across_response_access_log_and_capture() {
    let log_path = std::env::temp_dir().join(format!(
        "subg-observability-record-{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        access_log: Some(log_path.to_string_lossy().into_owned()),
        slow_ms: Some(0),
        ..ephemeral()
    };
    let (addr, join, shutdown) = start_with(Arc::new(Engine::new()), config);
    register_chip_and_cells(addr);
    let library = r#"{"circuit": "chip", "library": "cells"}"#;
    let truncated = r#"{"circuit": "chip", "pattern": {"library": "cells", "cell": "inv"}, "options": {"max_effort": 1}}"#;
    // (kind, body, request id, pattern label, effort spent, completeness)
    let expected = [
        ("find", FIND_INV, 1, "inv", Some(11), "complete"),
        ("explain", FIND_INV, 2, "inv", Some(11), "complete"),
        ("survey", library, 3, "library:cells", Some(11), "complete"),
        ("hierarchize", library, 4, "library:cells", None, "complete"),
        ("find", truncated, 5, "inv", Some(1), "truncated"),
    ];
    let responses: Vec<json::Value> = expected
        .iter()
        .map(|(kind, body, ..)| {
            let (status, resp) = call(addr, "POST", &format!("/v1/{kind}"), body);
            assert_eq!(status, 200, "{resp}");
            parse_json(&resp)
        })
        .collect();
    let (status, body) = call(addr, "GET", "/v1/requests", "");
    assert_eq!(status, 200, "{body}");
    let mut summaries = parse_json(&body)
        .get("requests")
        .unwrap()
        .as_arr()
        .unwrap()
        .to_vec();
    summaries.reverse(); // listed newest first
    assert_eq!(summaries.len(), expected.len(), "{body}");
    let captures: Vec<json::Value> = expected
        .iter()
        .map(|(_, _, id, ..)| {
            let (status, body) = call(addr, "GET", &format!("/v1/requests/{id}"), "");
            assert_eq!(status, 200, "{body}");
            parse_json(&body)
        })
        .collect();
    shutdown();
    join.join().unwrap();
    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let _ = std::fs::remove_file(&log_path);
    let searches: Vec<json::Value> = text
        .lines()
        .map(parse_json)
        .filter(|line| !matches!(line.get("request_id"), Some(json::Value::Null)))
        .collect();
    assert_eq!(searches.len(), expected.len(), "{text}");

    let str_of = |doc: &json::Value, key: &str| doc.get(key).unwrap().as_str().map(String::from);
    let int_of = |doc: &json::Value, key: &str| doc.get(key).unwrap().as_u64();
    for (i, (kind, _, id, pattern, effort, completeness)) in expected.into_iter().enumerate() {
        let (resp, line) = (&responses[i], &searches[i]);
        let (summary, capture) = (&summaries[i], &captures[i]);
        let context = format!("{kind} #{id}: {resp:?}\n{line:?}\n{summary:?}");
        assert_eq!(response_completeness(kind, resp), completeness, "{context}");
        if resp.get("pattern").is_some() {
            assert_eq!(
                str_of(resp, "pattern").as_deref(),
                Some(pattern),
                "{context}"
            );
        }
        for doc in [resp, line, summary, capture] {
            assert_eq!(int_of(doc, "request_id"), Some(id), "{context}");
            assert_eq!(str_of(doc, "circuit").as_deref(), Some("chip"), "{context}");
        }
        for doc in [line, summary, capture] {
            assert_eq!(
                str_of(doc, "pattern").as_deref(),
                Some(pattern),
                "{context}"
            );
            let logged = str_of(doc, "completeness");
            assert_eq!(logged.as_deref(), Some(completeness), "{context}");
        }
        assert_eq!(str_of(line, "method").as_deref(), Some("POST"), "{context}");
        let path = format!("/v1/{kind}");
        assert_eq!(str_of(line, "route").as_deref(), Some(path.as_str()));
        assert_eq!(int_of(line, "status"), Some(200), "{context}");
        assert_eq!(int_of(line, "effort_spent"), effort, "{context}");
        if effort.is_some() {
            assert_eq!(int_of(resp, "effort_spent"), effort, "{context}");
        }
        for doc in [summary, capture] {
            assert_eq!(str_of(doc, "route").as_deref(), Some(kind), "{context}");
            assert_eq!(int_of(doc, "wall_ns"), int_of(resp, "wall_ns"), "{context}");
        }
        assert_eq!(capture.get("report"), Some(resp), "{context}");
    }
}

/// Zero perturbation, end to end: a daemon with the access log, the
/// capture ring, and telemetry all active answers byte-identical find
/// responses (modulo its own wall-clock field) to a plain daemon.
#[test]
fn instrumented_daemon_answers_the_same_bytes_as_a_plain_one() {
    let strip_wall_ns = |body: &str| -> json::Value {
        let json::Value::Obj(fields) = parse_json(body) else {
            panic!("response is an object: {body}");
        };
        json::Value::Obj(fields.into_iter().filter(|(k, _)| k != "wall_ns").collect())
    };
    let log_path = std::env::temp_dir().join(format!(
        "subg-observability-perturb-{}.ndjson",
        std::process::id()
    ));
    let instrumented_config = ServeConfig {
        access_log: Some(log_path.to_string_lossy().into_owned()),
        slow_ms: Some(0),
        slow_keep: 8,
        ..ephemeral()
    };
    let (plain_addr, plain_join, plain_shutdown) = start_with(Arc::new(Engine::new()), ephemeral());
    let (inst_addr, inst_join, inst_shutdown) =
        start_with(Arc::new(Engine::new()), instrumented_config);
    for addr in [plain_addr, inst_addr] {
        register_chip_and_cells(addr);
    }
    // Deterministic options so the reports carry comparable fields.
    let req = r#"{"circuit": "chip", "pattern": {"library": "cells", "cell": "inv"}, "options": {"threads": 2}}"#;
    let (status_a, body_a) = call(plain_addr, "POST", "/v1/find", req);
    let (status_b, body_b) = call(inst_addr, "POST", "/v1/find", req);
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(
        strip_wall_ns(&body_a),
        strip_wall_ns(&body_b),
        "instrumentation changed the response"
    );
    plain_shutdown();
    inst_shutdown();
    plain_join.join().unwrap();
    inst_join.join().unwrap();
    let _ = std::fs::remove_file(&log_path);
}
