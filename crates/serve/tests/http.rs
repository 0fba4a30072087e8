//! End-to-end daemon tests over real sockets: bind an ephemeral port,
//! drive the JSON API with a raw `TcpStream` client, and pin the
//! byte-identity contract — concurrent HTTP find responses must equal
//! the report a direct in-process `find_all` produces.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use subgemini::metrics::{json, outcome_to_json};
use subgemini::{find_all, MatchOptions, WarmMain};
use subgemini_engine::Engine;
use subgemini_serve::{DrainReport, ServeConfig, Server};

const CELLS: &str = "\
.global vdd gnd
.subckt inv a y
mp y a vdd vdd pmos
mn y a gnd gnd nmos
.ends
.subckt nand2 a b y
mp1 y a vdd vdd pmos
mp2 y b vdd vdd pmos
mn1 mid a y gnd nmos
mn2 gnd b mid gnd nmos
.ends
";

const CHIP: &str = "\
.global vdd gnd
mq1p w0 in vdd vdd pmos
mq1n w0 in gnd gnd nmos
mq2p w1 w0 vdd vdd pmos
mq2n w1 w0 gnd gnd nmos
mg1 out w1 vdd vdd pmos
mg2 out en vdd vdd pmos
mg3 m1 w1 out gnd nmos
mg4 gnd en m1 gnd nmos
";

/// Starts a daemon on an ephemeral port; returns its address, a join
/// handle resolving to the drain report, and a shutdown closure.
fn start_server(
    engine: Arc<Engine>,
    workers: usize,
) -> (SocketAddr, thread::JoinHandle<DrainReport>, impl Fn()) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServeConfig::default()
    };
    let server = Server::bind(engine, &config).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.run());
    (addr, join, move || handle.shutdown())
}

/// One HTTP request over a fresh connection; returns (status, body).
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
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
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn parse_json(body: &str) -> json::Value {
    json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

#[test]
fn healthz_and_metrics_respond() {
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let (status, body) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(
        parse_json(&body).get("status").unwrap().as_str(),
        Some("ok")
    );
    let (status, body) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = parse_json(&body);
    assert!(doc.get("server").is_some(), "{body}");
    assert!(doc.get("engine").is_some(), "{body}");
    shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.drained, 0, "idle shutdown drains nothing");
    assert!(report.served >= 2);
}

#[test]
fn compile_register_find_flow() {
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let (status, body) = call(addr, "POST", "/v1/circuits/chip", CHIP);
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body);
    assert_eq!(doc.get("circuit").unwrap().as_str(), Some("chip"));
    assert_eq!(doc.get("devices").unwrap().as_u64(), Some(8));
    let (status, body) = call(addr, "POST", "/v1/libraries/cells", CELLS);
    assert_eq!(status, 200, "{body}");
    let cells = parse_json(&body);
    let names: Vec<&str> = cells
        .get("cells")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(json::Value::as_str)
        .collect();
    assert_eq!(names, vec!["inv", "nand2"]);
    let (status, body) = call(
        addr,
        "POST",
        "/v1/find",
        r#"{"circuit": "chip", "pattern": {"library": "cells", "cell": "inv"}}"#,
    );
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body);
    assert_eq!(doc.get("found").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("completeness").unwrap().as_str(), Some("complete"));
    assert_eq!(
        doc.get("instance_devices").unwrap().as_arr().unwrap().len(),
        2
    );
    // The registered-library sweep too.
    let (status, body) = call(
        addr,
        "POST",
        "/v1/survey",
        r#"{"circuit": "chip", "library": "cells"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let rows = parse_json(&body);
    let rows = rows.get("rows").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get("cell").unwrap().as_str(), Some("inv"));
    assert_eq!(rows[0].get("found").unwrap().as_u64(), Some(2));
    shutdown();
    assert_eq!(join.join().unwrap().drained, 0);
}

#[test]
fn inline_find_and_explain_without_registration() {
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let body = json::Value::Obj(vec![
        ("circuit_source".into(), json::Value::Str(CHIP.into())),
        (
            "pattern".into(),
            json::Value::Obj(vec![
                ("source".into(), json::Value::Str(CELLS.into())),
                ("cell".into(), json::Value::Str("inv".into())),
            ]),
        ),
    ])
    .compact();
    let (status, resp) = call(addr, "POST", "/v1/find", &body);
    assert_eq!(status, 200, "{resp}");
    assert_eq!(parse_json(&resp).get("found").unwrap().as_u64(), Some(2));
    let (status, resp) = call(addr, "POST", "/v1/explain", &body);
    assert_eq!(status, 200, "{resp}");
    let doc = parse_json(&resp);
    assert_eq!(doc.get("found").unwrap().as_u64(), Some(2));
    assert!(doc.get("explain").is_some(), "{resp}");
    assert!(doc.get("report").is_some(), "{resp}");
    shutdown();
    assert_eq!(join.join().unwrap().drained, 0);
}

#[test]
fn per_request_deadline_answers_truncated_like_the_cli() {
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let (status, body) = call(addr, "POST", "/v1/circuits/chip", CHIP);
    assert_eq!(status, 200, "{body}");
    let (status, body) = call(
        addr,
        "POST",
        "/v1/find",
        r#"{"circuit": "chip", "pattern": {"source": ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n", "cell": "inv"}, "options": {"deadline_ms": 0}}"#,
    );
    assert_eq!(status, 200, "a deadline miss is a valid truncated answer");
    let doc = parse_json(&body);
    assert_eq!(doc.get("completeness").unwrap().as_str(), Some("truncated"));
    assert_eq!(
        doc.get("truncation")
            .unwrap()
            .get("reason")
            .unwrap()
            .as_str(),
        Some("deadline_expired")
    );
    shutdown();
    join.join().unwrap();
}

#[test]
fn eight_concurrent_finds_are_byte_identical_to_direct_find_all() {
    let engine = Arc::new(Engine::new());
    let (addr, join, shutdown) = start_server(Arc::clone(&engine), 8);
    let (status, _) = call(addr, "POST", "/v1/circuits/chip", CHIP);
    assert_eq!(status, 200);
    let (status, _) = call(addr, "POST", "/v1/libraries/cells", CELLS);
    assert_eq!(status, 200);

    // The serial baseline: the same v1 report `subg find --artifact`
    // prints. A registered circuit prunes off its index, and so does a
    // search warm off an artifact of the same netlist.
    let main = subgemini_engine::source::parse_text(
        CHIP,
        subgemini_engine::source::SourceKind::Spice,
        "chip",
    )
    .and_then(|doc| subgemini_engine::source::main_from_doc(&doc, "chip", "chip"))
    .unwrap();
    let pattern_doc = subgemini_engine::source::parse_text(
        CELLS,
        subgemini_engine::source::SourceKind::Spice,
        "cells",
    )
    .unwrap();
    let pattern = subgemini_engine::source::load_cell(&pattern_doc, "inv", "cells").unwrap();
    let baseline = find_all(
        &pattern,
        &main,
        &MatchOptions {
            collect_metrics: true,
            warm_main: Some(WarmMain::from_artifact(
                subgemini_netlist::Artifact::build(&main),
                0,
            )),
            ..MatchOptions::default()
        },
    );
    let baseline_doc = outcome_to_json(&baseline);
    assert!(baseline.count() == 2);

    let request = r#"{"circuit": "chip", "pattern": {"library": "cells", "cell": "inv"}, "options": {"metrics": true}}"#;
    let responses: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| call(addr, "POST", "/v1/find", request)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (status, body) = h.join().unwrap();
                assert_eq!(status, 200, "{body}");
                body
            })
            .collect()
    });
    // The deterministic v1 report fields (everything except the
    // wall-clock `metrics` timers) plus the reject tallies buried in
    // the metrics counters.
    let deterministic = [
        "schema_version",
        "instances",
        "matched_device_total",
        "key",
        "phase1",
        "phase2",
        "completeness",
        "truncation",
    ];
    let reject_tallies = |doc: &json::Value| -> Vec<(String, u64)> {
        let json::Value::Obj(counters) = doc
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .expect("metrics were requested")
        else {
            panic!("counters is an object")
        };
        let mut tallies: Vec<(String, u64)> = counters
            .iter()
            .filter(|(k, _)| k.starts_with("reject."))
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
            .collect();
        tallies.sort();
        tallies
    };
    for body in &responses {
        let doc = parse_json(body);
        for key in deterministic {
            assert_eq!(
                doc.get(key),
                baseline_doc.get(key),
                "field `{key}` differs from the serial baseline"
            );
        }
        assert_eq!(reject_tallies(&doc), reject_tallies(&baseline_doc));
        assert_eq!(doc.get("found").unwrap().as_u64(), Some(2));
        // The deterministic fields also agree across all eight
        // responses (the timers legitimately differ per request).
        assert_eq!(
            doc.get("instance_devices"),
            parse_json(&responses[0]).get("instance_devices")
        );
    }
    shutdown();
    assert_eq!(join.join().unwrap().drained, 0);
}

#[test]
fn unknown_names_and_bad_bodies_map_to_http_errors() {
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let (status, body) = call(
        addr,
        "POST",
        "/v1/find",
        r#"{"circuit": "ghost", "pattern": {"library": "none", "cell": "x"}}"#,
    );
    assert_eq!(status, 404, "{body}");
    assert!(parse_json(&body).get("error").is_some());
    let (status, _) = call(addr, "POST", "/v1/find", "not json at all");
    assert_eq!(status, 400);
    let (status, _) = call(addr, "POST", "/v1/circuits/chip", ".subckt broken");
    assert_eq!(status, 400);
    let (status, _) = call(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _) = call(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
    // Routing is by path, then by method: a known path asked with the
    // wrong method answers 405, the registration prefixes included.
    for method in ["GET", "DELETE"] {
        for path in ["/v1/circuits/chip", "/v1/libraries/cells"] {
            let (status, body) = call(addr, method, path, "");
            assert_eq!(status, 405, "{method} {path}: {body}");
        }
    }
    // Removed dispatch and prune options are unknown keys, not
    // silently ignored.
    for (key, value) in [
        ("shards", "2"),
        ("scheduler", r#""static""#),
        ("prune", r#""never""#),
    ] {
        let body = format!(
            r#"{{"circuit": "ghost", "pattern": {{"library": "none", "cell": "x"}},
                "options": {{"{key}": {value}}}}}"#
        );
        let (status, body) = call(addr, "POST", "/v1/find", &body);
        assert_eq!(status, 400, "{body}");
        let error = parse_json(&body)
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(error, format!("options: unknown key `{key}`"));
    }
    let (status, _) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    shutdown();
    join.join().unwrap();
}

#[test]
fn a_pattern_with_an_isolated_net_answers_400() {
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let (status, _) = call(addr, "POST", "/v1/circuits/chip", CHIP);
    assert_eq!(status, 200);
    // `unused` is a port no card connects.
    let loose = ".subckt loose a y unused\\nmp y a vdd vdd pmos\\nmn y a gnd gnd nmos\\n.ends\\n";
    let want = "pattern `loose`: net `unused` is isolated";
    let find =
        format!(r#"{{"circuit": "chip", "pattern": {{"source": "{loose}", "cell": "loose"}}}}"#);
    let survey = format!(r#"{{"circuit": "chip", "library": {{"source": "{loose}"}}}}"#);
    for (path, body) in [("/v1/find", find), ("/v1/survey", survey)] {
        let (status, body) = call(addr, "POST", path, &body);
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains(want), "{path}: {body}");
    }
    let (status, body) = call(
        addr,
        "POST",
        "/v1/libraries/loose",
        &loose.replace("\\n", "\n"),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains(want), "{body}");
    let (status, _) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    shutdown();
    join.join().unwrap();
}

#[test]
fn deeply_nested_json_gets_400_and_the_server_stays_up() {
    // Regression: the JSON parser recursed once per nesting level with
    // no bound, so 200 KB of `[` overflowed a worker's stack and
    // aborted the whole daemon. Now it is an ordinary parse error.
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let (status, body) = call(addr, "POST", "/v1/find", &"[".repeat(200_000));
    assert_eq!(status, 400, "{body}");
    assert!(parse_json(&body).get("error").is_some(), "{body}");
    let (status, _) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    shutdown();
    join.join().unwrap();
}

/// `depth` chained subcircuits over an inverter, each instantiating the
/// one below once (`fanout` 1) or twice (`fanout` 2).
fn chained_deck(depth: usize, fanout: usize) -> String {
    let mut deck =
        String::from(".subckt c0 a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n");
    for k in 1..=depth {
        let p = k - 1;
        match fanout {
            1 => deck.push_str(&format!(".subckt c{k} a y\nx1 a y c{p}\n.ends\n")),
            _ => deck.push_str(&format!(
                ".subckt c{k} a y\nx1 a m c{p}\nx2 m y c{p}\n.ends\n"
            )),
        }
    }
    deck
}

#[test]
fn hostile_decks_get_answers_and_the_server_stays_up() {
    // Regressions: a 2,000-deep chain overflowed a worker's stack and
    // aborted the daemon; a deck doubling at each of 40 levels never
    // finished flattening; a 2,000-cell chained library took time
    // cubic in its length to load.
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let deep = chained_deck(2_000, 1) + "x1 in out c2000\n";
    let (status, body) = call(addr, "POST", "/v1/circuits/deep", &deep);
    assert_eq!(status, 200, "{body}");
    assert_eq!(parse_json(&body).get("devices").unwrap().as_u64(), Some(2));

    let bomb = chained_deck(40, 2) + "x1 in out c40\n";
    let (status, body) = call(addr, "POST", "/v1/circuits/bomb", &bomb);
    assert_eq!(status, 400, "{body}");
    let error = parse_json(&body)
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(error.contains("subcircuit `c"), "{error}");
    assert!(error.contains("past the cap"), "{error}");

    let (status, body) = call(addr, "POST", "/v1/libraries/chain", &chained_deck(2_000, 1));
    assert_eq!(status, 200, "{body}");
    let cells = parse_json(&body);
    assert_eq!(cells.get("cells").unwrap().as_arr().unwrap().len(), 2_001);

    let (status, _) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    shutdown();
    join.join().unwrap();
}

/// The Verilog twin of [`chained_deck`]: `depth` chained modules, each
/// instantiating the previous one `fanout` times, over an inverter.
fn chained_verilog(depth: usize, fanout: usize) -> String {
    let mut src = String::from("module c0(input a, output y);\nnot g(y, a);\nendmodule\n");
    for k in 1..=depth {
        let p = k - 1;
        let body = match fanout {
            1 => format!("c{p} u1(a, y);\n"),
            _ => format!("wire m;\nc{p} u1(a, m);\nc{p} u2(m, y);\n"),
        };
        src.push_str(&format!(
            "module c{k}(input a, output y);\n{body}endmodule\n"
        ));
    }
    src
}

#[test]
fn hostile_verilog_decks_get_answers_and_the_server_stays_up() {
    // Regressions: a 1,000-deep module chain overflowed a worker's
    // stack and aborted the daemon; a source doubling at each of 20
    // levels flattened to 2^20 devices; a chained library was
    // elaborated once per module that reached each module.
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let deep = chained_verilog(2_000, 1);
    let (status, body) = call(addr, "POST", "/v1/circuits/deep?format=verilog", &deep);
    assert_eq!(status, 200, "{body}");
    assert_eq!(parse_json(&body).get("devices").unwrap().as_u64(), Some(1));

    let bomb = chained_verilog(40, 2);
    let (status, body) = call(addr, "POST", "/v1/circuits/bomb?format=verilog", &bomb);
    assert_eq!(status, 400, "{body}");
    let error = parse_json(&body)
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(error.contains("module `c"), "{error}");
    assert!(error.contains("past the cap"), "{error}");

    let (status, body) = call(addr, "POST", "/v1/libraries/chain?format=verilog", &deep);
    assert_eq!(status, 200, "{body}");
    let cells = parse_json(&body);
    assert_eq!(cells.get("cells").unwrap().as_arr().unwrap().len(), 2_001);

    let (status, _) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_searches_via_cancel() {
    use subgemini_workloads::{cells, gen};
    let engine = Arc::new(Engine::new());
    engine.register_circuit("big", gen::ripple_adder(96).netlist);
    engine.register_library("lib", vec![cells::full_adder()]);
    let (addr, join, shutdown) = start_server(Arc::clone(&engine), 2);
    let request = r#"{"circuit": "big", "pattern": {"library": "lib", "cell": "full_adder"}}"#;
    let client = thread::spawn(move || call(addr, "POST", "/v1/find", request));
    // Let the request reach the search, then pull the plug while it is
    // (probably) still running.
    thread::sleep(Duration::from_millis(20));
    shutdown();
    let report = join.join().unwrap();
    let (status, body) = client.join().unwrap();
    // Race-proof contract: the client always gets a valid 200 — either
    // the search finished before the drain (complete) or the drain
    // cancelled it (truncated, reason `cancelled`, still a well-formed
    // report). Either way the server returned instead of hanging.
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body);
    match doc.get("completeness").unwrap().as_str() {
        Some("complete") => {}
        Some("truncated") => {
            assert_eq!(
                doc.get("truncation")
                    .unwrap()
                    .get("reason")
                    .unwrap()
                    .as_str(),
                Some("cancelled"),
                "{body}"
            );
            assert_eq!(report.drained, 1, "a cancelled search was drained");
        }
        other => panic!("unexpected completeness {other:?} in {body}"),
    }
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (addr, join, _shutdown) = start_server(Arc::new(Engine::new()), 2);
    let (status, body) = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(
        parse_json(&body).get("status").unwrap().as_str(),
        Some("shutting-down")
    );
    let report = join.join().unwrap();
    assert_eq!(report.drained, 0);
}

#[test]
fn hierarchize_endpoint_reports_planted_levels() {
    use subgemini_workloads::gen;
    let chip = gen::hierarchical_chip(2, 3, 250);
    let engine = Arc::new(Engine::new());
    engine.register_circuit("flatchip", chip.generated.netlist.clone());
    engine.register_library("cells", chip.library.clone());
    let (addr, join, shutdown) = start_server(Arc::clone(&engine), 2);
    let (status, body) = call(
        addr,
        "POST",
        "/v1/hierarchize",
        r#"{"circuit": "flatchip", "library": "cells"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body);
    // Responses name the netlist itself, same as find/survey.
    assert_eq!(
        doc.get("circuit").unwrap().as_str(),
        Some("hierarchical_chip")
    );
    let hier = doc.get("hierarchy").unwrap();
    assert_eq!(hier.get("unabsorbed_devices").unwrap().as_u64(), Some(0));
    let levels = hier.get("levels").unwrap().as_arr().unwrap();
    assert_eq!(levels.len(), 3);
    // Every planted count survives the HTTP round trip exactly.
    for level in levels {
        for row in level.get("cells").unwrap().as_arr().unwrap() {
            let cell = row.get("cell").unwrap().as_str().unwrap();
            let found = row.get("found").unwrap().as_u64().unwrap() as usize;
            assert_eq!(found, chip.expected_count(cell), "cell {cell}");
        }
    }
    let deck = doc.get("deck").unwrap().as_str().unwrap();
    assert!(deck.contains(".subckt pipeline_stage"), "{deck}");
    assert!(doc.get("rounds").unwrap().as_u64().unwrap() >= 3);
    // The route is registered for POST only.
    let (status, _) = call(addr, "GET", "/v1/hierarchize", "");
    assert_eq!(status, 405);
    shutdown();
    assert_eq!(join.join().unwrap().drained, 0);
}

#[test]
fn hierarchize_elaborates_inline_libraries_hierarchically() {
    // Regression: an inline library deck used to be flat-elaborated
    // like a find/survey pattern library, inlining a level-2 cell's
    // `X` instances to transistors — the level grouping then saw one
    // flat level and reported top-level counts only. The deck must
    // keep its `X` structure so the full tree comes back.
    let deck = "\
.global vdd gnd
.subckt inv a y
mp1 y a vdd pmos
mn1 y a gnd nmos
.ends
.subckt buf2 a y
xu1 a m inv
xu2 m y inv
.ends
";
    let flat = "\
.global vdd gnd
mp1 w0 in vdd pmos
mn1 w0 in gnd nmos
mp2 out w0 vdd pmos
mn2 out w0 gnd nmos
";
    let engine = Arc::new(Engine::new());
    let (addr, join, shutdown) = start_server(Arc::clone(&engine), 2);
    let (status, body) = call(addr, "POST", "/v1/circuits/flat", flat);
    assert_eq!(status, 200, "{body}");
    let req = format!(
        r#"{{"circuit": "flat", "library": {{"source": "{}"}}}}"#,
        deck.replace('\n', "\\n")
    );
    let (status, body) = call(addr, "POST", "/v1/hierarchize", &req);
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body);
    let hier = doc.get("hierarchy").unwrap();
    let levels = hier.get("levels").unwrap().as_arr().unwrap();
    assert_eq!(levels.len(), 2, "{body}");
    let count = |lvl: &json::Value, cell: &str| {
        lvl.get("cells")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|r| r.get("cell").unwrap().as_str() == Some(cell))
            .map(|r| r.get("found").unwrap().as_u64().unwrap())
    };
    assert_eq!(count(&levels[0], "inv"), Some(2));
    assert_eq!(count(&levels[1], "buf2"), Some(1));
    assert_eq!(hier.get("unabsorbed_devices").unwrap().as_u64(), Some(0));
    shutdown();
    assert_eq!(join.join().unwrap().drained, 0);
}

#[test]
fn oversized_headers_get_431_over_the_socket() {
    // Regression: an endless header used to grow the server's line
    // buffer without bound. Now it must answer 431 after a bounded
    // read instead of buffering the whole stream.
    let (addr, join, shutdown) = start_server(Arc::new(Engine::new()), 2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Send exactly one byte past the header cap with no terminating
    // newline: enough to trip the limit, while leaving no unread bytes
    // behind (a close over unread data would RST the client and
    // discard the very response we are asserting on).
    let request_line = "GET /healthz HTTP/1.1\r\n";
    let header_prefix = "x-junk: ";
    let filler_len =
        subgemini_serve::http::MAX_HEADER_BYTES + 1 - request_line.len() - header_prefix.len();
    write!(stream, "{request_line}{header_prefix}").unwrap();
    stream.write_all(&vec![b'a'; filler_len]).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(
        raw.starts_with("HTTP/1.1 431 "),
        "expected 431 status line, got: {}",
        raw.lines().next().unwrap_or("")
    );
    drop(stream);
    // The server stays healthy for well-formed requests afterwards.
    let (status, _) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    shutdown();
    join.join().unwrap();
}
