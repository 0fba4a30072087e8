//! End-to-end `subg serve` tests: the machine-readable stdout
//! handshake, the ephemeral-port bind, serving over a real socket, and
//! the SIGINT drain path (unix-only — the signal plumbing is a no-op
//! elsewhere).
#![cfg(unix)]

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const CHIP: &str = "\
.global vdd gnd
.subckt inv a y
mp y a vdd vdd pmos
mn y a gnd gnd nmos
.ends
mq1p w0 in vdd vdd pmos
mq1n w0 in gnd gnd nmos
mq2p w1 w0 vdd vdd pmos
mq2n w1 w0 gnd gnd nmos
";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subg_serve_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns `subg serve` and reads the `listening` handshake line from
/// stdout, returning the child and the resolved address.
fn spawn_serve(dir: &std::path::Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_subg"))
        .current_dir(dir)
        .arg("serve")
        .args(extra)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let stdout = child.stdout.as_mut().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve prints a listening line before EOF")
            .expect("stdout readable");
        if let Some(rest) = line.strip_prefix("{\"event\":\"listening\",\"addr\":\"") {
            break rest.trim_end_matches("\"}").to_string();
        }
    };
    (child, addr)
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
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
    stream.read_to_string(&mut raw).unwrap();
    let status = raw
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

fn interrupt(child: &Child) {
    let pid = child.id().to_string();
    let status = Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -INT failed");
}

#[test]
fn serve_binds_ephemeral_port_preloads_and_drains_on_sigint() {
    let dir = scratch("sigint");
    fs::write(dir.join("chip.sp"), CHIP).unwrap();
    let (mut child, addr) = spawn_serve(&dir, &["chip.sp"]);
    assert!(
        addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"),
        "ephemeral port resolved: {addr}"
    );

    let (status, body) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // The preloaded circuit is queryable under its elaborated name.
    let (status, body) = call(
        &addr,
        "POST",
        "/v1/find",
        r#"{"circuit": "chip", "pattern": {"source": ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n", "cell": "inv"}}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"found\": 2"), "{body}");

    interrupt(&child);
    let mut remaining = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut remaining)
        .unwrap();
    let exit = child.wait().unwrap();
    assert!(exit.success(), "clean exit after SIGINT");
    assert!(
        remaining.contains("{\"event\":\"shutdown\",") && remaining.contains("\"drained\":0}"),
        "idle SIGINT shutdown reports a zero drain: {remaining}"
    );
}

#[test]
fn serve_rejects_bad_flags() {
    let dir = scratch("flags");
    for (flags, needle) in [
        (["--workers", "zero"], "--workers"),
        (["--slow-ms", "soon"], "--slow-ms"),
        (["--slow-keep", "0"], "--slow-keep"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_subg"))
            .current_dir(&dir)
            .arg("serve")
            .args(flags)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{stderr}");
    }
}

#[test]
fn serve_observability_flags_wire_up_log_and_capture() {
    let dir = scratch("observability");
    fs::write(dir.join("chip.sp"), CHIP).unwrap();
    let log = dir.join("access.ndjson");
    let (mut child, addr) = spawn_serve(
        &dir,
        &[
            "chip.sp",
            "--access-log",
            log.to_str().unwrap(),
            "--slow-ms",
            "0",
            "--slow-keep",
            "4",
        ],
    );
    let find = r#"{"circuit": "chip", "pattern": {"source": ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n", "cell": "inv"}}"#;
    let (status, body) = call(&addr, "POST", "/v1/find", find);
    assert_eq!(status, 200, "{body}");

    // --slow-ms 0 captured the find; it is retrievable by id.
    let (status, body) = call(&addr, "GET", "/v1/requests", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"request_id\": 1"), "{body}");
    let (status, body) = call(&addr, "GET", "/v1/requests/1", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"journal\""), "{body}");

    // The Prometheus exposition is live too.
    let (status, body) = call(&addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("subg_requests_total{endpoint=\"find\"} 1"),
        "{body}"
    );

    interrupt(&child);
    assert!(child.wait().unwrap().success());
    // The access log holds one well-formed line per request served.
    let text = fs::read_to_string(&log).expect("access log written");
    assert_eq!(text.lines().count(), 4, "{text}");
    let find_line = text
        .lines()
        .find(|l| l.contains("\"/v1/find\""))
        .unwrap_or_else(|| panic!("{text}"));
    assert!(find_line.contains("\"request_id\":1"), "{find_line}");
    assert!(find_line.contains("\"status\":200"), "{find_line}");
    assert!(
        find_line.contains("\"completeness\":\"complete\""),
        "{find_line}"
    );
}

#[test]
fn serve_hierarchizes_a_flat_device_named_like_a_composite_and_stays_up() {
    // The flat pmos is named `mbuf#2`, the name the level-2 composite is
    // minted under. A containment tree keyed by name recursed into it
    // until the stack overflowed, which aborted the daemon.
    let dir = scratch("collide");
    let (mut child, addr) = spawn_serve(&dir, &[]);
    let cells =
        ".global vdd gnd\\n.subckt inv a y\\nmp y a vdd vdd pmos\\nmn y a gnd gnd nmos\\n.ends\\n\
                 .subckt mbuf a y\\nx1 a m inv\\nx2 m y inv\\n.ends\\n";
    let flat = ".global vdd gnd\\nmbuf#2 w0 in vdd vdd pmos\\nmn1 w0 in gnd gnd nmos\\n\
                mp2 out w0 vdd vdd pmos\\nmn2 out w0 gnd gnd nmos\\n";
    let req = format!(r#"{{"circuit_source": "{flat}", "library": {{"source": "{cells}"}}}}"#);
    let (status, body) = call(&addr, "POST", "/v1/hierarchize", &req);
    assert_eq!(status, 200, "{body}");
    // Once as the composite's device, once as the leaf it holds.
    assert_eq!(body.matches("\"mbuf#2\"").count(), 2, "{body}");
    assert!(body.contains("\"unabsorbed_devices\": 0"), "{body}");
    let (status, body) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    interrupt(&child);
    assert!(child.wait().unwrap().success());
}
