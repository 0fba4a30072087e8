//! The accept path: workers block in `accept`, so a request is answered
//! as it arrives rather than on the next poll tick; shutdown wakes every
//! blocked worker; and the wake-up connections never look like traffic.
//! A separate test binary, so the heavy `http.rs` tests do not load the
//! host while these time exchanges.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use subgemini::metrics::json;
use subgemini_engine::Engine;
use subgemini_serve::{DrainReport, ServeConfig, Server, ShutdownHandle};

fn start(config: &ServeConfig) -> (SocketAddr, ShutdownHandle, mpsc::Receiver<DrainReport>) {
    let server = Server::bind(Arc::new(Engine::new()), config).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    (addr, handle, rx)
}

fn ephemeral(workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServeConfig::default()
    }
}

/// One HTTP exchange over a fresh connection; returns (status, body).
fn call(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let (_, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (status, body.to_string())
}

fn shut_down(handle: &ShutdownHandle, reports: &mpsc::Receiver<DrainReport>) -> DrainReport {
    handle.shutdown();
    reports
        .recv_timeout(Duration::from_secs(10))
        .expect("run() returns after shutdown")
}

/// A poll-driven accept loop makes every sequential exchange wait out
/// most of its tick (~5 ms). Blocking accept answers in well under a
/// millisecond; the 10th-fastest of 50 is robust to a few exchanges
/// slowed by a loaded host.
#[test]
fn sequential_exchanges_do_not_wait_for_a_poll_tick() {
    let (addr, handle, reports) = start(&ephemeral(2));
    let mut times: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let (status, _) = call(addr, "/healthz");
            assert_eq!(status, 200);
            t0.elapsed()
        })
        .collect();
    times.sort();
    assert!(
        times[9] < Duration::from_millis(2),
        "10th-fastest exchange took {:?}; all: {times:?}",
        times[9]
    );
    assert_eq!(shut_down(&handle, &reports).served, 50);
}

#[test]
fn shutdown_wakes_every_idle_worker_on_an_unspecified_bind() {
    let config = ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..ephemeral(8)
    };
    let (_, handle, reports) = start(&config);
    let report = shut_down(&handle, &reports);
    assert_eq!(
        report,
        DrainReport {
            served: 0,
            drained: 0
        }
    );
}

#[test]
fn wake_up_connections_are_not_served_counted_or_logged() {
    let log_path =
        std::env::temp_dir().join(format!("subg-accept-access-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        access_log: Some(log_path.to_string_lossy().into_owned()),
        ..ephemeral(8)
    };
    let (addr, handle, reports) = start(&config);
    const N: u64 = 6;
    for _ in 1..N {
        assert_eq!(call(addr, "/healthz").0, 200);
    }
    let (status, body) = call(addr, "/metrics");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("metrics JSON");
    let server = doc.get("server").unwrap();
    assert_eq!(
        server.get("http_errors").unwrap().as_u64(),
        Some(0),
        "{body}"
    );
    let class = |k: &str| server.get("responses").unwrap().get(k).unwrap().as_u64();
    assert_eq!(class("4xx"), Some(0), "{body}");
    assert_eq!(class("2xx"), Some(N - 1), "{body}");

    // Eight workers blocked in accept: shutdown wakes each of them with
    // a connection, and none of those may show up anywhere.
    let report = shut_down(&handle, &reports);
    assert_eq!(
        report,
        DrainReport {
            served: N,
            drained: 0
        }
    );
    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<json::Value> = text
        .lines()
        .map(|l| json::parse(l).expect("NDJSON line"))
        .collect();
    assert_eq!(lines.len() as u64, N, "{text}");
    for line in &lines {
        assert_eq!(line.get("status").unwrap().as_u64(), Some(200), "{text}");
        assert!(line.get("route").unwrap().as_str().is_some(), "{text}");
    }
    let _ = std::fs::remove_file(&log_path);
}
