//! The real `subg serve` daemon as a child process, and a minimal
//! HTTP/1.1 client timing each request phase from the client side.
//!
//! The daemon answers one request per connection (`Connection:
//! close`), so every exchange opens its own connection and reads to
//! end of stream.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use subgemini::metrics::json::{self, Value};

use crate::decks::Deck;
use crate::report::{ms, Run};
use crate::stats::median;
use crate::trace::Trace;

/// Longest wait for the daemon's `listening` line; preloading a 10^5
/// device deck takes under a second on an idle host.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest wait for any one response.
const IO_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest wait for a drained shutdown.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `subg serve` child. Dropping it kills the child if it is
/// still running and waits for it.
pub struct Daemon {
    child: Child,
    stdout_reader: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `subg serve` on an ephemeral port with two workers,
    /// optionally preloading a circuit deck (registered under the
    /// file's stem), and waits for its handshake line.
    pub fn spawn(subg: &Path, preload: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(subg);
        cmd.arg("serve");
        if let Some(deck) = preload {
            cmd.arg(deck);
        }
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", subg.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The reader drains the daemon's stdout until it exits, so its
        // final `shutdown` line never blocks on a full pipe.
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            stdout_reader: Some(stdout_reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "subg serve exited or stalled before listening".to_string())?;
            if !line.contains("\"event\":\"listening\"") {
                continue;
            }
            let addr = json::parse(&line)
                .ok()
                .and_then(|v| v.get("addr").and_then(Value::as_str).map(str::to_string))
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("bad handshake line: {line}"))?;
            daemon.addr = addr;
            return Ok(daemon);
        }
    }

    /// The daemon's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = exchange(self.addr, "POST", "/v1/shutdown", b"")?;
        if reply.status != 200 {
            return Err(format!("shutdown answered {}", reply.status));
        }
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("subg serve exited with {status}")),
                None if Instant::now() >= deadline => {
                    return Err("subg serve did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}

/// Client-side timestamps of one exchange.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Phases {
    pub fn total_ns(&self) -> f64 {
        self.done.duration_since(self.start).as_nanos() as f64
    }

    /// Records the exchange as a `serve.request` span with one child
    /// per phase.
    pub fn trace(&self, trace: &mut Trace) {
        let root = trace.add("serve.request", self.start, self.done);
        trace.add_under(root, "serve.connect", self.start, self.connected);
        trace.add_under(root, "serve.send", self.connected, self.sent);
        trace.add_under(root, "serve.wait", self.sent, self.first_byte);
        trace.add_under(root, "serve.transfer", self.first_byte, self.done);
    }
}

/// One request/response exchange.
pub struct Exchange {
    pub status: u16,
    pub body: String,
    pub bytes: usize,
    pub phases: Phases,
}

impl Exchange {
    /// The client-side split of this exchange; the engine share is the
    /// search time the daemon reports in the body (`wall_ns`).
    pub fn sample(&self) -> ServeSample {
        let p = &self.phases;
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
        ServeSample {
            connect_ns: ns(p.start, p.connected),
            ttfb_ns: ns(p.sent, p.first_byte),
            engine_ns: json_u64(&self.body, "wall_ns").unwrap_or(0) as f64,
            transfer_ns: ns(p.first_byte, p.done),
            response_bytes: self.bytes as f64,
        }
    }
}

/// Sends one request on a fresh connection and reads the whole reply.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Exchange, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let connected = Instant::now();
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let mut request = head.into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).map_err(io)?;
    let sent = Instant::now();
    let mut reply = Vec::with_capacity(64 << 10);
    let mut chunk = vec![0u8; 64 << 10];
    let n = stream.read(&mut chunk).map_err(io)?;
    let first_byte = Instant::now();
    if n == 0 {
        return Err(format!(
            "{method} {path}: connection closed without a reply"
        ));
    }
    reply.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut reply).map_err(io)?;
    let done = Instant::now();
    let split = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply has no header end"))?;
    let status = std::str::from_utf8(&reply[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Exchange {
        status,
        body: String::from_utf8_lossy(&reply[split + 4..]).into_owned(),
        bytes: reply.len(),
        phases: Phases {
            start,
            connected,
            sent,
            first_byte,
            done,
        },
    })
}

/// The last integer member `"key": N` of a pretty-printed JSON body,
/// without parsing the whole document (the daemon appends its own
/// fields, `found` and `wall_ns` among them, after the report).
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let at = body.rfind(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Client-side figures of one request, in nanoseconds and bytes.
#[derive(Clone, Copy, Debug)]
pub struct ServeSample {
    connect_ns: f64,
    ttfb_ns: f64,
    engine_ns: f64,
    transfer_ns: f64,
    response_bytes: f64,
}

/// Records the `serve.*` metrics as medians over requests, plus the
/// daemon's own count of failed HTTP exchanges.
pub fn record_serve(run: &mut Run, samples: &[ServeSample], http_errors: u64) {
    let med = |f: &dyn Fn(&ServeSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    run.metric("serve.connect_ms", ms(med(&|s| s.connect_ns)));
    run.metric("serve.ttfb_ms", ms(med(&|s| s.ttfb_ns)));
    run.metric("serve.engine_ms", ms(med(&|s| s.engine_ns)));
    run.metric(
        "serve.server_other_ms",
        ms(med(&|s| (s.ttfb_ns - s.engine_ns).max(0.0))),
    );
    run.metric("serve.transfer_ms", ms(med(&|s| s.transfer_ns)));
    run.metric("serve.response_kb", med(&|s| s.response_bytes) / 1024.0);
    run.metric("serve.http_errors", http_errors as f64);
}

/// Failed exchanges as the daemon counts them: unparseable requests and
/// panicking handlers plus every 4xx/5xx reply, from `GET /metrics`.
pub fn http_errors(addr: SocketAddr) -> Result<u64, String> {
    let reply = exchange(addr, "GET", "/metrics", b"")?;
    let doc = json::parse(&reply.body).map_err(|e| format!("/metrics: {e}"))?;
    let server = doc.get("server").ok_or("/metrics: no server section")?;
    let count = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
    let responses = server.get("responses");
    Ok(count(server.get("http_errors"))
        + count(responses.and_then(|r| r.get("4xx")))
        + count(responses.and_then(|r| r.get("5xx"))))
}

/// What a daemon probe sends: the workload's own operation, as a JSON
/// request to `path`, checked by `verify` against the parsed reply.
pub struct Probe<'a> {
    pub path: &'a str,
    pub body: String,
    pub verify: &'a dyn Fn(&Value) -> bool,
}

/// Runs a traced run's daemon probe: the workload's circuit deck is
/// preloaded by `subg serve` from a file under the work directory, the
/// flat `library` deck (if any) is uploaded, and `probe` is sent
/// `requests` times. Records the `serve.*` metrics.
pub fn run_probe(
    run: &mut Run,
    subg: &Path,
    work_dir: &Path,
    circuit: &Deck,
    library: Option<&Deck>,
    probe: &Probe<'_>,
    requests: usize,
) -> Result<(), String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let path = work_dir.join(format!("{}.sp", run.workload));
    std::fs::write(&path, &circuit.text).map_err(|e| format!("{}: {e}", path.display()))?;
    let daemon = Daemon::spawn(subg, Some(&path));
    let _ = std::fs::remove_file(&path);
    let daemon = daemon?;
    if let Some(lib) = library {
        let reply = exchange(
            daemon.addr,
            "POST",
            "/v1/libraries/lib",
            lib.text.as_bytes(),
        )?;
        run.check("probe_library_upload", reply.status == 200, || {
            format!("status {}: {}", reply.status, reply.body)
        });
    }
    let mut samples = Vec::with_capacity(requests);
    for _ in 0..requests {
        let reply = exchange(daemon.addr, "POST", probe.path, probe.body.as_bytes())?;
        reply.phases.trace(&mut run.trace);
        let ok = reply.status == 200
            && json::parse(&reply.body)
                .map(|doc| (probe.verify)(&doc))
                .unwrap_or(false);
        run.check("probe_request", ok, || {
            format!(
                "{} answered {} with an unexpected body",
                probe.path, reply.status
            )
        });
        samples.push(reply.sample());
    }
    let errors = http_errors(daemon.addr)?;
    run.check("probe_http_errors", errors == 0, || {
        format!("{errors} failed exchanges")
    });
    record_serve(run, &samples, errors);
    daemon.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_u64_reads_the_last_member() {
        let body =
            "{\n  \"metrics\": {\"phase2_wall_ns\": 5},\n  \"found\": 12,\n  \"wall_ns\": 3400\n}";
        assert_eq!(json_u64(body, "found"), Some(12));
        assert_eq!(json_u64(body, "wall_ns"), Some(3400));
        assert_eq!(json_u64(body, "missing"), None);
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        assert!(peak_rss_mb("/proc/self/status").unwrap() > 0.0);
    }
}
