//! `subg_bench` — the end-to-end and per-layer benchmark of the
//! SubGemini engine, its SPICE front end and the `subg serve` daemon.
//!
//! ```text
//! subg_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--trace-out FILE] [--subg PATH]
//! ```
//!
//! With `--workload`, runs that workload and prints two lines: the
//! environment record, then the result
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Without
//! `--workload`, runs every workload in a child process of its own and
//! ends with one combined line whose metrics are named
//! `<workload>.<metric>`. Exits 0 when every check passed, 1 after
//! printing when one failed, 2 on a usage or setup error (no result).
//!
//! `--subg` names the daemon binary (default: `subg` beside this
//! executable). Traced runs write the deck the daemon preloads under
//! `subg_bench-work` beside this executable. `--trace-out` writes the
//! bench-side spans as a Chrome trace file.

mod daemon;
mod decks;
mod layers;
mod report;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use subgemini::metrics::json::{self, Value};

use report::{Run, END_TO_END, PER_LAYER};

/// Settings of one workload run.
pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// Test scale: 10^3-device inputs and minimal repetitions.
    pub tiny: bool,
    pub subg: PathBuf,
    pub work_dir: PathBuf,
}

impl Config {
    /// `full` at benchmark scale, `tiny` at test scale.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub run: fn(&Config, &mut Run) -> Result<(), String>,
}

/// The workloads, in the order a full invocation runs them. Why each
/// exists is in README.md and BENCHMARK.json.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "chip_find",
        run: workloads::chip_find,
    },
    Workload {
        name: "library_survey",
        run: workloads::library_survey,
    },
    Workload {
        name: "hierarchize",
        run: workloads::hierarchize,
    },
    Workload {
        name: "serve_mixed",
        run: workloads::serve_mixed,
    },
];

const USAGE: &str = "usage: subg_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out FILE] [--subg PATH]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace_out: Option<PathBuf>,
    subg: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 17,
        seconds: 10,
        traced: false,
        trace_out: None,
        subg: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a count"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--subg" => args.subg = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("subg_bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// The directory of this executable: the default `--subg` and the
/// traced runs' work directory sit beside it.
fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default()
}

fn run_workload(args: &Args, name: &str) -> i32 {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("parse_args checked the name");
    let cfg = Config {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.traced,
        tiny: false,
        subg: args.subg.clone().unwrap_or_else(|| exe_dir().join("subg")),
        work_dir: exe_dir().join("subg_bench-work"),
    };
    let mut run = Run::new(w.name, cfg.traced);
    run.env("seed", Value::int(cfg.seed));
    run.env("seconds", Value::int(args.seconds));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    run.env("nproc", Value::int(nproc as u64));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    run.env("profile", Value::Str(profile.into()));
    if let Err(e) = (w.run)(&cfg, &mut run) {
        eprintln!("subg_bench: {}: {e}", w.name);
        return 2;
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_trace(&run, path) {
            eprintln!("subg_bench: {e}");
            return 2;
        }
    }
    let catalog = if cfg.traced { PER_LAYER } else { END_TO_END };
    match run.result_line(catalog) {
        Ok(line) => {
            println!("{}", run.env_line());
            println!("{line}");
            if run.correct() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("subg_bench: {e}");
            2
        }
    }
}

/// Writes the run's spans as a Chrome trace-event file.
pub fn write_trace(run: &Run, path: &Path) -> Result<(), String> {
    std::fs::write(path, run.trace.to_chrome().pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in a fresh child process, echoes each child's
/// lines, and ends with the combined result line.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("subg_bench: cannot locate this executable: {e}");
            return 2;
        }
    };
    let (mut correct, mut attempted, mut failed, mut code) = (true, 0u64, 0u64, 0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(out) = &args.trace_out {
            let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
            cmd.arg("--trace-out")
                .arg(out.with_file_name(format!("{stem}.{}.json", w.name)));
        }
        if let Some(subg) = &args.subg {
            cmd.arg("--subg").arg(subg);
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("subg_bench: {}: {e}", w.name);
                return 2;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let Some(result) = result.filter(|_| matches!(output.status.code(), Some(0 | 1))) else {
            eprintln!(
                "subg_bench: {} produced no result ({})",
                w.name, output.status
            );
            return 2;
        };
        code = code.max(output.status.code().unwrap_or(2));
        correct &= result.get("correct") == Some(&Value::Bool(true));
        let count = |k| result.get(k).and_then(Value::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Value::Obj(ms)) = result.get("metrics") {
            metrics.extend(
                ms.iter()
                    .map(|(k, v)| (format!("{}.{k}", w.name), v.clone())),
            );
        }
    }
    let combined = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::int(attempted)),
        ("failed".into(), Value::int(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", combined.compact());
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "chip_find",
            "--seed",
            "5",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("chip_find"));
        assert_eq!((a.seed, a.seconds, a.traced), (5, 3, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let d = parse(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.traced), (17, 10, false));
    }
}
