//! Machine-readable phase-timing benchmark: runs the linearity sweep,
//! the library survey and the telemetry-overhead probe with metrics
//! collection on, then writes a single JSON artifact
//! (`BENCH_phase_timings.json` by default) whose schema is documented
//! in EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! bench_json [--scale N] [--threads N] [--out FILE] [--check BASELINE] [--budget-curve]
//! ```
//!
//! `--scale` multiplies the sweep sizes (default 1), `--threads`
//! selects the Phase II worker count (default 1: serial, deterministic
//! busy times), `--out -` writes the report to stdout.
//! `--budget-curve` appends the E13 truncation-vs-budget sweep
//! (EXPERIMENTS.md) — opt-in, so the committed baseline carries no
//! budget section.
//!
//! `--check BASELINE` compares the fresh linearity sweep against a
//! committed report: the sum of `compile_ns + phase1_refine_ns +
//! phase1_select_ns` across the sweep must not exceed 2x the
//! baseline's, else the process exits 1 (the CI regression smoke).
//! Unless `--out` is also given, a check run writes nothing. The
//! baseline is read before the sweep: an unreadable one, like any bad
//! flag, exits 2 with one line on stderr.

use std::collections::BTreeMap;

use subgemini::metrics::json::Value;
use subgemini::metrics::{MetricsReport, REPORT_SCHEMA_VERSION};
use subgemini::{MatchOptions, Matcher};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

fn metrics_value(m: &MetricsReport) -> Value {
    Value::Obj(vec![
        ("total_ns".into(), Value::int(m.total_ns)),
        ("compile_ns".into(), Value::int(m.compile_ns)),
        ("phase1_refine_ns".into(), Value::int(m.phase1_refine_ns)),
        ("phase1_select_ns".into(), Value::int(m.phase1_select_ns)),
        ("phase2_verify_ns".into(), Value::int(m.phase2_verify_ns)),
        (
            "phase2_max_candidate_ns".into(),
            Value::int(m.phase2_max_candidate_ns),
        ),
        ("phase2_wall_ns".into(), Value::int(m.phase2_wall_ns)),
        ("threads_used".into(), Value::int(m.threads_used as u64)),
        (
            "worker_utilization".into(),
            Value::Num(m.worker_utilization()),
        ),
        // Additive since schema v1: log2-bucket latency/depth quantiles.
        ("verify_ns_hist".into(), m.verify_ns_hist.to_json()),
        (
            "backtrack_depth_hist".into(),
            m.backtrack_depth_hist.to_json(),
        ),
    ])
}

fn run_one(pattern: &Netlist, main: &Netlist, threads: usize) -> (u64, u64, MetricsReport) {
    let outcome = Matcher::new(pattern, main)
        .options(MatchOptions {
            collect_metrics: true,
            threads,
            ..MatchOptions::default()
        })
        .find_all();
    let found = outcome.count() as u64;
    let cv = outcome.phase1.cv_size as u64;
    let metrics = outcome.metrics.expect("collect_metrics was set");
    (found, cv, metrics)
}

/// Runtime vs circuit size on ripple adders (the paper's Fig. 5
/// linearity claim): matched work should grow linearly with the number
/// of planted full adders.
fn linearity(scale: usize, threads: usize) -> Value {
    let pattern = cells::full_adder();
    let mut rows = Vec::new();
    for &bits in &[4usize, 8, 16, 32] {
        let bits = bits * scale.max(1);
        let g = gen::ripple_adder(bits);
        let (found, cv, m) = run_one(&pattern, &g.netlist, threads);
        rows.push(Value::Obj(vec![
            ("bits".into(), Value::int(bits as u64)),
            (
                "main_devices".into(),
                Value::int(g.netlist.device_count() as u64),
            ),
            (
                "planted".into(),
                Value::int(g.planted_count("full_adder") as u64),
            ),
            ("found".into(), Value::int(found)),
            ("cv_size".into(), Value::int(cv)),
            ("metrics".into(), metrics_value(&m)),
        ]));
    }
    Value::Arr(rows)
}

/// Every library cell against one mixed circuit: per-pattern timing
/// split plus candidate-filter quality (|CV| vs instances found).
fn survey(scale: usize, threads: usize) -> Value {
    let g = gen::ripple_adder(8 * scale.max(1));
    let mut rows = Vec::new();
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for cell in cells::library() {
        let (found, cv, m) = run_one(&cell, &g.netlist, threads);
        *totals.entry("total_ns").or_insert(0) += m.total_ns;
        *totals.entry("phase2_verify_ns").or_insert(0) += m.phase2_verify_ns;
        rows.push(Value::Obj(vec![
            ("cell".into(), Value::Str(cell.name().to_string())),
            (
                "pattern_devices".into(),
                Value::int(cell.device_count() as u64),
            ),
            ("cv_size".into(), Value::int(cv)),
            ("found".into(), Value::int(found)),
            ("metrics".into(), metrics_value(&m)),
        ]));
    }
    Value::Obj(vec![
        (
            "main_devices".into(),
            Value::int(g.netlist.device_count() as u64),
        ),
        (
            "aggregate".into(),
            Value::Obj(
                totals
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::int(v)))
                    .collect(),
            ),
        ),
        ("cells".into(), Value::Arr(rows)),
    ])
}

/// Truncation-vs-budget curve (EXPERIMENTS.md E13): one stress
/// workload (DFF in a shift register) swept across effort budgets from
/// 1% to 100% of the full-run cost, recording how many instances
/// survive each cut. Opt-in via `--budget-curve`: the section is
/// deliberately absent from the committed baseline.
fn budget_curve(scale: usize, threads: usize) -> Value {
    use subgemini::{Completeness, WorkBudget};
    let pattern = cells::dff();
    let g = gen::shift_register(8 * scale.max(1));
    let full = Matcher::new(&pattern, &g.netlist)
        .options(MatchOptions {
            threads,
            ..MatchOptions::default()
        })
        .find_all();
    let full_effort = (full.phase1.iterations
        + full.phase2.candidates_tried
        + full.phase2.passes
        + full.phase2.guesses
        + full.phase2.backtracks) as u64;
    let mut rows = Vec::new();
    for pct in [1u64, 5, 10, 25, 50, 75, 100] {
        let budget = (full_effort * pct / 100).max(1);
        let o = Matcher::new(&pattern, &g.netlist)
            .options(MatchOptions {
                threads,
                budget: Some(WorkBudget::effort(budget)),
                collect_metrics: true,
                ..MatchOptions::default()
            })
            .find_all();
        let (truncated, tried, skipped) = match &o.completeness {
            Completeness::Complete => (false, o.phase2.candidates_tried as u64, 0),
            Completeness::Truncated {
                candidates_tried,
                candidates_skipped,
                ..
            } => (true, *candidates_tried as u64, *candidates_skipped as u64),
        };
        let m = o.metrics.as_ref().expect("collect_metrics was set");
        rows.push(Value::Obj(vec![
            ("budget_pct".into(), Value::int(pct)),
            ("effort_limit".into(), Value::int(budget)),
            ("effort_spent".into(), Value::int(m.effort_spent)),
            ("found".into(), Value::int(o.count() as u64)),
            ("truncated".into(), Value::Bool(truncated)),
            ("candidates_tried".into(), Value::int(tried)),
            ("candidates_skipped".into(), Value::int(skipped)),
        ]));
    }
    Value::Obj(vec![
        (
            "main_devices".into(),
            Value::int(g.netlist.device_count() as u64),
        ),
        ("full_found".into(), Value::int(full.count() as u64)),
        ("full_effort".into(), Value::int(full_effort)),
        ("rows".into(), Value::Arr(rows)),
    ])
}

/// Telemetry economics (EXPERIMENTS.md E16): what observability costs.
/// Three numbers matter — the per-request fold (`Telemetry::fold`,
/// timed directly on samples distilled from real find outcomes), the
/// time to render a populated Prometheus exposition, and the cost of
/// serializing one request's event journal for the capture ring.
fn observability(scale: usize, threads: usize) -> Value {
    use subgemini::telemetry::prometheus::TextWriter;
    use subgemini::{RequestSample, Telemetry};
    use subgemini_engine::{CircuitSource, Engine, FindRequest, PatternSource, RequestOptions};
    const REQUESTS: usize = 16;
    // Folds per timing, so the clock's own cost is amortized.
    const FOLDS: u64 = 256;
    let pattern = cells::full_adder();
    let g = gen::ripple_adder(16 * scale.max(1));
    let engine = Engine::new();
    engine.register_circuit("bench", g.netlist.clone());
    let find = |trace_events| {
        engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("bench"),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions {
                    threads,
                    trace_events,
                    ..RequestOptions::default()
                },
            })
            .expect("bench circuit resolves")
    };
    // REQUESTS finds populate the engine's rollups; each one's sample is
    // folded FOLDS more times into a registry of its own.
    let telemetry = Telemetry::default();
    let mut found = 0u64;
    let mut fold_ns = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let resp = find(false);
        found = resp.outcome.count() as u64;
        let sample = RequestSample::from_outcome(&resp.outcome, resp.wall_ns);
        let t0 = std::time::Instant::now();
        for _ in 0..FOLDS {
            telemetry.fold("find", Some("bench"), std::hint::black_box(&sample));
        }
        fold_ns.push(t0.elapsed().as_nanos() as u64 / FOLDS);
    }
    fold_ns.sort_unstable();

    // Exposition render over the populated engine, the way
    // `GET /metrics?format=prometheus` does (snapshot + text walk),
    // isolated from socket noise.
    let t0 = std::time::Instant::now();
    let snap = engine.telemetry().snapshot();
    let snapshot_ns = t0.elapsed().as_nanos() as u64;
    let t0 = std::time::Instant::now();
    let mut w = TextWriter::new();
    for (endpoint, r) in &snap.endpoints {
        let labels = [("endpoint", endpoint.as_str())];
        w.counter("subg_requests_total", "requests", &labels, r.requests);
        w.histogram("subg_request_wall_ns", "wall", &labels, &r.wall_ns);
        w.histogram("subg_request_effort", "effort", &labels, &r.effort);
    }
    let exposition = w.finish();
    let exposition_ns = t0.elapsed().as_nanos() as u64;

    // Capture-ring journal serialization for one traced request.
    let resp = find(true);
    let journal = resp.outcome.events.as_ref().expect("trace_events was set");
    let t0 = std::time::Instant::now();
    let ndjson = subgemini::events::journal_to_ndjson(journal);
    let journal_ns = t0.elapsed().as_nanos() as u64;

    Value::Obj(vec![
        (
            "main_devices".into(),
            Value::int(g.netlist.device_count() as u64),
        ),
        ("requests".into(), Value::int(REQUESTS as u64)),
        ("found".into(), Value::int(found)),
        ("fold_min_ns".into(), Value::int(fold_ns[0])),
        ("fold_p50_ns".into(), Value::int(fold_ns[REQUESTS / 2])),
        ("snapshot_ns".into(), Value::int(snapshot_ns)),
        ("exposition_ns".into(), Value::int(exposition_ns)),
        (
            "exposition_bytes".into(),
            Value::int(exposition.len() as u64),
        ),
        ("journal_ndjson_ns".into(), Value::int(journal_ns)),
        (
            "journal_ndjson_bytes".into(),
            Value::int(ndjson.len() as u64),
        ),
    ])
}

/// Sum of `compile_ns + phase1_refine_ns + phase1_select_ns` across a
/// report's linearity rows. A missing `compile_ns` (pre-CSR baselines)
/// counts as zero.
fn linearity_front_ns(report: &Value) -> u64 {
    let rows = report
        .get("linearity")
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    rows.iter()
        .filter_map(|row| row.get("metrics"))
        .map(|m| {
            ["compile_ns", "phase1_refine_ns", "phase1_select_ns"]
                .iter()
                .map(|k| m.get(k).and_then(Value::as_u64).unwrap_or(0))
                .sum::<u64>()
        })
        .sum()
}

/// Exits 2 with one line on stderr: a usage error.
fn usage(message: &str) -> ! {
    eprintln!("bench_json: {message}");
    std::process::exit(2);
}

/// A count flag's value, or a usage error.
fn count(flag: &str, value: String) -> usize {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} takes a count, not `{value}`")))
}

fn main() {
    let mut scale = 1usize;
    let mut threads = 1usize;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut with_budget_curve = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--scale" => scale = count(&flag, value()),
            "--threads" => threads = count(&flag, value()),
            "--out" => out_path = Some(value()),
            "--check" => check_path = Some(value()),
            "--budget-curve" => with_budget_curve = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    // The baseline is read before the sweep, so a bad path fails at once.
    let baseline_ns = check_path.as_deref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        let baseline = subgemini::metrics::json::parse(&text)
            .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        linearity_front_ns(&baseline)
    });

    eprintln!("bench_json: linearity sweep (scale {scale}, threads {threads})...");
    let lin = linearity(scale, threads);
    eprintln!("bench_json: library survey...");
    let sur = survey(scale, threads);
    eprintln!("bench_json: observability overhead...");
    let obs = observability(scale, threads);
    let mut fields = vec![
        ("schema_version".into(), Value::int(REPORT_SCHEMA_VERSION)),
        (
            "generated_by".into(),
            Value::Str(format!("bench_json --scale {scale} --threads {threads}")),
        ),
        ("linearity".into(), lin),
        ("survey".into(), sur),
        // Additive since schema v1: telemetry fold / exposition /
        // capture-serialization overhead (EXPERIMENTS.md E16).
        ("observability".into(), obs),
    ];
    if with_budget_curve {
        eprintln!("bench_json: budget curve...");
        fields.push(("budget_curve".into(), budget_curve(scale, threads)));
    }
    let report = Value::Obj(fields);
    if baseline_ns.is_none() || out_path.is_some() {
        let text = report.pretty();
        match out_path.as_deref().unwrap_or("BENCH_phase_timings.json") {
            "-" => print!("{text}"),
            path => {
                std::fs::write(path, text).unwrap_or_else(|e| panic!("{path}: {e}"));
                eprintln!("bench_json: wrote {path}");
            }
        }
    }
    if let Some(was) = baseline_ns {
        let now = linearity_front_ns(&report);
        eprintln!("bench_json: check compile+phase1 on linearity: {now} ns vs baseline {was} ns");
        if was > 0 && now > was.saturating_mul(2) {
            eprintln!("bench_json: REGRESSION: more than 2x the committed baseline");
            std::process::exit(1);
        }
        eprintln!("bench_json: check ok (within 2x)");
    }
}
