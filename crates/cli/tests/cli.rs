//! End-to-end tests driving the `subg` binary.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn subg(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_subg"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subg_cli_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn write_files(dir: &std::path::Path) {
    fs::write(dir.join("cells.sp"), CELLS).unwrap();
    fs::write(dir.join("chip.sp"), CHIP).unwrap();
}

#[test]
fn find_reports_instances_and_exit_codes() {
    let dir = scratch("find");
    write_files(&dir);
    let out = subg(
        &dir,
        &["find", "chip.sp", "--pattern", "inv", "--lib", "cells.sp"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 instance(s)"), "{stdout}");

    // A pattern with no instances exits 1.
    let none = fs::read_to_string(dir.join("cells.sp")).unwrap()
        + ".subckt nor2 a b y\nmp1 m a vdd vdd pmos\nmp2 y b m vdd pmos\nmn1 y a gnd gnd nmos\nmn2 y b gnd gnd nmos\n.ends\n";
    fs::write(dir.join("cells.sp"), none).unwrap();
    let out = subg(
        &dir,
        &["find", "chip.sp", "--pattern", "nor2", "--lib", "cells.sp"],
    );
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn find_csv_mode() {
    let dir = scratch("csv");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "nand2",
            "--lib",
            "cells.sp",
            "--csv",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("instance,devices"), "{stdout}");
    assert!(stdout.contains("mg1"), "{stdout}");
}

#[test]
fn candidates_lists_cv() {
    let dir = scratch("cand");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "candidates",
            "chip.sp",
            "--pattern",
            "nand2",
            "--lib",
            "cells.sp",
        ],
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("key vertex"), "{stdout}");
}

#[test]
fn extract_emits_hierarchical_deck() {
    let dir = scratch("extract");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "extract", "chip.sp", "--lib", "cells.sp", "--out", "gates.sp",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unabsorbed devices: 0"), "{stdout}");
    let deck = fs::read_to_string(dir.join("gates.sp")).unwrap();
    assert!(deck.contains(".subckt inv"), "{deck}");
    assert!(deck.contains("nand2"), "{deck}");
}

#[test]
fn check_flags_rule_hits() {
    let dir = scratch("check");
    write_files(&dir);
    fs::write(
        dir.join("rules.sp"),
        ".global vdd\n.subckt nmos_pullup g d\nm1 d g vdd vdd nmos\n.ends\n",
    )
    .unwrap();
    // chip.sp has no nmos pull-ups: exit 0, zero violations.
    let out = subg(&dir, &["check", "chip.sp", "--rules", "rules.sp"]);
    assert_eq!(out.status.code(), Some(0));
    // Add an offending transistor.
    let mut chip = CHIP.to_string();
    chip.push_str("mbad q en vdd vdd nmos\n");
    fs::write(dir.join("bad.sp"), chip).unwrap();
    let out = subg(&dir, &["check", "bad.sp", "--rules", "rules.sp"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mbad"), "{stdout}");
}

#[test]
fn compare_distinguishes_netlists() {
    let dir = scratch("cmp");
    write_files(&dir);
    fs::write(dir.join("chip2.sp"), CHIP).unwrap();
    let out = subg(&dir, &["compare", "chip.sp", "chip2.sp"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("isomorphic"));
    let mut other = CHIP.to_string();
    other.push_str("mextra z en gnd gnd nmos\n");
    fs::write(dir.join("chip3.sp"), other).unwrap();
    let out = subg(&dir, &["compare", "chip.sp", "chip3.sp"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn hierarchical_compare_localizes_the_edit() {
    let dir = scratch("hcmp");
    let deck_a = format!("{CELLS}Xu1 in w0 inv\nXu2 w0 out inv\n");
    // B edits only the nand2 cell (swaps a pull-down to a pull-up).
    let deck_b = deck_a.replace("mn2 gnd b mid gnd nmos", "mn2 vdd b mid gnd nmos");
    fs::write(dir.join("a.sp"), &deck_a).unwrap();
    fs::write(dir.join("b.sp"), &deck_b).unwrap();
    let out = subg(&dir, &["compare", "a.sp", "b.sp", "--hierarchical"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The inverter and the top are untouched; only nand2 is flagged.
    assert!(stdout.contains("cell inv              ok"), "{stdout}");
    assert!(stdout.contains("cell nand2            DIFFERS"), "{stdout}");
    assert!(stdout.contains("top              ok"), "{stdout}");
    assert!(stdout.contains("1 difference(s)"), "{stdout}");

    // Identical decks: all ok, exit 0, and the rendering contract is
    // byte-exact — the CLI delegates to `subgemini_suite::hier` and
    // must keep producing the historical output.
    fs::write(dir.join("c.sp"), &deck_a).unwrap();
    let out = subg(&dir, &["compare", "a.sp", "c.sp", "--hierarchical"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "cell inv              ok\n\
         cell nand2            ok\n\
         top              ok\n\
         0 difference(s)\n"
    );
}

#[test]
fn stats_and_map_run() {
    let dir = scratch("misc");
    write_files(&dir);
    let out = subg(&dir, &["stats", "chip.sp"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("8 devices"));
    let out = subg(&dir, &["map", "chip.sp", "--lib", "cells.sp"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("total cost"), "{stdout}");
}

#[test]
fn dot_export_and_includes() {
    let dir = scratch("dot");
    // Split cells into an included file to exercise .include.
    fs::write(dir.join("cells.sp"), CELLS).unwrap();
    let chip_with_include = format!(".include cells.sp\n{CHIP}");
    fs::write(dir.join("chip.sp"), chip_with_include).unwrap();
    let out = subg(&dir, &["dot", "chip.sp", "--out", "chip.dot"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dot = fs::read_to_string(dir.join("chip.dot")).unwrap();
    assert!(dot.starts_with("graph"));
    assert!(dot.contains("shape=box"));
    // The included subckts are definitions, not instances: 8 devices.
    assert_eq!(dot.matches("shape=box").count(), 8, "{dot}");
}

#[test]
fn verilog_files_work_end_to_end() {
    let dir = scratch("verilog");
    fs::write(
        dir.join("lib.v"),
        "module and_shape(input a, b, output y);\n  wire w;\n  nand g1(w, a, b);\n  not g2(y, w);\nendmodule\n",
    )
    .unwrap();
    fs::write(
        dir.join("chip.v"),
        "module chip(input a, b, c, output y);\n  wire w1, w2, w3;\n  nand g1(w1, a, b);\n  nand g2(w2, b, c);\n  nand g3(w3, w1, w2);\n  not g4(y, w3);\nendmodule\n",
    )
    .unwrap();
    let out = subg(
        &dir,
        &["find", "chip.v", "--pattern", "and_shape", "--lib", "lib.v"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 instance(s)"), "{stdout}");
    assert!(stdout.contains("g3 g4"), "{stdout}");

    // Cross-format: SPICE main, Verilog pattern is also fine per-file.
    let out = subg(&dir, &["stats", "chip.v"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 devices"));

    // Hierarchical Verilog compare.
    fs::write(
        dir.join("chip2.v"),
        fs::read_to_string(dir.join("chip.v")).unwrap(),
    )
    .unwrap();
    let out = subg(&dir, &["compare", "chip.v", "chip2.v", "--hierarchical"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn survey_and_trace_subcommands() {
    let dir = scratch("survey");
    write_files(&dir);
    let out = subg(&dir, &["survey", "chip.sp", "--lib", "cells.sp"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inv"), "{stdout}");
    assert!(stdout.contains("nand2"), "{stdout}");

    let out = subg(
        &dir,
        &[
            "trace",
            "chip.sp",
            "--pattern",
            "nand2",
            "--lib",
            "cells.sp",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("KV"), "{stdout}");
    assert!(stdout.contains("pass 1"), "{stdout}");
}

#[test]
fn find_report_json_schema_is_stable_and_consistent() {
    use subgemini::metrics::json::Value;
    let dir = scratch("report");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--report",
            "json",
            "--threads",
            "2",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v = subgemini::metrics::json::parse(&stdout).expect("stdout is valid JSON");

    // Top-level schema contract.
    for field in [
        "schema_version",
        "instances",
        "matched_device_total",
        "key",
        "phase1",
        "phase2",
        "metrics",
    ] {
        assert!(v.get(field).is_some(), "missing `{field}` in {stdout}");
    }
    assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(1));
    let instances = v.get("instances").unwrap().as_u64().unwrap();
    assert_eq!(instances, 2, "{stdout}");
    assert_eq!(
        v.get("matched_device_total").unwrap().as_u64(),
        Some(4),
        "{stdout}"
    );

    let p1 = v.get("phase1").unwrap();
    let cv_size = p1.get("cv_size").unwrap().as_u64().unwrap();
    let p2 = v.get("phase2").unwrap();
    let tried = p2.get("candidates_tried").unwrap().as_u64().unwrap();
    let false_c = p2.get("false_candidates").unwrap().as_u64().unwrap();
    assert!(tried <= cv_size, "tried {tried} > |CV| {cv_size}");
    assert!(false_c <= tried);
    let rate = p2.get("false_candidate_rate").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&rate));

    // Metrics present (the report forces collection) and consistent.
    let m = v.get("metrics").unwrap();
    assert!(!matches!(m, Value::Null), "metrics null despite --report");
    let total = m.get("total_ns").unwrap().as_u64().unwrap();
    let wall = m.get("phase2_wall_ns").unwrap().as_u64().unwrap();
    let refine = m.get("phase1_refine_ns").unwrap().as_u64().unwrap();
    let select = m.get("phase1_select_ns").unwrap().as_u64().unwrap();
    assert!(total >= wall + refine + select, "{stdout}");
    let max_cand = m.get("phase2_max_candidate_ns").unwrap().as_u64().unwrap();
    let busy: u64 = m
        .get("worker_busy_ns")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|b| b.as_u64().unwrap())
        .sum();
    assert_eq!(m.get("phase2_verify_ns").unwrap().as_u64(), Some(busy));
    assert!(max_cand <= busy.max(1), "{stdout}");
    let util = m.get("worker_utilization").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&util));
    let threads = m.get("threads_used").unwrap().as_u64().unwrap();
    assert!((1..=2).contains(&threads), "{stdout}");

    let counters = m.get("counters").unwrap();
    assert_eq!(
        counters.get("instances.reported").unwrap().as_u64(),
        Some(instances)
    );
    let checked = counters
        .get("candidates.checked")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(checked <= cv_size);
    let matched = counters
        .get("candidates.matched")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(matched >= instances && matched <= checked);

    // Text mode: human-readable timing block instead of JSON.
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--report",
            "text",
        ],
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("timings: total"), "{stdout}");
    assert!(stdout.contains("counter candidates.checked"), "{stdout}");

    // Zero matches still reports (exit 1), and a bogus mode is usage
    // error (exit 2).
    fs::write(
        dir.join("none.sp"),
        ".global vdd\n.subckt pup g d\nm1 d g vdd vdd nmos\n.ends\n",
    )
    .unwrap();
    let cells = fs::read_to_string(dir.join("cells.sp")).unwrap()
        + ".subckt pup g d\nm1 d g vdd vdd nmos\n.ends\n";
    fs::write(dir.join("cells.sp"), cells).unwrap();
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "pup",
            "--lib",
            "cells.sp",
            "--report",
            "json",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let v = subgemini::metrics::json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(v.get("instances").unwrap().as_u64(), Some(0));
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--report",
            "yaml",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--report"));
}

#[test]
fn find_trace_out_and_explain() {
    let dir = scratch("traceout");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--trace-out",
            "trace.json",
            "--events-out",
            "events.ndjson",
            "--explain",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("explain:"), "{stdout}");

    // The exported trace is a valid Chrome traceEvents document.
    let text = fs::read_to_string(dir.join("trace.json")).unwrap();
    let doc = subgemini::metrics::json::parse(&text).expect("trace parses");
    let n = subgemini::events::validate_chrome_trace(&doc).expect("trace validates");
    assert!(n > 0);

    // NDJSON: every line parses, trailer closes the stream.
    let ndjson = fs::read_to_string(dir.join("events.ndjson")).unwrap();
    let lines: Vec<&str> = ndjson.lines().collect();
    assert!(lines.len() > 1);
    for line in &lines {
        subgemini::metrics::json::parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    }
    assert!(lines.last().unwrap().contains("journal_end"));
}

#[test]
fn explain_subcommand_names_reject_reasons() {
    let dir = scratch("explain");
    write_files(&dir);
    // A matching pattern explains itself with instance counts.
    let out = subg(
        &dir,
        &[
            "explain",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 instance(s)"), "{stdout}");

    // A no-match pattern names the first divergence; --json emits the
    // machine-readable report instead.
    let cells = fs::read_to_string(dir.join("cells.sp")).unwrap()
        + ".subckt pup g d\nm1 d g vdd vdd nmos\n.ends\n";
    fs::write(dir.join("cells.sp"), cells).unwrap();
    let out = subg(
        &dir,
        &[
            "explain",
            "chip.sp",
            "--pattern",
            "pup",
            "--lib",
            "cells.sp",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 instance(s)"), "{stdout}");
    assert!(stdout.contains("first divergence"), "{stdout}");
    let out = subg(
        &dir,
        &[
            "explain",
            "chip.sp",
            "--pattern",
            "pup",
            "--lib",
            "cells.sp",
            "--json",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let v = subgemini::metrics::json::parse(&String::from_utf8(out.stdout).unwrap())
        .expect("explain --json is valid JSON");
    assert_eq!(v.get("instances").unwrap().as_u64(), Some(0));
    assert!(v.get("first_divergence").is_some());
}

#[test]
fn usage_on_no_args_and_unknown_command() {
    let dir = scratch("usage");
    let out = subg(&dir, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
    let out = subg(&dir, &["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    // Unknown flags, the retired `--shards`/`--scheduler` and typos
    // alike, are usage errors: none may run the search with defaults.
    write_files(&dir);
    for extra in [
        ["--shards", "2"],
        ["--scheduler", "static"],
        ["--thread", "8"],
    ] {
        let mut args = vec!["find", "chip.sp", "--pattern", "inv", "--lib", "cells.sp"];
        args.extend(extra);
        let out = subg(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        assert!(out.stdout.is_empty(), "{extra:?}: no search ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown option {}", extra[0]);
        assert!(stderr.contains(&want), "{stderr}");
    }
}

#[test]
fn every_subcommand_refuses_a_flag_it_does_not_read() {
    let dir = scratch("unread_flags");
    write_files(&dir);
    // Each subcommand with a flag only other subcommands read: a usage
    // error naming the flag, before anything runs.
    let cases: &[(&str, &[&str])] = &[
        ("find", &["--json"]),
        ("explain", &["--csv"]),
        ("candidates", &["--threads", "2"]),
        ("compile", &["--hierarchical"]),
        ("extract", &["--pattern", "inv"]),
        ("hierarchize", &["--csv"]),
        ("check", &["--lib", "cells.sp"]),
        ("map", &["--out", "map.txt"]),
        ("survey", &["--out", "survey.txt"]),
        ("trace", &["--fail-fast"]),
        ("compare", &["--threads", "2"]),
        ("stats", &["--pattern", "inv"]),
        ("dot", &["--lib", "cells.sp"]),
        ("fingerprint", &["--out", "fp.txt"]),
        ("serve", &["--threads", "2"]),
    ];
    for (cmd, extra) in cases {
        let mut args = vec![*cmd, "chip.sp"];
        args.extend(*extra);
        let out = subg(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown option {} for `subg {cmd}`", extra[0]);
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
    }
    // The first flag the subcommand does not read is the one named.
    let out = subg(
        &dir,
        &[
            "stats",
            "chip.sp",
            "--pattern",
            "inv",
            "--threads",
            "8",
            "--deadline-ms",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --pattern for"));
    let out = subg(
        &dir,
        &[
            "compile",
            "chip.sp",
            "--out",
            "x.sgc",
            "--hierarchical",
            "--csv",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --hierarchical for"));
    assert!(!dir.join("x.sgc").exists(), "compile wrote nothing");
    // A searching subcommand refuses the flags only another one acts on:
    // event exports outside `find` and `explain`, `--explain` outside
    // `find`, `--report` where no report is printed, `--artifact` for
    // `trace`. Each names its flag and writes no file.
    let files = |dir: &std::path::Path| {
        let mut names: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let before = files(&dir);
    let pattern: &[&str] = &["--pattern", "inv", "--lib", "cells.sp"];
    let cases: &[(&str, &[&str], &[&str])] = &[
        ("survey", &["--builtin-lib"], &["--trace-out", "t.json"]),
        ("survey", &["--builtin-lib"], &["--events-out", "s.ndjson"]),
        ("survey", &["--builtin-lib"], &["--report", "json"]),
        ("survey", &["--builtin-lib"], &["--explain"]),
        ("trace", pattern, &["--events-out", "e.json"]),
        ("trace", pattern, &["--trace-out", "t.json"]),
        ("trace", pattern, &["--report", "text"]),
        ("trace", pattern, &["--artifact", "chip.sgc"]),
        (
            "hierarchize",
            &["--library", "cells.sp"],
            &["--trace-out", "h.json"],
        ),
        (
            "hierarchize",
            &["--library", "cells.sp"],
            &["--events-out", "h.ndjson"],
        ),
        ("hierarchize", &["--library", "cells.sp"], &["--explain"]),
        ("explain", pattern, &["--report", "json"]),
        ("explain", pattern, &["--explain"]),
    ];
    for (cmd, setup, extra) in cases {
        let mut args = vec![*cmd, "chip.sp"];
        args.extend(*setup);
        args.extend(*extra);
        let out = subg(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown option {} for `subg {cmd}`", extra[0]);
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert_eq!(files(&dir), before, "{args:?} wrote a file");
    }
}

#[test]
fn fingerprint_groups_duplicate_cells() {
    let dir = scratch("fp");
    let cells =
        format!("{CELLS}.subckt inv_copy x z\nmp z x vdd vdd pmos\nmn z x gnd gnd nmos\n.ends\n");
    fs::write(dir.join("cells.sp"), cells).unwrap();
    let out = subg(&dir, &["fingerprint", "cells.sp"]);
    assert_eq!(out.status.code(), Some(1), "duplicates found -> exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("duplicates: inv == inv_copy"), "{stdout}");
    assert!(stdout.contains("1 duplicate group(s)"), "{stdout}");
}

#[test]
fn find_zero_deadline_reports_truncation_with_success_exit() {
    let dir = scratch("deadline");
    write_files(&dir);
    // A zero deadline expires before any search work: still exit 0,
    // with the truncation spelled out in the JSON report.
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--deadline-ms",
            "0",
            "--report",
            "json",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"completeness\": \"truncated\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"reason\": \"deadline_expired\""),
        "{stdout}"
    );

    // The human report calls out the truncation too.
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--deadline-ms",
            "0",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("truncated"), "{stdout}");
}

#[test]
fn find_fail_fast_turns_truncation_into_exit_3() {
    let dir = scratch("failfast");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--deadline-ms",
            "0",
            "--fail-fast",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Without truncation, --fail-fast changes nothing.
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--fail-fast",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 instance(s)"), "{stdout}");
}

#[test]
fn find_budgeted_but_complete_run_reports_complete() {
    let dir = scratch("budget_complete");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--max-effort",
            "1000000",
            "--report",
            "json",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"completeness\": \"complete\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"truncation\": null"), "{stdout}");
}

#[test]
fn find_rejects_malformed_budget_values() {
    let dir = scratch("budget_bad");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--max-effort",
            "lots",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-effort"), "{stderr}");
}

#[test]
fn compile_writes_an_artifact_and_warm_find_matches_cold() {
    let dir = scratch("compile");
    write_files(&dir);
    let out = subg(&dir, &["compile", "chip.sp"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chip.sgc"), "{stdout}");
    assert!(stdout.contains("device(s)"), "{stdout}");
    assert!(stdout.contains("digest "), "{stdout}");
    assert!(dir.join("chip.sgc").exists());

    // The warm index may legitimately shrink the Phase II stats, but
    // the instance lines and Phase I's `|CV|=` and `iters=` must not
    // move.
    let cold = subg(
        &dir,
        &["find", "chip.sp", "--pattern", "inv", "--lib", "cells.sp"],
    );
    let warm = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--artifact",
            "chip.sgc",
        ],
    );
    assert!(warm.status.success());
    let instances = |out: &Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("phase"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        instances(&cold),
        instances(&warm),
        "pruning moved the instance list"
    );
    let phase1 = |out: &Output| -> String {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("phase1:"))
            .expect("a phase line");
        line.split(';').next().unwrap().to_owned()
    };
    assert!(phase1(&cold).contains("|CV|="), "{}", phase1(&cold));
    assert_eq!(phase1(&cold), phase1(&warm), "Phase I diverged");
}

#[test]
fn compile_honors_an_explicit_out_path() {
    let dir = scratch("compile_out");
    write_files(&dir);
    let out = subg(&dir, &["compile", "chip.sp", "--out", "snap.sgc"]);
    assert!(out.status.success());
    assert!(dir.join("snap.sgc").exists());
    assert!(!dir.join("chip.sgc").exists());
}

#[test]
fn artifact_failures_are_usage_errors() {
    let dir = scratch("artifact_err");
    write_files(&dir);
    subg(&dir, &["compile", "chip.sp"]);

    // Truncated artifact: structured load error, exit 2.
    let bytes = fs::read(dir.join("chip.sgc")).unwrap();
    fs::write(dir.join("cut.sgc"), &bytes[..bytes.len() / 2]).unwrap();
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--artifact",
            "cut.sgc",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("truncated"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Artifact compiled from a different circuit: digest refusal.
    fs::write(dir.join("other.sp"), "mx a b vdd vdd pmos\n").unwrap();
    subg(&dir, &["compile", "other.sp"]);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--artifact",
            "other.sgc",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different circuit"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --artifact contradicts --ignore-globals.
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--artifact",
            "chip.sgc",
            "--ignore-globals",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--ignore-globals"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn survey_accepts_a_warm_artifact() {
    let dir = scratch("survey_warm");
    write_files(&dir);
    subg(&dir, &["compile", "chip.sp"]);
    let cold = subg(&dir, &["survey", "chip.sp", "--lib", "cells.sp"]);
    let warm = subg(
        &dir,
        &[
            "survey",
            "chip.sp",
            "--lib",
            "cells.sp",
            "--artifact",
            "chip.sgc",
        ],
    );
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert_eq!(cold.stdout, warm.stdout);
}

#[test]
fn searching_commands_refuse_a_pattern_with_an_isolated_net() {
    let dir = scratch("isolated");
    write_files(&dir);
    // `unused` is a port no card connects.
    let loose = ".subckt loose a y unused\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n";
    fs::write(dir.join("loose.sp"), format!("{CHIP}{loose}")).unwrap();
    let searches: [&[&str]; 5] = [
        &["find", "loose.sp", "--pattern", "loose"],
        &["trace", "loose.sp", "--pattern", "loose"],
        &["extract", "loose.sp", "--lib", "loose.sp"],
        &["survey", "loose.sp", "--lib", "loose.sp"],
        &["check", "loose.sp", "--rules", "loose.sp"],
    ];
    for args in searches {
        let out = subg(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = "loose.sp: pattern `loose`: net `unused` is isolated";
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
    // Commands that only describe a deck keep accepting it.
    let describes: [&[&str]; 4] = [
        &["stats", "loose.sp"],
        &["dot", "loose.sp"],
        &["fingerprint", "loose.sp"],
        &["compare", "loose.sp", "loose.sp", "--cell", "loose"],
    ];
    for args in describes {
        let out = subg(&dir, args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn find_refuses_the_retired_prune_flag() {
    let dir = scratch("prune_retired");
    write_files(&dir);
    let out = subg(
        &dir,
        &[
            "find",
            "chip.sp",
            "--pattern",
            "inv",
            "--lib",
            "cells.sp",
            "--prune",
            "never",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no search ran");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--prune"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn hierarchize_reconstructs_levels_end_to_end() {
    let dir = scratch("hierz");
    // Library with a genuine level-2 cell: xor2 built from nand2s.
    let cells = format!(
        "{CELLS}.subckt xor2 a b y\n\
         Xn1 a b n1 nand2\n\
         Xn2 a n1 n2 nand2\n\
         Xn3 b n1 n3 nand2\n\
         Xn4 n2 n3 y nand2\n\
         .ends\n"
    );
    // A flat top: two xor2s and an inverter, elaborated to transistors
    // (the subckts here only feed elaboration; the X cards flatten).
    let flat = format!("{cells}Xx1 p q w1 xor2\nXx2 w1 r w2 xor2\nXi1 w2 out inv\n");
    fs::write(dir.join("cells.sp"), &cells).unwrap();
    fs::write(dir.join("flat.sp"), &flat).unwrap();
    let out = subg(
        &dir,
        &[
            "hierarchize",
            "flat.sp",
            "--library",
            "cells.sp",
            "--out",
            "deck.sp",
            "--report",
            "text",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The text report is a byte contract: per-level planted counts
    // (2 xor2 * 4 nand2 = 8, plus the lone inverter).
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "hierarchy: 2 level(s), 2 sweep(s)\n\
         level 1:\n\
         \x20 nand2                     8\n\
         \x20 inv                       1\n\
         level 2:\n\
         \x20 xor2                      2\n\
         unabsorbed devices: 0\n"
    );
    // The emitted deck re-elaborates to something isomorphic with the
    // original flat input.
    let deck = fs::read_to_string(dir.join("deck.sp")).unwrap();
    assert!(deck.contains(".subckt xor2"), "{deck}");
    let out = subg(&dir, &["compare", "flat.sp", "deck.sp"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // JSON mode emits the machine-readable report with the same counts.
    let out = subg(
        &dir,
        &[
            "hierarchize",
            "flat.sp",
            "--library",
            "cells.sp",
            "--report",
            "json",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"levels\""), "{stdout}");
    assert!(stdout.contains("\"unabsorbed_devices\": 0"), "{stdout}");
}

#[test]
fn hierarchize_keeps_a_flat_device_named_like_a_composite_a_leaf() {
    // The level-2 composite is minted as `mbuf#2`; here the first pmos
    // already has that name. A containment tree keyed by name recursed
    // into it until the stack overflowed (exit 134).
    let dir = scratch("hierz_collide");
    let cells = ".global vdd gnd\n\
                 .subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n\
                 .subckt mbuf a y\nx1 a m inv\nx2 m y inv\n.ends\n";
    let chain = |pmos: &str| {
        format!(
            ".global vdd gnd\n{pmos} w0 in vdd vdd pmos\nmn1 w0 in gnd gnd nmos\n\
             mp2 out w0 vdd vdd pmos\nmn2 out w0 gnd gnd nmos\n"
        )
    };
    fs::write(dir.join("cells.sp"), cells).unwrap();
    fs::write(dir.join("collide.sp"), chain("mbuf#2")).unwrap();
    fs::write(dir.join("twin.sp"), chain("mp1")).unwrap();
    let run = |deck: &str, report: &str| {
        let out = subg(
            &dir,
            &[
                "hierarchize",
                deck,
                "--library",
                "cells.sp",
                "--report",
                report,
            ],
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "{deck} --report {report}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(
        run("collide.sp", "text"),
        "hierarchy: 2 level(s), 2 sweep(s)\n\
         level 1:\n\
         \x20 inv                       2\n\
         level 2:\n\
         \x20 mbuf                      1\n\
         unabsorbed devices: 0\n"
    );
    // The twin's tree is `mbuf#2` -> [`inv#0` -> [`mp1`, `mn1`],
    // `inv#1` -> [`mp2`, `mn2`]]; the colliding deck's differs in that
    // one leaf's name only.
    let twin = run("twin.sp", "json");
    assert_eq!(twin.matches("\"mp1\"").count(), 1, "{twin}");
    assert_eq!(
        run("collide.sp", "json"),
        twin.replace("\"mp1\"", "\"mbuf#2\"")
    );
}

#[test]
fn extraction_mints_a_composite_name_no_surviving_device_holds() {
    // The lone pmos already holds `minv#0`, the name the one `minv`
    // composite is minted under: collapsing refused it as a duplicate
    // device name (exit 2). The composite takes `minv#0_1` instead, in
    // the deck and in both reports.
    let dir = scratch("mint_collide");
    let lib = ".global vdd gnd\n\
               .subckt minv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n";
    let deck = ".global vdd gnd\n\
                mp1 y a vdd vdd pmos\nmn1 y a gnd gnd nmos\nminv#0 z y vdd vdd pmos\n";
    fs::write(dir.join("lib.sp"), lib).unwrap();
    fs::write(dir.join("deck.sp"), deck).unwrap();
    let run = |args: &[&str]| {
        let out = subg(&dir, args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let lines = ["minv#0 z y vdd pmos", "xminv#0_1 a y minv"];
    assert_eq!(
        run(&["extract", "deck.sp", "--lib", "lib.sp", "--out", "gates.sp"]),
        "minv             1\nunabsorbed devices: 1\n"
    );
    let gates = fs::read_to_string(dir.join("gates.sp")).unwrap();
    assert!(
        lines.iter().all(|l| gates.lines().any(|g| g == *l)),
        "{gates}"
    );
    assert_eq!(
        run(&["compare", "deck.sp", "gates.sp"]).trim(),
        "isomorphic"
    );
    let hierarchize = ["hierarchize", "deck.sp", "--library", "lib.sp"];
    assert_eq!(
        run(&[&hierarchize[..], &["--out", "h.sp"]].concat()),
        "hierarchy: 1 level(s), 2 sweep(s)\n\
         level 1:\n\
         \x20 minv                      1\n\
         unabsorbed devices: 1\n"
    );
    let h = fs::read_to_string(dir.join("h.sp")).unwrap();
    assert!(lines.iter().all(|l| h.lines().any(|g| g == *l)), "{h}");
    let json = run(&[&hierarchize[..], &["--report", "json"]].concat());
    let tree = &json[json.find("\"tree\"").expect("a tree")..];
    let tree: String = tree.split_whitespace().collect();
    assert_eq!(
        tree,
        "\"tree\":[\"minv#0\",{\"cell\":\"minv\",\"device\":\"minv#0_1\",\
         \"children\":[\"mp1\",\"mn1\"]}]}"
    );
}
