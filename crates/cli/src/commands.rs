//! The `subg` subcommand implementations. Each returns the process
//! exit code: 0 on success, 1 for "ran fine but found differences /
//! violations" (grep-style), errors bubble as strings.
//!
//! The matching subcommands (`find`, `survey`, `explain`, `compile`,
//! `serve`) are thin adapters over the [`subgemini_engine`] session
//! layer: argument parsing maps onto [`RequestOptions`], the engine
//! runs the one shared request pipeline, and this module only renders.
//! One-shot commands use [`CircuitSource::Inline`] so nothing is
//! registered and cold runs stay byte-identical to pre-engine releases.

use std::fs;

use subgemini::{MatchOptions, Matcher};
use subgemini_engine::source::{
    check_patterns, load_cell, load_cells, load_doc, load_library, load_main, CellMode,
};
use subgemini_engine::{
    CircuitSource, Engine, FindRequest, HierarchizeRequest, LibrarySource, PatternSource,
    RequestOptions, SurveyRequest,
};
use subgemini_gemini::compare as gemini_compare;
use subgemini_netlist::{Netlist, NetlistStats};
use subgemini_spice::write_hierarchical;

use crate::args::Args;

fn pattern_from(args: &Args, main_path: &str) -> Result<Netlist, String> {
    let name = args.option("--pattern").ok_or("missing --pattern <cell>")?;
    let lib_path = args.option("--lib").unwrap_or(main_path);
    let pattern = load_cell(&load_doc(lib_path)?, name, lib_path)?;
    check_patterns(std::slice::from_ref(&pattern), lib_path)?;
    Ok(pattern)
}

fn library_from(args: &Args) -> Result<Vec<Netlist>, String> {
    if args.switch("--builtin-lib") {
        return Ok(subgemini_workloads::cells::library());
    }
    let path = args
        .option("--lib")
        .or_else(|| args.option("--library"))
        .ok_or("pass --lib <cells.sp> (or --library <cells.sp>) or --builtin-lib")?;
    load_library(&load_doc(path)?, CellMode::Flat, path)
}

/// Maps the match and budget flags every searching subcommand reads
/// onto engine [`RequestOptions`].
fn request_options(args: &Args) -> Result<RequestOptions, String> {
    let mut opts = RequestOptions::default();
    if args.switch("--ignore-globals") {
        opts.respect_globals = false;
    }
    if args.switch("--first") {
        opts.max_instances = 1;
    }
    if let Some(n) = args.option("--threads") {
        opts.threads = n
            .parse()
            .map_err(|_| format!("--threads: `{n}` is not a count"))?;
    }
    // Work budget: only constructed when a cap is actually given, so
    // plain runs stay governor-free (`lower` also drops unlimited
    // budgets, belt and braces).
    let mut budget = subgemini::WorkBudget::default();
    if let Some(n) = args.option("--max-effort") {
        budget.max_effort = Some(
            n.parse()
                .map_err(|_| format!("--max-effort: `{n}` is not an effort-unit count"))?,
        );
    }
    if let Some(ms) = args.option("--deadline-ms") {
        budget.deadline_ms = Some(
            ms.parse()
                .map_err(|_| format!("--deadline-ms: `{ms}` is not a millisecond count"))?,
        );
    }
    if !budget.is_unlimited() {
        opts.budget = Some(budget);
    }
    Ok(opts)
}

/// [`request_options`] plus the `--artifact` warm start. The engine's
/// `lower` step resolves the handle, digest check included.
fn warm_request_options(args: &Args) -> Result<RequestOptions, String> {
    let mut opts = request_options(args)?;
    opts.artifact = args.option("--artifact").map(str::to_string);
    Ok(opts)
}

/// Exit code for a finished search: truncation is not a failure (the
/// caller asked for a bounded run and got a valid prefix) unless
/// `--fail-fast` asks to treat it as one, with its own documented code
/// so scripts can tell "nothing found" (1) from "ran out of budget"
/// (3).
fn find_exit_code(args: &Args, outcome: &subgemini::MatchOutcome) -> u8 {
    if outcome.completeness.is_truncated() {
        return if args.switch("--fail-fast") { 3 } else { 0 };
    }
    if outcome.count() > 0 {
        0
    } else {
        1
    }
}

/// Writes the requested event exports (`--trace-out`, `--events-out`)
/// from a finished outcome's journal.
fn write_event_exports(args: &Args, outcome: &subgemini::MatchOutcome) -> Result<(), String> {
    let Some(journal) = outcome.events.as_ref() else {
        return Ok(());
    };
    if let Some(path) = args.option("--trace-out") {
        let doc = subgemini::events::journal_to_chrome_trace(journal);
        fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = args.option("--events-out") {
        let text = subgemini::events::journal_to_ndjson(journal);
        fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// The validated `--report` value, if any.
fn report_mode(args: &Args) -> Result<Option<&str>, String> {
    match args.option("--report") {
        None => Ok(None),
        Some(m @ ("json" | "text")) => Ok(Some(m)),
        Some(other) => Err(format!(
            "--report: expected `json` or `text`, got `{other}`"
        )),
    }
}

/// `subg find`: locate all instances of a pattern.
pub fn find(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let pattern = pattern_from(args, main_path)?;
    let mut options = warm_request_options(args)?;
    // A report implies metrics collection; text output stays untouched
    // (and the match byte-identical) without one.
    options.collect_metrics = report_mode(args)?.is_some();
    // Any event consumer turns the journal on; without one the search
    // carries no buffers at all.
    options.trace_events = args.option("--trace-out").is_some()
        || args.option("--events-out").is_some()
        || args.switch("--explain");
    let resp = Engine::new()
        .find(&FindRequest {
            circuit: CircuitSource::Inline(&main),
            pattern: PatternSource::Inline(&pattern),
            options,
        })
        .map_err(|e| e.to_string())?;
    let outcome = &resp.outcome;
    write_event_exports(args, outcome)?;
    let explain_text = args
        .switch("--explain")
        .then(|| subgemini::ExplainReport::from_outcome(outcome).render());
    match report_mode(args)? {
        Some("json") => {
            // Machine-readable: the report is the whole stdout.
            print!("{}", subgemini::metrics::outcome_to_json(outcome).pretty());
            return Ok(find_exit_code(args, outcome));
        }
        Some(_) => {
            print!("{}", subgemini::metrics::outcome_to_text(outcome));
            if let Some(text) = explain_text {
                print!("{text}");
            }
            return Ok(find_exit_code(args, outcome));
        }
        None => {}
    }
    if args.switch("--csv") {
        println!("instance,devices");
        for (i, names) in resp.instance_devices().enumerate() {
            println!("{i},{}", names.join(";"));
        }
    } else {
        println!(
            "{} instance(s) of `{}` in `{}`",
            outcome.count(),
            resp.pattern,
            resp.circuit
        );
        for (i, names) in resp.instance_devices().enumerate() {
            println!("  #{i}: {}", names.join(" "));
        }
        println!(
            "phase1: |CV|={} iters={}; phase2: {} tried, {} false, {} passes",
            outcome.phase1.cv_size,
            outcome.phase1.iterations,
            outcome.phase2.candidates_tried,
            outcome.phase2.false_candidates,
            outcome.phase2.passes
        );
    }
    if let subgemini::Completeness::Truncated {
        reason,
        candidates_tried,
        candidates_skipped,
    } = &outcome.completeness
    {
        // Keep --csv stdout machine-clean; the exit code still reports
        // the truncation there.
        if !args.switch("--csv") {
            println!(
                "truncated ({}): {candidates_tried} candidate(s) tried, {candidates_skipped} skipped",
                reason.as_str()
            );
        }
    }
    if let Some(text) = explain_text {
        print!("{text}");
    }
    Ok(find_exit_code(args, outcome))
}

/// `subg explain`: run the search with the event journal on and answer
/// "why did (or didn't) this pattern match?" from the merged stream.
pub fn explain(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let pattern = pattern_from(args, main_path)?;
    let resp = Engine::new()
        .explain(&FindRequest {
            circuit: CircuitSource::Inline(&main),
            pattern: PatternSource::Inline(&pattern),
            options: warm_request_options(args)?,
        })
        .map_err(|e| e.to_string())?;
    let outcome = &resp.find.outcome;
    write_event_exports(args, outcome)?;
    if args.switch("--json") {
        print!("{}", resp.report.to_json().pretty());
    } else {
        print!("{}", resp.report.render());
    }
    Ok(if outcome.count() > 0 { 0 } else { 1 })
}

/// `subg candidates`: Phase I only.
pub fn candidates(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let pattern = pattern_from(args, main_path)?;
    let cv = subgemini::candidates::generate(&pattern, &main);
    match cv.key {
        Some(key) => {
            let key_name = match key {
                subgemini_netlist::Vertex::Device(d) => pattern.device(d).name().to_string(),
                subgemini_netlist::Vertex::Net(n) => pattern.net_ref(n).name().to_string(),
            };
            println!(
                "key vertex: {key_name} ({} candidates after {} iterations)",
                cv.candidates.len(),
                cv.stats.iterations
            );
            for c in &cv.candidates {
                let name = match c {
                    subgemini_netlist::Vertex::Device(d) => main.device(*d).name(),
                    subgemini_netlist::Vertex::Net(n) => main.net_ref(*n).name(),
                };
                println!("  {name}");
            }
            Ok(0)
        }
        None => {
            println!(
                "no viable key vertex (proven empty: {})",
                cv.stats.proven_empty
            );
            Ok(1)
        }
    }
}

/// `subg compile`: compile a main netlist into a persistent `.sgc`
/// artifact (CSR snapshot + fingerprint index) for warm-started runs.
pub fn compile(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let out = match args.option("--out") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(main_path).with_extension("sgc"),
    };
    let enc = subgemini_engine::compile_netlist(&main);
    fs::write(&out, &enc.bytes).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "{}: {} device(s), {} net(s), digest {:016x}, {} bytes",
        out.display(),
        enc.devices,
        enc.nets,
        enc.digest,
        enc.bytes.len()
    );
    Ok(0)
}

/// `subg serve`: long-lived matching daemon over the same engine the
/// one-shot commands use. Positional netlist files are compiled and
/// registered up front (under their elaborated circuit names); clients
/// then upload/register more and query over HTTP. Stdout carries
/// machine-readable NDJSON status lines — scripts read the `listening`
/// line for the resolved address (`--addr 127.0.0.1:0` binds an
/// ephemeral port), and the final `shutdown` line for the drain count.
pub fn serve(args: &Args) -> Result<u8, String> {
    use std::io::Write as _;
    let mut config = subgemini_serve::ServeConfig::default();
    if let Some(addr) = args.option("--addr") {
        config.addr = addr.to_string();
    }
    if let Some(w) = args.option("--workers") {
        config.workers = w
            .parse()
            .map_err(|_| format!("--workers: `{w}` is not a count"))?;
        if config.workers == 0 {
            return Err("--workers: need at least one worker".into());
        }
    }
    if let Some(target) = args.option("--access-log") {
        config.access_log = Some(target.to_string());
    }
    if let Some(ms) = args.option("--slow-ms") {
        let ms = ms
            .parse()
            .map_err(|_| format!("--slow-ms: `{ms}` is not a millisecond count"))?;
        config.slow_ms = Some(ms);
    }
    if let Some(keep) = args.option("--slow-keep") {
        config.slow_keep = keep
            .parse()
            .map_err(|_| format!("--slow-keep: `{keep}` is not a count"))?;
        if config.slow_keep == 0 {
            return Err("--slow-keep: need at least one slot".into());
        }
    }
    let engine = std::sync::Arc::new(Engine::new());
    let mut preloads = Vec::new();
    for path in &args.positional {
        let main = load_main(path)?;
        let name = main.name().to_string();
        let info = engine.register_circuit(&name, main);
        preloads.push(info);
    }
    let server = subgemini_serve::Server::bind(engine, &config)
        .map_err(|e| format!("{}: {e}", config.addr))?;
    let mut stdout = std::io::stdout();
    for info in &preloads {
        println!(
            "{{\"event\":\"registered\",\"circuit\":\"{}\",\"devices\":{},\"nets\":{}}}",
            info.name, info.devices, info.nets
        );
    }
    // The machine-readable handshake: exactly one `listening` line,
    // flushed before serving, so spawners never race on the port.
    println!(
        "{{\"event\":\"listening\",\"addr\":\"{}\"}}",
        server.local_addr()
    );
    stdout.flush().map_err(|e| e.to_string())?;
    subgemini_serve::signal::install(&server.shutdown_handle());
    let report = server.run();
    println!(
        "{{\"event\":\"shutdown\",\"served\":{},\"drained\":{}}}",
        report.served, report.drained
    );
    Ok(0)
}

/// `subg extract`: transistor→gate conversion, hierarchical deck out.
pub fn extract(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let cells = library_from(args)?;
    let mut extractor = subgemini::Extractor::new();
    for cell in &cells {
        extractor.add_cell(cell.clone());
    }
    let (top, report) = extractor.extract(&main).map_err(|e| e.to_string())?;
    for (cell, n) in &report.per_cell {
        if *n > 0 {
            println!("{cell:<16} {n}");
        }
    }
    println!("unabsorbed devices: {}", report.unabsorbed_devices);
    let used: Vec<Netlist> = cells
        .iter()
        .filter(|c| report.count_of(c.name()) > 0)
        .cloned()
        .collect();
    let deck = write_hierarchical(&top, &used);
    match args.option("--out") {
        Some(path) => fs::write(path, deck).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{deck}"),
    }
    Ok(0)
}

/// `subg check`: rule library over a circuit.
pub fn check(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let rules_path = args.option("--rules").ok_or("missing --rules <file>")?;
    let doc = load_doc(rules_path)?;
    let mut checker = subgemini::RuleChecker::new();
    let patterns = load_cells(&doc, CellMode::Flat, rules_path)?;
    check_patterns(&patterns, rules_path)?;
    for (name, pattern) in doc.cell_names().into_iter().zip(patterns) {
        checker.add_rule(name.clone(), format!("pattern `{name}`"), pattern);
    }
    let violations = checker.check(&main);
    for v in &violations {
        println!("[{}] {}", v.rule, v.devices.join(" "));
    }
    println!("{} violation(s)", violations.len());
    Ok(if violations.is_empty() { 0 } else { 1 })
}

/// `subg map`: greedy technology mapping report.
pub fn map(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let cells = library_from(args)?;
    let mut mapper = subgemini::TechMapper::new();
    for cell in cells {
        // Cost model: device count (area proxy).
        let cost = cell.device_count() as f64;
        mapper.add_cell(cell, cost);
    }
    let cover = mapper.map_greedy(&main);
    for c in &cover.chosen {
        println!("{:<16} cost {:>6.1}", c.cell, c.cost);
    }
    println!(
        "total cost {:.1}, uncovered devices {}",
        cover.total_cost,
        cover.uncovered.len()
    );
    Ok(if cover.is_complete() { 0 } else { 1 })
}

/// `subg compare`: Gemini netlist comparison. With `--hierarchical`,
/// decks are compared cell by cell plus an unflattened top — the
/// paper's §I point that hierarchical matching localizes errors and
/// makes incremental re-checks cheap (unchanged cells verify
/// independently of the edited one).
pub fn compare(args: &Args) -> Result<u8, String> {
    let a_path = args.need(0, "first netlist")?;
    let b_path = args.need(1, "second netlist")?;
    if args.switch("--hierarchical") {
        return compare_hierarchical(a_path, b_path);
    }
    let (a, b) = match args.option("--cell") {
        Some(cell) => {
            let da = load_doc(a_path)?;
            let db = load_doc(b_path)?;
            (load_cell(&da, cell, a_path)?, load_cell(&db, cell, b_path)?)
        }
        None => (load_main(a_path)?, load_main(b_path)?),
    };
    match gemini_compare(&a, &b) {
        subgemini_gemini::GeminiOutcome::Isomorphic(_) => {
            println!("isomorphic");
            Ok(0)
        }
        subgemini_gemini::GeminiOutcome::Mismatch(m) => {
            println!("NOT isomorphic: {m}");
            Ok(1)
        }
    }
}

/// Delegates to the library implementation in `subgemini_suite::hier`
/// (one cell loop to rule them all — the CLI only renders), keeping the
/// historical output bytes. Both decks must be the same format; the
/// cell-by-cell semantics across formats never lined up anyway.
fn compare_hierarchical(a_path: &str, b_path: &str) -> Result<u8, String> {
    use subgemini_engine::source::Doc;
    use subgemini_suite::hier::{compare_docs, compare_verilog, CellOutcome};
    let da = load_doc(a_path)?;
    let db = load_doc(b_path)?;
    let report = match (&da, &db) {
        (Doc::Spice(a), Doc::Spice(b)) => compare_docs(a, b).map_err(|e| e.to_string())?,
        (Doc::Verilog(a), Doc::Verilog(b)) => compare_verilog(a, b).map_err(|e| e.to_string())?,
        _ => {
            return Err(format!(
                "--hierarchical needs both netlists in the same format ({a_path} vs {b_path})"
            ))
        }
    };
    let mut failures = 0usize;
    for (name, outcome) in &report.cells {
        match outcome {
            CellOutcome::Matches => println!("cell {name:<16} ok"),
            CellOutcome::Differs(m) => {
                println!("cell {name:<16} DIFFERS: {m}");
                failures += 1;
            }
            CellOutcome::OnlyInFirst => {
                println!("cell {name:<16} only in {a_path}");
                failures += 1;
            }
            CellOutcome::OnlyInSecond => {
                println!("cell {name:<16} only in {b_path}");
                failures += 1;
            }
        }
    }
    match &report.top {
        Some(CellOutcome::Differs(m)) => {
            println!("top              DIFFERS: {m}");
            failures += 1;
        }
        _ => println!("top              ok"),
    }
    println!("{failures} difference(s)");
    Ok(if failures == 0 { 0 } else { 1 })
}

/// Loads the `--library` deck for `subg hierarchize` with *one-level*
/// elaboration: a cell's `X` instances of other library cells stay
/// composite devices (that is what encodes the level structure), while
/// `library_from`'s flat loader would erase it. The hierarchizer
/// normalizes the naive composite types afterwards.
fn hierarchize_library(args: &Args) -> Result<Vec<Netlist>, String> {
    if args.switch("--builtin-lib") {
        return Ok(subgemini_workloads::cells::library());
    }
    let path = args
        .option("--library")
        .or_else(|| args.option("--lib"))
        .ok_or("pass --library <cells.sp> or --builtin-lib")?;
    load_library(&load_doc(path)?, CellMode::Hierarchical, path)
}

/// `subg hierarchize`: iterative bottom-up hierarchy reconstruction —
/// the library is grouped into levels, each level extracted in turn
/// over the flat netlist until a fixpoint, and the per-level report
/// printed (`--report json|text`, text by default). `--out` writes the
/// recovered hierarchical deck.
pub fn hierarchize(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let cells = hierarchize_library(args)?;
    let resp = Engine::new()
        .hierarchize(&HierarchizeRequest {
            circuit: CircuitSource::Inline(&main),
            library: LibrarySource::Inline(&cells),
            options: warm_request_options(args)?,
        })
        .map_err(|e| e.to_string())?;
    match report_mode(args)? {
        Some("json") => print!("{}", resp.report.to_json().pretty()),
        _ => print!("{}", resp.report.render_text()),
    }
    if let Some(path) = args.option("--out") {
        fs::write(path, &resp.deck).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(0)
}

/// `subg trace`: render the Phase II labeling trace of the first
/// verified instance in the paper's Table 1 notation.
pub fn trace(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let pattern = pattern_from(args, main_path)?;
    // Trace never warm-starts: the rendered pass-by-pass labeling is a
    // teaching view of the cold algorithm, so it takes no `--artifact`.
    let opts = request_options(args)?
        .lower(&main, None)
        .map_err(|e| e.to_string())?;
    let outcome = Matcher::new(&pattern, &main)
        .options(MatchOptions {
            record_trace: true,
            spread_from_port_images: true, // paper-literal spreading
            ..opts
        })
        .find_all();
    let count = outcome.count();
    match outcome.trace {
        Some(t) => {
            print!("{}", t.render(&pattern, &main));
            println!(
                "\n{count} instance(s); trace shows the first verified candidate ({} passes)",
                t.pass_count()
            );
            Ok(0)
        }
        None => {
            println!("no instance found; nothing to trace");
            Ok(1)
        }
    }
}

/// `subg survey`: count instances of every library cell in one run.
/// The main circuit is compiled and Phase-I-relabeled exactly once,
/// shared across every cell.
pub fn survey(args: &Args) -> Result<u8, String> {
    let main_path = args.need(0, "main netlist file")?;
    let main = load_main(main_path)?;
    let cells = library_from(args)?;
    let resp = Engine::new()
        .survey(&SurveyRequest {
            circuit: CircuitSource::Inline(&main),
            library: LibrarySource::Inline(&cells),
            options: warm_request_options(args)?,
        })
        .map_err(|e| e.to_string())?;
    println!("{:<18} {:>6} {:>6}", "cell", "|CV|", "found");
    for row in &resp.rows {
        println!(
            "{:<18} {:>6} {:>6}",
            row.cell,
            row.outcome.phase1.cv_size,
            row.outcome.count()
        );
    }
    Ok(0)
}

/// `subg fingerprint`: canonical isomorphism-invariant hashes for a
/// deck's cells, with duplicate grouping.
pub fn fingerprint(args: &Args) -> Result<u8, String> {
    let path = args.need(0, "netlist file")?;
    let doc = load_doc(path)?;
    let names = doc.cell_names();
    if names.is_empty() {
        return Err(format!("{path}: no cell definitions to fingerprint"));
    }
    let cells = load_cells(&doc, CellMode::Flat, path)?;
    for cell in &cells {
        println!(
            "{:016x}  {}",
            subgemini_gemini::fingerprint(cell),
            cell.name()
        );
    }
    let refs: Vec<&Netlist> = cells.iter().collect();
    let groups = subgemini_gemini::dedup_classes(&refs);
    let mut dups = 0;
    for group in &groups {
        if group.len() > 1 {
            let members: Vec<&str> = group.iter().map(|&i| names[i].as_str()).collect();
            println!("duplicates: {}", members.join(" == "));
            dups += 1;
        }
    }
    println!("{} cell(s), {} duplicate group(s)", names.len(), dups);
    Ok(if dups == 0 { 0 } else { 1 })
}

/// `subg dot`: Graphviz export of the bipartite circuit graph.
pub fn dot(args: &Args) -> Result<u8, String> {
    let path = args.need(0, "netlist file")?;
    let main = load_main(path)?;
    let text = subgemini_netlist::to_dot(&main);
    match args.option("--out") {
        Some(out_path) => fs::write(out_path, text).map_err(|e| format!("{out_path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(0)
}

/// `subg stats`: netlist summary.
pub fn stats(args: &Args) -> Result<u8, String> {
    let path = args.need(0, "netlist file")?;
    let main = load_main(path)?;
    println!("{}", NetlistStats::of(&main));
    Ok(0)
}

/// A subcommand: its name, its implementation (the function of the same
/// name above) and every flag it reads, in groups.
pub struct Command {
    pub name: &'static str,
    pub run: fn(&Args) -> Result<u8, String>,
    pub flags: &'static [&'static [&'static str]],
}

/// What `pattern_from` reads.
const PATTERN: &[&str] = &["--pattern", "--lib"];
/// What `library_from` and `hierarchize_library` read.
const LIBRARY: &[&str] = &["--builtin-lib", "--lib", "--library"];
/// What `request_options` reads.
const REQUEST: &[&str] = &[
    "--ignore-globals",
    "--first",
    "--threads",
    "--max-effort",
    "--deadline-ms",
];
/// What `write_event_exports` reads.
const EVENTS: &[&str] = &["--trace-out", "--events-out"];

/// Every subcommand. A flag outside its subcommand's entry is a usage
/// error, so none is silently ignored.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "find",
        run: find,
        flags: &[
            PATTERN,
            REQUEST,
            EVENTS,
            &[
                "--artifact",
                "--report",
                "--explain",
                "--csv",
                "--fail-fast",
            ],
        ],
    },
    Command {
        name: "explain",
        run: explain,
        flags: &[PATTERN, REQUEST, EVENTS, &["--artifact", "--json"]],
    },
    Command {
        name: "candidates",
        run: candidates,
        flags: &[PATTERN],
    },
    Command {
        name: "compile",
        run: compile,
        flags: &[&["--out"]],
    },
    Command {
        name: "extract",
        run: extract,
        flags: &[LIBRARY, &["--out"]],
    },
    Command {
        name: "hierarchize",
        run: hierarchize,
        flags: &[LIBRARY, REQUEST, &["--artifact", "--report", "--out"]],
    },
    Command {
        name: "check",
        run: check,
        flags: &[&["--rules"]],
    },
    Command {
        name: "map",
        run: map,
        flags: &[LIBRARY],
    },
    Command {
        name: "survey",
        run: survey,
        flags: &[LIBRARY, REQUEST, &["--artifact"]],
    },
    Command {
        name: "trace",
        run: trace,
        flags: &[PATTERN, REQUEST],
    },
    Command {
        name: "compare",
        run: compare,
        flags: &[&["--cell", "--hierarchical"]],
    },
    Command {
        name: "stats",
        run: stats,
        flags: &[],
    },
    Command {
        name: "dot",
        run: dot,
        flags: &[&["--out"]],
    },
    Command {
        name: "fingerprint",
        run: fingerprint,
        flags: &[],
    },
    Command {
        name: "serve",
        run: serve,
        flags: &[&[
            "--addr",
            "--workers",
            "--access-log",
            "--slow-ms",
            "--slow-keep",
        ]],
    },
];
