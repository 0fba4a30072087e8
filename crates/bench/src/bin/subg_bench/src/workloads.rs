//! The four workloads. Each one generates its decks from the seed,
//! restarts the peak-resident-set count, then runs its timed window:
//! slices of operations, with the program brought up afresh from the
//! decks before each slice (every bring-up is one `setup_s` sample).
//! The first slice starts with the untimed checks against the
//! generators' ground truth. A traced run interleaves untraced and
//! traced operations and then measures every layer on the workload's
//! own inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use subgemini::hier::{Hierarchizer, HierarchyReport};
use subgemini::metrics::json::{self, Value};
use subgemini_engine::{
    CircuitSource, Engine, FindRequest, HierarchizeRequest, LibrarySource, PatternSource,
    RequestOptions, SurveyRequest, SurveyResponse,
};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

use crate::daemon::{self, exchange, json_u64, Daemon, Phases, Probe, ServeSample};
use crate::decks::{ingest, Deck, Ingest, NetlistSplit};
use crate::layers::{self, Search};
use crate::report::{ms, ratio, Run};
use crate::speed::Samples;
use crate::stats::{median, percentile, quartiles};
use crate::Config;

const CHIP: &str = "chip";
const LIB: &str = "lib";
const MIB: f64 = 1024.0 * 1024.0;

/// How a workload spreads its setups and operations over the timed
/// window.
struct Plan {
    /// Equal slices the window is cut into; the program is brought up
    /// afresh before each one.
    slices: usize,
    /// Bring-ups before each slice after the first. The first has one,
    /// so the peak resident set read in it follows a single setup.
    setups_per_slice: usize,
}

/// Every workload brings the program up 1 + 4 × 3 = 13 times, spread
/// over its run; the setups take 0.3–4 s of it in all.
const PLAN: Plan = Plan {
    slices: 5,
    setups_per_slice: 3,
};

/// The cells `serve_mixed` clients round-robin over: gates, a complex
/// gate, a sequential cell and the full adder, so reply sizes and
/// search costs vary the way a library sweep's do.
const SERVED_CELLS: [&str; 8] = [
    "inv",
    "nand2",
    "nor2",
    "aoi21",
    "mux2",
    "xor2",
    "dff",
    "full_adder",
];
/// Every this many `serve_mixed` requests, one re-uploads the circuit
/// (the write path: parse, elaborate and compile under concurrent
/// reads) instead of searching: 2% of the traffic.
const UPLOAD_EVERY: u64 = 50;
/// Closed-loop clients of `serve_mixed`; the daemon runs two workers.
const SERVE_CLIENTS: usize = 2;
/// Untimed requests to each fresh daemon before its slice.
const SERVE_WARMUP: usize = 20;
/// `serve_mixed` slices run in chunks of this length, with the host's
/// speed read between them.
const SERVE_CHUNK: Duration = Duration::from_millis(500);
/// Fewest timed operations per slice (per client, for the daemon),
/// however short the slice.
const MIN_OPS_PER_SLICE: usize = 2;

/// A program instance the timed window brings up, and retires before
/// bringing up the next.
trait Instance {
    fn retire(self) -> Result<(), String>;
}

impl Instance for Engine {
    fn retire(self) -> Result<(), String> {
        drop(self);
        Ok(())
    }
}

impl Instance for Daemon {
    fn retire(self) -> Result<(), String> {
        self.shutdown()
    }
}

/// Runs the timed window of `seconds`, bring-ups included, cut into
/// `plan.slices` equal parts. Each part retires the previous instance,
/// brings the program up afresh (once in the first part,
/// `setups_per_slice` times in each later one) and spends the rest of
/// the part in `slice`. The setups are thus spread over the run as the
/// operations are. `bring_up` returns the instance and the nanoseconds
/// that count as its setup; the host's speed is read around each one.
/// `slice` gets the latest instance, the part's index and the time left
/// in the part. Returns the last instance and the setup samples.
fn run_window<P: Instance>(
    cfg: &Config,
    plan: &Plan,
    run: &mut Run,
    mut bring_up: impl FnMut(&mut Run) -> Result<(P, f64), String>,
    mut slice: impl FnMut(&mut Run, &P, usize, Duration) -> Result<(), String>,
) -> Result<(P, Samples), String> {
    let start = Instant::now();
    let mut current: Option<P> = None;
    let mut setups = Samples::default();
    for i in 0..plan.slices {
        let reps = if i == 0 { 1 } else { plan.setups_per_slice };
        for _ in 0..reps {
            if let Some(previous) = current.take() {
                previous.retire()?;
            }
            run.speed.mark();
            let (instance, ns) = bring_up(run)?;
            setups.push(ns, run.speed.since_mark());
            current = Some(instance);
        }
        let instance = current.as_ref().expect("brought up before every slice");
        let part_end = cfg.seconds * (i + 1) as u32 / plan.slices as u32;
        slice(run, instance, i, part_end.saturating_sub(start.elapsed()))?;
    }
    let last = current.ok_or("the window has no slice")?;
    Ok((last, setups))
}

/// The decks a workload brings the program up from.
struct Inputs<'a> {
    circuit: &'a Deck,
    library: &'a Deck,
    /// Elaborate library cells keeping references to other cells (for
    /// hierarchy reconstruction) instead of flat.
    hierarchical: bool,
}

/// What every bring-up of the program from its decks measured.
#[derive(Default)]
struct Setup {
    /// The library as the engine registered it.
    cells: Vec<Netlist>,
    ingests: Vec<Ingest>,
    /// The artifact build split into its calls (traced runs, first
    /// bring-up only).
    splits: Vec<NetlistSplit>,
}

impl Setup {
    /// Registers the circuit and the library on a fresh engine: parse,
    /// elaborate, register. Returns the engine and the time from deck
    /// text to ready, one `setup_s` sample.
    fn bring_up(&mut self, run: &mut Run, inputs: &Inputs<'_>) -> Result<(Engine, f64), String> {
        let engine = Engine::new();
        let t0 = Instant::now();
        let split = (run.traced && self.ingests.is_empty()).then_some(&mut self.splits);
        let ingested = ingest(&engine, CHIP, inputs.circuit, &mut run.trace, split)?;
        let (cells, _) = run.trace.timed("setup.library", || {
            inputs.library.cells(inputs.hierarchical)
        });
        self.cells = cells?;
        engine.register_library(LIB, self.cells.clone());
        let ns = t0.elapsed().as_nanos() as f64;
        let devices = ingested.info.devices;
        run.check(
            "register_devices",
            devices == inputs.circuit.devices,
            || {
                format!(
                    "registered {devices} devices, generated {}",
                    inputs.circuit.devices
                )
            },
        );
        self.ingests.push(ingested);
        Ok((engine, ns))
    }
}

/// The timed operations: wall times of the untraced ones in the order
/// they ran (with the host's slowness over each), of the traced ones,
/// how many completed and the seconds spent in them.
#[derive(Default)]
struct Loop {
    plain: Samples,
    traced_ns: Vec<f64>,
    completed: usize,
    wall_s: f64,
}

impl Loop {
    /// One slice on a fresh instance: an untimed warm-up, then
    /// operations for `length`, at least [`MIN_OPS_PER_SLICE`], with
    /// the host's speed read after each. In a traced run every other
    /// operation is traced; `op` gets that flag and returns its own
    /// wall time (excluding its result checks).
    fn slice(
        &mut self,
        run: &mut Run,
        length: Duration,
        mut op: impl FnMut(&mut Run, bool) -> Result<f64, String>,
    ) -> Result<(), String> {
        run.trace.set_recording(false);
        op(run, false)?;
        let start = Instant::now();
        run.speed.mark();
        let mut i = 0;
        while i < MIN_OPS_PER_SLICE || start.elapsed() < length {
            let traced = run.traced && i % 2 == 1;
            run.trace.set_recording(traced);
            let ns = op(run, traced)?;
            let slowness = run.speed.since_mark();
            if traced {
                self.traced_ns.push(ns);
            } else {
                self.plain.push(ns, slowness);
            }
            i += 1;
        }
        self.completed += i;
        self.wall_s += start.elapsed().as_secs_f64();
        run.trace.set_recording(true);
        Ok(())
    }

    /// Traced over untraced median latency, as a percentage excess.
    fn overhead_pct(&self) -> f64 {
        (ratio(median(&self.traced_ns), median(&self.plain.ns)) - 1.0) * 100.0
    }
}

/// Wall time of `f` in nanoseconds, with its result.
fn clocked<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

/// The end-to-end metrics: medians over every setup and every untraced
/// timed operation of the run, each sample scaled to the host at
/// nominal speed. The environment record gets their quartiles, the same
/// figures unscaled, the host's slowness, the sample counts, the p99
/// (where at least ten samples lie beyond it) and throughput.
fn record_end_to_end(run: &mut Run, setups: &Samples, lp: &Loop, peak_rss_mb: f64) {
    let (setup, latency) = (setups.scaled(), lp.plain.scaled());
    run.metric("setup_s", median(&setup) / 1e9);
    run.metric("latency_p50_ms", ms(median(&latency)));
    run.metric("peak_rss_mb", peak_rss_mb);
    let q = |xs: &[f64], scale: f64| {
        Value::Arr(
            quartiles(xs)
                .iter()
                .map(|v| Value::Num(v / scale))
                .collect(),
        )
    };
    run.env("setup_s_quartiles", q(&setup, 1e9));
    run.env("latency_ms_quartiles", q(&latency, 1e6));
    run.env("unscaled_setup_s_quartiles", q(&setups.ns, 1e9));
    run.env("unscaled_latency_ms_quartiles", q(&lp.plain.ns, 1e6));
    run.env("host_slowness_quartiles", q(run.speed.readings(), 1.0));
    run.env(
        "unscaled_latency_p99_ms",
        percentile(&lp.plain.ns, 0.99).map_or(Value::Null, |p| Value::Num(ms(p))),
    );
    run.env(
        "requests_per_s",
        Value::Num(ratio(lp.completed as f64, lp.wall_s)),
    );
    run.env(
        "samples",
        Value::Obj(vec![
            ("setup".into(), Value::int(setups.len() as u64)),
            ("latency".into(), Value::int(latency.len() as u64)),
            ("slices".into(), Value::int(PLAN.slices as u64)),
            ("completed".into(), Value::int(lp.completed as u64)),
        ]),
    );
}

/// The peak resident set of this process, in MB.
fn own_peak_rss_mb() -> Result<f64, String> {
    daemon::peak_rss_mb("/proc/self/status")
}

/// Restarts this process's peak resident set (VmHWM) from its current
/// resident set, so that a later reading covers only what ran after
/// this call: not the input generators. Returns the restarted value.
fn restart_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("/proc/self/clear_refs: {e}"))?;
    own_peak_rss_mb()
}

/// Called once the decks exist and the generators are dropped: records
/// the decks and thread count, and restarts the peak resident set.
fn inputs_ready(run: &mut Run, decks: &[&Deck], threads: usize) -> Result<(), String> {
    run.env("decks", Value::Arr(decks.iter().map(|d| d.env()).collect()));
    run.env("threads", Value::int(threads as u64));
    run.env("peak_rss_restarted_at_mb", Value::Num(restart_peak_rss()?));
    Ok(())
}

/// The layer metrics every traced run measures the same way: the
/// ingest split, the engine's own overhead, the search figures, and the
/// hierarchy/extraction passes and core diagnostics over the workload's
/// circuit and library.
fn record_layers(
    cfg: &Config,
    run: &mut Run,
    setup: &Setup,
    circuit: &Deck,
    searches: &[Search],
    engine_overhead_ns: &[f64],
    threads: usize,
) -> Result<(), String> {
    let med = |f: fn(&Ingest) -> u64| {
        median(
            &setup
                .ingests
                .iter()
                .map(|i| f(i) as f64)
                .collect::<Vec<_>>(),
        )
    };
    run.metric("spice.parse_ms", ms(med(|i| i.parse_ns)));
    run.metric("spice.elaborate_ms", ms(med(|i| i.elaborate_ns)));
    run.metric("engine.register_ms", ms(med(|i| i.register_ns)));
    run.metric("spice.deck_mb", circuit.text.len() as f64 / MIB);
    let split = setup
        .splits
        .first()
        .ok_or("a traced setup measures the artifact split")?;
    run.metric("netlist.compile_ms", ms(split.compile_ns as f64));
    run.metric("netlist.index_ms", ms(split.index_ns as f64));
    run.metric("netlist.digest_ms", ms(split.digest_ns as f64));
    run.metric("netlist.encode_ms", ms(split.encode_ns as f64));
    run.metric("netlist.artifact_mb", split.artifact_bytes as f64 / MIB);
    run.metric("engine.overhead_ms", ms(median(engine_overhead_ns)));
    layers::record_searches(run, searches);
    let main = circuit.elaborate()?;
    layers::hier_and_extract(run, &main, &setup.cells, threads)?;
    drop(main);
    layers::core_diagnostics(cfg, run)
}

fn request(threads: usize, collect_metrics: bool) -> RequestOptions {
    RequestOptions {
        threads,
        collect_metrics,
        ..RequestOptions::default()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.into())
}

/// `chip_find`: one `full_adder` find on a 10^5-device tiled chip,
/// threads 2 — Phase I and parallel Phase II on a chip-scale input.
pub fn chip_find(cfg: &Config, run: &mut Run) -> Result<(), String> {
    const THREADS: usize = 2;
    let g = gen::tiled_chip(cfg.seed, cfg.size(100_000, 1_000));
    let planted = g.planted_count("full_adder");
    let circuit = Deck::circuit(CHIP, &g.netlist);
    drop(g);
    let library = Deck::library(LIB, &[cells::full_adder()]);
    inputs_ready(run, &[&circuit, &library], THREADS)?;
    run.env("planted_full_adder", Value::int(planted as u64));
    let inputs = Inputs {
        circuit: &circuit,
        library: &library,
        hierarchical: false,
    };
    let find = |engine: &Engine, threads, metrics| {
        engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered(CHIP),
                pattern: PatternSource::Library {
                    library: LIB,
                    cell: "full_adder",
                },
                options: request(threads, metrics),
            })
            .map_err(|e| e.to_string())
    };
    let mut setup = Setup::default();
    let (mut lp, mut rss) = (Loop::default(), 0.0);
    let (mut searches, mut overhead) = (Vec::new(), Vec::new());
    let (engine, setups) = run_window(
        cfg,
        &PLAN,
        run,
        |run| setup.bring_up(run, &inputs),
        |run, engine, i, length| {
            if i == 0 {
                let found = find(engine, THREADS, false)?.outcome.count();
                run.check("found_equals_planted", found == planted, || {
                    format!("found {found}, planted {planted}")
                });
            }
            lp.slice(run, length, |run, traced| {
                let span = run.trace.begin("engine.find");
                let (resp, wall) = clocked(|| find(engine, THREADS, traced));
                run.trace.end(span);
                let resp = resp?;
                let found = resp.outcome.count();
                run.check("find", found == planted, || {
                    format!("found {found}, planted {planted}")
                });
                if traced {
                    searches.extend(Search::from_outcome(&resp.outcome));
                    overhead.push(wall - resp.wall_ns as f64);
                }
                Ok(wall)
            })?;
            if i == 0 {
                rss = own_peak_rss_mb()?;
            }
            Ok(())
        },
    )?;
    if run.traced {
        run.metric("bench.trace_overhead_pct", lp.overhead_pct());
        let t2_over_t1 =
            layers::threads_ratio(cfg.size(3, 1), |t| clocked(|| find(&engine, t, false)).1);
        run.metric("core.threads2_over_threads1", t2_over_t1);
    }
    drop(engine);
    if !run.traced {
        record_end_to_end(run, &setups, &lp, rss);
        return Ok(());
    }
    record_layers(cfg, run, &setup, &circuit, &searches, &overhead, THREADS)?;
    let body = obj(vec![
        ("circuit", s(run.workload)),
        (
            "pattern",
            obj(vec![("library", s(LIB)), ("cell", s("full_adder"))]),
        ),
        (
            "options",
            obj(vec![("threads", Value::int(THREADS as u64))]),
        ),
    ]);
    let verify = |doc: &Value| doc.get("found").and_then(Value::as_u64) == Some(planted as u64);
    let probe = Probe {
        path: "/v1/find",
        body: body.compact(),
        verify: &verify,
    };
    daemon::run_probe(
        run,
        &cfg.subg,
        &cfg.work_dir,
        &circuit,
        Some(&library),
        &probe,
        cfg.size(3, 2),
    )
}

/// A survey's search figures, summed over its rows.
fn survey_search(resp: &SurveyResponse) -> Search {
    Search::total_of(
        resp.rows
            .iter()
            .filter_map(|r| Search::from_outcome(&r.outcome)),
    )
}

/// Per-cell counts of a survey, in library order.
fn survey_counts(resp: &SurveyResponse) -> Vec<(String, usize)> {
    resp.rows
        .iter()
        .map(|r| (r.cell.clone(), r.outcome.count()))
        .collect()
}

/// `library_survey`: every `cells::library()` cell over a 10^5-device
/// tiled chip in one survey, serial — Phase II and the prune dominate;
/// Phase I runs once and is shared.
pub fn library_survey(cfg: &Config, run: &mut Run) -> Result<(), String> {
    const THREADS: usize = 1;
    let g = gen::tiled_chip(cfg.seed, cfg.size(100_000, 1_000));
    let planted: Vec<(&str, usize)> = ["full_adder", "dff", "sram6t"]
        .iter()
        .map(|&c| (c, g.planted_count(c)))
        .collect();
    let circuit = Deck::circuit(CHIP, &g.netlist);
    drop(g);
    let library = Deck::library(LIB, &cells::library());
    inputs_ready(run, &[&circuit, &library], THREADS)?;
    let inputs = Inputs {
        circuit: &circuit,
        library: &library,
        hierarchical: false,
    };
    let survey = |engine: &Engine, threads, metrics| {
        engine
            .survey(&SurveyRequest {
                circuit: CircuitSource::Registered(CHIP),
                library: LibrarySource::Registered(LIB),
                options: request(threads, metrics),
            })
            .map_err(|e| e.to_string())
    };
    let mut setup = Setup::default();
    let (mut lp, mut rss, mut expected) = (Loop::default(), 0.0, Vec::new());
    let (mut searches, mut overhead) = (Vec::new(), Vec::new());
    let (engine, setups) = run_window(
        cfg,
        &PLAN,
        run,
        |run| setup.bring_up(run, &inputs),
        |run, engine, i, length| {
            if i == 0 {
                expected = survey_counts(&survey(engine, THREADS, false)?);
                check_survey(run, engine, &expected, &planted)?;
            }
            lp.slice(run, length, |run, traced| {
                let span = run.trace.begin("engine.survey");
                let (resp, wall) = clocked(|| survey(engine, THREADS, traced));
                run.trace.end(span);
                let resp = resp?;
                run.check("survey", survey_counts(&resp) == expected, || {
                    "per-cell counts differ from the first survey".into()
                });
                if traced {
                    searches.push(survey_search(&resp));
                    overhead.push(wall - resp.wall_ns as f64);
                }
                Ok(wall)
            })?;
            if i == 0 {
                rss = own_peak_rss_mb()?;
            }
            Ok(())
        },
    )?;
    if run.traced {
        run.metric("bench.trace_overhead_pct", lp.overhead_pct());
        let t2_over_t1 =
            layers::threads_ratio(cfg.size(3, 1), |t| clocked(|| survey(&engine, t, false)).1);
        run.metric("core.threads2_over_threads1", t2_over_t1);
    }
    drop(engine);
    if !run.traced {
        record_end_to_end(run, &setups, &lp, rss);
        return Ok(());
    }
    record_layers(cfg, run, &setup, &circuit, &searches, &overhead, THREADS)?;
    let body = obj(vec![
        ("circuit", s(run.workload)),
        ("library", s(LIB)),
        (
            "options",
            obj(vec![("threads", Value::int(THREADS as u64))]),
        ),
    ]);
    let verify = |doc: &Value| {
        let rows = doc.get("rows").and_then(Value::as_arr).unwrap_or(&[]);
        let got: Vec<(String, usize)> = rows
            .iter()
            .filter_map(|r| {
                let cell = r.get("cell")?.as_str()?.to_string();
                Some((cell, r.get("found")?.as_u64()? as usize))
            })
            .collect();
        got == expected
    };
    let probe = Probe {
        path: "/v1/survey",
        body: body.compact(),
        verify: &verify,
    };
    daemon::run_probe(
        run,
        &cfg.subg,
        &cfg.work_dir,
        &circuit,
        Some(&library),
        &probe,
        cfg.size(3, 2),
    )
}

/// The survey's checks: each cell's count equals a standalone find,
/// the planted cells' counts equal planted, and every `dff` holds two
/// `dlatch`es.
fn check_survey(
    run: &mut Run,
    engine: &Engine,
    expected: &[(String, usize)],
    planted: &[(&str, usize)],
) -> Result<(), String> {
    for (cell, n) in expected {
        let alone = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered(CHIP),
                pattern: PatternSource::Library { library: LIB, cell },
                options: request(1, false),
            })
            .map_err(|e| e.to_string())?
            .outcome
            .count();
        run.check("survey_equals_find", alone == *n, || {
            format!("{cell}: survey {n}, find {alone}")
        });
    }
    let count_of = |cell: &str| expected.iter().find(|(c, _)| c == cell).map_or(0, |e| e.1);
    for &(cell, n) in planted {
        run.check("found_equals_planted", count_of(cell) == n, || {
            format!("{cell}: found {}, planted {n}", count_of(cell))
        });
    }
    run.check(
        "dlatch_twice_dff",
        count_of("dlatch") == 2 * count_of("dff"),
        || format!("dlatch {}, dff {}", count_of("dlatch"), count_of("dff")),
    );
    Ok(())
}

/// Mismatches between a hierarchy report and the planted counts.
fn hierarchy_mismatch(
    expected: &[(String, usize)],
    count_of: impl Fn(&str) -> usize,
    unabsorbed: usize,
) -> Option<String> {
    let mut bad: Vec<String> = expected
        .iter()
        .filter(|(cell, n)| count_of(cell) != *n)
        .map(|(cell, n)| format!("{cell}: found {}, planted {n}", count_of(cell)))
        .collect();
    if unabsorbed != 0 {
        bad.push(format!("{unabsorbed} unabsorbed devices"));
    }
    (!bad.is_empty()).then(|| bad.join("; "))
}

fn report_mismatch(expected: &[(String, usize)], report: &HierarchyReport) -> Option<String> {
    hierarchy_mismatch(expected, |c| report.count_of(c), report.unabsorbed_devices)
}

/// `hierarchize`: bottom-up hierarchy reconstruction of a flattened
/// three-level 3 × 10^4-device design, threads 2 — many small searches,
/// each replacing pass rebuilding and recompiling the circuit.
pub fn hierarchize(cfg: &Config, run: &mut Run) -> Result<(), String> {
    const THREADS: usize = 2;
    let chip = gen::hierarchical_chip(cfg.seed + 1, 3, cfg.size(30_000, 1_000));
    let expected: Vec<(String, usize)> =
        chip.expected.iter().map(|(c, &n)| (c.clone(), n)).collect();
    let circuit = Deck::circuit(CHIP, &chip.generated.netlist);
    let library = Deck::library(LIB, &chip.library);
    drop(chip);
    inputs_ready(run, &[&circuit, &library], THREADS)?;
    run.env("hierarchy_seed", Value::int(cfg.seed + 1));
    let inputs = Inputs {
        circuit: &circuit,
        library: &library,
        hierarchical: true,
    };
    let hierarchize = |engine: &Engine, threads| {
        engine
            .hierarchize(&HierarchizeRequest {
                circuit: CircuitSource::Registered(CHIP),
                library: LibrarySource::Registered(LIB),
                options: request(threads, false),
            })
            .map_err(|e| e.to_string())
    };
    let mut setup = Setup::default();
    let (mut lp, mut rss, mut overhead) = (Loop::default(), 0.0, Vec::new());
    let (engine, setups) = run_window(
        cfg,
        &PLAN,
        run,
        |run| setup.bring_up(run, &inputs),
        |run, engine, i, length| {
            if i == 0 {
                let bad = report_mismatch(&expected, &hierarchize(engine, THREADS)?.report);
                run.check("found_equals_planted", bad.is_none(), || {
                    bad.unwrap_or_default()
                });
            }
            lp.slice(run, length, |run, traced| {
                let span = run.trace.begin("engine.hierarchize");
                let (resp, wall) = clocked(|| hierarchize(engine, THREADS));
                run.trace.end(span);
                let resp = resp?;
                let bad = report_mismatch(&expected, &resp.report);
                run.check("hierarchize", bad.is_none(), || bad.unwrap_or_default());
                if traced {
                    overhead.push(wall - resp.wall_ns as f64);
                }
                Ok(wall)
            })?;
            if i == 0 {
                rss = own_peak_rss_mb()?;
            }
            Ok(())
        },
    )?;
    let mut searches = Vec::new();
    if run.traced {
        run.metric("bench.trace_overhead_pct", lp.overhead_pct());
        let t2_over_t1 =
            layers::threads_ratio(cfg.size(3, 1), |t| clocked(|| hierarchize(&engine, t)).1);
        run.metric("core.threads2_over_threads1", t2_over_t1);
        // The engine reports no per-search metrics for a hierarchize
        // request; its first round's searches are the level-1 cells
        // over the flat circuit, which a survey of those cells
        // reproduces.
        let level1 = Hierarchizer::new(&setup.cells)
            .map_err(|e| e.to_string())?
            .levels()[0]
            .clone();
        for _ in 0..cfg.size(3, 2) {
            let span = run.trace.begin("engine.survey");
            let resp = engine.survey(&SurveyRequest {
                circuit: CircuitSource::Registered(CHIP),
                library: LibrarySource::Inline(&level1),
                options: request(THREADS, true),
            });
            run.trace.end(span);
            searches.push(survey_search(&resp.map_err(|e| e.to_string())?));
        }
    }
    drop(engine);
    if !run.traced {
        record_end_to_end(run, &setups, &lp, rss);
        return Ok(());
    }
    record_layers(cfg, run, &setup, &circuit, &searches, &overhead, THREADS)?;
    let body = obj(vec![
        ("circuit", s(run.workload)),
        ("library", obj(vec![("source", s(&library.text))])),
        (
            "options",
            obj(vec![("threads", Value::int(THREADS as u64))]),
        ),
    ]);
    let verify = |doc: &Value| {
        let Some(h) = doc.get("hierarchy") else {
            return false;
        };
        let levels = h.get("levels").and_then(Value::as_arr).unwrap_or(&[]);
        let count_of = |cell: &str| {
            levels
                .iter()
                .flat_map(|l| l.get("cells").and_then(Value::as_arr).unwrap_or(&[]))
                .filter(|c| c.get("cell").and_then(Value::as_str) == Some(cell))
                .filter_map(|c| c.get("found").and_then(Value::as_u64))
                .sum::<u64>() as usize
        };
        let unabsorbed = h.get("unabsorbed_devices").and_then(Value::as_u64);
        unabsorbed.is_some_and(|u| hierarchy_mismatch(&expected, count_of, u as usize).is_none())
    };
    let probe = Probe {
        path: "/v1/hierarchize",
        body: body.compact(),
        verify: &verify,
    };
    daemon::run_probe(
        run,
        &cfg.subg,
        &cfg.work_dir,
        &circuit,
        None,
        &probe,
        cfg.size(3, 2),
    )
}

/// What one `serve_mixed` request was.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Find(usize),
    Upload,
}

impl Kind {
    fn of(i: u64) -> Kind {
        if i % UPLOAD_EVERY == UPLOAD_EVERY - 1 {
            Kind::Upload
        } else {
            Kind::Find((i % SERVED_CELLS.len() as u64) as usize)
        }
    }
}

/// One answered (or failed) `serve_mixed` request.
struct Reply {
    kind: Kind,
    traced: bool,
    /// `Err` carries why the request failed.
    outcome: Result<Answered, String>,
    /// The host's slowness over the chunk of traffic it was part of.
    slowness: f64,
}

struct Answered {
    phases: Phases,
    sample: ServeSample,
    search: Option<Search>,
}

/// The request bodies and the answers every reply must carry.
struct Traffic<'a> {
    circuit: &'a Deck,
    /// Find bodies per cell: `[untraced, traced]`.
    finds: Vec<[String; 2]>,
    expected: Vec<usize>,
}

impl Traffic<'_> {
    fn send(&self, addr: std::net::SocketAddr, kind: Kind, traced: bool) -> Reply {
        let (path, body) = match kind {
            Kind::Upload => ("/v1/circuits/chip", self.circuit.text.as_bytes()),
            Kind::Find(c) => ("/v1/find", self.finds[c][usize::from(traced)].as_bytes()),
        };
        let outcome = exchange(addr, "POST", path, body).and_then(|x| {
            let (key, want) = match kind {
                Kind::Upload => ("devices", self.circuit.devices),
                Kind::Find(c) => ("found", self.expected[c]),
            };
            let got = json_u64(&x.body, key);
            if x.status != 200 || got != Some(want as u64) {
                return Err(format!(
                    "{path}: status {}, {key} {got:?}, expected {want}",
                    x.status
                ));
            }
            let search = (traced && kind != Kind::Upload)
                .then(|| {
                    json::parse(&x.body)
                        .ok()
                        .and_then(|d| Search::from_report(&d))
                })
                .flatten();
            Ok(Answered {
                phases: x.phases,
                sample: x.sample(),
                search,
            })
        });
        Reply {
            kind,
            traced,
            outcome,
            slowness: 1.0,
        }
    }

    /// One slice of the closed loop: each client sends its next request
    /// when the previous reply has been read, until `length` has passed
    /// and it has sent at least [`MIN_OPS_PER_SLICE`]. `seq` numbers
    /// the requests across slices, so the mix continues where the last
    /// slice left it.
    fn closed_loop(
        &self,
        addr: std::net::SocketAddr,
        seq: &AtomicU64,
        traced_run: bool,
        length: Duration,
    ) -> Vec<Reply> {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..SERVE_CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while mine.len() < MIN_OPS_PER_SLICE || start.elapsed() < length {
                            let i = seq.fetch_add(1, Ordering::Relaxed);
                            mine.push(self.send(addr, Kind::of(i), traced_run && i % 2 == 1));
                        }
                        mine
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        })
    }
}

/// Brings a daemon up: spawn, wait for `listening`, upload the circuit
/// and the library. Returns it with the time that took.
fn serve_setup(
    cfg: &Config,
    run: &mut Run,
    circuit: &Deck,
    library: &Deck,
) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&cfg.subg, None)?;
    let up = exchange(
        daemon.addr,
        "POST",
        "/v1/circuits/chip",
        circuit.text.as_bytes(),
    )?;
    let lib = exchange(
        daemon.addr,
        "POST",
        "/v1/libraries/lib",
        library.text.as_bytes(),
    )?;
    let ns = t0.elapsed().as_nanos() as f64;
    let devices = json_u64(&up.body, "devices");
    run.check(
        "upload_devices",
        up.status == 200 && devices == Some(circuit.devices as u64),
        || {
            format!(
                "status {}, devices {devices:?}, generated {}",
                up.status, circuit.devices
            )
        },
    );
    run.check("library_upload", lib.status == 200, || {
        format!("status {}: {}", lib.status, lib.body)
    });
    Ok((daemon, ns))
}

/// `serve_mixed`: the real `subg serve` daemon over TCP, closed loop,
/// two clients, one request per connection; 98% finds round-robin over
/// eight cells, 2% circuit re-uploads.
pub fn serve_mixed(cfg: &Config, run: &mut Run) -> Result<(), String> {
    const THREADS: usize = 1;
    let g = gen::tiled_chip(cfg.seed, cfg.size(5_000, 1_000));
    let circuit = Deck::circuit(CHIP, &g.netlist);
    drop(g);
    let served: Vec<Netlist> = SERVED_CELLS
        .iter()
        .map(|&c| cells::by_name(c).expect("served cells are library cells"))
        .collect();
    let library = Deck::library(LIB, &served);
    inputs_ready(run, &[&circuit, &library], THREADS)?;
    run.env("clients", Value::int(SERVE_CLIENTS as u64));
    run.env("daemon_workers", Value::int(2));

    // In-process reference answers for every served cell.
    let inputs = Inputs {
        circuit: &circuit,
        library: &library,
        hierarchical: false,
    };
    let mut ref_setup = Setup::default();
    let (reference, _) = ref_setup.bring_up(run, &inputs)?;
    let find_ref = |cell: &str, threads, metrics| {
        reference
            .find(&FindRequest {
                circuit: CircuitSource::Registered(CHIP),
                pattern: PatternSource::Library { library: LIB, cell },
                options: request(threads, metrics),
            })
            .map_err(|e| e.to_string())
    };
    let find_body = |cell: &str, metrics: bool| {
        let mut fields = vec![
            ("circuit", s(CHIP)),
            ("pattern", obj(vec![("library", s(LIB)), ("cell", s(cell))])),
        ];
        if metrics {
            fields.push(("options", obj(vec![("metrics", Value::Bool(true))])));
        }
        obj(fields).compact()
    };
    let traffic = Traffic {
        circuit: &circuit,
        finds: SERVED_CELLS
            .iter()
            .map(|c| [find_body(c, false), find_body(c, true)])
            .collect(),
        expected: SERVED_CELLS
            .iter()
            .map(|c| find_ref(c, THREADS, false).map(|r| r.outcome.count()))
            .collect::<Result<Vec<_>, _>>()?,
    };

    let seq = AtomicU64::new(0);
    let mut replies = Vec::new();
    let (mut wall_s, mut peaks, mut errors) = (0.0, Vec::new(), 0);
    let (daemon, setups) = run_window(
        cfg,
        &PLAN,
        run,
        |run| serve_setup(cfg, run, &circuit, &library),
        |run, daemon, i, length| {
            if i == 0 {
                for (c, cell) in SERVED_CELLS.iter().enumerate() {
                    let reply = traffic.send(daemon.addr, Kind::Find(c), false);
                    run.check("found_equals_in_process", reply.outcome.is_ok(), || {
                        format!("{cell}: {}", reply.outcome.err().unwrap_or_default())
                    });
                }
            }
            for w in 0..SERVE_WARMUP {
                let reply = traffic.send(daemon.addr, Kind::Find(w % SERVED_CELLS.len()), false);
                run.check("warmup", reply.outcome.is_ok(), || {
                    reply.outcome.err().unwrap_or_default()
                });
            }
            // Read before the concurrent loop, like the in-process
            // workloads' peak after sequential traffic: two clients
            // overlapping searches and uploads add 6–10 MB to a ~8 MB
            // daemon at random. The median over the run's daemons is
            // the metric.
            peaks.push(daemon.peak_rss_mb()?);
            let start = Instant::now();
            run.speed.mark();
            loop {
                let chunk_start = Instant::now();
                let left = length.saturating_sub(start.elapsed());
                let mut chunk =
                    traffic.closed_loop(daemon.addr, &seq, run.traced, left.min(SERVE_CHUNK));
                wall_s += chunk_start.elapsed().as_secs_f64();
                let slowness = run.speed.since_mark();
                for reply in &mut chunk {
                    reply.slowness = slowness;
                }
                replies.extend(chunk);
                if start.elapsed() >= length {
                    break;
                }
            }
            if i == 0 {
                run.env(
                    "daemon_peak_rss_after_loop_mb",
                    Value::Num(daemon.peak_rss_mb()?),
                );
            }
            errors += daemon::http_errors(daemon.addr)?;
            Ok(())
        },
    )?;
    daemon.shutdown()?;
    run.check("http_errors", errors == 0, || {
        format!("{errors} failed exchanges")
    });

    let (mut plain, mut uploads) = (Vec::new(), Vec::new());
    let mut lp = Loop {
        wall_s,
        ..Loop::default()
    };
    let (mut samples, mut searches) = (Vec::new(), Vec::new());
    for reply in &replies {
        run.check("request", reply.outcome.is_ok(), || {
            reply.outcome.as_ref().err().cloned().unwrap_or_default()
        });
        let Ok(a) = &reply.outcome else { continue };
        lp.completed += 1;
        let total = a.phases.total_ns();
        match (reply.kind, reply.traced) {
            (Kind::Upload, _) => uploads.push(total),
            (Kind::Find(_), false) => plain.push((a.phases.done, total, reply.slowness)),
            (Kind::Find(_), true) => {
                lp.traced_ns.push(total);
                a.phases.trace(&mut run.trace);
                searches.extend(a.search);
            }
        }
        if reply.kind != Kind::Upload {
            samples.push(a.sample);
        }
    }
    // The two clients' replies, in the order they completed.
    plain.sort_by_key(|p| p.0);
    for (_, ns, slowness) in plain {
        lp.plain.push(ns, slowness);
    }
    run.env("upload_p50_ms", Value::Num(ms(median(&uploads))));
    run.env("uploads", Value::int(uploads.len() as u64));

    if !run.traced {
        record_end_to_end(run, &setups, &lp, median(&peaks));
        return Ok(());
    }
    run.metric("bench.trace_overhead_pct", lp.overhead_pct());
    daemon::record_serve(run, &samples, errors);
    // Engine overhead and the thread ratio come from the in-process
    // reference engine, over one find of every served cell.
    let mut overhead = Vec::new();
    for cell in SERVED_CELLS {
        let (resp, wall) = clocked(|| find_ref(cell, THREADS, true));
        overhead.push(wall - resp?.wall_ns as f64);
    }
    let t2_over_t1 = layers::threads_ratio(cfg.size(3, 1), |t| {
        clocked(|| SERVED_CELLS.map(|c| find_ref(c, t, false).map(|r| r.outcome.count()))).1
    });
    run.metric("core.threads2_over_threads1", t2_over_t1);
    drop(reference);
    record_layers(
        cfg, run, &ref_setup, &circuit, &searches, &overhead, THREADS,
    )
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use crate::WORKLOADS;

    /// The `subg` binary the daemon workloads need: `$SUBG_BIN`, else
    /// the first `release/subg` or `debug/subg` under an ancestor of
    /// this test executable or of the repository root.
    fn subg() -> std::path::PathBuf {
        if let Some(p) = std::env::var_os("SUBG_BIN") {
            return p.into();
        }
        let exe = std::env::current_exe().expect("test executable path");
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../target");
        let found = exe
            .ancestors()
            .chain([root.as_path()])
            .flat_map(|dir| [dir.join("release/subg"), dir.join("debug/subg")])
            .find(|p| p.is_file());
        found.expect("build the daemon first: cargo build --release -p subgemini-cli")
    }

    pub fn tiny(traced: bool, tag: &str) -> Config {
        let exe = std::env::current_exe().expect("test executable path");
        Config {
            seed: 17,
            seconds: Duration::ZERO,
            tiny: true,
            subg: subg(),
            work_dir: exe.with_file_name(format!("subg_bench-test-{tag}")),
            traced,
        }
    }

    fn run_tiny(name: &str, traced: bool) -> Run {
        let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
        let cfg = tiny(traced, &format!("{name}-{traced}"));
        let mut run = Run::new(w.name, traced);
        (w.run)(&cfg, &mut run).unwrap_or_else(|e| panic!("{name}: {e}"));
        run
    }

    #[test]
    fn in_process_workloads_pass_their_checks_at_tiny_scale() {
        for name in ["chip_find", "library_survey", "hierarchize"] {
            let run = run_tiny(name, false);
            assert!(run.correct(), "{name} failed a check");
            let line = run.result_line(END_TO_END).unwrap();
            let doc = json::parse(&line).unwrap();
            for def in END_TO_END {
                let v = doc.get("metrics").and_then(|m| m.get(def.name)).unwrap();
                let value = v.get("value").and_then(Value::as_f64).unwrap();
                assert!(value > 0.0, "{name}: {} is {value}", def.name);
            }
            let env = json::parse(&run.env_line()).unwrap();
            let env = env.get("subg_bench").unwrap();
            let restarted = env.get("peak_rss_restarted_at_mb").and_then(Value::as_f64);
            assert!(
                restarted.is_some_and(|mb| mb > 0.0),
                "{name}: the peak resident set was not restarted after generation"
            );
            let setups = env
                .get("samples")
                .and_then(|s| s.get("setup"))
                .and_then(Value::as_u64);
            assert!(setups.is_some_and(|n| n >= 3), "{name}: {setups:?} setups");
        }
    }

    #[test]
    fn restarting_the_peak_forgets_freed_memory() {
        let before = {
            let big = vec![1u8; 128 << 20];
            std::hint::black_box(&big);
            own_peak_rss_mb().unwrap()
        };
        let restarted = restart_peak_rss().unwrap();
        assert!(
            restarted + 64.0 < before,
            "peak {before} MB, restarted at {restarted} MB"
        );
    }

    #[test]
    fn the_window_spreads_setups_over_its_slices() {
        struct Probe;
        impl Instance for Probe {
            fn retire(self) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = tiny(false, "window");
        let mut run = Run::new("chip_find", false);
        let plan = Plan {
            slices: 3,
            setups_per_slice: 2,
        };
        let log = std::cell::RefCell::new(Vec::new());
        let (_, setups) = run_window(
            &cfg,
            &plan,
            &mut run,
            |_| {
                log.borrow_mut().push("setup".to_string());
                Ok((Probe, 1e6))
            },
            |_, _, i, _| {
                log.borrow_mut().push(format!("slice {i}"));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(setups.len(), 5, "every bring-up is one setup sample");
        assert_eq!(
            log.into_inner(),
            ["setup", "slice 0", "setup", "setup", "slice 1", "setup", "setup", "slice 2"]
        );
    }

    #[test]
    fn serve_mixed_passes_its_checks_at_tiny_scale() {
        let run = run_tiny("serve_mixed", false);
        assert!(run.correct());
        run.result_line(END_TO_END).unwrap();
    }

    #[test]
    fn traced_runs_emit_every_layer_metric_and_a_nested_trace() {
        for w in WORKLOADS {
            let run = run_tiny(w.name, true);
            assert!(run.correct(), "{} failed a check", w.name);
            let line = run.result_line(PER_LAYER).unwrap_or_else(|e| panic!("{e}"));
            let ratio = json::parse(&line)
                .unwrap()
                .get("metrics")
                .and_then(|m| m.get("core.linearity_ratio"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap();
            assert!(ratio <= 2.0, "{}: linearity ratio {ratio}", w.name);
            let dir = tiny(true, &format!("trace-{}", w.name)).work_dir;
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("trace.json");
            crate::write_trace(&run, &path).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(crate::trace::tests::check_chrome_trace(&text) > 0);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
