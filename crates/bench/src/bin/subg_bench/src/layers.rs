//! Per-layer figures of the matching core, read from its existing
//! `MetricsReport` and counters, plus the layer passes every traced run
//! makes over its own circuit: hierarchy reconstruction, one extraction
//! pass, and the cross-cutting core diagnostics.

use std::time::Instant;

use subgemini::hier::Hierarchizer;
use subgemini::metrics::json::Value;
use subgemini::{Extractor, MatchOptions, MatchOutcome};
use subgemini_engine::{CircuitSource, Engine, FindRequest, PatternSource, RequestOptions};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

use crate::decks::Deck;
use crate::report::{ms, ratio, Run};
use crate::stats::median;
use crate::Config;

/// One search's (or one operation's summed searches') layer figures:
/// times in nanoseconds, the rest counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Search {
    total: f64,
    compile: f64,
    refine: f64,
    select: f64,
    p2_wall: f64,
    p2_busy: f64,
    p2_max: f64,
    /// `threads_used × phase2_wall`: the denominator of utilization.
    p2_capacity: f64,
    checked: f64,
    matched: f64,
    pruned: f64,
    cv_size: f64,
    iterations: f64,
    backtracks: f64,
    guesses: f64,
    merge_stalls: f64,
    recomputed: f64,
    steals: f64,
}

impl Search {
    /// From an outcome that collected metrics.
    pub fn from_outcome(o: &MatchOutcome) -> Option<Search> {
        let m = o.metrics.as_ref()?;
        let c = |name| m.counters.get(name) as f64;
        Some(Search {
            total: m.total_ns as f64,
            compile: m.compile_ns as f64,
            refine: m.phase1_refine_ns as f64,
            select: m.phase1_select_ns as f64,
            p2_wall: m.phase2_wall_ns as f64,
            p2_busy: m.phase2_verify_ns as f64,
            p2_max: m.phase2_max_candidate_ns as f64,
            p2_capacity: (m.threads_used as u64 * m.phase2_wall_ns) as f64,
            checked: c("candidates.checked"),
            matched: c("candidates.matched"),
            pruned: c("index.pruned_candidates"),
            cv_size: o.phase1.cv_size as f64,
            iterations: o.phase1.iterations as f64,
            backtracks: o.phase2.backtracks as f64,
            guesses: o.phase2.guesses as f64,
            merge_stalls: c("scheduler.merge_stalls"),
            recomputed: c("scheduler.recomputed"),
            steals: c("scheduler.steals"),
        })
    }

    /// From the daemon's JSON form of the same outcome (the v1 report
    /// schema), when it carries metrics.
    pub fn from_report(report: &Value) -> Option<Search> {
        let m = report.get("metrics").filter(|m| **m != Value::Null)?;
        let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
        let mf = |k| num(m.get(k));
        let c = |k| num(m.get("counters").and_then(|c| c.get(k)));
        let p1 = |k| num(report.get("phase1").and_then(|p| p.get(k)));
        let p2 = |k| num(report.get("phase2").and_then(|p| p.get(k)));
        Some(Search {
            total: mf("total_ns"),
            compile: mf("compile_ns"),
            refine: mf("phase1_refine_ns"),
            select: mf("phase1_select_ns"),
            p2_wall: mf("phase2_wall_ns"),
            p2_busy: mf("phase2_verify_ns"),
            p2_max: mf("phase2_max_candidate_ns"),
            p2_capacity: mf("threads_used") * mf("phase2_wall_ns"),
            checked: c("candidates.checked"),
            matched: c("candidates.matched"),
            pruned: c("index.pruned_candidates"),
            cv_size: p1("cv_size"),
            iterations: p1("iterations"),
            backtracks: p2("backtracks"),
            guesses: p2("guesses"),
            merge_stalls: c("scheduler.merge_stalls"),
            recomputed: c("scheduler.recomputed"),
            steals: c("scheduler.steals"),
        })
    }

    /// Folds another search of the same operation in: sums, except the
    /// longest candidate, which is a maximum.
    pub fn add(&mut self, o: &Search) {
        self.total += o.total;
        self.compile += o.compile;
        self.refine += o.refine;
        self.select += o.select;
        self.p2_wall += o.p2_wall;
        self.p2_busy += o.p2_busy;
        self.p2_max = self.p2_max.max(o.p2_max);
        self.p2_capacity += o.p2_capacity;
        self.checked += o.checked;
        self.matched += o.matched;
        self.pruned += o.pruned;
        self.cv_size += o.cv_size;
        self.iterations += o.iterations;
        self.backtracks += o.backtracks;
        self.guesses += o.guesses;
        self.merge_stalls += o.merge_stalls;
        self.recomputed += o.recomputed;
        self.steals += o.steals;
    }

    /// The sum of every search of one operation.
    pub fn total_of(searches: impl IntoIterator<Item = Search>) -> Search {
        let mut sum = Search::default();
        for s in searches {
            sum.add(&s);
        }
        sum
    }
}

/// Records the matcher, Phase I, prune, Phase II and scheduler metrics
/// as medians over operations.
pub fn record_searches(run: &mut Run, ops: &[Search]) {
    let med = |f: &dyn Fn(&Search) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
    let prepare = med(&|s| (s.total - s.compile - s.refine - s.select - s.p2_wall).max(0.0));
    run.metric("matcher.prepare_ms", ms(prepare));
    run.metric("matcher.compile_ms", ms(med(&|s| s.compile)));
    run.metric("phase1.refine_ms", ms(med(&|s| s.refine)));
    run.metric("phase1.select_ms", ms(med(&|s| s.select)));
    run.metric("phase1.iterations", med(&|s| s.iterations));
    run.metric("phase1.cv_size", med(&|s| s.cv_size));
    run.metric("prune.pruned_ratio", med(&|s| ratio(s.pruned, s.cv_size)));
    run.metric("phase2.wall_ms", ms(med(&|s| s.p2_wall)));
    run.metric("phase2.busy_ms", ms(med(&|s| s.p2_busy)));
    run.metric("phase2.max_candidate_ms", ms(med(&|s| s.p2_max)));
    run.metric(
        "phase2.utilization",
        med(&|s| ratio(s.p2_busy, s.p2_capacity).min(1.0)),
    );
    run.metric("phase2.match_ratio", med(&|s| ratio(s.matched, s.checked)));
    run.metric("phase2.backtracks", med(&|s| s.backtracks));
    run.metric("phase2.guesses", med(&|s| s.guesses));
    run.metric("scheduler.merge_stalls", med(&|s| s.merge_stalls));
    run.metric("scheduler.recomputed", med(&|s| s.recomputed));
    run.metric("scheduler.steals", med(&|s| s.steals));
}

/// Match options as the engine lowers them for a request at `threads`.
fn lowered(main: &Netlist, threads: usize) -> Result<MatchOptions, String> {
    RequestOptions {
        threads,
        ..RequestOptions::default()
    }
    .lower(main, None)
    .map_err(|e| e.to_string())
}

/// Hierarchy reconstruction of `main` over `library`
/// (`hier::Hierarchizer::run_observed`, one span per round), the
/// rendering of the recovered deck, and one level-1
/// `Extractor::extract` pass with metrics on. Records the `hier.*`,
/// `extract.*` and `spice.write_ms` metrics.
pub fn hier_and_extract(
    run: &mut Run,
    main: &Netlist,
    library: &[Netlist],
    threads: usize,
) -> Result<(), String> {
    let opts = lowered(main, threads)?;
    let mut hierarchizer = Hierarchizer::new(library).map_err(|e| e.to_string())?;
    hierarchizer.set_options(opts.clone());
    let trace = &mut run.trace;
    let root = trace.begin("hier.run");
    let mut round_ns = Vec::new();
    let mut round_start = Instant::now();
    let outcome = hierarchizer
        .run_observed(main, |_| {
            let now = Instant::now();
            trace.add("hier.round", round_start, now);
            round_ns.push(now.duration_since(round_start).as_nanos() as f64);
            round_start = now;
        })
        .map_err(|e| e.to_string())?;
    trace.end(root);
    let (_deck, write_ns) = run.trace.timed("spice.write", || {
        subgemini_spice::write_hierarchical(&outcome.top, &outcome.used_cells())
    });
    run.metric("hier.rounds", round_ns.len() as f64);
    run.metric("hier.sweeps", outcome.report.sweeps as f64);
    run.metric("hier.round_p50_ms", ms(median(&round_ns)));
    run.metric("spice.write_ms", ms(write_ns as f64));
    drop(outcome);

    let mut extractor = Extractor::new();
    for cell in &hierarchizer.levels()[0] {
        extractor.add_cell(cell.clone());
    }
    extractor.set_options(MatchOptions {
        collect_metrics: true,
        ..opts
    });
    let (pass, _) = run.trace.timed("extract.pass", || extractor.extract(main));
    let (_, report) = pass.map_err(|e| e.to_string())?;
    let cells = report.metrics.map(|m| m.cells).unwrap_or_default();
    let sum = |f: &dyn Fn(&subgemini::metrics::ExtractCellMetrics) -> u64| {
        cells.iter().map(f).sum::<u64>() as f64
    };
    run.metric("extract.match_ms", ms(sum(&|c| c.match_ns)));
    run.metric("extract.replace_ms", ms(sum(&|c| c.replace_ns)));
    Ok(())
}

/// Median wall time of `op` at threads 2 over its median at threads 1,
/// interleaved, after one warm-up of each. `op` takes the thread count
/// and returns its wall time.
pub fn threads_ratio(reps: usize, mut op: impl FnMut(usize) -> f64) -> f64 {
    op(2);
    op(1);
    let (mut t2, mut t1) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        t2.push(op(2));
        t1.push(op(1));
    }
    ratio(median(&t2), median(&t1))
}

/// The paper's linearity claim as an asserted invariant: `full_adder`
/// find time per main-circuit device on a 10^5 and a 10^6 tiled chip
/// (10^3 and 10^4 at test scale), threads 2, and their ratio.
pub fn core_diagnostics(cfg: &Config, run: &mut Run) -> Result<(), String> {
    let pattern = Deck::library("lib", &[cells::full_adder()]).cells(false)?;
    let mut ns_per_device = Vec::new();
    for (name, devices) in [
        ("core.ns_per_device_1e5", cfg.size(100_000, 1_000)),
        ("core.ns_per_device_1e6", cfg.size(1_000_000, 10_000)),
    ] {
        let g = gen::tiled_chip(cfg.seed, devices);
        let planted = g.planted_count("full_adder");
        let deck = Deck::circuit("chip", &g.netlist);
        drop(g);
        let engine = Engine::new();
        let info = engine.register_circuit("chip", deck.elaborate()?);
        drop(deck);
        let mut walls = Vec::new();
        for rep in 0..=cfg.size(3, 1) {
            let span = run.trace.begin("core.find");
            let t0 = Instant::now();
            let found = engine
                .find(&FindRequest {
                    circuit: CircuitSource::Registered("chip"),
                    pattern: PatternSource::Inline(&pattern[0]),
                    options: RequestOptions {
                        threads: 2,
                        ..RequestOptions::default()
                    },
                })
                .map_err(|e| e.to_string())?
                .outcome
                .count();
            let wall = t0.elapsed().as_nanos() as f64;
            run.trace.end(span);
            run.check("core_find", found == planted, || {
                format!("{name}: found {found}, planted {planted}")
            });
            if rep > 0 {
                walls.push(wall);
            }
        }
        let per_device = median(&walls) / info.devices as f64;
        run.metric(name, per_device);
        ns_per_device.push(per_device);
    }
    let linearity = ratio(ns_per_device[1], ns_per_device[0]);
    run.metric("core.linearity_ratio", linearity);
    run.check("linearity", linearity <= 2.0, || {
        format!("ns per device grew {linearity:.2}x from the small chip to the large one")
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_and_outcome_give_the_same_figures() {
        let g = gen::tiled_chip(3, 1_000);
        let outcome = subgemini::find_all(
            &cells::nand2(),
            &g.netlist,
            &MatchOptions {
                collect_metrics: true,
                threads: 2,
                ..MatchOptions::default()
            },
        );
        let direct = Search::from_outcome(&outcome).expect("metrics collected");
        let json = subgemini::metrics::outcome_to_json(&outcome);
        let parsed = Search::from_report(&json).expect("metrics in the report");
        assert_eq!(format!("{direct:?}"), format!("{parsed:?}"));
        assert!(direct.checked > 0.0 && direct.matched > 0.0);
        let mut twice = direct;
        twice.add(&direct);
        assert_eq!(twice.checked, 2.0 * direct.checked);
        assert_eq!(twice.p2_max, direct.p2_max);
    }

    #[test]
    fn threads_ratio_is_median_over_median() {
        let r = threads_ratio(3, |t| if t == 2 { 30.0 } else { 20.0 });
        assert_eq!(r, 1.5);
    }
}
