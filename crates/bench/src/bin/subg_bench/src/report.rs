//! The metric catalog and the record one workload run fills in: metric
//! values, the environment that makes them attributable, and the
//! attempted/failed operation counts.

use subgemini::metrics::json::Value;

use crate::speed::Speed;
use crate::trace::Trace;

/// A metric name and its unit.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the engine or the daemon sees; printed by untraced
/// runs. Every workload emits every one of them. The two times are
/// scaled to the host at nominal speed (`speed.rs`); the unscaled
/// figures, the p99 and the throughput are in the environment record.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("latency_p50_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// One layer each, named `<layer>.<quantity>`; printed by traced runs.
/// Every workload measures every layer on its own inputs (README.md
/// says which end-to-end metric each should move).
pub const PER_LAYER: &[Metric] = &[
    m("spice.parse_ms", "ms"),
    m("spice.elaborate_ms", "ms"),
    m("spice.write_ms", "ms"),
    m("spice.deck_mb", "MB"),
    m("netlist.compile_ms", "ms"),
    m("netlist.index_ms", "ms"),
    m("netlist.digest_ms", "ms"),
    m("netlist.encode_ms", "ms"),
    m("netlist.artifact_mb", "MB"),
    m("engine.register_ms", "ms"),
    m("engine.overhead_ms", "ms"),
    m("matcher.prepare_ms", "ms"),
    m("matcher.compile_ms", "ms"),
    m("phase1.refine_ms", "ms"),
    m("phase1.select_ms", "ms"),
    m("phase1.iterations", "count"),
    m("phase1.cv_size", "count"),
    m("prune.pruned_ratio", "ratio"),
    m("phase2.wall_ms", "ms"),
    m("phase2.busy_ms", "ms"),
    m("phase2.max_candidate_ms", "ms"),
    m("phase2.utilization", "ratio"),
    m("phase2.match_ratio", "ratio"),
    m("phase2.backtracks", "count"),
    m("phase2.guesses", "count"),
    m("scheduler.merge_stalls", "count"),
    m("scheduler.recomputed", "count"),
    m("scheduler.steals", "count"),
    m("hier.rounds", "count"),
    m("hier.sweeps", "count"),
    m("hier.round_p50_ms", "ms"),
    m("extract.match_ms", "ms"),
    m("extract.replace_ms", "ms"),
    m("serve.connect_ms", "ms"),
    m("serve.ttfb_ms", "ms"),
    m("serve.engine_ms", "ms"),
    m("serve.server_other_ms", "ms"),
    m("serve.transfer_ms", "ms"),
    m("serve.response_kb", "KB"),
    m("serve.http_errors", "count"),
    m("core.ns_per_device_1e5", "ns"),
    m("core.ns_per_device_1e6", "ns"),
    m("core.linearity_ratio", "ratio"),
    m("core.threads2_over_threads1", "ratio"),
    m("bench.trace_overhead_pct", "%"),
];

/// Failed checks printed per run before the rest are only counted.
const MAX_PRINTED_FAILURES: u64 = 10;

/// Everything one workload run reports.
pub struct Run {
    pub workload: &'static str,
    pub traced: bool,
    pub trace: Trace,
    /// Reads the host's speed between timed operations.
    pub speed: Speed,
    metrics: Vec<(&'static str, f64)>,
    env: Vec<(String, Value)>,
    attempted: u64,
    failed: u64,
}

impl Run {
    pub fn new(workload: &'static str, traced: bool) -> Run {
        Run {
            workload,
            traced,
            trace: Trace::new(traced),
            speed: Speed::default(),
            metrics: Vec::new(),
            env: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric value. Values must be finite: a NaN here is a
    /// division this program failed to guard.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Adds a fact to the environment record.
    pub fn env(&mut self, key: &str, value: Value) {
        self.env.push((key.to_string(), value));
    }

    /// Counts one operation, failed unless `ok`. A failure is printed
    /// to stderr under `name` with `detail`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= MAX_PRINTED_FAILURES {
                eprintln!(
                    "subg_bench: check failed: {}.{name}: {}",
                    self.workload,
                    detail()
                );
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The environment record, one JSON line.
    pub fn env_line(&self) -> String {
        let mut fields = vec![
            ("workload".to_string(), Value::Str(self.workload.into())),
            ("traced".to_string(), Value::Bool(self.traced)),
        ];
        fields.extend(self.env.iter().cloned());
        Value::Obj(vec![("subg_bench".into(), Value::Obj(fields))]).compact()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `catalog`, each with its unit.
    ///
    /// # Errors
    ///
    /// Names a catalog metric the run did not record.
    pub fn result_line(&self, catalog: &[Metric]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalog.len());
        for def in catalog {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| {
                    format!("{}: metric {} was not measured", self.workload, def.name)
                })?;
            metrics.push((
                def.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(def.unit.into())),
                ]),
            ));
        }
        Ok(Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::int(self.attempted)),
            ("failed".into(), Value::int(self.failed)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .compact())
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini::metrics::json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_unique_and_has_a_unit() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for def in &all {
            assert!(valid_name(def.name), "bad metric name {}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {} of {}",
                def.unit,
                def.name
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(crate::WORKLOADS.iter().all(|w| valid_name(w.name)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(json::Value::as_arr).expect(key);
            let pairs: Vec<(&str, &str)> = listed
                .iter()
                .map(|e| {
                    let field = |k| e.get(k).and_then(json::Value::as_str).expect(k);
                    (field("name"), field("unit"))
                })
                .collect();
            let want: Vec<(&str, &str)> = catalog.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(pairs, want, "{key} in BENCHMARK.json");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        // The regression bounds: 25% on time, the widest a bound may
        // be, because scaled medians of identical runs
        // still spread by up to 0.14 and a bound should be three times
        // the spread (README.md, Baseline); 6% on memory, whose spread
        // follows the seed's design.
        let bounds: Vec<(&str, f64)> = doc
            .get("end_to_end")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(json::Value::as_str).unwrap();
                (name, e.get("bound").and_then(json::Value::as_f64).unwrap())
            })
            .collect();
        assert_eq!(
            bounds,
            [
                ("setup_s", 0.25),
                ("latency_p50_ms", 0.25),
                ("peak_rss_mb", 0.06)
            ]
        );
    }

    #[test]
    fn result_line_needs_every_catalog_metric() {
        let mut run = Run::new("chip_find", false);
        run.check("smoke", true, String::new);
        for def in END_TO_END.iter().skip(1) {
            run.metric(def.name, 1.5);
        }
        let err = run.result_line(END_TO_END).unwrap_err();
        assert!(err.contains("setup_s"), "{err}");
        run.metric("setup_s", 0.25);
        let line = run.result_line(END_TO_END).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(json::Value::as_u64), Some(1));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(json::Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut run = Run::new("chip_find", false);
        run.check("a", true, String::new);
        run.check("b", false, || "expected 1, got 2".into());
        assert!(!run.correct());
    }
}
