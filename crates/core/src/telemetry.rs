//! Cross-request telemetry: durable, mergeable rollups of per-search
//! statistics.
//!
//! Every search produces a rich [`MetricsReport`](crate::MetricsReport)
//! and event journal — but both die with the response. This module is
//! the aggregation layer the session engine folds each *completed*
//! request into, so a long-lived daemon can answer "what are p99 find
//! latencies on circuit X?" without re-running anything:
//!
//! * [`RequestSample`] — the distilled per-request numbers (wall time,
//!   deterministic effort, backtracks, truncation reason, prune and
//!   reject tallies), extracted from a [`MatchOutcome`] once the
//!   CV-ordered serial merge has produced it.
//! * [`Rollup`] — a mergeable accumulation of samples: request counts,
//!   log2-bucket latency/effort/backtrack [`Histogram`]s (p50/p95/p99),
//!   truncation- and reject-reason tallies, prune ratios.
//! * [`Telemetry`] — the shared registry of rollups keyed by endpoint
//!   and by registered-circuit name, snapshotted for `/metrics`. Every
//!   fold lands in exactly one endpoint rollup, so the snapshot's
//!   request total is the endpoints' sum.
//! * [`prometheus`] — text-format v0.0.4 exposition over snapshots.
//!
//! The sharing contract (DESIGN.md §3h): folding happens exactly once
//! per request, *after* the deterministic serial merge has finished the
//! outcome, on the request's own thread. Aggregation therefore never
//! races the search and can never perturb it — telemetry on/off leaves
//! instances, journals, and truncation points byte-identical. Rollup
//! maps use `BTreeMap`, so snapshots are ordered by key and equal
//! regardless of the order concurrent requests completed in.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::budget::Completeness;
use crate::instance::MatchOutcome;
use crate::metrics::{json, Histogram};

/// The distilled telemetry numbers of one completed request, extracted
/// from its outcome(s) after the serial merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestSample {
    /// End-to-end wall time of the search call, in nanoseconds.
    pub wall_ns: u64,
    /// Deterministic effort: Phase I iterations + Phase II candidates
    /// tried + passes + guesses + backtracks. Always derivable from the
    /// stats block, so it is available even on ungoverned runs where
    /// `effort_spent` stays 0.
    pub effort: u64,
    /// Total Phase II backtracks.
    pub backtracks: u64,
    /// Truncation reason name when the request stopped early (the first
    /// one, for multi-outcome surveys).
    pub truncation: Option<String>,
    /// Candidates pruned by the fingerprint index.
    pub pruned_candidates: u64,
    /// Candidates admitted past the fingerprint index.
    pub admitted_candidates: u64,
    /// Per-reason Phase II reject tallies (`reject.*` counter names
    /// with the prefix stripped), sorted by reason.
    pub rejects: Vec<(String, u64)>,
}

impl RequestSample {
    /// Distills a single-outcome request (find/explain).
    pub fn from_outcome(outcome: &MatchOutcome, wall_ns: u64) -> Self {
        Self::from_outcomes(std::iter::once(outcome), wall_ns)
    }

    /// Distills a multi-outcome request (survey): stats are summed over
    /// the rows, the wall time covers the whole sweep.
    pub fn from_outcomes<'a>(
        outcomes: impl IntoIterator<Item = &'a MatchOutcome>,
        wall_ns: u64,
    ) -> Self {
        let mut sample = RequestSample {
            wall_ns,
            ..RequestSample::default()
        };
        for outcome in outcomes {
            sample.absorb(outcome);
        }
        sample.rejects.sort();
        sample
    }

    fn absorb(&mut self, outcome: &MatchOutcome) {
        let p1 = &outcome.phase1;
        let p2 = &outcome.phase2;
        self.effort +=
            (p1.iterations + p2.candidates_tried + p2.passes + p2.guesses + p2.backtracks) as u64;
        self.backtracks += p2.backtracks as u64;
        if let Completeness::Truncated { reason, .. } = &outcome.completeness {
            if self.truncation.is_none() {
                self.truncation = Some(reason.as_str().to_string());
            }
        }
        if let Some(m) = &outcome.metrics {
            self.pruned_candidates += m.counters.get("index.pruned_candidates");
            self.admitted_candidates += m.counters.get("index.admitted_candidates");
            for (name, v) in m.counters.iter() {
                if let Some(reason) = name.strip_prefix("reject.") {
                    match self.rejects.iter_mut().find(|(n, _)| n == reason) {
                        Some(slot) => slot.1 += v,
                        None => self.rejects.push((reason.to_string(), v)),
                    }
                }
            }
        }
    }
}

/// A mergeable accumulation of [`RequestSample`]s: one per endpoint
/// and one per registered circuit inside a [`Telemetry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Requests folded in.
    pub requests: u64,
    /// How many of them were truncated.
    pub truncated: u64,
    /// Wall-time distribution (ns).
    pub wall_ns: Histogram,
    /// Deterministic-effort distribution.
    pub effort: Histogram,
    /// Backtrack-count distribution.
    pub backtracks: Histogram,
    /// Total candidates pruned by the fingerprint index.
    pub pruned_candidates: u64,
    /// Total candidates admitted past the index.
    pub admitted_candidates: u64,
    /// Truncation tallies by reason name.
    pub truncation_reasons: BTreeMap<String, u64>,
    /// Phase II reject tallies by reason name.
    pub reject_reasons: BTreeMap<String, u64>,
}

impl Rollup {
    /// Folds one request in.
    pub fn fold(&mut self, sample: &RequestSample) {
        self.requests += 1;
        self.wall_ns.record(sample.wall_ns);
        self.effort.record(sample.effort);
        self.backtracks.record(sample.backtracks);
        self.pruned_candidates += sample.pruned_candidates;
        self.admitted_candidates += sample.admitted_candidates;
        if let Some(reason) = &sample.truncation {
            self.truncated += 1;
            *self.truncation_reasons.entry(reason.clone()).or_insert(0) += 1;
        }
        for (reason, v) in &sample.rejects {
            *self.reject_reasons.entry(reason.clone()).or_insert(0) += v;
        }
    }

    /// Merges another rollup in (bucket-wise histogram sums, tally
    /// sums). `a.merge(&b)` equals folding b's samples into a — the
    /// property the seeded merge tests pin.
    pub fn merge(&mut self, other: &Rollup) {
        self.requests += other.requests;
        self.truncated += other.truncated;
        self.wall_ns.merge(&other.wall_ns);
        self.effort.merge(&other.effort);
        self.backtracks.merge(&other.backtracks);
        self.pruned_candidates += other.pruned_candidates;
        self.admitted_candidates += other.admitted_candidates;
        for (reason, v) in &other.truncation_reasons {
            *self.truncation_reasons.entry(reason.clone()).or_insert(0) += v;
        }
        for (reason, v) in &other.reject_reasons {
            *self.reject_reasons.entry(reason.clone()).or_insert(0) += v;
        }
    }

    /// Fraction of index-checked candidates that were pruned (0 when
    /// the index never ran).
    pub fn prune_ratio(&self) -> f64 {
        let total = self.pruned_candidates + self.admitted_candidates;
        if total == 0 {
            0.0
        } else {
            self.pruned_candidates as f64 / total as f64
        }
    }

    /// The rollup as a JSON object (stable key order).
    pub fn to_json(&self) -> json::Value {
        use json::Value;
        let tally_obj = |m: &BTreeMap<String, u64>| {
            Value::Obj(m.iter().map(|(k, v)| (k.clone(), Value::int(*v))).collect())
        };
        Value::Obj(vec![
            ("requests".into(), Value::int(self.requests)),
            ("truncated".into(), Value::int(self.truncated)),
            ("wall_ns".into(), self.wall_ns.to_json()),
            ("effort".into(), self.effort.to_json()),
            ("backtracks".into(), self.backtracks.to_json()),
            (
                "pruned_candidates".into(),
                Value::int(self.pruned_candidates),
            ),
            (
                "admitted_candidates".into(),
                Value::int(self.admitted_candidates),
            ),
            ("prune_ratio".into(), Value::Num(self.prune_ratio())),
            (
                "truncation_reasons".into(),
                tally_obj(&self.truncation_reasons),
            ),
            ("reject_reasons".into(), tally_obj(&self.reject_reasons)),
        ])
    }
}

#[derive(Default)]
struct Rollups {
    endpoints: BTreeMap<String, Rollup>,
    circuits: BTreeMap<String, Rollup>,
}

/// The shared cross-request aggregation registry. Cheap when disabled
/// (one atomic load per request); when enabled, each completed request
/// costs one short mutex-guarded fold.
pub struct Telemetry {
    enabled: AtomicBool,
    rollups: Mutex<Rollups>,
}

impl Telemetry {
    /// A fresh registry.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            rollups: Mutex::new(Rollups::default()),
        }
    }

    /// Whether folds are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (existing rollups are kept).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Folds one completed request into the `endpoint` rollup and, when
    /// the request ran against a registered circuit, that circuit's
    /// rollup. No-op while disabled.
    pub fn fold(&self, endpoint: &str, circuit: Option<&str>, sample: &RequestSample) {
        if !self.enabled() {
            return;
        }
        let mut rollups = self.rollups.lock().expect("telemetry rollups poisoned");
        rollups
            .endpoints
            .entry(endpoint.to_string())
            .or_default()
            .fold(sample);
        if let Some(name) = circuit {
            rollups
                .circuits
                .entry(name.to_string())
                .or_default()
                .fold(sample);
        }
    }

    /// A point-in-time copy of every rollup.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let rollups = self.rollups.lock().expect("telemetry rollups poisoned");
        TelemetrySnapshot {
            requests: rollups.endpoints.values().map(|r| r.requests).sum(),
            endpoints: rollups
                .endpoints
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            circuits: rollups
                .circuits
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(true)
    }
}

/// A point-in-time copy of a [`Telemetry`] registry, sorted by key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Total requests folded since startup: the sum of the endpoint
    /// rollups' `requests`, since every fold lands in exactly one.
    pub requests: u64,
    /// Per-endpoint rollups, sorted by endpoint name.
    pub endpoints: Vec<(String, Rollup)>,
    /// Per-registered-circuit rollups, sorted by circuit name.
    pub circuits: Vec<(String, Rollup)>,
}

impl TelemetrySnapshot {
    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> json::Value {
        use json::Value;
        let section = |rollups: &[(String, Rollup)]| {
            Value::Obj(
                rollups
                    .iter()
                    .map(|(name, r)| (name.clone(), r.to_json()))
                    .collect(),
            )
        };
        Value::Obj(vec![
            ("requests".into(), Value::int(self.requests)),
            ("endpoints".into(), section(&self.endpoints)),
            ("circuits".into(), section(&self.circuits)),
        ])
    }

    /// The named endpoint's rollup, if any request hit it.
    pub fn endpoint(&self, name: &str) -> Option<&Rollup> {
        self.endpoints
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
    }

    /// The named circuit's rollup, if any request ran against it.
    pub fn circuit(&self, name: &str) -> Option<&Rollup> {
        self.circuits
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
    }
}

/// Prometheus text-format v0.0.4 exposition.
///
/// [`TextWriter`](prometheus::TextWriter) guarantees the format
/// invariants scrapers rely on:
/// one `# HELP`/`# TYPE` pair per metric family no matter how many
/// labeled samples it gets, escaped label values, and the
/// `_bucket`/`_sum`/`_count` triplet (with a final `+Inf` bucket whose
/// value equals `_count`) for every histogram.
pub mod prometheus {
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    use crate::metrics::Histogram;

    /// Escapes a label value per the exposition format: backslash,
    /// double quote, and newline.
    pub fn escape_label_value(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }

    /// An append-only text-format builder that declares each metric
    /// family exactly once.
    #[derive(Default)]
    pub struct TextWriter {
        out: String,
        declared: BTreeSet<String>,
    }

    impl TextWriter {
        /// An empty exposition.
        pub fn new() -> Self {
            Self::default()
        }

        fn declare(&mut self, name: &str, kind: &str, help: &str) {
            if self.declared.insert(name.to_string()) {
                let _ = writeln!(self.out, "# HELP {name} {help}");
                let _ = writeln!(self.out, "# TYPE {name} {kind}");
            }
        }

        fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
            self.out.push_str(name);
            self.write_labels(labels, None);
            let _ = writeln!(self.out, " {value}");
        }

        fn write_labels(&mut self, labels: &[(&str, &str)], extra: Option<(&str, &str)>) {
            if labels.is_empty() && extra.is_none() {
                return;
            }
            self.out.push('{');
            let mut first = true;
            for (k, v) in labels.iter().copied().chain(extra) {
                if !first {
                    self.out.push(',');
                }
                first = false;
                let _ = write!(self.out, "{k}=\"{}\"", escape_label_value(v));
            }
            self.out.push('}');
        }

        /// Emits one counter sample, declaring the family on first use.
        pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
            self.declare(name, "counter", help);
            self.sample(name, labels, value);
        }

        /// Emits one gauge sample, declaring the family on first use.
        pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
            self.declare(name, "gauge", help);
            self.sample(name, labels, value);
        }

        /// Emits a full histogram family: cumulative `_bucket` samples
        /// with `le` upper bounds (ending in `+Inf`), then `_sum` and
        /// `_count`.
        pub fn histogram(
            &mut self,
            name: &str,
            help: &str,
            labels: &[(&str, &str)],
            h: &Histogram,
        ) {
            self.declare(name, "histogram", help);
            let bucket = format!("{name}_bucket");
            let mut cumulative = 0u64;
            for (le, count) in h.bucket_counts() {
                cumulative += count;
                let le = le.to_string();
                self.out.push_str(&bucket);
                self.write_labels(labels, Some(("le", &le)));
                let _ = writeln!(self.out, " {cumulative}");
            }
            self.out.push_str(&bucket);
            self.write_labels(labels, Some(("le", "+Inf")));
            let _ = writeln!(self.out, " {}", h.count());
            self.sample(&format!("{name}_sum"), labels, h.sum());
            self.sample(&format!("{name}_count"), labels, h.count());
        }

        /// The finished exposition body.
        pub fn finish(self) -> String {
            self.out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prometheus::{escape_label_value, TextWriter};
    use super::*;
    use subgemini_netlist::rng::Rng64;

    fn random_sample(rng: &mut Rng64) -> RequestSample {
        let truncation = match rng.next_u64() % 4 {
            0 => Some("effort_exhausted".to_string()),
            1 => Some("cancelled".to_string()),
            _ => None,
        };
        let mut rejects = vec![
            ("degree".to_string(), rng.next_u64() % 50),
            ("safe_label".to_string(), rng.next_u64() % 50),
        ];
        rejects.retain(|(_, v)| *v > 0);
        RequestSample {
            wall_ns: rng.next_u64() % (1 << 34),
            effort: rng.next_u64() % (1 << 20),
            backtracks: rng.next_u64() % 512,
            truncation,
            pruned_candidates: rng.next_u64() % 1000,
            admitted_candidates: rng.next_u64() % 1000,
            rejects,
        }
    }

    /// Satellite: merged per-request histograms equal a histogram built
    /// from the concatenated samples — 64 seeded cases over random
    /// sample sets and random partitions of them.
    #[test]
    fn merged_rollups_equal_concatenated_fold() {
        let mut rng = Rng64::new(0x0007_e1e6_e72a_11e7_u64);
        for _case in 0..64 {
            let n = 1 + (rng.next_u64() % 40) as usize;
            let samples: Vec<RequestSample> = (0..n).map(|_| random_sample(&mut rng)).collect();

            // One rollup folded over everything.
            let mut whole = Rollup::default();
            for s in &samples {
                whole.fold(s);
            }

            // Random partition into chunks, one rollup each, merged.
            let mut merged = Rollup::default();
            let mut i = 0usize;
            while i < n {
                let take = 1 + (rng.next_u64() as usize % (n - i));
                let mut part = Rollup::default();
                for s in &samples[i..i + take] {
                    part.fold(s);
                }
                merged.merge(&part);
                i += take;
            }

            assert_eq!(whole, merged);
            assert_eq!(whole.wall_ns.p99(), merged.wall_ns.p99());
        }
    }

    /// Satellite: folding the same multiset of samples from 1, 2, or 8
    /// threads yields identical snapshots (BTreeMap keying makes the
    /// result order-independent).
    #[test]
    fn fold_is_thread_count_invariant() {
        let mut rng = Rng64::new(42);
        let samples: Vec<RequestSample> = (0..64).map(|_| random_sample(&mut rng)).collect();
        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 8] {
            let telemetry = std::sync::Arc::new(Telemetry::new(true));
            let chunk = samples.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for part in samples.chunks(chunk) {
                    let telemetry = std::sync::Arc::clone(&telemetry);
                    scope.spawn(move || {
                        for (i, s) in part.iter().enumerate() {
                            let circuit = if i % 2 == 0 { Some("chip") } else { None };
                            telemetry.fold("find", circuit, s);
                        }
                    });
                }
            });
            snapshots.push(telemetry.snapshot());
        }
        // Per-thread interleaving differs, but every deterministic
        // field of the snapshot must agree. (wall_ns histograms are
        // deterministic here too: the samples are fixed inputs.)
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
        assert_eq!(snapshots[0].requests, 64);
        for snapshot in &snapshots {
            let endpoints: u64 = snapshot.endpoints.iter().map(|(_, r)| r.requests).sum();
            assert_eq!(snapshot.requests, endpoints, "requests is the endpoint sum");
        }
        assert!(snapshots[0].endpoint("find").is_some());
        assert!(snapshots[0].circuit("chip").is_some());
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let telemetry = Telemetry::new(false);
        telemetry.fold("find", Some("chip"), &RequestSample::default());
        let snap = telemetry.snapshot();
        assert_eq!(snap.requests, 0);
        assert!(snap.endpoints.is_empty());
        telemetry.set_enabled(true);
        telemetry.fold("find", Some("chip"), &RequestSample::default());
        assert_eq!(telemetry.snapshot().requests, 1);
    }

    #[test]
    fn sample_distills_truncation_and_rejects() {
        use crate::budget::TruncationReason;
        use crate::metrics::MetricsReport;
        let mut metrics = MetricsReport::default();
        metrics.counters.bump("index.pruned_candidates", 7);
        metrics.counters.bump("index.admitted_candidates", 3);
        metrics.counters.bump("reject.degree", 5);
        metrics.counters.bump("unrelated.counter", 9);
        let outcome = MatchOutcome {
            completeness: Completeness::Truncated {
                reason: TruncationReason::EffortExhausted,
                candidates_tried: 1,
                candidates_skipped: 2,
            },
            metrics: Some(metrics),
            ..MatchOutcome::default()
        };
        let sample = RequestSample::from_outcome(&outcome, 1234);
        assert_eq!(sample.wall_ns, 1234);
        assert_eq!(sample.truncation.as_deref(), Some("effort_exhausted"));
        assert_eq!(sample.pruned_candidates, 7);
        assert_eq!(sample.admitted_candidates, 3);
        assert_eq!(sample.rejects, vec![("degree".to_string(), 5)]);
        let mut rollup = Rollup::default();
        rollup.fold(&sample);
        assert_eq!(rollup.prune_ratio(), 0.7);
        assert_eq!(rollup.truncation_reasons["effort_exhausted"], 1);
    }

    #[test]
    fn exposition_declares_each_family_once() {
        let mut w = TextWriter::new();
        w.counter(
            "subg_requests_total",
            "Requests.",
            &[("endpoint", "find")],
            3,
        );
        w.counter(
            "subg_requests_total",
            "Requests.",
            &[("endpoint", "survey")],
            1,
        );
        let text = w.finish();
        assert_eq!(text.matches("# TYPE subg_requests_total").count(), 1);
        assert_eq!(text.matches("# HELP subg_requests_total").count(), 1);
        assert!(text.contains("subg_requests_total{endpoint=\"find\"} 3\n"));
        assert!(text.contains("subg_requests_total{endpoint=\"survey\"} 1\n"));
    }

    #[test]
    fn exposition_escapes_label_values() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let mut w = TextWriter::new();
        w.gauge("g", "h", &[("name", "we\"ird\\chip\n")], 1);
        let text = w.finish();
        assert!(
            text.contains("g{name=\"we\\\"ird\\\\chip\\n\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn exposition_histogram_emits_bucket_sum_count() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 3, 900] {
            h.record(v);
        }
        let mut w = TextWriter::new();
        w.histogram("lat", "Latency.", &[("endpoint", "find")], &h);
        let text = w.finish();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(
            text.contains("lat_bucket{endpoint=\"find\",le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("lat_sum{endpoint=\"find\"} 904\n"), "{text}");
        assert!(text.contains("lat_count{endpoint=\"find\"} 4\n"), "{text}");
        // Buckets are cumulative and monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{text}");
            last = v;
        }
    }
}
