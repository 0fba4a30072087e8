//! Observability: phase timers, a counter registry, and a
//! machine-readable report.
//!
//! Collection is opt-in via
//! [`MatchOptions::collect_metrics`](crate::MatchOptions): when off
//! (the default), the matcher takes no timestamps, allocates no
//! registry, and [`MatchOutcome::metrics`](crate::MatchOutcome) stays
//! `None`, so results and effort counters are identical to a run
//! without this subsystem. When on, the matcher records monotonic
//! wall-clock time for each phase (Phase I refinement, candidate-vector
//! selection, Phase II verification) plus per-worker busy time, and
//! attaches a [`MetricsReport`].
//!
//! The [`json`] submodule is a dependency-free JSON emitter/parser used
//! by the report serializers (`subg --report json`, the `bench_json`
//! binary) and by tests that check schema stability.

use std::collections::HashMap;
use std::time::Instant;

use crate::instance::MatchOutcome;

/// A monotonic phase timer. Thin wrapper over [`Instant`] so call sites
/// read as instrumentation rather than clock arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTimer(Instant);

impl PhaseTimer {
    /// Starts the timer.
    pub fn start() -> Self {
        PhaseTimer(Instant::now())
    }

    /// Nanoseconds since `start`, saturated to `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// An ordered registry of named counters. Names are registered on first
/// bump; iteration order is first-bump order, so reports are stable for
/// a fixed code path. Lookups go through an index map, so a bump stays
/// O(1) however many counters a report holds.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    entries: Vec<(String, u64)>,
    index: HashMap<String, usize>,
}

impl Counters {
    /// Adds `by` to `name`, registering it at zero first if new.
    pub fn bump(&mut self, name: &str, by: u64) {
        match self.index.get(name) {
            Some(&i) => self.entries[i].1 += by,
            None => {
                self.index.insert(name.to_string(), self.entries.len());
                self.entries.push((name.to_string(), by));
            }
        }
    }

    /// Current value of `name` (0 if never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.index.get(name).map_or(0, |&i| self.entries[i].1)
    }

    /// Iterates `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no counter has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// Equality is over the visible registry (names + values in registration
// order); the index map is a derived lookup structure.
impl PartialEq for Counters {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for Counters {}

/// A log2-bucket histogram of non-negative integer samples (latencies
/// in nanoseconds, backtrack depths, …). Bucket 0 holds the value 0;
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]` — i.e. samples
/// are binned by bit length, so recording is a couple of ALU ops and
/// the memory footprint is at most 65 counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Upper bound of bucket `i` (the largest value it can hold).
    fn bucket_max(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another histogram in (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The allocated buckets as `(upper bound, count)` pairs in
    /// ascending bucket order — the raw layout exposition formats need
    /// (Prometheus `le` buckets) rather than the derived quantiles.
    pub fn bucket_counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (Self::bucket_max(i), c))
    }

    /// The upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`), i.e. the reported percentile overestimates by
    /// at most 2x — the usual log2-histogram contract. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the target sample.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_max(i);
            }
        }
        Self::bucket_max(self.buckets.len().saturating_sub(1))
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The histogram as a JSON object (`count`, `sum`, `p50`, `p95`,
    /// `p99`).
    pub fn to_json(&self) -> json::Value {
        json::Value::Obj(vec![
            ("count".into(), json::Value::int(self.count)),
            ("sum".into(), json::Value::int(self.sum)),
            ("p50".into(), json::Value::int(self.p50())),
            ("p95".into(), json::Value::int(self.p95())),
            ("p99".into(), json::Value::int(self.p99())),
        ])
    }
}

/// Structured timing/effort metrics for one matching run. All times are
/// monotonic wall-clock nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// End-to-end `find_all` time, including netlist preparation.
    pub total_ns: u64,
    /// Time spent compiling netlists into
    /// [`CompiledCircuit`](subgemini_netlist::CompiledCircuit) CSR
    /// snapshots (main + pattern). When a search reuses a cached main
    /// compilation (library surveys, extraction passes), only the
    /// pattern's share appears here and the
    /// `compile.main_cache_hits` counter is bumped instead.
    pub compile_ns: u64,
    /// Phase I iterative-relabeling (partition refinement) time.
    pub phase1_refine_ns: u64,
    /// Phase I candidate-vector / key-vertex selection time.
    pub phase1_select_ns: u64,
    /// Summed Phase II per-candidate verification time across workers.
    pub phase2_verify_ns: u64,
    /// Longest single-candidate verification.
    pub phase2_max_candidate_ns: u64,
    /// Wall-clock time of the Phase II candidate stage (parallel
    /// pre-pass plus serial merge).
    pub phase2_wall_ns: u64,
    /// Thread count requested via [`MatchOptions::threads`](crate::MatchOptions)
    /// (0 = auto).
    pub threads_requested: usize,
    /// The requested count with `0` (auto) resolved to the machine's
    /// available parallelism — what the search would use if eligible
    /// for parallel execution. Schema v1 additive.
    pub threads_resolved: usize,
    /// Worker threads actually used for candidate verification.
    pub threads_used: usize,
    /// Busy (verification) time per worker, one entry per worker; a
    /// single entry on the serial path.
    pub worker_busy_ns: Vec<u64>,
    /// Named effort counters.
    pub counters: Counters,
    /// Per-candidate verification latency (ns), log2-bucketed.
    pub verify_ns_hist: Histogram,
    /// Backtrack depth at each rollback, log2-bucketed.
    pub backtrack_depth_hist: Histogram,
    /// Effort units charged on the governor's deterministic ledger
    /// (Phase I iterations + per-candidate costs, in candidate-vector
    /// order). Zero on ungoverned runs.
    pub effort_spent: u64,
    /// The [`WorkBudget::max_effort`](crate::WorkBudget) cap in force
    /// (0 = unlimited or ungoverned).
    pub effort_limit: u64,
}

impl MetricsReport {
    /// Fraction of the Phase II wall-clock during which workers were
    /// busy, in `[0, 1]`: `sum(busy) / (threads_used * wall)`. Returns 1
    /// for degenerate (zero-time) runs.
    pub fn worker_utilization(&self) -> f64 {
        let busy: u64 = self.worker_busy_ns.iter().sum();
        let denom = self.threads_used as u64 * self.phase2_wall_ns;
        if denom == 0 {
            return 1.0;
        }
        (busy as f64 / denom as f64).min(1.0)
    }
}

/// Timings for one extraction run
/// ([`ExtractReport::metrics`](crate::ExtractReport)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtractMetrics {
    /// End-to-end extraction time.
    pub total_ns: u64,
    /// Per-cell breakdown, in (largest-first) processing order.
    pub cells: Vec<ExtractCellMetrics>,
}

/// Per-cell slice of an extraction run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtractCellMetrics {
    /// Library cell name.
    pub cell: String,
    /// Instances found for the cell.
    pub found: usize,
    /// Wall-clock of the cell's `find_all` round.
    pub match_ns: u64,
    /// Wall-clock of collapsing the found instances into composites.
    pub replace_ns: u64,
    /// The match's own [`MetricsReport`].
    pub match_metrics: Option<MetricsReport>,
}

/// Dependency-free JSON tree, emitter, and parser — just enough for the
/// stable report schema.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value. Objects preserve insertion order so emitted
    /// documents are byte-stable.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number (emitted without trailing `.0` when integral).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object (ordered key/value pairs).
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Convenience: an integer number.
        pub fn int(v: u64) -> Value {
            Value::Num(v as f64)
        }

        /// Member lookup on objects.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match *self {
                Value::Num(n) => Some(n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if integral.
        pub fn as_u64(&self) -> Option<u64> {
            match *self {
                Value::Num(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
                _ => None,
            }
        }

        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// Serializes with two-space indentation and a trailing newline.
        pub fn pretty(&self) -> String {
            let mut out = String::new();
            self.emit(&mut out, Some(0));
            out.push('\n');
            out
        }

        /// Serializes to a single line with no extra whitespace — the
        /// NDJSON form used by the event-journal exporter.
        pub fn compact(&self) -> String {
            let mut out = String::new();
            self.emit(&mut out, None);
            out
        }

        /// Writes the value at nesting depth `indent` when pretty
        /// printing, or on one line when `indent` is `None`.
        fn emit(&self, out: &mut String, indent: Option<usize>) {
            let inner = indent.map(|depth| depth + 1);
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Num(n) => {
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                }
                Value::Str(s) => emit_string(out, s),
                Value::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline(out, inner);
                        item.emit(out, inner);
                    }
                    if !items.is_empty() {
                        newline(out, indent);
                    }
                    out.push(']');
                }
                Value::Obj(members) => {
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline(out, inner);
                        emit_string(out, k);
                        out.push_str(if indent.is_some() { ": " } else { ":" });
                        v.emit(out, inner);
                    }
                    if !members.is_empty() {
                        newline(out, indent);
                    }
                    out.push('}');
                }
            }
        }
    }

    /// Starts a fresh line at depth `indent` when pretty printing.
    fn newline(out: &mut String, indent: Option<usize>) {
        if let Some(depth) = indent {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    }

    fn emit_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Deepest array/object nesting [`parse`] accepts. The parser
    /// recurses once per level, so without a bound a body of a few KB
    /// of `[` overflows a thread's stack and aborts the process.
    pub(crate) const MAX_DEPTH: usize = 128;

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input,
    /// including arrays and objects nested more than 128 deep.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, *pos))
        }
    }

    /// Parses the value at `pos`, which sits inside `depth` open
    /// arrays/objects.
    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(b, pos);
        if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
        }
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut members = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    let v = parse_value(b, pos, depth + 1)?;
                    members.push((key, v));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                s.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number `{s}` at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        let mut chunk_start = *pos;
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    out.push_str(
                        std::str::from_utf8(&b[chunk_start..*pos]).map_err(|e| e.to_string())?,
                    );
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(
                        std::str::from_utf8(&b[chunk_start..*pos]).map_err(|e| e.to_string())?,
                    );
                    *pos += 1;
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .ok_or("truncated \\u escape")
                                .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("unknown escape `\\{}`", other as char));
                        }
                    }
                    chunk_start = *pos;
                }
                _ => *pos += 1,
            }
        }
        Err("unterminated string".into())
    }
}

/// Version tag written into every JSON report. Bump only on breaking
/// schema changes.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Builds the stable machine-readable report for a match outcome.
///
/// Top-level fields (`schema_version`, `instances`,
/// `matched_device_total`, `key`, `phase1`, `phase2`, `completeness`,
/// `truncation`, `metrics`) are part of the schema contract;
/// `completeness` is `"complete"` or `"truncated"`, `truncation` is
/// `null` unless the search stopped early, and `metrics` is `null`
/// unless the run collected metrics.
pub fn outcome_to_json(outcome: &MatchOutcome) -> json::Value {
    use json::Value;
    let key = match outcome.key {
        Some(subgemini_netlist::Vertex::Device(d)) => Value::Str(format!("device:{}", d.index())),
        Some(subgemini_netlist::Vertex::Net(n)) => Value::Str(format!("net:{}", n.index())),
        None => Value::Null,
    };
    let p2 = &outcome.phase2;
    let false_rate = if p2.candidates_tried == 0 {
        0.0
    } else {
        p2.false_candidates as f64 / p2.candidates_tried as f64
    };
    let metrics = match &outcome.metrics {
        None => Value::Null,
        Some(m) => Value::Obj(vec![
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
            (
                "threads_requested".into(),
                Value::int(m.threads_requested as u64),
            ),
            (
                "threads_resolved".into(),
                Value::int(m.threads_resolved as u64),
            ),
            ("threads_used".into(), Value::int(m.threads_used as u64)),
            (
                "worker_busy_ns".into(),
                Value::Arr(m.worker_busy_ns.iter().map(|&n| Value::int(n)).collect()),
            ),
            (
                "worker_utilization".into(),
                Value::Num(m.worker_utilization()),
            ),
            (
                "counters".into(),
                Value::Obj(
                    m.counters
                        .iter()
                        .map(|(n, v)| (n.to_string(), Value::int(v)))
                        .collect(),
                ),
            ),
            ("verify_ns_hist".into(), m.verify_ns_hist.to_json()),
            (
                "backtrack_depth_hist".into(),
                m.backtrack_depth_hist.to_json(),
            ),
            ("effort_spent".into(), Value::int(m.effort_spent)),
            ("effort_limit".into(), Value::int(m.effort_limit)),
        ]),
    };
    let completeness = match &outcome.completeness {
        crate::budget::Completeness::Complete => Value::Str("complete".into()),
        crate::budget::Completeness::Truncated { .. } => Value::Str("truncated".into()),
    };
    let truncation = match &outcome.completeness {
        crate::budget::Completeness::Complete => Value::Null,
        crate::budget::Completeness::Truncated {
            reason,
            candidates_tried,
            candidates_skipped,
        } => Value::Obj(vec![
            ("reason".into(), Value::Str(reason.as_str().into())),
            (
                "candidates_tried".into(),
                Value::int(*candidates_tried as u64),
            ),
            (
                "candidates_skipped".into(),
                Value::int(*candidates_skipped as u64),
            ),
        ]),
    };
    Value::Obj(vec![
        ("schema_version".into(), Value::int(REPORT_SCHEMA_VERSION)),
        ("instances".into(), Value::int(outcome.count() as u64)),
        (
            "matched_device_total".into(),
            Value::int(outcome.matched_device_total() as u64),
        ),
        ("key".into(), key),
        (
            "phase1".into(),
            Value::Obj(vec![
                (
                    "iterations".into(),
                    Value::int(outcome.phase1.iterations as u64),
                ),
                ("cv_size".into(), Value::int(outcome.phase1.cv_size as u64)),
                (
                    "key_partition_size".into(),
                    Value::int(outcome.phase1.key_partition_size as u64),
                ),
                (
                    "proven_empty".into(),
                    Value::Bool(outcome.phase1.proven_empty),
                ),
            ]),
        ),
        (
            "phase2".into(),
            Value::Obj(vec![
                (
                    "candidates_tried".into(),
                    Value::int(p2.candidates_tried as u64),
                ),
                (
                    "false_candidates".into(),
                    Value::int(p2.false_candidates as u64),
                ),
                ("passes".into(), Value::int(p2.passes as u64)),
                ("guesses".into(), Value::int(p2.guesses as u64)),
                ("backtracks".into(), Value::int(p2.backtracks as u64)),
                (
                    "overlap_dropped".into(),
                    Value::int(p2.overlap_dropped as u64),
                ),
                ("false_candidate_rate".into(), Value::Num(false_rate)),
            ]),
        ),
        ("completeness".into(), completeness),
        ("truncation".into(), truncation),
        ("metrics".into(), metrics),
        // Schema v1 additive: the session-layer request id (null for
        // direct core calls that never pass through an engine).
        (
            "request_id".into(),
            match outcome.request_id {
                Some(id) => Value::int(id),
                None => Value::Null,
            },
        ),
    ])
}

/// Renders the human-readable (`--report text`) form of the same data.
pub fn outcome_to_text(outcome: &MatchOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{outcome}");
    if let crate::budget::Completeness::Truncated {
        reason,
        candidates_tried,
        candidates_skipped,
    } = &outcome.completeness
    {
        let _ = writeln!(
            out,
            "truncated ({}): {candidates_tried} candidate(s) tried, {candidates_skipped} skipped; \
             reported instances are a valid prefix of the complete answer",
            reason.as_str(),
        );
    }
    if let Some(m) = &outcome.metrics {
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "timings: total {:.3} ms = compile {:.3} ms + phase1 refine {:.3} ms + select {:.3} ms + phase2 {:.3} ms wall",
            ms(m.total_ns),
            ms(m.compile_ns),
            ms(m.phase1_refine_ns),
            ms(m.phase1_select_ns),
            ms(m.phase2_wall_ns),
        );
        let _ = writeln!(
            out,
            "phase2 verify: {:.3} ms busy across {} worker(s) (max candidate {:.3} ms, utilization {:.0}%)",
            ms(m.phase2_verify_ns),
            m.threads_used,
            ms(m.phase2_max_candidate_ns),
            m.worker_utilization() * 100.0,
        );
        if !m.verify_ns_hist.is_empty() {
            let h = &m.verify_ns_hist;
            let _ = writeln!(
                out,
                "verify latency: p50 <= {:.3} ms, p95 <= {:.3} ms, p99 <= {:.3} ms over {} candidate(s)",
                ms(h.p50()),
                ms(h.p95()),
                ms(h.p99()),
                h.count(),
            );
        }
        if !m.backtrack_depth_hist.is_empty() {
            let h = &m.backtrack_depth_hist;
            let _ = writeln!(
                out,
                "backtrack depth: p50 <= {}, p95 <= {}, p99 <= {} over {} rollback(s)",
                h.p50(),
                h.p95(),
                h.p99(),
                h.count(),
            );
        }
        for (name, v) in m.counters.iter() {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        if outcome.count() == 0 {
            // A no-match run should say *why*, not just "0 instances":
            // surface the top reject reasons tallied during Phase II.
            let mut rejects = outcome.rejects.nonzero();
            rejects.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.as_str().cmp(b.0.as_str())));
            if !rejects.is_empty() {
                let _ = writeln!(out, "top reject reasons:");
                for (reason, v) in rejects.iter().take(3) {
                    let _ = writeln!(out, "  {} x{v}", reason.as_str());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_in_bump_order() {
        let mut c = Counters::default();
        c.bump("b", 2);
        c.bump("a", 1);
        c.bump("b", 3);
        assert_eq!(c.get("b"), 5);
        assert_eq!(c.get("a"), 1);
        assert_eq!(c.get("missing"), 0);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        // Bucket occupancy: [0]:1, [1]:1, [2,3]:2, [4,7]:2, [8..15]:1, [512..1023]:1.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.p50(), 3); // rank-4 sample closes the [2,3] bucket
        assert_eq!(h.p99(), 1023);
        let mut other = Histogram::default();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 9);
        assert_eq!(h.quantile(1.0), u64::MAX);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn counters_lookup_matches_scan_semantics() {
        let mut c = Counters::default();
        for i in 0..100 {
            c.bump(&format!("k{i}"), i);
        }
        c.bump("k3", 10);
        assert_eq!(c.get("k3"), 13);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).take(3).collect();
        assert_eq!(names, ["k0", "k1", "k2"]);
        let d = c.clone();
        assert_eq!(c, d);
    }

    #[test]
    fn compact_json_is_single_line_and_parses() {
        use json::Value;
        let v = Value::Obj(vec![
            ("a".into(), Value::int(3)),
            ("b".into(), Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("s".into(), Value::Str("x\ny".into())),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n') || line.contains("\\n"));
        assert_eq!(line, "{\"a\":3,\"b\":[null,true],\"s\":\"x\\ny\"}");
        assert_eq!(json::parse(&line).unwrap(), v);
    }

    #[test]
    fn utilization_is_bounded() {
        let m = MetricsReport {
            phase2_wall_ns: 100,
            threads_used: 2,
            worker_busy_ns: vec![90, 70],
            ..MetricsReport::default()
        };
        let u = m.worker_utilization();
        assert!((0.0..=1.0).contains(&u));
        assert!((u - 0.8).abs() < 1e-9);
        assert_eq!(MetricsReport::default().worker_utilization(), 1.0);
    }

    #[test]
    fn json_roundtrips() {
        use json::Value;
        let v = Value::Obj(vec![
            ("a".into(), Value::int(3)),
            ("b".into(), Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("s".into(), Value::Str("he\"llo\n".into())),
            ("f".into(), Value::Num(0.5)),
            ("e".into(), Value::Obj(vec![])),
        ]);
        let text = v.pretty();
        let back = json::parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(back.get("s").unwrap().as_str(), Some("he\"llo\n"));
        assert_eq!(back.get("b").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("\"open").is_err());
        assert!(json::parse("123 junk").is_err());
        assert!(json::parse("nul").is_err());
    }

    #[test]
    fn json_parse_bounds_nesting_depth() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(json::parse(&nested(json::MAX_DEPTH, "[", "]")).is_ok());
        assert!(json::parse(&nested(json::MAX_DEPTH, "{\"k\":", "}")).is_ok());
        let err = json::parse(&nested(json::MAX_DEPTH + 1, "[", "]")).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(json::parse(&nested(json::MAX_DEPTH + 1, "{\"k\":", "}")).is_err());
        // Far past the bound: an error, not a stack overflow.
        assert!(json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn outcome_json_has_stable_top_level_schema() {
        let mut o = MatchOutcome::default();
        let v = outcome_to_json(&o);
        for field in [
            "schema_version",
            "instances",
            "matched_device_total",
            "key",
            "phase1",
            "phase2",
            "completeness",
            "truncation",
            "metrics",
        ] {
            assert!(v.get(field).is_some(), "missing {field}");
        }
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(REPORT_SCHEMA_VERSION)
        );
        assert_eq!(
            v.get("completeness"),
            Some(&json::Value::Str("complete".into()))
        );
        assert_eq!(v.get("truncation"), Some(&json::Value::Null));
        assert_eq!(v.get("metrics"), Some(&json::Value::Null));
        // Round-trips through the parser.
        assert_eq!(json::parse(&v.pretty()).unwrap(), v);

        o.metrics = Some(MetricsReport {
            total_ns: 42,
            threads_used: 1,
            worker_busy_ns: vec![40],
            ..MetricsReport::default()
        });
        let v = outcome_to_json(&o);
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("total_ns").unwrap().as_u64(), Some(42));
        assert_eq!(m.get("effort_spent").unwrap().as_u64(), Some(0));
        assert_eq!(m.get("effort_limit").unwrap().as_u64(), Some(0));
        let text = outcome_to_text(&o);
        assert!(text.contains("timings:"));
    }

    #[test]
    fn truncated_outcome_reports_in_json_and_text() {
        let o = MatchOutcome {
            completeness: crate::budget::Completeness::Truncated {
                reason: crate::budget::TruncationReason::EffortExhausted,
                candidates_tried: 3,
                candidates_skipped: 7,
            },
            ..MatchOutcome::default()
        };
        let v = outcome_to_json(&o);
        assert_eq!(
            v.get("completeness"),
            Some(&json::Value::Str("truncated".into()))
        );
        let t = v.get("truncation").unwrap();
        assert_eq!(
            t.get("reason"),
            Some(&json::Value::Str("effort_exhausted".into()))
        );
        assert_eq!(t.get("candidates_tried").unwrap().as_u64(), Some(3));
        assert_eq!(t.get("candidates_skipped").unwrap().as_u64(), Some(7));
        let text = outcome_to_text(&o);
        assert!(text.contains("truncated (effort_exhausted)"));
        assert!(text.contains("3 candidate(s) tried, 7 skipped"));
    }
}
