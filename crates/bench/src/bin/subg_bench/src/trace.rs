//! Bench-side spans around the calls into each layer, kept in memory
//! and written out as a Chrome trace-event file when the run ends.
//!
//! A root span starts a new operation id; its descendants share it.
//! A disabled recorder (untraced runs) takes no timestamps.

use std::time::Instant;

use subgemini::metrics::json::Value;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

pub struct Trace {
    enabled: bool,
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// Opens a span under the innermost open one (or as a new
    /// operation's root).
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.recording() {
            return SpanId(None);
        }
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        self.spans.push(Span {
            name,
            op,
            parent,
            start: Instant::now(),
            end: None,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and every span opened inside it and left open.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = Some(now);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside span `name` and returns its result with its wall
    /// time in nanoseconds (measured whether or not tracing is on).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let span = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.end(span);
        (out, ns)
    }

    /// Records a finished span from timestamps taken by the caller
    /// (client-side request phases, hierarchy rounds): a child of the
    /// innermost open span, or a new operation's root.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) -> SpanId {
        let parent = SpanId(self.open.last().copied());
        self.add_under(parent, name, start, end)
    }

    /// Records a finished child of `parent` (a new root for a parent
    /// that is no span).
    pub fn add_under(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.recording() {
            return SpanId(None);
        }
        let op = match parent.0 {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        self.spans.push(Span {
            name,
            op,
            parent: parent.0,
            start,
            end: Some(end),
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Suspends (`false`) or resumes recording, so untraced operations
    /// interleaved with traced ones in a traced run leave no spans.
    pub fn set_recording(&mut self, on: bool) {
        self.paused = !on;
    }

    fn recording(&self) -> bool {
        self.enabled && !self.paused
    }

    /// The spans in Chrome trace-event format (`ph: "X"` complete
    /// events, microseconds, one thread lane per operation). `args`
    /// carries each span's index, its parent's index and exact
    /// nanosecond offsets.
    pub fn to_chrome(&self) -> Value {
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let end = s.end?;
                let (start_ns, end_ns) = (since(s.start), since(end));
                let dur_ns = end_ns.saturating_sub(start_ns);
                Some(Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(layer_of(s.name).into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Num(start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Num(dur_ns as f64 / 1e3)),
                    ("pid".into(), Value::int(1)),
                    ("tid".into(), Value::int(s.op)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("span".into(), Value::int(i as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::int(p as u64)),
                            ),
                            ("start_ns".into(), Value::int(start_ns)),
                            ("dur_ns".into(), Value::int(dur_ns)),
                        ]),
                    ),
                ]))
            })
            .collect();
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }
}

/// The layer a span name belongs to: the part before the first dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use subgemini::metrics::json;

    /// Checks a Chrome trace file produced by [`Trace::to_chrome`]:
    /// every span lies inside its parent and the durations of a span's
    /// children sum to no more than its own. Returns the span count.
    pub fn check_chrome_trace(text: &str) -> usize {
        let doc = json::parse(text).expect("trace file is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents array");
        let arg = |e: &json::Value, k: &str| e.get("args").and_then(|a| a.get(k)).cloned();
        let mut spans = std::collections::BTreeMap::new();
        for e in events {
            assert_eq!(e.get("ph").and_then(json::Value::as_str), Some("X"));
            let id = arg(e, "span").and_then(|v| v.as_u64()).expect("span id");
            let start = arg(e, "start_ns").and_then(|v| v.as_u64()).expect("start");
            let dur = arg(e, "dur_ns").and_then(|v| v.as_u64()).expect("dur");
            let parent = arg(e, "parent").and_then(|v| v.as_u64());
            let tid = e.get("tid").and_then(json::Value::as_u64).expect("tid");
            spans.insert(id, (start, dur, parent, tid));
        }
        let mut child_sum = std::collections::BTreeMap::<u64, u64>::new();
        for (id, &(start, dur, parent, tid)) in &spans {
            let Some(p) = parent else { continue };
            let &(ps, pd, _, ptid) = spans.get(&p).expect("parent span exported");
            assert!(
                start >= ps && start + dur <= ps + pd,
                "span {id} escapes parent {p}"
            );
            assert_eq!(tid, ptid, "span {id} and its parent share an operation");
            *child_sum.entry(p).or_default() += dur;
        }
        for (p, sum) in child_sum {
            assert!(sum <= spans[&p].1, "children of span {p} outlast it");
        }
        spans.len()
    }

    #[test]
    fn spans_nest_and_export() {
        let mut t = Trace::new(true);
        let root = t.begin("setup");
        let child = t.begin("spice.parse");
        t.end(child);
        let a = Instant::now();
        let b = Instant::now();
        t.add("spice.elaborate", a, b);
        let left_open = t.begin("engine.register");
        let _ = left_open;
        t.end(root);
        let other = t.begin("engine.find");
        t.end(other);
        let text = t.to_chrome().pretty();
        assert_eq!(check_chrome_trace(&text), 5);
        assert!(text.contains("\"tid\": 2"), "second root starts a new op");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let s = t.begin("setup");
        t.add("x", Instant::now(), Instant::now());
        t.end(s);
        let doc = t.to_chrome();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(json::Value::as_arr)
                .map(<[_]>::len),
            Some(0)
        );
    }
}
