//! Structured search-event tracing: what the search *did*, not just how
//! long it took.
//!
//! [`MatchOptions::trace_events`](crate::MatchOptions) turns on a
//! structured journal of search events covering both phases: Phase I
//! refinement rounds ([`EventKind::RefineIter`]), candidate-vector
//! selection ([`EventKind::CvSelected`]), and the per-candidate Phase II
//! story — begin/end markers, safe-label checks, backtracks, and a
//! closed-enum [`RejectReason`] for every failed candidate.
//!
//! The collection discipline mirrors `collect_metrics`:
//!
//! * **Zero cost when off** (the default): no event is constructed, no
//!   buffer allocated, and results, mappings, and effort counters are
//!   byte-identical to a build without this module.
//! * **Lock-free when on**: each Phase II worker records into its own
//!   bounded [`EventBuffer`] (a plain `Vec` capped per candidate — no
//!   locks, no clocks on the hot path). Buffers are merged
//!   deterministically by `(candidate rank, sequence number)` when the
//!   search finishes, so the journal is identical for any `--threads`
//!   value that processes the same candidate set.
//!
//! Two exporters sit on the dependency-free [`json`](crate::metrics::json)
//! emitter: [`journal_to_ndjson`] (one JSON object per line) and
//! [`journal_to_chrome_trace`] (Chrome `traceEvents`, loadable in
//! `chrome://tracing` or Perfetto, with phases as `B`/`E` spans and
//! candidates as nested slices on a deterministic virtual timeline).
//! [`ExplainReport`] aggregates the journal into a human answer to "why
//! did this search find nothing?".

use subgemini_netlist::Vertex;

use crate::instance::MatchOutcome;
use crate::metrics::json::Value;

/// Where in the search an event was recorded. `Phase1` events sort
/// before every candidate; candidate events sort by rank (the
/// candidate's index in the candidate vector), which is
/// thread-assignment-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventScope {
    /// Phase I (refinement + selection) and pre-match setup. Serial,
    /// recorded by the coordinating thread.
    Phase1,
    /// Phase II processing of the candidate with this rank (index in
    /// the candidate vector).
    Candidate(u32),
}

/// Why Phase II rejected a candidate. Closed enum; every variant is also
/// tallied into the `reject.*` counters when metrics are collected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// Key and candidate are different vertex kinds (device vs net).
    KindMismatch,
    /// The candidate's invariant initial label (device type + pin
    /// structure) differs from the key's.
    DegreeMismatch,
    /// Label spreading produced a partition where the pattern has more
    /// members than the main graph — Label Invariant (2) violated.
    UnsafePartition,
    /// The mapping completed but failed structural re-verification (a
    /// label collision survived to completion).
    LabelConflict,
    /// The search stalled and no partition or anchor could supply a
    /// guess.
    NoViableGuess,
    /// The per-candidate guess budget
    /// ([`MatchOptions::max_guesses_per_candidate`](crate::MatchOptions))
    /// ran out before any branch completed.
    BudgetExhausted,
    /// Every guess branch was explored and failed (backtracking
    /// exhausted the ambiguity).
    BacktrackExhausted,
    /// The per-candidate pass budget
    /// ([`MatchOptions::max_passes_per_candidate`](crate::MatchOptions))
    /// ran out while refinement was still making progress, and guessing
    /// could not rescue the candidate.
    PassBudgetExhausted,
}

impl RejectReason {
    /// Every variant, in the fixed order used for counter registration
    /// and report aggregation.
    pub const ALL: [RejectReason; 8] = [
        RejectReason::KindMismatch,
        RejectReason::DegreeMismatch,
        RejectReason::UnsafePartition,
        RejectReason::LabelConflict,
        RejectReason::NoViableGuess,
        RejectReason::BudgetExhausted,
        RejectReason::BacktrackExhausted,
        RejectReason::PassBudgetExhausted,
    ];

    /// Stable machine name (also the suffix of the `reject.*` counter).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::KindMismatch => "kind_mismatch",
            RejectReason::DegreeMismatch => "degree_mismatch",
            RejectReason::UnsafePartition => "unsafe_partition",
            RejectReason::LabelConflict => "label_conflict",
            RejectReason::NoViableGuess => "no_viable_guess",
            RejectReason::BudgetExhausted => "budget_exhausted",
            RejectReason::BacktrackExhausted => "backtrack_exhausted",
            RejectReason::PassBudgetExhausted => "pass_budget_exhausted",
        }
    }

    /// The `Counters` name the reason is tallied under.
    pub fn counter_name(self) -> &'static str {
        match self {
            RejectReason::KindMismatch => "reject.kind_mismatch",
            RejectReason::DegreeMismatch => "reject.degree_mismatch",
            RejectReason::UnsafePartition => "reject.unsafe_partition",
            RejectReason::LabelConflict => "reject.label_conflict",
            RejectReason::NoViableGuess => "reject.no_viable_guess",
            RejectReason::BudgetExhausted => "reject.budget_exhausted",
            RejectReason::BacktrackExhausted => "reject.backtrack_exhausted",
            RejectReason::PassBudgetExhausted => "reject.pass_budget_exhausted",
        }
    }

    /// One-line human explanation.
    pub fn describe(self) -> &'static str {
        match self {
            RejectReason::KindMismatch => "key and candidate are different vertex kinds",
            RejectReason::DegreeMismatch => {
                "candidate's device type / pin structure differs from the key's"
            }
            RejectReason::UnsafePartition => {
                "a pattern partition outgrew its main-graph partition (safe-label check failed)"
            }
            RejectReason::LabelConflict => {
                "completed mapping failed structural re-verification (label collision)"
            }
            RejectReason::NoViableGuess => "search stalled with no partition or anchor to guess on",
            RejectReason::BudgetExhausted => "per-candidate guess budget exhausted",
            RejectReason::BacktrackExhausted => "every guess branch failed (backtrack exhaustion)",
            RejectReason::PassBudgetExhausted => {
                "per-candidate pass budget exhausted while refinement was still progressing"
            }
        }
    }

    fn index(self) -> usize {
        RejectReason::ALL
            .iter()
            .position(|&r| r == self)
            .expect("ALL is exhaustive")
    }
}

/// Per-candidate reject tallies, indexed by [`RejectReason::ALL`] order.
/// Cheap to merge across workers; folded into the `reject.*` counters
/// and the [`ExplainReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RejectTally([u64; RejectReason::ALL.len()]);

impl RejectTally {
    /// Counts one rejection.
    pub fn bump(&mut self, reason: RejectReason) {
        self.0[reason.index()] += 1;
    }

    /// Adds another tally in.
    pub fn merge(&mut self, other: &RejectTally) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// `(reason, count)` pairs with non-zero counts, in `ALL` order.
    pub fn nonzero(&self) -> Vec<(RejectReason, u64)> {
        RejectReason::ALL
            .iter()
            .zip(self.0.iter())
            .filter(|&(_, &c)| c > 0)
            .map(|(&r, &c)| (r, c))
            .collect()
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// One structured search event. All payloads are plain integers or
/// [`Vertex`] ids — no strings, no clocks, no allocation per event
/// beyond the buffer slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// One Phase I relabeling half-phase finished. `round` counts
    /// half-phases (matches `Phase1Stats::iterations`), `live_partitions`
    /// is the number of distinct labels over still-valid pattern
    /// vertices, `corrupted` how many vertices were invalidated this
    /// round.
    RefineIter {
        /// Half-phase number, starting at 1.
        round: u32,
        /// Distinct labels among valid (uncorrupted) pattern vertices.
        live_partitions: u32,
        /// Vertices newly marked corrupt this round.
        corrupted: u32,
    },
    /// A Phase I consistency check failed: a valid pattern label has
    /// fewer main-graph holders than pattern holders — no instance can
    /// exist. Terminal for the search.
    RefineFail {
        /// Half-phase number at which the check failed (0 = the initial
        /// labels).
        round: u32,
        /// The undersupplied label.
        label: u64,
        /// Pattern vertices carrying the label.
        s_count: u32,
        /// Main-graph vertices carrying the label.
        g_count: u32,
    },
    /// Phase I chose the key vertex and candidate vector.
    CvSelected {
        /// The label of the winning partition.
        label: u64,
        /// Candidate-vector size.
        size: u32,
        /// The key vertex in the pattern.
        key_vertex: Vertex,
    },
    /// The candidate vector was intersected against the warm handle's
    /// k-hop fingerprint index: `pruned` candidates were proven
    /// non-isomorphic and will be skipped, `admitted` proceed to
    /// Phase II. Emitted once, in the Phase I scope, right after
    /// `CvSelected`.
    CvPruned {
        /// Candidates eliminated by fingerprint mismatch.
        pruned: u64,
        /// Candidates surviving the prune.
        admitted: u64,
    },
    /// A pattern global net has no same-named global in the main
    /// circuit; Phase II cannot even pre-match. Terminal.
    PrematchFail,
    /// Phase II starts verifying a candidate.
    CandidateBegin {
        /// The candidate vertex in the main graph.
        c: Vertex,
    },
    /// One safe-label partition check during candidate refinement:
    /// `safe` iff the sizes are equal (the pigeonhole that lets the
    /// partition participate in spreading). `s_size > g_size` is the
    /// inconsistency that fails the branch.
    SafeLabelCheck {
        /// The partition label.
        label: u64,
        /// Pattern-side members.
        s_size: u32,
        /// Main-graph-side members.
        g_size: u32,
        /// Whether the partition was proven safe.
        safe: bool,
    },
    /// A guess branch failed and was rolled back through the undo log.
    Backtrack {
        /// Guess depth of the abandoned branch (1 = first guess).
        depth: u32,
        /// Undo-log operations reverted by the rollback.
        undo_ops: u32,
    },
    /// The candidate was rejected, with the classified reason. Emitted
    /// once per failed candidate, right before its `CandidateEnd`.
    Reject {
        /// Why the candidate failed.
        reason: RejectReason,
    },
    /// Phase II finished a candidate.
    CandidateEnd {
        /// The candidate vertex.
        c: Vertex,
        /// Whether it verified into an instance.
        matched: bool,
    },
    /// The search stopped before exhausting the candidate vector
    /// (work budget, deadline, or cancellation); the outcome's
    /// instance list is a valid prefix of the complete answer.
    /// Emitted once, in the Phase I scope (the truncation decision is
    /// made by the serial coordinator).
    Truncated {
        /// What stopped the search.
        reason: crate::budget::TruncationReason,
        /// Candidates verified before the stop. `u64` so a journal
        /// over a >4B-candidate vector cannot silently wrap (the
        /// outcome's `Completeness::Truncated` carries `usize`).
        candidates_tried: u64,
        /// Candidates never considered.
        candidates_skipped: u64,
    },
}

/// One journal entry: an [`EventKind`] plus its deterministic position
/// `(scope, seq)` in the merged stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Which part of the search produced the event.
    pub scope: EventScope,
    /// Sequence number within the scope (per candidate / within
    /// Phase I), starting at 0.
    pub seq: u32,
    /// The event payload.
    pub kind: EventKind,
}

/// A per-worker append-only event buffer with a per-candidate capacity
/// bound. No locks: each Phase II worker owns one. The per-*candidate*
/// (not per-worker) cap keeps the drop decision independent of how
/// candidates were distributed over workers, which is what makes the
/// merged journal thread-count-invariant.
#[derive(Debug)]
pub struct EventBuffer {
    events: Vec<Event>,
    scope: EventScope,
    seq: u32,
    cap_per_scope: usize,
    scope_len: usize,
    dropped: u64,
}

impl EventBuffer {
    /// Creates a buffer that keeps at most `cap_per_scope` events per
    /// candidate (and for the Phase I scope). Further events in a scope
    /// are counted in [`dropped`](EventJournal::dropped) but not stored.
    pub fn new(cap_per_scope: usize) -> Self {
        Self {
            events: Vec::new(),
            scope: EventScope::Phase1,
            seq: 0,
            cap_per_scope,
            scope_len: 0,
            dropped: 0,
        }
    }

    /// Switches the buffer to candidate `rank`, resetting the sequence
    /// counter and the per-scope budget.
    pub fn begin_candidate(&mut self, rank: u32) {
        self.scope = EventScope::Candidate(rank);
        self.seq = 0;
        self.scope_len = 0;
    }

    /// Appends an event in the current scope (or counts it as dropped
    /// once the scope's cap is reached).
    pub fn push(&mut self, kind: EventKind) {
        if self.scope_len >= self.cap_per_scope {
            self.dropped += 1;
            // seq keeps advancing so drops are visible as gaps.
            self.seq += 1;
            return;
        }
        self.events.push(Event {
            scope: self.scope,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
        self.scope_len += 1;
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes everything recorded so far, leaving this buffer empty and
    /// back in the Phase I scope with the same cap. Used by the
    /// scheduler to harvest one candidate's events into its slot while
    /// the worker's buffer is reused for the next candidate.
    pub fn drain(&mut self) -> EventBuffer {
        let cap = self.cap_per_scope;
        std::mem::replace(self, EventBuffer::new(cap))
    }
}

/// The merged, deterministic journal of one search: Phase I events
/// first, then candidate events ordered by `(rank, seq)` — independent
/// of the worker count that produced them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventJournal {
    /// Events in deterministic `(scope, seq)` order.
    pub events: Vec<Event>,
    /// Events dropped by the per-candidate buffer cap
    /// ([`MatchOptions::trace_events_cap`](crate::MatchOptions)).
    pub dropped: u64,
}

impl EventJournal {
    /// Appends a buffer's events and drop count. The order is restored
    /// by [`sort`](Self::sort) once every buffer is in.
    pub(crate) fn append(&mut self, buf: &EventBuffer) {
        self.events.extend_from_slice(&buf.events);
        self.dropped += buf.dropped;
    }

    /// Puts the events in deterministic `(scope, seq)` order. The key is
    /// unique across all buffers: Phase I events come from one serial
    /// buffer, and each candidate's events from exactly one
    /// verification.
    pub(crate) fn sort(&mut self) {
        self.events.sort_unstable_by_key(|e| (e.scope, e.seq));
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

fn vertex_str(v: Vertex) -> String {
    match v {
        Vertex::Device(d) => format!("device:{}", d.index()),
        Vertex::Net(n) => format!("net:{}", n.index()),
    }
}

fn label_str(l: u64) -> String {
    format!("{l:#018x}")
}

/// The event's stable machine name.
pub fn event_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::RefineIter { .. } => "refine_iter",
        EventKind::RefineFail { .. } => "refine_fail",
        EventKind::CvSelected { .. } => "cv_selected",
        EventKind::CvPruned { .. } => "cv_pruned",
        EventKind::PrematchFail => "prematch_fail",
        EventKind::CandidateBegin { .. } => "candidate_begin",
        EventKind::SafeLabelCheck { .. } => "safe_label_check",
        EventKind::Backtrack { .. } => "backtrack",
        EventKind::Reject { .. } => "reject",
        EventKind::CandidateEnd { .. } => "candidate_end",
        EventKind::Truncated { .. } => "truncated",
    }
}

/// The event's payload as ordered JSON members (no scope/seq).
fn kind_args(kind: &EventKind) -> Vec<(String, Value)> {
    match *kind {
        EventKind::RefineIter {
            round,
            live_partitions,
            corrupted,
        } => vec![
            ("round".into(), Value::int(round as u64)),
            ("live_partitions".into(), Value::int(live_partitions as u64)),
            ("corrupted".into(), Value::int(corrupted as u64)),
        ],
        EventKind::RefineFail {
            round,
            label,
            s_count,
            g_count,
        } => vec![
            ("round".into(), Value::int(round as u64)),
            ("label".into(), Value::Str(label_str(label))),
            ("s_count".into(), Value::int(s_count as u64)),
            ("g_count".into(), Value::int(g_count as u64)),
        ],
        EventKind::CvSelected {
            label,
            size,
            key_vertex,
        } => vec![
            ("label".into(), Value::Str(label_str(label))),
            ("size".into(), Value::int(size as u64)),
            ("key_vertex".into(), Value::Str(vertex_str(key_vertex))),
        ],
        EventKind::CvPruned { pruned, admitted } => vec![
            ("pruned".into(), Value::int(pruned)),
            ("admitted".into(), Value::int(admitted)),
        ],
        EventKind::PrematchFail => vec![],
        EventKind::CandidateBegin { c } => {
            vec![("candidate".into(), Value::Str(vertex_str(c)))]
        }
        EventKind::SafeLabelCheck {
            label,
            s_size,
            g_size,
            safe,
        } => vec![
            ("label".into(), Value::Str(label_str(label))),
            ("s_size".into(), Value::int(s_size as u64)),
            ("g_size".into(), Value::int(g_size as u64)),
            ("safe".into(), Value::Bool(safe)),
        ],
        EventKind::Backtrack { depth, undo_ops } => vec![
            ("depth".into(), Value::int(depth as u64)),
            ("undo_ops".into(), Value::int(undo_ops as u64)),
        ],
        EventKind::Reject { reason } => {
            vec![("reason".into(), Value::Str(reason.as_str().into()))]
        }
        EventKind::CandidateEnd { c, matched } => vec![
            ("candidate".into(), Value::Str(vertex_str(c))),
            ("matched".into(), Value::Bool(matched)),
        ],
        EventKind::Truncated {
            reason,
            candidates_tried,
            candidates_skipped,
        } => vec![
            ("reason".into(), Value::Str(reason.as_str().into())),
            ("candidates_tried".into(), Value::int(candidates_tried)),
            ("candidates_skipped".into(), Value::int(candidates_skipped)),
        ],
    }
}

/// One event as a JSON object: `rank` (`null` for Phase I), `seq`,
/// `event`, then the payload fields.
fn event_to_json(e: &Event) -> Value {
    let rank = match e.scope {
        EventScope::Phase1 => Value::Null,
        EventScope::Candidate(r) => Value::int(r as u64),
    };
    let mut members = vec![
        ("rank".into(), rank),
        ("seq".into(), Value::int(e.seq as u64)),
        ("event".into(), Value::Str(event_name(&e.kind).into())),
    ];
    members.extend(kind_args(&e.kind));
    Value::Obj(members)
}

/// Newline-delimited JSON export: one compact object per event, plus a
/// trailing `journal_end` record carrying the drop count.
pub fn journal_to_ndjson(journal: &EventJournal) -> String {
    let mut out = String::new();
    for e in &journal.events {
        out.push_str(&event_to_json(e).compact());
        out.push('\n');
    }
    let tail = Value::Obj(vec![
        ("event".into(), Value::Str("journal_end".into())),
        ("events".into(), Value::int(journal.events.len() as u64)),
        ("dropped".into(), Value::int(journal.dropped)),
    ]);
    out.push_str(&tail.compact());
    out.push('\n');
    out
}

/// Chrome-trace (`chrome://tracing` / Perfetto) export.
///
/// The journal carries no wall-clock timestamps (events must be
/// byte-identical across thread counts), so the trace uses a
/// **deterministic virtual timeline**: every event advances the clock
/// by one microsecond. The result is a *logical* flame view — span
/// width is event count, not nanoseconds — with `phase1` and `phase2`
/// as top-level `B`/`E` spans, one nested slice per candidate, and the
/// remaining events as instants with their payload under `args`.
pub fn journal_to_chrome_trace(journal: &EventJournal) -> Value {
    const PID: u64 = 1;
    const TID: u64 = 1;
    let mut trace: Vec<Value> = Vec::new();
    let mut ts = 0u64;
    let common = |name: &str, ph: &str, ts: u64| {
        vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("cat".to_string(), Value::Str("subgemini".to_string())),
            ("ph".to_string(), Value::Str(ph.to_string())),
            ("ts".to_string(), Value::int(ts)),
            ("pid".to_string(), Value::int(PID)),
            ("tid".to_string(), Value::int(TID)),
        ]
    };
    let mut in_phase1 = false;
    let mut in_phase2 = false;
    let mut open_candidate = false;
    for e in &journal.events {
        match e.scope {
            EventScope::Phase1 if !in_phase1 => {
                trace.push(Value::Obj(common("phase1", "B", ts)));
                ts += 1;
                in_phase1 = true;
            }
            EventScope::Candidate(_) if !in_phase2 => {
                if in_phase1 {
                    trace.push(Value::Obj(common("phase1", "E", ts)));
                    ts += 1;
                    in_phase1 = false;
                }
                trace.push(Value::Obj(common("phase2", "B", ts)));
                ts += 1;
                in_phase2 = true;
            }
            _ => {}
        }
        match e.kind {
            EventKind::CandidateBegin { c } => {
                // Defensive: a Begin without a prior End (dropped by the
                // cap) must not unbalance the stack.
                if open_candidate {
                    trace.push(Value::Obj(common("candidate", "E", ts)));
                    ts += 1;
                }
                let rank = match e.scope {
                    EventScope::Candidate(r) => r,
                    EventScope::Phase1 => 0,
                };
                let mut obj = common(&format!("candidate {rank}"), "B", ts);
                ts += 1;
                obj.push((
                    "args".to_string(),
                    Value::Obj(vec![("candidate".to_string(), Value::Str(vertex_str(c)))]),
                ));
                trace.push(Value::Obj(obj));
                open_candidate = true;
            }
            EventKind::CandidateEnd { c, matched } => {
                let rank = match e.scope {
                    EventScope::Candidate(r) => r,
                    EventScope::Phase1 => 0,
                };
                let mut obj = common(&format!("candidate {rank}"), "E", ts);
                ts += 1;
                obj.push((
                    "args".to_string(),
                    Value::Obj(vec![
                        ("candidate".to_string(), Value::Str(vertex_str(c))),
                        ("matched".to_string(), Value::Bool(matched)),
                    ]),
                ));
                trace.push(Value::Obj(obj));
                open_candidate = false;
            }
            ref kind => {
                let mut obj = common(event_name(kind), "i", ts);
                ts += 1;
                obj.push(("s".to_string(), Value::Str("t".to_string())));
                obj.push(("args".to_string(), Value::Obj(kind_args(kind))));
                trace.push(Value::Obj(obj));
            }
        }
    }
    if open_candidate {
        trace.push(Value::Obj(common("candidate", "E", ts)));
        ts += 1;
    }
    if in_phase1 {
        trace.push(Value::Obj(common("phase1", "E", ts)));
        ts += 1;
    }
    if in_phase2 {
        trace.push(Value::Obj(common("phase2", "E", ts)));
    }
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(trace)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        (
            "otherData".into(),
            Value::Obj(vec![
                (
                    "generator".into(),
                    Value::Str("subgemini trace_events".into()),
                ),
                ("dropped_events".into(), Value::int(journal.dropped)),
                (
                    "note".into(),
                    Value::Str("virtual timeline: 1 event = 1us; span width is event count".into()),
                ),
            ]),
        ),
    ])
}

/// Aggregated diagnosis of one search, built from its event journal:
/// reject-reason totals and, for a no-match search, the first point
/// where the search diverged from finding an instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExplainReport {
    /// Instances found.
    pub instances: usize,
    /// Candidate-vector size.
    pub cv_size: usize,
    /// Candidates that were actually processed (have journal events).
    pub candidates_seen: usize,
    /// Phase I refinement rounds (half-phases).
    pub refine_rounds: usize,
    /// `(reason, count)` totals over rejected candidates, descending by
    /// count (ties in `RejectReason::ALL` order).
    pub reject_totals: Vec<(RejectReason, u64)>,
    /// For a no-match search: the earliest terminal divergence, as a
    /// human sentence. `None` when instances were found (or no journal
    /// was recorded).
    pub first_divergence: Option<String>,
}

impl ExplainReport {
    /// Builds the report from an outcome whose journal was recorded
    /// (`trace_events`). Works on journal-less outcomes too, but can
    /// then only report counts.
    pub fn from_outcome(outcome: &MatchOutcome) -> Self {
        let mut report = ExplainReport {
            instances: outcome.count(),
            cv_size: outcome.phase1.cv_size,
            refine_rounds: outcome.phase1.iterations,
            ..ExplainReport::default()
        };
        let mut tally = RejectTally::default();
        let mut first_reject: Option<(u32, RejectReason)> = None;
        let mut refine_fail: Option<(u32, u64, u32, u32)> = None;
        let mut prematch_fail = false;
        let mut seen = std::collections::BTreeSet::new();
        if let Some(journal) = &outcome.events {
            for e in &journal.events {
                match e.kind {
                    EventKind::Reject { reason } => {
                        tally.bump(reason);
                        if let EventScope::Candidate(r) = e.scope {
                            if first_reject.is_none_or(|(fr, _)| r < fr) {
                                first_reject = Some((r, reason));
                            }
                        }
                    }
                    EventKind::RefineFail {
                        round,
                        label,
                        s_count,
                        g_count,
                    } => {
                        refine_fail.get_or_insert((round, label, s_count, g_count));
                    }
                    EventKind::PrematchFail => prematch_fail = true,
                    EventKind::CandidateBegin { .. } => {
                        if let EventScope::Candidate(r) = e.scope {
                            seen.insert(r);
                        }
                    }
                    _ => {}
                }
            }
        }
        report.candidates_seen = seen.len();
        let mut totals = tally.nonzero();
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        report.reject_totals = totals;
        if report.instances == 0 {
            report.first_divergence = Some(if let Some((round, label, s, g)) = refine_fail {
                format!(
                    "phase1 refinement round {round}: no main-graph partition matched valid \
                     pattern label {} ({g} holders in G, {s} required) — no instance can exist",
                    label_str(label)
                )
            } else if prematch_fail {
                "pre-match: a pattern global net has no same-named global net in the main \
                 circuit"
                    .to_string()
            } else if outcome.phase1.proven_empty {
                "phase1 proved the search empty before selecting a candidate vector".to_string()
            } else if report.cv_size == 0 {
                "phase1 found no partition to anchor on (pattern has no valid vertices)".to_string()
            } else if let Some((rank, reason)) = first_reject {
                format!(
                    "candidate #{rank}: {} ({})",
                    reason.as_str(),
                    reason.describe()
                )
            } else {
                "no candidate was processed".to_string()
            });
        }
        report
    }

    /// Renders the human-readable explain text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explain: {} instance(s); |CV|={} ({} candidate(s) processed); \
             {} refinement round(s)",
            self.instances, self.cv_size, self.candidates_seen, self.refine_rounds
        );
        if self.reject_totals.is_empty() {
            if self.instances == 0 {
                let _ = writeln!(out, "no candidates were rejected");
            }
        } else {
            let _ = writeln!(out, "reject reasons:");
            for (reason, count) in &self.reject_totals {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>6}  ({})",
                    reason.as_str(),
                    count,
                    reason.describe()
                );
            }
        }
        if let Some(d) = &self.first_divergence {
            let _ = writeln!(out, "first divergence: {d}");
        }
        out
    }

    /// The report as a JSON object (additive schema, stable keys).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("instances".into(), Value::int(self.instances as u64)),
            ("cv_size".into(), Value::int(self.cv_size as u64)),
            (
                "candidates_seen".into(),
                Value::int(self.candidates_seen as u64),
            ),
            (
                "refine_rounds".into(),
                Value::int(self.refine_rounds as u64),
            ),
            (
                "reject_totals".into(),
                Value::Obj(
                    self.reject_totals
                        .iter()
                        .map(|&(r, c)| (r.as_str().to_string(), Value::int(c)))
                        .collect(),
                ),
            ),
            (
                "first_divergence".into(),
                match &self.first_divergence {
                    Some(d) => Value::Str(d.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }
}

/// Validates a Chrome-trace JSON document: a `traceEvents` array whose
/// entries all carry `name`/`ph`/`ts`/`pid`/`tid`, with `B`/`E` events
/// balanced in stack order per `(pid, tid)`. Returns the event count.
///
/// # Errors
///
/// Returns a description of the first malformed entry or unbalanced
/// span.
pub fn validate_chrome_trace(doc: &Value) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts: Option<u64> = None;
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let ts = e
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or(format!("event {i}: missing ts"))?;
        let pid = e
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or(format!("event {i}: missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or(format!("event {i}: missing tid"))?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("event {i}: ts went backwards ({prev} -> {ts})"));
            }
        }
        last_ts = Some(ts);
        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                stack
                    .pop()
                    .ok_or(format!("event {i}: E `{name}` with empty stack"))?;
            }
            "i" | "I" | "X" | "M" => {}
            other => return Err(format!("event {i}: unexpected ph `{other}`")),
        }
    }
    for ((pid, tid), stack) in stacks {
        if !stack.is_empty() {
            return Err(format!(
                "unclosed span(s) on pid {pid} tid {tid}: {stack:?}"
            ));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::json;
    use subgemini_netlist::DeviceId;

    fn dev(i: u32) -> Vertex {
        Vertex::Device(DeviceId::new(i))
    }

    #[test]
    fn truncated_counts_survive_past_u32() {
        // A journal over a >4B-candidate vector must not wrap: the
        // event carries the counts as u64 end to end.
        let tried = u32::MAX as u64 + 5;
        let skipped = u32::MAX as u64 + 7;
        let e = Event {
            scope: EventScope::Phase1,
            seq: 0,
            kind: EventKind::Truncated {
                reason: crate::budget::TruncationReason::EffortExhausted,
                candidates_tried: tried,
                candidates_skipped: skipped,
            },
        };
        let rendered = event_to_json(&e).pretty();
        assert!(
            rendered.contains(&format!("\"candidates_tried\": {tried}")),
            "u64 count mangled in {rendered}"
        );
        assert!(
            rendered.contains(&format!("\"candidates_skipped\": {skipped}")),
            "u64 count mangled in {rendered}"
        );
    }

    #[test]
    fn drain_takes_events_and_resets_scope_and_cap() {
        let mut b = EventBuffer::new(2);
        b.begin_candidate(3);
        b.push(EventKind::CandidateBegin { c: dev(1) });
        let taken = b.drain();
        assert_eq!(taken.events.len(), 1);
        assert_eq!(taken.events[0].scope, EventScope::Candidate(3));
        assert_eq!(taken.dropped, 0);
        // The original buffer is empty, back in Phase1, same cap.
        assert!(b.is_empty());
        b.begin_candidate(4);
        for _ in 0..5 {
            b.push(EventKind::Backtrack {
                depth: 1,
                undo_ops: 1,
            });
        }
        assert_eq!(b.events.len(), 2, "cap of 2 must survive drain");
        assert_eq!(b.dropped, 3);
    }

    #[test]
    fn buffer_caps_per_candidate_and_counts_drops() {
        let mut b = EventBuffer::new(2);
        b.begin_candidate(0);
        for _ in 0..5 {
            b.push(EventKind::Backtrack {
                depth: 1,
                undo_ops: 3,
            });
        }
        b.begin_candidate(1);
        b.push(EventKind::CandidateBegin { c: dev(7) });
        assert_eq!(b.events.len(), 3);
        assert_eq!(b.dropped, 3);
        // Fresh scope resets the budget.
        assert_eq!(b.events[2].scope, EventScope::Candidate(1));
        assert_eq!(b.events[2].seq, 0);
    }

    #[test]
    fn merge_orders_by_scope_then_seq() {
        let mut a = EventBuffer::new(100);
        a.begin_candidate(2);
        a.push(EventKind::CandidateBegin { c: dev(0) });
        a.push(EventKind::CandidateEnd {
            c: dev(0),
            matched: false,
        });
        let mut b = EventBuffer::new(100);
        b.push(EventKind::RefineIter {
            round: 1,
            live_partitions: 4,
            corrupted: 0,
        });
        let mut c = EventBuffer::new(100);
        c.begin_candidate(0);
        c.push(EventKind::CandidateBegin { c: dev(1) });
        let mut j = EventJournal::default();
        for buf in [&a, &b, &c] {
            j.append(buf);
        }
        j.sort();
        let scopes: Vec<EventScope> = j.events.iter().map(|e| e.scope).collect();
        assert_eq!(
            scopes,
            vec![
                EventScope::Phase1,
                EventScope::Candidate(0),
                EventScope::Candidate(2),
                EventScope::Candidate(2),
            ]
        );
    }

    #[test]
    fn ndjson_lines_parse_individually() {
        let mut b = EventBuffer::new(100);
        b.push(EventKind::CvSelected {
            label: 0xabc,
            size: 3,
            key_vertex: dev(1),
        });
        b.begin_candidate(0);
        b.push(EventKind::Reject {
            reason: RejectReason::UnsafePartition,
        });
        let mut j = EventJournal::default();
        j.append(&b);
        let text = journal_to_ndjson(&j);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // 2 events + journal_end
        for line in &lines {
            let v = json::parse(line).expect("each line is valid JSON");
            assert!(v.get("event").is_some());
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("rank"), Some(&Value::Null));
        assert_eq!(first.get("event").unwrap().as_str(), Some("cv_selected"));
        let last = json::parse(lines[2]).unwrap();
        assert_eq!(last.get("event").unwrap().as_str(), Some("journal_end"));
        assert_eq!(last.get("dropped").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn chrome_trace_is_balanced_and_valid() {
        let mut b = EventBuffer::new(100);
        b.push(EventKind::RefineIter {
            round: 1,
            live_partitions: 2,
            corrupted: 1,
        });
        b.begin_candidate(0);
        b.push(EventKind::CandidateBegin { c: dev(0) });
        b.push(EventKind::SafeLabelCheck {
            label: 1,
            s_size: 1,
            g_size: 1,
            safe: true,
        });
        b.push(EventKind::CandidateEnd {
            c: dev(0),
            matched: true,
        });
        let mut j = EventJournal::default();
        j.append(&b);
        let doc = journal_to_chrome_trace(&j);
        let n = validate_chrome_trace(&doc).expect("valid trace");
        assert!(n >= 6, "spans + events, got {n}");
        // Round-trips through the JSON parser.
        assert_eq!(json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn validate_rejects_unbalanced_traces() {
        let doc = Value::Obj(vec![(
            "traceEvents".into(),
            Value::Arr(vec![Value::Obj(vec![
                ("name".into(), Value::Str("x".into())),
                ("ph".into(), Value::Str("B".into())),
                ("ts".into(), Value::int(0)),
                ("pid".into(), Value::int(1)),
                ("tid".into(), Value::int(1)),
            ])]),
        )]);
        assert!(validate_chrome_trace(&doc).is_err());
        assert!(validate_chrome_trace(&Value::Obj(vec![])).is_err());
    }

    #[test]
    fn reject_tally_orders_and_merges() {
        let mut t = RejectTally::default();
        t.bump(RejectReason::LabelConflict);
        t.bump(RejectReason::UnsafePartition);
        t.bump(RejectReason::UnsafePartition);
        let mut u = RejectTally::default();
        u.bump(RejectReason::UnsafePartition);
        t.merge(&u);
        assert_eq!(t.total(), 4);
        assert_eq!(
            t.nonzero(),
            vec![
                (RejectReason::UnsafePartition, 3),
                (RejectReason::LabelConflict, 1),
            ]
        );
    }

    #[test]
    fn explain_report_names_first_reject() {
        let mut b = EventBuffer::new(100);
        b.begin_candidate(0);
        b.push(EventKind::CandidateBegin { c: dev(0) });
        b.push(EventKind::Reject {
            reason: RejectReason::UnsafePartition,
        });
        b.push(EventKind::CandidateEnd {
            c: dev(0),
            matched: false,
        });
        let mut outcome = MatchOutcome::default();
        outcome.phase1.cv_size = 1;
        let mut j = EventJournal::default();
        j.append(&b);
        outcome.events = Some(j);
        let r = ExplainReport::from_outcome(&outcome);
        assert_eq!(r.instances, 0);
        assert_eq!(r.candidates_seen, 1);
        assert_eq!(r.reject_totals, vec![(RejectReason::UnsafePartition, 1)]);
        let d = r.first_divergence.as_deref().expect("no-match diverges");
        assert!(d.contains("candidate #0"), "{d}");
        assert!(d.contains("unsafe_partition"), "{d}");
        let text = r.render();
        assert!(text.contains("reject reasons:"), "{text}");
        assert!(r.to_json().get("first_divergence").is_some());
    }
}
