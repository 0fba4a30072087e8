//! Phase II — verifying candidates with the safe/suspect labeling
//! search (§IV of the paper).
//!
//! For each candidate `c`, the key vertex and `c` are matched and given
//! a shared unique label. Labels then spread breadth-first, but only
//! **safe** labels participate: a `G` partition is safe iff it has the
//! same size as the equally-labeled pattern partition — then it can
//! contain only image vertices (pigeonhole over Label Invariant (2)).
//! Equal safe singleton partitions are **matched** and frozen. When no
//! progress is possible (paper Fig. 5 symmetry) the algorithm guesses a
//! match inside an equal-labeled partition and recurses. Completed
//! mappings are re-verified structurally.
//!
//! Efficiency notes mirroring the paper:
//!
//! * only *touched* `G` vertices (reached by spreading) are stored, so
//!   the per-candidate cost is proportional to the pattern size, not
//!   `|G|` — this is what makes total runtime linear in the matched
//!   devices;
//! * special nets are pre-matched by name and never *trigger*
//!   relabeling, so a power rail's huge fanout is never scanned (§IV.A's
//!   performance point) — though its fixed label still contributes when
//!   a vertex is relabeled for other reasons.
//!
//! State is dense `Vec`-indexed over the [`CompiledCircuit`]s, with an
//! **undo log** instead of per-branch cloning: every mutation during
//! search records its inverse, a [`Mark`] captures the log position
//! before a guess, and backtracking truncates the log — `O(touched)`
//! per branch.
//!
//! Label partitions are one flat table of [`Row`]s — `(kind, label,
//! side, index)` for every unmatched touched vertex — sorted and scanned
//! as runs of equal `(kind, label)`. The derived order puts each run's
//! pattern rows before its main rows, each side by index, so runs come
//! out in sorted-key order with sorted members: the order fresh labels,
//! journal events and guesses depend on.
//!
//! Every buffer a pass, a guess or the final structural check needs
//! lives in a per-worker [`Scratch`] owned by the [`SearchState`] and is
//! cleared, never freed, between uses. Once warm (with trace, events
//! and metrics off), a rejected candidate makes no heap allocation and a
//! found one makes exactly the two of its [`SubMatch`];
//! `tests/phase2_alloc.rs` pins this with a counting allocator.

use std::ops::Range;

use subgemini_netlist::{hashing, CompiledCircuit, DeviceId, NetId, Netlist, Vertex};

use crate::events::{EventBuffer, EventKind, RejectReason, RejectTally};
use crate::instance::{Phase2Stats, SubMatch};
use crate::metrics::Histogram;
use crate::options::MatchOptions;
use crate::trace::{Phase2Trace, TraceCell, TraceSnapshot};
use crate::verify::{verify_with, VerifyScratch};

/// One inverse operation on the search state. Rolling the log back in
/// LIFO order restores the exact prior state (list pushes pair with
/// their flag sets, so pops stay aligned).
enum UndoOp {
    SDevLabel(u32, u64),
    SNetLabel(u32, u64),
    SDevTouched(u32),
    SNetTouched(u32),
    SDevSafe(u32),
    SNetSafe(u32),
    SDevMatch(u32),
    SNetMatch(u32),
    /// Restore a previously *touched* G device's label.
    GDevLabel(u32, u64),
    GNetLabel(u32, u64),
    /// First touch of a G vertex: clears the flag and pops the touched
    /// list (the stale label slot is unreachable once untouched).
    GDevTouched(u32),
    GNetTouched(u32),
    GDevSafe(u32),
    GNetSafe(u32),
    GDevMatched(u32),
    GNetMatched(u32),
    GNetPortImage(u32),
}

/// A rollback point: undo-log length plus the scalars the log does not
/// cover.
#[derive(Clone, Copy)]
struct Mark {
    undo_len: usize,
    matched: usize,
    label_counter: u64,
    trace_len: usize,
}

/// Mutable search state for one candidate. Dense arrays both sides;
/// G-side sparsity is recovered through the touched/safe index lists.
struct State {
    s_dev: Vec<u64>,
    s_net: Vec<u64>,
    s_dev_touched: Vec<bool>,
    s_net_touched: Vec<bool>,
    s_dev_safe: Vec<bool>,
    s_net_safe: Vec<bool>,
    s_dev_match: Vec<Option<u32>>,
    s_net_match: Vec<Option<u32>>,
    /// Labels of G vertices; a slot is meaningful only while the
    /// corresponding touched flag is set.
    g_dev_label: Vec<u64>,
    g_net_label: Vec<u64>,
    g_dev_touched: Vec<bool>,
    g_net_touched: Vec<bool>,
    g_dev_safe: Vec<bool>,
    g_net_safe: Vec<bool>,
    g_dev_matched: Vec<bool>,
    g_net_matched: Vec<bool>,
    /// Main-graph nets matched to *port* (external) pattern nets. Such
    /// images may have arbitrary main-circuit fanout (think a shared
    /// clock), so — like global rails — they never trigger spreading
    /// unless the option re-enables it.
    g_net_port_image: Vec<bool>,
    /// Sparse iteration orders for the dense flags above.
    g_dev_touched_list: Vec<u32>,
    g_net_touched_list: Vec<u32>,
    g_dev_safe_list: Vec<u32>,
    g_net_safe_list: Vec<u32>,
    matched: usize,
    label_counter: u64,
    undo: Vec<UndoOp>,
    trace: Option<Phase2Trace>,
    /// Structured event journal for this worker
    /// ([`MatchOptions::trace_events`]); never rolled back — failed
    /// branches are exactly what the journal is for.
    events: Option<EventBuffer>,
    /// Backtrack-depth histogram ([`MatchOptions::collect_metrics`]).
    backtrack_hist: Option<Histogram>,
    /// Reject-reason tallies (metrics or events on).
    reject_tally: Option<RejectTally>,
    /// Why the most recent candidate's top-level branch failed.
    last_reject: Option<RejectReason>,
}

impl State {
    fn mark(&self) -> Mark {
        Mark {
            undo_len: self.undo.len(),
            matched: self.matched,
            label_counter: self.label_counter,
            trace_len: self.trace.as_ref().map_or(0, |t| t.passes.len()),
        }
    }

    /// Rolls every mutation after `m` back, restoring the state (and
    /// the trace) exactly as it was when the mark was taken.
    fn rollback(&mut self, m: &Mark) {
        while self.undo.len() > m.undo_len {
            match self.undo.pop().expect("len checked") {
                UndoOp::SDevLabel(i, l) => self.s_dev[i as usize] = l,
                UndoOp::SNetLabel(i, l) => self.s_net[i as usize] = l,
                UndoOp::SDevTouched(i) => self.s_dev_touched[i as usize] = false,
                UndoOp::SNetTouched(i) => self.s_net_touched[i as usize] = false,
                UndoOp::SDevSafe(i) => self.s_dev_safe[i as usize] = false,
                UndoOp::SNetSafe(i) => self.s_net_safe[i as usize] = false,
                UndoOp::SDevMatch(i) => self.s_dev_match[i as usize] = None,
                UndoOp::SNetMatch(i) => self.s_net_match[i as usize] = None,
                UndoOp::GDevLabel(i, l) => self.g_dev_label[i as usize] = l,
                UndoOp::GNetLabel(i, l) => self.g_net_label[i as usize] = l,
                UndoOp::GDevTouched(i) => {
                    self.g_dev_touched[i as usize] = false;
                    let popped = self.g_dev_touched_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GNetTouched(i) => {
                    self.g_net_touched[i as usize] = false;
                    let popped = self.g_net_touched_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GDevSafe(i) => {
                    self.g_dev_safe[i as usize] = false;
                    let popped = self.g_dev_safe_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GNetSafe(i) => {
                    self.g_net_safe[i as usize] = false;
                    let popped = self.g_net_safe_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GDevMatched(i) => self.g_dev_matched[i as usize] = false,
                UndoOp::GNetMatched(i) => self.g_net_matched[i as usize] = false,
                UndoOp::GNetPortImage(i) => self.g_net_port_image[i as usize] = false,
            }
        }
        self.matched = m.matched;
        self.label_counter = m.label_counter;
        if let Some(t) = self.trace.as_mut() {
            t.passes.truncate(m.trace_len);
        }
    }

    // --- logged setters (every hot-path mutation goes through these) ---

    fn set_s_dev_label(&mut self, i: usize, l: u64) {
        if self.s_dev[i] != l {
            self.undo.push(UndoOp::SDevLabel(i as u32, self.s_dev[i]));
            self.s_dev[i] = l;
        }
    }

    fn set_s_net_label(&mut self, i: usize, l: u64) {
        if self.s_net[i] != l {
            self.undo.push(UndoOp::SNetLabel(i as u32, self.s_net[i]));
            self.s_net[i] = l;
        }
    }

    fn touch_s_dev(&mut self, i: usize) {
        if !self.s_dev_touched[i] {
            self.s_dev_touched[i] = true;
            self.undo.push(UndoOp::SDevTouched(i as u32));
        }
    }

    fn touch_s_net(&mut self, i: usize) {
        if !self.s_net_touched[i] {
            self.s_net_touched[i] = true;
            self.undo.push(UndoOp::SNetTouched(i as u32));
        }
    }

    fn set_s_dev_safe(&mut self, i: usize) -> bool {
        if self.s_dev_safe[i] {
            return false;
        }
        self.s_dev_safe[i] = true;
        self.undo.push(UndoOp::SDevSafe(i as u32));
        true
    }

    fn set_s_net_safe(&mut self, i: usize) -> bool {
        if self.s_net_safe[i] {
            return false;
        }
        self.s_net_safe[i] = true;
        self.undo.push(UndoOp::SNetSafe(i as u32));
        true
    }

    fn set_s_dev_match(&mut self, i: usize, g: u32) {
        debug_assert!(self.s_dev_match[i].is_none());
        self.s_dev_match[i] = Some(g);
        self.undo.push(UndoOp::SDevMatch(i as u32));
    }

    fn set_s_net_match(&mut self, i: usize, g: u32) {
        debug_assert!(self.s_net_match[i].is_none());
        self.s_net_match[i] = Some(g);
        self.undo.push(UndoOp::SNetMatch(i as u32));
    }

    fn set_g_dev_label(&mut self, i: u32, l: u64) {
        if self.g_dev_touched[i as usize] {
            self.undo
                .push(UndoOp::GDevLabel(i, self.g_dev_label[i as usize]));
        } else {
            self.g_dev_touched[i as usize] = true;
            self.g_dev_touched_list.push(i);
            self.undo.push(UndoOp::GDevTouched(i));
        }
        self.g_dev_label[i as usize] = l;
    }

    fn set_g_net_label(&mut self, i: u32, l: u64) {
        if self.g_net_touched[i as usize] {
            self.undo
                .push(UndoOp::GNetLabel(i, self.g_net_label[i as usize]));
        } else {
            self.g_net_touched[i as usize] = true;
            self.g_net_touched_list.push(i);
            self.undo.push(UndoOp::GNetTouched(i));
        }
        self.g_net_label[i as usize] = l;
    }

    fn set_g_dev_safe(&mut self, i: u32) -> bool {
        if self.g_dev_safe[i as usize] {
            return false;
        }
        self.g_dev_safe[i as usize] = true;
        self.g_dev_safe_list.push(i);
        self.undo.push(UndoOp::GDevSafe(i));
        true
    }

    fn set_g_net_safe(&mut self, i: u32) -> bool {
        if self.g_net_safe[i as usize] {
            return false;
        }
        self.g_net_safe[i as usize] = true;
        self.g_net_safe_list.push(i);
        self.undo.push(UndoOp::GNetSafe(i));
        true
    }

    fn set_g_dev_matched(&mut self, i: u32) {
        debug_assert!(!self.g_dev_matched[i as usize]);
        self.g_dev_matched[i as usize] = true;
        self.undo.push(UndoOp::GDevMatched(i));
    }

    fn set_g_net_matched(&mut self, i: u32) {
        debug_assert!(!self.g_net_matched[i as usize]);
        self.g_net_matched[i as usize] = true;
        self.undo.push(UndoOp::GNetMatched(i));
    }

    fn set_g_net_port_image(&mut self, i: u32) {
        if !self.g_net_port_image[i as usize] {
            self.g_net_port_image[i as usize] = true;
            self.undo.push(UndoOp::GNetPortImage(i));
        }
    }
}

/// Vertex kinds in a [`Row`]: devices sort before nets.
const DEVICE: u8 = 0;
const NET: u8 = 1;

/// One row of the partition table: an unmatched, touched vertex. Field
/// order is sort order, so the sorted table is a sequence of runs of
/// equal `(kind, label)` in ascending key order, and inside a run the
/// pattern rows (`main == false`) come before the main rows, each side
/// by index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Row {
    kind: u8,
    label: u64,
    main: bool,
    index: u32,
}

/// Splits a sorted partition table into its runs: one `(kind, label,
/// pattern rows, main rows)` per label.
fn runs(table: &[Row]) -> impl Iterator<Item = (u8, u64, &[Row], &[Row])> {
    table
        .chunk_by(|a, b| (a.kind, a.label) == (b.kind, b.label))
        .map(|run| {
            let (sv, gv) = run.split_at(run.partition_point(|r| !r.main));
            (run[0].kind, run[0].label, sv, gv)
        })
}

fn vertex(kind: u8, index: u32) -> Vertex {
    if kind == DEVICE {
        Vertex::Device(DeviceId::new(index))
    } else {
        Vertex::Net(NetId::new(index))
    }
}

/// Per-worker buffers for everything a candidate needs besides the
/// search state itself, reused across passes, guesses and candidates.
#[derive(Default)]
struct Scratch {
    /// The partition table (see [`Row`]).
    table: Vec<Row>,
    /// Singleton partitions `analyze` matches after its scan.
    to_match: Vec<(u8, u32, u32)>,
    /// A pass's main-side frontiers and new labels per side and kind.
    g_dev_frontier: Vec<u32>,
    g_net_frontier: Vec<u32>,
    s_dev_new: Vec<(u32, u64)>,
    s_net_new: Vec<(u32, u64)>,
    g_dev_new: Vec<(u32, u64)>,
    g_net_new: Vec<(u32, u64)>,
    /// Candidate images of every open guess, innermost on top: each
    /// `verify_image` call owns a range and truncates back to its start.
    guesses: Vec<Vertex>,
    /// The anchored fallback's matched-pin requirements, one main
    /// device's pins, and one pattern device's candidates.
    required: Vec<(u64, u32)>,
    have: Vec<(u64, u32)>,
    cands: Vec<Vertex>,
    verify: VerifyScratch,
}

enum Refined {
    /// All pattern vertices matched (state left in the completed
    /// configuration).
    Complete,
    /// Partition inconsistency: this branch cannot succeed.
    Fail,
    /// No progress without a guess.
    Stuck,
    /// The per-candidate pass budget ran out while passes were still
    /// making progress. Treated like a stall (guessing may still
    /// resolve it) but reported distinctly so exhaustion is never
    /// silent.
    PassBudget,
}

/// Phase II driver bound to one (pattern, main) pair.
pub struct Phase2Runner<'a> {
    s: &'a CompiledCircuit,
    g: &'a CompiledCircuit,
    pattern: &'a Netlist,
    main: &'a Netlist,
    opts: &'a MatchOptions,
}

impl<'a> Phase2Runner<'a> {
    /// Creates a runner. `s`/`g` must be compiled from `pattern`/`main`.
    pub fn new(
        s: &'a CompiledCircuit,
        g: &'a CompiledCircuit,
        pattern: &'a Netlist,
        main: &'a Netlist,
        opts: &'a MatchOptions,
    ) -> Self {
        Self {
            s,
            g,
            pattern,
            main,
            opts,
        }
    }

    /// Builds the candidate-independent pre-match recipe: special nets
    /// matched by name. Returns `None` when a pattern global has no
    /// global counterpart in the main circuit (no instance can exist).
    pub fn base_state(&self) -> Option<BaseState> {
        let mut prematch: Vec<(u32, u32, u64)> = Vec::new();
        for i in 0..self.s.net_count() {
            let n = NetId::new(i as u32);
            if !self.s.is_global(n) {
                continue;
            }
            let name = self.pattern.net_ref(n).name();
            let gm = self.g.find_global(name)?;
            prematch.push((n.raw(), gm.raw(), self.s.initial_net_label(n)));
        }
        Some(BaseState { prematch })
    }

    /// Materializes the dense search state for `base`, sized to the
    /// compiled graphs. Expensive relative to a candidate (`O(|G|)`),
    /// so build it once per worker and reuse it: `run_candidate`
    /// restores it to the base configuration before returning.
    pub fn make_state(&self, base: &BaseState) -> SearchState {
        let nd = self.s.device_count();
        let nn = self.s.net_count();
        let gd = self.g.device_count();
        let gn = self.g.net_count();
        let mut st = State {
            s_dev: (0..nd)
                .map(|i| self.s.initial_device_label(DeviceId::new(i as u32)))
                .collect(),
            s_net: vec![0; nn],
            s_dev_touched: vec![false; nd],
            s_net_touched: vec![false; nn],
            s_dev_safe: vec![false; nd],
            s_net_safe: vec![false; nn],
            s_dev_match: vec![None; nd],
            s_net_match: vec![None; nn],
            g_dev_label: vec![0; gd],
            g_net_label: vec![0; gn],
            g_dev_touched: vec![false; gd],
            g_net_touched: vec![false; gn],
            g_dev_safe: vec![false; gd],
            g_net_safe: vec![false; gn],
            g_dev_matched: vec![false; gd],
            g_net_matched: vec![false; gn],
            g_net_port_image: vec![false; gn],
            g_dev_touched_list: Vec::new(),
            g_net_touched_list: Vec::new(),
            g_dev_safe_list: Vec::new(),
            g_net_safe_list: Vec::new(),
            matched: 0,
            label_counter: 0,
            undo: Vec::new(),
            trace: None,
            events: self
                .opts
                .trace_events
                .then(|| EventBuffer::new(self.opts.trace_events_cap)),
            backtrack_hist: self.opts.collect_metrics.then(Histogram::default),
            reject_tally: (self.opts.collect_metrics || self.opts.trace_events)
                .then(RejectTally::default),
            last_reject: None,
        };
        // The pre-matches form the permanent floor of the state: applied
        // without undo logging, they survive every rollback.
        for &(si, gi, label) in &base.prematch {
            let si = si as usize;
            st.s_net[si] = label;
            st.s_net_touched[si] = true;
            st.s_net_safe[si] = true;
            st.s_net_match[si] = Some(gi);
            st.g_net_label[gi as usize] = label;
            st.g_net_touched[gi as usize] = true;
            st.g_net_touched_list.push(gi);
            st.g_net_safe[gi as usize] = true;
            st.g_net_safe_list.push(gi);
            st.g_net_matched[gi as usize] = true;
            st.matched += 1;
        }
        SearchState {
            state: st,
            scratch: Scratch::default(),
            base_matched: base.prematch.len(),
        }
    }

    fn total_s(&self) -> usize {
        self.s.device_count() + self.s.net_count()
    }

    fn fresh_label(&self, st: &mut State) -> u64 {
        st.label_counter += 1;
        hashing::mix(self.opts.seed ^ st.label_counter.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn g_dev_label(&self, st: &State, i: u32) -> u64 {
        if st.g_dev_touched[i as usize] {
            st.g_dev_label[i as usize]
        } else {
            self.g.initial_device_label(DeviceId::new(i))
        }
    }

    fn g_net_label(&self, st: &State, i: u32) -> u64 {
        let n = NetId::new(i);
        if self.g.is_global(n) {
            return self.g.initial_net_label(n);
        }
        if st.g_net_touched[i as usize] {
            st.g_net_label[i as usize]
        } else {
            0
        }
    }

    fn do_match(&self, st: &mut State, s_v: Vertex, g_v: Vertex) {
        let label = self.fresh_label(st);
        match (s_v, g_v) {
            (Vertex::Device(sd), Vertex::Device(gd)) => {
                st.set_s_dev_label(sd.index(), label);
                st.touch_s_dev(sd.index());
                st.set_s_dev_safe(sd.index());
                st.set_s_dev_match(sd.index(), gd.raw());
                st.set_g_dev_label(gd.raw(), label);
                st.set_g_dev_safe(gd.raw());
                st.set_g_dev_matched(gd.raw());
            }
            (Vertex::Net(sn), Vertex::Net(gn)) => {
                st.set_s_net_label(sn.index(), label);
                st.touch_s_net(sn.index());
                st.set_s_net_safe(sn.index());
                st.set_s_net_match(sn.index(), gn.raw());
                st.set_g_net_label(gn.raw(), label);
                st.set_g_net_safe(gn.raw());
                st.set_g_net_matched(gn.raw());
                if !self.opts.spread_from_port_images && self.s.is_port(sn) {
                    st.set_g_net_port_image(gn.raw());
                }
            }
            _ => unreachable!("guesses always pair same-kind vertices"),
        }
        st.matched += 1;
    }

    /// One Jacobi relabeling pass over both graphs: every unmatched
    /// vertex with at least one safe, non-global-net neighbor is
    /// relabeled from the labels of its safe neighbors.
    fn pass(&self, st: &mut State, sc: &mut Scratch) {
        // --- pattern side ---
        let s_dev_new = &mut sc.s_dev_new;
        s_dev_new.clear();
        for i in 0..st.s_dev.len() {
            if st.s_dev_match[i].is_some() {
                continue;
            }
            let d = DeviceId::new(i as u32);
            let triggered = self.s.device_neighbors(d).any(|(n, _)| {
                st.s_net_safe[n.index()]
                    && !self.s.is_global(n)
                    && !(!self.opts.spread_from_port_images
                        && st.s_net_match[n.index()].is_some()
                        && self.s.is_port(n))
            });
            if !triggered {
                continue;
            }
            let c = self
                .s
                .device_contribs(d, |n| st.s_net_safe[n.index()].then(|| st.s_net[n.index()]));
            s_dev_new.push((i as u32, hashing::relabel(st.s_dev[i], c.sum)));
        }
        let s_net_new = &mut sc.s_net_new;
        s_net_new.clear();
        for i in 0..st.s_net.len() {
            if st.s_net_match[i].is_some() || self.s.is_global(NetId::new(i as u32)) {
                continue;
            }
            let n = NetId::new(i as u32);
            let triggered = self
                .s
                .net_neighbors(n)
                .any(|(d, _)| st.s_dev_safe[d.index()]);
            if !triggered {
                continue;
            }
            let c = self
                .s
                .net_contribs(n, |d| st.s_dev_safe[d.index()].then(|| st.s_dev[d.index()]));
            s_net_new.push((i as u32, hashing::relabel(st.s_net[i], c.sum)));
        }
        // --- main side: collect frontier from the safe lists ---
        let g_dev_frontier = &mut sc.g_dev_frontier;
        g_dev_frontier.clear();
        for &ni in &st.g_net_safe_list {
            let n = NetId::new(ni);
            if self.g.is_global(n) || st.g_net_port_image[ni as usize] {
                continue; // rails and port images never trigger spreading
            }
            for (d, _) in self.g.net_neighbors(n) {
                if !st.g_dev_matched[d.index()] {
                    g_dev_frontier.push(d.raw());
                }
            }
        }
        g_dev_frontier.sort_unstable();
        g_dev_frontier.dedup();
        let g_net_frontier = &mut sc.g_net_frontier;
        g_net_frontier.clear();
        for &di in &st.g_dev_safe_list {
            let d = DeviceId::new(di);
            for (n, _) in self.g.device_neighbors(d) {
                if !self.g.is_global(n) && !st.g_net_matched[n.index()] {
                    g_net_frontier.push(n.raw());
                }
            }
        }
        g_net_frontier.sort_unstable();
        g_net_frontier.dedup();
        sc.g_dev_new.clear();
        for &i in &sc.g_dev_frontier {
            let d = DeviceId::new(i);
            let c = self.g.device_contribs(d, |n| {
                st.g_net_safe[n.index()].then(|| self.g_net_label(st, n.raw()))
            });
            sc.g_dev_new
                .push((i, hashing::relabel(self.g_dev_label(st, i), c.sum)));
        }
        sc.g_net_new.clear();
        for &i in &sc.g_net_frontier {
            let n = NetId::new(i);
            let c = self.g.net_contribs(n, |d| {
                st.g_dev_safe[d.index()].then(|| self.g_dev_label(st, d.raw()))
            });
            sc.g_net_new
                .push((i, hashing::relabel(self.g_net_label(st, i), c.sum)));
        }
        // --- commit (Jacobi) ---
        for &(i, l) in &sc.s_dev_new {
            st.set_s_dev_label(i as usize, l);
            st.touch_s_dev(i as usize);
        }
        for &(i, l) in &sc.s_net_new {
            st.set_s_net_label(i as usize, l);
            st.touch_s_net(i as usize);
        }
        for &(i, l) in &sc.g_dev_new {
            st.set_g_dev_label(i, l);
        }
        for &(i, l) in &sc.g_net_new {
            st.set_g_net_label(i, l);
        }
    }

    /// Fills `table` with the unmatched touched vertices of both graphs
    /// and sorts it into label runs (see [`Row`]).
    fn partitions(&self, st: &State, table: &mut Vec<Row>) {
        table.clear();
        let row = |kind, label, main, index| Row {
            kind,
            label,
            main,
            index,
        };
        for i in 0..st.s_dev.len() {
            if st.s_dev_match[i].is_none() && st.s_dev_touched[i] {
                table.push(row(DEVICE, st.s_dev[i], false, i as u32));
            }
        }
        for i in 0..st.s_net.len() {
            if st.s_net_match[i].is_none() && st.s_net_touched[i] {
                table.push(row(NET, st.s_net[i], false, i as u32));
            }
        }
        for &i in &st.g_dev_touched_list {
            if !st.g_dev_matched[i as usize] {
                table.push(row(DEVICE, st.g_dev_label[i as usize], true, i));
            }
        }
        for &i in &st.g_net_touched_list {
            if !st.g_net_matched[i as usize] {
                table.push(row(NET, st.g_net_label[i as usize], true, i));
            }
        }
        table.sort_unstable();
    }

    /// Consistency + safety + singleton matching. `Err(())` on a proven
    /// inconsistency; otherwise returns `(progress, complete)`.
    ///
    /// Partitions are processed in sorted `(kind, label)` order: the
    /// order determines which singleton gets the next fresh match label,
    /// and fixing it keeps every label value — and hence the event
    /// journal — identical across runs and thread counts.
    fn analyze(&self, st: &mut State, sc: &mut Scratch) -> Result<(bool, bool), ()> {
        self.partitions(st, &mut sc.table);
        let mut progress = false;
        sc.to_match.clear();
        for (kind, label, sv, gv) in runs(&sc.table) {
            if sv.is_empty() {
                continue; // main-graph-only garbage partition
            }
            if st.events.is_some() {
                let safe = sv.len() == gv.len();
                if let Some(ev) = st.events.as_mut() {
                    ev.push(EventKind::SafeLabelCheck {
                        label,
                        s_size: sv.len() as u32,
                        g_size: gv.len() as u32,
                        safe,
                    });
                }
            }
            if sv.len() > gv.len() {
                return Err(()); // Label Invariant (2) violated
            }
            if sv.len() == gv.len() {
                // Equal sizes: the G partition holds only images — safe.
                for r in sv {
                    progress |= if kind == DEVICE {
                        st.set_s_dev_safe(r.index as usize)
                    } else {
                        st.set_s_net_safe(r.index as usize)
                    };
                }
                for r in gv {
                    progress |= if kind == DEVICE {
                        st.set_g_dev_safe(r.index)
                    } else {
                        st.set_g_net_safe(r.index)
                    };
                }
                if sv.len() == 1 {
                    sc.to_match.push((kind, sv[0].index, gv[0].index));
                }
            }
        }
        for &(kind, si, gi) in &sc.to_match {
            self.do_match(st, vertex(kind, si), vertex(kind, gi));
            progress = true;
        }
        Ok((progress, st.matched == self.total_s()))
    }

    fn snapshot(&self, st: &State) -> TraceSnapshot {
        let cell_s_dev = |i: usize| TraceCell {
            label: st.s_dev[i],
            touched: st.s_dev_touched[i],
            safe: st.s_dev_safe[i],
            matched: st.s_dev_match[i].is_some(),
        };
        let cell_s_net = |i: usize| TraceCell {
            label: st.s_net[i],
            touched: st.s_net_touched[i],
            safe: st.s_net_safe[i],
            matched: st.s_net_match[i].is_some(),
        };
        let mut g_devices: Vec<(u32, TraceCell)> = st
            .g_dev_touched_list
            .iter()
            .map(|&i| {
                (
                    i,
                    TraceCell {
                        label: st.g_dev_label[i as usize],
                        touched: true,
                        safe: st.g_dev_safe[i as usize],
                        matched: st.g_dev_matched[i as usize],
                    },
                )
            })
            .collect();
        g_devices.sort_unstable_by_key(|&(i, _)| i);
        let mut g_nets: Vec<(u32, TraceCell)> = st
            .g_net_touched_list
            .iter()
            .map(|&i| {
                (
                    i,
                    TraceCell {
                        label: st.g_net_label[i as usize],
                        touched: true,
                        safe: st.g_net_safe[i as usize],
                        matched: st.g_net_matched[i as usize],
                    },
                )
            })
            .collect();
        g_nets.sort_unstable_by_key(|&(i, _)| i);
        TraceSnapshot {
            s_devices: (0..st.s_dev.len()).map(cell_s_dev).collect(),
            s_nets: (0..st.s_net.len()).map(cell_s_net).collect(),
            g_devices,
            g_nets,
        }
    }

    /// Runs relabeling passes until completion, failure, or a stall.
    /// On `Fail` the state is left dirty — the caller rolls back.
    fn refine(&self, st: &mut State, sc: &mut Scratch, stats: &mut Phase2Stats) -> Refined {
        for _ in 0..self.opts.max_passes_per_candidate {
            stats.passes += 1;
            self.pass(st, sc);
            let analyzed = self.analyze(st, sc);
            if st.trace.is_some() {
                let snap = self.snapshot(st);
                if let Some(trace) = st.trace.as_mut() {
                    trace.passes.push(snap);
                }
            }
            match analyzed {
                Err(()) => return Refined::Fail,
                Ok((_, true)) => return Refined::Complete,
                Ok((false, false)) => return Refined::Stuck,
                Ok((true, false)) => {}
            }
        }
        // Pass budget exhausted while still progressing: guessing may
        // still resolve it, but the exhaustion must surface as its own
        // reject reason if the candidate ultimately fails.
        Refined::PassBudget
    }

    /// Chooses the next ambiguity to guess on: the unmatched pattern
    /// vertex whose label has the smallest main-graph partition. Its
    /// candidate images go on top of `sc.guesses`; returns the vertex
    /// and their range there.
    fn choose_guess(&self, st: &State, sc: &mut Scratch) -> Option<(Vertex, Range<usize>)> {
        let start = sc.guesses.len();
        self.partitions(st, &mut sc.table);
        // Runs come in ascending `(kind, label)` order and `min_by_key`
        // keeps the first minimum: the smallest `(g_len, kind, label)`.
        let best = runs(&sc.table)
            .filter(|(_, _, sv, gv)| !sv.is_empty() && gv.len() >= sv.len())
            .min_by_key(|(_, _, _, gv)| gv.len());
        if let Some((kind, _, sv, gv)) = best {
            sc.guesses.extend(gv.iter().map(|r| vertex(kind, r.index)));
            return Some((vertex(kind, sv[0].index), start..sc.guesses.len()));
        }
        // Anchored fallback: a pattern device that was never reached by
        // spreading (all its nets are rails or suppressed port images)
        // but has at least one *matched* pin. Its image must sit on the
        // images of those pins, so enumerate the smallest such fanout
        // instead of relabeling it wholesale — this keeps port-image
        // suppression linear without losing completeness. The best
        // device's candidates so far sit on the guess stack.
        let mut anchored: Option<u32> = None;
        for i in 0..st.s_dev.len() {
            if st.s_dev_match[i].is_some() || st.s_dev_touched[i] {
                continue;
            }
            let sd = DeviceId::new(i as u32);
            // Matched pins as (class multiplier, image net) requirements.
            let required = &mut sc.required;
            required.clear();
            for (n, mult) in self.s.device_neighbors(sd) {
                if let Some(g) = st.s_net_match[n.index()] {
                    required.push((mult, g));
                }
            }
            if required.is_empty() {
                continue;
            }
            // Anchor on the matched image with the smallest fanout.
            let &(_, anchor) = required
                .iter()
                .min_by_key(|&&(_, g)| self.g.net_degree(NetId::new(g)))
                .expect("required is non-empty");
            required.sort_unstable();
            let want = self.s.initial_device_label(sd);
            sc.cands.clear();
            for (gd, _) in self.g.net_neighbors(NetId::new(anchor)) {
                if st.g_dev_matched[gd.index()] || self.g.initial_device_label(gd) != want {
                    continue;
                }
                // The candidate's pins must cover every matched-pin
                // requirement (sub-multiset check).
                let have = &mut sc.have;
                have.clear();
                have.extend(self.g.device_neighbors(gd).map(|(n, mult)| (mult, n.raw())));
                have.sort_unstable();
                let mut hi = 0;
                let covered = required.iter().all(|req| {
                    while hi < have.len() && have[hi] < *req {
                        hi += 1;
                    }
                    if hi < have.len() && have[hi] == *req {
                        hi += 1;
                        true
                    } else {
                        false
                    }
                });
                if covered && !sc.cands.contains(&Vertex::Device(gd)) {
                    sc.cands.push(Vertex::Device(gd));
                }
            }
            if sc.cands.is_empty() {
                // An unreachable device with no possible image: fail the
                // branch outright.
                sc.guesses.truncate(start);
                return None;
            }
            if anchored.is_none() || sc.cands.len() < sc.guesses.len() - start {
                anchored = Some(i as u32);
                sc.guesses.truncate(start);
                sc.guesses.extend_from_slice(&sc.cands);
            }
        }
        if let Some(i) = anchored {
            return Some((Vertex::Device(DeviceId::new(i)), start..sc.guesses.len()));
        }
        // Last resort for disconnected patterns: anchor the first
        // untouched pattern device on any unmatched main device still
        // carrying the same initial label.
        let i =
            (0..st.s_dev.len()).find(|&i| st.s_dev_match[i].is_none() && !st.s_dev_touched[i])?;
        let want = st.s_dev[i]; // untouched: still the initial label
        sc.guesses.extend(
            (0..self.g.device_count() as u32)
                .filter(|&gi| !st.g_dev_matched[gi as usize] && self.g_dev_label(st, gi) == want)
                .map(|gi| Vertex::Device(DeviceId::new(gi))),
        );
        let cands = start..sc.guesses.len();
        (!cands.is_empty()).then(|| (Vertex::Device(DeviceId::new(i as u32)), cands))
    }

    fn build_submatch(&self, st: &State) -> SubMatch {
        SubMatch {
            devices: st
                .s_dev_match
                .iter()
                .map(|m| DeviceId::new(m.expect("complete mapping")))
                .collect(),
            nets: st
                .s_net_match
                .iter()
                .map(|m| NetId::new(m.expect("complete mapping")))
                .collect(),
        }
    }

    /// The recursive `VerifyImage(K, CV)` of §IV, for one key and the
    /// candidates `sc.guesses[cands]`. `depth > 0` calls are ambiguity
    /// guesses and consume the guess budget. Returns the verified
    /// mapping with the state left in the completed configuration, or
    /// `None` with the state rolled back to where the caller left it.
    /// Either way the guess stack is truncated back to `cands.start`.
    #[allow(clippy::too_many_arguments)]
    fn verify_image(
        &self,
        st: &mut State,
        sc: &mut Scratch,
        s_v: Vertex,
        cands: Range<usize>,
        stats: &mut Phase2Stats,
        guesses_left: &mut usize,
        depth: usize,
    ) -> Option<SubMatch> {
        let mut found = None;
        for k in cands.clone() {
            if depth > 0 {
                if *guesses_left == 0 {
                    break;
                }
                *guesses_left -= 1;
                stats.guesses += 1;
            }
            let mark = st.mark();
            self.do_match(st, s_v, sc.guesses[k]);
            if st.trace.is_some() {
                let snap = self.snapshot(st);
                if let Some(trace) = st.trace.as_mut() {
                    trace.passes.push(snap);
                }
            }
            let reason = match self.refine(st, sc, stats) {
                Refined::Complete => {
                    // The found instance needs this mapping anyway, so
                    // it is built before the structural check.
                    let m = self.build_submatch(st);
                    let (pattern, main) = (self.pattern, self.main);
                    let checked =
                        verify_with(pattern, main, &m, self.opts.respect_globals, &mut sc.verify);
                    if checked.is_ok() {
                        found = Some(m);
                        break;
                    }
                    // Label collision survived to completion: reject.
                    RejectReason::LabelConflict
                }
                Refined::Fail => RejectReason::UnsafePartition,
                refined @ (Refined::Stuck | Refined::PassBudget) => {
                    let passes_out = matches!(refined, Refined::PassBudget);
                    match self.choose_guess(st, sc) {
                        Some((s_next, next)) => {
                            found = self.verify_image(
                                st,
                                sc,
                                s_next,
                                next,
                                stats,
                                guesses_left,
                                depth + 1,
                            );
                            if found.is_some() {
                                break;
                            }
                            // The pass budget is the root cause when the
                            // stall itself came from exhausting it.
                            if passes_out {
                                RejectReason::PassBudgetExhausted
                            } else if *guesses_left == 0 {
                                RejectReason::BudgetExhausted
                            } else {
                                RejectReason::BacktrackExhausted
                            }
                        }
                        None => {
                            if passes_out {
                                RejectReason::PassBudgetExhausted
                            } else {
                                RejectReason::NoViableGuess
                            }
                        }
                    }
                }
            };
            let undo_ops = st.undo.len() - mark.undo_len;
            st.rollback(&mark);
            if depth > 0 {
                stats.backtracks += 1;
                if let Some(ev) = st.events.as_mut() {
                    ev.push(EventKind::Backtrack {
                        depth: depth as u32,
                        undo_ops: undo_ops as u32,
                    });
                }
                if let Some(h) = st.backtrack_hist.as_mut() {
                    h.record(depth as u64);
                }
            } else {
                st.last_reject = Some(reason);
            }
        }
        sc.guesses.truncate(cands.start);
        found
    }

    /// Verifies one candidate from the candidate vector against a
    /// reusable search state (see [`make_state`](Self::make_state)).
    /// Returns the instance (and its trace if enabled); the state is
    /// always restored to the base configuration before returning.
    /// `rank` is the candidate's index in the candidate vector — the
    /// deterministic scope of its journal events.
    pub fn run_candidate(
        &self,
        search: &mut SearchState,
        key: Vertex,
        candidate: Vertex,
        rank: u32,
        stats: &mut Phase2Stats,
        record_trace: bool,
    ) -> Option<(SubMatch, Option<Phase2Trace>)> {
        stats.candidates_tried += 1;
        if let Some(ev) = search.state.events.as_mut() {
            ev.begin_candidate(rank);
            ev.push(EventKind::CandidateBegin { c: candidate });
        }
        let reject = |search: &mut SearchState, stats: &mut Phase2Stats, reason: RejectReason| {
            stats.false_candidates += 1;
            if let Some(t) = search.state.reject_tally.as_mut() {
                t.bump(reason);
            }
            if let Some(ev) = search.state.events.as_mut() {
                ev.push(EventKind::Reject { reason });
                ev.push(EventKind::CandidateEnd {
                    c: candidate,
                    matched: false,
                });
            }
        };
        // Reject same-kind mismatches immediately (cannot happen with a
        // well-formed candidate vector, but keeps the API total).
        if key.is_device() != candidate.is_device() {
            reject(search, stats, RejectReason::KindMismatch);
            return None;
        }
        // Quick type check for device keys.
        if let (Vertex::Device(sd), Vertex::Device(gd)) = (key, candidate) {
            if self.s.initial_device_label(sd) != self.g.initial_device_label(gd) {
                reject(search, stats, RejectReason::DegreeMismatch);
                return None;
            }
        }
        let st = &mut search.state;
        let sc = &mut search.scratch;
        st.trace = record_trace.then(Phase2Trace::default);
        st.last_reject = None;
        let base_mark = Mark {
            undo_len: 0,
            matched: search.base_matched,
            label_counter: 0,
            trace_len: 0,
        };
        let mut guesses_left = self.opts.max_guesses_per_candidate;
        // Fault injection (test-only; folds to nothing in release): a
        // guess storm burns budget through the real counters so every
        // thread count charges this candidate identically; a stall just
        // sleeps here.
        match crate::budget::failpoint::get("phase2.candidate") {
            Some(crate::budget::failpoint::Action::GuessStorm(n)) => {
                let burn = (n as usize).min(guesses_left);
                guesses_left -= burn;
                stats.guesses += burn;
            }
            Some(crate::budget::failpoint::Action::StallMs(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            _ => {}
        }
        let start = sc.guesses.len();
        sc.guesses.push(candidate);
        let found = self.verify_image(st, sc, key, start..start + 1, stats, &mut guesses_left, 0);
        let out = if let Some(m) = found {
            Some((m, st.trace.take()))
        } else {
            stats.false_candidates += 1;
            let reason = st.last_reject.unwrap_or(RejectReason::NoViableGuess);
            if let Some(t) = st.reject_tally.as_mut() {
                t.bump(reason);
            }
            if let Some(ev) = st.events.as_mut() {
                ev.push(EventKind::Reject { reason });
            }
            None
        };
        if let Some(ev) = st.events.as_mut() {
            ev.push(EventKind::CandidateEnd {
                c: candidate,
                matched: out.is_some(),
            });
        }
        st.rollback(&base_mark);
        st.trace = None;
        out
    }
}

/// Per-worker accumulator for candidate verification wall-clock:
/// summed, maximum, and a log2-bucket latency histogram.
#[derive(Debug, Default)]
pub struct CandidateTiming {
    /// Summed verification time (ns).
    pub sum_ns: u64,
    /// Longest single-candidate verification (ns).
    pub max_ns: u64,
    /// Per-candidate latency distribution.
    pub hist: Histogram,
}

/// Opaque candidate-independent Phase II pre-match recipe (globals
/// matched by name). Materialize with
/// [`Phase2Runner::make_state`].
pub struct BaseState {
    prematch: Vec<(u32, u32, u64)>,
}

/// A reusable dense search state: build once per worker, pass to
/// [`Phase2Runner::run_candidate`] for every candidate. The undo log
/// guarantees each call leaves it back in the base configuration.
pub struct SearchState {
    state: State,
    scratch: Scratch,
    base_matched: usize,
}

impl SearchState {
    /// Takes the worker's backtrack-depth histogram (empties the slot).
    pub fn take_backtrack_hist(&mut self) -> Option<Histogram> {
        self.state.backtrack_hist.take()
    }

    /// Drains the events recorded since the last drain, leaving the
    /// buffer in place (empty) for the next candidate, so a reused
    /// search state keeps recording per candidate.
    pub fn drain_events(&mut self) -> Option<EventBuffer> {
        self.state.events.as_mut().map(EventBuffer::drain)
    }

    /// Drains the reject tallies accumulated since the last drain,
    /// leaving a zeroed tally in place for the next candidate.
    pub fn drain_reject_tally(&mut self) -> Option<RejectTally> {
        self.state.reject_tally.as_mut().map(std::mem::take)
    }
}
