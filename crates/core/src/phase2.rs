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
//! State is one plane of dense `Vec`s per vertex kind on each side,
//! indexed by kind ([`DEVICE`], [`NET`]) and then by vertex over the
//! [`CompiledCircuit`]s, with an **undo log** instead of per-branch
//! cloning: every mutation during search goes through the field's one
//! logged setter, which records its inverse, a [`Mark`] captures the
//! log position before a guess, and backtracking truncates the log —
//! `O(touched)` per branch.
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

/// Vertex kinds, the index of every kind-indexed array: devices sort
/// before nets.
const DEVICE: usize = 0;
const NET: usize = 1;

/// One inverse operation on the search state: one variant per field,
/// each naming the vertex's kind. Rolling the log back in LIFO order
/// restores the exact prior state (list pushes pair with their flag
/// sets, so pops stay aligned).
enum UndoOp {
    SLabel(u8, u32, u64),
    STouched(u8, u32),
    SSafe(u8, u32),
    SImage(u8, u32),
    /// Restore a previously *touched* main vertex's label.
    GLabel(u8, u32, u64),
    /// First touch of a main vertex: clears the flag, pops the touched
    /// list and restores the label slot it overwrote.
    GTouched(u8, u32, u64),
    GSafe(u8, u32),
    GMatched(u8, u32),
    PortImage(u32),
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

/// One kind's pattern-side state, dense over the pattern's vertices of
/// that kind.
#[derive(Clone, Debug, PartialEq)]
struct PatternPlane {
    label: Vec<u64>,
    touched: Vec<bool>,
    safe: Vec<bool>,
    /// The matched main vertex.
    image: Vec<Option<u32>>,
}

impl PatternPlane {
    fn new(label: Vec<u64>) -> Self {
        let n = label.len();
        Self {
            label,
            touched: vec![false; n],
            safe: vec![false; n],
            image: vec![None; n],
        }
    }
}

/// One kind's main-side state: dense flags over the main graph's
/// vertices of that kind, with sparsity recovered through the touched
/// and safe index lists.
#[derive(Clone, Debug, PartialEq)]
struct MainPlane {
    /// A slot is meaningful only while the touched flag is set.
    label: Vec<u64>,
    touched: Vec<bool>,
    safe: Vec<bool>,
    matched: Vec<bool>,
    /// Sparse iteration orders for the dense flags above.
    touched_list: Vec<u32>,
    safe_list: Vec<u32>,
}

impl MainPlane {
    fn new(n: usize) -> Self {
        Self {
            label: vec![0; n],
            touched: vec![false; n],
            safe: vec![false; n],
            matched: vec![false; n],
            touched_list: Vec::new(),
            safe_list: Vec::new(),
        }
    }
}

/// Mutable search state for one candidate: one plane per kind on each
/// side, indexed by [`DEVICE`] and [`NET`].
struct State {
    s: [PatternPlane; 2],
    g: [MainPlane; 2],
    /// Main-graph nets matched to *port* (external) pattern nets. Such
    /// images may have arbitrary main-circuit fanout (think a shared
    /// clock), so — like global rails — they never trigger spreading
    /// unless the option re-enables it.
    port_image: Vec<bool>,
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
    /// Reject-reason tallies of the candidates since the last drain.
    reject_tally: RejectTally,
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
                UndoOp::SLabel(k, i, l) => self.s[k as usize].label[i as usize] = l,
                UndoOp::STouched(k, i) => self.s[k as usize].touched[i as usize] = false,
                UndoOp::SSafe(k, i) => self.s[k as usize].safe[i as usize] = false,
                UndoOp::SImage(k, i) => self.s[k as usize].image[i as usize] = None,
                UndoOp::GLabel(k, i, l) => self.g[k as usize].label[i as usize] = l,
                UndoOp::GTouched(k, i, l) => {
                    let g = &mut self.g[k as usize];
                    g.touched[i as usize] = false;
                    g.label[i as usize] = l;
                    let popped = g.touched_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GSafe(k, i) => {
                    let g = &mut self.g[k as usize];
                    g.safe[i as usize] = false;
                    let popped = g.safe_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GMatched(k, i) => self.g[k as usize].matched[i as usize] = false,
                UndoOp::PortImage(i) => self.port_image[i as usize] = false,
            }
        }
        self.matched = m.matched;
        self.label_counter = m.label_counter;
        if let Some(t) = self.trace.as_mut() {
            t.passes.truncate(m.trace_len);
        }
    }

    // --- logged setters (every hot-path mutation goes through these) ---

    fn set_s_label(&mut self, kind: usize, i: u32, l: u64) {
        let old = self.s[kind].label[i as usize];
        if old != l {
            self.undo.push(UndoOp::SLabel(kind as u8, i, old));
            self.s[kind].label[i as usize] = l;
        }
    }

    fn touch_s(&mut self, kind: usize, i: u32) {
        if !self.s[kind].touched[i as usize] {
            self.s[kind].touched[i as usize] = true;
            self.undo.push(UndoOp::STouched(kind as u8, i));
        }
    }

    fn set_s_safe(&mut self, kind: usize, i: u32) -> bool {
        if self.s[kind].safe[i as usize] {
            return false;
        }
        self.s[kind].safe[i as usize] = true;
        self.undo.push(UndoOp::SSafe(kind as u8, i));
        true
    }

    fn set_s_image(&mut self, kind: usize, i: u32, g: u32) {
        debug_assert!(self.s[kind].image[i as usize].is_none());
        self.s[kind].image[i as usize] = Some(g);
        self.undo.push(UndoOp::SImage(kind as u8, i));
    }

    fn set_g_label(&mut self, kind: usize, i: u32, l: u64) {
        let g = &mut self.g[kind];
        let old = g.label[i as usize];
        if g.touched[i as usize] {
            self.undo.push(UndoOp::GLabel(kind as u8, i, old));
        } else {
            g.touched[i as usize] = true;
            g.touched_list.push(i);
            self.undo.push(UndoOp::GTouched(kind as u8, i, old));
        }
        g.label[i as usize] = l;
    }

    fn set_g_safe(&mut self, kind: usize, i: u32) -> bool {
        let g = &mut self.g[kind];
        if g.safe[i as usize] {
            return false;
        }
        g.safe[i as usize] = true;
        g.safe_list.push(i);
        self.undo.push(UndoOp::GSafe(kind as u8, i));
        true
    }

    fn set_g_matched(&mut self, kind: usize, i: u32) {
        debug_assert!(!self.g[kind].matched[i as usize]);
        self.g[kind].matched[i as usize] = true;
        self.undo.push(UndoOp::GMatched(kind as u8, i));
    }

    fn set_port_image(&mut self, i: u32) {
        if !self.port_image[i as usize] {
            self.port_image[i as usize] = true;
            self.undo.push(UndoOp::PortImage(i));
        }
    }

    /// Matches pattern vertex `si` to main vertex `gi` of `kind` under
    /// `label`: both become touched, safe and matched.
    fn match_pair(&mut self, kind: usize, si: u32, gi: u32, label: u64) {
        self.set_s_label(kind, si, label);
        self.touch_s(kind, si);
        self.set_s_safe(kind, si);
        self.set_s_image(kind, si, gi);
        self.set_g_label(kind, gi, label);
        self.set_g_safe(kind, gi);
        self.set_g_matched(kind, gi);
        self.matched += 1;
    }
}

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
fn runs(table: &[Row]) -> impl Iterator<Item = (usize, u64, &[Row], &[Row])> {
    table
        .chunk_by(|a, b| (a.kind, a.label) == (b.kind, b.label))
        .map(|run| {
            let (sv, gv) = run.split_at(run.partition_point(|r| !r.main));
            (run[0].kind as usize, run[0].label, sv, gv)
        })
}

/// A vertex as its kind and index.
fn kind_index(v: Vertex) -> (usize, u32) {
    match v {
        Vertex::Device(d) => (DEVICE, d.raw()),
        Vertex::Net(n) => (NET, n.raw()),
    }
}

/// Per-worker buffers for everything a candidate needs besides the
/// search state itself, reused across passes, guesses and candidates.
#[derive(Default)]
struct Scratch {
    /// The partition table (see [`Row`]).
    table: Vec<Row>,
    /// Singleton partitions `analyze` matches after its scan.
    to_match: Vec<(usize, u32, u32)>,
    /// A pass's main-side frontiers and new labels per side, by kind.
    frontier: [Vec<u32>; 2],
    s_new: [Vec<(u32, u64)>; 2],
    g_new: [Vec<(u32, u64)>; 2],
    /// Candidate images of every open guess, innermost on top: each
    /// `verify_image` call owns a range and truncates back to its start.
    guesses: Vec<u32>,
    /// The anchored fallback's matched-pin requirements, one main
    /// device's pins, and one pattern device's candidates.
    required: Vec<(u64, u32)>,
    have: Vec<(u64, u32)>,
    cands: Vec<u32>,
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
        let device_labels = (0..self.s.device_count())
            .map(|i| self.s.initial_device_label(DeviceId::new(i as u32)))
            .collect();
        let mut st = State {
            s: [
                PatternPlane::new(device_labels),
                PatternPlane::new(vec![0; self.s.net_count()]),
            ],
            g: [
                MainPlane::new(self.g.device_count()),
                MainPlane::new(self.g.net_count()),
            ],
            port_image: vec![false; self.g.net_count()],
            matched: 0,
            label_counter: 0,
            undo: Vec::new(),
            trace: None,
            events: self
                .opts
                .trace_events
                .then(|| EventBuffer::new(self.opts.trace_events_cap)),
            backtrack_hist: self.opts.collect_metrics.then(Histogram::default),
            reject_tally: RejectTally::default(),
            last_reject: None,
        };
        // The pre-matches form the permanent floor of the state: with
        // their log entries dropped, they survive every rollback.
        for &(si, gi, label) in &base.prematch {
            debug_assert_eq!(label, self.g.initial_net_label(NetId::new(gi)));
            st.match_pair(NET, si, gi, label);
        }
        st.undo.clear();
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

    /// The current label of main vertex `i` of `kind`: its logged label
    /// once touched, else its starting label — a device's type label, a
    /// global net's fixed label, 0 for any other net. (A global is
    /// touched only by its pre-match, under that same fixed label.)
    fn g_label(&self, st: &State, kind: usize, i: u32) -> u64 {
        let g = &st.g[kind];
        if g.touched[i as usize] {
            g.label[i as usize]
        } else if kind == DEVICE {
            self.g.initial_device_label(DeviceId::new(i))
        } else if self.g.is_global(NetId::new(i)) {
            self.g.initial_net_label(NetId::new(i))
        } else {
            0
        }
    }

    fn do_match(&self, st: &mut State, kind: usize, si: u32, gi: u32) {
        let label = self.fresh_label(st);
        st.match_pair(kind, si, gi, label);
        if kind == NET && !self.opts.spread_from_port_images && self.s.is_port(NetId::new(si)) {
            st.set_port_image(gi);
        }
    }

    /// One Jacobi relabeling pass over both graphs: every unmatched
    /// vertex with at least one safe, non-global-net neighbor is
    /// relabeled from the labels of its safe neighbors.
    fn pass(&self, st: &mut State, sc: &mut Scratch) {
        // --- pattern side ---
        let (sd, sn) = (&st.s[DEVICE], &st.s[NET]);
        let new = &mut sc.s_new[DEVICE];
        new.clear();
        for i in 0..sd.label.len() {
            if sd.image[i].is_some() {
                continue;
            }
            let d = DeviceId::new(i as u32);
            let triggered = self.s.device_neighbors(d).any(|(n, _)| {
                sn.safe[n.index()]
                    && !self.s.is_global(n)
                    && !(!self.opts.spread_from_port_images
                        && sn.image[n.index()].is_some()
                        && self.s.is_port(n))
            });
            if !triggered {
                continue;
            }
            let c = self
                .s
                .device_contribs(d, |n| sn.safe[n.index()].then(|| sn.label[n.index()]));
            new.push((i as u32, hashing::relabel(sd.label[i], c.sum)));
        }
        let new = &mut sc.s_new[NET];
        new.clear();
        for i in 0..sn.label.len() {
            let n = NetId::new(i as u32);
            if sn.image[i].is_some() || self.s.is_global(n) {
                continue;
            }
            let triggered = self.s.net_neighbors(n).any(|(d, _)| sd.safe[d.index()]);
            if !triggered {
                continue;
            }
            let c = self
                .s
                .net_contribs(n, |d| sd.safe[d.index()].then(|| sd.label[d.index()]));
            new.push((i as u32, hashing::relabel(sn.label[i], c.sum)));
        }
        // --- main side: collect frontier from the safe lists ---
        let (gd, gn) = (&st.g[DEVICE], &st.g[NET]);
        let frontier = &mut sc.frontier[DEVICE];
        frontier.clear();
        for &ni in &gn.safe_list {
            let n = NetId::new(ni);
            if self.g.is_global(n) || st.port_image[ni as usize] {
                continue; // rails and port images never trigger spreading
            }
            for (d, _) in self.g.net_neighbors(n) {
                if !gd.matched[d.index()] {
                    frontier.push(d.raw());
                }
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        let frontier = &mut sc.frontier[NET];
        frontier.clear();
        for &di in &gd.safe_list {
            for (n, _) in self.g.device_neighbors(DeviceId::new(di)) {
                if !self.g.is_global(n) && !gn.matched[n.index()] {
                    frontier.push(n.raw());
                }
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        let new = &mut sc.g_new[DEVICE];
        new.clear();
        for &i in &sc.frontier[DEVICE] {
            let c = self.g.device_contribs(DeviceId::new(i), |n| {
                gn.safe[n.index()].then(|| self.g_label(st, NET, n.raw()))
            });
            new.push((i, hashing::relabel(self.g_label(st, DEVICE, i), c.sum)));
        }
        let new = &mut sc.g_new[NET];
        new.clear();
        for &i in &sc.frontier[NET] {
            let c = self.g.net_contribs(NetId::new(i), |d| {
                gd.safe[d.index()].then(|| self.g_label(st, DEVICE, d.raw()))
            });
            new.push((i, hashing::relabel(self.g_label(st, NET, i), c.sum)));
        }
        // --- commit (Jacobi) ---
        for kind in [DEVICE, NET] {
            for &(i, l) in &sc.s_new[kind] {
                st.set_s_label(kind, i, l);
                st.touch_s(kind, i);
            }
        }
        for kind in [DEVICE, NET] {
            for &(i, l) in &sc.g_new[kind] {
                st.set_g_label(kind, i, l);
            }
        }
    }

    /// Fills `table` with the unmatched touched vertices of both graphs
    /// and sorts it into label runs (see [`Row`]).
    fn partitions(&self, st: &State, table: &mut Vec<Row>) {
        table.clear();
        for kind in [DEVICE, NET] {
            let row = |label, main, index| Row {
                kind: kind as u8,
                label,
                main,
                index,
            };
            let s = &st.s[kind];
            for i in 0..s.label.len() {
                if s.image[i].is_none() && s.touched[i] {
                    table.push(row(s.label[i], false, i as u32));
                }
            }
            let g = &st.g[kind];
            for &i in &g.touched_list {
                if !g.matched[i as usize] {
                    table.push(row(g.label[i as usize], true, i));
                }
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
                    progress |= st.set_s_safe(kind, r.index);
                }
                for r in gv {
                    progress |= st.set_g_safe(kind, r.index);
                }
                if sv.len() == 1 {
                    sc.to_match.push((kind, sv[0].index, gv[0].index));
                }
            }
        }
        for &(kind, si, gi) in &sc.to_match {
            self.do_match(st, kind, si, gi);
            progress = true;
        }
        Ok((progress, st.matched == self.total_s()))
    }

    fn snapshot(&self, st: &State) -> TraceSnapshot {
        let s_cells = |kind: usize| {
            let s = &st.s[kind];
            (0..s.label.len())
                .map(|i| TraceCell {
                    label: s.label[i],
                    touched: s.touched[i],
                    safe: s.safe[i],
                    matched: s.image[i].is_some(),
                })
                .collect()
        };
        let g_cells = |kind: usize| {
            let g = &st.g[kind];
            let mut cells: Vec<(u32, TraceCell)> = g
                .touched_list
                .iter()
                .map(|&i| {
                    let cell = TraceCell {
                        label: g.label[i as usize],
                        touched: true,
                        safe: g.safe[i as usize],
                        matched: g.matched[i as usize],
                    };
                    (i, cell)
                })
                .collect();
            cells.sort_unstable_by_key(|&(i, _)| i);
            cells
        };
        TraceSnapshot {
            s_devices: s_cells(DEVICE),
            s_nets: s_cells(NET),
            g_devices: g_cells(DEVICE),
            g_nets: g_cells(NET),
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
    /// candidate images (main indices of the same kind) go on top of
    /// `sc.guesses`; returns the vertex's kind and index and their
    /// range there.
    fn choose_guess(&self, st: &State, sc: &mut Scratch) -> Option<(usize, u32, Range<usize>)> {
        let start = sc.guesses.len();
        self.partitions(st, &mut sc.table);
        // Runs come in ascending `(kind, label)` order and `min_by_key`
        // keeps the first minimum: the smallest `(g_len, kind, label)`.
        let best = runs(&sc.table)
            .filter(|(_, _, sv, gv)| !sv.is_empty() && gv.len() >= sv.len())
            .min_by_key(|(_, _, _, gv)| gv.len());
        if let Some((kind, _, sv, gv)) = best {
            sc.guesses.extend(gv.iter().map(|r| r.index));
            return Some((kind, sv[0].index, start..sc.guesses.len()));
        }
        // Anchored fallback: a pattern device that was never reached by
        // spreading (all its nets are rails or suppressed port images)
        // but has at least one *matched* pin. Its image must sit on the
        // images of those pins, so enumerate the smallest such fanout
        // instead of relabeling it wholesale — this keeps port-image
        // suppression linear without losing completeness. The best
        // device's candidates so far sit on the guess stack.
        let (sd, sn, gd) = (&st.s[DEVICE], &st.s[NET], &st.g[DEVICE]);
        let mut anchored: Option<u32> = None;
        for i in 0..sd.label.len() {
            if sd.image[i].is_some() || sd.touched[i] {
                continue;
            }
            let d = DeviceId::new(i as u32);
            // Matched pins as (class multiplier, image net) requirements.
            let required = &mut sc.required;
            required.clear();
            for (n, mult) in self.s.device_neighbors(d) {
                if let Some(g) = sn.image[n.index()] {
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
            let want = self.s.initial_device_label(d);
            sc.cands.clear();
            for (cand, _) in self.g.net_neighbors(NetId::new(anchor)) {
                if gd.matched[cand.index()] || self.g.initial_device_label(cand) != want {
                    continue;
                }
                // The candidate's pins must cover every matched-pin
                // requirement (sub-multiset check).
                let have = &mut sc.have;
                have.clear();
                have.extend(
                    self.g
                        .device_neighbors(cand)
                        .map(|(n, mult)| (mult, n.raw())),
                );
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
                if covered && !sc.cands.contains(&cand.raw()) {
                    sc.cands.push(cand.raw());
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
            return Some((DEVICE, i, start..sc.guesses.len()));
        }
        // Last resort for disconnected patterns: anchor the first
        // untouched pattern device on any unmatched main device still
        // carrying the same initial label.
        let i = (0..sd.label.len()).find(|&i| sd.image[i].is_none() && !sd.touched[i])?;
        let want = sd.label[i]; // untouched: still the initial label
        sc.guesses.extend(
            (0..self.g.device_count() as u32)
                .filter(|&gi| !gd.matched[gi as usize] && self.g_label(st, DEVICE, gi) == want),
        );
        let cands = start..sc.guesses.len();
        (!cands.is_empty()).then_some((DEVICE, i as u32, cands))
    }

    fn build_submatch(&self, st: &State) -> SubMatch {
        let images = |kind: usize| {
            st.s[kind]
                .image
                .iter()
                .map(|m| m.expect("complete mapping"))
        };
        SubMatch {
            devices: images(DEVICE).map(DeviceId::new).collect(),
            nets: images(NET).map(NetId::new).collect(),
        }
    }

    /// The recursive `VerifyImage(K, CV)` of §IV, for the pattern
    /// vertex `si` of `kind` and the candidates `sc.guesses[cands]`.
    /// `depth > 0` calls are ambiguity guesses and consume the guess
    /// budget. Returns the verified mapping with the state left in the
    /// completed configuration, or `None` with the state rolled back to
    /// where the caller left it. Either way the guess stack is truncated
    /// back to `cands.start`.
    #[allow(clippy::too_many_arguments)]
    fn verify_image(
        &self,
        st: &mut State,
        sc: &mut Scratch,
        kind: usize,
        si: u32,
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
            self.do_match(st, kind, si, sc.guesses[k]);
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
                        Some((next_kind, next, next_cands)) => {
                            found = self.verify_image(
                                st,
                                sc,
                                next_kind,
                                next,
                                next_cands,
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
            search.state.reject_tally.bump(reason);
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
        let (kind, si) = kind_index(key);
        let start = sc.guesses.len();
        sc.guesses.push(kind_index(candidate).1);
        let cands = start..start + 1;
        let found = self.verify_image(st, sc, kind, si, cands, stats, &mut guesses_left, 0);
        let out = if let Some(m) = found {
            Some((m, st.trace.take()))
        } else {
            stats.false_candidates += 1;
            let reason = st.last_reject.unwrap_or(RejectReason::NoViableGuess);
            st.reject_tally.bump(reason);
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
    pub fn drain_reject_tally(&mut self) -> RejectTally {
        std::mem::take(&mut self.state.reject_tally)
    }
}

#[cfg(test)]
mod tests {
    use subgemini_netlist::rng::Rng64;
    use subgemini_workloads::{cells, gen};

    use super::*;

    /// Everything of a [`State`] that a rollback restores.
    #[derive(Debug, PartialEq)]
    struct Frozen {
        s: [PatternPlane; 2],
        g: [MainPlane; 2],
        port_image: Vec<bool>,
        matched: usize,
        label_counter: u64,
    }

    fn freeze(st: &State) -> Frozen {
        Frozen {
            s: st.s.clone(),
            g: st.g.clone(),
            port_image: st.port_image.clone(),
            matched: st.matched,
            label_counter: st.label_counter,
        }
    }

    /// Asserts that every pre-matched global of `base` is matched, safe
    /// and carries its fixed label on both sides.
    fn assert_prematched(st: &State, base: &BaseState) {
        let (s, g) = (&st.s[NET], &st.g[NET]);
        for &(si, gi, label) in &base.prematch {
            let (s_at, g_at) = (si as usize, gi as usize);
            assert_eq!(
                (s.label[s_at], s.touched[s_at], s.safe[s_at], s.image[s_at]),
                (label, true, true, Some(gi))
            );
            assert_eq!(
                (
                    g.label[g_at],
                    g.touched[g_at],
                    g.safe[g_at],
                    g.matched[g_at]
                ),
                (label, true, true, true)
            );
            assert!(g.touched_list.contains(&gi) && g.safe_list.contains(&gi));
        }
    }

    /// One random logged mutation, on either side and either kind. Like
    /// the search, it never relabels or rematches a matched vertex.
    fn mutate(runner: &Phase2Runner, st: &mut State, rng: &mut Rng64) {
        let kind = rng.index(2);
        let si = rng.index(st.s[kind].label.len()) as u32;
        let gi = rng.index(st.g[kind].label.len()) as u32;
        let s_free = st.s[kind].image[si as usize].is_none();
        let g_free = !st.g[kind].matched[gi as usize];
        let label = rng.next_u64();
        match rng.index(9) {
            0 if s_free => st.set_s_label(kind, si, label),
            1 => st.touch_s(kind, si),
            2 => {
                st.set_s_safe(kind, si);
            }
            3 if s_free => st.set_s_image(kind, si, gi),
            4 if g_free => st.set_g_label(kind, gi, label),
            5 => {
                st.set_g_safe(kind, gi);
            }
            6 if g_free => st.set_g_matched(kind, gi),
            7 => st.set_port_image(rng.index(st.port_image.len()) as u32),
            8 if s_free && g_free => runner.do_match(st, kind, si, gi),
            _ => {}
        }
    }

    /// The mark [`Phase2Runner::run_candidate`] rolls back to.
    fn base_mark(search: &SearchState) -> Mark {
        Mark {
            undo_len: 0,
            matched: search.base_matched,
            label_counter: 0,
            trace_len: 0,
        }
    }

    #[test]
    fn rollback_restores_every_array_and_list_exactly() {
        let (pattern, main) = (cells::nand2(), gen::decoder(2).netlist);
        let (s, g) = (
            CompiledCircuit::compile(&pattern),
            CompiledCircuit::compile(&main),
        );
        let opts = MatchOptions::default();
        let runner = Phase2Runner::new(&s, &g, &pattern, &main, &opts);
        let base = runner
            .base_state()
            .expect("the decoder has the cell's rails");
        assert!(!base.prematch.is_empty(), "the rails are pre-matched");
        for seed in 0..64 {
            let mut search = runner.make_state(&base);
            let floor = freeze(&search.state);
            assert_prematched(&search.state, &base);
            let to_floor = base_mark(&search);
            let st = &mut search.state;
            let mut rng = Rng64::new(seed);
            let mut marks: Vec<(Mark, Frozen)> = Vec::new();
            for step in 0..400 {
                match rng.index(8) {
                    0 => marks.push((st.mark(), freeze(st))),
                    1 => {
                        if let Some((mark, at_mark)) = marks.pop() {
                            st.rollback(&mark);
                            assert!(freeze(st) == at_mark, "seed {seed}, step {step}");
                            assert_prematched(st, &base);
                        }
                    }
                    _ => mutate(&runner, st, &mut rng),
                }
            }
            while let Some((mark, at_mark)) = marks.pop() {
                st.rollback(&mark);
                assert!(freeze(st) == at_mark, "seed {seed}, unwinding");
            }
            st.rollback(&to_floor);
            assert!(freeze(st) == floor, "seed {seed}, back to the floor");
            assert!(st.undo.is_empty());
            assert_prematched(st, &base);
        }
    }

    #[test]
    fn every_candidate_leaves_the_base_state_behind() {
        // nand3 into a decoder: input symmetry forces guesses, so
        // branches are rolled back inside candidates as well as after.
        let (pattern, main) = (cells::nand3(), gen::decoder(3).netlist);
        let (s, g) = (
            CompiledCircuit::compile(&pattern),
            CompiledCircuit::compile(&main),
        );
        let opts = MatchOptions::default();
        let runner = Phase2Runner::new(&s, &g, &pattern, &main, &opts);
        let base = runner
            .base_state()
            .expect("the decoder has the cell's rails");
        let mut search = runner.make_state(&base);
        let floor = freeze(&search.state);
        let key = Vertex::Device(DeviceId::new(0));
        let mut stats = Phase2Stats::default();
        let mut found = 0;
        for (rank, d) in main.device_ids().enumerate() {
            let hit = runner.run_candidate(
                &mut search,
                key,
                Vertex::Device(d),
                rank as u32,
                &mut stats,
                false,
            );
            found += usize::from(hit.is_some());
            assert!(freeze(&search.state) == floor, "candidate {rank}");
        }
        assert!(found > 0 && stats.guesses > 0, "{found} found, {stats:?}");
    }

    #[test]
    fn an_undo_op_stays_two_words() {
        assert_eq!(std::mem::size_of::<UndoOp>(), 16);
    }
}
