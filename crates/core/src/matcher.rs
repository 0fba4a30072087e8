//! The high-level matching API tying Phase I and Phase II together.
//!
//! Every search runs on a [`PreparedMain`]: the main circuit compiled
//! to a [`CompiledCircuit`] (or adopted from a warm handle) together
//! with its Phase I label trace. [`find_all_many`] prepares it for its
//! first non-empty pattern and shares it with every later one, so a
//! pattern library compiles and relabels the main circuit **exactly
//! once**; [`find_all`] is the one-pattern case, and the extractor keeps
//! one across cell rounds until a collapse changes the netlist.
//!
//! A search runs in four phases: Phase I and pruning, dispatch, the
//! merge, and the report. Every outcome is stamped by one function,
//! whose timer covers any preparation the search triggered.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

use subgemini_netlist::hashing::mix;
use subgemini_netlist::{CompiledCircuit, DeviceId, FingerprintIndex, Netlist, Vertex};

use crate::budget::{failpoint, Completeness, Governor, SharedGovernor, TruncationReason};
use crate::events::{EventBuffer, EventJournal, EventKind, RejectTally};
use crate::instance::{MatchOutcome, Phase2Stats, SubMatch};
use crate::metrics::{MetricsReport, PhaseTimer};
use crate::options::{MatchOptions, OverlapPolicy};
use crate::phase1::GTrace;
use crate::phase2::{BaseState, Phase2Runner};
use crate::scheduler::{
    Claim, ClaimBoard, Dispatch, SlotData, StealQueue, Worker, WorkerPart, WorkerStats,
};
use crate::trace::Phase2Trace;

/// A configured subcircuit search: find instances of `pattern` inside
/// `main`.
///
/// # Examples
///
/// ```
/// use subgemini::Matcher;
/// use subgemini_netlist::Netlist;
///
/// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
/// // Pattern: CMOS inverter. Main: two chained inverters.
/// let mut inv = Netlist::new("inv");
/// let mos = inv.add_mos_types();
/// let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
/// inv.mark_port(a);
/// inv.mark_port(y);
/// inv.mark_global(vdd);
/// inv.mark_global(gnd);
/// inv.add_device("mp", mos.pmos, &[a, vdd, y])?;
/// inv.add_device("mn", mos.nmos, &[a, gnd, y])?;
///
/// let mut chip = Netlist::new("chip");
/// let (i, m, o) = (chip.net("in"), chip.net("mid"), chip.net("out"));
/// subgemini_netlist::instantiate(&mut chip, &inv, "u1", &[i, m])?;
/// subgemini_netlist::instantiate(&mut chip, &inv, "u2", &[m, o])?;
///
/// let outcome = Matcher::new(&inv, &chip).find_all();
/// assert_eq!(outcome.count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Matcher<'a> {
    pattern: &'a Netlist,
    main: &'a Netlist,
    options: MatchOptions,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher with default options.
    pub fn new(pattern: &'a Netlist, main: &'a Netlist) -> Self {
        Self {
            pattern,
            main,
            options: MatchOptions::default(),
        }
    }

    /// Replaces the options (builder style).
    pub fn options(mut self, options: MatchOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the full two-phase search and returns every verified
    /// instance plus statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pattern contains a net not connected to any device
    /// (such a net cannot be anchored by either phase).
    pub fn find_all(&self) -> MatchOutcome {
        find_all(self.pattern, self.main, &self.options)
    }

    /// Returns the first verified instance, if any.
    pub fn find_first(&self) -> Option<SubMatch> {
        let opts = MatchOptions {
            max_instances: 1,
            ..self.options.clone()
        };
        find_all(self.pattern, self.main, &opts)
            .instances
            .into_iter()
            .next()
    }
}

/// The main circuit of one or more searches, prepared once: de-globaled
/// when globals are ignored, compiled to CSR or adopted from a warm
/// handle, with its Phase I label trace and, when adopted, the handle's
/// fingerprint index. It owns all of it, so the extractor can keep it
/// across rounds without borrowing the netlist it later collapses; each
/// search passes that netlist back in.
pub(crate) struct PreparedMain {
    /// De-globaled copy, present only when `respect_globals` is off.
    stripped: Option<Netlist>,
    compiled: Arc<CompiledCircuit>,
    trace: GTrace,
    /// The adopted warm handle's fingerprint index: present exactly
    /// when the search prunes.
    index: Option<Arc<FingerprintIndex>>,
    /// Preparation's share of the first search's metrics: the main
    /// compile's time and the artifact counters. That search
    /// takes it; later ones count a cache hit instead.
    unreported: Option<MetricsReport>,
}

impl PreparedMain {
    /// Prepares `main`. A warm handle is adopted, with its shared
    /// Phase I steps, when globals are respected (stripping rewrites the
    /// circuit) and the handle is tied to this exact netlist
    /// (`WarmMain::adopts`). Otherwise the main is compiled cold and gets
    /// a private trace and no index.
    pub(crate) fn new(main: &Netlist, options: &MatchOptions) -> Self {
        let warm = options
            .warm_main
            .as_ref()
            .filter(|w| options.respect_globals && w.adopts(main));
        let mut prep = MetricsReport::default();
        if let Some(w) = warm {
            prep.counters.bump("artifact.warm_hits", 1);
            prep.counters.bump("artifact.load_ns", w.load_ns());
            return PreparedMain {
                stripped: None,
                compiled: Arc::clone(w.compiled()),
                trace: GTrace::shared(w),
                index: Some(Arc::clone(w.index())),
                unreported: Some(prep),
            };
        }
        if options.warm_main.is_some() {
            prep.counters.bump("artifact.warm_misses", 1);
        }
        let timer = options.collect_metrics.then(PhaseTimer::start);
        let stripped = (!options.respect_globals).then(|| strip_globals(main, false));
        let compiled = Arc::new(CompiledCircuit::compile(stripped.as_ref().unwrap_or(main)));
        prep.compile_ns = timer.map_or(0, |t| t.elapsed_ns());
        PreparedMain {
            stripped,
            trace: GTrace::new(Arc::clone(&compiled)),
            compiled,
            index: None,
            unreported: Some(prep),
        }
    }

    /// Swaps a warm hit's shared trace for a private one. The extractor
    /// drops its prepared main at the first collapse, where adopted
    /// shared steps would stay alive beside every later round's trace
    /// (DESIGN.md §3b).
    pub(crate) fn with_private_trace(mut self) -> Self {
        self.trace = GTrace::new(Arc::clone(&self.compiled));
        self
    }

    /// Searches `pattern` in `main`, the netlist this was prepared from.
    pub(crate) fn search(
        &mut self,
        pattern: &Netlist,
        main: &Netlist,
        options: &MatchOptions,
    ) -> MatchOutcome {
        let main = self.stripped.as_ref().unwrap_or(main);
        let mut search = Search::new(options);
        // The first search reports the preparation; later ones reuse it.
        match (self.unreported.take(), search.metrics.as_mut()) {
            (Some(prep), Some(m)) => {
                m.compile_ns += prep.compile_ns;
                for (name, v) in prep.counters.iter() {
                    m.counters.bump(name, v);
                }
            }
            (None, Some(m)) => m.counters.bump("compile.main_cache_hits", 1),
            (_, None) => {}
        }
        // The pattern is compiled once per search (it is tiny next to G).
        let timer = options.collect_metrics.then(PhaseTimer::start);
        let pattern: Cow<'_, Netlist> = if options.respect_globals {
            Cow::Borrowed(pattern)
        } else {
            Cow::Owned(strip_globals(pattern, true))
        };
        let s = CompiledCircuit::compile(&pattern);
        if let (Some(m), Some(t)) = (search.metrics.as_mut(), timer) {
            m.compile_ns += t.elapsed_ns();
        }
        let Some((key, candidates)) = search.phase1(&s, &mut self.trace) else {
            return search.finish();
        };
        let pruned = search.prune(&s, self.index.as_deref(), key, &candidates);
        let runner = Phase2Runner::new(&s, &self.compiled, &pattern, main, options);
        let Some(base) = runner.base_state() else {
            // A pattern global has no counterpart in the main circuit.
            search.outcome.phase1.proven_empty = true;
            if let Some(b) = search.events.as_mut() {
                b.push(EventKind::PrematchFail);
            }
            return search.finish();
        };
        let main_devices = main.device_count();
        search.dispatch(
            &runner,
            &base,
            key,
            &candidates,
            pruned.as_deref(),
            main_devices,
        )
    }
}

/// De-globals a netlist copy. A pattern's power rails become *external*
/// nets (their images may have any fanout), matching the baseline
/// matcher's semantics when `respect_globals` is off.
pub(crate) fn strip_globals(nl: &Netlist, as_ports: bool) -> Netlist {
    let mut c = nl.clone();
    let globals: Vec<_> = c.global_nets().collect();
    for g in globals {
        if as_ports {
            c.mark_port(g);
        }
        c.clear_global(g);
    }
    c
}

pub(crate) fn assert_no_isolated_nets(pattern: &Netlist) {
    for n in pattern.net_ids() {
        assert!(
            pattern.net_ref(n).degree() > 0,
            "pattern net `{}` is isolated; patterns must be fully connected to devices",
            pattern.net_ref(n).name()
        );
    }
}

/// Free-function form of [`Matcher::find_all`].
///
/// # Panics
///
/// Panics if the pattern has no devices attached to one of its nets
/// (see [`Matcher::find_all`]).
pub fn find_all(pattern: &Netlist, main: &Netlist, options: &MatchOptions) -> MatchOutcome {
    let mut outcomes = find_all_many(&[pattern], main, options);
    outcomes.pop().expect("one outcome per pattern")
}

/// Searches for every pattern of a library inside one main circuit,
/// compiling (and Phase-I-relabeling) the main circuit **exactly
/// once**: the compiled CSR and the label trace are shared across
/// patterns, so per-pattern cost is proportional to the pattern, not
/// the chip. Outcomes are identical to calling [`find_all`] per
/// pattern.
///
/// # Panics
///
/// Panics if any pattern has an isolated net (see
/// [`Matcher::find_all`]).
pub fn find_all_many(
    patterns: &[&Netlist],
    main: &Netlist,
    options: &MatchOptions,
) -> Vec<MatchOutcome> {
    for p in patterns {
        assert_no_isolated_nets(p);
    }
    let mut prepared = None;
    let prepare = || PreparedMain::new(main, options);
    let search = |p| search_stamped(&mut prepared, prepare, p, main, options);
    patterns.iter().copied().map(search).collect()
}

/// One search of `pattern` on the prepared main in `prepared`, which
/// `prepare` fills on first use, stamped with its request id and, with
/// metrics on, its wall time and thread fields. The one timer covers the
/// preparation too, so the row that reports the main compile also times
/// it. An empty pattern prepares and searches nothing.
pub(crate) fn search_stamped(
    prepared: &mut Option<PreparedMain>,
    prepare: impl FnOnce() -> PreparedMain,
    pattern: &Netlist,
    main: &Netlist,
    options: &MatchOptions,
) -> MatchOutcome {
    let timer = options.collect_metrics.then(PhaseTimer::start);
    let mut outcome = if pattern.device_count() == 0 {
        MatchOutcome::default()
    } else {
        prepared
            .get_or_insert_with(prepare)
            .search(pattern, main, options)
    };
    if let Some(t) = timer {
        // Only an empty pattern reaches the insert; it reports the
        // same thread fields as a full run, so consumers never see a
        // partially-filled report shape.
        let m = outcome
            .metrics
            .get_or_insert_with(|| initial_metrics(options, options.resolved_threads()));
        m.total_ns = t.elapsed_ns();
    }
    outcome.request_id = options.request_id;
    outcome
}

/// A search's metrics before it runs: the requested and the resolved
/// thread count.
fn initial_metrics(options: &MatchOptions, resolved: usize) -> MetricsReport {
    MetricsReport {
        threads_requested: options.threads,
        threads_resolved: resolved,
        threads_used: 1,
        ..MetricsReport::default()
    }
}

/// Raises the workers' `halt` signal when dropped, so it goes up
/// however the merge ends, unwinding included.
struct HaltOnDrop<'a>(&'a SharedGovernor);

impl Drop for HaltOnDrop<'_> {
    fn drop(&mut self) {
        self.0.halt();
    }
}

/// One search's state as it moves through its phases.
struct Search<'a> {
    options: &'a MatchOptions,
    /// `options.threads` with auto (`0`) resolved, exactly once per
    /// search, so every report path sees the same count.
    threads: usize,
    outcome: MatchOutcome,
    metrics: Option<MetricsReport>,
    /// Exists only when a budget or cancel token is configured; `None`
    /// keeps every path byte-identical to an ungoverned build.
    governor: Option<Governor>,
    /// The serial event buffer: Phase I, pruning and the search's end.
    events: Option<EventBuffer>,
    /// The candidates' events, in the order the merge consumed them.
    journal: EventJournal,
}

impl<'a> Search<'a> {
    fn new(options: &'a MatchOptions) -> Self {
        let threads = options.resolved_threads();
        Search {
            options,
            threads,
            outcome: MatchOutcome::default(),
            metrics: options
                .collect_metrics
                .then(|| initial_metrics(options, threads)),
            governor: Governor::from_options(options),
            events: options
                .trace_events
                .then(|| EventBuffer::new(options.trace_events_cap)),
            journal: EventJournal::default(),
        }
    }

    /// Phase I: the key vertex and its candidate vector, or `None` when
    /// refinement proved the pattern absent or was cut short.
    fn phase1(&mut self, s: &CompiledCircuit, trace: &mut GTrace) -> Option<(Vertex, Vec<Vertex>)> {
        let options = self.options;
        let (p1, timing) = crate::phase1::run_governed(
            s,
            trace,
            options.collect_metrics,
            self.events.as_mut(),
            self.governor.as_ref(),
        );
        // Phase I effort: one unit per refinement iteration, charged on
        // the serial ledger (and inherited by the workers' shared view).
        if let Some(g) = self.governor.as_mut() {
            g.charge(p1.stats.iterations as u64);
        }
        if let Some(m) = self.metrics.as_mut() {
            m.phase1_refine_ns = timing.refine_ns;
            m.phase1_select_ns = timing.select_ns;
        }
        self.outcome.phase1 = p1.stats;
        self.outcome.key = p1.key;
        if let (None, Some(reason)) = (p1.key, p1.interrupted) {
            // Refinement itself was cut short: no candidate was ever
            // considered, so tried and skipped are both zero.
            self.truncate(reason, 0, 0);
        }
        Some((p1.key?, p1.candidates))
    }

    /// Fingerprint pruning: a sound serial pre-filter on the candidate
    /// vector. When the key is a device and the search adopted a warm
    /// handle's index, candidates whose fingerprint cannot cover the
    /// pattern-derived mask are marked — a fingerprint mismatch proves
    /// no isomorphism (DESIGN.md §3f).
    /// Workers and the merge both skip marked candidates the same way
    /// claim-skips work: no slot is ever written or awaited for them.
    /// The mask exists before any worker spawns, so pruning — like
    /// everything the merge consumes — is identical for every thread
    /// count.
    fn prune(
        &mut self,
        s: &CompiledCircuit,
        index: Option<&FingerprintIndex>,
        key: Vertex,
        candidates: &[Vertex],
    ) -> Option<Vec<bool>> {
        let index = index?;
        let mask = FingerprintIndex::pattern_mask(s, key.as_device()?);
        let pruned: Vec<bool> = candidates
            .iter()
            .map(|c| c.as_device().is_some_and(|d| !index.admits(d, mask)))
            .collect();
        let pruned_count = pruned.iter().filter(|&&p| p).count() as u64;
        let admitted = candidates.len() as u64 - pruned_count;
        self.outcome.pruned_candidates = pruned_count;
        self.outcome.admitted_candidates = admitted;
        if let Some(m) = self.metrics.as_mut() {
            m.counters.bump("index.pruned_candidates", pruned_count);
            m.counters.bump("index.admitted_candidates", admitted);
        }
        if let Some(b) = self.events.as_mut() {
            b.push(EventKind::CvPruned {
                pruned: pruned_count,
                admitted,
            });
        }
        Some(pruned)
    }

    /// Phase II's dispatch. Parallel runs stream: `threads` workers
    /// claim candidates one at a time from a shared atomic cursor (work
    /// stealing) and verify them into per-candidate slots, while the
    /// merge consumes those slots in candidate-vector order
    /// *concurrently*, behind a bounded reorder window. The calling
    /// thread is one of the workers: it merges every ready slot, and
    /// whenever the next one is empty it claims and verifies a candidate
    /// itself, so only `threads - 1` threads are spawned. Tracing forces
    /// the serial path. See DESIGN.md §3e.
    fn dispatch(
        mut self,
        runner: &Phase2Runner<'_>,
        base: &BaseState,
        key: Vertex,
        candidates: &[Vertex],
        pruned: Option<&[bool]>,
        main_devices: usize,
    ) -> MatchOutcome {
        let options = self.options;
        let n = candidates.len();
        let parallel = !options.record_trace && n > 1 && self.threads > 1;
        let threads = self.threads.min(n);
        let timer = options.collect_metrics.then(PhaseTimer::start);
        // `OnceLock` gives lock-free one-shot publication per slot; the
        // queue carries the claim cursor, the merge position (reorder
        // window anchor), and the live-worker count the merge uses to
        // tell "in flight" from "never coming".
        let mut slots: Vec<OnceLock<SlotData>> = Vec::new();
        if parallel {
            slots.resize_with(n, OnceLock::new);
        }
        let queue = StealQueue::new(n, threads);
        // Broadcast face of the governor: workers poll it before each
        // claim and feed finished candidates' effort back, so exhaustion
        // stops every worker within one candidate; the merge rides its
        // halt and claim-epoch signals on the same object.
        let shared = self
            .governor
            .as_ref()
            .map_or_else(SharedGovernor::unlimited, Governor::shared);
        // Claim board: under ClaimDevices, the merge's claims, and the
        // workers' hint to skip candidates whose key image a merged
        // instance already claimed. Claims only grow, and only the merge
        // publishes them, so any bit a worker observes belongs to a
        // merged prefix — the merge's own claim check skips the same
        // candidate, never waiting on the worker's unwritten slot.
        let board =
            (options.overlap == OverlapPolicy::ClaimDevices).then(|| ClaimBoard::new(main_devices));
        let dispatch = Dispatch {
            runner,
            base,
            key,
            candidates,
            pruned,
            slots: &slots,
            queue: &queue,
            shared: &shared,
            board: board.as_ref(),
            chunk: if parallel { n.div_ceil(threads) } else { 1 },
            collect: options.collect_metrics,
        };
        // The calling thread's worker: its search state also serves the
        // serial path and every recomputation.
        let mut own = dispatch.worker(0);
        let mut merge = Merge {
            governor: self.governor.take(),
            parallel,
            claiming: parallel,
            ..Merge::default()
        };
        let mut parts: Vec<WorkerPart> = if parallel {
            std::thread::scope(|scope| {
                let spawned: Vec<_> = (1..threads)
                    .map(|w| {
                        let dispatch = &dispatch;
                        scope.spawn(move || dispatch.run(w))
                    })
                    .collect();
                {
                    // Raised on every merge exit — completion, a limit, a
                    // stop, or a panic: workers, including ones parked on
                    // the reorder window, drain promptly instead of
                    // finishing the vector, and a panic reaches the caller
                    // instead of leaving the scope waiting on them.
                    let _halt = HaltOnDrop(&shared);
                    merge.run(options, &dispatch, &mut own);
                }
                spawned
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        } else {
            merge.run(options, &dispatch, &mut own);
            Vec::new()
        };
        parts.push(own.finish());
        // Slots the merge never consumed — computed past a stop point, or
        // superseded by a recompute — are dropped and counted.
        let done = slots.iter().filter(|s| s.get().is_some_and(|d| d.done));
        let unconsumed = done.count() as u64 - merge.from_slots;
        let instances = merge.take_instances(&mut slots);
        if let Some(m) = self.metrics.as_mut() {
            if parallel {
                m.threads_used = threads;
            }
            if let Some(t) = &timer {
                m.phase2_wall_ns = t.elapsed_ns();
            }
        }
        self.report(merge, instances, &parts, n, unconsumed)
    }

    /// Phase II's report: the merge's outcome and counters, and what the
    /// workers measured.
    fn report(
        mut self,
        merge: Merge,
        instances: Vec<SubMatch>,
        parts: &[WorkerPart],
        n: usize,
        unconsumed: u64,
    ) -> MatchOutcome {
        if let Some(m) = self.metrics.as_mut() {
            let mut sched = WorkerStats::default();
            for part in parts {
                sched.absorb(&part.sched);
                if let Some(t) = &part.timing {
                    m.worker_busy_ns.push(t.sum_ns);
                    m.phase2_verify_ns += t.sum_ns;
                    m.phase2_max_candidate_ns = m.phase2_max_candidate_ns.max(t.max_ns);
                    m.verify_ns_hist.merge(&t.hist);
                }
                if let Some(h) = &part.backtrack_hist {
                    m.backtrack_depth_hist.merge(h);
                }
            }
            let c = &mut m.counters;
            c.bump("candidates.checked", merge.checked);
            c.bump("candidates.matched", merge.matched);
            c.bump("instances.reported", instances.len() as u64);
            c.bump("instances.dedup_dropped", merge.dedup_dropped);
            c.bump(
                "instances.claim_dropped",
                merge.phase2.overlap_dropped as u64,
            );
            if merge.parallel {
                // Scheduler telemetry. Work counts (claims, steals,
                // skips) depend on runtime interleaving — unlike
                // results, which never do.
                c.bump("scheduler.claims", sched.claimed);
                c.bump("scheduler.steals", sched.steals);
                c.bump("scheduler.claim_skips", sched.claim_skips);
                c.bump("scheduler.window_stalls", sched.window_stalls);
                c.bump("scheduler.merge_stalls", merge.merge_stalls);
                c.bump("scheduler.recomputed", merge.recomputed);
                c.bump("scheduler.unconsumed", unconsumed);
            }
            // Reject reasons land as counters in first-bump order;
            // `nonzero()` yields them in the closed `ALL` order.
            for (r, v) in merge.tally.nonzero() {
                c.bump(r.counter_name(), v);
            }
        }
        self.governor = merge.governor;
        if let Some((reason, stop)) = merge.stop {
            self.truncate(reason, merge.checked as usize, n - stop);
        }
        self.outcome.instances = instances;
        self.outcome.phase2 = merge.phase2;
        self.outcome.rejects = merge.tally;
        self.outcome.trace = merge.trace;
        self.journal = merge.journal;
        self.finish()
    }

    /// Records that the search stopped early: the completeness and,
    /// when tracing, the journal's `Truncated` event.
    fn truncate(&mut self, reason: TruncationReason, tried: usize, skipped: usize) {
        self.outcome.completeness = Completeness::Truncated {
            reason,
            candidates_tried: tried,
            candidates_skipped: skipped,
        };
        if let Some(b) = self.events.as_mut() {
            b.push(EventKind::Truncated {
                reason,
                candidates_tried: tried as u64,
                candidates_skipped: skipped as u64,
            });
        }
    }

    /// The report every search ends with, however early: the budget
    /// counters, the merged journal and the metrics.
    fn finish(mut self) -> MatchOutcome {
        // Budget bookkeeping only when a governor exists, so ungoverned
        // runs report byte-identical metrics.
        if let (Some(m), Some(g)) = (self.metrics.as_mut(), self.governor.as_ref()) {
            m.effort_spent = g.spent();
            m.effort_limit = g.limit().unwrap_or(0);
            m.counters.bump("budget.effort_spent", g.spent());
            if let Completeness::Truncated {
                candidates_skipped, ..
            } = self.outcome.completeness
            {
                m.counters.bump("budget.truncations", 1);
                m.counters
                    .bump("budget.candidates_skipped", candidates_skipped as u64);
            }
        }
        if let Some(b) = &self.events {
            self.journal.append(b);
            self.journal.sort();
            self.outcome.events = Some(self.journal);
        }
        self.outcome.metrics = self.metrics;
        self.outcome
    }
}

/// How many yields the merge waits on an empty-but-claimed slot before
/// recomputing it anyway. Normally unhit: holes are found via the
/// worker count reaching zero. This is the self-healing bound —
/// recomputation is always safe (a late slot write is simply never
/// consumed), so a stuck claim costs duplicated work, never a hang or a
/// result change.
const MERGE_PATIENCE: u64 = 200_000;

/// The merge: the sole determinism authority of Phase II. It walks the
/// candidate vector in order, charges the governor, decides truncation,
/// claims devices, and absorbs stats, events and tallies from exactly
/// the candidates it consumes — so instances, stats, the journal and
/// the truncation point are identical for every thread count.
#[derive(Default)]
struct Merge {
    governor: Option<Governor>,
    parallel: bool,
    /// Whether the calling thread still claims candidates. Cleared for
    /// good once its source drains, the broadcast stops it, or a
    /// failpoint kills its claiming (never its merging).
    claiming: bool,
    /// The reported instances in merge order, each with the index of its
    /// device set in `sets`.
    instances: Vec<(u32, Mapping)>,
    /// The device set of every instance merged so far, reported or
    /// overlap-dropped: the same instance reached through another
    /// candidate is dropped.
    sets: DeviceSets,
    phase2: Phase2Stats,
    trace: Option<Phase2Trace>,
    journal: EventJournal,
    tally: RejectTally,
    checked: u64,
    matched: u64,
    dedup_dropped: u64,
    merge_stalls: u64,
    recomputed: u64,
    /// Candidates consumed from a worker's slot rather than verified
    /// here.
    from_slots: u64,
    /// Where (and why) the governor stopped the merge: the reason and
    /// the first candidate not consumed. Decided *only* here, in
    /// candidate-vector order, from effort charged at candidate
    /// granularity — so it is identical for every thread count.
    stop: Option<(TruncationReason, usize)>,
}

/// A reported instance's mapping: verified by the merging thread, or
/// still in candidate `i`'s slot, which cannot be moved out of while
/// the workers share the slots.
enum Mapping {
    Owned(SubMatch),
    InSlot(usize),
}

impl Merge {
    /// Consumes the candidate vector in order until it ends, a requested
    /// instance limit is reached, or the governor stops the search.
    fn run(&mut self, options: &MatchOptions, dispatch: &Dispatch<'_>, own: &mut Worker) {
        for (i, &c) in dispatch.candidates.iter().enumerate() {
            if let Some(failpoint::Action::Panic) = failpoint::get("phase2.merge") {
                panic!("failpoint phase2.merge: injected panic at candidate {i}");
            }
            if self.parallel {
                dispatch.queue.advance_merge(i);
            }
            let limit = options.max_instances;
            if limit > 0 && self.instances.len() >= limit {
                break; // a requested limit, not a truncation
            }
            if let Some(reason) = self.governor.as_ref().and_then(Governor::should_stop) {
                self.stop = Some((reason, i));
                break;
            }
            if dispatch.pruned.is_some_and(|p| p[i]) {
                continue; // fingerprint-pruned: provably no isomorphism
            }
            // Claimed key images cannot start a new instance. This runs
            // *before* the slot wait: a candidate a worker claim-skipped
            // never gets a slot, and this same check is what guarantees
            // the merge won't wait for one.
            if let (Some(b), Some(d)) = (dispatch.board, c.as_device()) {
                if b.is_claimed(d.index()) {
                    continue;
                }
            }
            let slot = if self.parallel {
                self.await_slot(dispatch, own, i)
            } else {
                None
            };
            match slot {
                Some(s) if s.done => {
                    self.from_slots += 1;
                    self.absorb(s);
                    let admitted = s
                        .result
                        .as_ref()
                        .and_then(|m| self.admit(&m.devices, dispatch));
                    if let Some(k) = admitted {
                        self.instances.push((k, Mapping::InSlot(i)));
                    }
                }
                _ => {
                    // Serial path — or a hole (a worker stopped on the
                    // broadcast, or abandoned its claim): verify here.
                    // Verification rolls back to the base state, so a
                    // recompute is deterministic, and a racing worker's
                    // late slot write is never consumed.
                    if self.parallel {
                        self.recomputed += 1;
                    }
                    let want_trace = options.record_trace && self.trace.is_none();
                    let data = dispatch.verify(own, i, want_trace);
                    self.absorb(&data);
                    if let Some(m) = data.result {
                        if let Some(k) = self.admit(&m.devices, dispatch) {
                            if data.trace.is_some() {
                                self.trace = data.trace;
                            }
                            self.instances.push((k, Mapping::Owned(m)));
                        }
                    }
                }
            }
        }
    }

    /// Streaming consume: candidate `i`'s slot, once filled. While it
    /// is empty, the calling thread claims and verifies one candidate
    /// (often this very one), then looks again. With nothing to claim,
    /// it waits while any spawned worker is still alive to fill it
    /// (brief spin, then yield). `None` once workers are gone — or
    /// patience runs out on an abandoned claim: the caller recomputes.
    fn await_slot<'d>(
        &mut self,
        dispatch: &Dispatch<'d>,
        own: &mut Worker,
        i: usize,
    ) -> Option<&'d SlotData> {
        let slots = dispatch.slots;
        let mut spins = 0u64;
        loop {
            if let Some(s) = slots[i].get() {
                return Some(s);
            }
            if self.claiming {
                match dispatch.step(own) {
                    Claim::Got(_) => continue,
                    Claim::Blocked => {}
                    Claim::Drained => self.claiming = false,
                }
            }
            if !dispatch.queue.workers_active() {
                // Workers exited between the failed get and this check:
                // one final look, then recompute.
                return slots[i].get();
            }
            if spins >= MERGE_PATIENCE {
                return None;
            }
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                self.merge_stalls += 1;
                std::thread::yield_now();
            }
            spins += 1;
        }
    }

    /// Takes one consumed candidate into the outcome — its effort,
    /// stats, reject tally and events — the same way whichever thread
    /// verified it.
    fn absorb(&mut self, data: &SlotData) {
        if let Some(g) = self.governor.as_mut() {
            g.charge(data.effort);
        }
        self.phase2.absorb(&data.stats);
        self.tally.merge(&data.tally);
        if let Some(b) = &data.events {
            self.journal.append(b);
        }
        self.checked += 1;
    }

    /// Whether a verified instance is reported: not when the same device
    /// set was already merged or, under `ClaimDevices`, it overlaps a
    /// claimed one. Either way its set is stored; a reported instance
    /// gets its set's index.
    fn admit(&mut self, devices: &[DeviceId], dispatch: &Dispatch<'_>) -> Option<u32> {
        self.matched += 1;
        let Some(k) = self.sets.insert(devices) else {
            self.dedup_dropped += 1;
            return None; // same instance reached through another candidate
        };
        if let Some(b) = dispatch.board {
            let set = self.sets.get(k);
            if set.iter().any(|d| b.is_claimed(d.index())) {
                self.phase2.overlap_dropped += 1;
                return None;
            }
            for d in set {
                b.publish(d.index());
            }
            // Epoch after bits: a worker that sees the epoch sees the
            // bits.
            dispatch.shared.bump_claim_epoch();
        }
        Some(k)
    }

    /// The reported instances in report order — ascending by device
    /// set, read from the stored sets — each mapping moved out of its
    /// slot where a worker left it. Called once the workers are gone.
    fn take_instances(&mut self, slots: &mut [OnceLock<SlotData>]) -> Vec<SubMatch> {
        let sets = &self.sets;
        self.instances
            .sort_unstable_by(|(a, _), (b, _)| sets.get(*a).cmp(sets.get(*b)));
        self.instances
            .drain(..)
            .map(|(_, mapping)| match mapping {
                Mapping::Owned(m) => m,
                Mapping::InSlot(i) => slots[i]
                    .get_mut()
                    .and_then(|s| s.result.take())
                    .expect("a consumed slot keeps its instance"),
            })
            .collect()
    }
}

/// The sorted device sets of the merged instances, stored once and back
/// to back: every instance of a pattern has the pattern's device count,
/// so set `k` is the `k`-th run of `width` ids. Sets are chained by
/// their smallest device — a linearly probed table of set indices,
/// placed by a hash of that device — so a duplicate is found by
/// comparing slices along one chain, without hashing a whole set or
/// allocating per instance (DESIGN.md §3e).
#[derive(Default)]
struct DeviceSets {
    width: usize,
    sets: Vec<DeviceId>,
    /// One more than a set index per occupied slot, 0 when vacant. Its
    /// length is a power of two, at most half full.
    table: Vec<u32>,
    /// Keys the placement hash, drawn at random when the table is first
    /// built: device ids follow a deck's card order, and an unkeyed hash
    /// would let a deck crowd every chain into one stretch of the table.
    key: u64,
}

impl DeviceSets {
    /// Set `k`.
    fn get(&self, k: u32) -> &[DeviceId] {
        let at = k as usize * self.width;
        &self.sets[at..at + self.width]
    }

    /// The slot at which the chain of sets whose smallest device is
    /// `first` starts.
    fn home(&self, first: DeviceId) -> usize {
        let bits = self.table.len().trailing_zeros();
        (mix(first.index() as u64 ^ self.key) >> (64 - bits)) as usize
    }

    /// The first vacant slot on `first`'s chain, or the slot of a set on
    /// it for which `is` holds, with whether one did.
    fn probe(&self, first: DeviceId, is: impl Fn(&[DeviceId]) -> bool) -> (usize, bool) {
        let mask = self.table.len() - 1;
        let mut slot = self.home(first);
        while let Some(k) = self.table[slot].checked_sub(1) {
            if is(self.get(k)) {
                return (slot, true);
            }
            slot = (slot + 1) & mask;
        }
        (slot, false)
    }

    /// Stores `devices` as a sorted set unless an equal set is stored
    /// already: the new set's index, or `None` for a duplicate.
    fn insert(&mut self, devices: &[DeviceId]) -> Option<u32> {
        let k = self.sets.len() / devices.len();
        if 2 * (k + 1) > self.table.len() {
            self.grow(k);
        }
        self.width = devices.len();
        let start = self.sets.len();
        self.sets.extend_from_slice(devices);
        self.sets[start..].sort_unstable();
        let new = &self.sets[start..];
        let (slot, duplicate) = self.probe(new[0], |set| set == new);
        if duplicate {
            self.sets.truncate(start);
            return None;
        }
        self.table[slot] = k as u32 + 1;
        Some(k as u32)
    }

    /// Doubles the table, 64 slots at first, and re-places the `n`
    /// stored sets.
    fn grow(&mut self, n: usize) {
        if self.table.is_empty() {
            self.key = RandomState::new().build_hasher().finish();
        }
        self.table = vec![0; (2 * self.table.len()).max(64)];
        for k in 0..n as u32 {
            let (slot, _) = self.probe(self.get(k)[0], |_| false);
            self.table[slot] = k + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets sharing a smallest device share a chain; every set is found
    /// again through any order of its devices, across table growth.
    #[test]
    fn device_sets_find_duplicates_along_shared_chains() {
        let set = |k: u32| -> Vec<DeviceId> {
            // 500 sets share each of four smallest devices.
            let first = k % 4;
            let rest = [4 + k, 10_000 + 3 * k];
            [rest[1], first, rest[0]].map(DeviceId::new).to_vec()
        };
        let mut sets = DeviceSets::default();
        for k in 0..2_000 {
            assert_eq!(sets.insert(&set(k)), Some(k), "set {k} is new");
        }
        for k in 0..2_000 {
            let mut again = set(k);
            again.reverse();
            assert_eq!(sets.insert(&again), None, "set {k} is stored");
            let mut sorted = set(k);
            sorted.sort_unstable();
            assert_eq!(sets.get(k), sorted.as_slice());
        }
        assert_eq!(sets.insert(&set(2_000)), Some(2_000));
    }
}
