//! The high-level matching API tying Phase I and Phase II together.
//!
//! The main circuit is compiled to a [`CompiledCircuit`] exactly once
//! per search — and exactly once *total* for a multi-pattern search
//! ([`find_all_many`]), where one Phase I label trace and one compiled
//! `G` are shared by every pattern.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use subgemini_netlist::{CompiledCircuit, DeviceId, FingerprintIndex, Netlist};

use crate::budget::{
    effort_of, failpoint, Completeness, Governor, SharedGovernor, TruncationReason,
};
use crate::events::{EventBuffer, EventJournal, EventKind, RejectTally};
use crate::instance::{MatchOutcome, SubMatch};
use crate::metrics::{MetricsReport, PhaseTimer};
use crate::options::{MatchOptions, OverlapPolicy, PrunePolicy};
use crate::phase1;
use crate::phase2::Phase2Runner;
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

/// The main circuit, prepared once: de-globaled if requested, compiled
/// to CSR (or adopted from a warm-start artifact), with the
/// compilation cost and fingerprint index recorded for metrics and
/// pruning.
pub(crate) struct PreparedMain<'a> {
    pub(crate) netlist: Cow<'a, Netlist>,
    pub(crate) compiled: Arc<CompiledCircuit>,
    pub(crate) compile_ns: u64,
    /// Fingerprint index for candidate pruning: the warm handle's, or
    /// freshly built under [`PrunePolicy::Always`].
    pub(crate) index: Option<Arc<FingerprintIndex>>,
    /// Whether compilation was skipped via a warm-start hit.
    pub(crate) warm: bool,
    /// Artifact load cost to report on a warm hit.
    pub(crate) load_ns: u64,
    /// Index build cost when built fresh (0 when warm or absent).
    pub(crate) index_build_ns: u64,
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

pub(crate) fn prepare_main<'a>(main: &'a Netlist, options: &MatchOptions) -> PreparedMain<'a> {
    // Warm start: adopt the handle's snapshot and index when globals
    // are respected (stripping rewrites the circuit) and the handle is
    // tied to this exact netlist (`WarmMain::adopts`).
    if options.respect_globals {
        if let Some(w) = options.warm_main.as_ref() {
            if w.adopts(main) {
                return PreparedMain {
                    netlist: Cow::Borrowed(main),
                    compiled: Arc::clone(w.compiled()),
                    compile_ns: 0,
                    index: Some(Arc::clone(w.index())),
                    warm: true,
                    load_ns: w.load_ns(),
                    index_build_ns: 0,
                };
            }
        }
    }
    let timer = options.collect_metrics.then(PhaseTimer::start);
    let netlist: Cow<'a, Netlist> = if options.respect_globals {
        Cow::Borrowed(main)
    } else {
        Cow::Owned(strip_globals(main, false))
    };
    let compiled = Arc::new(CompiledCircuit::compile(&netlist));
    let compile_ns = timer.map_or(0, |t| t.elapsed_ns());
    // `Always` wants pruning even on a cold start: build the index
    // here, once per prepared main, so a pattern library shares it.
    let (index, index_build_ns) = if options.prune == PrunePolicy::Always {
        let t = options.collect_metrics.then(PhaseTimer::start);
        let idx = Arc::new(FingerprintIndex::build(&compiled));
        (Some(idx), t.map_or(0, |t| t.elapsed_ns()))
    } else {
        (None, 0)
    };
    PreparedMain {
        netlist,
        compiled,
        compile_ns,
        index,
        warm: false,
        load_ns: 0,
        index_build_ns,
    }
}

/// The Phase I label trace of a prepared main circuit. A warm hit
/// adopts the handle's shared steps, so only the first search on a
/// handle builds them; a cold main gets a private trace.
fn main_trace(prepared: &PreparedMain<'_>, options: &MatchOptions) -> phase1::GTrace {
    match options.warm_main.as_ref().filter(|_| prepared.warm) {
        Some(warm) => phase1::GTrace::shared(warm),
        None => phase1::GTrace::new(Arc::clone(&prepared.compiled)),
    }
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
    assert_no_isolated_nets(pattern);
    let total_timer = options.collect_metrics.then(PhaseTimer::start);
    let mut outcome = if pattern.device_count() == 0 {
        MatchOutcome::default()
    } else {
        let prepared = prepare_main(main, options);
        let mut trace = main_trace(&prepared, options);
        find_all_compiled(
            pattern,
            &prepared,
            &mut trace,
            options,
            prepared.compile_ns,
            false,
        )
    };
    if let Some(t) = total_timer {
        // Only the zero-device-pattern early return reaches the
        // insert; it reports the same thread fields (requested,
        // resolved, used) as a full run so consumers never see a
        // partially-filled report shape.
        let m = outcome.metrics.get_or_insert_with(|| MetricsReport {
            threads_requested: options.threads,
            threads_resolved: options.resolved_threads(),
            threads_used: 1,
            ..MetricsReport::default()
        });
        m.total_ns = t.elapsed_ns();
    }
    outcome.request_id = options.request_id;
    outcome
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
    let prepared = prepare_main(main, options);
    let mut trace = main_trace(&prepared, options);
    patterns
        .iter()
        .enumerate()
        .map(|(i, pattern)| {
            let total_timer = options.collect_metrics.then(PhaseTimer::start);
            let mut outcome = if pattern.device_count() == 0 {
                MatchOutcome::default()
            } else {
                // Only the first pattern pays (and reports) the main
                // compile; later ones count a cache hit.
                let main_ns = if i == 0 { prepared.compile_ns } else { 0 };
                find_all_compiled(pattern, &prepared, &mut trace, options, main_ns, i > 0)
            };
            if let Some(t) = total_timer {
                let m = outcome.metrics.get_or_insert_with(|| MetricsReport {
                    threads_requested: options.threads,
                    threads_resolved: options.resolved_threads(),
                    threads_used: 1,
                    ..MetricsReport::default()
                });
                m.total_ns = t.elapsed_ns();
            }
            outcome.request_id = options.request_id;
            outcome
        })
        .collect()
}

/// Raises the workers' `halt` signal when dropped, so it goes up
/// however the merge ends, unwinding included.
struct HaltOnDrop<'a>(&'a SharedGovernor);

impl Drop for HaltOnDrop<'_> {
    fn drop(&mut self) {
        self.0.halt();
    }
}

/// Budget bookkeeping on a metrics report. Called only when a governor
/// exists, so ungoverned runs report byte-identical metrics.
fn record_budget_metrics(m: &mut MetricsReport, g: &Governor, completeness: &Completeness) {
    m.effort_spent = g.spent();
    m.effort_limit = g.limit().unwrap_or(0);
    m.counters.bump("budget.effort_spent", g.spent());
    if let Completeness::Truncated {
        candidates_skipped, ..
    } = completeness
    {
        m.counters.bump("budget.truncations", 1);
        m.counters
            .bump("budget.candidates_skipped", *candidates_skipped as u64);
    }
}

/// The two-phase search against an already-prepared main circuit and a
/// shared Phase I label trace. `main_compile_ns` is the compilation
/// cost to attribute to this outcome's metrics; `main_cached` marks a
/// reused compilation (counted, not re-measured).
pub(crate) fn find_all_compiled(
    pattern: &Netlist,
    prepared: &PreparedMain<'_>,
    trace: &mut phase1::GTrace,
    options: &MatchOptions,
    main_compile_ns: u64,
    main_cached: bool,
) -> MatchOutcome {
    let mut outcome = MatchOutcome::default();
    // The search governor exists only when a budget or cancel token is
    // configured; `None` keeps every path below byte-identical to an
    // ungoverned build.
    let mut governor = Governor::from_options(options);
    let collect = options.collect_metrics;
    let main_nl: &Netlist = &prepared.netlist;

    // The pattern is compiled once per search (it is tiny next to G).
    let compile_timer = collect.then(PhaseTimer::start);
    let pattern_nl: Cow<'_, Netlist> = if options.respect_globals {
        Cow::Borrowed(pattern)
    } else {
        Cow::Owned(strip_globals(pattern, true))
    };
    let s = CompiledCircuit::compile(&pattern_nl);
    let pattern_compile_ns = compile_timer.map_or(0, |t| t.elapsed_ns());

    // ---- Phase I ----
    // One serial buffer for Phase I / pre-match events; worker buffers
    // are created inside their search states and merged at the end.
    let mut p1_events = options
        .trace_events
        .then(|| EventBuffer::new(options.trace_events_cap));
    let (p1, p1_timing) = phase1::run_governed(
        &s,
        trace,
        options.key_policy,
        collect,
        p1_events.as_mut(),
        governor.as_ref(),
    );
    // Phase I effort: one unit per refinement iteration, charged on the
    // serial ledger (and inherited by the workers' shared view below).
    if let Some(g) = governor.as_mut() {
        g.charge(p1.stats.iterations as u64);
    }
    // Auto-threading (`threads: 0`) is resolved exactly once per
    // search; every report path below sees the same resolved count.
    let worker_count = options.resolved_threads();
    let mut metrics = collect.then(|| MetricsReport {
        compile_ns: main_compile_ns + pattern_compile_ns,
        phase1_refine_ns: p1_timing.refine_ns,
        phase1_select_ns: p1_timing.select_ns,
        threads_requested: options.threads,
        threads_resolved: worker_count,
        threads_used: 1,
        ..MetricsReport::default()
    });
    if main_cached {
        if let Some(m) = metrics.as_mut() {
            m.counters.bump("compile.main_cache_hits", 1);
        }
    } else if let Some(m) = metrics.as_mut() {
        // Artifact accounting rides with the compile attribution: the
        // first pattern of a library reports the hit (or miss) exactly
        // once, like `compile_ns` itself.
        if prepared.warm {
            m.counters.bump("artifact.warm_hits", 1);
            m.counters.bump("artifact.load_ns", prepared.load_ns);
        } else if options.warm_main.is_some() {
            m.counters.bump("artifact.warm_misses", 1);
        }
        if prepared.index_build_ns > 0 {
            m.counters.bump("index.build_ns", prepared.index_build_ns);
        }
    }
    outcome.phase1 = p1.stats;
    outcome.key = p1.key;
    let Some(key) = p1.key else {
        if let Some(reason) = p1.interrupted {
            // Refinement itself was cut short: no candidate was ever
            // considered, so tried and skipped are both zero.
            outcome.completeness = Completeness::Truncated {
                reason,
                candidates_tried: 0,
                candidates_skipped: 0,
            };
            if let Some(b) = p1_events.as_mut() {
                b.push(EventKind::Truncated {
                    reason,
                    candidates_tried: 0,
                    candidates_skipped: 0,
                });
            }
        }
        if let (Some(m), Some(g)) = (metrics.as_mut(), governor.as_ref()) {
            record_budget_metrics(m, g, &outcome.completeness);
        }
        if let Some(b) = p1_events {
            outcome.events = Some(EventJournal::merge(vec![b]));
        }
        outcome.metrics = metrics;
        return outcome;
    };

    // ---- Fingerprint pruning ----
    //
    // A sound serial pre-filter on the candidate vector: when the key
    // is a device and an index is available (warm start, or built under
    // `PrunePolicy::Always`), candidates whose fingerprint cannot cover
    // the pattern-derived mask are marked pruned — a fingerprint
    // mismatch proves no isomorphism (DESIGN.md §3f). Workers and the
    // merge both skip marked candidates the same way claim-skips work:
    // no slot is ever written or awaited for them. The mask is computed
    // before any worker spawns, so pruning — like everything the merge
    // consumes — is identical for every thread count.
    let pruned_mask: Option<Vec<bool>> = {
        let prune_index = match options.prune {
            PrunePolicy::Never => None,
            PrunePolicy::Auto | PrunePolicy::Always => prepared.index.as_deref(),
        };
        match (prune_index, key.as_device()) {
            (Some(idx), Some(kd)) => {
                let mask = FingerprintIndex::pattern_mask(&s, kd);
                let mut pruned = vec![false; p1.candidates.len()];
                let mut pruned_count = 0u64;
                for (i, c) in p1.candidates.iter().enumerate() {
                    if let Some(d) = c.as_device() {
                        if !idx.admits(d, mask) {
                            pruned[i] = true;
                            pruned_count += 1;
                        }
                    }
                }
                let admitted = p1.candidates.len() as u64 - pruned_count;
                if let Some(m) = metrics.as_mut() {
                    m.counters.bump("index.pruned_candidates", pruned_count);
                    m.counters.bump("index.admitted_candidates", admitted);
                }
                if let Some(b) = p1_events.as_mut() {
                    b.push(EventKind::CvPruned {
                        pruned: pruned_count,
                        admitted,
                    });
                }
                Some(pruned)
            }
            _ => None,
        }
    };
    let pruned_at = |i: usize| pruned_mask.as_ref().is_some_and(|m| m[i]);

    // ---- Phase II ----
    let runner = Phase2Runner::new(&s, &prepared.compiled, &pattern_nl, main_nl, options);
    let Some(base) = runner.base_state() else {
        // A pattern global has no counterpart in the main circuit.
        outcome.phase1.proven_empty = true;
        if let (Some(m), Some(g)) = (metrics.as_mut(), governor.as_ref()) {
            record_budget_metrics(m, g, &outcome.completeness);
        }
        if let Some(mut b) = p1_events {
            b.push(EventKind::PrematchFail);
            outcome.events = Some(EventJournal::merge(vec![b]));
        }
        outcome.metrics = metrics;
        return outcome;
    };
    // ---- Phase II candidate stage ----
    //
    // Parallel runs stream: `threads` workers claim candidates one at a
    // time from a shared atomic cursor (work stealing), verify them
    // into per-candidate slots, and the serial merge below consumes
    // those slots in candidate-vector order *concurrently*, behind a
    // bounded reorder window. The calling thread is one of the
    // workers: it merges every ready slot, and whenever the next one
    // is empty it claims and verifies a candidate itself, so only
    // `threads - 1` threads are spawned. The merge is the sole
    // determinism authority: it charges the governor, decides
    // truncation, claims devices, and absorbs stats/events/tallies
    // from exactly the candidates it consumes — so instances, stats,
    // the journal, and the truncation point are identical for every
    // thread count (tracing forces the serial path). See DESIGN.md
    // §3e.
    let n = p1.candidates.len();
    let par_enabled = !options.record_trace && n > 1 && worker_count > 1;
    let threads = worker_count.min(n);
    let phase2_timer = collect.then(PhaseTimer::start);
    let mut event_buffers: Vec<EventBuffer> = Vec::new();
    let mut reject_tally = RejectTally::default();
    // Shared scheduler state. `OnceLock` gives lock-free one-shot
    // publication per slot; the queue carries the claim cursor, the
    // merge position (reorder window anchor), and the live-worker
    // count the merge uses to tell "in flight" from "never coming".
    let mut slots: Vec<OnceLock<SlotData>> = Vec::new();
    if par_enabled {
        slots.resize_with(n, OnceLock::new);
    }
    let mut consumed = vec![false; slots.len()];
    let queue = StealQueue::new(n, threads);
    // Broadcast face of the governor: workers poll it before each
    // claim and feed finished candidates' effort back, so exhaustion
    // stops every worker within one candidate; the merge rides its
    // halt and claim-epoch signals on the same object.
    let shared = governor
        .as_ref()
        .map_or_else(SharedGovernor::unlimited, Governor::shared);
    // Claim board: under ClaimDevices, workers skip candidates whose
    // key image a merged instance already claimed. Claims only grow,
    // and only the merge publishes them, so any bit a worker observes
    // belongs to a merged prefix — the merge's own claim check skips
    // the same candidate, never waiting on the worker's unwritten
    // slot.
    let board = (par_enabled && options.overlap == OverlapPolicy::ClaimDevices)
        .then(|| ClaimBoard::new(main_nl.device_count()));
    let dispatch = Dispatch {
        runner: &runner,
        base: &base,
        key,
        candidates: &p1.candidates,
        pruned: pruned_mask.as_deref(),
        slots: &slots,
        queue: &queue,
        shared: &shared,
        board: board.as_ref(),
        chunk: if par_enabled { n.div_ceil(threads) } else { 1 },
        collect,
    };
    // The calling thread's worker: its search state also serves the
    // serial path and every merge recomputation.
    let mut own = dispatch.worker(0);
    let mut claimed: HashSet<DeviceId> = HashSet::new();
    // Canonical device sets of the instances merged so far: the same
    // instance reached through another candidate is dropped.
    let mut seen_sets: HashSet<Vec<DeviceId>> = HashSet::new();
    let mut p2_trace: Option<Phase2Trace> = None;
    let mut checked = 0u64;
    let mut matched = 0u64;
    let mut dedup_dropped = 0u64;
    let mut merge_stalls = 0u64;
    let mut recomputed = 0u64;
    // Where (and why) the governor stopped the merge. The decision is
    // taken *only* here, in candidate-vector order, from effort charged
    // at candidate granularity — so the truncation point is identical
    // for every thread count.
    let mut truncation: Option<TruncationReason> = None;
    let mut stop_index = 0usize;
    // How many yields the merge waits on an empty-but-claimed slot
    // before recomputing it anyway. Normally unhit: holes are found
    // via the worker count reaching zero. This is the self-healing
    // bound — recomputation is always safe (a late slot write is
    // simply never consumed), so a stuck claim costs duplicated work,
    // never a hang or a result change.
    const MERGE_PATIENCE: u64 = 200_000;
    let mut run_merge = |own: &mut Worker| {
        // Whether the calling thread still claims candidates. Cleared
        // for good once its source drains, the broadcast stops it, or a
        // failpoint kills its claiming (never its merging).
        let mut claiming = par_enabled;
        for (i, &c) in p1.candidates.iter().enumerate() {
            if let Some(failpoint::Action::Panic) = failpoint::get("phase2.merge") {
                panic!("failpoint phase2.merge: injected panic at candidate {i}");
            }
            if par_enabled {
                queue.advance_merge(i);
            }
            if options.max_instances > 0 && outcome.instances.len() >= options.max_instances {
                break; // a requested limit, not a truncation
            }
            if let Some(reason) = governor.as_ref().and_then(Governor::should_stop) {
                truncation = Some(reason);
                stop_index = i;
                break;
            }
            if pruned_at(i) {
                continue; // fingerprint-pruned: provably no isomorphism
            }
            // Claimed key images cannot start a new instance. This
            // runs *before* the slot wait: a candidate a worker
            // claim-skipped never gets a slot, and this same check is
            // what guarantees the merge won't wait for one.
            if options.overlap == OverlapPolicy::ClaimDevices {
                if let Some(d) = c.as_device() {
                    if claimed.contains(&d) {
                        continue;
                    }
                }
            }
            let want_trace = options.record_trace && p2_trace.is_none();
            // Streaming consume. While the candidate's slot is empty,
            // claim and verify one candidate (often this very one),
            // then look again. With nothing to claim, wait while any
            // spawned worker is still alive to fill it (brief spin,
            // then yield). Once workers are gone — or patience runs
            // out on an abandoned claim — fall through to serial
            // recompute.
            let slot = if par_enabled {
                let mut spins = 0u64;
                loop {
                    if let Some(s) = slots[i].get() {
                        break Some(s);
                    }
                    if claiming {
                        match dispatch.step(own) {
                            Claim::Got(_) => continue,
                            Claim::Blocked => {}
                            Claim::Drained => claiming = false,
                        }
                    }
                    if !queue.workers_active() {
                        // Workers exited between the failed get and
                        // this check: one final look, then recompute.
                        break slots[i].get();
                    }
                    if spins >= MERGE_PATIENCE {
                        break None;
                    }
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        merge_stalls += 1;
                        std::thread::yield_now();
                    }
                    spins += 1;
                }
            } else {
                None
            };
            let verified = match slot {
                Some(s) if s.done => {
                    if let Some(g) = governor.as_mut() {
                        g.charge(s.effort);
                    }
                    outcome.phase2.absorb(&s.stats);
                    consumed[i] = true;
                    s.result.clone().map(|m| (m, None))
                }
                _ => {
                    // Serial path — or a hole (worker stopped on the
                    // broadcast, or abandoned its claim): verify here.
                    // `run_candidate` rolls back to the base state, so
                    // recomputation is deterministic, and a racing
                    // worker's late slot write is never consumed.
                    if par_enabled {
                        recomputed += 1;
                    }
                    let before = effort_of(&outcome.phase2);
                    let verified = runner.run_candidate_timed(
                        &mut own.search,
                        key,
                        c,
                        i as u32,
                        &mut outcome.phase2,
                        want_trace,
                        own.timing.as_mut(),
                    );
                    if par_enabled {
                        // The same state fills slots: hand this
                        // candidate's events and tallies over now, so
                        // the next slot carries only its own.
                        if let Some(b) = own.search.drain_events() {
                            event_buffers.push(b);
                        }
                        if let Some(t) = own.search.drain_reject_tally() {
                            reject_tally.merge(&t);
                        }
                    }
                    if let Some(g) = governor.as_mut() {
                        g.charge(1 + (effort_of(&outcome.phase2) - before));
                    }
                    verified
                }
            };
            checked += 1;
            let Some((m, t)) = verified else {
                continue;
            };
            matched += 1;
            let set = m.device_set();
            if seen_sets.contains(&set) {
                dedup_dropped += 1;
                continue; // same instance reached through another candidate
            }
            let overlaps = options.overlap == OverlapPolicy::ClaimDevices
                && set.iter().any(|d| claimed.contains(d));
            if options.overlap == OverlapPolicy::ClaimDevices && !overlaps {
                if let Some(b) = board.as_ref() {
                    for d in &set {
                        b.publish(d.index());
                    }
                    // Epoch after bits: a worker that sees the epoch
                    // sees the bits.
                    shared.bump_claim_epoch();
                }
                claimed.extend(set.iter().copied());
            }
            seen_sets.insert(set); // move, not clone — the set is consumed here
            if overlaps {
                outcome.phase2.overlap_dropped += 1;
                continue;
            }
            if want_trace {
                p2_trace = t;
            }
            outcome.instances.push(m);
        }
    };
    let mut parts: Vec<WorkerPart> = if par_enabled {
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
                run_merge(&mut own);
            }
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    } else {
        run_merge(&mut own);
        Vec::new()
    };
    if let Some(reason) = truncation {
        let candidates_skipped = n - stop_index;
        outcome.completeness = Completeness::Truncated {
            reason,
            candidates_tried: checked as usize,
            candidates_skipped,
        };
        if let Some(b) = p1_events.as_mut() {
            b.push(EventKind::Truncated {
                reason,
                candidates_tried: checked,
                candidates_skipped: candidates_skipped as u64,
            });
        }
    }
    // `sort_by_cached_key`: one device-set materialization per
    // instance, not one per comparison.
    outcome.instances.sort_by_cached_key(SubMatch::device_set);
    outcome.trace = p2_trace;
    if let Some(t) = own.search.take_reject_tally() {
        reject_tally.merge(&t);
    }
    if let Some(b) = own.search.take_events() {
        event_buffers.push(b);
    }
    parts.push(own.finish());
    // Harvest the slots: only *consumed* candidates contribute events
    // and tallies (per-candidate, so the journal and reject accounting
    // are byte-identical across thread counts); slots the merge never
    // consumed — computed past a truncation point, or superseded by a
    // recompute — are dropped and counted.
    let mut sched = WorkerStats::default();
    let mut unconsumed = 0u64;
    for (i, s) in slots.into_iter().enumerate() {
        let Some(d) = s.into_inner() else { continue };
        if consumed[i] {
            if let Some(t) = d.tally {
                reject_tally.merge(&t);
            }
            if let Some(b) = d.events {
                event_buffers.push(b);
            }
        } else if d.done {
            unconsumed += 1;
        }
    }
    for part in parts {
        sched.absorb(&part.sched);
        if let Some(m) = metrics.as_mut() {
            if let Some(t) = part.timing {
                m.worker_busy_ns.push(t.sum_ns);
                m.phase2_verify_ns += t.sum_ns;
                m.phase2_max_candidate_ns = m.phase2_max_candidate_ns.max(t.max_ns);
                m.verify_ns_hist.merge(&t.hist);
            }
            if let Some(h) = part.backtrack_hist {
                m.backtrack_depth_hist.merge(&h);
            }
        }
    }
    if let Some(m) = metrics.as_mut() {
        if par_enabled {
            m.threads_used = threads;
        }
        if let Some(t) = &phase2_timer {
            m.phase2_wall_ns = t.elapsed_ns();
        }
        m.counters.bump("candidates.checked", checked);
        m.counters.bump("candidates.matched", matched);
        m.counters
            .bump("instances.reported", outcome.instances.len() as u64);
        m.counters.bump("instances.dedup_dropped", dedup_dropped);
        m.counters.bump(
            "instances.claim_dropped",
            outcome.phase2.overlap_dropped as u64,
        );
        if par_enabled {
            // Scheduler telemetry. Work counts (claims, steals,
            // skips) depend on runtime interleaving — unlike results,
            // which never do.
            m.counters.bump("scheduler.claims", sched.claimed);
            m.counters.bump("scheduler.steals", sched.steals);
            m.counters.bump("scheduler.claim_skips", sched.claim_skips);
            m.counters
                .bump("scheduler.window_stalls", sched.window_stalls);
            m.counters.bump("scheduler.merge_stalls", merge_stalls);
            m.counters.bump("scheduler.recomputed", recomputed);
            m.counters.bump("scheduler.unconsumed", unconsumed);
        }
        // Reject reasons land as counters in first-bump order;
        // `nonzero()` yields them in the closed `ALL` order.
        for (r, v) in reject_tally.nonzero() {
            m.counters.bump(r.counter_name(), v);
        }
        if let Some(g) = governor.as_ref() {
            record_budget_metrics(m, g, &outcome.completeness);
        }
    }
    if options.trace_events {
        let mut buffers = Vec::with_capacity(event_buffers.len() + 1);
        if let Some(b) = p1_events {
            buffers.push(b);
        }
        buffers.append(&mut event_buffers);
        outcome.events = Some(EventJournal::merge(buffers));
    }
    outcome.metrics = metrics;
    outcome
}
