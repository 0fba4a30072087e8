//! Matching options.

use std::sync::Arc;

use subgemini_netlist::{structural_digest, Artifact, CompiledCircuit, FingerprintIndex, Netlist};

use crate::budget::{CancelToken, WorkBudget};
use crate::phase1::SharedSteps;

/// What to do when two instances want the same main-circuit device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Report every instance, even if instances share devices (the
    /// paper's Fig. 7 inverter-in-NAND situation when special nets are
    /// ignored).
    #[default]
    AllowOverlap,
    /// First verified instance claims its devices; later instances that
    /// reuse a claimed device are dropped. This is the extraction
    /// discipline: each transistor belongs to exactly one gate.
    ClaimDevices,
}

/// A warm-start handle: the compiled main circuit and its fingerprint
/// index, typically loaded from a `.sgc` artifact, shared by reference
/// across every pattern in a run.
///
/// [`prepare`](crate::Matcher) paths use the handle — skipping
/// compilation entirely — when globals are respected and the handle
/// is tied to the main netlist: either the main *is* the netlist the
/// handle was [`bound`](WarmMain::bound) to (pointer identity, O(1)),
/// or the handle's source digest matches the
/// [`structural_digest`](subgemini_netlist::structural_digest) of the
/// main (O(pins)). Otherwise they fall back to a fresh compile
/// (counted as `artifact.warm_misses`).
///
/// The handle also carries the first steps of the main circuit's
/// Phase I label trace, which depend on the circuit alone: each is
/// built by the first search that needs it and adopted by every later
/// search through any clone of the handle (DESIGN.md §3b). Searches
/// stay byte-identical to cold runs.
///
/// Compared by identity (same shared allocation), like
/// [`CancelToken`].
#[derive(Clone)]
pub struct WarmMain(Arc<WarmMainInner>);

struct WarmMainInner {
    compiled: Arc<CompiledCircuit>,
    index: Arc<FingerprintIndex>,
    source_digest: u64,
    load_ns: u64,
    steps: SharedSteps,
    /// The netlist the handle was built from, when its constructor kept it
    /// (a registry entry). Shared and never mutated while the handle
    /// holds it, so a search on that very allocation needs no digest.
    source: Option<Arc<Netlist>>,
}

impl WarmMain {
    /// Wraps a decoded artifact. `load_ns` is reported as the
    /// `artifact.load_ns` counter on warm hits.
    pub fn from_artifact(artifact: Artifact, load_ns: u64) -> Self {
        Self::wrap(artifact, load_ns, None)
    }

    /// Wraps `artifact`, which must have been built from `source`, and
    /// keeps `source` with it: a search on that very netlist adopts the
    /// handle without recomputing its digest. Searches on any other
    /// netlist, an equal clone included, still go by the digest.
    pub fn bound(source: Arc<Netlist>, artifact: Artifact, load_ns: u64) -> Self {
        Self::wrap(artifact, load_ns, Some(source))
    }

    fn wrap(artifact: Artifact, load_ns: u64, source: Option<Arc<Netlist>>) -> Self {
        let (compiled, index, source_digest) = artifact.into_shared();
        WarmMain(Arc::new(WarmMainInner {
            compiled,
            index,
            source_digest,
            load_ns,
            steps: SharedSteps::default(),
            source,
        }))
    }

    /// Whether a search on `main` may adopt this handle: `main` is the
    /// netlist the handle is bound to, or has its source digest.
    pub(crate) fn adopts(&self, main: &Netlist) -> bool {
        self.0
            .source
            .as_ref()
            .is_some_and(|s| std::ptr::eq(Arc::as_ptr(s), main))
            || self.0.source_digest == structural_digest(main)
    }

    /// The shared compiled main circuit.
    pub fn compiled(&self) -> &Arc<CompiledCircuit> {
        &self.0.compiled
    }

    /// The shared fingerprint index.
    pub fn index(&self) -> &Arc<FingerprintIndex> {
        &self.0.index
    }

    /// Structural digest of the netlist the artifact was compiled from.
    pub fn source_digest(&self) -> u64 {
        self.0.source_digest
    }

    /// Nanoseconds spent loading/decoding the artifact.
    pub fn load_ns(&self) -> u64 {
        self.0.load_ns
    }

    /// The shared prefix of the compiled circuit's Phase I trace.
    pub(crate) fn shared_steps(&self) -> &SharedSteps {
        &self.0.steps
    }
}

impl std::fmt::Debug for WarmMain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmMain")
            .field("devices", &self.0.compiled.device_count())
            .field("source_digest", &self.0.source_digest)
            .finish()
    }
}

impl PartialEq for WarmMain {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for WarmMain {}

/// Options controlling a SubGemini run.
///
/// # Examples
///
/// ```
/// use subgemini::{MatchOptions, OverlapPolicy};
/// let opts = MatchOptions {
///     respect_globals: false,
///     overlap: OverlapPolicy::ClaimDevices,
///     ..MatchOptions::default()
/// };
/// assert!(!opts.respect_globals);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchOptions {
    /// Honor global (special) nets per §IV.A: a pattern `vdd` net may
    /// only match the same-named global net of the main circuit, global
    /// labels are fixed, and global rails never trigger label spreading.
    /// Default `true`.
    pub respect_globals: bool,
    /// Overlap policy for multi-instance searches.
    pub overlap: OverlapPolicy,
    /// Stop after this many verified instances (0 = unlimited).
    pub max_instances: usize,
    /// Maximum Phase II individuation guesses per candidate before the
    /// candidate is abandoned (guards pathological symmetry).
    pub max_guesses_per_candidate: usize,
    /// Maximum Phase II relabeling passes per candidate (safety valve;
    /// the algorithm normally terminates by progress detection long
    /// before this).
    pub max_passes_per_candidate: usize,
    /// Worker threads for Phase II candidate verification (candidates
    /// are independent). `1` (default) runs serially; `0` uses the
    /// machine's available parallelism. Parallel workers claim
    /// candidates one at a time from a shared cursor (work stealing,
    /// DESIGN.md §3e), and the serial merge consumes their results in
    /// candidate-vector order, so results are identical to the serial
    /// run for every thread count; `record_trace` forces serial
    /// execution.
    pub threads: usize,
    /// Seed for the deterministic RNG that generates unique match
    /// labels. Runs with equal seeds are bit-identical.
    pub seed: u64,
    /// Record a pass-by-pass [`Phase2Trace`](crate::Phase2Trace) of the
    /// first successful candidate (used to regenerate the paper's
    /// Table 1). Off by default; tracing clones label tables every pass.
    pub record_trace: bool,
    /// Let Phase II spread labels *from* main-circuit nets matched to
    /// pattern ports. Off by default: a port's image may have huge
    /// fanout (a shared clock has one pin per flip-flop), and scanning
    /// it every pass makes per-candidate cost grow with the main
    /// circuit — the same phenomenon §IV.A describes for power rails.
    /// Suppressing it preserves correctness (matched labels still
    /// contribute when a vertex is relabeled for other reasons) and
    /// restores the paper's linear scaling; see the `port_spreading`
    /// ablation bench.
    pub spread_from_port_images: bool,
    /// Collect a [`MetricsReport`](crate::MetricsReport) (phase timers,
    /// effort counters, worker utilization) on the outcome. Off by
    /// default: when disabled no timestamps are taken and results are
    /// identical to a run without the metrics subsystem.
    pub collect_metrics: bool,
    /// Record a structured [`EventJournal`](crate::EventJournal) of
    /// search events (refinement rounds, candidate begin/end, safe-label
    /// checks, backtracks, reject reasons) on the outcome. Off by
    /// default: when disabled no event is constructed and results are
    /// byte-identical to a run without the events subsystem. When on,
    /// each worker records into its own bounded buffer (no locks, no
    /// clocks) and the merged journal is identical for every thread
    /// count.
    pub trace_events: bool,
    /// Per-candidate cap on journaled events (also applies to the
    /// Phase I scope); further events are dropped and counted in
    /// [`EventJournal::dropped`](crate::EventJournal). The cap is per
    /// candidate — not per worker — so drops are deterministic across
    /// thread counts.
    pub trace_events_cap: usize,
    /// Global work budget: a cap in deterministic effort units and/or a
    /// wall-clock deadline (see [`WorkBudget`]). `None` (default) runs
    /// unbudgeted: no governor is constructed and results are
    /// byte-identical to a run without the budget subsystem. With an
    /// effort cap, the truncation point and the reported instance set
    /// are identical for every thread count; the outcome reports the
    /// stop in [`MatchOutcome::completeness`](crate::MatchOutcome).
    pub budget: Option<WorkBudget>,
    /// Cooperative cancellation flag, checked by every Phase I
    /// refinement cycle and every Phase II worker; cancelling returns
    /// the instances verified so far as a
    /// [`Truncated`](crate::Completeness::Truncated) outcome. `None`
    /// (default) is uncancellable. Compared by identity (same shared
    /// flag), like [`WarmMain`].
    pub cancel: Option<CancelToken>,
    /// Warm-start handle holding a precompiled main circuit and
    /// fingerprint index (usually loaded from a `.sgc` artifact). Used
    /// — and shared across a whole pattern library — whenever its
    /// source digest matches the main netlist and `respect_globals` is
    /// on; otherwise the run falls back to a fresh compile. A search
    /// that adopts the handle prunes its candidate vector against the
    /// handle's index, and only such a search prunes (DESIGN.md §3f).
    /// `None` (default) always compiles.
    pub warm_main: Option<WarmMain>,
    /// Session-layer request id, stamped verbatim onto
    /// [`MatchOutcome::request_id`](crate::MatchOutcome) for
    /// correlation across reports, journals, and logs. Pure metadata —
    /// the search never reads it. `None` (default) for direct core
    /// calls.
    pub request_id: Option<u64>,
}

impl Default for MatchOptions {
    fn default() -> Self {
        Self {
            respect_globals: true,
            overlap: OverlapPolicy::AllowOverlap,
            max_instances: 0,
            max_guesses_per_candidate: 256,
            max_passes_per_candidate: 10_000,
            threads: 1,
            seed: 0x5b6e_1347,
            record_trace: false,
            spread_from_port_images: false,
            collect_metrics: false,
            trace_events: false,
            trace_events_cap: 8192,
            budget: None,
            cancel: None,
            warm_main: None,
            request_id: None,
        }
    }
}

impl MatchOptions {
    /// Resolves `threads` to a concrete worker count: `0` (auto) maps
    /// to the machine's available parallelism, anything else is taken
    /// literally. Resolved exactly once per search so every report
    /// path agrees on both the requested and the resolved value.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// The configuration used by the extraction engine: claim devices,
    /// respect special nets.
    pub fn extraction() -> Self {
        Self {
            overlap: OverlapPolicy::ClaimDevices,
            ..Self::default()
        }
    }

    /// Ablation configuration: ignore special nets entirely (paper
    /// Fig. 7 failure mode; also the §IV.A performance comparison).
    pub fn ignore_globals() -> Self {
        Self {
            respect_globals: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let o = MatchOptions::default();
        assert!(o.respect_globals);
        assert_eq!(o.overlap, OverlapPolicy::AllowOverlap);
        assert_eq!(o.max_instances, 0);
        assert_eq!(o.budget, None, "searches are unbudgeted by default");
        assert_eq!(o.cancel, None, "searches are uncancellable by default");
        assert_eq!(o.warm_main, None, "cold start by default");
    }

    #[test]
    fn warm_main_compares_by_identity() {
        let mut nl = subgemini_netlist::Netlist::new("t");
        let mos = nl.add_mos_types();
        let (a, b) = (nl.net("a"), nl.net("b"));
        nl.add_device("m", mos.nmos, &[a, b, a]).unwrap();
        let art = Artifact::build(&nl);
        let w1 = WarmMain::from_artifact(art.clone(), 7);
        let w2 = WarmMain::from_artifact(art, 7);
        assert_eq!(w1, w1.clone());
        assert_ne!(w1, w2, "distinct handles differ even with equal contents");
        assert_eq!(w1.load_ns(), 7);
    }

    #[test]
    fn bound_handle_adopts_its_own_netlist_without_the_digest() {
        let mut nl = subgemini_netlist::Netlist::new("t");
        let mos = nl.add_mos_types();
        let (a, b) = (nl.net("a"), nl.net("b"));
        nl.add_device("m", mos.nmos, &[a, b, a]).unwrap();
        let mut art = Artifact::build(&nl);
        // A digest no netlist has: only pointer identity can tie the
        // handle to its source.
        art.source_digest ^= 1;
        let source = Arc::new(nl);
        let clone = Netlist::clone(&source);
        let bound = WarmMain::bound(Arc::clone(&source), art.clone(), 0);
        assert!(bound.adopts(&source), "its own netlist, by identity");
        assert!(!bound.adopts(&clone), "an equal clone goes by the digest");
        let unbound = WarmMain::from_artifact(art, 0);
        assert!(!unbound.adopts(&source));
        // The matcher and the extractor decide through `adopts`.
        let mut pattern = subgemini_netlist::Netlist::new("p");
        let mos = pattern.add_mos_types();
        let (x, y) = (pattern.net("x"), pattern.net("y"));
        pattern.mark_port(x);
        pattern.mark_port(y);
        pattern.add_device("q", mos.nmos, &[x, y, x]).unwrap();
        let opts = MatchOptions {
            warm_main: Some(bound),
            collect_metrics: true,
            ..MatchOptions::default()
        };
        let counter = |o: &crate::MatchOutcome, name: &str| {
            o.metrics
                .as_ref()
                .expect("metrics requested")
                .counters
                .get(name)
        };
        let hit = crate::find_all(&pattern, &source, &opts);
        let miss = crate::find_all(&pattern, &clone, &opts);
        assert_eq!(counter(&hit, "artifact.warm_hits"), 1);
        assert_eq!(counter(&miss, "artifact.warm_misses"), 1);
        assert_eq!(hit.instances, miss.instances);
        let extract_hits = |main: &Netlist| {
            let mut ex = crate::Extractor::new();
            ex.add_cell(pattern.clone()).set_options(opts.clone());
            let (_, report) = ex.extract(main).expect("no composite name collides");
            let cell = &report.metrics.expect("metrics requested").cells[0];
            let m = cell.match_metrics.as_ref().expect("metrics requested");
            m.counters.get("artifact.warm_hits")
        };
        assert_eq!(extract_hits(&source), 1);
        assert_eq!(extract_hits(&clone), 0);
    }

    #[test]
    fn resolved_threads_maps_auto_once() {
        let mut o = MatchOptions::default();
        assert_eq!(o.resolved_threads(), 1);
        o.threads = 3;
        assert_eq!(o.resolved_threads(), 3);
        o.threads = 0;
        assert!(o.resolved_threads() >= 1, "auto resolves to >= 1");
    }

    #[test]
    fn presets() {
        assert_eq!(
            MatchOptions::extraction().overlap,
            OverlapPolicy::ClaimDevices
        );
        assert!(!MatchOptions::ignore_globals().respect_globals);
    }
}
