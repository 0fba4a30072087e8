//! SubGemini engine: the session layer between front ends and the
//! matching core.
//!
//! After PR 6 every front end (the `subg` CLI, benches, tests)
//! hand-rolled the same request pipeline: parse a netlist, compile it
//! (or adopt a warm `.sgc` artifact), assemble [`MatchOptions`], run
//! `find`/`survey`/`explain`, and render a report. This crate extracts
//! that pipeline once:
//!
//! * [`Engine`] — a registry of named, `Arc`-shared compiled circuits
//!   (each held as a [`WarmMain`]: CSR snapshot + fingerprint index)
//!   and named pattern libraries. Registration compiles once; every
//!   subsequent request against that name shares the allocation, so a
//!   daemon amortizes compilation across heavy traffic exactly like
//!   [`subgemini::find_all_many`] amortizes it across a library sweep.
//! * Typed requests ([`FindRequest`], [`SurveyRequest`],
//!   [`ExplainRequest`]) — every request carries its *own*
//!   [`RequestOptions`]: work budget/deadline, thread count,
//!   cancellation token, and event-journal capture. Nothing is
//!   process-global; two concurrent requests with different QoS coexist
//!   on one registry entry.
//! * [`RequestOptions::lower`] — the one place that turns request
//!   options into core [`MatchOptions`], including the artifact-load /
//!   digest-check / warm-main wiring the CLI used to repeat per
//!   subcommand.
//!
//! The sharing contract (see DESIGN.md §3g): registry entries are
//! immutable snapshots behind `Arc`, except that each entry's first
//! Phase I trace steps are written once, by the first request that
//! needs them, and adopted by every later one. A request resolves its
//! entry once and keeps the `Arc` for its whole run; re-registering a
//! name swaps the map pointer and never mutates the old entry, so
//! in-flight requests finish against the snapshot they started with.
//! Because the matching core is deterministic (serial
//! candidate-vector-ordered merge) and a trace step is a pure function
//! of the snapshot, N concurrent requests over one shared entry return
//! results byte-identical to N serial CLI runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod source;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use subgemini::hier::{Hierarchizer, HierarchyReport};
use subgemini::{
    find_all, find_all_many, CancelToken, ExplainReport, MatchOptions, MatchOutcome, RequestSample,
    Telemetry, TelemetrySnapshot, WarmMain, WorkBudget,
};
use subgemini_netlist::{structural_digest, Artifact, Netlist};

/// Why the engine refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The request named a circuit the registry does not hold.
    UnknownCircuit(String),
    /// The request named a library the registry does not hold.
    UnknownLibrary(String),
    /// The request named a cell its library does not define.
    UnknownCell {
        /// The library that was searched.
        library: String,
        /// The missing cell.
        cell: String,
    },
    /// Anything else: source parse problems, artifact problems, bad
    /// option combinations. The message is front-end-ready.
    Invalid(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownCircuit(n) => write!(f, "unknown circuit `{n}`"),
            EngineError::UnknownLibrary(n) => write!(f, "unknown library `{n}`"),
            EngineError::UnknownCell { library, cell } => {
                write!(f, "library `{library}` has no cell `{cell}`")
            }
            EngineError::Invalid(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<String> for EngineError {
    fn from(m: String) -> Self {
        EngineError::Invalid(m)
    }
}

/// Per-request knobs, lowered onto core [`MatchOptions`] by
/// [`RequestOptions::lower`]. Defaults mirror `MatchOptions::default()`
/// for every field carried here, so an all-default request behaves
/// exactly like a bare CLI invocation.
#[derive(Clone, Debug)]
pub struct RequestOptions {
    /// Honor global (special) nets (default `true`).
    pub respect_globals: bool,
    /// Stop after this many verified instances (0 = unlimited).
    pub max_instances: usize,
    /// Phase II worker threads (`1` serial, `0` = machine auto).
    pub threads: usize,
    /// Collect phase timers and effort counters on the outcome.
    pub collect_metrics: bool,
    /// Record the structured event journal on the outcome.
    pub trace_events: bool,
    /// Work budget (effort cap and/or wall-clock deadline). An
    /// unlimited budget is treated as `None`, so plain requests stay
    /// governor-free.
    pub budget: Option<WorkBudget>,
    /// Cooperative cancellation flag for this request.
    pub cancel: Option<CancelToken>,
    /// Path to a `.sgc` artifact to warm-start from (the CLI
    /// `--artifact` flag). Takes precedence over a registry entry's
    /// shared handle; the artifact must match the main circuit's
    /// structural digest.
    pub artifact: Option<String>,
    /// Request id to run under. `None` (default) lets the engine mint
    /// the next id from its counter; a caller-supplied id is used
    /// verbatim (transports that assign ids upstream). The id is
    /// threaded through [`RequestOptions::lower`] into the outcome,
    /// report JSON, and logs — pure correlation metadata, never read by
    /// the search.
    pub request_id: Option<u64>,
}

impl Default for RequestOptions {
    fn default() -> Self {
        Self {
            respect_globals: true,
            max_instances: 0,
            threads: 1,
            collect_metrics: false,
            trace_events: false,
            budget: None,
            cancel: None,
            artifact: None,
            request_id: None,
        }
    }
}

impl RequestOptions {
    /// Lowers request options onto core [`MatchOptions`], resolving the
    /// warm-start source. This is the single copy of the
    /// artifact-load / digest-check / warm-main wiring that `find`,
    /// `explain`, and `survey` each used to hand-roll:
    ///
    /// * an explicit [`artifact`](RequestOptions::artifact) path is
    ///   loaded and digest-checked against `main` — a mismatch is a
    ///   hard error (the caller named the file), never a silent cold
    ///   fallback;
    /// * otherwise a registry entry's shared [`WarmMain`] is adopted,
    ///   but only under global-respecting matching (a de-globaled run
    ///   needs a different compilation and stays cold — byte-identical
    ///   to an inline request).
    ///
    /// # Errors
    ///
    /// Artifact problems (unreadable, digest mismatch, combined with
    /// `respect_globals = false`) as [`EngineError::Invalid`].
    pub fn lower(
        &self,
        main: &Netlist,
        registry_warm: Option<&WarmMain>,
    ) -> Result<MatchOptions, EngineError> {
        let mut opts = MatchOptions {
            respect_globals: self.respect_globals,
            max_instances: self.max_instances,
            threads: self.threads,
            collect_metrics: self.collect_metrics,
            trace_events: self.trace_events,
            ..MatchOptions::default()
        };
        opts.budget = self.budget.clone().filter(|b| !b.is_unlimited());
        opts.cancel = self.cancel.clone();
        opts.request_id = self.request_id;
        if let Some(path) = self.artifact.as_deref() {
            if !self.respect_globals {
                return Err(EngineError::Invalid(
                    "--artifact requires global-respecting matching; drop --ignore-globals".into(),
                ));
            }
            let t0 = Instant::now();
            let artifact = Artifact::load(std::path::Path::new(path))
                .map_err(|e| EngineError::Invalid(e.to_string()))?;
            let load_ns = t0.elapsed().as_nanos() as u64;
            if artifact.source_digest != structural_digest(main) {
                return Err(EngineError::Invalid(format!(
                    "{path}: artifact was compiled from a different circuit; re-run `subg compile`"
                )));
            }
            opts.warm_main = Some(WarmMain::from_artifact(artifact, load_ns));
        } else if let Some(warm) = registry_warm {
            if self.respect_globals {
                opts.warm_main = Some(warm.clone());
            }
        }
        Ok(opts)
    }
}

/// The main circuit a request runs against.
#[derive(Clone, Copy, Debug)]
pub enum CircuitSource<'a> {
    /// A named registry entry (shared compiled snapshot + index).
    Registered(&'a str),
    /// A caller-provided netlist, compiled for this request only (the
    /// CLI one-shot path — deliberately *not* registered, so cold runs
    /// stay cold and byte-identical to pre-engine releases).
    Inline(&'a Netlist),
}

/// The pattern a find/explain request searches for.
#[derive(Clone, Copy, Debug)]
pub enum PatternSource<'a> {
    /// A caller-provided pattern netlist.
    Inline(&'a Netlist),
    /// A cell from a registered pattern library.
    Library {
        /// The registered library name.
        library: &'a str,
        /// The cell within it.
        cell: &'a str,
    },
}

/// The cell library a survey sweeps.
#[derive(Clone, Copy, Debug)]
pub enum LibrarySource<'a> {
    /// A named registered library.
    Registered(&'a str),
    /// Caller-provided cells.
    Inline(&'a [Netlist]),
}

/// A find request: locate all instances of one pattern in one circuit.
/// The two are borrowed for lifetimes of their own, because the
/// response keeps the circuit's borrow ([`FindResponse`]) and not the
/// pattern's.
#[derive(Debug)]
pub struct FindRequest<'a, 'p> {
    /// The main circuit.
    pub circuit: CircuitSource<'a>,
    /// The pattern.
    pub pattern: PatternSource<'p>,
    /// Per-request options.
    pub options: RequestOptions,
}

/// A survey request: count instances of every library cell in one run,
/// sharing the compiled main and the Phase I relabeling across cells.
#[derive(Debug)]
pub struct SurveyRequest<'a> {
    /// The main circuit.
    pub circuit: CircuitSource<'a>,
    /// The cell library.
    pub library: LibrarySource<'a>,
    /// Per-request options.
    pub options: RequestOptions,
}

/// A hierarchize request: rebuild the design hierarchy of one flat
/// circuit by running extraction bottom-up, level by level, to a
/// fixpoint (paper §I; `subgemini::hier`). The request options lower
/// through the same [`RequestOptions::lower`] path as every other
/// request; budget and deadline apply to each round's searches
/// independently (the budget is declarative, so every round starts it
/// fresh).
#[derive(Debug)]
pub struct HierarchizeRequest<'a> {
    /// The flat main circuit.
    pub circuit: CircuitSource<'a>,
    /// The cell library to rebuild the hierarchy from; upper cells may
    /// reference lower ones by composite device-type name.
    pub library: LibrarySource<'a>,
    /// Per-request options.
    pub options: RequestOptions,
}

/// An explain request: a find with the event journal forced on, plus a
/// rendered [`ExplainReport`].
#[derive(Debug)]
pub struct ExplainRequest<'a> {
    /// The main circuit.
    pub circuit: CircuitSource<'a>,
    /// The pattern.
    pub pattern: PatternSource<'a>,
    /// Per-request options (`trace_events` is forced on).
    pub options: RequestOptions,
}

/// Response to a find request. It keeps the netlist it searched — the
/// registry entry's shared one, or the caller's own for an inline
/// circuit — so instance device names are read from it on demand
/// ([`FindResponse::instance_devices`]) and a caller that never prints
/// them never builds them.
#[derive(Clone, Debug)]
pub struct FindResponse<'a> {
    /// Name of the main circuit searched.
    pub circuit: String,
    /// Name of the pattern searched for.
    pub pattern: String,
    /// The full match outcome (instances, stats, completeness,
    /// optional metrics/journal).
    pub outcome: MatchOutcome,
    /// The main circuit searched.
    main: Searched<'a>,
    /// The request id this search ran under (minted by the engine
    /// unless the caller supplied one).
    pub request_id: u64,
    /// End-to-end wall time of the search call, in nanoseconds.
    pub wall_ns: u64,
    /// Deterministic effort spent (Phase I iterations + Phase II
    /// candidates/passes/guesses/backtracks) — always available, even
    /// when metrics were not requested.
    pub effort_spent: u64,
}

impl FindResponse<'_> {
    /// The main-circuit device names of each instance, in instance
    /// order; an instance's names in ascending device-id order, that of
    /// [`SubMatch::device_set`](subgemini::SubMatch::device_set).
    pub fn instance_devices(&self) -> impl ExactSizeIterator<Item = Vec<&str>> {
        let main = self.main.netlist();
        self.outcome.instances.iter().map(move |m| {
            let set = m.device_set();
            set.iter().map(|&d| main.device(d).name()).collect()
        })
    }
}

/// The netlist a find searched.
#[derive(Clone, Debug)]
enum Searched<'a> {
    Registered(Arc<Netlist>),
    Inline(&'a Netlist),
}

impl Searched<'_> {
    fn netlist(&self) -> &Netlist {
        match self {
            Searched::Registered(n) => n,
            Searched::Inline(n) => n,
        }
    }
}

/// One survey row: a cell and its outcome.
#[derive(Clone, Debug)]
pub struct SurveyRow {
    /// The cell name.
    pub cell: String,
    /// The cell's match outcome.
    pub outcome: MatchOutcome,
}

/// Response to a survey request.
#[derive(Clone, Debug)]
pub struct SurveyResponse {
    /// Name of the main circuit surveyed.
    pub circuit: String,
    /// One row per library cell, in library order.
    pub rows: Vec<SurveyRow>,
    /// The request id the sweep ran under (one id for all rows).
    pub request_id: u64,
    /// End-to-end wall time of the whole sweep, in nanoseconds.
    pub wall_ns: u64,
    /// Deterministic effort spent, summed over the rows.
    pub effort_spent: u64,
}

/// Response to a hierarchize request.
#[derive(Clone, Debug)]
pub struct HierarchizeResponse {
    /// Name of the flat circuit hierarchized.
    pub circuit: String,
    /// Per-level tallies, containment tree, residue, sweep count.
    pub report: HierarchyReport,
    /// The hierarchical SPICE deck (`.subckt` per used cell + the
    /// collapsed top), ready to write to disk or return over HTTP.
    pub deck: String,
    /// Rounds run (level-passes summed over sweeps), including the
    /// final all-quiet sweep that proves the fixpoint.
    pub rounds: usize,
    /// The request id the run executed under (one id for all rounds).
    pub request_id: u64,
    /// End-to-end wall time of the whole fixpoint run, in nanoseconds.
    pub wall_ns: u64,
}

/// Response to an explain request.
#[derive(Clone, Debug)]
pub struct ExplainResponse {
    /// Name of the main circuit searched.
    pub circuit: String,
    /// Name of the pattern searched for.
    pub pattern: String,
    /// The full match outcome (journal included).
    pub outcome: MatchOutcome,
    /// The report distilled from the journal.
    pub report: ExplainReport,
    /// The request id this search ran under.
    pub request_id: u64,
    /// End-to-end wall time of the search call, in nanoseconds.
    pub wall_ns: u64,
    /// Deterministic effort spent.
    pub effort_spent: u64,
}

/// Result of compiling/registering a circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileInfo {
    /// The registered name.
    pub name: String,
    /// Device count of the compiled snapshot.
    pub devices: usize,
    /// Net count of the compiled snapshot.
    pub nets: usize,
    /// Structural digest of the source netlist.
    pub digest: u64,
    /// Encoded `.sgc` artifact size in bytes.
    pub artifact_bytes: usize,
}

/// Result of registering a pattern library.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LibraryInfo {
    /// The registered name.
    pub name: String,
    /// Cell names, in library order.
    pub cells: Vec<String>,
}

/// A compiled-and-encoded artifact, for front ends that persist `.sgc`
/// files (the CLI `compile` subcommand).
#[derive(Clone, Debug)]
pub struct EncodedArtifact {
    /// The encoded `.sgc` bytes.
    pub bytes: Vec<u8>,
    /// Device count of the compiled snapshot.
    pub devices: usize,
    /// Net count of the compiled snapshot.
    pub nets: usize,
    /// Structural digest of the source netlist.
    pub digest: u64,
}

/// Compiles a netlist into an encoded `.sgc` artifact (CSR snapshot +
/// fingerprint index) without touching any registry.
pub fn compile_netlist(main: &Netlist) -> EncodedArtifact {
    let artifact = Artifact::build(main);
    let bytes = artifact.encode();
    EncodedArtifact {
        devices: artifact.circuit.device_count(),
        nets: artifact.circuit.net_count(),
        digest: artifact.source_digest,
        bytes,
    }
}

/// A registered circuit: the source netlist plus its shared compiled
/// snapshot and fingerprint index, all immutable behind `Arc`, and the
/// write-once shared trace steps inside `warm`.
struct CircuitEntry {
    netlist: Arc<Netlist>,
    warm: WarmMain,
    devices: usize,
    nets: usize,
    digest: u64,
    artifact_bytes: usize,
}

/// Registry description of one circuit, as reported by
/// [`Engine::status`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitInfo {
    /// The registered name.
    pub name: String,
    /// Device count.
    pub devices: usize,
    /// Net count.
    pub nets: usize,
    /// Structural digest.
    pub digest: u64,
    /// Encoded artifact size in bytes.
    pub artifact_bytes: usize,
}

/// A point-in-time snapshot of the engine: registry contents and
/// request counters (the `/metrics` surface of the daemon).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStatus {
    /// Registered circuits, sorted by name.
    pub circuits: Vec<CircuitInfo>,
    /// Registered libraries as `(name, cell count)`, sorted by name.
    pub libraries: Vec<(String, usize)>,
    /// Cumulative request counters, in a fixed order.
    pub requests: Vec<(&'static str, u64)>,
    /// Cross-request telemetry rollups (per-endpoint and per-circuit
    /// latency/effort/backtrack histograms, truncation and reject
    /// tallies).
    pub telemetry: TelemetrySnapshot,
}

#[derive(Default)]
struct EngineCounters {
    compile: AtomicU64,
    library: AtomicU64,
    find: AtomicU64,
    survey: AtomicU64,
    explain: AtomicU64,
    hierarchize: AtomicU64,
    truncated: AtomicU64,
}

/// The session engine: named registries of compiled circuits and
/// pattern libraries plus the request pipeline over them. Cheap to
/// construct; front ends that never register anything (the CLI
/// one-shot path) pay nothing for the registry.
///
/// All methods take `&self` and are safe to call from many threads;
/// see the module docs for the sharing contract.
///
/// Every search request gets a request id (engine-minted, starting at
/// 1, unless the caller set [`RequestOptions::request_id`]), runs with
/// exactly the options it carries, and is folded into the cross-request
/// rollups of [`Engine::telemetry`] once its outcome is complete. The
/// fold is zero-perturbation: it reads only counts every outcome keeps,
/// after the deterministic serial merge (DESIGN.md §3h).
pub struct Engine {
    circuits: RwLock<HashMap<String, Arc<CircuitEntry>>>,
    libraries: RwLock<HashMap<String, Arc<Vec<Netlist>>>>,
    counters: EngineCounters,
    telemetry: Telemetry,
    next_request_id: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Self {
            circuits: RwLock::new(HashMap::new()),
            libraries: RwLock::new(HashMap::new()),
            counters: EngineCounters::default(),
            telemetry: Telemetry::default(),
            next_request_id: AtomicU64::new(1),
        }
    }
}

enum ResolvedCircuit<'a> {
    Entry(Arc<CircuitEntry>),
    Inline(&'a Netlist),
}

impl<'a> ResolvedCircuit<'a> {
    fn netlist(&self) -> &Netlist {
        match self {
            ResolvedCircuit::Entry(e) => &e.netlist,
            ResolvedCircuit::Inline(n) => n,
        }
    }

    fn warm(&self) -> Option<&WarmMain> {
        match self {
            ResolvedCircuit::Entry(e) => Some(&e.warm),
            ResolvedCircuit::Inline(_) => None,
        }
    }

    /// The netlist alone, for a response to keep.
    fn searched(&self) -> Searched<'a> {
        match *self {
            ResolvedCircuit::Entry(ref e) => Searched::Registered(Arc::clone(&e.netlist)),
            ResolvedCircuit::Inline(n) => Searched::Inline(n),
        }
    }
}

enum ResolvedPattern<'a> {
    Borrowed(&'a Netlist),
    Owned(Box<Netlist>),
}

impl ResolvedPattern<'_> {
    fn get(&self) -> &Netlist {
        match self {
            ResolvedPattern::Borrowed(n) => n,
            ResolvedPattern::Owned(n) => n,
        }
    }
}

enum ResolvedLibrary<'a> {
    Shared(Arc<Vec<Netlist>>),
    Inline(&'a [Netlist]),
}

impl ResolvedLibrary<'_> {
    fn cells(&self) -> &[Netlist] {
        match self {
            ResolvedLibrary::Shared(v) => v,
            ResolvedLibrary::Inline(s) => s,
        }
    }
}

fn registered_name<'a>(src: &CircuitSource<'a>) -> Option<&'a str> {
    match *src {
        CircuitSource::Registered(name) => Some(name),
        CircuitSource::Inline(_) => None,
    }
}

impl Engine {
    /// An empty engine: no circuits, no libraries, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `netlist` (CSR snapshot + fingerprint index, same
    /// build as a `.sgc` artifact) and registers it under `name`,
    /// replacing any previous entry. In-flight requests against a
    /// replaced entry finish on the old snapshot.
    pub fn register_circuit(&self, name: &str, netlist: Netlist) -> CompileInfo {
        self.counters.compile.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let artifact = Artifact::build(&netlist);
        let artifact_bytes = artifact.encoded_len();
        let devices = artifact.circuit.device_count();
        let nets = artifact.circuit.net_count();
        let digest = artifact.source_digest;
        let build_ns = t0.elapsed().as_nanos() as u64;
        // The handle keeps the entry's netlist: requests on this entry
        // adopt it by identity, without an O(pins) digest.
        let netlist = Arc::new(netlist);
        let warm = WarmMain::bound(Arc::clone(&netlist), artifact, build_ns);
        let entry = Arc::new(CircuitEntry {
            netlist,
            warm,
            devices,
            nets,
            digest,
            artifact_bytes,
        });
        self.circuits
            .write()
            .expect("circuit registry poisoned")
            .insert(name.to_string(), entry);
        CompileInfo {
            name: name.to_string(),
            devices,
            nets,
            digest,
            artifact_bytes,
        }
    }

    /// Registers a pattern library under `name`, replacing any
    /// previous entry.
    pub fn register_library(&self, name: &str, cells: Vec<Netlist>) -> LibraryInfo {
        self.counters.library.fetch_add(1, Ordering::Relaxed);
        let info = LibraryInfo {
            name: name.to_string(),
            cells: cells.iter().map(|c| c.name().to_string()).collect(),
        };
        self.libraries
            .write()
            .expect("library registry poisoned")
            .insert(name.to_string(), Arc::new(cells));
        info
    }

    fn resolve_circuit<'a>(
        &self,
        src: &CircuitSource<'a>,
    ) -> Result<ResolvedCircuit<'a>, EngineError> {
        match *src {
            CircuitSource::Registered(name) => self
                .circuits
                .read()
                .expect("circuit registry poisoned")
                .get(name)
                .cloned()
                .map(ResolvedCircuit::Entry)
                .ok_or_else(|| EngineError::UnknownCircuit(name.to_string())),
            CircuitSource::Inline(n) => Ok(ResolvedCircuit::Inline(n)),
        }
    }

    fn resolve_pattern<'a>(
        &self,
        src: &PatternSource<'a>,
    ) -> Result<ResolvedPattern<'a>, EngineError> {
        match *src {
            PatternSource::Inline(n) => Ok(ResolvedPattern::Borrowed(n)),
            PatternSource::Library { library, cell } => {
                let cells = self
                    .libraries
                    .read()
                    .expect("library registry poisoned")
                    .get(library)
                    .cloned()
                    .ok_or_else(|| EngineError::UnknownLibrary(library.to_string()))?;
                cells
                    .iter()
                    .find(|c| c.name() == cell)
                    .cloned()
                    .map(|c| ResolvedPattern::Owned(Box::new(c)))
                    .ok_or_else(|| EngineError::UnknownCell {
                        library: library.to_string(),
                        cell: cell.to_string(),
                    })
            }
        }
    }

    fn resolve_library<'a>(
        &self,
        src: &LibrarySource<'a>,
    ) -> Result<ResolvedLibrary<'a>, EngineError> {
        match *src {
            LibrarySource::Registered(name) => self
                .libraries
                .read()
                .expect("library registry poisoned")
                .get(name)
                .cloned()
                .map(ResolvedLibrary::Shared)
                .ok_or_else(|| EngineError::UnknownLibrary(name.to_string())),
            LibrarySource::Inline(cells) => Ok(ResolvedLibrary::Inline(cells)),
        }
    }

    /// Counts a request that stopped early, once however many of its
    /// searches did.
    fn note_truncated(&self, truncated: bool) {
        if truncated {
            self.counters.truncated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The cross-request telemetry registry: read it with
    /// [`Telemetry::snapshot`] (also included in [`Engine::status`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mints the next request id (monotone from 1, engine-local).
    fn mint_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Lowers request options for one search under its request id,
    /// minting one unless the caller supplied it. Returns the lowered
    /// options and the id.
    fn lowered(
        &self,
        options: &RequestOptions,
        main: &Netlist,
        warm: Option<&WarmMain>,
    ) -> Result<(MatchOptions, u64), EngineError> {
        let request_id = options.request_id.unwrap_or_else(|| self.mint_request_id());
        let mut request_opts = options.clone();
        request_opts.request_id = Some(request_id);
        Ok((request_opts.lower(main, warm)?, request_id))
    }

    /// Runs a find request.
    ///
    /// # Errors
    ///
    /// Unknown registry names and option/artifact problems.
    ///
    /// # Panics
    ///
    /// Panics if the pattern contains an isolated net (same contract as
    /// [`subgemini::Matcher::find_all`]).
    pub fn find<'a>(&self, req: &FindRequest<'a, '_>) -> Result<FindResponse<'a>, EngineError> {
        self.counters.find.fetch_add(1, Ordering::Relaxed);
        let circuit = self.resolve_circuit(&req.circuit)?;
        let main = circuit.netlist();
        let pattern = self.resolve_pattern(&req.pattern)?;
        let pattern = pattern.get();
        let (opts, request_id) = self.lowered(&req.options, main, circuit.warm())?;
        let t0 = Instant::now();
        let outcome = find_all(pattern, main, &opts);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.note_truncated(outcome.completeness.is_truncated());
        let sample = RequestSample::from_outcome(&outcome, wall_ns);
        self.telemetry
            .fold("find", registered_name(&req.circuit), &sample);
        Ok(FindResponse {
            circuit: main.name().to_string(),
            pattern: pattern.name().to_string(),
            outcome,
            main: circuit.searched(),
            request_id,
            wall_ns,
            effort_spent: sample.effort,
        })
    }

    /// Runs a survey request: every library cell against one circuit,
    /// compiling and Phase-I-relabeling the main exactly once.
    ///
    /// # Errors
    ///
    /// Unknown registry names and option/artifact problems.
    ///
    /// # Panics
    ///
    /// Panics if a cell contains an isolated net (same contract as
    /// [`subgemini::find_all_many`]).
    pub fn survey(&self, req: &SurveyRequest<'_>) -> Result<SurveyResponse, EngineError> {
        self.counters.survey.fetch_add(1, Ordering::Relaxed);
        let circuit = self.resolve_circuit(&req.circuit)?;
        let main = circuit.netlist();
        let library = self.resolve_library(&req.library)?;
        let cells = library.cells();
        let refs: Vec<&Netlist> = cells.iter().collect();
        let (opts, request_id) = self.lowered(&req.options, main, circuit.warm())?;
        let t0 = Instant::now();
        let outcomes = find_all_many(&refs, main, &opts);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let sample = RequestSample::from_outcomes(outcomes.iter(), wall_ns);
        self.note_truncated(sample.truncation.is_some());
        self.telemetry
            .fold("survey", registered_name(&req.circuit), &sample);
        let rows = cells
            .iter()
            .zip(outcomes)
            .map(|(cell, outcome)| SurveyRow {
                cell: cell.name().to_string(),
                outcome,
            })
            .collect();
        Ok(SurveyResponse {
            circuit: main.name().to_string(),
            rows,
            request_id,
            wall_ns,
            effort_spent: sample.effort,
        })
    }

    /// Runs an explain request: a find with `trace_events` forced on,
    /// plus the [`ExplainReport`] distilled from the merged journal.
    ///
    /// # Errors
    ///
    /// Unknown registry names and option/artifact problems.
    ///
    /// # Panics
    ///
    /// Panics if the pattern contains an isolated net (same contract as
    /// [`subgemini::Matcher::find_all`]).
    pub fn explain(&self, req: &ExplainRequest<'_>) -> Result<ExplainResponse, EngineError> {
        self.counters.explain.fetch_add(1, Ordering::Relaxed);
        let circuit = self.resolve_circuit(&req.circuit)?;
        let main = circuit.netlist();
        let pattern = self.resolve_pattern(&req.pattern)?;
        let pattern = pattern.get();
        let mut request_opts = req.options.clone();
        request_opts.trace_events = true;
        let (opts, request_id) = self.lowered(&request_opts, main, circuit.warm())?;
        let t0 = Instant::now();
        let outcome = find_all(pattern, main, &opts);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.note_truncated(outcome.completeness.is_truncated());
        let sample = RequestSample::from_outcome(&outcome, wall_ns);
        self.telemetry
            .fold("explain", registered_name(&req.circuit), &sample);
        let report = ExplainReport::from_outcome(&outcome);
        Ok(ExplainResponse {
            circuit: main.name().to_string(),
            pattern: pattern.name().to_string(),
            outcome,
            report,
            request_id,
            wall_ns,
            effort_spent: sample.effort,
        })
    }

    /// Runs a hierarchize request: groups the library into levels,
    /// then runs extraction bottom-up, level by level, to a fixpoint
    /// (see `subgemini::hier`), and renders the collapsed top plus the
    /// used cells as a hierarchical SPICE deck.
    ///
    /// One telemetry [`RequestSample`] is folded per *round* (one
    /// level-pass of one sweep) under endpoint `"hierarchize"`, so the
    /// rollups expose the per-round latency distribution of the
    /// fixpoint loop rather than one opaque total; a round whose
    /// searches stopped early under the budget/deadline/cancel
    /// settings folds with truncation reason `round_truncated`, and a
    /// request with any such round bumps the `truncated` request
    /// counter once. The lowered budget is
    /// declarative (effort cap / relative deadline), so every round —
    /// and every cell search within it — starts it afresh.
    ///
    /// # Errors
    ///
    /// Unknown registry names, option/artifact problems, and library
    /// problems (duplicate cells, reference cycles, port-arity
    /// mismatches, no fixpoint) as [`EngineError::Invalid`].
    pub fn hierarchize(
        &self,
        req: &HierarchizeRequest<'_>,
    ) -> Result<HierarchizeResponse, EngineError> {
        self.counters.hierarchize.fetch_add(1, Ordering::Relaxed);
        let circuit = self.resolve_circuit(&req.circuit)?;
        let main = circuit.netlist();
        let library = self.resolve_library(&req.library)?;
        let (opts, request_id) = self.lowered(&req.options, main, circuit.warm())?;
        let mut hierarchizer =
            Hierarchizer::new(library.cells()).map_err(|e| EngineError::Invalid(e.to_string()))?;
        hierarchizer.set_options(opts);
        let circuit_name = registered_name(&req.circuit);
        let t0 = Instant::now();
        let mut rounds = 0usize;
        let mut truncated = false;
        let mut round_start = t0;
        let outcome = hierarchizer
            .run_observed(main, |round| {
                rounds += 1;
                let now = Instant::now();
                let round_wall = now.duration_since(round_start).as_nanos() as u64;
                round_start = now;
                truncated |= round.truncated_cells > 0;
                let sample = RequestSample {
                    wall_ns: round_wall,
                    truncation: (round.truncated_cells > 0).then(|| "round_truncated".to_string()),
                    ..RequestSample::default()
                };
                self.telemetry.fold("hierarchize", circuit_name, &sample);
            })
            .map_err(|e| EngineError::Invalid(e.to_string()))?;
        self.note_truncated(truncated);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let deck = subgemini_spice::write_hierarchical(&outcome.top, &outcome.used_cells());
        Ok(HierarchizeResponse {
            circuit: main.name().to_string(),
            report: outcome.report,
            deck,
            rounds,
            request_id,
            wall_ns,
        })
    }

    /// Registry contents and request counters.
    pub fn status(&self) -> EngineStatus {
        let mut circuits: Vec<CircuitInfo> = self
            .circuits
            .read()
            .expect("circuit registry poisoned")
            .iter()
            .map(|(name, e)| CircuitInfo {
                name: name.clone(),
                devices: e.devices,
                nets: e.nets,
                digest: e.digest,
                artifact_bytes: e.artifact_bytes,
            })
            .collect();
        circuits.sort_by(|a, b| a.name.cmp(&b.name));
        let mut libraries: Vec<(String, usize)> = self
            .libraries
            .read()
            .expect("library registry poisoned")
            .iter()
            .map(|(name, cells)| (name.clone(), cells.len()))
            .collect();
        libraries.sort();
        let c = &self.counters;
        let requests = vec![
            ("compile", c.compile.load(Ordering::Relaxed)),
            ("library", c.library.load(Ordering::Relaxed)),
            ("find", c.find.load(Ordering::Relaxed)),
            ("survey", c.survey.load(Ordering::Relaxed)),
            ("explain", c.explain.load(Ordering::Relaxed)),
            ("hierarchize", c.hierarchize.load(Ordering::Relaxed)),
            ("truncated", c.truncated.load(Ordering::Relaxed)),
        ];
        EngineStatus {
            circuits,
            libraries,
            requests,
            telemetry: self.telemetry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini_workloads::{cells, gen};

    fn engine_with_chip() -> (Engine, Netlist, Netlist) {
        let engine = Engine::new();
        let main = gen::ripple_adder(4).netlist;
        let pattern = cells::full_adder();
        engine.register_circuit("chip", main.clone());
        (engine, main, pattern)
    }

    #[test]
    fn registered_and_inline_requests_agree() {
        let (engine, main, pattern) = engine_with_chip();
        let warm = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions::default(),
            })
            .unwrap();
        let cold = engine
            .find(&FindRequest {
                circuit: CircuitSource::Inline(&main),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions::default(),
            })
            .unwrap();
        assert_eq!(warm.outcome.instances, cold.outcome.instances);
        assert_eq!(warm.outcome.phase1, cold.outcome.phase1);
        assert_eq!(
            warm.instance_devices().collect::<Vec<_>>(),
            cold.instance_devices().collect::<Vec<_>>()
        );
        assert!(warm.outcome.count() > 0);
        assert_eq!(warm.circuit, main.name());
        assert_eq!(warm.pattern, "full_adder");
    }

    /// An inverter whose devices are listed p-channel first or last.
    fn inverter(p_first: bool) -> Netlist {
        let mut inv = Netlist::new("inv");
        let mos = inv.add_mos_types();
        let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
        inv.mark_port(a);
        inv.mark_port(y);
        inv.mark_global(vdd);
        inv.mark_global(gnd);
        let mut devices = [("mp", mos.pmos, [a, vdd, y]), ("mn", mos.nmos, [a, gnd, y])];
        if !p_first {
            devices.reverse();
        }
        for (name, ty, pins) in devices {
            inv.add_device(name, ty, &pins).unwrap();
        }
        inv
    }

    /// The names accessor reads every instance's device set through the
    /// netlist searched, warm or cold, at every thread count. The chain's
    /// pattern lists its devices in the opposite order to the chip's
    /// instances, so every mapping lists its devices out of id order
    /// and the accessor's sort is exercised.
    #[test]
    fn instance_devices_name_each_device_set() {
        let mut chain = Netlist::new("chain");
        let mut prev = chain.net("in");
        for i in 0..40 {
            let next = chain.net(format!("w{i}"));
            subgemini_netlist::instantiate(
                &mut chain,
                &inverter(true),
                &format!("u{i}"),
                &[prev, next],
            )
            .unwrap();
            prev = next;
        }
        let mut out_of_order = 0;
        for (main, pattern) in [
            (chain, inverter(false)),
            (gen::sram_array(6, 6).netlist, cells::sram6t()),
            (gen::tiled_chip(5, 3_000).netlist, cells::full_adder()),
        ] {
            let engine = Engine::new();
            engine.register_circuit("chip", main.clone());
            for threads in [1, 2, 8] {
                for circuit in [
                    CircuitSource::Registered("chip"),
                    CircuitSource::Inline(&main),
                ] {
                    let resp = engine
                        .find(&FindRequest {
                            circuit,
                            pattern: PatternSource::Inline(&pattern),
                            options: RequestOptions {
                                threads,
                                ..RequestOptions::default()
                            },
                        })
                        .unwrap();
                    let instances = &resp.outcome.instances;
                    assert!(!instances.is_empty(), "{}", pattern.name());
                    assert_eq!(resp.instance_devices().len(), instances.len());
                    for (names, m) in resp.instance_devices().zip(instances) {
                        let expected: Vec<&str> = m
                            .device_set()
                            .iter()
                            .map(|&d| main.device(d).name())
                            .collect();
                        assert_eq!(names, expected, "{} threads={threads}", pattern.name());
                        out_of_order += usize::from(!m.devices.is_sorted());
                    }
                }
            }
        }
        assert!(out_of_order > 0, "every mapping was already in id order");
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let (engine, _main, pattern) = engine_with_chip();
        let err = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("nope"),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions::default(),
            })
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownCircuit("nope".into()));
        let err = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Library {
                    library: "lib",
                    cell: "inv",
                },
                options: RequestOptions::default(),
            })
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownLibrary("lib".into()));
        engine.register_library("lib", vec![cells::inv()]);
        let err = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Library {
                    library: "lib",
                    cell: "nand9",
                },
                options: RequestOptions::default(),
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownCell { .. }));
        assert!(err.to_string().contains("nand9"));
    }

    #[test]
    fn survey_shares_one_compile_across_cells() {
        let (engine, _main, _) = engine_with_chip();
        engine.register_library("lib", cells::library());
        let resp = engine
            .survey(&SurveyRequest {
                circuit: CircuitSource::Registered("chip"),
                library: LibrarySource::Registered("lib"),
                options: RequestOptions::default(),
            })
            .unwrap();
        assert_eq!(resp.rows.len(), cells::library().len());
        let fa = resp
            .rows
            .iter()
            .find(|r| r.cell == "full_adder")
            .expect("library has full_adder");
        assert_eq!(fa.outcome.count(), 4);
    }

    #[test]
    fn explain_forces_journal_and_reports() {
        let (engine, _main, pattern) = engine_with_chip();
        let resp = engine
            .explain(&ExplainRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions::default(),
            })
            .unwrap();
        assert!(resp.outcome.events.is_some(), "explain implies a journal");
        assert!(!resp.report.render().is_empty());
    }

    #[test]
    fn lower_rejects_artifact_with_ignored_globals() {
        let main = gen::ripple_adder(2).netlist;
        let opts = RequestOptions {
            respect_globals: false,
            artifact: Some("whatever.sgc".into()),
            ..RequestOptions::default()
        };
        let err = opts.lower(&main, None).unwrap_err();
        assert!(err.to_string().contains("--ignore-globals"), "{err}");
    }

    #[test]
    fn lower_skips_registry_warm_when_globals_ignored() {
        let (engine, main, pattern) = engine_with_chip();
        let resp = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions {
                    respect_globals: false,
                    ..RequestOptions::default()
                },
            })
            .unwrap();
        let cold = engine
            .find(&FindRequest {
                circuit: CircuitSource::Inline(&main),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions {
                    respect_globals: false,
                    ..RequestOptions::default()
                },
            })
            .unwrap();
        assert_eq!(resp.outcome.instances, cold.outcome.instances);
        assert_eq!(resp.outcome.phase2, cold.outcome.phase2);
    }

    #[test]
    fn lower_drops_unlimited_budget() {
        let main = gen::ripple_adder(2).netlist;
        let opts = RequestOptions {
            budget: Some(WorkBudget::default()),
            ..RequestOptions::default()
        };
        assert_eq!(opts.lower(&main, None).unwrap().budget, None);
    }

    #[test]
    fn status_reports_registry_and_counters() {
        let (engine, _main, pattern) = engine_with_chip();
        engine.register_library("lib", cells::library());
        let _ = engine.find(&FindRequest {
            circuit: CircuitSource::Registered("chip"),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions {
                budget: Some(WorkBudget::effort(1)),
                ..RequestOptions::default()
            },
        });
        let status = engine.status();
        assert_eq!(status.circuits.len(), 1);
        assert_eq!(status.circuits[0].name, "chip");
        assert!(status.circuits[0].devices > 0);
        assert_eq!(
            status.libraries,
            vec![("lib".to_string(), cells::library().len())]
        );
        let get = |k: &str| {
            status
                .requests
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("compile"), 1);
        assert_eq!(get("find"), 1);
        assert_eq!(get("truncated"), 1, "1-effort find must truncate");
    }

    /// `truncated` counts requests: a survey whose every row stops
    /// early counts once, like the telemetry rollup.
    #[test]
    fn truncated_survey_counts_once() {
        let engine = Engine::new();
        engine.register_circuit("chip", gen::tiled_chip(5, 5_000).netlist);
        engine.register_library("lib", cells::library());
        let cancel = CancelToken::new();
        cancel.cancel();
        let resp = engine
            .survey(&SurveyRequest {
                circuit: CircuitSource::Registered("chip"),
                library: LibrarySource::Registered("lib"),
                options: RequestOptions {
                    cancel: Some(cancel),
                    ..RequestOptions::default()
                },
            })
            .unwrap();
        assert_eq!(resp.rows.len(), 14);
        assert!(resp
            .rows
            .iter()
            .all(|r| r.outcome.completeness.is_truncated()));
        let status = engine.status();
        assert!(status.requests.contains(&("truncated", 1)), "{status:?}");
        assert_eq!(status.telemetry.endpoint("survey").unwrap().truncated, 1);
    }

    #[test]
    fn hierarchize_runs_bottom_up_to_fixpoint() {
        let engine = Engine::new();
        let chip = gen::hierarchical_chip(3, 3, 200);
        engine.register_circuit("flatchip", chip.generated.netlist.clone());
        let resp = engine
            .hierarchize(&HierarchizeRequest {
                circuit: CircuitSource::Registered("flatchip"),
                library: LibrarySource::Inline(&chip.library),
                options: RequestOptions::default(),
            })
            .unwrap();
        assert_eq!(resp.circuit, "hierarchical_chip");
        assert_eq!(resp.report.unabsorbed_devices, 0);
        for (cell, &want) in &chip.expected {
            assert_eq!(resp.report.count_of(cell), want, "{cell}");
        }
        assert!(resp.deck.contains(".subckt pipeline_stage"));
        // Rounds = levels × sweeps (the last sweep proves quiescence).
        assert_eq!(resp.rounds, 3 * resp.report.sweeps);
        let status = engine.status();
        let get = |k: &str| {
            status
                .requests
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("hierarchize"), 1);
        // One telemetry sample folded per round, against the registered
        // circuit name.
        let (_, rollup) = status
            .telemetry
            .endpoints
            .iter()
            .find(|(name, _)| name == "hierarchize")
            .expect("hierarchize endpoint rollup");
        assert_eq!(rollup.requests, resp.rounds as u64);
        assert!(status
            .telemetry
            .circuits
            .iter()
            .any(|(name, _)| name == "flatchip"));
    }

    #[test]
    fn hierarchize_rejects_cyclic_library() {
        let engine = Engine::new();
        let chip = gen::hierarchical_chip(4, 2, 60);
        engine.register_circuit("flatchip", chip.generated.netlist.clone());
        // A cell whose only device is its own composite type: a
        // self-reference cycle the level grouping must reject.
        let mut looped = Netlist::new("looped");
        let a = looped.net("a");
        let y = looped.net("y");
        looped.mark_port(a);
        looped.mark_port(y);
        let ty = looped
            .add_type(subgemini_netlist::DeviceType::new(
                "looped",
                vec![
                    subgemini_netlist::TerminalSpec::new("a", "a"),
                    subgemini_netlist::TerminalSpec::new("y", "y"),
                ],
            ))
            .unwrap();
        looped.add_device("d", ty, &[a, y]).unwrap();
        let err = engine
            .hierarchize(&HierarchizeRequest {
                circuit: CircuitSource::Registered("flatchip"),
                library: LibrarySource::Inline(std::slice::from_ref(&looped)),
                options: RequestOptions::default(),
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::Invalid(_)));
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn compile_netlist_round_trips_through_artifact() {
        let main = gen::ripple_adder(2).netlist;
        let enc = compile_netlist(&main);
        assert_eq!(enc.devices, main.device_count());
        assert_eq!(enc.digest, structural_digest(&main));
        let decoded = Artifact::decode(&enc.bytes).expect("fresh artifact decodes");
        assert_eq!(decoded.source_digest, enc.digest);
    }
}
