//! SubGemini: fast subcircuit identification via two-phase subgraph
//! isomorphism.
//!
//! A from-scratch reproduction of *"SubGemini: Identifying SubCircuits
//! using a Fast Subgraph Isomorphism Algorithm"* (Ohlrich, Ebeling,
//! Ginting, Sather — DAC 1993). Given a small *pattern* netlist (a
//! subcircuit with ports) and a large *main* netlist, SubGemini finds
//! every instance of the pattern:
//!
//! * **Phase I** partitions both circuits by iterative labeling with
//!   valid/corrupt tracking and picks a **key vertex** in the pattern
//!   plus a **candidate vector** of its possible images — a complete,
//!   usually tiny filter (see [`candidates`]).
//! * **Phase II** verifies each candidate by spreading *safe* labels
//!   outward from the postulated match, matching equal singleton
//!   partitions, guessing (with backtracking) on symmetric ambiguity,
//!   and structurally verifying the completed mapping.
//!
//! The crate also implements the applications the paper motivates:
//! transistor→gate [`Extractor`] with a cell library, iterative
//! hierarchy reconstruction ([`hier`]), circuit [`RuleChecker`]s, and
//! port-symmetry inference for composite device types
//! ([`port_symmetry_classes`]).
//!
//! # Quickstart
//!
//! ```
//! use subgemini::Matcher;
//! use subgemini_netlist::{instantiate, Netlist};
//!
//! # fn main() -> Result<(), subgemini_netlist::NetlistError> {
//! // Pattern: a CMOS inverter with ports a/y and global rails.
//! let mut inv = Netlist::new("inv");
//! let mos = inv.add_mos_types();
//! let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
//! inv.mark_port(a);
//! inv.mark_port(y);
//! inv.mark_global(vdd);
//! inv.mark_global(gnd);
//! inv.add_device("mp", mos.pmos, &[a, vdd, y])?;
//! inv.add_device("mn", mos.nmos, &[a, gnd, y])?;
//!
//! // Main circuit: a ring of four inverters.
//! let mut ring = Netlist::new("ring");
//! let nets: Vec<_> = (0..4).map(|i| ring.net(format!("n{i}"))).collect();
//! for i in 0..4 {
//!     instantiate(&mut ring, &inv, &format!("u{i}"), &[nets[i], nets[(i + 1) % 4]])?;
//! }
//!
//! let outcome = Matcher::new(&inv, &ring).find_all();
//! assert_eq!(outcome.count(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod events;
mod extract;
pub mod hier;
mod instance;
mod matcher;
pub mod metrics;
mod options;
mod phase1;
mod phase2;
mod rules;
mod scheduler;
mod symmetry;
mod techmap;
pub mod telemetry;
mod trace;
mod verify;

pub use budget::{CancelToken, Completeness, TruncationReason, WorkBudget};
pub use events::{Event, EventJournal, EventKind, EventScope, ExplainReport, RejectReason};
pub use extract::{ContainmentNode, ExtractReport, Extractor};
pub use instance::{MatchOutcome, Phase1Stats, Phase2Stats, SubMatch};
pub use matcher::{find_all, find_all_many, Matcher};
pub use metrics::{Counters, Histogram, MetricsReport};
pub use options::{MatchOptions, OverlapPolicy, WarmMain};
pub use rules::{RuleChecker, RuleViolation};
pub use symmetry::port_symmetry_classes;
pub use techmap::{CoverCandidate, CoverResult, TechMapper};
pub use telemetry::{RequestSample, Rollup, Telemetry, TelemetrySnapshot};
pub use trace::{Phase2Trace, TraceCell, TraceSnapshot};
pub use verify::verify_instance;

/// Phase I as a standalone step: returns the key vertex and candidate
/// vector without running Phase II. Exposed for the candidate-filter
/// experiments (DESIGN.md E7) and for diagnostic tooling.
pub mod candidates {
    use std::sync::Arc;

    use subgemini_netlist::{CompiledCircuit, Netlist, Vertex};

    pub use crate::instance::Phase1Stats;

    /// The Phase I result: key vertex, candidate vector, statistics.
    #[derive(Clone, Debug)]
    pub struct CandidateVector {
        /// The key vertex in the pattern.
        pub key: Option<Vertex>,
        /// The candidate images in the main circuit.
        pub candidates: Vec<Vertex>,
        /// Phase I statistics.
        pub stats: Phase1Stats,
    }

    /// Runs Phase I only.
    ///
    /// # Examples
    ///
    /// ```
    /// use subgemini_netlist::Netlist;
    ///
    /// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
    /// let mut inv = Netlist::new("inv");
    /// let mos = inv.add_mos_types();
    /// let (a, y) = (inv.net("a"), inv.net("y"));
    /// inv.mark_port(a);
    /// inv.mark_port(y);
    /// inv.add_device("mp", mos.pmos, &[a, y, y])?;
    /// let cv = subgemini::candidates::generate(&inv, &inv);
    /// assert_eq!(cv.candidates.len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn generate(pattern: &Netlist, main: &Netlist) -> CandidateVector {
        let s = CompiledCircuit::compile(pattern);
        let g = Arc::new(CompiledCircuit::compile(main));
        let out = crate::phase1::run(&s, &g);
        CandidateVector {
            key: out.key,
            candidates: out.candidates,
            stats: out.stats,
        }
    }

    /// Runs Phase I for many patterns against one main circuit,
    /// sharing the main graph's label refinement: Phase I relabels `G`
    /// without any pattern-dependent state, so a library survey pays
    /// the `O(|G| · iterations)` cost once instead of per pattern.
    ///
    /// Returns one [`CandidateVector`] per pattern, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use subgemini_netlist::Netlist;
    ///
    /// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
    /// let mut cell = Netlist::new("t");
    /// let mos = cell.add_mos_types();
    /// let (a, y) = (cell.net("a"), cell.net("y"));
    /// cell.mark_port(a);
    /// cell.mark_port(y);
    /// cell.add_device("m", mos.nmos, &[a, y, y])?;
    /// let cvs = subgemini::candidates::generate_many(&[&cell], &cell);
    /// assert_eq!(cvs.len(), 1);
    /// assert_eq!(cvs[0].candidates.len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn generate_many(patterns: &[&Netlist], main: &Netlist) -> Vec<CandidateVector> {
        let compiled: Vec<CompiledCircuit> = patterns
            .iter()
            .map(|p| CompiledCircuit::compile(p))
            .collect();
        let refs: Vec<&CompiledCircuit> = compiled.iter().collect();
        let g = Arc::new(CompiledCircuit::compile(main));
        crate::phase1::run_many(&refs, &g)
            .into_iter()
            .map(|out| CandidateVector {
                key: out.key,
                candidates: out.candidates,
                stats: out.stats,
            })
            .collect()
    }
}
