//! Bipartite circuit-graph data model for the SubGemini reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`Netlist`] — a flat circuit: named [`DeviceType`]s with terminal
//!   equivalence classes, device instances, nets with port/global flags.
//! * [`CompiledCircuit`] — an immutable, `Arc`-shareable CSR snapshot
//!   with precomputed labeling material (initial labels, per-pin class
//!   multipliers, global/port flags), compiled from a netlist in one
//!   pass and reused across patterns, threads, and extraction passes.
//! * [`CircuitGraph`] — a thin borrowed shim over [`CompiledCircuit`]
//!   keeping the legacy view API.
//! * [`artifact`] — a versioned, checksummed, dependency-free binary
//!   format (`.sgc`) persisting a compiled circuit together with its
//!   [`FingerprintIndex`] for warm starts across processes.
//! * [`hashing`] — the 64-bit labeling primitives implementing the
//!   relabeling function of the paper's Fig. 3.
//! * [`instantiate`] — hierarchical composition for generators and the
//!   SPICE flattener.
//!
//! The model follows §II of the paper: a circuit is an undirected
//! bipartite graph with device vertices and net vertices; device
//! terminals are grouped into equivalence classes expressing
//! interchangeability (a MOS source and drain may swap, its gate may
//! not).
//!
//! # Examples
//!
//! Build a CMOS inverter and inspect its graph:
//!
//! ```
//! use subgemini_netlist::{CircuitGraph, Netlist, NetlistStats};
//!
//! # fn main() -> Result<(), subgemini_netlist::NetlistError> {
//! let mut nl = Netlist::new("inverter");
//! let mos = nl.add_mos_types();
//! let (a, y) = (nl.net("a"), nl.net("y"));
//! let (vdd, gnd) = (nl.net("vdd"), nl.net("gnd"));
//! nl.mark_global(vdd);
//! nl.mark_global(gnd);
//! nl.mark_port(a);
//! nl.mark_port(y);
//! nl.add_device("mp", mos.pmos, &[a, vdd, y])?;
//! nl.add_device("mn", mos.nmos, &[a, gnd, y])?;
//!
//! let graph = CircuitGraph::new(&nl);
//! assert_eq!(graph.device_count(), 2);
//! assert_eq!(NetlistStats::of(&nl).pins, 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod compiled;
mod compose;
mod dot;
mod error;
mod fingerprint;
mod graph;
pub mod hashing;
mod id;
mod idmap;
mod merge;
mod netlist;
pub mod rng;
mod stats;
mod types;

pub use artifact::{structural_digest, Artifact, ArtifactError};
pub use compiled::CompiledCircuit;
pub use compose::{
    instantiate, minted_name_bytes, InstantiateReport, MAX_INSTANTIATED_DEVICES,
    MAX_INSTANTIATED_NAME_BYTES,
};
pub use dot::to_dot;
pub use error::NetlistError;
pub use fingerprint::{FingerprintIndex, HOP2_CAP};
pub use graph::{CircuitGraph, Contribs};
pub use id::{DeviceId, DeviceTypeId, NetId, Vertex};
pub use merge::{merge_parallel, MergeReport};
pub use netlist::{Device, MosTypes, Net, Netlist, Pin};
pub use stats::NetlistStats;
pub use types::{DeviceType, TerminalSpec};
