//! SPICE-subset parser and writer for the SubGemini reproduction.
//!
//! The paper's workloads are flat CMOS transistor netlists; this crate
//! provides the interchange format. It supports the element cards `M R C
//! L D Q X`, subcircuit definitions (`.subckt`/`.ends`), `.global`,
//! comments and `+` continuations, and two elaboration modes:
//!
//! * **flatten** (default): `X` instances are expanded recursively to
//!   primitive devices — the input form for transistor-level matching;
//! * **hierarchical**: `X` instances become composite devices — the form
//!   produced by gate extraction.
//!
//! # Examples
//!
//! ```
//! use subgemini_spice::{parse, ElaborateOptions};
//!
//! let doc = parse(
//!     ".global vdd gnd\n\
//!      .subckt inv a y\n\
//!      Mp y a vdd vdd pch\n\
//!      Mn y a gnd gnd nch\n\
//!      .ends\n\
//!      Xu1 in mid inv\n\
//!      Xu2 mid out inv\n",
//! )?;
//! let chip = doc.elaborate_top("chip", &ElaborateOptions::default())?;
//! assert_eq!(chip.device_count(), 4);
//! let pattern = doc.elaborate_cell("inv", &ElaborateOptions::default())?;
//! assert_eq!(pattern.ports().len(), 2);
//! # Ok::<(), subgemini_spice::SpiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod card;
mod elaborate;
mod error;
mod include;
mod parse;
mod write;

pub use card::SubcktDef;
pub use error::SpiceError;
pub use include::parse_file;
pub use parse::{parse, SpiceDoc};
pub use subgemini_netlist::ElaborateOptions;
pub use write::{write_hierarchical, write_netlist};
