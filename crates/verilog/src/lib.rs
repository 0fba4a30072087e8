//! Structural (gate-level) Verilog subset for the SubGemini
//! reproduction.
//!
//! After extraction converts transistors to gates, the natural
//! interchange format is structural Verilog. This crate parses and
//! writes the structural subset:
//!
//! * `module … endmodule` with ANSI or non-ANSI port declarations,
//! * `wire`, `supply0`, `supply1` (supplies become global nets),
//! * gate primitives `not buf and nand or nor xor xnor` (variable
//!   arity, output first — inputs land in one terminal equivalence
//!   class, so input permutations are matching-invariant),
//! * module instances with named or positional connections,
//! * `//`, `/* */` comments and backtick directives.
//!
//! Behavioral constructs (`assign`, `always`, vectors, delays) are
//! rejected with precise errors — this is a netlist format, not a
//! simulator.
//!
//! # Examples
//!
//! ```
//! use subgemini_verilog::{parse, ElaborateOptions};
//!
//! let src = parse(
//!     "module majority(input a, b, c, output y);\n\
//!        wire w1, w2, w3;\n\
//!        nand g1(w1, a, b);\n\
//!        nand g2(w2, b, c);\n\
//!        nand g3(w3, a, c);\n\
//!        nand g4(y, w1, w2, w3);\n\
//!      endmodule\n",
//! )?;
//! let nl = src.elaborate(None, &ElaborateOptions::default())?;
//! assert_eq!(nl.device_count(), 4);
//! # Ok::<(), subgemini_verilog::VerilogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod elaborate;
mod error;
mod lex;
mod parse;
mod write;

pub use ast::{Conns, Dir, Instance, Module, Source, GATE_PRIMITIVES};
pub use elaborate::primitive_type;
pub use error::VerilogError;
pub use parse::parse;
pub use subgemini_netlist::ElaborateOptions;
pub use write::{write_design, write_module};
