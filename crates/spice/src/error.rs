//! Error type for SPICE parsing and elaboration.

use std::error::Error;
use std::fmt;

use subgemini_netlist::{NetlistError, MAX_INSTANTIATED_DEVICES, MAX_INSTANTIATED_NAME_BYTES};

/// Errors produced while parsing or elaborating a SPICE deck.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpiceError {
    /// A card (line) could not be parsed.
    Parse {
        /// 1-based source line number.
        line: usize,
        /// Human-readable description.
        detail: String,
    },
    /// `.subckt` without a matching `.ends`.
    UnclosedSubckt {
        /// The subcircuit name.
        name: String,
    },
    /// `.ends` without a matching `.subckt`.
    UnmatchedEnds {
        /// 1-based source line number.
        line: usize,
    },
    /// An `X` card references a subcircuit that was never defined.
    UnknownSubckt {
        /// The missing subcircuit name.
        name: String,
    },
    /// Subcircuit definitions form a cycle.
    RecursiveSubckt {
        /// The subcircuit on the cycle that was detected.
        name: String,
    },
    /// The requested top-level cell does not exist.
    UnknownCell {
        /// The requested name.
        name: String,
    },
    /// Flattening would make `instantiate` create more devices in one
    /// elaboration than the fixed cap allows (an expansion bomb).
    ExpansionLimit {
        /// The subcircuit whose instance would cross the cap.
        name: String,
        /// Devices the elaboration would have instantiated with it.
        devices: u64,
    },
    /// Flattening would make `instantiate` write more bytes of instance
    /// names in one elaboration than the fixed cap allows (a chain so
    /// deep that its paths grow quadratically).
    NameLimit {
        /// The subcircuit whose instance would cross the cap.
        name: String,
        /// Name bytes the elaboration would have minted with it.
        bytes: u64,
    },
    /// An underlying netlist construction error.
    Netlist(NetlistError),
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            SpiceError::UnclosedSubckt { name } => {
                write!(f, "subcircuit `{name}` is missing its .ends")
            }
            SpiceError::UnmatchedEnds { line } => {
                write!(f, ".ends without .subckt at line {line}")
            }
            SpiceError::UnknownSubckt { name } => {
                write!(f, "instance references unknown subcircuit `{name}`")
            }
            SpiceError::RecursiveSubckt { name } => {
                write!(
                    f,
                    "subcircuit `{name}` instantiates itself (directly or indirectly)"
                )
            }
            SpiceError::UnknownCell { name } => {
                write!(f, "no subcircuit named `{name}` in this deck")
            }
            SpiceError::ExpansionLimit { name, devices } => write!(
                f,
                "instantiating subcircuit `{name}` would flatten to {devices} devices, \
                 past the cap of {MAX_INSTANTIATED_DEVICES}"
            ),
            SpiceError::NameLimit { name, bytes } => write!(
                f,
                "instantiating subcircuit `{name}` would write {bytes} bytes of instance \
                 names, past the cap of {MAX_INSTANTIATED_NAME_BYTES}"
            ),
            SpiceError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for SpiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpiceError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SpiceError {
    fn from(e: NetlistError) -> Self {
        SpiceError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_numbers() {
        let e = SpiceError::Parse {
            line: 12,
            detail: "bad card".into(),
        };
        assert!(e.to_string().contains("line 12"));
    }

    #[test]
    fn netlist_errors_chain_as_source() {
        let e = SpiceError::from(NetlistError::UnknownNet { name: "x".into() });
        assert!(e.source().is_some());
    }
}
