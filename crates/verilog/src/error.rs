//! Error type for structural Verilog parsing and elaboration.

use std::error::Error;
use std::fmt;

use subgemini_netlist::{NetlistError, MAX_INSTANTIATED_DEVICES, MAX_INSTANTIATED_NAME_BYTES};

/// Errors produced while parsing or elaborating a Verilog source.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerilogError {
    /// A syntax problem, with its 1-based source line.
    Parse {
        /// Source line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A construct outside the supported structural subset (vectors,
    /// `assign`, behavioral blocks, …).
    Unsupported {
        /// Source line number.
        line: usize,
        /// The offending construct.
        construct: String,
    },
    /// An instance references a module that was never defined and is
    /// not a gate primitive.
    UnknownModule {
        /// The missing module name.
        name: String,
    },
    /// Module definitions form a cycle.
    RecursiveModule {
        /// A module on the detected cycle.
        name: String,
    },
    /// The requested module does not exist.
    UnknownTop {
        /// The requested name.
        name: String,
    },
    /// An instance connects a port the module does not declare.
    UnknownPort {
        /// Instance name.
        instance: String,
        /// The port name used.
        port: String,
    },
    /// An instance supplies the wrong number of positional connections.
    PortCountMismatch {
        /// Instance name.
        instance: String,
        /// Ports declared by the module.
        expected: usize,
        /// Connections supplied.
        got: usize,
    },
    /// Flattening would make `instantiate` create more devices in one
    /// elaboration than the fixed cap allows (an expansion bomb).
    ExpansionLimit {
        /// The module whose instance would cross the cap.
        name: String,
        /// Devices the elaboration would have instantiated with it.
        devices: u64,
    },
    /// Flattening would make `instantiate` write more bytes of instance
    /// names in one elaboration than the fixed cap allows (a chain so
    /// deep that its paths grow quadratically).
    NameLimit {
        /// The module whose instance would cross the cap.
        name: String,
        /// Name bytes the elaboration would have minted with it.
        bytes: u64,
    },
    /// An underlying netlist construction error.
    Netlist(NetlistError),
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerilogError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            VerilogError::Unsupported { line, construct } => write!(
                f,
                "unsupported construct at line {line}: {construct} (structural subset only)"
            ),
            VerilogError::UnknownModule { name } => {
                write!(f, "instance references unknown module `{name}`")
            }
            VerilogError::RecursiveModule { name } => {
                write!(f, "module `{name}` instantiates itself (directly or indirectly)")
            }
            VerilogError::UnknownTop { name } => {
                write!(f, "no module named `{name}` in this source")
            }
            VerilogError::UnknownPort { instance, port } => {
                write!(f, "instance `{instance}` connects unknown port `{port}`")
            }
            VerilogError::PortCountMismatch {
                instance,
                expected,
                got,
            } => write!(
                f,
                "instance `{instance}` supplies {got} connections but the module has {expected} ports"
            ),
            VerilogError::ExpansionLimit { name, devices } => write!(
                f,
                "instantiating module `{name}` would flatten to {devices} devices, \
                 past the cap of {MAX_INSTANTIATED_DEVICES}"
            ),
            VerilogError::NameLimit { name, bytes } => write!(
                f,
                "instantiating module `{name}` would write {bytes} bytes of instance \
                 names, past the cap of {MAX_INSTANTIATED_NAME_BYTES}"
            ),
            VerilogError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for VerilogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerilogError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for VerilogError {
    fn from(e: NetlistError) -> Self {
        VerilogError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = VerilogError::Unsupported {
            line: 4,
            construct: "assign".into(),
        };
        assert!(e.to_string().contains("line 4"));
        assert!(e.to_string().contains("assign"));
        let e = VerilogError::PortCountMismatch {
            instance: "g1".into(),
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("g1"));
    }

    #[test]
    fn netlist_errors_chain() {
        let e = VerilogError::from(NetlistError::UnknownNet { name: "w".into() });
        assert!(e.source().is_some());
    }
}
