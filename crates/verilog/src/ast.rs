//! AST for the structural Verilog subset.

use std::collections::HashSet;

/// Port/net direction (kept for writer fidelity; matching itself is
/// direction-blind, like the paper's undirected graphs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// `input`.
    Input,
    /// `output`.
    Output,
    /// `inout`.
    Inout,
}

/// How an instance's connections were written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Conns {
    /// `inst (n1, n2, …)` — by port position.
    Positional(Vec<String>),
    /// `inst (.port(net), …)` — by port name.
    Named(Vec<(String, String)>),
}

/// One instantiation inside a module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Module or gate-primitive name (`nand`, `not`, user module…).
    pub module: String,
    /// Instance name (auto-generated for anonymous primitives).
    pub name: String,
    /// Connections.
    pub conns: Conns,
    /// Source line.
    pub line: usize,
}

/// A module definition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Module {
    /// The module name.
    pub name: String,
    /// Port names in declaration order.
    pub ports: Vec<String>,
    /// Direction of each port (same order as `ports`).
    pub dirs: Vec<Dir>,
    /// Internal wires.
    pub wires: Vec<String>,
    /// `supply0` nets (ground rails).
    pub supply0: Vec<String>,
    /// `supply1` nets (power rails).
    pub supply1: Vec<String>,
    /// Instances in source order.
    pub instances: Vec<Instance>,
}

/// A parsed source file: modules in definition order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Source {
    /// All module definitions.
    pub modules: Vec<Module>,
}

impl Source {
    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The top module: the unique module never instantiated by another
    /// (`None` when ambiguous or when the source is empty).
    pub fn infer_top(&self) -> Option<&Module> {
        let instantiated: HashSet<&str> = self
            .modules
            .iter()
            .flat_map(|m| &m.instances)
            .map(|i| i.module.as_str())
            .collect();
        let mut tops = self
            .modules
            .iter()
            .filter(|m| !instantiated.contains(m.name.as_str()));
        match (tops.next(), tops.next()) {
            (Some(t), None) => Some(t),
            _ => None,
        }
    }
}

/// Gate primitives of the subset, with their canonical device-type
/// naming: `$not`, `$buf`, `$and2`, `$nand3`, … (output first, inputs
/// interchangeable).
pub const GATE_PRIMITIVES: &[&str] = &["not", "buf", "and", "nand", "or", "nor", "xor", "xnor"];

/// Is `name` one of the gate primitives?
pub fn is_primitive(name: &str) -> bool {
    GATE_PRIMITIVES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_top_prefers_uninstantiated_module() {
        let mut src = Source::default();
        src.modules.push(Module {
            name: "leaf".into(),
            ..Module::default()
        });
        src.modules.push(Module {
            name: "top".into(),
            instances: vec![Instance {
                module: "leaf".into(),
                name: "u1".into(),
                conns: Conns::Positional(vec![]),
                line: 1,
            }],
            ..Module::default()
        });
        assert_eq!(src.infer_top().unwrap().name, "top");
    }

    #[test]
    fn ambiguous_top_is_none() {
        let mut src = Source::default();
        for n in ["a", "b"] {
            src.modules.push(Module {
                name: n.into(),
                ..Module::default()
            });
        }
        assert!(src.infer_top().is_none());
    }

    #[test]
    fn primitive_set() {
        assert!(is_primitive("nand"));
        assert!(!is_primitive("nand2"));
        assert!(!is_primitive("dff"));
    }
}
