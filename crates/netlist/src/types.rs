//! Device types and terminal equivalence classes.
//!
//! Each device has a *type* (`nmos`, `pmos`, `res`, a composite cell name,
//! …) and a fixed set of named *terminals*. Terminals are grouped into
//! *equivalence classes*: nets attached to terminals of the same class may
//! be interchanged without changing the circuit's function. The canonical
//! example from the paper is the MOS transistor, whose `s` and `d`
//! terminals share the `sd` class while `g` is alone in its own class.
//!
//! Terminal classes drive the labeling function (Fig. 3 of the paper): the
//! contribution of a neighbor is weighted by a per-class multiplier, so
//! swapping source and drain leaves every label unchanged while swapping
//! gate and source does not.

use crate::hashing;

/// A single terminal declaration of a [`DeviceType`].
///
/// # Examples
///
/// ```
/// use subgemini_netlist::TerminalSpec;
/// let t = TerminalSpec::new("s", "sd");
/// assert_eq!(t.name(), "s");
/// assert_eq!(t.class(), "sd");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TerminalSpec {
    name: String,
    class: String,
}

impl TerminalSpec {
    /// Creates a terminal named `name` belonging to equivalence class
    /// `class`.
    ///
    /// Terminals that must not be interchangeable should use distinct
    /// class names; the common idiom for a fully asymmetric device is
    /// `TerminalSpec::new(n, n)` for each terminal `n`.
    pub fn new(name: impl Into<String>, class: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            class: class.into(),
        }
    }

    /// The terminal's name (unique within its device type).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The terminal's equivalence class name.
    pub fn class(&self) -> &str {
        &self.class
    }
}

/// A device type: a name plus an ordered list of terminals.
///
/// Two netlists agree on a device type purely by *name* (and terminal
/// list): the labeling engine derives all hash material from the names, so
/// a pattern netlist and a main netlist built independently still label
/// identically. This is what makes the algorithm technology-independent —
/// any "device" is just a named vertex with classed terminals.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::DeviceType;
/// let nmos = DeviceType::mos("nmos");
/// assert_eq!(nmos.terminal_count(), 3);
/// assert_eq!(nmos.terminal(0).name(), "g");
/// // Source and drain share a class; gate does not.
/// assert_eq!(nmos.terminal(1).class(), nmos.terminal(2).class());
/// assert_ne!(nmos.terminal(0).class(), nmos.terminal(1).class());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceType {
    name: String,
    terminals: Vec<TerminalSpec>,
    /// Cached per-terminal class multipliers used by the labeling engine.
    class_mults: Vec<u64>,
    /// Cached initial device label (a hash of the type name).
    init_label: u64,
}

impl DeviceType {
    /// Creates a device type with the given terminals.
    ///
    /// # Panics
    ///
    /// Panics if `terminals` is empty or contains duplicate terminal
    /// names; use [`DeviceType::try_new`] for a fallible variant.
    pub fn new(name: impl Into<String>, terminals: Vec<TerminalSpec>) -> Self {
        Self::try_new(name, terminals).expect("invalid device type")
    }

    /// Fallible constructor; see [`DeviceType::new`].
    ///
    /// # Errors
    ///
    /// Returns a message if `terminals` is empty or has duplicate names.
    pub fn try_new(name: impl Into<String>, terminals: Vec<TerminalSpec>) -> Result<Self, String> {
        let name = name.into();
        if terminals.is_empty() {
            return Err(format!("device type `{name}` declares no terminals"));
        }
        for (i, t) in terminals.iter().enumerate() {
            if terminals[..i].iter().any(|u| u.name == t.name) {
                return Err(format!(
                    "device type `{name}` declares terminal `{}` twice",
                    t.name
                ));
            }
        }
        let init_label = hashing::mix(hashing::fnv1a("type:") ^ hashing::fnv1a(&name));
        let class_mults = terminals
            .iter()
            .map(|t| hashing::class_multiplier(&name, &t.class))
            .collect();
        Ok(Self {
            name,
            terminals,
            class_mults,
            init_label,
        })
    }

    /// Standard 3-terminal MOS transistor: `g` (class `g`), `s` and `d`
    /// (shared class `sd`).
    pub fn mos(name: impl Into<String>) -> Self {
        Self::new(
            name,
            vec![
                TerminalSpec::new("g", "g"),
                TerminalSpec::new("s", "sd"),
                TerminalSpec::new("d", "sd"),
            ],
        )
    }

    /// Symmetric two-terminal device (resistor, capacitor, inductor,
    /// fuse): both terminals share one class.
    pub fn two_terminal(name: impl Into<String>) -> Self {
        Self::new(
            name,
            vec![TerminalSpec::new("a", "ab"), TerminalSpec::new("b", "ab")],
        )
    }

    /// Polarized two-terminal device (diode): terminals in distinct
    /// classes.
    pub fn polarized(name: impl Into<String>) -> Self {
        Self::new(
            name,
            vec![TerminalSpec::new("p", "p"), TerminalSpec::new("n", "n")],
        )
    }

    /// Bipolar transistor: collector/base/emitter, all distinct classes.
    pub fn bjt(name: impl Into<String>) -> Self {
        Self::new(
            name,
            vec![
                TerminalSpec::new("c", "c"),
                TerminalSpec::new("b", "b"),
                TerminalSpec::new("e", "e"),
            ],
        )
    }

    /// The type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of terminals.
    pub fn terminal_count(&self) -> usize {
        self.terminals.len()
    }

    /// The `i`-th terminal declaration.
    ///
    /// # Panics
    ///
    /// Panics if `i >= terminal_count()`.
    pub fn terminal(&self, i: usize) -> &TerminalSpec {
        &self.terminals[i]
    }

    /// All terminals in declaration order.
    pub fn terminals(&self) -> &[TerminalSpec] {
        &self.terminals
    }

    /// The labeling multiplier for terminal `i`'s equivalence class.
    ///
    /// Multipliers depend only on `(type name, class name)`, so two
    /// independently built netlists agree on them.
    #[inline]
    pub fn class_multiplier(&self, i: usize) -> u64 {
        self.class_mults[i]
    }

    /// The initial (invariant-based) label for devices of this type.
    #[inline]
    pub fn initial_label(&self) -> u64 {
        self.init_label
    }

    /// Returns `true` if terminals `i` and `j` are interchangeable (same
    /// equivalence class).
    pub fn same_class(&self, i: usize, j: usize) -> bool {
        self.terminals[i].class == self.terminals[j].class
    }
}

#[cfg(test)]
impl DeviceType {
    /// A type with no terminals, which the public constructors refuse:
    /// lets the netlist test its own `EmptyType` checks.
    pub(crate) fn without_terminals(name: &str) -> Self {
        Self {
            name: name.to_string(),
            terminals: Vec::new(),
            class_mults: Vec::new(),
            init_label: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mos_class_structure() {
        let m = DeviceType::mos("nmos");
        assert!(m.same_class(1, 2));
        assert!(!m.same_class(0, 1));
        assert_eq!(m.class_multiplier(1), m.class_multiplier(2));
        assert_ne!(m.class_multiplier(0), m.class_multiplier(1));
    }

    #[test]
    fn multipliers_depend_on_type_name() {
        let n = DeviceType::mos("nmos");
        let p = DeviceType::mos("pmos");
        // Same class names, different type names: multipliers differ, so a
        // net touching an NMOS gate labels differently from one touching a
        // PMOS gate.
        assert_ne!(n.class_multiplier(0), p.class_multiplier(0));
        assert_ne!(n.initial_label(), p.initial_label());
    }

    #[test]
    fn identical_definitions_agree_across_instances() {
        let a = DeviceType::mos("nmos");
        let b = DeviceType::mos("nmos");
        assert_eq!(a.initial_label(), b.initial_label());
        assert_eq!(a.class_multiplier(2), b.class_multiplier(2));
    }

    #[test]
    fn duplicate_terminal_rejected() {
        let err = DeviceType::try_new(
            "bad",
            vec![TerminalSpec::new("a", "x"), TerminalSpec::new("a", "y")],
        )
        .unwrap_err();
        assert!(err.contains("twice"));
    }

    #[test]
    fn empty_type_rejected() {
        assert!(DeviceType::try_new("bad", vec![]).is_err());
    }

    #[test]
    fn terminal_lookup() {
        let m = DeviceType::mos("nmos");
        let names: Vec<&str> = m.terminals().iter().map(TerminalSpec::name).collect();
        assert_eq!(names, ["g", "s", "d"]);
    }

    #[test]
    fn helper_constructors() {
        assert_eq!(DeviceType::two_terminal("res").terminal_count(), 2);
        assert!(DeviceType::two_terminal("res").same_class(0, 1));
        assert!(!DeviceType::polarized("diode").same_class(0, 1));
        assert_eq!(DeviceType::bjt("npn").terminal_count(), 3);
    }
}
