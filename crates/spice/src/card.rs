//! Parsed card (statement) model for the supported SPICE subset.
//!
//! A card holds no strings: every name and net is a [`Span`] into the
//! lowercased deck text its [`SpiceDoc`](crate::SpiceDoc) owns.

use std::ops::Range;

/// One token: a byte range of the owning document's lowercased text.
/// Decks are capped at 4 GiB so both ends fit in a `u32`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One parsed element card.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Card {
    /// `Mname d g s [b] model ...` — MOS transistor. The optional bulk
    /// node is parsed and discarded (the circuit model uses 3-terminal
    /// MOS devices; see DESIGN.md).
    Mos {
        /// Instance name (including the `M` prefix).
        name: Span,
        /// Drain net.
        drain: Span,
        /// Gate net.
        gate: Span,
        /// Source net.
        source: Span,
        /// Model name; decides `nmos` vs `pmos`.
        model: Span,
    },
    /// `Rname a b ...` / `Cname a b ...` / `Lname a b ...` — symmetric
    /// two-terminal element.
    TwoTerminal {
        /// Instance name.
        name: Span,
        /// Device type name (`res`, `cap`, `ind`).
        kind: &'static str,
        /// First net.
        a: Span,
        /// Second net.
        b: Span,
    },
    /// `Dname p n ...` — diode (polarized two-terminal).
    Diode {
        /// Instance name.
        name: Span,
        /// Anode net.
        p: Span,
        /// Cathode net.
        n: Span,
        /// Model name (becomes part of the device type: `diode:<model>`;
        /// an empty span yields plain `diode`).
        model: Span,
    },
    /// `Qname c b e [s] model` — bipolar transistor.
    Bjt {
        /// Instance name.
        name: Span,
        /// Collector net.
        c: Span,
        /// Base net.
        b: Span,
        /// Emitter net.
        e: Span,
        /// Model name; decides the type (`npn`/`pnp` by leading letter).
        model: Span,
    },
    /// `Xname n1 n2 ... subckt` — subcircuit instance.
    Instance {
        /// Instance name (including the `X` prefix).
        name: Span,
        /// Connection nets, in the subcircuit's port order: a range of
        /// the document's instance-net table.
        nets: (u32, u32),
        /// Referenced subcircuit name.
        subckt: Span,
    },
}

impl Card {
    /// The instance name of the card.
    pub(crate) fn name(&self) -> Span {
        match *self {
            Card::Mos { name, .. }
            | Card::TwoTerminal { name, .. }
            | Card::Diode { name, .. }
            | Card::Bjt { name, .. }
            | Card::Instance { name, .. } => name,
        }
    }
}

/// A `.subckt` definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubcktDef {
    /// The subcircuit name (lowercased).
    pub name: String,
    /// Port nets in declaration order.
    pub ports: Vec<String>,
    /// Body cards.
    pub(crate) cards: Vec<Card>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn card_name_accessor_covers_all_variants() {
        let doc = parse("* t\nm1 d g s nch\nr1 a b 1\nd1 p n\nq1 c b e npn\nx1 a inv\n").unwrap();
        let names: Vec<&str> = doc.top.iter().map(|c| doc.str(c.name())).collect();
        assert_eq!(names, vec!["m1", "r1", "d1", "q1", "x1"]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn cards_hold_no_heap_data() {
        // Five spans and a tag: a MOS card is 44 bytes, padded to the
        // `&'static str` alignment of the two-terminal variant.
        assert_eq!(std::mem::size_of::<Span>(), 8);
        assert_eq!(std::mem::size_of::<Card>(), 48);
    }
}
