//! Elaboration: turning a parsed [`SpiceDoc`] into [`Netlist`]s.
//!
//! A deck elaborates through the one flattener in `subgemini-netlist`
//! ([`flatten_top`], [`flatten_cell`], [`flatten_cells`]); this module
//! supplies what is SPICE's own: a name resolves to its last
//! `.subckt`, the global nets, and how each card is added.

use std::collections::HashSet;

use subgemini_netlist::{
    flatten_cell, flatten_cells, flatten_top, Builder, DeviceType, ElaborateOptions, FlattenError,
    FrontEnd, Netlist, TerminalSpec,
};

use crate::card::Card;
use crate::error::SpiceError;
use crate::parse::SpiceDoc;

/// Net names global in every deck, without `.global`.
const IMPLICIT_GLOBALS: [&str; 5] = ["vdd", "vss", "gnd", "vcc", "0"];

/// What decides a card's device type: equal keys mean equal types.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TypeKey<'d> {
    Mos(&'static str),
    TwoTerminal(&'static str),
    /// The diode model (empty for a plain diode).
    Diode(&'d str),
    Bjt(&'static str),
    /// A composite device: the subcircuit's index.
    Subckt(usize),
}

/// A deck as the flattener sees it.
struct Spice<'g, 'd> {
    doc: &'d SpiceDoc,
    /// `.global` nets and the implicit ones.
    globals: &'g HashSet<String>,
}

fn mos_type_name(model: &str) -> &'static str {
    if model.starts_with('p') {
        "pmos"
    } else {
        "nmos"
    }
}

fn bjt_type_name(model: &str) -> &'static str {
    if model.starts_with('p') {
        "pnp"
    } else {
        "npn"
    }
}

// The hooks the flattener calls per card are `#[inline]`, as the
// builder's methods are (see `Builder`).
impl<'g, 'd> FrontEnd<'d> for Spice<'g, 'd> {
    type Item = Card;
    type Key = TypeKey<'d>;
    type Globals = &'g HashSet<String>;
    type Error = SpiceError;
    const LAST_DEFINITION_WINS: bool = true;

    fn cell_count(&self) -> usize {
        self.doc.subckts.len()
    }

    fn cell_name(&self, cell: usize) -> &'d str {
        &self.doc.subckts[cell].name
    }

    fn body(&self, cell: usize) -> &'d [Card] {
        &self.doc.subckts[cell].cards
    }

    fn top(&self) -> &'d [Card] {
        &self.doc.top
    }

    #[inline]
    fn target(&self, card: &'d Card) -> Option<&'d str> {
        let doc = self.doc;
        match *card {
            Card::Instance { subckt, .. } => Some(doc.str(subckt)),
            _ => None,
        }
    }

    #[inline]
    fn check(&self, card: &'d Card, cell: Option<usize>) -> Result<(), SpiceError> {
        match (card, cell) {
            (&Card::Instance { subckt, .. }, None) => Err(SpiceError::UnknownSubckt {
                name: self.doc.str(subckt).to_string(),
            }),
            _ => Ok(()),
        }
    }

    fn start(&self, cell: usize) -> Builder<TypeKey<'d>, &'g HashSet<String>> {
        let def = &self.doc.subckts[cell];
        let mut out = Builder::new(Netlist::new(def.name.clone()), self.globals);
        for p in &def.ports {
            out.port(p);
        }
        out
    }

    #[inline]
    fn add(
        &self,
        out: &mut Builder<TypeKey<'d>, &'g HashSet<String>>,
        card: &'d Card,
        cell: Option<usize>,
    ) -> Result<(), SpiceError> {
        let doc = self.doc;
        let s = |t| doc.str(t);
        let name = s(card.name());
        match *card {
            Card::Mos {
                drain,
                gate,
                source,
                model,
                ..
            } => {
                let tyname = mos_type_name(s(model));
                let ty = out.ty(TypeKey::Mos(tyname), || DeviceType::mos(tyname))?;
                out.device(name, ty, [s(gate), s(source), s(drain)])?;
            }
            Card::TwoTerminal { kind, a, b, .. } => {
                let ty = out.ty(TypeKey::TwoTerminal(kind), || {
                    DeviceType::two_terminal(kind)
                })?;
                out.device(name, ty, [s(a), s(b)])?;
            }
            Card::Diode { p, n, model, .. } => {
                let model = s(model);
                let ty = out.ty(TypeKey::Diode(model), || {
                    DeviceType::polarized(if model.is_empty() {
                        "diode".to_string()
                    } else {
                        format!("diode:{model}")
                    })
                })?;
                out.device(name, ty, [s(p), s(n)])?;
            }
            Card::Bjt { c, b, e, model, .. } => {
                let tyname = bjt_type_name(s(model));
                let ty = out.ty(TypeKey::Bjt(tyname), || DeviceType::bjt(tyname))?;
                out.device(name, ty, [s(c), s(b), s(e)])?;
            }
            Card::Instance { nets, .. } => {
                // Not flattening: a composite device of the subcircuit.
                let i = cell.expect("check refused unknown subcircuits");
                let def = &doc.subckts[i];
                let ty = out.try_ty(TypeKey::Subckt(i), || {
                    let terms = def
                        .ports
                        .iter()
                        .map(|p| TerminalSpec::new(p.clone(), p.clone()))
                        .collect();
                    DeviceType::try_new(def.name.clone(), terms)
                        .map_err(|detail| SpiceError::Parse { line: 0, detail })
                })?;
                let nets = doc.instance_nets(nets);
                if nets.len() != def.ports.len() {
                    return Err(SpiceError::Parse {
                        line: 0,
                        detail: format!(
                            "instance `{name}` has {} nets, subckt `{}` has {} ports",
                            nets.len(),
                            def.name,
                            def.ports.len()
                        ),
                    });
                }
                out.device(name, ty, nets.iter().map(|&n| s(n)))?;
            }
        }
        Ok(())
    }

    fn bind(
        &self,
        out: &mut Builder<TypeKey<'d>, &'g HashSet<String>>,
        card: &'d Card,
        _cell: usize,
        _child: &Netlist,
    ) -> Result<&'d str, SpiceError> {
        let doc = self.doc;
        let Card::Instance { name, nets, .. } = *card else {
            unreachable!("only `X` cards name subcircuits");
        };
        out.bind(doc.instance_nets(nets).iter().map(|&n| doc.str(n)));
        Ok(doc.str(name))
    }
}

impl From<FlattenError> for SpiceError {
    fn from(e: FlattenError) -> Self {
        match e {
            FlattenError::Recursive { name } => SpiceError::RecursiveSubckt { name },
            FlattenError::Devices { name, devices } => SpiceError::ExpansionLimit { name, devices },
            FlattenError::Names { name, bytes } => SpiceError::NameLimit { name, bytes },
        }
    }
}

impl SpiceDoc {
    /// `f` of this deck as the flattener sees it.
    fn flatten<T>(&self, f: impl FnOnce(&Spice<'_, '_>) -> T) -> T {
        let declared = self.globals.iter().map(|s| s.to_ascii_lowercase());
        let globals = declared.chain(IMPLICIT_GLOBALS.map(String::from)).collect();
        f(&Spice {
            doc: self,
            globals: &globals,
        })
    }

    /// Elaborates the top-level cards into a netlist named `name`.
    ///
    /// # Errors
    ///
    /// Fails on unknown/recursive subcircuits, on flattening past
    /// [`SpiceError::ExpansionLimit`]'s or [`SpiceError::NameLimit`]'s
    /// cap, or on netlist construction problems.
    ///
    /// # Examples
    ///
    /// ```
    /// let doc = subgemini_spice::parse(
    ///     ".subckt inv a y\nMp y a vdd vdd p\nMn y a gnd gnd n\n.ends\n\
    ///      Xu1 in mid inv\nXu2 mid out inv\n",
    /// )?;
    /// let nl = doc.elaborate_top("buf", &Default::default())?;
    /// assert_eq!(nl.device_count(), 4);
    /// # Ok::<(), subgemini_spice::SpiceError>(())
    /// ```
    pub fn elaborate_top(
        &self,
        name: &str,
        opts: &ElaborateOptions,
    ) -> Result<Netlist, SpiceError> {
        let mut nl = Netlist::new(name);
        // Exact for a flat deck. Nets are not reserved: they number
        // about half the cards, and an oversized name map would be
        // copied into every clone of the netlist.
        nl.reserve_devices(self.top.len());
        self.flatten(|spice| flatten_top(spice, opts, Builder::new(nl, spice.globals)))
    }

    /// Elaborates the subcircuit `name` into a standalone cell netlist
    /// with its ports marked — the natural way to obtain a SubGemini
    /// *pattern*.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownCell`] if no such subcircuit exists,
    /// otherwise as [`SpiceDoc::elaborate_top`].
    pub fn elaborate_cell(
        &self,
        name: &str,
        opts: &ElaborateOptions,
    ) -> Result<Netlist, SpiceError> {
        let lower = name.to_ascii_lowercase();
        let Some(cell) = self.subckts.iter().rposition(|s| s.name == lower) else {
            return Err(SpiceError::UnknownCell {
                name: name.to_string(),
            });
        };
        self.flatten(|spice| flatten_cell(spice, opts, cell))
    }

    /// Elaborates every subcircuit, in definition order, through one
    /// memo: a cell other cells instantiate is elaborated once for the
    /// whole deck, not once per cell that reaches it. Equivalent to
    /// calling [`SpiceDoc::elaborate_cell`] on each name in turn,
    /// including which error comes first.
    ///
    /// # Errors
    ///
    /// As [`SpiceDoc::elaborate_top`]; the device and name caps count
    /// the whole library.
    ///
    /// # Examples
    ///
    /// ```
    /// let doc = subgemini_spice::parse(
    ///     ".subckt inv a y\nMp y a vdd vdd p\nMn y a gnd gnd n\n.ends\n\
    ///      .subckt buf a y\nXi1 a m inv\nXi2 m y inv\n.ends\n",
    /// )?;
    /// let cells = doc.elaborate_cells(&Default::default())?;
    /// let sizes: Vec<usize> = cells.iter().map(|c| c.device_count()).collect();
    /// assert_eq!(sizes, [2, 4]);
    /// # Ok::<(), subgemini_spice::SpiceError>(())
    /// ```
    pub fn elaborate_cells(&self, opts: &ElaborateOptions) -> Result<Vec<Netlist>, SpiceError> {
        self.flatten(|spice| flatten_cells(spice, opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use subgemini_netlist::{MAX_INSTANTIATED_DEVICES, MAX_INSTANTIATED_NAME_BYTES};

    const DECK: &str = "\
.global vdd gnd
.subckt inv a y
Mp y a vdd vdd pch
Mn y a gnd gnd nch
.ends
.subckt buf a y
Xi1 a m inv
Xi2 m y inv
.ends
Xu1 in out buf
R1 out 0 10k
";

    #[test]
    fn flatten_recurses_through_hierarchy() {
        let doc = parse(DECK).unwrap();
        let nl = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(nl.device_count(), 5); // 4 MOS + 1 R
        assert!(nl.find_device("xu1.xi1.mp").is_some());
        assert!(nl.find_net("xu1.m").is_some());
        let vdd = nl.find_net("vdd").unwrap();
        assert!(nl.net_ref(vdd).is_global());
        assert_eq!(nl.net_ref(vdd).degree(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn hierarchical_mode_keeps_composites() {
        let doc = parse(DECK).unwrap();
        let nl = doc
            .elaborate_top("chip", &ElaborateOptions::hierarchical())
            .unwrap();
        assert_eq!(nl.device_count(), 2); // Xu1 composite + R1
        let x = nl.find_device("xu1").unwrap();
        assert_eq!(nl.device_type_of(x).name(), "buf");
        assert_eq!(nl.device_type_of(x).terminal_count(), 2);
    }

    #[test]
    fn elaborate_cell_marks_ports() {
        let doc = parse(DECK).unwrap();
        let inv = doc
            .elaborate_cell("inv", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(inv.device_count(), 2);
        assert_eq!(inv.ports().len(), 2);
        assert_eq!(inv.net_ref(inv.ports()[0]).name(), "a");
        // Globals inside the cell are marked.
        assert!(inv.net_ref(inv.find_net("vdd").unwrap()).is_global());
    }

    #[test]
    fn unknown_subckt_reported() {
        let doc = parse("Xu1 a b nosuch\n").unwrap();
        let err = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownSubckt { name } if name == "nosuch"));
    }

    #[test]
    fn recursive_subckt_reported() {
        let doc = parse(".subckt a x\nXq x a\n.ends\nXu1 n a\n").unwrap();
        let err = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::RecursiveSubckt { .. }));
    }

    #[test]
    fn unknown_cell_reported() {
        let doc = parse(DECK).unwrap();
        let err = doc
            .elaborate_cell("nand9", &ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownCell { .. }));
    }

    #[test]
    fn net_zero_is_global_by_default() {
        let doc = parse("R1 a 0 1k\n").unwrap();
        let nl = doc
            .elaborate_top("t", &ElaborateOptions::default())
            .unwrap();
        let zero = nl.find_net("0").unwrap();
        assert!(nl.net_ref(zero).is_global());
    }

    /// Devices (name, type, pins), nets (name, flags) and ports, in order.
    fn canonical(nl: &Netlist) -> String {
        let mut out = format!("{} {:?}\n", nl.name(), nl.device_types());
        for d in nl.device_ids() {
            let dev = nl.device(d);
            out.push_str(&format!(
                "{} {} {:?}\n",
                dev.name(),
                dev.type_id(),
                dev.pins()
            ));
        }
        for n in nl.net_ids() {
            let net = nl.net_ref(n);
            out.push_str(&format!(
                "{} {} {}\n",
                net.name(),
                net.is_global(),
                net.is_port()
            ));
        }
        out + &format!("{:?}", nl.ports())
    }

    /// `depth` chained subcircuits, each instantiating the previous one
    /// once, over an inverter: 2 devices at any depth.
    fn chain(depth: usize) -> String {
        let mut deck =
            String::from(".subckt c0 a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n");
        for k in 1..=depth {
            deck.push_str(&format!(".subckt c{k} a y\nx1 a y c{}\n.ends\n", k - 1));
        }
        deck
    }

    #[test]
    fn deep_nesting_elaborates_without_deep_stack() {
        let mut deck = String::from(".subckt c0 a y\nm1 y a gnd gnd nmos\n.ends\n");
        for k in 1..=20_000 {
            deck.push_str(&format!(".subckt c{k} a y\nx1 a y c{}\n.ends\n", k - 1));
        }
        deck.push_str("x1 in out c20000\n");
        // A recursive walk needs a stack frame per level; 256 KiB would
        // not hold 20,000 of them.
        let worker = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                parse(&deck)
                    .unwrap()
                    .elaborate_top("chip", &ElaborateOptions::default())
            })
            .unwrap();
        let top = worker.join().unwrap().unwrap();
        assert_eq!(top.device_count(), 1);
        let name = top.device(top.device_ids().next().unwrap()).name();
        assert_eq!(name.len(), "x1.".len() * 20_001 + "m1".len());
    }

    #[test]
    fn doubling_deck_hits_the_expansion_cap() {
        // c_k instantiates c_{k-1} twice: c40 would flatten to 2^40.
        let mut deck = String::from(".subckt c0 a y\nm1 y a gnd gnd nmos\n.ends\n");
        for k in 1..=40 {
            deck.push_str(&format!(
                ".subckt c{k} a y\nx1 a m c{p}\nx2 m y c{p}\n.ends\n",
                p = k - 1
            ));
        }
        deck.push_str("x1 in out c40\n");
        let doc = parse(&deck).unwrap();
        let err = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap_err();
        // With the cap at 2^b, c1..c(b-1) instantiate 2^b - 2 devices;
        // cb's first copy of c(b-1) (2^(b-1) devices) crosses the cap.
        let cap = MAX_INSTANTIATED_DEVICES;
        let want = SpiceError::ExpansionLimit {
            name: format!("c{}", cap.trailing_zeros() - 1),
            devices: cap - 2 + cap / 2,
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains(&cap.to_string()), "{err}");
        // The library path counts the same way.
        let lib = doc.elaborate_cells(&ElaborateOptions::default());
        assert_eq!(lib.unwrap_err(), err);
        // Hierarchical elaboration never flattens, so it is unaffected.
        let hier = doc
            .elaborate_top("chip", &ElaborateOptions::hierarchical())
            .unwrap();
        assert_eq!(hier.device_count(), 1);
    }

    #[test]
    fn instance_names_past_the_cap_are_refused() {
        // One instance of a 8,192-device cell under a 2^17-byte path
        // would mint just over 2^30 bytes of names: refused before any
        // is written, naming the subcircuit.
        let mut deck = String::from(".subckt wide a y\n");
        for k in 0..8_192 {
            deck.push_str(&format!("m{k} y a gnd gnd nmos\n"));
        }
        deck.push_str(".ends\n");
        let path = "x".repeat(1 << 17);
        let doc = parse(&format!("{deck}{path} in out wide\n")).unwrap();
        let err = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap_err();
        let SpiceError::NameLimit { name, bytes } = &err else {
            panic!("{err}");
        };
        assert_eq!(name, "wide");
        let names: u64 = (0..8_192).map(|k| format!("m{k}").len() as u64).sum();
        assert_eq!(*bytes, 8_192 * ((1 << 17) + 1) + names);
        assert!(*bytes > MAX_INSTANTIATED_NAME_BYTES);
        let text = err.to_string();
        assert!(
            text.contains("`wide`") && text.contains("past the cap of"),
            "{text}"
        );
        // The library path counts the same way.
        let lib = parse(&format!("{deck}.subckt top a y\n{path} a y wide\n.ends\n")).unwrap();
        let err = lib
            .elaborate_cells(&ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::NameLimit { ref name, .. } if name == "wide"));
        // Hierarchical elaboration mints no names.
        let hier = doc
            .elaborate_top("chip", &ElaborateOptions::hierarchical())
            .unwrap();
        assert_eq!(hier.device_count(), 1);
    }

    #[test]
    fn elaborate_cells_matches_cell_by_cell() {
        let deck = format!(
            "{}{DECK}.subckt inv a y\nMp y a vdd vdd pch\nR9 a y 1\n.ends\n\
             .subckt pair a b\nXp1 a b buf\nXp2 b a c3\n.ends\n",
            chain(3)
        );
        let doc = parse(&deck).unwrap();
        for opts in [
            ElaborateOptions::default(),
            ElaborateOptions::hierarchical(),
        ] {
            let all = doc.elaborate_cells(&opts).unwrap();
            let names: Vec<&str> = doc.subckts.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(all.len(), names.len());
            for (cell, name) in all.iter().zip(&names) {
                let one = doc.elaborate_cell(name, &opts).unwrap();
                assert_eq!(canonical(cell), canonical(&one), "{name}");
            }
        }
        // `inv` is defined twice: both positions get the later body.
        let all = doc.elaborate_cells(&ElaborateOptions::default()).unwrap();
        assert_eq!(all[4].device_count(), 2);
        assert!(all[4].find_device("r9").is_some());
        assert_eq!(canonical(&all[4]), canonical(&all[6]));
    }

    #[test]
    fn elaborate_cells_reports_the_first_failing_cell() {
        let doc = parse(
            ".subckt ok a\nR1 a b 1\n.ends\n.subckt bad a\nXq a nosuch\n.ends\n\
             .subckt worse a\nXr a worse\n.ends\n",
        )
        .unwrap();
        let err = doc
            .elaborate_cells(&ElaborateOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            doc.elaborate_cell("bad", &Default::default()).unwrap_err()
        );
        assert!(matches!(err, SpiceError::UnknownSubckt { name } if name == "nosuch"));
    }

    #[test]
    fn unused_broken_subckt_is_harmless() {
        let doc = parse(
            ".subckt broken x\nXq x nosuch\n.ends\n.subckt loop x\nXl x loop\n.ends\nR1 a b 1\n",
        )
        .unwrap();
        let nl = doc
            .elaborate_top("t", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(nl.device_count(), 1);
    }

    #[test]
    fn nets_made_by_instantiate_still_pick_up_global_flags() {
        // `xu1.m` is an internal net `instantiate` creates; a later card
        // naming it must still find it declared global.
        let doc = parse(&format!(".global xu1.m\n{DECK}R2 xu1.m 0 1\n")).unwrap();
        let nl = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap();
        let m = nl.find_net("xu1.m").unwrap();
        assert!(nl.net_ref(m).is_global());
    }

    #[test]
    fn type_memo_keeps_first_registration_errors() {
        // A subcircuit named `nmos` and a MOS card both want type `nmos`;
        // whichever comes second fails, as without the memo.
        for deck in [
            ".subckt nmos a\nR1 a b 1\n.ends\nX1 n nmos\nM1 a b c nch\n",
            ".subckt nmos a\nR1 a b 1\n.ends\nM1 a b c nch\nM2 a b c nch\nX1 n nmos\n",
        ] {
            let doc = parse(deck).unwrap();
            let err = doc
                .elaborate_top("t", &ElaborateOptions::hierarchical())
                .unwrap_err();
            assert!(
                err.to_string().contains("duplicate device type `nmos`"),
                "{err}"
            );
        }
    }
}
