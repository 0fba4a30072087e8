//! Elaboration: turning a parsed [`SpiceDoc`] into [`Netlist`]s.
//!
//! Cells elaborate from an explicit worklist rather than by recursion,
//! so nesting depth costs heap, not stack. The visiting order is the
//! depth-first order a recursive walk would take, and only cells
//! reachable from what is being elaborated are visited.

use std::collections::{HashMap, HashSet};

use subgemini_netlist::{
    instantiate, minted_name_bytes, DeviceType, DeviceTypeId, NetId, Netlist, TerminalSpec,
    MAX_INSTANTIATED_DEVICES, MAX_INSTANTIATED_NAME_BYTES,
};

use crate::card::{Card, Span};
use crate::error::SpiceError;
use crate::parse::SpiceDoc;

/// Elaboration options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElaborateOptions {
    /// If `true` (default), `X` instances are flattened recursively down
    /// to primitive devices. If `false`, each `X` instance becomes a
    /// composite device whose type is the subcircuit name and whose
    /// terminals are its ports (each port its own equivalence class).
    pub flatten: bool,
    /// Additional net names treated as global even without `.global`
    /// (defaults: `vdd`, `vss`, `gnd`, `vcc`, `0`).
    pub implicit_globals: Vec<String>,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        Self {
            flatten: true,
            implicit_globals: ["vdd", "vss", "gnd", "vcc", "0"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

impl ElaborateOptions {
    /// Hierarchical (non-flattening) elaboration.
    pub fn hierarchical() -> Self {
        Self {
            flatten: false,
            ..Self::default()
        }
    }
}

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

/// A netlist under construction, with what this elaborator has already
/// established about it.
struct Builder<'d> {
    nl: Netlist,
    /// Types registered so far. Only the first card of a type goes
    /// through `Netlist::add_type` (so its errors are unchanged); later
    /// ones reuse the id.
    types: Vec<(TypeKey<'d>, DeviceTypeId)>,
    /// Per net id: already checked against the global set.
    checked: Vec<bool>,
}

impl<'d> Builder<'d> {
    fn new(nl: Netlist) -> Self {
        Self {
            nl,
            types: Vec::new(),
            checked: Vec::new(),
        }
    }

    fn ty(
        &mut self,
        key: TypeKey<'d>,
        make: impl FnOnce() -> Result<DeviceType, SpiceError>,
    ) -> Result<DeviceTypeId, SpiceError> {
        if let Some(&(_, id)) = self.types.iter().find(|(k, _)| *k == key) {
            return Ok(id);
        }
        let id = self.nl.add_type(make()?)?;
        self.types.push((key, id));
        Ok(id)
    }

    /// The net named `name`, created if new, marked global the first
    /// time this elaborator sees it if the name is global.
    fn net(&mut self, name: &str, globals: &HashSet<String>) -> NetId {
        let id = self.nl.net(name);
        let i = id.index();
        if i >= self.checked.len() {
            self.checked.resize(i + 1, false);
        }
        if !self.checked[i] {
            self.checked[i] = true;
            if globals.contains(name) {
                self.nl.mark_global(id);
            }
        }
        id
    }
}

/// One netlist on the worklist: its cards and how far it has got.
struct Frame<'d> {
    /// The subcircuit being elaborated; `None` for the top level.
    cell: Option<usize>,
    cards: &'d [Card],
    next: usize,
    /// Started when the first card adds to it, so the frames of a chain
    /// waiting on the cells below them hold no netlist.
    out: Option<Box<Builder<'d>>>,
}

struct Elaborator<'d> {
    doc: &'d SpiceDoc,
    /// `ElaborateOptions::flatten`.
    flatten: bool,
    /// Subcircuit name → index in `doc.subckts`; of two definitions of
    /// one name, the later wins.
    index: HashMap<&'d str, usize>,
    globals: HashSet<String>,
    /// Flatten mode, per subcircuit: its netlist once elaborated, until
    /// the last `X` card that can instantiate it has. Boxed: a deck may
    /// define hundreds of thousands of subcircuits.
    cells: Vec<Option<Box<Netlist>>>,
    /// Flatten mode, per subcircuit: `X` cards in the deck that name it
    /// and have not been elaborated yet.
    uses: Vec<u32>,
    /// Per subcircuit: on the worklist now, so meeting it again is a
    /// cycle.
    open: Vec<bool>,
    /// Devices `instantiate` has created so far.
    instantiated: u64,
    /// Name bytes `instantiate` has minted so far.
    minted: u64,
    /// An `X` card's nets, reused from card to card.
    bindings: Vec<NetId>,
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

impl<'d> Elaborator<'d> {
    fn new(doc: &'d SpiceDoc, opts: &ElaborateOptions) -> Self {
        let mut globals: HashSet<String> =
            doc.globals.iter().map(|s| s.to_ascii_lowercase()).collect();
        globals.extend(opts.implicit_globals.iter().map(|s| s.to_ascii_lowercase()));
        let index: HashMap<&str, usize> = doc
            .subckts
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), i))
            .collect();
        let n = doc.subckts.len();
        let mut uses = vec![0u32; n];
        if opts.flatten {
            let bodies = doc.subckts.iter().flat_map(|d| &d.cards);
            for card in doc.top.iter().chain(bodies) {
                if let Card::Instance { subckt, .. } = *card {
                    if let Some(&i) = index.get(doc.str(subckt)) {
                        uses[i] += 1;
                    }
                }
            }
        }
        Self {
            doc,
            flatten: opts.flatten,
            index,
            globals,
            cells: vec![None; n],
            uses,
            open: vec![false; n],
            instantiated: 0,
            minted: 0,
            bindings: Vec::new(),
        }
    }

    /// Puts subcircuit `i` on the worklist.
    fn open_cell(&mut self, i: usize) -> Frame<'d> {
        self.open[i] = true;
        Frame {
            cell: Some(i),
            cards: &self.doc.subckts[i].cards,
            next: 0,
            out: None,
        }
    }

    /// Subcircuit `i`'s netlist as it starts: its ports, marked.
    fn start_cell(&self, i: usize) -> Box<Builder<'d>> {
        let def = &self.doc.subckts[i];
        let mut out = Builder::new(Netlist::new(def.name.clone()));
        for p in &def.ports {
            let id = out.net(p, &self.globals);
            out.nl.mark_port(id);
        }
        Box::new(out)
    }

    /// Elaborates `root`, first elaborating each cell it reaches the
    /// first time one of its `X` cards needs it.
    fn run(&mut self, root: Frame<'d>) -> Result<Netlist, SpiceError> {
        let mut stack = vec![root];
        loop {
            let frame = stack.last_mut().expect("the root stays until it returns");
            if let Some(card) = frame.cards.get(frame.next) {
                if let Some(sub) = self.waits_on(card)? {
                    let child = self.open_cell(sub);
                    stack.push(child);
                    continue;
                }
                let cell = frame.cell;
                let out = frame.out.get_or_insert_with(|| {
                    self.start_cell(cell.expect("the top level starts with its netlist"))
                });
                self.add_card(out, card)?;
                frame.next += 1;
                continue;
            }
            let done = stack.pop().expect("checked above");
            let cell = done.cell;
            let out = done.out.unwrap_or_else(|| {
                self.start_cell(cell.expect("the top level starts with its netlist"))
            });
            let nl = out.nl;
            if let Some(i) = done.cell {
                self.open[i] = false;
            }
            match (stack.is_empty(), done.cell) {
                (false, Some(i)) => self.cells[i] = Some(Box::new(nl)),
                _ => return Ok(nl),
            }
        }
    }

    /// The subcircuit an `X` card must wait for: one it flattens that is
    /// not elaborated yet (the card is retried once it is).
    fn waits_on(&self, card: &Card) -> Result<Option<usize>, SpiceError> {
        let Card::Instance { subckt, .. } = *card else {
            return Ok(None);
        };
        let subckt = self.doc.str(subckt);
        let &i = self
            .index
            .get(subckt)
            .ok_or_else(|| SpiceError::UnknownSubckt {
                name: subckt.to_string(),
            })?;
        if !self.flatten || self.cells[i].is_some() {
            return Ok(None);
        }
        if self.open[i] {
            return Err(SpiceError::RecursiveSubckt {
                name: subckt.to_string(),
            });
        }
        Ok(Some(i))
    }

    /// Adds one card to `out`; an `X` card's subcircuit is elaborated
    /// already when it flattens ([`Elaborator::waits_on`]).
    fn add_card(&mut self, out: &mut Builder<'d>, card: &Card) -> Result<(), SpiceError> {
        let doc = self.doc;
        let s = |t: Span| doc.str(t);
        let g = &self.globals;
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
                let ty = out.ty(TypeKey::Mos(tyname), || Ok(DeviceType::mos(tyname)))?;
                let pins = [
                    out.net(s(gate), g),
                    out.net(s(source), g),
                    out.net(s(drain), g),
                ];
                out.nl.add_device(name, ty, &pins)?;
            }
            Card::TwoTerminal { kind, a, b, .. } => {
                let ty = out.ty(TypeKey::TwoTerminal(kind), || {
                    Ok(DeviceType::two_terminal(kind))
                })?;
                let pins = [out.net(s(a), g), out.net(s(b), g)];
                out.nl.add_device(name, ty, &pins)?;
            }
            Card::Diode { p, n, model, .. } => {
                let model = s(model);
                let ty = out.ty(TypeKey::Diode(model), || {
                    Ok(DeviceType::polarized(if model.is_empty() {
                        "diode".to_string()
                    } else {
                        format!("diode:{model}")
                    }))
                })?;
                let pins = [out.net(s(p), g), out.net(s(n), g)];
                out.nl.add_device(name, ty, &pins)?;
            }
            Card::Bjt { c, b, e, model, .. } => {
                let tyname = bjt_type_name(s(model));
                let ty = out.ty(TypeKey::Bjt(tyname), || Ok(DeviceType::bjt(tyname)))?;
                let pins = [out.net(s(c), g), out.net(s(b), g), out.net(s(e), g)];
                out.nl.add_device(name, ty, &pins)?;
            }
            Card::Instance { nets, subckt, .. } => {
                let nets = doc.instance_nets(nets);
                let subckt = s(subckt);
                let i = self.index[subckt];
                if !self.flatten {
                    let def = &doc.subckts[i];
                    let ty = out.ty(TypeKey::Subckt(i), || {
                        let terms = def
                            .ports
                            .iter()
                            .map(|p| TerminalSpec::new(p.clone(), p.clone()))
                            .collect();
                        DeviceType::try_new(def.name.clone(), terms)
                            .map_err(|detail| SpiceError::Parse { line: 0, detail })
                    })?;
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
                    let pins: Vec<_> = nets.iter().map(|&n| out.net(s(n), g)).collect();
                    out.nl.add_device(name, ty, &pins)?;
                    return Ok(());
                }
                let cell = self.cells[i].as_ref().expect("waits_on saw it elaborated");
                self.bindings.clear();
                self.bindings.extend(nets.iter().map(|&n| out.net(s(n), g)));
                let devices = self.instantiated + cell.device_count() as u64;
                if devices > MAX_INSTANTIATED_DEVICES {
                    return Err(SpiceError::ExpansionLimit {
                        name: subckt.to_string(),
                        devices,
                    });
                }
                let bytes = self.minted + minted_name_bytes(cell, name);
                if bytes > MAX_INSTANTIATED_NAME_BYTES {
                    return Err(SpiceError::NameLimit {
                        name: subckt.to_string(),
                        bytes,
                    });
                }
                instantiate(&mut out.nl, cell, name, &self.bindings)?;
                self.instantiated = devices;
                self.minted = bytes;
                self.uses[i] -= 1;
                if self.uses[i] == 0 {
                    self.cells[i] = None;
                }
            }
        }
        Ok(())
    }
}

impl SpiceDoc {
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
        let mut el = Elaborator::new(self, opts);
        let mut nl = Netlist::new(name);
        // Exact for a flat deck. Nets are not reserved: they number
        // about half the cards, and an oversized name map would be
        // copied into every clone of the netlist.
        nl.reserve_devices(self.top.len());
        el.run(Frame {
            cell: None,
            cards: &self.top,
            next: 0,
            out: Some(Box::new(Builder::new(nl))),
        })
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
        if self.subckt(name).is_none() {
            return Err(SpiceError::UnknownCell {
                name: name.to_string(),
            });
        }
        let mut el = Elaborator::new(self, opts);
        let i = el.index[name.to_ascii_lowercase().as_str()];
        let root = el.open_cell(i);
        el.run(root)
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
        let mut el = Elaborator::new(self, opts);
        // Every cell is also an output: keep them all.
        el.uses.fill(u32::MAX);
        let order: Vec<usize> = self
            .subckts
            .iter()
            .map(|d| el.index[d.name.as_str()])
            .collect();
        for &i in &order {
            if el.cells[i].is_none() {
                let root = el.open_cell(i);
                el.cells[i] = Some(Box::new(el.run(root)?));
            }
        }
        // A name defined twice resolves to its last definition both
        // times: clone for all but the last position that wants it.
        let mut wanted = vec![0usize; self.subckts.len()];
        for &i in &order {
            wanted[i] += 1;
        }
        Ok(order
            .iter()
            .map(|&i| {
                wanted[i] -= 1;
                let cell = &mut el.cells[i];
                let cell = if wanted[i] == 0 {
                    cell.take()
                } else {
                    cell.clone()
                };
                *cell.expect("elaborated above")
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

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
