//! Elaboration: turning parsed Verilog into [`Netlist`]s.

use std::collections::{HashMap, HashSet};

use subgemini_netlist::{
    instantiate, minted_name_bytes, DeviceType, NetId, Netlist, TerminalSpec,
    MAX_INSTANTIATED_DEVICES, MAX_INSTANTIATED_NAME_BYTES,
};

use crate::ast::{is_primitive, Conns, Instance, Module, Source};
use crate::error::VerilogError;

/// Elaboration options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerilogOptions {
    /// Flatten module instances recursively (default) or keep them as
    /// composite devices.
    pub flatten: bool,
    /// Net names treated as global even without `supply0`/`supply1`
    /// declarations.
    pub implicit_globals: Vec<String>,
}

impl Default for VerilogOptions {
    fn default() -> Self {
        Self {
            flatten: true,
            implicit_globals: ["vdd", "vss", "gnd", "vcc"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

impl VerilogOptions {
    /// Hierarchical (non-flattening) elaboration.
    pub fn hierarchical() -> Self {
        Self {
            flatten: false,
            ..Self::default()
        }
    }
}

/// The device type for a gate primitive of the given input arity:
/// output terminal `y` in its own class, inputs `i1…iN` in a shared
/// class (primitive gate inputs are interchangeable).
pub fn primitive_type(gate: &str, inputs: usize) -> DeviceType {
    let name = match gate {
        "not" | "buf" => format!("${gate}"),
        _ => format!("${gate}{inputs}"),
    };
    let mut terms = vec![TerminalSpec::new("y", "y")];
    for i in 1..=inputs {
        terms.push(TerminalSpec::new(format!("i{i}"), "i"));
    }
    DeviceType::new(name, terms)
}

/// The net named `name`, created if new and marked global if `globals`
/// names it.
fn net(nl: &mut Netlist, globals: &HashSet<&str>, name: &str) -> NetId {
    let id = nl.net(name);
    if globals.contains(name) {
        nl.mark_global(id);
    }
    id
}

/// An instance's connection nets in `def`'s port order, or the error
/// its connections earn.
fn port_order<'i>(inst: &'i Instance, def: &Module) -> Result<Vec<&'i str>, VerilogError> {
    Ok(match &inst.conns {
        Conns::Positional(nets) => {
            if nets.len() != def.ports.len() {
                return Err(VerilogError::PortCountMismatch {
                    instance: inst.name.clone(),
                    expected: def.ports.len(),
                    got: nets.len(),
                });
            }
            nets.iter().map(String::as_str).collect()
        }
        Conns::Named(pairs) => {
            let map: HashMap<&str, &str> = pairs
                .iter()
                .map(|(p, n)| (p.as_str(), n.as_str()))
                .collect();
            for (p, _) in pairs {
                if !def.ports.contains(p) {
                    return Err(VerilogError::UnknownPort {
                        instance: inst.name.clone(),
                        port: p.clone(),
                    });
                }
            }
            if map.len() != def.ports.len() {
                return Err(VerilogError::PortCountMismatch {
                    instance: inst.name.clone(),
                    expected: def.ports.len(),
                    got: map.len(),
                });
            }
            def.ports.iter().map(|p| map[p.as_str()]).collect()
        }
    })
}

/// One module on the worklist: the next instance to add, and the
/// module's netlist once an instance has been added to it.
struct Frame<'a> {
    /// Index of the module in `Source::modules`.
    module: usize,
    next: usize,
    /// Started when the first instance adds to it, so the frames of a
    /// chain waiting on the modules below them hold no netlist.
    out: Option<Box<Started<'a>>>,
}

/// A module's netlist under construction.
struct Started<'a> {
    /// Its supply nets and the implicit globals.
    globals: HashSet<&'a str>,
    nl: Netlist,
}

/// Modules elaborate from an explicit worklist rather than by
/// recursion, so hierarchy depth costs heap, not stack; the visiting
/// order is the depth-first order a recursive walk would take.
struct Elaborator<'a> {
    src: &'a Source,
    opts: &'a VerilogOptions,
    /// Module name → index of its first definition (the one
    /// [`Source::module`] finds).
    index: HashMap<&'a str, usize>,
    /// Per module: its netlist once elaborated (flatten mode), until
    /// the last instance that can flatten it has. Boxed: a source may
    /// define hundreds of thousands of modules.
    cells: Vec<Option<Box<Netlist>>>,
    /// Flatten mode, per module: instances in the source that name it
    /// and have not been flattened yet.
    uses: Vec<u32>,
    /// Per module: on the worklist now, so meeting it again is a cycle.
    open: Vec<bool>,
    /// Devices `instantiate` has created so far.
    instantiated: u64,
    /// Name bytes `instantiate` has minted so far.
    minted: u64,
}

impl<'a> Elaborator<'a> {
    fn new(src: &'a Source, opts: &'a VerilogOptions) -> Self {
        let mut index = HashMap::new();
        for (i, m) in src.modules.iter().enumerate() {
            index.entry(m.name.as_str()).or_insert(i);
        }
        let n = src.modules.len();
        let mut uses = vec![0u32; n];
        if opts.flatten {
            for inst in src.modules.iter().flat_map(|m| &m.instances) {
                if is_primitive(&inst.module) {
                    continue;
                }
                if let Some(&i) = index.get(inst.module.as_str()) {
                    uses[i] += 1;
                }
            }
        }
        Self {
            src,
            opts,
            index,
            cells: vec![None; n],
            uses,
            open: vec![false; n],
            instantiated: 0,
            minted: 0,
        }
    }

    /// Puts module `i` on the worklist.
    fn open_module(&mut self, i: usize) -> Frame<'a> {
        self.open[i] = true;
        Frame {
            module: i,
            next: 0,
            out: None,
        }
    }

    /// Module `i`'s netlist as it starts: its ports, wires and supplies
    /// declared.
    fn start_module(&self, i: usize) -> Box<Started<'a>> {
        let m = &self.src.modules[i];
        let globals: HashSet<&str> = m
            .supply0
            .iter()
            .chain(m.supply1.iter())
            .map(String::as_str)
            .chain(self.opts.implicit_globals.iter().map(String::as_str))
            .collect();
        let mut nl = Netlist::new(m.name.clone());
        for p in &m.ports {
            let id = net(&mut nl, &globals, p);
            nl.mark_port(id);
        }
        for w in m
            .wires
            .iter()
            .chain(m.supply0.iter())
            .chain(m.supply1.iter())
        {
            net(&mut nl, &globals, w);
        }
        Box::new(Started { globals, nl })
    }

    /// Elaborates module `root`, first elaborating each module it
    /// flattens the first time one of its instances needs it.
    fn run(&mut self, root: usize) -> Result<Netlist, VerilogError> {
        let mut stack = vec![self.open_module(root)];
        loop {
            let frame = stack.last_mut().expect("the root stays until it returns");
            if let Some(inst) = self.src.modules[frame.module].instances.get(frame.next) {
                if let Some(sub) = self.waits_on(inst)? {
                    let child = self.open_module(sub);
                    stack.push(child);
                    continue;
                }
                let module = frame.module;
                let out = frame.out.get_or_insert_with(|| self.start_module(module));
                self.add_instance(&mut out.nl, &out.globals, inst)?;
                frame.next += 1;
                continue;
            }
            let done = stack.pop().expect("checked above");
            self.open[done.module] = false;
            let out = done.out.unwrap_or_else(|| self.start_module(done.module));
            // Wires may be declared but unused; match the SPICE
            // pipeline's normalization and drop them.
            let nl = out.nl.compact();
            if stack.is_empty() {
                return Ok(nl);
            }
            self.cells[done.module] = Some(Box::new(nl));
        }
    }

    /// Module `i`'s netlist, elaborated on first use and memoized.
    fn cell(&mut self, i: usize) -> Result<&Netlist, VerilogError> {
        if self.cells[i].is_none() {
            let nl = self.run(i)?;
            self.cells[i] = Some(Box::new(nl));
        }
        Ok(self.cells[i].as_deref().expect("elaborated above"))
    }

    /// The module a flattened instance must wait for: one not elaborated
    /// yet (the instance is retried once it is). Its port errors come
    /// first, as when the instance is added.
    fn waits_on(&self, inst: &Instance) -> Result<Option<usize>, VerilogError> {
        if !self.opts.flatten || is_primitive(&inst.module) {
            return Ok(None);
        }
        let Some(&sub) = self.index.get(inst.module.as_str()) else {
            return Ok(None);
        };
        if self.cells[sub].is_some() {
            return Ok(None);
        }
        port_order(inst, &self.src.modules[sub])?;
        if self.open[sub] {
            return Err(VerilogError::RecursiveModule {
                name: inst.module.clone(),
            });
        }
        Ok(Some(sub))
    }

    /// Adds one instance to `nl`; a flattened instance's module is
    /// elaborated already ([`Elaborator::waits_on`]).
    fn add_instance(
        &mut self,
        nl: &mut Netlist,
        globals: &HashSet<&str>,
        inst: &Instance,
    ) -> Result<(), VerilogError> {
        if is_primitive(&inst.module) {
            let Conns::Positional(nets) = &inst.conns else {
                return Err(VerilogError::Parse {
                    line: inst.line,
                    detail: format!(
                        "gate primitive `{}` requires positional connections",
                        inst.module
                    ),
                });
            };
            let min = if matches!(inst.module.as_str(), "not" | "buf") {
                2
            } else {
                3
            };
            if nets.len() < min {
                return Err(VerilogError::PortCountMismatch {
                    instance: inst.name.clone(),
                    expected: min,
                    got: nets.len(),
                });
            }
            if matches!(inst.module.as_str(), "not" | "buf") && nets.len() != 2 {
                return Err(VerilogError::PortCountMismatch {
                    instance: inst.name.clone(),
                    expected: 2,
                    got: nets.len(),
                });
            }
            let ty = nl.add_type(primitive_type(&inst.module, nets.len() - 1))?;
            let pins: Vec<NetId> = nets.iter().map(|n| net(nl, globals, n)).collect();
            nl.add_device(&inst.name, ty, &pins)?;
            return Ok(());
        }
        let Some(&sub) = self.index.get(inst.module.as_str()) else {
            // Unknown module: with *named* connections we can still
            // synthesize a composite device type from the port names —
            // this lets a single gate-level module (as written by
            // [`write_module`](crate::write_module)) stand alone
            // without leaf definitions.
            if let Conns::Named(pairs) = &inst.conns {
                let terms: Vec<TerminalSpec> = pairs
                    .iter()
                    .map(|(p, _)| TerminalSpec::new(p.clone(), p.clone()))
                    .collect();
                let ty = nl.add_type(DeviceType::try_new(inst.module.clone(), terms).map_err(
                    |detail| VerilogError::Parse {
                        line: inst.line,
                        detail,
                    },
                )?)?;
                let pins: Vec<NetId> = pairs.iter().map(|(_, n)| net(nl, globals, n)).collect();
                nl.add_device(&inst.name, ty, &pins)?;
                return Ok(());
            }
            return Err(VerilogError::UnknownModule {
                name: inst.module.clone(),
            });
        };
        let def = &self.src.modules[sub];
        let ordered = port_order(inst, def)?;
        if self.opts.flatten {
            let cell = self.cells[sub]
                .as_deref()
                .expect("waits_on saw it elaborated");
            let devices = self.instantiated + cell.device_count() as u64;
            if devices > MAX_INSTANTIATED_DEVICES {
                return Err(VerilogError::ExpansionLimit {
                    name: inst.module.clone(),
                    devices,
                });
            }
            let bytes = self.minted + minted_name_bytes(cell, &inst.name);
            if bytes > MAX_INSTANTIATED_NAME_BYTES {
                return Err(VerilogError::NameLimit {
                    name: inst.module.clone(),
                    bytes,
                });
            }
            let bindings: Vec<NetId> = ordered.iter().map(|n| net(nl, globals, n)).collect();
            instantiate(nl, cell, &inst.name, &bindings)?;
            self.instantiated = devices;
            self.minted = bytes;
            self.uses[sub] -= 1;
            if self.uses[sub] == 0 {
                self.cells[sub] = None;
            }
        } else {
            let terms: Vec<TerminalSpec> = def
                .ports
                .iter()
                .map(|p| TerminalSpec::new(p.clone(), p.clone()))
                .collect();
            let ty = nl.add_type(DeviceType::try_new(def.name.clone(), terms).map_err(
                |detail| VerilogError::Parse {
                    line: inst.line,
                    detail,
                },
            )?)?;
            let pins: Vec<NetId> = ordered.iter().map(|n| net(nl, globals, n)).collect();
            nl.add_device(&inst.name, ty, &pins)?;
        }
        Ok(())
    }
}

impl Source {
    /// Elaborates the named module (or the inferred top when `name` is
    /// `None`) into a flat or hierarchical netlist.
    ///
    /// # Errors
    ///
    /// Unknown/recursive modules, port mismatches, flattening past
    /// [`VerilogError::ExpansionLimit`]'s or [`VerilogError::NameLimit`]'s
    /// cap, netlist errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use subgemini_verilog::{parse, VerilogOptions};
    ///
    /// let src = parse(
    ///     "module top(input a, output y);\n\
    ///        wire w;\n\
    ///        nand g1(w, a, a);\n\
    ///        not g2(y, w);\n\
    ///      endmodule\n",
    /// )?;
    /// let nl = src.elaborate(None, &VerilogOptions::default())?;
    /// assert_eq!(nl.device_count(), 2);
    /// # Ok::<(), subgemini_verilog::VerilogError>(())
    /// ```
    pub fn elaborate(
        &self,
        name: Option<&str>,
        opts: &VerilogOptions,
    ) -> Result<Netlist, VerilogError> {
        let module = match name {
            Some(n) => self.module(n).ok_or_else(|| VerilogError::UnknownTop {
                name: n.to_string(),
            })?,
            None => self.infer_top().ok_or_else(|| VerilogError::UnknownTop {
                name: "<inferred top>".to_string(),
            })?,
        };
        let mut el = Elaborator::new(self, opts);
        el.run(el.index[module.name.as_str()])
    }

    /// Elaborates every module, in definition order, through one memo:
    /// a module other modules instantiate is elaborated once for the
    /// whole source, not once per module that reaches it. Equivalent to
    /// calling [`Source::elaborate`] on each name in turn, including
    /// which error comes first.
    ///
    /// # Errors
    ///
    /// As [`Source::elaborate`]; the device and name caps count the
    /// whole source.
    ///
    /// # Examples
    ///
    /// ```
    /// use subgemini_verilog::{parse, VerilogOptions};
    ///
    /// let src = parse(
    ///     "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
    ///      module buf2(input a, output y);\nwire m;\ninv u1(a, m);\ninv u2(m, y);\nendmodule\n",
    /// )?;
    /// let cells = src.elaborate_cells(&VerilogOptions::default())?;
    /// let sizes: Vec<usize> = cells.iter().map(|c| c.device_count()).collect();
    /// assert_eq!(sizes, [1, 2]);
    /// # Ok::<(), subgemini_verilog::VerilogError>(())
    /// ```
    pub fn elaborate_cells(&self, opts: &VerilogOptions) -> Result<Vec<Netlist>, VerilogError> {
        let mut el = Elaborator::new(self, opts);
        // Every module is also an output: keep them all.
        el.uses.fill(u32::MAX);
        self.modules
            .iter()
            .map(|m| el.cell(el.index[m.name.as_str()]).cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const SRC: &str = "\
module inv(input a, output y);
  supply1 vdd;
  supply0 gnd;
  not g(y, a);
endmodule
module top(input a, b, output y);
  wire w1, w2;
  nand g1(w1, a, b);
  inv u1(.a(w1), .y(w2));
  inv u2(w2, y);
endmodule
";

    #[test]
    fn flatten_resolves_hierarchy_and_primitives() {
        let src = parse(SRC).unwrap();
        let nl = src.elaborate(None, &VerilogOptions::default()).unwrap();
        assert_eq!(nl.name(), "top");
        assert_eq!(nl.device_count(), 3); // nand + 2 flattened not-gates
        assert!(nl.find_device("u1.g").is_some());
        let stats = subgemini_netlist::NetlistStats::of(&nl);
        assert_eq!(stats.devices_by_type["$nand2"], 1);
        assert_eq!(stats.devices_by_type["$not"], 2);
        nl.validate().unwrap();
    }

    #[test]
    fn hierarchical_keeps_composites() {
        let src = parse(SRC).unwrap();
        let nl = src
            .elaborate(Some("top"), &VerilogOptions::hierarchical())
            .unwrap();
        assert_eq!(nl.device_count(), 3); // nand primitive + 2 inv composites
        let u1 = nl.find_device("u1").unwrap();
        assert_eq!(nl.device_type_of(u1).name(), "inv");
    }

    #[test]
    fn primitive_inputs_share_a_class() {
        let ty = primitive_type("nand", 3);
        assert_eq!(ty.name(), "$nand3");
        assert_eq!(ty.terminal_count(), 4);
        assert!(!ty.same_class(0, 1));
        assert!(ty.same_class(1, 2) && ty.same_class(2, 3));
    }

    #[test]
    fn named_connection_errors() {
        let src = parse(
            "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
             module top(input x, output z);\ninv u(.bogus(x), .y(z));\nendmodule\n",
        )
        .unwrap();
        let err = src
            .elaborate(Some("top"), &VerilogOptions::default())
            .unwrap_err();
        assert!(matches!(err, VerilogError::UnknownPort { .. }));
    }

    #[test]
    fn positional_count_checked() {
        let src = parse(
            "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
             module top(input x);\ninv u(x);\nendmodule\n",
        )
        .unwrap();
        let err = src
            .elaborate(Some("top"), &VerilogOptions::default())
            .unwrap_err();
        assert!(matches!(err, VerilogError::PortCountMismatch { .. }));
    }

    #[test]
    fn recursion_detected() {
        let src = parse(
            "module a(input x);\nb u(x);\nendmodule\nmodule b(input x);\na u(x);\nendmodule\n\
             module top(input x);\na u(x);\nendmodule\n",
        )
        .unwrap();
        let err = src
            .elaborate(Some("top"), &VerilogOptions::default())
            .unwrap_err();
        assert_eq!(err, VerilogError::RecursiveModule { name: "a".into() });
        // A module instantiating itself.
        let src = parse("module a(input x);\na u(x);\nendmodule\n").unwrap();
        let err = src.elaborate(Some("a"), &VerilogOptions::default());
        assert_eq!(
            err.unwrap_err(),
            VerilogError::RecursiveModule { name: "a".into() }
        );
        let err = src.elaborate_cells(&VerilogOptions::default());
        assert_eq!(
            err.unwrap_err(),
            VerilogError::RecursiveModule { name: "a".into() }
        );
    }

    #[test]
    fn supplies_become_globals() {
        let src = parse(SRC).unwrap();
        let inv = src
            .elaborate(Some("inv"), &VerilogOptions::default())
            .unwrap();
        // not-gate doesn't touch the rails, so compact() drops them; but
        // an instance netlist that *uses* them keeps the global flag.
        assert!(inv.find_net("vdd").is_none());
        let src2 =
            parse("module m(input a, output y);\nsupply0 gnd;\nnand g(y, a, gnd);\nendmodule\n")
                .unwrap();
        let m = src2.elaborate(None, &VerilogOptions::default()).unwrap();
        let gnd = m.find_net("gnd").unwrap();
        assert!(m.net_ref(gnd).is_global());
    }

    /// `depth` chained modules, each instantiating the previous one
    /// `fanout` times, over one inverter.
    fn chain(depth: usize, fanout: usize) -> String {
        let mut src = String::from("module c0(input a, output y);\nnot g(y, a);\nendmodule\n");
        for k in 1..=depth {
            let p = k - 1;
            let body = match fanout {
                1 => format!("c{p} u1(a, y);\n"),
                _ => format!("wire m;\nc{p} u1(a, m);\nc{p} u2(m, y);\n"),
            };
            src.push_str(&format!(
                "module c{k}(input a, output y);\n{body}endmodule\n"
            ));
        }
        src
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

    #[test]
    fn deep_chain_elaborates_without_deep_stack() {
        let src = parse(&chain(2_000, 1)).unwrap();
        // A recursive walk needs stack frames per level; 256 KiB would
        // not hold 2,000 of them.
        let worker = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || src.elaborate(None, &VerilogOptions::default()))
            .unwrap();
        let top = worker.join().unwrap().unwrap();
        assert_eq!(top.name(), "c2000");
        assert_eq!(top.device_count(), 1);
        let name = top.device(top.device_ids().next().unwrap()).name();
        assert_eq!(name.len(), "u1.".len() * 2_000 + "g".len());
    }

    #[test]
    fn doubling_source_hits_the_expansion_cap() {
        // c_k instantiates c_{k-1} twice: c40 would flatten to 2^40.
        let src = parse(&chain(40, 2)).unwrap();
        let err = src.elaborate(None, &VerilogOptions::default()).unwrap_err();
        // With the cap at 2^b, c1..c(b-1) instantiate 2^b - 2 devices;
        // cb's first copy of c(b-1) (2^(b-1) devices) crosses the cap.
        let cap = MAX_INSTANTIATED_DEVICES;
        let want = VerilogError::ExpansionLimit {
            name: format!("c{}", cap.trailing_zeros() - 1),
            devices: cap - 2 + cap / 2,
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains("module `c"), "{err}");
        assert!(err.to_string().contains(&cap.to_string()), "{err}");
        // The library path counts the same way.
        let lib = src.elaborate_cells(&VerilogOptions::default());
        assert_eq!(lib.unwrap_err(), err);
        // Hierarchical elaboration never flattens, so it is unaffected.
        let hier = src
            .elaborate(None, &VerilogOptions::hierarchical())
            .unwrap();
        assert_eq!(hier.device_count(), 2);
    }

    #[test]
    fn instance_names_past_the_cap_are_refused() {
        // One instance of a 8,192-gate module under a 2^17-byte name
        // would mint just over 2^30 bytes of names: refused before any
        // is written, naming the module.
        let mut text = String::from("module wide(input a, output y);\n");
        for k in 0..8_192 {
            text.push_str(&format!("not g{k}(y, a);\n"));
        }
        let path = "u".repeat(1 << 17);
        text.push_str(&format!(
            "endmodule\nmodule top(input a, output y);\nwide {path}(a, y);\nendmodule\n"
        ));
        let src = parse(&text).unwrap();
        let err = src.elaborate(None, &VerilogOptions::default()).unwrap_err();
        let VerilogError::NameLimit { name, bytes } = &err else {
            panic!("{err}");
        };
        assert_eq!(name, "wide");
        let names: u64 = (0..8_192).map(|k| format!("g{k}").len() as u64).sum();
        assert_eq!(*bytes, 8_192 * ((1 << 17) + 1) + names);
        assert!(*bytes > MAX_INSTANTIATED_NAME_BYTES);
        let text = err.to_string();
        assert!(
            text.contains("module `wide`") && text.contains("past the cap of"),
            "{text}"
        );
        // The library path counts the same way.
        let lib = src.elaborate_cells(&VerilogOptions::default()).unwrap_err();
        assert_eq!(lib, err);
        // Hierarchical elaboration mints no names.
        let hier = src
            .elaborate(None, &VerilogOptions::hierarchical())
            .unwrap();
        assert_eq!(hier.device_count(), 1);
    }

    #[test]
    fn elaborate_cells_matches_module_by_module() {
        let text = format!(
            "{}{SRC}module inv(input a, output y);\nbuf g(y, a);\nendmodule\n\
             module pair(input a, output b);\ninv u1(a, b);\nc3 u2(.a(b), .y(a));\nendmodule\n",
            chain(3, 1)
        );
        let src = parse(&text).unwrap();
        for opts in [VerilogOptions::default(), VerilogOptions::hierarchical()] {
            let all = src.elaborate_cells(&opts).unwrap();
            assert_eq!(all.len(), src.modules.len());
            for (cell, m) in all.iter().zip(&src.modules) {
                let one = src.elaborate(Some(&m.name), &opts).unwrap();
                assert_eq!(canonical(cell), canonical(&one), "{}", m.name);
            }
        }
        // `inv` is defined twice: both positions get the first body.
        let all = src.elaborate_cells(&VerilogOptions::default()).unwrap();
        assert_eq!(canonical(&all[4]), canonical(&all[6]));
        assert!(all[6].find_device("g").is_some());
        assert_eq!(all[6].device_types()[0].name(), "$not");
        // The first failing module's error comes first.
        let bad = parse(
            "module ok(input a);\nnot g(a, a);\nendmodule\n\
             module bad(input a);\nnosuch u(a);\nendmodule\n\
             module worse(input a);\nworse u(a);\nendmodule\n",
        )
        .unwrap();
        assert_eq!(
            bad.elaborate_cells(&VerilogOptions::default()).unwrap_err(),
            VerilogError::UnknownModule {
                name: "nosuch".into()
            }
        );
    }
}
