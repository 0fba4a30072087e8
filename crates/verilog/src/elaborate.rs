//! Elaboration: turning parsed Verilog into [`Netlist`]s.
//!
//! A source elaborates through the one flattener in `subgemini-netlist`
//! ([`flatten_cell`], [`flatten_cells`]); this module supplies what is
//! Verilog's own: a name resolves to its first module, each module's
//! supplies are its global nets, how each instance is added, and a
//! finished module drops the wires and ports nothing connects.

use std::collections::{HashMap, HashSet};

use subgemini_netlist::{
    flatten_cell, flatten_cells, Builder, DeviceType, ElaborateOptions, FlattenError, FrontEnd,
    Netlist, TerminalSpec,
};

use crate::ast::{is_primitive, Conns, Instance, Module, Source};
use crate::error::VerilogError;

/// Net names global in every module, without a supply declaration.
const IMPLICIT_GLOBALS: [&str; 4] = ["vdd", "vss", "gnd", "vcc"];

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

/// What decides an instance's device type: equal keys mean equal types.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TypeKey<'d> {
    /// A gate primitive and its input count.
    Gate(&'d str, usize),
    /// A composite device: the module's index.
    Module(usize),
}

/// A source as the flattener sees it.
struct Verilog<'d> {
    src: &'d Source,
}

type Started<'d> = Builder<TypeKey<'d>, HashSet<&'d str>>;

impl<'d> FrontEnd<'d> for Verilog<'d> {
    type Item = Instance;
    type Key = TypeKey<'d>;
    type Globals = HashSet<&'d str>;
    type Error = VerilogError;
    const LAST_DEFINITION_WINS: bool = false;

    fn cell_count(&self) -> usize {
        self.src.modules.len()
    }

    fn cell_name(&self, cell: usize) -> &'d str {
        &self.src.modules[cell].name
    }

    fn body(&self, cell: usize) -> &'d [Instance] {
        &self.src.modules[cell].instances
    }

    fn target(&self, inst: &'d Instance) -> Option<&'d str> {
        (!is_primitive(&inst.module)).then_some(inst.module.as_str())
    }

    fn check(&self, inst: &'d Instance, cell: Option<usize>) -> Result<(), VerilogError> {
        match cell {
            Some(cell) => port_order(inst, &self.src.modules[cell]).map(drop),
            None => Ok(()),
        }
    }

    /// Module `cell`'s netlist as it starts: its ports, wires and
    /// supplies declared.
    fn start(&self, cell: usize) -> Started<'d> {
        let m = &self.src.modules[cell];
        let supplies = m.supply0.iter().chain(&m.supply1).map(String::as_str);
        let globals = supplies.clone().chain(IMPLICIT_GLOBALS).collect();
        let mut out = Builder::new(Netlist::new(m.name.clone()), globals);
        for p in &m.ports {
            out.port(p);
        }
        for w in m.wires.iter().map(String::as_str).chain(supplies) {
            out.net(w);
        }
        out
    }

    fn add(
        &self,
        out: &mut Started<'d>,
        inst: &'d Instance,
        cell: Option<usize>,
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
            let unary = matches!(inst.module.as_str(), "not" | "buf");
            let min = if unary { 2 } else { 3 };
            if nets.len() < min || (unary && nets.len() != 2) {
                return Err(VerilogError::PortCountMismatch {
                    instance: inst.name.clone(),
                    expected: min,
                    got: nets.len(),
                });
            }
            let inputs = nets.len() - 1;
            let ty = out.ty(TypeKey::Gate(&inst.module, inputs), || {
                primitive_type(&inst.module, inputs)
            })?;
            out.device(&inst.name, ty, nets.iter().map(String::as_str))?;
            return Ok(());
        }
        let Some(cell) = cell else {
            // Unknown module: with *named* connections we can still
            // synthesize a composite device type from the port names —
            // this lets a single gate-level module (as written by
            // [`write_module`](crate::write_module)) stand alone
            // without leaf definitions. The type follows this
            // instance's connection order, so it is registered every
            // time: two orders conflict.
            let Conns::Named(pairs) = &inst.conns else {
                return Err(VerilogError::UnknownModule {
                    name: inst.module.clone(),
                });
            };
            let terms = pairs
                .iter()
                .map(|(p, _)| TerminalSpec::new(p.clone(), p.clone()))
                .collect();
            let ty = DeviceType::try_new(inst.module.clone(), terms).map_err(|detail| {
                VerilogError::Parse {
                    line: inst.line,
                    detail,
                }
            })?;
            let ty = out.add_type(ty)?;
            out.device(&inst.name, ty, pairs.iter().map(|(_, n)| n.as_str()))?;
            return Ok(());
        };
        // Not flattening: a composite device of the module.
        let def = &self.src.modules[cell];
        let ordered = port_order(inst, def)?;
        let ty = out.try_ty(TypeKey::Module(cell), || {
            let terms = def
                .ports
                .iter()
                .map(|p| TerminalSpec::new(p.clone(), p.clone()))
                .collect();
            DeviceType::try_new(def.name.clone(), terms).map_err(|detail| VerilogError::Parse {
                line: inst.line,
                detail,
            })
        })?;
        out.device(&inst.name, ty, ordered)?;
        Ok(())
    }

    /// `finish` drops a port nothing inside the module connects, so an
    /// instance binds only the ports `child` kept; its connection to a
    /// dropped one attaches nothing.
    fn bind(
        &self,
        out: &mut Started<'d>,
        inst: &'d Instance,
        cell: usize,
        child: &Netlist,
    ) -> Result<&'d str, VerilogError> {
        let def = &self.src.modules[cell];
        let nets = def.ports.iter().zip(port_order(inst, def)?);
        out.bind(
            nets.filter(|(p, _)| child.find_net(p).is_some())
                .map(|(_, n)| n),
        );
        Ok(&inst.name)
    }

    /// Wires may be declared but unused; match the SPICE pipeline's
    /// normalization and drop them.
    fn finish(&self, nl: Netlist) -> Netlist {
        nl.compact()
    }
}

impl From<FlattenError> for VerilogError {
    fn from(e: FlattenError) -> Self {
        match e {
            FlattenError::Recursive { name } => VerilogError::RecursiveModule { name },
            FlattenError::Devices { name, devices } => {
                VerilogError::ExpansionLimit { name, devices }
            }
            FlattenError::Names { name, bytes } => VerilogError::NameLimit { name, bytes },
        }
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
    /// use subgemini_verilog::{parse, ElaborateOptions};
    ///
    /// let src = parse(
    ///     "module top(input a, output y);\n\
    ///        wire w;\n\
    ///        nand g1(w, a, a);\n\
    ///        not g2(y, w);\n\
    ///      endmodule\n",
    /// )?;
    /// let nl = src.elaborate(None, &ElaborateOptions::default())?;
    /// assert_eq!(nl.device_count(), 2);
    /// # Ok::<(), subgemini_verilog::VerilogError>(())
    /// ```
    pub fn elaborate(
        &self,
        name: Option<&str>,
        opts: &ElaborateOptions,
    ) -> Result<Netlist, VerilogError> {
        let module = match name {
            Some(n) => self.module(n).ok_or_else(|| VerilogError::UnknownTop {
                name: n.to_string(),
            })?,
            None => self.infer_top().ok_or_else(|| VerilogError::UnknownTop {
                name: "<inferred top>".to_string(),
            })?,
        };
        // The first definition of its name, as every name resolves.
        let cell = self
            .modules
            .iter()
            .position(|m| m.name == module.name)
            .expect("found above");
        flatten_cell(&Verilog { src: self }, opts, cell)
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
    /// use subgemini_verilog::{parse, ElaborateOptions};
    ///
    /// let src = parse(
    ///     "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
    ///      module buf2(input a, output y);\nwire m;\ninv u1(a, m);\ninv u2(m, y);\nendmodule\n",
    /// )?;
    /// let cells = src.elaborate_cells(&ElaborateOptions::default())?;
    /// let sizes: Vec<usize> = cells.iter().map(|c| c.device_count()).collect();
    /// assert_eq!(sizes, [1, 2]);
    /// # Ok::<(), subgemini_verilog::VerilogError>(())
    /// ```
    pub fn elaborate_cells(&self, opts: &ElaborateOptions) -> Result<Vec<Netlist>, VerilogError> {
        flatten_cells(&Verilog { src: self }, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use subgemini_netlist::{MAX_INSTANTIATED_DEVICES, MAX_INSTANTIATED_NAME_BYTES};

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
        let nl = src.elaborate(None, &ElaborateOptions::default()).unwrap();
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
            .elaborate(Some("top"), &ElaborateOptions::hierarchical())
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
            .elaborate(Some("top"), &ElaborateOptions::default())
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
            .elaborate(Some("top"), &ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, VerilogError::PortCountMismatch { .. }));
    }

    #[test]
    fn a_port_nothing_connects_binds_nothing_when_flattened() {
        let src = parse(
            "module inv(input a, input unused, output y);\nnot g(y, a);\nendmodule\n\
             module top(input x, output z);\ninv u(x, x, z);\nendmodule\n",
        )
        .unwrap();
        let top = src
            .elaborate(Some("top"), &ElaborateOptions::default())
            .unwrap();
        assert_eq!((top.device_count(), top.net_count()), (1, 2));
        let g = top.device(top.find_device("u.g").unwrap());
        let nets: Vec<&str> = g.pins().iter().map(|&n| top.net_ref(n).name()).collect();
        assert_eq!(nets, ["z", "x"]);
        top.validate().unwrap();
        // Handed out alone, the module keeps only the ports it connects,
        // so it still works as a pattern; the library pass agrees.
        let inv = src
            .elaborate(Some("inv"), &ElaborateOptions::default())
            .unwrap();
        assert_eq!(inv.ports().len(), 2);
        let cells = src.elaborate_cells(&ElaborateOptions::default()).unwrap();
        assert_eq!(cells[0].ports().len(), 2);
        assert_eq!(cells[1].device_count(), 1);
    }

    #[test]
    fn recursion_detected() {
        let src = parse(
            "module a(input x);\nb u(x);\nendmodule\nmodule b(input x);\na u(x);\nendmodule\n\
             module top(input x);\na u(x);\nendmodule\n",
        )
        .unwrap();
        let err = src
            .elaborate(Some("top"), &ElaborateOptions::default())
            .unwrap_err();
        assert_eq!(err, VerilogError::RecursiveModule { name: "a".into() });
        // A module instantiating itself.
        let src = parse("module a(input x);\na u(x);\nendmodule\n").unwrap();
        let err = src.elaborate(Some("a"), &ElaborateOptions::default());
        assert_eq!(
            err.unwrap_err(),
            VerilogError::RecursiveModule { name: "a".into() }
        );
        let err = src.elaborate_cells(&ElaborateOptions::default());
        assert_eq!(
            err.unwrap_err(),
            VerilogError::RecursiveModule { name: "a".into() }
        );
    }

    #[test]
    fn supplies_become_globals() {
        let src = parse(SRC).unwrap();
        let inv = src
            .elaborate(Some("inv"), &ElaborateOptions::default())
            .unwrap();
        // not-gate doesn't touch the rails, so compact() drops them; but
        // an instance netlist that *uses* them keeps the global flag.
        assert!(inv.find_net("vdd").is_none());
        let src2 =
            parse("module m(input a, output y);\nsupply0 gnd;\nnand g(y, a, gnd);\nendmodule\n")
                .unwrap();
        let m = src2.elaborate(None, &ElaborateOptions::default()).unwrap();
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
            .spawn(move || src.elaborate(None, &ElaborateOptions::default()))
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
        let err = src
            .elaborate(None, &ElaborateOptions::default())
            .unwrap_err();
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
        let lib = src.elaborate_cells(&ElaborateOptions::default());
        assert_eq!(lib.unwrap_err(), err);
        // Hierarchical elaboration never flattens, so it is unaffected.
        let hier = src
            .elaborate(None, &ElaborateOptions::hierarchical())
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
        let err = src
            .elaborate(None, &ElaborateOptions::default())
            .unwrap_err();
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
        let lib = src
            .elaborate_cells(&ElaborateOptions::default())
            .unwrap_err();
        assert_eq!(lib, err);
        // Hierarchical elaboration mints no names.
        let hier = src
            .elaborate(None, &ElaborateOptions::hierarchical())
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
        for opts in [
            ElaborateOptions::default(),
            ElaborateOptions::hierarchical(),
        ] {
            let all = src.elaborate_cells(&opts).unwrap();
            assert_eq!(all.len(), src.modules.len());
            for (cell, m) in all.iter().zip(&src.modules) {
                let one = src.elaborate(Some(&m.name), &opts).unwrap();
                assert_eq!(canonical(cell), canonical(&one), "{}", m.name);
            }
        }
        // `inv` is defined twice: both positions get the first body.
        let all = src.elaborate_cells(&ElaborateOptions::default()).unwrap();
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
            bad.elaborate_cells(&ElaborateOptions::default())
                .unwrap_err(),
            VerilogError::UnknownModule {
                name: "nosuch".into()
            }
        );
    }
}
