//! The elaborator's recent-net cache (`Builder::net`) against netlists
//! built directly with `Netlist::net` and `add_device`.
//!
//! The cache is direct-mapped on a name's length and last eight bytes,
//! so every name below shares one slot with all the others: each lookup
//! evicts the previous name, and a wrong hit would bind a pin to the
//! wrong net or skip a global check. SPICE decks and Verilog designs
//! interleave and revisit such names, as top-level cards, through
//! flattened instances and as globals, and must elaborate to the same
//! rendering as the same netlist built without the cache.

use std::collections::HashSet;

use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{instantiate, DeviceType, NetId, Netlist};
use subgemini_spice::ElaborateOptions;
use subgemini_verilog::primitive_type;

/// `count` distinct names of one length sharing their last eight bytes.
fn colliding(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("w{i:03}_same_tail")).collect()
}

/// One line per type, device and net, in netlist order, and the ports.
fn render(nl: &Netlist) -> String {
    let mut out = format!("netlist {}\n", nl.name());
    for ty in nl.device_types() {
        out.push_str(&format!("type {}\n", ty.name()));
    }
    for d in nl.device_ids() {
        let dev = nl.device(d);
        out.push_str(&format!("dev {} {}", dev.name(), dev.type_id()));
        for &n in dev.pins() {
            out.push(' ');
            out.push_str(nl.net_ref(n).name());
        }
        out.push('\n');
    }
    for n in nl.net_ids() {
        let net = nl.net_ref(n);
        out.push_str(&format!(
            "net {} global={} port={}\n",
            net.name(),
            net.is_global(),
            net.is_port()
        ));
    }
    let ports: Vec<&str> = nl.ports().iter().map(|&p| nl.net_ref(p).name()).collect();
    out.push_str(&format!("ports {}\n", ports.join(" ")));
    out
}

/// A netlist built without any cache: `Netlist::net`, with the net
/// marked global whenever its name is.
struct Direct<'g> {
    nl: Netlist,
    globals: &'g HashSet<String>,
}

impl Direct<'_> {
    fn net(&mut self, name: &str) -> NetId {
        let id = self.nl.net(name);
        if self.globals.contains(name) {
            self.nl.mark_global(id);
        }
        id
    }

    fn device(&mut self, name: &str, ty: DeviceType, nets: &[&str]) {
        let ty = self.nl.add_type(ty).unwrap();
        let pins: Vec<NetId> = nets.iter().map(|n| self.net(n)).collect();
        self.nl.add_device(name, ty, &pins).unwrap();
    }
}

/// Picks nets so that names come back within a few cards and after
/// many others have passed through the slot.
fn pick<'n>(rng: &mut Rng64, names: &'n [String], recent: &mut Vec<&'n str>) -> &'n str {
    let name = if !recent.is_empty() && rng.ratio(1, 2) {
        recent[rng.index(recent.len())]
    } else {
        &names[rng.index(names.len())]
    };
    recent.push(name);
    if recent.len() > 4 {
        recent.remove(0);
    }
    name
}

#[test]
fn spice_decks_with_colliding_nets_elaborate_as_built_directly() {
    let names = colliding(48);
    for case in 0..16u64 {
        let mut rng = Rng64::new(0x05ca_c4e0 + case);
        let global = &names[rng.index(names.len())];
        let globals: HashSet<String> = ["vdd", "vss", "gnd", "vcc", "0", global.as_str()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // A cell whose ports and internal net collide with each other
        // and with the top level's nets.
        let (a, b, mid) = (&names[0], &names[1], &names[2]);
        let mut deck = format!(".global {global}\n.subckt cell {a} {b}\n");
        deck.push_str(&format!("mp {mid} {a} vdd vdd pmos\n"));
        deck.push_str(&format!("mn {b} {mid} {a} gnd nmos\n.ends\n"));
        let mut cell = Direct {
            nl: Netlist::new("cell"),
            globals: &globals,
        };
        for port in [a, b] {
            let id = cell.net(port);
            cell.nl.mark_port(id);
        }
        cell.device("mp", DeviceType::mos("pmos"), &[a, "vdd", mid]);
        cell.device("mn", DeviceType::mos("nmos"), &[mid, a, b]);
        let mut top = Direct {
            nl: Netlist::new("top"),
            globals: &globals,
        };
        let mut recent = Vec::new();
        for i in 0..300 {
            let [d, g, s] = [(); 3].map(|_| pick(&mut rng, &names, &mut recent));
            if rng.ratio(1, 5) {
                deck.push_str(&format!("x{i} {d} {g} cell\n"));
                let pins = [d, g].map(|n| top.net(n));
                instantiate(&mut top.nl, &cell.nl, &format!("x{i}"), &pins).unwrap();
            } else {
                let model = if rng.ratio(1, 2) { "pmos" } else { "nmos" };
                deck.push_str(&format!("m{i} {d} {g} {s} {model}\n"));
                top.device(&format!("m{i}"), DeviceType::mos(model), &[g, s, d]);
            }
        }
        let doc = subgemini_spice::parse(&deck).unwrap();
        let got = doc
            .elaborate_top("top", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(render(&got), render(&top.nl), "case {case}\n{deck}");
        let got = doc
            .elaborate_cell("cell", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(render(&got), render(&cell.nl), "case {case}");
    }
}

#[test]
fn verilog_designs_with_colliding_nets_elaborate_as_built_directly() {
    let names = colliding(48);
    for case in 0..16u64 {
        let mut rng = Rng64::new(0x7eca_c4e0 + case);
        let supply = &names[rng.index(names.len())];
        let globals: HashSet<String> = ["vdd", "vss", "gnd", "vcc", supply.as_str()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (a, y, mid) = (&names[3], &names[4], &names[5]);
        let mut src = format!(
            "module cell(input {a}, output {y});\nwire {mid};\n\
             not g1({mid}, {a});\nnot g2({y}, {mid});\nendmodule\n"
        );
        let mut cell = Direct {
            nl: Netlist::new("cell"),
            globals: &globals,
        };
        for port in [a, y] {
            let id = cell.net(port);
            cell.nl.mark_port(id);
        }
        cell.net(mid);
        cell.device("g1", primitive_type("not", 1), &[mid, a]);
        cell.device("g2", primitive_type("not", 1), &[y, mid]);
        let cell_nl = cell.nl.compact();
        let (p, q) = (&names[6], &names[7]);
        src.push_str(&format!("module top(input {p}, output {q});\n"));
        let mut top = Direct {
            nl: Netlist::new("top"),
            globals: &globals,
        };
        for port in [p, q] {
            let id = top.net(port);
            top.nl.mark_port(id);
        }
        let wires: Vec<&String> = names.iter().filter(|n| ![p, q].contains(n)).collect();
        let declared: Vec<&str> = wires.iter().map(|w| w.as_str()).collect();
        src.push_str(&format!(
            "wire {};\nsupply0 {supply};\n",
            declared.join(", ")
        ));
        for w in declared.iter().chain([&supply.as_str()]) {
            top.net(w);
        }
        let mut recent = Vec::new();
        for i in 0..300 {
            let [o, i1, i2] = [(); 3].map(|_| pick(&mut rng, &names, &mut recent));
            if rng.ratio(1, 5) {
                src.push_str(&format!("cell u{i}({i1}, {o});\n"));
                let pins = [i1, o].map(|n| top.net(n));
                instantiate(&mut top.nl, &cell_nl, &format!("u{i}"), &pins).unwrap();
            } else {
                src.push_str(&format!("nand n{i}({o}, {i1}, {i2});\n"));
                top.device(&format!("n{i}"), primitive_type("nand", 2), &[o, i1, i2]);
            }
        }
        src.push_str("endmodule\n");
        let design = subgemini_verilog::parse(&src).unwrap();
        let got = design
            .elaborate(Some("top"), &ElaborateOptions::default())
            .unwrap();
        assert_eq!(
            render(&got),
            render(&top.nl.compact()),
            "case {case}\n{src}"
        );
    }
}
