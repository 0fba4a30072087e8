//! Writing a [`Netlist`] back out as SPICE text.

use std::fmt::Write as _;

use subgemini_netlist::{DeviceId, Netlist};

/// Renders `netlist` as a SPICE deck.
///
/// * Global nets become a `.global` line.
/// * If the netlist has ports it is wrapped in `.subckt <name> <ports…>`
///   / `.ends`; otherwise devices are emitted at top level.
/// * Primitive types map back to their element cards (`nmos`/`pmos` →
///   `M`, `res` → `R`, `cap` → `C`, `ind` → `L`, `diode[:model]` → `D`,
///   `npn`/`pnp` → `Q`); any other type is emitted as an `X` instance of
///   a same-named subcircuit (whose definition must be provided
///   elsewhere for the deck to re-elaborate).
/// * Device names are prefixed with the element letter when they do not
///   already start with it, so the output always re-parses; structural
///   identity is preserved, instance names may gain a prefix.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("inv");
/// let mos = nl.add_mos_types();
/// let (a, y, vdd, gnd) = (nl.net("a"), nl.net("y"), nl.net("vdd"), nl.net("gnd"));
/// nl.mark_port(a);
/// nl.mark_port(y);
/// nl.mark_global(vdd);
/// nl.mark_global(gnd);
/// nl.add_device("mp", mos.pmos, &[a, vdd, y])?;
/// nl.add_device("mn", mos.nmos, &[a, gnd, y])?;
/// let text = subgemini_spice::write_netlist(&nl);
/// assert!(text.contains(".subckt inv a y"));
/// let doc = subgemini_spice::parse(&text)?;
/// let back = doc.elaborate_cell("inv", &Default::default())?;
/// assert_eq!(back.device_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn write_netlist(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* {} — written by subgemini-spice", netlist.name());
    let globals: Vec<&str> = netlist
        .global_nets()
        .map(|n| netlist.net_ref(n).name())
        .collect();
    if !globals.is_empty() {
        let _ = writeln!(out, ".global {}", globals.join(" "));
    }
    let has_ports = !netlist.ports().is_empty();
    if has_ports {
        let ports: Vec<&str> = netlist
            .ports()
            .iter()
            .map(|&n| netlist.net_ref(n).name())
            .collect();
        let _ = writeln!(out, ".subckt {} {}", netlist.name(), ports.join(" "));
    }
    for d in netlist.device_ids() {
        let _ = writeln!(out, "{}", device_card(netlist, d));
    }
    if has_ports {
        let _ = writeln!(out, ".ends");
    }
    out
}

/// Renders a hierarchical deck: one `.subckt` definition per cell
/// followed by the top-level netlist (whose composite devices become
/// `X` instances of those subcircuits).
///
/// This is the output format of the paper's hierarchy-construction
/// application: a flat transistor netlist goes in, extraction finds the
/// cells, and this writer emits the recovered hierarchy. Re-parsing and
/// flattening the result yields a netlist isomorphic to the original.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut inv = Netlist::new("inv");
/// let mos = inv.add_mos_types();
/// let (a, y, gnd) = (inv.net("a"), inv.net("y"), inv.net("gnd"));
/// inv.mark_port(a);
/// inv.mark_port(y);
/// inv.mark_global(gnd);
/// inv.add_device("mn", mos.nmos, &[a, gnd, y])?;
/// let top = Netlist::new("chip");
/// let deck = subgemini_spice::write_hierarchical(&top, &[inv]);
/// assert!(deck.contains(".subckt inv a y"));
/// # Ok(())
/// # }
/// ```
pub fn write_hierarchical(top: &Netlist, cells: &[Netlist]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "* {} — hierarchical deck written by subgemini-spice",
        top.name()
    );
    let mut globals: Vec<&str> = top.global_nets().map(|n| top.net_ref(n).name()).collect();
    for cell in cells {
        for n in cell.global_nets() {
            let name = cell.net_ref(n).name();
            if !globals.contains(&name) {
                globals.push(name);
            }
        }
    }
    if !globals.is_empty() {
        let _ = writeln!(out, ".global {}", globals.join(" "));
    }
    for cell in cells {
        let body = write_netlist(cell);
        // Strip the cell's own banner/global lines; keep from .subckt on.
        if let Some(pos) = body.find(".subckt") {
            out.push_str(&body[pos..]);
        } else {
            // A cell without ports cannot be instantiated; emit it as a
            // comment so the deck stays parseable.
            let _ = writeln!(out, "* cell `{}` has no ports; skipped", cell.name());
        }
    }
    for d in top.device_ids() {
        let _ = writeln!(out, "{}", device_card(top, d));
    }
    out
}

fn prefixed(letter: char, name: &str) -> String {
    if name.starts_with(letter) {
        name.to_string()
    } else {
        format!("{letter}{name}")
    }
}

fn device_card(netlist: &Netlist, d: DeviceId) -> String {
    let dev = netlist.device(d);
    let ty = netlist.device_type_of(d);
    let net = |i: usize| netlist.net_ref(dev.pin(i)).name();
    match ty.name() {
        "nmos" | "pmos" => {
            // Terminal order in the model is (g, s, d); SPICE M cards are
            // `M d g s [b] model`.
            format!(
                "{} {} {} {} {}",
                prefixed('m', dev.name()),
                net(2),
                net(0),
                net(1),
                ty.name()
            )
        }
        "res" => format!("{} {} {} 1", prefixed('r', dev.name()), net(0), net(1)),
        "cap" => format!("{} {} {} 1", prefixed('c', dev.name()), net(0), net(1)),
        "ind" => format!("{} {} {} 1", prefixed('l', dev.name()), net(0), net(1)),
        "npn" | "pnp" => format!(
            "{} {} {} {} {}",
            prefixed('q', dev.name()),
            net(0),
            net(1),
            net(2),
            ty.name()
        ),
        other if other == "diode" || other.starts_with("diode:") => {
            let model = other.strip_prefix("diode:").unwrap_or("");
            format!(
                "{} {} {} {model}",
                prefixed('d', dev.name()),
                net(0),
                net(1)
            )
            .trim_end()
            .to_string()
        }
        composite => {
            let nets: Vec<&str> = (0..ty.terminal_count()).map(net).collect();
            format!(
                "{} {} {composite}",
                prefixed('x', dev.name()),
                nets.join(" ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::ElaborateOptions;
    use subgemini_netlist::{DeviceType, NetlistStats, TerminalSpec};

    fn mixed_netlist() -> Netlist {
        let mut nl = Netlist::new("mixed");
        let mos = nl.add_mos_types();
        let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
        let dio = nl.add_type(DeviceType::polarized("diode:dx")).unwrap();
        let q = nl.add_type(DeviceType::bjt("npn")).unwrap();
        let (a, b, c, vdd) = (nl.net("a"), nl.net("b"), nl.net("c"), nl.net("vdd"));
        nl.mark_global(vdd);
        nl.add_device("mp1", mos.pmos, &[a, vdd, b]).unwrap();
        nl.add_device("n1", mos.nmos, &[a, c, b]).unwrap();
        nl.add_device("r1", res, &[b, c]).unwrap();
        nl.add_device("d1", dio, &[a, c]).unwrap();
        nl.add_device("q1", q, &[a, b, c]).unwrap();
        nl
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let nl = mixed_netlist();
        let text = write_netlist(&nl);
        let doc = parse(&text).unwrap();
        let back = doc
            .elaborate_top("mixed", &ElaborateOptions::default())
            .unwrap();
        let s1 = NetlistStats::of(&nl);
        let s2 = NetlistStats::of(&back);
        assert_eq!(s1.devices, s2.devices);
        assert_eq!(s1.pins, s2.pins);
        assert_eq!(s1.devices_by_type, s2.devices_by_type);
        assert_eq!(s1.globals, s2.globals);
    }

    #[test]
    fn names_get_element_prefixes_only_when_needed() {
        let nl = mixed_netlist();
        let text = write_netlist(&nl);
        assert!(text.contains("mp1 ")); // already prefixed
        assert!(text.contains("mn1 ")); // gained the m prefix
        assert!(text.contains("\nr1 "));
    }

    #[test]
    fn ports_produce_subckt_wrapper() {
        let mut nl = mixed_netlist();
        let a = nl.find_net("a").unwrap();
        nl.mark_port(a);
        let text = write_netlist(&nl);
        assert!(text.contains(".subckt mixed a"));
        assert!(text.trim_end().ends_with(".ends"));
        let doc = parse(&text).unwrap();
        let cell = doc
            .elaborate_cell("mixed", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(cell.ports().len(), 1);
    }

    #[test]
    fn composite_devices_emit_x_cards() {
        let mut nl = Netlist::new("top");
        let cellty = nl
            .add_type(DeviceType::new(
                "nand2",
                vec![
                    TerminalSpec::new("a", "in"),
                    TerminalSpec::new("b", "in"),
                    TerminalSpec::new("y", "y"),
                ],
            ))
            .unwrap();
        let (p, q, r) = (nl.net("p"), nl.net("q"), nl.net("r"));
        nl.add_device("g1", cellty, &[p, q, r]).unwrap();
        let text = write_netlist(&nl);
        assert!(text.contains("xg1 p q r nand2"));
    }
}
