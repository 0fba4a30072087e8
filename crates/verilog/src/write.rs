//! Writing netlists back out as structural Verilog.

use std::fmt::Write as _;

use subgemini_netlist::Netlist;

/// Renders `netlist` as one Verilog module.
///
/// * Ports come from the netlist's port list (direction is not tracked
///   by the graph model, so they are emitted as `inout`).
/// * Global nets become `supply0`/`supply1` declarations (`vdd`/`vcc`
///   names go to `supply1`, everything else to `supply0`).
/// * Devices whose type name starts with `$` are emitted as gate
///   primitives with positional pins; all other devices become named
///   module instances with `.port(net)` connections.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::Netlist;
/// use subgemini_verilog::{parse, write_module, ElaborateOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = parse(
///     "module top(input a, output y);\nwire w;\nnand g1(w, a, a);\nnot g2(y, w);\nendmodule\n",
/// )?;
/// let nl = src.elaborate(None, &ElaborateOptions::default())?;
/// let text = write_module(&nl);
/// let back = parse(&text)?.elaborate(None, &ElaborateOptions::default())?;
/// assert_eq!(back.device_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn write_module(netlist: &Netlist) -> String {
    let mut out = String::new();
    let ports: Vec<&str> = netlist
        .ports()
        .iter()
        .map(|&p| netlist.net_ref(p).name())
        .collect();
    let _ = writeln!(out, "module {}({});", netlist.name(), ports.join(", "));
    if !ports.is_empty() {
        let _ = writeln!(out, "  inout {};", ports.join(", "));
    }
    let mut supply1: Vec<&str> = Vec::new();
    let mut supply0: Vec<&str> = Vec::new();
    let mut wires: Vec<&str> = Vec::new();
    for n in netlist.net_ids() {
        let net = netlist.net_ref(n);
        if net.is_port() {
            continue;
        }
        if net.is_global() {
            if net.name().starts_with("vdd") || net.name().starts_with("vcc") {
                supply1.push(net.name());
            } else {
                supply0.push(net.name());
            }
        } else {
            wires.push(net.name());
        }
    }
    if !supply1.is_empty() {
        let _ = writeln!(out, "  supply1 {};", supply1.join(", "));
    }
    if !supply0.is_empty() {
        let _ = writeln!(out, "  supply0 {};", supply0.join(", "));
    }
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }
    for d in netlist.device_ids() {
        let dev = netlist.device(d);
        let ty = netlist.device_type_of(d);
        let net = |i: usize| netlist.net_ref(dev.pin(i)).name();
        if let Some(prim) = ty.name().strip_prefix('$') {
            let gate = prim.trim_end_matches(|c: char| c.is_ascii_digit());
            let pins: Vec<&str> = (0..ty.terminal_count()).map(net).collect();
            let _ = writeln!(
                out,
                "  {gate} {}({});",
                sanitize(dev.name()),
                pins.join(", ")
            );
        } else {
            let conns: Vec<String> = (0..ty.terminal_count())
                .map(|i| format!(".{}({})", ty.terminal(i).name(), net(i)))
                .collect();
            let _ = writeln!(
                out,
                "  {} {}({});",
                ty.name(),
                sanitize(dev.name()),
                conns.join(", ")
            );
        }
    }
    out.push_str("endmodule\n");
    out
}

/// Renders a hierarchical design: cell modules first, then the top.
pub fn write_design(top: &Netlist, cells: &[Netlist]) -> String {
    let mut out = String::new();
    for cell in cells {
        out.push_str(&write_module(cell));
        out.push('\n');
    }
    out.push_str(&write_module(top));
    out
}

/// Verilog identifiers cannot contain `.` or `#`; instance names coming
/// from flattening (`u1.mp`) or extraction (`inv#3`) are mapped to `_`.
fn sanitize(name: &str) -> String {
    name.replace(['.', '#'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::ElaborateOptions;

    #[test]
    fn roundtrip_preserves_structure() {
        let src = parse(
            "module top(input a, b, output y);\nwire w;\nsupply0 gnd;\n\
             nand g1(w, a, b);\nxor g2(y, w, gnd);\nendmodule\n",
        )
        .unwrap();
        let nl = src.elaborate(None, &ElaborateOptions::default()).unwrap();
        let text = write_module(&nl);
        let back = parse(&text)
            .unwrap()
            .elaborate(None, &ElaborateOptions::default())
            .unwrap();
        assert_eq!(nl.device_count(), back.device_count());
        assert_eq!(nl.net_count(), back.net_count());
        let s1 = subgemini_netlist::NetlistStats::of(&nl);
        let s2 = subgemini_netlist::NetlistStats::of(&back);
        assert_eq!(s1.devices_by_type, s2.devices_by_type);
        assert_eq!(s1.globals, s2.globals);
    }

    #[test]
    fn composite_devices_become_instances() {
        let src = parse(
            "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
             module top(input x, output z);\ninv u1(.a(x), .y(z));\nendmodule\n",
        )
        .unwrap();
        let hier = src
            .elaborate(Some("top"), &ElaborateOptions::hierarchical())
            .unwrap();
        let text = write_module(&hier);
        assert!(text.contains("inv u1(.a(x), .y(z));"), "{text}");
    }

    #[test]
    fn design_writer_emits_cells_then_top() {
        let src = parse(
            "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
             module top(input x, output z);\ninv u1(x, z);\nendmodule\n",
        )
        .unwrap();
        let inv = src
            .elaborate(Some("inv"), &ElaborateOptions::default())
            .unwrap();
        let top = src
            .elaborate(Some("top"), &ElaborateOptions::hierarchical())
            .unwrap();
        let design = write_design(&top, &[inv]);
        let back = parse(&design).unwrap();
        assert_eq!(back.modules.len(), 2);
        let flat = back
            .elaborate(Some("top"), &ElaborateOptions::default())
            .unwrap();
        assert_eq!(flat.device_count(), 1);
    }

    #[test]
    fn sanitize_dots_and_hashes() {
        assert_eq!(sanitize("u1.mp"), "u1_mp");
        assert_eq!(sanitize("inv#3"), "inv_3");
    }
}
