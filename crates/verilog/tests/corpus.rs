//! The Verilog front end's output, pinned. A seeded corpus of sources
//! written by `write_module`/`write_design` from generated netlists,
//! then perturbed with the syntax and structure the parser accepts,
//! must keep elaborating to exactly the netlists pinned below (device
//! and net order, names, pins, types, global and port flags), flat and
//! hierarchical, module by module and as one library; a set of
//! malformed sources must keep their error text. The constants were
//! computed with the module-by-module elaborator that the shared
//! flattener replaced.

use subgemini_netlist::hashing::fnv1a;
use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{DeviceType, NetId, Netlist, TerminalSpec};
use subgemini_verilog::{
    parse, primitive_type, write_design, write_module, Conns, Dir, ElaborateOptions, Instance,
    Module, Source, VerilogError,
};
use subgemini_workloads::gen;

/// Appends one canonical line per type, device and net, in netlist
/// order.
fn render(nl: &Netlist, out: &mut String) {
    out.push_str(&format!("netlist {}\n", nl.name()));
    for ty in nl.device_types() {
        out.push_str(&format!("type {}", ty.name()));
        for t in ty.terminals() {
            out.push_str(&format!(" {}:{}", t.name(), t.class()));
        }
        out.push('\n');
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
}

fn render_result(r: &Result<Netlist, VerilogError>, out: &mut String) {
    match r {
        Ok(nl) => render(nl, out),
        Err(e) => out.push_str(&format!("error {e}\n")),
    }
}

/// Everything the front end makes of one source: the inferred and the
/// named top, every module alone and the whole library, flat and
/// hierarchical.
fn digest(src: &Source) -> u64 {
    let mut out = String::new();
    for m in &src.modules {
        out.push_str(&format!(
            "module {} {:?} {} instances\n",
            m.name,
            m.ports,
            m.instances.len()
        ));
    }
    for opts in [
        ElaborateOptions::default(),
        ElaborateOptions::hierarchical(),
    ] {
        render_result(&src.elaborate(None, &opts), &mut out);
        render_result(&src.elaborate(Some("top"), &opts), &mut out);
        let modules: Vec<_> = src
            .modules
            .iter()
            .map(|m| src.elaborate(Some(&m.name), &opts))
            .collect();
        let library = src.elaborate_cells(&opts);
        // The one-memo library path agrees with module-by-module, down
        // to which error comes first.
        let first_err = modules.iter().find_map(|m| m.as_ref().err());
        match (&library, first_err) {
            (Ok(all), None) => {
                assert_eq!(all.len(), modules.len());
                for (one, each) in all.iter().zip(&modules) {
                    let (mut a, mut b) = (String::new(), String::new());
                    render(one, &mut a);
                    render_result(each, &mut b);
                    assert_eq!(a, b, "elaborate_cells vs elaborate");
                }
                all.iter().for_each(|nl| render(nl, &mut out));
            }
            (Err(e), Some(first)) => {
                assert_eq!(e, first);
                out.push_str(&format!("library error {e}\n"));
            }
            (got, want) => panic!(
                "elaborate_cells {:?} vs first error {want:?}",
                got.as_ref().err()
            ),
        }
        for m in &modules {
            render_result(m, &mut out);
        }
    }
    fnv1a(&out)
}

/// `nl` with every name a Verilog identifier: `.` and `#` become `_`,
/// and a name that does not start with a letter gets an `n_` prefix.
fn verilog_names(nl: &Netlist, name: &str) -> Netlist {
    let ident = |s: &str| {
        let s = s.replace(['.', '#'], "_");
        if s.starts_with(|c: char| c.is_ascii_alphabetic()) {
            s
        } else {
            format!("n_{s}")
        }
    };
    let mut out = Netlist::new(name);
    for ty in nl.device_types() {
        out.add_type(ty.clone()).unwrap();
    }
    let nets: Vec<NetId> = nl
        .net_ids()
        .map(|n| {
            let net = nl.net_ref(n);
            let id = out.net(ident(net.name()));
            if net.is_global() {
                out.mark_global(id);
            }
            id
        })
        .collect();
    for &p in nl.ports() {
        out.mark_port(nets[p.index()]);
    }
    for d in nl.device_ids() {
        let dev = nl.device(d);
        let pins: Vec<NetId> = dev.pins().iter().map(|&n| nets[n.index()]).collect();
        out.add_device(ident(dev.name()), dev.type_id(), &pins)
            .unwrap();
    }
    out
}

/// A composite device type for instances of `cell`: one terminal per
/// port, named after it.
fn composite(cell: &Netlist) -> DeviceType {
    let terms = cell
        .ports()
        .iter()
        .map(|&p| {
            let name = cell.net_ref(p).name();
            TerminalSpec::new(name, name)
        })
        .collect();
    DeviceType::new(cell.name(), terms)
}

/// A top level of composite instances of `cells`.
fn composite_top(cells: &[Netlist], rng: &mut Rng64, instances: usize) -> Netlist {
    let mut top = Netlist::new("top");
    for p in 0..3 {
        let id = top.net(format!("p{p}"));
        top.mark_port(id);
    }
    for k in 0..instances {
        let cell = &cells[rng.index(cells.len())];
        let ty = top.add_type(composite(cell)).unwrap();
        let pins: Vec<_> = (0..cell.ports().len())
            .map(|_| match rng.index(5) {
                0 => top.net(format!("p{}", rng.index(3))),
                _ => top.net(format!("w{}", rng.index(instances * 2))),
            })
            .collect();
        top.add_device(format!("u{k}"), ty, &pins).unwrap();
    }
    top
}

const GATES: [&str; 8] = ["not", "buf", "and", "nand", "or", "nor", "xor", "xnor"];

/// A gate-level cell: primitives of every kind and arity, with
/// composite instances of the cells before it, some pins on the rails.
fn gate_cell(name: &str, below: &[Netlist], rng: &mut Rng64) -> Netlist {
    let mut nl = Netlist::new(name);
    let inputs = rng.range(1, 5);
    let mut pool: Vec<NetId> = (0..inputs)
        .map(|i| {
            let id = nl.net(format!("i{i}"));
            nl.mark_port(id);
            id
        })
        .collect();
    let out = nl.net("y");
    nl.mark_port(out);
    for rail in ["vdd", "gnd"] {
        let id = nl.net(rail);
        nl.mark_global(id);
    }
    // Every input is used: flattening drops an unused port.
    let mut unused = pool.clone();
    let gates = rng.range(2, 9);
    for k in 0..gates {
        let y = if k + 1 == gates {
            out
        } else {
            nl.net(format!("n{k}"))
        };
        let mut pick = |nl: &mut Netlist, rng: &mut Rng64| match (unused.pop(), rng.index(8)) {
            (Some(n), _) => n,
            (None, 0) => nl.net(if rng.ratio(1, 2) { "vdd" } else { "gnd" }),
            (None, _) => pool[rng.index(pool.len())],
        };
        if !below.is_empty() && rng.ratio(1, 3) {
            let cell = &below[rng.index(below.len())];
            let ty = nl.add_type(composite(cell)).unwrap();
            let mut pins: Vec<NetId> = (1..cell.ports().len())
                .map(|_| pick(&mut nl, rng))
                .collect();
            // A cell's last port is its output.
            pins.push(y);
            nl.add_device(format!("c{k}"), ty, &pins).unwrap();
        } else {
            let gate = GATES[rng.index(GATES.len())];
            let arity = if matches!(gate, "not" | "buf") {
                1
            } else {
                rng.range(2, 5)
            };
            let ty = nl.add_type(primitive_type(gate, arity)).unwrap();
            let mut pins = vec![y];
            pins.extend((0..arity).map(|_| pick(&mut nl, rng)));
            nl.add_device(format!("g{k}"), ty, &pins).unwrap();
        }
        pool.push(y);
    }
    for (k, n) in unused.into_iter().enumerate() {
        let ty = nl.add_type(primitive_type("buf", 1)).unwrap();
        let x = nl.net(format!("x{k}"));
        nl.add_device(format!("b{k}"), ty, &[x, n]).unwrap();
    }
    nl
}

/// The unperturbed sources: 12 flat transistor-level chips (unknown
/// `nmos`/`pmos`/... modules with named connections), 12 transistor
/// cell libraries under a composite top, 24 gate-level designs whose
/// cells instance the cells before them.
fn base_source(i: usize) -> String {
    let mut rng = Rng64::new(0x7e51_0000 + i as u64);
    match i {
        0..=11 => {
            let chip = if i.is_multiple_of(2) {
                gen::tiled_chip(i as u64 + 1, 1_500).netlist
            } else {
                gen::random_soup(i as u64, 20 + 3 * i).netlist
            };
            write_module(&verilog_names(&chip, "top"))
        }
        12..=23 => {
            let chip = gen::hierarchical_chip(i as u64, 1 + i % 3, 150 + 10 * i);
            let top = composite_top(&chip.library, &mut rng, 6 + i % 5);
            write_design(&top, &chip.library)
        }
        _ => {
            let mut cells: Vec<Netlist> = Vec::new();
            for k in 0..rng.range(2, 6) {
                let cell = gate_cell(&format!("gc{k}"), &cells, &mut rng);
                cells.push(cell);
            }
            let top = composite_top(&cells, &mut rng, 4 + i % 6);
            write_design(&top, &cells)
        }
    }
}

fn dir_word(d: Dir) -> &'static str {
    match d {
        Dir::Input => "input",
        Dir::Output => "output",
        Dir::Inout => "inout",
    }
}

/// A random direction: the parser keeps it, elaboration ignores it.
fn any_dir(rng: &mut Rng64) -> Dir {
    [Dir::Input, Dir::Output, Dir::Inout][rng.index(3)]
}

/// `names` as one or more declarations of `kind`, pushed to `stmts`.
fn declare(kind: &str, names: &[String], rng: &mut Rng64, stmts: &mut Vec<String>) {
    let mut rest = names;
    while !rest.is_empty() {
        let take = rng.range(1, rest.len() + 1);
        stmts.push(format!("{kind} {};", rest[..take].join(", ")));
        rest = &rest[take..];
    }
}

/// One instance statement, with its connections written the way the
/// perturbation picks: a primitive may lose its name, a known module's
/// named connections may be reordered or become positional.
fn instance(inst: &Instance, src: &Source, rng: &mut Rng64) -> String {
    let conns = match &inst.conns {
        Conns::Positional(nets) => nets.join(", "),
        Conns::Named(pairs) => {
            let def = src.module(&inst.module);
            let order = def.and_then(|def| {
                def.ports
                    .iter()
                    .map(|p| pairs.iter().find(|(q, _)| q == p).map(|(_, n)| n.as_str()))
                    .collect::<Option<Vec<&str>>>()
            });
            let mut pairs = pairs.clone();
            match (order, rng.index(3)) {
                (Some(order), 0) => order.join(", "),
                (Some(_), 1) => {
                    for k in (1..pairs.len()).rev() {
                        pairs.swap(k, rng.index(k + 1));
                    }
                    let named: Vec<String> =
                        pairs.iter().map(|(p, n)| format!(".{p}({n})")).collect();
                    named.join(", ")
                }
                _ => {
                    let named: Vec<String> =
                        pairs.iter().map(|(p, n)| format!(".{p}( {n} )")).collect();
                    named.join(" ,")
                }
            }
        }
    };
    let anonymous =
        subgemini_verilog::GATE_PRIMITIVES.contains(&inst.module.as_str()) && rng.ratio(1, 4);
    if anonymous {
        format!("{} ({conns});", inst.module)
    } else {
        format!("{} {} ({conns});", inst.module, inst.name)
    }
}

/// `m` printed back with perturbed syntax: ANSI or separate port
/// declarations, declarations split and interleaved with instances,
/// unused wires, extra supplies, comments and directives.
fn print_module(m: &Module, src: &Source, rng: &mut Rng64, out: &mut String) {
    let dirs: Vec<Dir> = m.dirs.iter().map(|_| any_dir(rng)).collect();
    if rng.ratio(1, 2) {
        let ports: Vec<String> = m
            .ports
            .iter()
            .zip(&dirs)
            .map(|(p, &d)| {
                let wire = if rng.ratio(1, 4) { "wire " } else { "" };
                format!("{} {wire}{p}", dir_word(d))
            })
            .collect();
        out.push_str(&format!("module {} ({});\n", m.name, ports.join(", ")));
    } else {
        out.push_str(&format!("module {}({});\n", m.name, m.ports.join(",")));
        for (p, &d) in m.ports.iter().zip(&dirs) {
            out.push_str(&format!("  {} {p};\n", dir_word(d)));
        }
    }
    let mut wires = m.wires.clone();
    for k in 0..rng.index(3) {
        wires.push(format!("unused_{k}"));
    }
    let mut supply0 = m.supply0.clone();
    let mut supply1 = m.supply1.clone();
    // A wire declared a supply as well turns global.
    if !m.wires.is_empty() && rng.ratio(1, 4) {
        supply0.push(m.wires[rng.index(m.wires.len())].clone());
    }
    if rng.ratio(1, 4) {
        supply1.push("vcc".to_string());
    }
    let mut decls = Vec::new();
    declare("wire", &wires, rng, &mut decls);
    declare("supply0", &supply0, rng, &mut decls);
    declare("supply1", &supply1, rng, &mut decls);
    let mut insts: Vec<String> = m.instances.iter().map(|i| instance(i, src, rng)).collect();
    // Interleave, keeping each list's own order.
    insts.reverse();
    decls.reverse();
    while !insts.is_empty() || !decls.is_empty() {
        let stmt = match (insts.is_empty(), decls.is_empty()) {
            (false, false) if rng.ratio(1, 2) => decls.pop(),
            (false, _) => insts.pop(),
            _ => decls.pop(),
        };
        let stmt = stmt.expect("one list is non-empty");
        match rng.index(8) {
            0 => out.push_str(&format!("  {stmt} // trailing comment\n")),
            1 => out.push_str(&format!("  /* a\n     block */ {stmt}\n")),
            2 => out.push_str(&format!("\t{}\n", stmt.replace(' ', "\n    "))),
            _ => out.push_str(&format!("  {stmt}\n")),
        }
    }
    out.push_str("endmodule\n");
}

/// A perturbed copy of `text`: each module printed back with perturbed
/// syntax; then, on some sources, a module defined a second time (the
/// first definition wins) and a module instancing an unknown module
/// twice with its named connections in different orders.
fn perturb(text: &str, i: usize) -> String {
    let src = parse(text).unwrap_or_else(|e| panic!("source {i}: {e}\n{text}"));
    let mut rng = Rng64::new(0x7e52_0000 + i as u64);
    let mut out = String::new();
    if rng.ratio(1, 2) {
        out.push_str("`timescale 1ns/1ps\n");
    }
    for m in &src.modules {
        print_module(m, &src, &mut rng, &mut out);
        if rng.ratio(1, 3) {
            out.push_str("\n// between modules\n");
        }
    }
    let cells: Vec<&Module> = src.modules.iter().filter(|m| m.name != "top").collect();
    if i % 3 == 1 && !cells.is_empty() {
        let cell = cells[rng.index(cells.len())];
        let ports = cell.ports.join(", ");
        let body = match cell.ports.len() {
            0 => String::new(),
            1 => format!("  buf twice ({p}, {p});\n", p = cell.ports[0]),
            _ => format!(
                "  not twice ({}, {});\n",
                cell.ports[cell.ports.len() - 1],
                cell.ports[0]
            ),
        };
        out.push_str(&format!(
            "module {}({ports});\n{body}endmodule\n",
            cell.name
        ));
    }
    if i % 4 == 2 {
        out.push_str(
            "module odd(input a, b);\n  mystery m1(.a(a), .b(b));\n  \
             mystery m2(.b(b), .a(a));\nendmodule\n",
        );
    }
    out
}

/// Digests of [`digest`] over `parse(perturb(base_source(i), i))`.
const PINNED: [u64; 48] = [
    0xc3a021392ecdecb9,
    0x351fd2fb170e7444,
    0xcf1bb77a3383a14d,
    0x5cbc1dd734eda481,
    0xd4b89845b6ad8a2d,
    0x776418b73b0c9d9a,
    0x794744871b63b938,
    0x9facc5939f9c9d6c,
    0x50287476c1daf9d6,
    0x734cde4c571d31b9,
    0x05a65cb1e039eda4,
    0x77cda97f126efc26,
    0x451dc17df7db2cba,
    0xe4eaef272197324d,
    0x5acf30956201a1d8,
    0xa25dbe85690f5d58,
    0x90b5626ecaf6aa75,
    0xe09da8c6ca14de3a,
    0xc704210e23f8a223,
    0x6579d25ca6018ba1,
    0xf601b6afbbca00bc,
    0x62ffa1cac43205b9,
    0x38ec62a20d64e8ee,
    0x1f70bd9d0779ce85,
    0xa48b4b7b92e66e3a,
    0xec96a7dbe67d0e07,
    0xd5e722716fc49f5d,
    0xb2a3dafcdbe14a26,
    0x1d63cc5057a9a6d4,
    0x60e99441f27c9f86,
    0x22e7180ea552d685,
    0xf70e0575d0c0bd78,
    0x0eb5546b84163342,
    0x145cc2a96f78cfa8,
    0xa462b90a995f03bd,
    0x02fce157e08408b2,
    0xeb481b7a614c7b1f,
    0xc25a4f6fdb0778d1,
    0xcb97a87e3de54afe,
    0x8279548cb402a287,
    0x363fce7d78f1a91d,
    0x165424137d8103dc,
    0x6bbfd07887cb7407,
    0x8353f2b0cb026f01,
    0x19a1f7aebb579cfc,
    0x8eb7c916c8471a93,
    0x2e202268c11d081f,
    0xad79e04c8e39aa24,
];

#[test]
fn perturbed_generator_sources_elaborate_to_pinned_netlists() {
    let mut mismatches = Vec::new();
    for (i, &want) in PINNED.iter().enumerate() {
        let text = perturb(&base_source(i), i);
        let src = parse(&text).unwrap_or_else(|e| panic!("source {i}: {e}\n{text}"));
        let got = digest(&src);
        if got != want {
            mismatches.push(format!("source {i}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// `depth` chained modules, each instancing the one below `fanout`
/// times, over one inverter; `c{depth}` is the only top.
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

/// `(source, flatten, outcome)`: the parse error, the elaboration error
/// of the inferred top, or its device count.
fn malformed() -> Vec<(String, bool, &'static str)> {
    let inv = "module inv(input a, output y);\nnot g(y, a);\nendmodule\n";
    let mut wide = String::from("module wide(input a, output y);\n");
    for k in 0..8_192 {
        wide.push_str(&format!("not g{k}(y, a);\n"));
    }
    wide.push_str(&format!(
        "endmodule\nmodule top(input a, output y);\nwide {}(a, y);\nendmodule\n",
        "u".repeat(1 << 17)
    ));
    vec![
        (
            "module top(input a, output y);\nmystery u(a, y);\nendmodule\n".into(),
            true,
            "instance references unknown module `mystery`",
        ),
        (
            "module top(input a, output y);\nmystery u(a, y);\nendmodule\n".into(),
            false,
            "instance references unknown module `mystery`",
        ),
        (
            format!("{inv}module top(input x, output z);\ninv u(.bogus(x), .y(z));\nendmodule\n"),
            true,
            "instance `u` connects unknown port `bogus`",
        ),
        (
            format!("{inv}module top(input x, output z);\ninv u(.bogus(x), .y(z));\nendmodule\n"),
            false,
            "instance `u` connects unknown port `bogus`",
        ),
        (
            format!("{inv}module top(input x);\ninv u(x);\nendmodule\n"),
            true,
            "instance `u` supplies 1 connections but the module has 2 ports",
        ),
        (
            format!("{inv}module top(input x);\ninv u(x);\nendmodule\n"),
            false,
            "instance `u` supplies 1 connections but the module has 2 ports",
        ),
        (
            format!("{inv}module top(input x, output z);\ninv u(.a(x), .a(z));\nendmodule\n"),
            true,
            "instance `u` supplies 1 connections but the module has 2 ports",
        ),
        (
            "module top(input a, output y);\nnand g(.y(y), .a(a));\nendmodule\n".into(),
            true,
            "parse error at line 2: gate primitive `nand` requires positional connections",
        ),
        (
            "module top(input a, output y);\nnand g(y, a);\nendmodule\n".into(),
            true,
            "instance `g` supplies 2 connections but the module has 3 ports",
        ),
        (
            "module top(input a, output y);\nnot g(y);\nendmodule\n".into(),
            true,
            "instance `g` supplies 1 connections but the module has 2 ports",
        ),
        (
            "module top(input a, b, output y);\nbuf g(y, a, b);\nendmodule\n".into(),
            false,
            "instance `g` supplies 3 connections but the module has 2 ports",
        ),
        (
            "module a(input x);\nb u(x);\nendmodule\nmodule b(input x);\na u(x);\nendmodule\n\
             module top(input x);\na u(x);\nendmodule\n"
                .into(),
            true,
            "module `a` instantiates itself (directly or indirectly)",
        ),
        (
            "module a(input x);\nb u(x);\nendmodule\nmodule b(input x);\na u(x);\nendmodule\n\
             module top(input x);\na u(x);\nendmodule\n"
                .into(),
            false,
            "1 devices",
        ),
        (
            "module a(input x);\na u(x, x);\nendmodule\nmodule top(input x);\na u(x);\nendmodule\n"
                .into(),
            true,
            "instance `u` supplies 2 connections but the module has 1 ports",
        ),
        (
            "module top(input a, b);\nmystery m1(.a(a), .b(b));\nmystery m2(.b(b), .a(a));\n\
             endmodule\n"
                .into(),
            true,
            "netlist error: duplicate device type `mystery`",
        ),
        (
            "module top(input a, b);\nmystery m1(.a(a), .a(b));\nendmodule\n".into(),
            true,
            "parse error at line 2: device type `mystery` declares terminal `a` twice",
        ),
        (
            "module e();\nendmodule\nmodule top(input a);\ne u();\nnot g(a, a);\nendmodule\n"
                .into(),
            true,
            "1 devices",
        ),
        (
            "module e();\nendmodule\nmodule top(input a);\ne u();\nnot g(a, a);\nendmodule\n"
                .into(),
            false,
            "parse error at line 4: device type `e` declares no terminals",
        ),
        (
            "module d(a, a);\nnot g(a, a);\nendmodule\nmodule top(input x);\nd u(x, x);\nendmodule\n"
                .into(),
            false,
            "parse error at line 5: device type `d` declares terminal `a` twice",
        ),
        (
            "module top(input a, output y);\nnot g(y, a);\nnot g(a, y);\nendmodule\n".into(),
            true,
            "netlist error: duplicate device name `g`",
        ),
        (
            "module top(input a, output y);\nnot g(y, a);\nendmodule\nmodule top2(input a);\n\
             endmodule\n"
                .into(),
            true,
            "no module named `<inferred top>` in this source",
        ),
        (
            "module inv(input a, input unused, output y);\nnot g(y, a);\nendmodule\n\
             module top(input x, output z);\ninv u(x, x, z);\nendmodule\n"
                .into(),
            true,
            "netlist error: device `u` supplies 3 pins but its type declares 2 terminals",
        ),
        (
            "module inv(input a, input unused, output y);\nnot g(y, a);\nendmodule\n\
             module top(input x, output z);\ninv u(x, x, z);\nendmodule\n"
                .into(),
            false,
            "1 devices",
        ),
        (
            chain(40, 2),
            true,
            "instantiating module `c17` would flatten to 393214 devices, past the cap of 262144",
        ),
        (chain(40, 2), false, "2 devices"),
        (
            wide.clone(),
            true,
            "instantiating module `wide` would write 1073789866 bytes of instance names, \
             past the cap of 1073741824",
        ),
        (wide, false, "1 devices"),
    ]
}

fn outcome(text: &str, flatten: bool) -> String {
    let opts = if flatten {
        ElaborateOptions::default()
    } else {
        ElaborateOptions::hierarchical()
    };
    match parse(text) {
        Err(e) => e.to_string(),
        Ok(src) => match src.elaborate(None, &opts) {
            Err(e) => e.to_string(),
            Ok(nl) => format!("{} devices", nl.device_count()),
        },
    }
}

#[test]
fn malformed_sources_keep_their_errors() {
    let mut mismatches = Vec::new();
    for (text, flatten, want) in malformed() {
        let got = outcome(&text, flatten);
        if got != want {
            let head: String = text.chars().take(120).collect();
            mismatches.push(format!(
                "{head:?} flatten={flatten}\n  got  {got}\n  want {want}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
