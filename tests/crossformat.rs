//! Cross-format pipeline: SPICE transistors in → extraction → gate
//! netlist → structural Verilog out → reparse → gate-level matching.

use subgemini::{Extractor, Matcher};
use subgemini_gemini::compare;
use subgemini_verilog::{parse as vparse, write_design, write_module, ElaborateOptions};
use subgemini_workloads::{cells, gen};

fn extract_all(
    main: &subgemini_netlist::Netlist,
) -> (subgemini_netlist::Netlist, Vec<subgemini_netlist::Netlist>) {
    let mut e = Extractor::new();
    for cell in cells::library() {
        e.add_cell(cell);
    }
    let (top, report) = e.extract(main).expect("extracts");
    let used: Vec<_> = report
        .per_cell
        .iter()
        .filter(|(_, n)| *n > 0)
        .filter_map(|(name, _)| cells::by_name(name))
        .collect();
    (top, used)
}

#[test]
fn transistors_to_verilog_and_back() {
    // Adder + register slice, built at transistor level.
    let mut chip = gen::ripple_adder(3).netlist;
    let clk = chip.net("clk");
    for i in 0..3 {
        let d = chip.net(format!("s{i}"));
        let q = chip.net(format!("rq{i}"));
        subgemini_netlist::instantiate(&mut chip, &cells::dff(), &format!("r{i}"), &[d, clk, q])
            .unwrap();
    }
    let (gates, _used) = extract_all(&chip);

    // Write the gate-level netlist as one Verilog module and reparse.
    let text = write_module(&gates);
    let src = vparse(&text).unwrap_or_else(|e| panic!("writer output must parse: {e}\n{text}"));
    let back = src
        .elaborate(None, &ElaborateOptions::hierarchical())
        .unwrap();
    // Composite devices survive as instances with identical counts.
    let s1 = subgemini_netlist::NetlistStats::of(&gates);
    let s2 = subgemini_netlist::NetlistStats::of(&back);
    assert_eq!(s1.devices, s2.devices);
    assert_eq!(s1.devices_by_type, s2.devices_by_type);

    // Gate-level matching on the reparsed netlist: find the dff
    // composites by pattern.
    let dffty = back.type_id("dff").expect("dff type present");
    let ty = back.device_type(dffty).clone();
    let mut pat = subgemini_netlist::Netlist::new("dff_gate");
    let pt = pat.add_type(ty).unwrap();
    let (d, c, q) = (pat.net("d"), pat.net("clk"), pat.net("q"));
    pat.mark_port(d);
    pat.mark_port(c);
    pat.mark_port(q);
    pat.add_device("g", pt, &[d, c, q]).unwrap();
    let found = Matcher::new(&pat, &back).find_all();
    assert_eq!(found.count(), 3);
}

#[test]
fn gate_level_verilog_matches_primitive_patterns() {
    // Pure gate-level design using primitives.
    let src = vparse(
        "module top(input a, b, c, output y);\n\
           wire w1, w2, w3;\n\
           nand g1(w1, a, b);\n\
           nand g2(w2, b, c);\n\
           nand g3(w3, w1, w2);\n\
           not  g4(y, w3);\n\
         endmodule\n",
    )
    .unwrap();
    let main = src.elaborate(None, &ElaborateOptions::default()).unwrap();

    // Pattern: NAND followed by NOT — an AND in disguise.
    let psrc = vparse(
        "module and_shape(input a, b, output y);\n\
           wire w;\n\
           nand g1(w, a, b);\n\
           not  g2(y, w);\n\
         endmodule\n",
    )
    .unwrap();
    let pat = psrc.elaborate(None, &ElaborateOptions::default()).unwrap();
    let found = Matcher::new(&pat, &main).find_all();
    assert_eq!(found.count(), 1);
    // The matched pair is g3/g4 (w3 is the only nand output feeding a
    // not with no other load).
    let names: Vec<&str> = found.instances[0]
        .device_set()
        .iter()
        .map(|&d| main.device(d).name())
        .collect();
    assert_eq!(names, vec!["g3", "g4"]);
}

#[test]
fn primitive_input_permutation_is_matching_invariant() {
    let build = |order: &str| {
        let text =
            format!("module top(input a, b, c, output y);\nnand g(y, {order});\nendmodule\n");
        vparse(&text)
            .unwrap()
            .elaborate(None, &ElaborateOptions::default())
            .unwrap()
    };
    let m1 = build("a, b, c");
    let m2 = build("c, a, b");
    assert!(compare(&m1, &m2).is_isomorphic());
    let found = Matcher::new(&m1, &m2).find_all();
    assert_eq!(found.count(), 1);
}

#[test]
fn full_design_roundtrip_is_isomorphic_after_flattening() {
    let chip = gen::sram_array(2, 2).netlist;
    let (top, used) = extract_all(&chip);
    let design = write_design(&top, &used);
    // The design contains sram6t as a module of *transistors*? No — the
    // library cells are transistor netlists, whose MOS devices are not
    // Verilog primitives. write_module emits them as instances of
    // `nmos`/`pmos` modules, so provide those as behavioral-free leaf
    // modules for the parser.
    let leaves = "\
module nmos(g, s, d);\ninout g, s, d;\nendmodule\n\
module pmos(g, s, d);\ninout g, s, d;\nendmodule\n";
    let text = format!("{leaves}{design}");
    let src = vparse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let flat = src
        .elaborate(Some(top.name()), &ElaborateOptions::hierarchical())
        .unwrap();
    assert_eq!(flat.device_count(), 4); // four sram6t composites
}
