//! Gate-level Verilog flow: parse a structural design, match patterns
//! at the gate level, then run the full transistor→Verilog pipeline.
//!
//! Run with: `cargo run --example verilog_flow`

use subgemini::{Extractor, Matcher};
use subgemini_verilog::{parse, write_module, ElaborateOptions};
use subgemini_workloads::{cells, gen};

const DESIGN: &str = "\
// 2-bit equality comparator, gate level
module eq2(input a0, a1, b0, b1, output eq);
  wire x0, x1, nx0, nx1;
  xor g0(x0, a0, b0);
  xor g1(x1, a1, b1);
  not g2(nx0, x0);
  not g3(nx1, x1);
  and g4(eq, nx0, nx1);
endmodule
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Parse and inspect a gate-level design. ----
    let src = parse(DESIGN)?;
    let chip = src.elaborate(None, &ElaborateOptions::default())?;
    println!(
        "parsed `{}`: {} gates, {} nets",
        chip.name(),
        chip.device_count(),
        chip.net_count()
    );

    // ---- 2. Gate-level pattern matching: XNOR = xor + not. ----
    let pat = parse(
        "module xnor_shape(input a, b, output y);\n\
           wire w;\n\
           xor g1(w, a, b);\n\
           not g2(y, w);\n\
         endmodule\n",
    )?
    .elaborate(None, &ElaborateOptions::default())?;
    let found = Matcher::new(&pat, &chip).find_all();
    println!("xnor shapes found: {}", found.count());
    assert_eq!(found.count(), 2);

    // ---- 3. Transistors in, Verilog out. ----
    let transistors = gen::ripple_adder(2).netlist;
    let mut extractor = Extractor::new();
    for cell in cells::library() {
        extractor.add_cell(cell);
    }
    let (gates, report) = extractor.extract(&transistors)?;
    println!(
        "\nextracted {} full adders from {} transistors",
        report.count_of("full_adder"),
        transistors.device_count()
    );
    let verilog = write_module(&gates);
    println!("gate-level Verilog:\n{verilog}");

    // The emitted module stands alone: named connections let the parser
    // synthesize the composite types.
    let back = parse(&verilog)?.elaborate(None, &ElaborateOptions::hierarchical())?;
    assert_eq!(back.device_count(), 2);
    println!("reparsed: {} composite gate(s)", back.device_count());
    Ok(())
}
