//! Robustness: the Verilog parser must never panic on arbitrary input.
//! Inputs come from a seeded internal PRNG so every run fuzzes the same
//! reproducible corpus.

use subgemini_netlist::rng::Rng64;
use subgemini_verilog::ElaborateOptions;

#[test]
fn parser_never_panics_on_garbage() {
    for case in 0..256u64 {
        let mut rng = Rng64::new(0xe1_1ce0 + case);
        let len = rng.range(0, 401);
        let input = rng.printable(len);
        let _ = subgemini_verilog::parse(&input);
    }
}

#[test]
fn parser_never_panics_on_tokens() {
    const TOKENS: &[&str] = &[
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "supply0",
        "supply1",
        "nand",
        "not",
        "inv",
        "u1",
        "a",
        "b",
        "(",
        ")",
        ";",
        ",",
        ".",
        "top",
    ];
    for case in 0..256u64 {
        let mut rng = Rng64::new(0xe1_2ce0 + case);
        let n = rng.range(0, 80);
        let words: Vec<&str> = (0..n).map(|_| TOKENS[rng.index(TOKENS.len())]).collect();
        let text = words.join(" ");
        if let Ok(src) = subgemini_verilog::parse(&text) {
            let _ = src.elaborate(None, &ElaborateOptions::default());
            for m in &src.modules {
                let _ = src.elaborate(Some(&m.name), &ElaborateOptions::hierarchical());
            }
        }
    }
}

#[test]
fn minimal_valid_modules_elaborate() {
    for case in 0..256u64 {
        let mut rng = Rng64::new(0xe1_3ce0 + case);
        let a = rng.ident(7);
        let y = rng.ident(7);
        if a == y {
            continue;
        }
        let text = format!("module t(input {a}, output {y});\nnot g({y}, {a});\nendmodule\n");
        let src = subgemini_verilog::parse(&text).unwrap();
        let nl = src.elaborate(None, &ElaborateOptions::default()).unwrap();
        assert_eq!(nl.device_count(), 1, "case {case}: {text}");
    }
}
