//! The SPICE front end's output, pinned. A seeded corpus of generated
//! decks, perturbed with every piece of syntax the parser accepts, must
//! keep elaborating to exactly the netlists pinned below (device and net
//! order, names, pins, types, global and port flags), and a set of
//! malformed decks must keep their error text and line number. The
//! constants were computed with the string-per-token front end that the
//! span-based one replaced.

use subgemini_netlist::hashing::fnv1a;
use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{DeviceType, Netlist, TerminalSpec};
use subgemini_spice::{parse, write_hierarchical, write_netlist, ElaborateOptions, SpiceDoc};
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

fn render_result(r: Result<Netlist, subgemini_spice::SpiceError>, out: &mut String) {
    match r {
        Ok(nl) => render(&nl, out),
        Err(e) => out.push_str(&format!("error {e}\n")),
    }
}

/// Everything the front end makes of one deck, flat and hierarchical.
fn digest(doc: &SpiceDoc) -> u64 {
    let mut out = format!("title {:?}\nglobals {:?}\n", doc.title, doc.globals);
    for def in &doc.subckts {
        out.push_str(&format!("subckt {} {:?}\n", def.name, def.ports));
    }
    let modes = [
        ElaborateOptions::default(),
        ElaborateOptions::hierarchical(),
    ];
    for opts in &modes {
        render_result(doc.elaborate_top("top", opts), &mut out);
        let cells: Vec<_> = doc
            .subckts
            .iter()
            .map(|def| doc.elaborate_cell(&def.name, opts))
            .collect();
        // The one-memo library path agrees with cell-by-cell, down to
        // which error comes first.
        let first_err = cells.iter().find_map(|c| c.as_ref().err());
        match (doc.elaborate_cells(opts), first_err) {
            (Ok(all), None) => {
                let mut library = String::new();
                all.iter().for_each(|nl| render(nl, &mut library));
                let mut each = String::new();
                cells.iter().flatten().for_each(|nl| render(nl, &mut each));
                assert_eq!(library, each, "elaborate_cells vs elaborate_cell");
            }
            (Err(e), Some(first)) => assert_eq!(&e, first),
            (got, want) => panic!("elaborate_cells {:?} vs first error {want:?}", got.err()),
        }
        for cell in cells {
            render_result(cell, &mut out);
        }
    }
    fnv1a(&out)
}

/// A top level of composite instances of `cells`, for decks whose `X`
/// cards reach from the top through every level of a library.
fn composite_top(cells: &[Netlist], rng: &mut Rng64, instances: usize) -> Netlist {
    let mut top = Netlist::new("top");
    for k in 0..instances {
        let cell = &cells[rng.index(cells.len())];
        let terms = cell
            .ports()
            .iter()
            .map(|&p| {
                let name = cell.net_ref(p).name();
                TerminalSpec::new(name, name)
            })
            .collect();
        let ty = top.add_type(DeviceType::new(cell.name(), terms)).unwrap();
        let pins: Vec<_> = (0..cell.ports().len())
            .map(|_| top.net(format!("w{}", rng.index(instances * 2))))
            .collect();
        top.add_device(format!("u{k}"), ty, &pins).unwrap();
    }
    top
}

/// Mixed case: every ASCII letter flips to upper case with probability
/// 1/3.
fn mixed_case(s: &str, rng: &mut Rng64) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphabetic() && rng.ratio(1, 3) {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// Cards of every element kind the generators do not emit: R, C, L,
/// diodes with and without a model, 3- and 4-terminal BJTs.
fn extra_cards(rng: &mut Rng64) -> Vec<String> {
    let mut net = || format!("xn{}", rng.index(12));
    let mut cards = Vec::new();
    for k in 0..3 {
        cards.push(format!("rx{k} {} {} 10k", net(), net()));
        cards.push(format!("cx{k} {} 0 1p", net()));
        cards.push(format!("lx{k} {} {} 1n", net(), net()));
        cards.push(format!("dx{k} {} {} dfast", net(), net()));
        cards.push(format!("dy{k} {} gnd 1e-9", net()));
        cards.push(format!("qx{k} {} {} {} npn", net(), net(), net()));
        cards.push(format!(
            "qy{k} {} {} {} vss pnp area=2",
            net(),
            net(),
            net()
        ));
    }
    cards
}

/// Rewrites one deck line with the syntax variations the parser
/// accepts, pushing the result as one or more physical lines.
fn perturb_line(line: &str, rng: &mut Rng64, out: &mut Vec<String>) {
    if line.is_empty() || line.starts_with('*') {
        out.push(line.to_string());
        return;
    }
    let mut toks: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let head = toks[0].to_ascii_lowercase();
    // 4-terminal MOS: `m d g s b model`; the bulk node is discarded.
    if head.starts_with('m') && toks.len() == 5 && rng.ratio(1, 2) {
        let bulk = if rng.ratio(1, 2) {
            toks[3].clone()
        } else {
            "vss".to_string()
        };
        toks.insert(4, bulk);
    }
    // `k=v` parameters (never on `.global`, whose every token is a net).
    if head != ".global" && head != ".ends" && rng.ratio(1, 3) {
        toks.push(if head.starts_with('m') {
            "W=1.2u".to_string()
        } else {
            "m=1".to_string()
        });
        if rng.ratio(1, 2) {
            toks.push("L=180n".to_string());
        }
    }
    let toks: Vec<String> = toks.iter().map(|t| mixed_case(t, rng)).collect();
    // `+` continuations, with blank, comment-only and `*` lines between.
    let mut pieces: Vec<Vec<String>> = vec![toks];
    while pieces.last().unwrap().len() > 1 && rng.ratio(1, 4) {
        let last = pieces.last_mut().unwrap();
        let at = rng.range(1, last.len());
        let tail = last.split_off(at);
        pieces.push(tail);
    }
    for (i, piece) in pieces.iter().enumerate() {
        let mut text = if i == 0 {
            piece.join(" ")
        } else {
            match rng.index(3) {
                0 => format!("+ {}", piece.join(" ")),
                1 => format!("+{}", piece.join("  ")),
                _ => format!("  +\t{}", piece.join("\t")),
            }
        };
        // Trailing `;` and `$` comments.
        match rng.index(6) {
            0 => text.push_str(" ; trailing; comment"),
            1 => text.push_str(" $ model note $"),
            _ => {}
        }
        if i > 0 {
            for _ in 0..rng.index(3) {
                out.push(
                    match rng.index(3) {
                        0 => "",
                        1 => "* between continuation lines",
                        _ => "   ; only a comment",
                    }
                    .to_string(),
                );
            }
        }
        out.push(text);
    }
}

/// A perturbed copy of `deck`: title line, ignored dot-commands, extra
/// element kinds, a trailing `.end` with junk after it.
fn perturb(deck: &str, i: usize) -> String {
    let mut rng = Rng64::new(0x5b1c_e000 + i as u64);
    let mut lines = Vec::new();
    if !i.is_multiple_of(3) {
        lines.push(format!("Seeded CORPUS deck {i}"));
        if i % 4 == 1 {
            lines.push("+ With A Continued Title".to_string());
        }
    }
    lines.push(".model nch nmos level=1".to_string());
    for line in deck.lines() {
        perturb_line(line, &mut rng, &mut lines);
    }
    lines.push(".option scale=1".to_string());
    for card in extra_cards(&mut rng) {
        perturb_line(&card, &mut rng, &mut lines);
    }
    if i.is_multiple_of(2) {
        lines.push(".END".to_string());
        lines.push("R_after_end a b 1".to_string());
        lines.push("garbage after end".to_string());
    }
    let mut text = lines.join(if i.is_multiple_of(5) { "\r\n" } else { "\n" });
    text.push('\n');
    text
}

/// The unperturbed decks: 24 tiled chips at 10^3 devices, 20 random
/// soups, 20 hierarchical chips with a composite top.
fn base_deck(i: usize) -> String {
    match i {
        0..=23 => write_netlist(&gen::tiled_chip(i as u64 + 1, 1_000).netlist),
        24..=43 => write_netlist(&gen::random_soup(i as u64, 40 + 4 * i).netlist),
        _ => {
            let levels = 1 + i % 3;
            let chip = gen::hierarchical_chip(i as u64, levels, 200 + 20 * i);
            let mut rng = Rng64::new(0x70b0 + i as u64);
            let top = composite_top(&chip.library, &mut rng, 12 + i % 7);
            write_hierarchical(&top, &chip.library)
        }
    }
}

/// Digests of [`digest`] over `parse(perturb(base_deck(i), i))`.
const PINNED: [u64; 64] = [
    0x90224c30853ef02a,
    0xea45de238cf53b25,
    0x49ed0c2feaa32b1a,
    0x1a0693d2ef564b8e,
    0x0e4704cdfbd7c720,
    0xd0b65fdfa99ac609,
    0xcad76d60a3c42784,
    0xe2a0c438fff34e11,
    0x9405be92e25c168e,
    0xc4e3c44e15076406,
    0x2105e5ba4d9398e9,
    0x040681f126550368,
    0x27ec5438e339ce20,
    0x64b51ddd75f6fef4,
    0x6a67bbdffbc5c841,
    0xf6a241e8e2bed840,
    0x191007833a0afc49,
    0xeda5bccf50f50262,
    0xd193e4b49690e68e,
    0xd0b95bd867273bfc,
    0x2781b6175db90328,
    0xa52ddd39c9eaa8f6,
    0x41e73e6fbcedf576,
    0x730671eb74f300d9,
    0x7032955b82fcf8ae,
    0xc7ec8201032a5657,
    0x8da645a065ea1ea8,
    0x130a8432ec15956c,
    0xc85294d9a8da615e,
    0x1f658f9fc7c8caa7,
    0x3e6a488d4a2f0290,
    0xb90a041b33014a96,
    0x6bcf8f70515f5add,
    0x6f9d21e74e3fc634,
    0x7e4edd7d9c5873a7,
    0x71da2a1ccebaeec2,
    0x66d6856bacef6998,
    0x5c7055b6bfcf2296,
    0x73b65b911add8a3d,
    0x80cf5c4ac17a13e6,
    0x55fd72bc7d9d3b1e,
    0x92cbf35a4876c301,
    0x93934aba1662e01e,
    0xd62800ed4c7d36d3,
    0xb9ee4a8052839097,
    0x9f5aebc4819d1232,
    0x1af1a3061de483e6,
    0xe277e4756940e1f3,
    0xefec9230f98d9130,
    0x17e11799a413bb62,
    0x9ae5a074bd4aa030,
    0xc24533bca7f376b2,
    0x97a99b7e6aa02540,
    0x33a80d5a49d8f828,
    0x38bc25e8eff3db66,
    0x7fde77c7f80f70e9,
    0xa1e35a02d59be172,
    0x6a5e8b49689c7701,
    0xea2fb4069bcf42f1,
    0xc5d397b6bb975ea2,
    0x67a3538e8968340d,
    0x730fe5c1f557e0b0,
    0x712de60ca7d6e346,
    0x6bca02e5da4dd3c1,
];

#[test]
fn perturbed_generator_decks_elaborate_to_pinned_netlists() {
    let mut mismatches = Vec::new();
    for (i, &want) in PINNED.iter().enumerate() {
        let text = perturb(&base_deck(i), i);
        let doc = parse(&text).unwrap_or_else(|e| panic!("deck {i}: {e}"));
        let got = digest(&doc);
        if got != want {
            mismatches.push(format!("deck {i}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// `(deck, flatten, outcome)`: the parse error, the elaboration error
/// of the top level, or the title of a deck that parses.
const MALFORMED: &[(&str, bool, &str)] = &[
    (
        "* ok\nMbad a b\n",
        true,
        "parse error at line 2: MOS card `mbad` is too short",
    ),
    (
        "* c\nM1 a b c\n",
        true,
        "parse error at line 2: MOS card `m1` lacks a model",
    ),
    (
        "R1 a b\nR2 a\n",
        true,
        "parse error at line 2: card `r2` needs two nets",
    ),
    (
        "* c\nD1 a\n",
        true,
        "parse error at line 2: diode `d1` needs two nets",
    ),
    (
        "* c\nQ1 c b e\n",
        true,
        "parse error at line 2: BJT `q1` needs c b e and a model",
    ),
    (
        "* c\nX1 inv\n",
        true,
        "parse error at line 2: instance `x1` needs nets and a subcircuit name",
    ),
    (
        "* c\nZap a b\n",
        true,
        "parse error at line 2: unsupported element `z`",
    ),
    (
        ".subckt a x\n.subckt b y\n",
        true,
        "parse error at line 2: nested .subckt is not supported",
    ),
    (
        ".SUBCKT\n",
        true,
        "parse error at line 1: .subckt needs a name",
    ),
    ("R1 a b 1\n.ends\n", true, ".ends without .subckt at line 2"),
    (
        ".subckt INV a y\nR1 a y 1\n",
        true,
        "subcircuit `inv` is missing its .ends",
    ),
    (
        "R1 a b 1\n.include foo.sp\n",
        true,
        "parse error at line 2: includes must be resolved first; use parse_file for on-disk decks",
    ),
    (
        "* c\nM1 a\n\n* gap\n   ; only a comment\n+ b\n",
        true,
        "parse error at line 2: MOS card `m1` is too short",
    ),
    (
        "R1 a b 1\n+\n+ c d\nZz 1 2\n",
        true,
        "parse error at line 4: unsupported element `z`",
    ),
    (
        "* c\n\u{c9}l\u{e9}ment a b\n",
        true,
        "parse error at line 2: unsupported element `É`",
    ),
    (
        "* c\nM1\u{2003}a\u{a0}b\n",
        true,
        "parse error at line 2: MOS card `m1` is too short",
    ),
    (
        "* c\nR1\u{b}a\n",
        true,
        "parse error at line 2: card `r1` needs two nets",
    ),
    ("+ a b\nR1 a b 1\n", true, "title Some(\"+ a b\")"),
    ("R1 a b 1\n+ a b\n", true, "title None"),
    (
        "Xu1 a b nosuch\n",
        true,
        "instance references unknown subcircuit `nosuch`",
    ),
    (
        "Xu1 a b nosuch\n",
        false,
        "instance references unknown subcircuit `nosuch`",
    ),
    (
        ".subckt a x\nXq x a\n.ends\nXu1 n a\n",
        true,
        "subcircuit `a` instantiates itself (directly or indirectly)",
    ),
    (
        ".subckt a x y\nR1 x y 1\n.ends\nXu1 n a\n",
        true,
        "netlist error: device `xu1` supplies 1 pins but its type declares 2 terminals",
    ),
    (
        ".subckt a x y\nR1 x y 1\n.ends\nXu1 n a\n",
        false,
        "parse error at line 0: instance `xu1` has 1 nets, subckt `a` has 2 ports",
    ),
    (
        "R1 a b 1\nR1 c d 1\n",
        true,
        "netlist error: duplicate device name `r1`",
    ),
    (
        ".subckt nmos a\nR1 a b 1\n.ends\nX1 n nmos\nM1 a b c nch\n",
        false,
        "netlist error: duplicate device type `nmos`",
    ),
    (
        ".subckt nmos a\nR1 a b 1\n.ends\nM1 a b c nch\nX1 n nmos\n",
        false,
        "netlist error: duplicate device type `nmos`",
    ),
    (
        ".subckt a x\nXq x b\n.ends\n.subckt b y\nXr y a\n.ends\nXu1 n a\n",
        true,
        "subcircuit `a` instantiates itself (directly or indirectly)",
    ),
    (
        ".subckt broken x\nXq x nosuch\n.ends\nR1 a b 1\n",
        true,
        "title None",
    ),
    (
        "Your Chip TITLE\n+ More  Words\n+\nR1 a b 1\n",
        true,
        "title Some(\"Your Chip TITLE More  Words \")",
    ),
    ("My Chip TITLE\n+ More  Words\n", true, "title None"),
    (
        "  Plain title ; with a comment\nR1 a b 1\n",
        true,
        "title Some(\"Plain title\")",
    ),
    (
        ".global vdd\nTitle too late\n",
        true,
        "parse error at line 2: unsupported element `t`",
    ),
];

fn outcome(deck: &str, flatten: bool) -> String {
    let opts = if flatten {
        ElaborateOptions::default()
    } else {
        ElaborateOptions::hierarchical()
    };
    match parse(deck) {
        Err(e) => e.to_string(),
        Ok(doc) => match doc.elaborate_top("top", &opts) {
            Err(e) => e.to_string(),
            Ok(_) => format!("title {:?}", doc.title),
        },
    }
}

#[test]
fn malformed_decks_keep_their_errors() {
    for &(deck, flatten, want) in MALFORMED {
        assert_eq!(outcome(deck, flatten), want, "deck {deck:?}");
    }
}
