//! The SPICE tokenizer against a reference model: the line-and-char
//! tokenizer the byte scanner replaced (`lines()`, then a comment cut
//! and `trim()` per line, then `split_whitespace()`), restated below.
//!
//! Each seeded deck is hostile in layout only: LF and CRLF line ends,
//! ASCII and Unicode separators, comments of every kind between
//! continuations, non-ASCII and cut characters inside tokens, a
//! continued title, a stray leading `+` and `.end` mid-deck. The model
//! cuts it into logical lines, and the test writes those lines out as a
//! plain deck: one logical line per physical line, at its original line
//! number, tokens one space apart. Both decks must parse to the same
//! document and fail with the same error text and line.
//!
//! A `SpiceDoc` owns its deck's text and points into it, so `==` on two
//! documents only holds for one deck. The two decks are compared by
//! what their documents say instead: the public fields and every card,
//! as a hierarchical elaboration renders it (name, type and nets, in
//! order). The title is the deck's own text, so the plain deck's title
//! is replaced by the one the model reads from the hostile deck.

use subgemini_netlist::rng::Rng64;
use subgemini_netlist::Netlist;
use subgemini_spice::{parse, ElaborateOptions, SpiceDoc, SpiceError};

/// The retired tokenizer.
mod reference {
    /// One logical line: where it starts and its lowercased tokens,
    /// continuations appended.
    pub struct Logical {
        pub line: usize,
        pub tokens: Vec<String>,
    }

    /// The part of a physical line that carries tokens — `;`/`$`
    /// comments cut, whitespace trimmed — or `None` for blank and `*`
    /// comment lines.
    fn content(raw: &str) -> Option<&str> {
        let line = match raw.bytes().position(|b| b == b';' || b == b'$') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = line.trim();
        (!trimmed.is_empty() && !trimmed.starts_with('*')).then_some(trimmed)
    }

    /// The deck's logical lines up to and including `.end`.
    pub fn logical_lines(deck: &str) -> Vec<Logical> {
        let lower = deck.to_ascii_lowercase();
        let mut out: Vec<Logical> = Vec::new();
        for (i, raw) in lower.lines().enumerate() {
            let Some(line) = content(raw) else { continue };
            if let Some(last) = out.last_mut() {
                if let Some(rest) = line.strip_prefix('+') {
                    last.tokens
                        .extend(rest.split_whitespace().map(String::from));
                    continue;
                }
                if last.tokens[0] == ".end" {
                    break;
                }
            }
            out.push(Logical {
                line: i + 1,
                tokens: line.split_whitespace().map(String::from).collect(),
            });
        }
        out
    }

    /// The title a deck's first logical line makes: its first content
    /// line and continuations joined by single spaces, in the deck's
    /// own case.
    pub fn title(deck: &str) -> String {
        let mut lines = deck.lines().filter_map(content);
        let mut title = lines.next().unwrap_or_default().to_string();
        for rest in lines.map_while(|l| l.strip_prefix('+')) {
            title.push(' ');
            title.push_str(rest.trim());
        }
        title
    }

    /// The logical lines as a plain deck: each on its own physical
    /// line, at its original line number, tokens one space apart.
    pub fn plain(lines: &[Logical]) -> String {
        let mut out = String::new();
        let mut at = 1;
        for l in lines {
            while at < l.line {
                out.push('\n');
                at += 1;
            }
            out.push_str(&l.tokens.join(" "));
        }
        out.push('\n');
        out
    }
}

/// What a parse says, short of where in its deck it says it.
#[derive(Debug, PartialEq, Eq)]
struct View {
    title: Option<String>,
    globals: Vec<String>,
    subckts: Vec<(String, Vec<String>)>,
    top_cards: usize,
    /// The top level and every subcircuit, elaborated hierarchically.
    cards: String,
}

fn render(nl: &Netlist, out: &mut String) {
    out.push_str(&format!("netlist {}\n", nl.name()));
    for d in nl.device_ids() {
        let dev = nl.device(d);
        let ty = nl.device_type(dev.type_id());
        out.push_str(&format!("dev {} {}", dev.name(), ty.name()));
        for &n in dev.pins() {
            out.push(' ');
            out.push_str(nl.net_ref(n).name());
        }
        out.push('\n');
    }
    for n in nl.net_ids() {
        let net = nl.net_ref(n);
        let flags = (net.is_global(), net.is_port());
        out.push_str(&format!("net {} {flags:?}\n", net.name()));
    }
}

fn elaborated(r: Result<Netlist, SpiceError>, out: &mut String) {
    match r {
        Ok(nl) => render(&nl, out),
        Err(e) => out.push_str(&format!("error {e}\n")),
    }
}

fn view(doc: &SpiceDoc) -> View {
    let opts = ElaborateOptions::hierarchical();
    let mut cards = String::new();
    elaborated(doc.elaborate_top("top", &opts), &mut cards);
    for def in &doc.subckts {
        elaborated(doc.elaborate_cell(&def.name, &opts), &mut cards);
    }
    View {
        title: doc.title.clone(),
        globals: doc.globals.clone(),
        subckts: doc
            .subckts
            .iter()
            .map(|d| (d.name.clone(), d.ports.clone()))
            .collect(),
        top_cards: doc.top_card_count(),
        cards,
    }
}

/// An error's text and, where it has one, its line.
fn failure(e: &SpiceError) -> (String, Option<usize>) {
    let line = match *e {
        SpiceError::Parse { line, .. } | SpiceError::UnmatchedEnds { line } => Some(line),
        _ => None,
    };
    (e.to_string(), line)
}

/// Parses `deck` with the crate's tokenizer and its plain rewrite from
/// the reference model, and requires the same document or error.
fn check(deck: &str, what: &str) {
    let got = parse(deck).as_ref().map(view).map_err(failure);
    let lines = reference::logical_lines(deck);
    let plain = reference::plain(&lines);
    let mut want = parse(&plain).as_ref().map(view).map_err(failure);
    if let Ok(v) = &mut want {
        if v.title.is_some() {
            v.title = Some(reference::title(deck));
        }
    }
    assert_eq!(got, want, "{what}\ndeck: {deck:?}\nplain: {plain:?}");
}

/// Whitespace between tokens, as `char::is_whitespace` reads it.
const SEPARATORS: &[&str] = &[
    " ",
    " ",
    "  ",
    "\t",
    "\x0b",
    "\x0c",
    "\r",
    "\u{a0}",
    "\u{2028}",
    "\u{3000}",
    " \t\u{a0}",
];

/// Lines that carry no tokens.
const FILLERS: &[&str] = &[
    "",
    "* a comment",
    "   * indented comment ; with $ cuts",
    "\u{3000}* after a wide space",
    "; only a comment",
    "\t$ dollar comment é",
    "  \x0c  ",
];

/// Net names, some with non-ASCII bytes.
const NETS: &[&str] = &[
    "a",
    "b",
    "Out",
    "n1",
    "n2",
    "nΩ2",
    "vdd",
    "GND",
    "0",
    "x€",
    "mid",
    "Ünet",
    "q\u{feff}",
];

fn pick<'a>(rng: &mut Rng64, from: &[&'a str]) -> &'a str {
    from[rng.index(from.len())]
}

/// A token as a deck might spell it: random case.
fn spell(rng: &mut Rng64, tok: &str) -> String {
    if rng.ratio(1, 3) {
        tok.to_uppercase()
    } else {
        tok.to_string()
    }
}

/// Builds the logical content of one deck: its lines as token lists.
fn logical_deck(rng: &mut Rng64) -> Vec<Vec<String>> {
    let mut lines: Vec<Vec<String>> = Vec::new();
    let mut serial = 0;
    let mut name = |rng: &mut Rng64, kind: &str| {
        serial += 1;
        let tail = if rng.ratio(1, 6) { "é" } else { "" };
        spell(rng, &format!("{kind}{serial}{tail}"))
    };
    if rng.ratio(1, 3) {
        let words = ["My", "Amazing", "Chip", "Ünïcode", "v2", "=x"];
        let n = rng.range(1, 5);
        lines.push((0..n).map(|_| pick(rng, &words).to_string()).collect());
    }
    if rng.ratio(1, 2) {
        let mut g = vec![spell(rng, ".global")];
        for _ in 0..rng.range(1, 4) {
            let n = pick(rng, NETS);
            g.push(spell(rng, n));
        }
        lines.push(g);
    }
    let mut defined: Vec<(String, usize)> = Vec::new();
    for s in 0..rng.range(0, 3) {
        let cell = format!("cell{s}");
        let ports = rng.range(1, 4);
        let mut head = vec![spell(rng, ".subckt"), spell(rng, &cell)];
        head.extend((0..ports).map(|p| format!("p{p}")));
        if rng.ratio(1, 3) {
            head.push("k=1".into());
        }
        lines.push(head);
        for _ in 0..rng.range(1, 5) {
            let c = card(rng, &mut name, &defined);
            lines.push(c);
        }
        lines.push(vec![spell(rng, ".ends")]);
        defined.push((cell, ports));
    }
    for _ in 0..rng.range(2, 10) {
        let c = card(rng, &mut name, &defined);
        lines.push(c);
    }
    if rng.ratio(1, 5) {
        lines.push(vec![spell(rng, ".end")]);
        for _ in 0..rng.range(1, 3) {
            let c = card(rng, &mut name, &defined);
            lines.push(c);
        }
    }
    if rng.ratio(1, 6) {
        let broken: &[&[&str]] = &[
            &["M9", "a", "b"],
            &["M9", "a", "b", "c"],
            &["Zap", "a", "b"],
            &["é1", "a", "b"],
            &[".ends"],
            &[".subckt", "open", "a"],
            &[".include", "x.sp"],
            &["R9", "a"],
            &["X9", "a"],
            &["Q9", "c", "b", "npn"],
        ];
        let at = rng.range(0, lines.len() + 1);
        let b = broken[rng.index(broken.len())];
        lines.insert(at, b.iter().map(|t| spell(rng, t)).collect());
    }
    lines
}

/// One element card, its name minted by `name`.
fn card(
    rng: &mut Rng64,
    name: &mut impl FnMut(&mut Rng64, &str) -> String,
    defined: &[(String, usize)],
) -> Vec<String> {
    let net = |rng: &mut Rng64| {
        if rng.ratio(1, 40) {
            // A cut character inside a token ends the line there.
            format!("n{}1", pick(rng, &["$", ";"]))
        } else {
            let n = pick(rng, NETS);
            spell(rng, n)
        }
    };
    let mut c = Vec::new();
    match rng.range(0, 6) {
        0 => {
            c.push(name(rng, "m"));
            for _ in 0..rng.range(3, 5) {
                c.push(net(rng));
            }
            let model = pick(rng, &["nch", "pch", "nmos", "pmos"]);
            c.push(spell(rng, model));
            if rng.ratio(1, 2) {
                let param = pick(rng, &["W=2u", "l=1u", "m=2"]);
                c.push(spell(rng, param));
            }
        }
        1 => {
            let kind = pick(rng, &["r", "c", "l"]);
            c.push(name(rng, kind));
            c.push(net(rng));
            c.push(net(rng));
            c.push(pick(rng, &["10k", "1p", "2.5u", "-1", "+2"]).to_string());
        }
        2 => {
            c.push(name(rng, "d"));
            c.push(net(rng));
            c.push(net(rng));
            if rng.ratio(2, 3) {
                let model = pick(rng, &["dfast", "dslow", "1e-9", ".5"]);
                c.push(spell(rng, model));
            }
        }
        3 => {
            c.push(name(rng, "q"));
            for _ in 0..rng.range(3, 5) {
                c.push(net(rng));
            }
            let model = pick(rng, &["npn", "pnp"]);
            c.push(spell(rng, model));
        }
        _ if !defined.is_empty() => {
            let (cell, ports) = &defined[rng.index(defined.len())];
            c.push(name(rng, "x"));
            for _ in 0..*ports {
                c.push(net(rng));
            }
            c.push(spell(rng, cell));
            if rng.ratio(1, 3) {
                c.push("m=2".into());
            }
        }
        _ => {
            c.push(name(rng, "r"));
            c.push(net(rng));
            c.push(net(rng));
        }
    }
    c
}

/// Writes logical lines as a hostile deck: random separators, line
/// ends, comments, fillers and continuations.
fn hostile(rng: &mut Rng64, lines: &[Vec<String>]) -> String {
    let crlf = rng.ratio(1, 2);
    let mut out = String::new();
    let end = |rng: &mut Rng64, out: &mut String| {
        if crlf || rng.ratio(1, 10) {
            out.push_str("\r\n");
        } else {
            out.push('\n');
        }
    };
    let filler = |rng: &mut Rng64, out: &mut String| {
        while rng.ratio(1, 4) {
            out.push_str(pick(rng, FILLERS));
            end(rng, out);
        }
    };
    if rng.ratio(1, 10) {
        // A stray `+` before any line it could continue.
        out.push_str("+ stray Words");
        end(rng, &mut out);
    }
    for line in lines {
        filler(rng, &mut out);
        if rng.ratio(1, 4) {
            out.push_str(pick(rng, SEPARATORS));
        }
        for (i, tok) in line.iter().enumerate() {
            if i > 0 {
                if rng.ratio(1, 5) {
                    // Continue the logical line on a new physical line.
                    end(rng, &mut out);
                    filler(rng, &mut out);
                    if rng.ratio(1, 3) {
                        out.push_str(pick(rng, SEPARATORS));
                    }
                    out.push('+');
                    if rng.ratio(2, 3) {
                        out.push_str(pick(rng, SEPARATORS));
                    }
                } else {
                    out.push_str(pick(rng, SEPARATORS));
                }
            }
            out.push_str(tok);
        }
        if rng.ratio(1, 4) {
            out.push_str(pick(rng, SEPARATORS));
            out.push_str(pick(rng, &["; trailing", "$ trailing ñ", ";", "$"]));
        }
        if rng.ratio(1, 8) {
            // An empty continuation.
            end(rng, &mut out);
            out.push('+');
        }
        end(rng, &mut out);
    }
    filler(rng, &mut out);
    if rng.ratio(1, 5) {
        // No line end after the last line.
        while out.ends_with(['\n', '\r']) {
            out.pop();
        }
    }
    out
}

#[test]
fn seeded_hostile_decks_tokenize_as_the_reference_model_does() {
    for case in 0..2_000u64 {
        let mut rng = Rng64::new(0x704e_2e00 + case);
        let lines = logical_deck(&mut rng);
        let deck = hostile(&mut rng, &lines);
        check(&deck, &format!("case {case}"));
    }
}

#[test]
fn hand_written_edges_tokenize_as_the_reference_model_does() {
    let decks = [
        "",
        "\n\n",
        "* only a comment",
        "My Title\r\n+ Continued  Here\r\n+\r\nR1 a b 1\r\n",
        "Your Chip\n\n+ Second  Part\n+\nR1 a b 1\n",
        "+ stray a b\nR1 a b\n",
        "\n+ stray a b\nR1 a b\n",
        "   * indented comment\nM1 a b c nch\n",
        "\u{3000}*\u{a0}wide comment\nM1\u{3000}a\u{a0}b\u{2028}c\x0bnch\x0c\n",
        "M1 a b c\r\n* gap\r\n\r\n; cut\r\n+ nch W=2u\r\n",
        "M1 a b c nch\rR2 d e\n",
        "R1 a$b c\nR2 a;b c\n",
        "R1 né ñ 1\nD1 a b dΩ\n",
        "R1 a b\n.END\n+ more\nZap\n",
        ".subckt inv a y k=v\nMp y a vdd vdd pch\nMn y a gnd gnd nch\n.ends\nXi1 x z inv m=2\n",
        ".subckt inv a y\nMp y a vdd vdd pch\n",
        "R1 a b\n.ends\n",
        "R1 a b 1\nM1 a b\n",
        "R1 a b\n\u{e9}1 a b\n",
        "R1 a b 1\r",
        "R1 a b 1\r\r\n",
        "R1 a\u{85}b c\n",
        ".global vdd\u{3000}gnd\n.global x=1\n",
    ];
    for (i, deck) in decks.iter().enumerate() {
        check(deck, &format!("hand-written deck {i}"));
    }
}
