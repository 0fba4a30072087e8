//! One-pass scanner and parser for the supported SPICE subset.
//!
//! Supported syntax:
//!
//! * element cards `M`, `R`, `C`, `L`, `D`, `Q`, `X` (names and nets are
//!   case-insensitive; everything is lowercased),
//! * `.subckt NAME port…` / `.ends`, `.global net…`, `.end`,
//! * `*` comment lines, `;`/`$` trailing comments, `+` continuations,
//! * `k=v` parameter tokens and trailing numeric values are skipped.
//!
//! The deck is lowercased once, and one scan over its bytes cuts the
//! comments, skips blank and `*` lines, joins `+` continuations and
//! emits each token's span, noting whether it holds an `=`. Tokens are
//! separated by whatever `char::is_whitespace` accepts: ASCII bytes are
//! classified by a table, and a non-ASCII byte is decoded to the
//! character it starts.

use crate::card::{Card, Span, SubcktDef};
use crate::error::SpiceError;

/// A parsed SPICE deck: top-level cards, subcircuit definitions, and
/// global net declarations.
///
/// The document owns one lowercased copy of the deck text; every card
/// token is a `u32` byte span into it, so cards hold no strings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpiceDoc {
    /// Title line, if the deck began with a non-card line.
    pub title: Option<String>,
    /// Subcircuit definitions in file order.
    pub subckts: Vec<SubcktDef>,
    /// Nets declared `.global`.
    pub globals: Vec<String>,
    /// Cards outside any `.subckt`.
    pub(crate) top: Vec<Card>,
    /// The deck, lowercased.
    text: String,
    /// Instance net lists, back to back; each `Card::Instance` holds a
    /// range of this table.
    nets: Vec<Span>,
}

impl SpiceDoc {
    /// Looks up a subcircuit definition by (case-insensitive) name.
    pub fn subckt(&self, name: &str) -> Option<&SubcktDef> {
        let name = name.to_ascii_lowercase();
        self.subckts.iter().find(|s| s.name == name)
    }

    /// Number of element cards outside any `.subckt`.
    pub fn top_card_count(&self) -> usize {
        self.top.len()
    }

    /// The (lowercased) text of a token.
    pub(crate) fn str(&self, span: Span) -> &str {
        &self.text[span.range()]
    }

    /// The nets of an instance card.
    pub(crate) fn instance_nets(&self, (start, end): (u32, u32)) -> &[Span] {
        &self.nets[start as usize..end as usize]
    }
}

/// A token of the logical line being collected.
#[derive(Clone, Copy, Debug)]
struct Token {
    span: Span,
    /// The token holds an `=`: a `k=v` parameter. The first one ends a
    /// card's nets.
    eq: bool,
}

// How the scanner reads a byte: `CLASS[b]` is one of these.
/// Token text.
const TEXT: u8 = 0;
/// ASCII whitespace other than `\n`: space, tab, VT, FF, CR.
const SPACE: u8 = 1;
/// `\n`, or `;`/`$`, which cuts the rest of the line: ends a token.
const STOP: u8 = 2;
/// `=`: token text that makes the token a parameter.
const EQ: u8 = 3;
/// A non-ASCII byte: the character it starts decides.
const WIDE: u8 = 4;

const CLASS: [u8; 256] = {
    let mut class = [TEXT; 256];
    class[b' ' as usize] = SPACE;
    class[b'\t' as usize] = SPACE;
    class[0x0b] = SPACE;
    class[0x0c] = SPACE;
    class[b'\r' as usize] = SPACE;
    class[b'\n' as usize] = STOP;
    class[b';' as usize] = STOP;
    class[b'$' as usize] = STOP;
    class[b'=' as usize] = EQ;
    let mut b = 0x80;
    while b < 256 {
        class[b] = WIDE;
        b += 1;
    }
    class
};

/// A position in the lowercased deck, moving forward only.
struct Scanner<'t> {
    text: &'t str,
    pos: usize,
}

impl Scanner<'_> {
    /// The non-ASCII character at `pos`: whether it is whitespace, and
    /// its length.
    fn wide(&self) -> (bool, usize) {
        let c = self.text[self.pos..]
            .chars()
            .next()
            .expect("inside the deck");
        (c.is_whitespace(), c.len_utf8())
    }

    /// Skips whitespace within the line; returns the byte it stops at,
    /// or `None` at the end of the deck.
    fn skip_space(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match CLASS[b as usize] {
                SPACE => self.pos += 1,
                WIDE => match self.wide() {
                    (true, len) => self.pos += len,
                    (false, _) => return Some(b),
                },
                _ => return Some(b),
            }
        }
        None
    }

    /// Moves past the next `\n`, or to the end of the deck.
    fn next_line(&mut self) {
        self.pos = match self.text[self.pos..].find('\n') {
            Some(at) => self.pos + at + 1,
            None => self.text.len(),
        };
    }

    /// The token that starts at `pos`, moving past it.
    fn token(&mut self) -> Token {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut eq = false;
        while let Some(&b) = bytes.get(self.pos) {
            match CLASS[b as usize] {
                TEXT => self.pos += 1,
                EQ => {
                    eq = true;
                    self.pos += 1;
                }
                WIDE => match self.wide() {
                    (false, len) => self.pos += len,
                    (true, _) => break,
                },
                _ => break,
            }
        }
        Token {
            span: Span {
                start: start as u32,
                end: self.pos as u32,
            },
            eq,
        }
    }

    /// Appends the rest of the line's tokens to `toks`, up to a `;`/`$`
    /// comment, and moves past the line's end.
    fn tokens(&mut self, toks: &mut Vec<Token>) {
        loop {
            match self.skip_space() {
                None => return,
                Some(b'\n') => {
                    self.pos += 1;
                    return;
                }
                Some(b';' | b'$') => {
                    self.next_line();
                    return;
                }
                Some(_) => toks.push(self.token()),
            }
        }
    }
}

/// True for a bare numeric value (`10k`, `2.5u`, `1e-9`, `.5`, `-1`).
fn is_value(tok: &str) -> bool {
    tok.as_bytes()
        .first()
        .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+'))
}

fn parse_err(line: usize, detail: impl Into<String>) -> SpiceError {
    SpiceError::Parse {
        line,
        detail: detail.into(),
    }
}

/// What the line loop does after a logical line.
enum Flow {
    Continue,
    /// `.end`: ignore the rest of the deck.
    Stop,
}

/// Parser state: the document under construction and the tokens of the
/// logical line being collected.
struct Parser<'t> {
    /// The deck as given (for the title, which keeps its case).
    original: &'t str,
    /// The deck, lowercased; spans index it. Moves into `doc.text` at
    /// the end.
    text: &'t str,
    doc: SpiceDoc,
    current: Option<SubcktDef>,
    /// Tokens of the pending logical line, continuations appended.
    toks: Vec<Token>,
    /// Physical line the pending logical line started on (1-based).
    line: usize,
    /// No logical line has been finished yet.
    first: bool,
    /// While `first`: where each physical line's tokens start in `toks`.
    title_lines: Vec<usize>,
}

impl<'t> Parser<'t> {
    fn str(&self, span: Span) -> &'t str {
        &self.text[span.range()]
    }

    /// The title the first logical line makes: each of its physical
    /// lines from its first token to its last, in the deck's own case,
    /// joined by single spaces.
    fn title(&self) -> String {
        let starts = &self.title_lines;
        let ends = starts[1..].iter().copied().chain([self.toks.len()]);
        let lines: Vec<&str> = starts
            .iter()
            .zip(ends)
            .map(|(&from, to)| match self.toks[from..to] {
                [] => "",
                [first, ..] => {
                    let last = self.toks[to - 1];
                    &self.original[first.span.start as usize..last.span.end as usize]
                }
            })
            .collect();
        lines.join(" ")
    }

    /// Interprets the pending logical line.
    fn finish(&mut self) -> Result<Flow, SpiceError> {
        let line = self.line;
        let first = std::mem::replace(&mut self.first, false);
        let head = self.str(self.toks[0].span);
        if head.starts_with('.') {
            return self.dot_command(head, line);
        }
        // A first logical line that does not parse as a card is the
        // traditional SPICE title line.
        let card = match self.card(line) {
            Ok(card) => card,
            Err(_) if first && line == 1 => {
                self.doc.title = Some(self.title());
                return Ok(Flow::Continue);
            }
            Err(e) => return Err(e),
        };
        match &mut self.current {
            Some(def) => def.cards.push(card),
            None => self.doc.top.push(card),
        }
        Ok(Flow::Continue)
    }

    fn dot_command(&mut self, head: &str, line: usize) -> Result<Flow, SpiceError> {
        let toks = &self.toks;
        let text = self.text;
        let owned = |t: &Token| text[t.span.range()].to_string();
        match head {
            ".subckt" => {
                if self.current.is_some() {
                    return Err(parse_err(line, "nested .subckt is not supported"));
                }
                if toks.len() < 2 {
                    return Err(parse_err(line, ".subckt needs a name"));
                }
                self.current = Some(SubcktDef {
                    name: owned(&toks[1]),
                    ports: toks[2..].iter().filter(|t| !t.eq).map(owned).collect(),
                    cards: Vec::new(),
                });
            }
            ".ends" => match self.current.take() {
                Some(def) => self.doc.subckts.push(def),
                None => return Err(SpiceError::UnmatchedEnds { line }),
            },
            ".global" => self.doc.globals.extend(toks[1..].iter().map(owned)),
            ".end" => return Ok(Flow::Stop),
            ".include" | ".inc" | ".lib" => {
                return Err(parse_err(
                    line,
                    "includes must be resolved first; use parse_file for on-disk decks",
                ));
            }
            _ => {} // .model, .param, .option, analyses: ignored
        }
        Ok(Flow::Continue)
    }

    fn card(&mut self, line: usize) -> Result<Card, SpiceError> {
        let text = self.text;
        let s = |t: Span| &text[t.range()];
        let name = self.toks[0].span;
        let kind = s(name).chars().next().expect("token is non-empty");
        // Nets/model tokens: everything after the name up to the first
        // parameter.
        let argc = self.toks[1..].iter().take_while(|t| !t.eq).count();
        let args = &self.toks[1..=argc];
        let name_str = s(name);
        match kind {
            'm' => {
                // M d g s [b] model — bulk present when ≥5 structural args.
                let model = match args.len() {
                    0..=2 => {
                        return Err(parse_err(
                            line,
                            format!("MOS card `{name_str}` is too short"),
                        ))
                    }
                    3 => {
                        return Err(parse_err(
                            line,
                            format!("MOS card `{name_str}` lacks a model"),
                        ))
                    }
                    4 => args[3].span,
                    _ => args[4].span, // 4-terminal form: skip the bulk node
                };
                Ok(Card::Mos {
                    name,
                    drain: args[0].span,
                    gate: args[1].span,
                    source: args[2].span,
                    model,
                })
            }
            'r' | 'c' | 'l' => {
                if args.len() < 2 {
                    return Err(parse_err(line, format!("card `{name_str}` needs two nets")));
                }
                let kind = match kind {
                    'r' => "res",
                    'c' => "cap",
                    _ => "ind",
                };
                Ok(Card::TwoTerminal {
                    name,
                    kind,
                    a: args[0].span,
                    b: args[1].span,
                })
            }
            'd' => {
                if args.len() < 2 {
                    return Err(parse_err(
                        line,
                        format!("diode `{name_str}` needs two nets"),
                    ));
                }
                let model = args
                    .get(2)
                    .map(|t| t.span)
                    .filter(|&t| !is_value(s(t)))
                    .unwrap_or_default();
                Ok(Card::Diode {
                    name,
                    p: args[0].span,
                    n: args[1].span,
                    model,
                })
            }
            'q' => {
                if args.len() < 4 {
                    return Err(parse_err(
                        line,
                        format!("BJT `{name_str}` needs c b e and a model"),
                    ));
                }
                // Optional substrate node: model is the last non-value token.
                Ok(Card::Bjt {
                    name,
                    c: args[0].span,
                    b: args[1].span,
                    e: args[2].span,
                    model: args[args.len() - 1].span,
                })
            }
            'x' => {
                if args.len() < 2 {
                    return Err(parse_err(
                        line,
                        format!("instance `{name_str}` needs nets and a subcircuit name"),
                    ));
                }
                let (nets, subckt) = args.split_at(args.len() - 1);
                let table = &mut self.doc.nets;
                let start = table.len() as u32;
                table.extend(nets.iter().map(|t| t.span));
                Ok(Card::Instance {
                    name,
                    nets: (start, table.len() as u32),
                    subckt: subckt[0].span,
                })
            }
            other => Err(parse_err(line, format!("unsupported element `{other}`"))),
        }
    }
}

/// Parses a SPICE deck from text.
///
/// # Errors
///
/// Returns a [`SpiceError`] describing the first syntactic problem, with
/// its source line. Decks over 4 GiB are rejected (line 0).
///
/// # Examples
///
/// ```
/// let doc = subgemini_spice::parse(
///     "* tiny deck\n\
///      .global vdd gnd\n\
///      .subckt inv a y\n\
///      Mp y a vdd vdd pch W=2u\n\
///      Mn y a gnd gnd nch\n\
///      .ends\n\
///      Xu1 in out inv\n",
/// )?;
/// assert_eq!(doc.subckts.len(), 1);
/// assert_eq!(doc.top_card_count(), 1);
/// assert_eq!(doc.globals, vec!["vdd", "gnd"]);
/// # Ok::<(), subgemini_spice::SpiceError>(())
/// ```
pub fn parse(text: &str) -> Result<SpiceDoc, SpiceError> {
    check_len(text.len())?;
    let lower = text.to_ascii_lowercase();
    let mut p = Parser {
        original: text,
        text: &lower,
        doc: SpiceDoc::default(),
        current: None,
        toks: Vec::new(),
        line: 0,
        first: true,
        title_lines: Vec::new(),
    };
    let mut s = Scanner {
        text: &lower,
        pos: 0,
    };
    let mut pending = false;
    let mut line = 0;
    // One physical line per turn.
    while s.pos < lower.len() {
        line += 1;
        match s.skip_space() {
            None => break,
            Some(b'\n') => {
                s.pos += 1;
                continue;
            }
            Some(b'*' | b';' | b'$') => {
                s.next_line();
                continue;
            }
            Some(b'+') if pending => s.pos += 1,
            Some(_) => {
                if pending {
                    if let Flow::Stop = p.finish()? {
                        pending = false;
                        break;
                    }
                }
                p.toks.clear();
                p.line = line;
                pending = true;
            }
        }
        if p.first {
            p.title_lines.push(p.toks.len());
        }
        s.tokens(&mut p.toks);
    }
    if pending {
        p.finish()?;
    }
    if let Some(def) = p.current {
        return Err(SpiceError::UnclosedSubckt { name: def.name });
    }
    let mut doc = p.doc;
    doc.text = lower;
    Ok(doc)
}

/// Spans are `u32` byte offsets, so a deck may be at most 4 GiB.
fn check_len(len: usize) -> Result<(), SpiceError> {
    if u32::try_from(len).is_err() {
        return Err(parse_err(
            0,
            format!("deck is {len} bytes; decks over 4 GiB are not supported"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The token texts of a card, name first, in field order.
    fn fields(doc: &SpiceDoc, card: &Card) -> Vec<String> {
        let spans = match *card {
            Card::Mos {
                name,
                drain,
                gate,
                source,
                model,
            } => vec![name, drain, gate, source, model],
            Card::TwoTerminal { name, a, b, .. } => vec![name, a, b],
            Card::Diode { name, p, n, model } => vec![name, p, n, model],
            Card::Bjt {
                name,
                c,
                b,
                e,
                model,
            } => vec![name, c, b, e, model],
            Card::Instance { name, nets, subckt } => {
                let mut v = vec![name];
                v.extend_from_slice(doc.instance_nets(nets));
                v.push(subckt);
                v
            }
        };
        spans.into_iter().map(|t| doc.str(t).to_string()).collect()
    }

    #[test]
    fn comments_continuations_and_title() {
        let doc = parse(
            "my amazing chip\n\
             * a comment\n\
             Mn1 out in\n\
             + gnd gnd nch W=2u ; trailing\n",
        )
        .unwrap();
        assert_eq!(doc.title.as_deref(), Some("my amazing chip"));
        assert_eq!(doc.top.len(), 1);
        assert!(matches!(doc.top[0], Card::Mos { .. }));
        assert_eq!(
            fields(&doc, &doc.top[0]),
            ["mn1", "out", "in", "gnd", "nch"]
        );
    }

    #[test]
    fn title_keeps_case_and_joins_continuations() {
        let doc = parse("Your Chip\n\n+ Second  Part\n+\nR1 a b 1\n").unwrap();
        assert_eq!(doc.title.as_deref(), Some("Your Chip Second  Part "));
        assert_eq!(doc.top.len(), 1);
    }

    #[test]
    fn mos_with_bulk_node() {
        let doc = parse("Mp1 y a vdd vdd pch\n").unwrap();
        assert_eq!(fields(&doc, &doc.top[0]), ["mp1", "y", "a", "vdd", "pch"]);
    }

    #[test]
    fn rc_cards_skip_values() {
        let doc = parse("R1 a b 10k\nC2 b 0 1p\n").unwrap();
        assert_eq!(doc.top.len(), 2);
        assert!(matches!(&doc.top[0], Card::TwoTerminal { kind: "res", .. }));
        assert!(matches!(&doc.top[1], Card::TwoTerminal { kind: "cap", .. }));
        assert_eq!(fields(&doc, &doc.top[1]), ["c2", "b", "0"]);
    }

    #[test]
    fn subckt_blocks_collect_cards() {
        let doc =
            parse(".subckt inv a y\nMp y a vdd vdd p\nMn y a gnd gnd n\n.ends\nXi1 x z inv\n")
                .unwrap();
        assert_eq!(doc.subckts.len(), 1);
        let inv = doc.subckt("INV").unwrap();
        assert_eq!(inv.ports, vec!["a", "y"]);
        assert_eq!(inv.cards.len(), 2);
        assert!(matches!(doc.top[0], Card::Instance { .. }));
        assert_eq!(fields(&doc, &doc.top[0]), ["xi1", "x", "z", "inv"]);
    }

    #[test]
    fn continuations_append_instance_nets() {
        let doc = parse("* t\nXi1 a\n* gap\n+ b ; c\n+ c inv m=2\nXi2 d inv\n").unwrap();
        assert_eq!(fields(&doc, &doc.top[0]), ["xi1", "a", "b", "c", "inv"]);
        assert_eq!(fields(&doc, &doc.top[1]), ["xi2", "d", "inv"]);
    }

    #[test]
    fn diode_and_bjt() {
        let doc = parse("D1 anode cathode dfast\nQ3 c b e npn\nD2 a k 1e-9\n").unwrap();
        assert_eq!(
            fields(&doc, &doc.top[0]),
            ["d1", "anode", "cathode", "dfast"]
        );
        assert_eq!(fields(&doc, &doc.top[1]), ["q3", "c", "b", "e", "npn"]);
        assert_eq!(fields(&doc, &doc.top[2]), ["d2", "a", "k", ""]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("* ok\nMbad a b\n").unwrap_err();
        match err {
            SpiceError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unclosed_subckt_detected() {
        let err = parse(".subckt inv a y\nMn y a gnd gnd n\n").unwrap_err();
        assert!(matches!(err, SpiceError::UnclosedSubckt { name } if name == "inv"));
    }

    #[test]
    fn unmatched_ends_detected() {
        let err = parse("Mn y a gnd gnd n\n.ends\n").unwrap_err();
        assert!(matches!(err, SpiceError::UnmatchedEnds { line: 2 }));
    }

    #[test]
    fn dot_end_stops_parsing() {
        let doc = parse("R1 a b 1\n.end\nR2 c d 2\n").unwrap();
        assert_eq!(doc.top.len(), 1);
    }

    #[test]
    fn unknown_element_rejected() {
        let err = parse("Zap a b c\n* not a title because of second line rule\n");
        // First line is treated as title; an element on line 2 that is
        // unknown must error.
        assert!(err.is_ok());
        let err = parse("R1 a b\nZap a b c\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { line: 2, .. }));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn decks_over_4_gib_are_a_parse_error() {
        assert!(check_len(u32::MAX as usize).is_ok());
        let err = check_len(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, SpiceError::Parse { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("4 GiB"), "{err}");
    }
}
