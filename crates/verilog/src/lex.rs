//! Tokenizer for the structural Verilog subset.
//!
//! It reads the source's bytes: ASCII bytes by value, and a non-ASCII
//! byte decoded to the character it starts, so whitespace is what
//! `char::is_whitespace` accepts. Identifiers are slices of the source.

use crate::error::VerilogError;

/// A lexical token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'s> {
    /// Identifier or keyword, a slice of the source (an escaped
    /// identifier without its backslash).
    Ident(&'s str),
    /// Single punctuation character: `( ) ; , . =`.
    Sym(char),
}

/// A token with its source line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'s> {
    /// The token.
    pub tok: Tok<'s>,
    /// 1-based source line.
    pub line: usize,
}

/// The character that starts at byte `at` of `src`, and its length.
fn char_at(src: &str, at: usize) -> (char, usize) {
    let c = src[at..].chars().next().expect("inside the source");
    (c, c.len_utf8())
}

/// The byte offset of the `\n` that ends the line holding byte `at`, or
/// the source's length.
fn line_end(src: &str, at: usize) -> usize {
    src[at..].find('\n').map_or(src.len(), |k| at + k)
}

/// Tokenizes `src`, skipping whitespace, `//` and `/* */` comments, and
/// compiler directives (backtick to end of line).
///
/// # Errors
///
/// Rejects characters outside the structural subset (notably `[`, which
/// would start a vector range).
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, VerilogError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let bytes = src.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => i = line_end(src, i),
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            b'`' => i = line_end(src, i),
            b'(' | b')' | b';' | b',' | b'.' | b'=' => {
                out.push(Token {
                    tok: Tok::Sym(b as char),
                    line,
                });
                i += 1;
            }
            b'\\' => {
                // Escaped identifier: up to whitespace.
                let start = i + 1;
                i = start;
                while i < bytes.len() {
                    let (c, len) = char_at(src, i);
                    if c.is_whitespace() {
                        break;
                    }
                    i += len;
                }
                out.push(Token {
                    tok: Tok::Ident(&src[start..i]),
                    line,
                });
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(&src[start..i]),
                    line,
                });
            }
            b if b.is_ascii_digit() => {
                return Err(VerilogError::Unsupported {
                    line,
                    construct: format!("numeric literal starting with `{}`", b as char),
                });
            }
            b'[' | b']' => {
                return Err(VerilogError::Unsupported {
                    line,
                    construct: "vector range `[...]` (scalar nets only)".into(),
                });
            }
            b'#' => {
                return Err(VerilogError::Unsupported {
                    line,
                    construct: "delay/parameter `#`".into(),
                });
            }
            _ => match char_at(src, i) {
                (c, len) if c.is_whitespace() => i += len,
                (other, _) => {
                    return Err(VerilogError::Parse {
                        line,
                        detail: format!("unexpected character `{other}`"),
                    });
                }
            },
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .unwrap()
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                Tok::Sym(_) => None,
            })
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let toks = lex("module m(a);\nendmodule\n").unwrap();
        assert_eq!(toks[0].tok, Tok::Ident("module"));
        assert_eq!(toks[2].tok, Tok::Sym('('));
        let last = toks.last().unwrap();
        assert_eq!(last.tok, Tok::Ident("endmodule"));
        assert_eq!(last.line, 2);
    }

    #[test]
    fn comments_and_directives_skipped() {
        let ids = idents("// c\n/* multi\nline */ `timescale 1ns/1ps\nwire w;\n");
        assert_eq!(ids, vec!["wire", "w"]);
    }

    #[test]
    fn escaped_identifiers() {
        let ids = idents("wire \\weird$name ;\n");
        assert_eq!(ids, vec!["wire", "weird$name"]);
    }

    #[test]
    fn vectors_rejected() {
        let err = lex("wire [3:0] bus;\n").unwrap_err();
        assert!(matches!(err, VerilogError::Unsupported { .. }));
    }

    #[test]
    fn delays_rejected() {
        assert!(lex("not #1 g(y, a);").is_err());
    }

    /// The lexer this one replaced, over the source's `char`s, restated:
    /// each token as text (`(` for a symbol, `id name` for an
    /// identifier) with its line.
    fn by_chars(src: &str) -> Result<Vec<(String, usize)>, VerilogError> {
        let mut out = Vec::new();
        let mut line = 1usize;
        let chars: Vec<char> = src.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            match c {
                '\n' => {
                    line += 1;
                    i += 1;
                }
                c if c.is_whitespace() => i += 1,
                '/' if chars.get(i + 1) == Some(&'/') => {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    i += 2;
                    while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i = (i + 2).min(chars.len());
                }
                '`' => {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                }
                '(' | ')' | ';' | ',' | '.' | '=' => {
                    out.push((c.to_string(), line));
                    i += 1;
                }
                c if c.is_ascii_alphabetic() || c == '_' || c == '\\' => {
                    let mut s = String::from("id ");
                    if c == '\\' {
                        i += 1;
                        while i < chars.len() && !chars[i].is_whitespace() {
                            s.push(chars[i]);
                            i += 1;
                        }
                    } else {
                        while i < chars.len()
                            && (chars[i].is_ascii_alphanumeric()
                                || chars[i] == '_'
                                || chars[i] == '$')
                        {
                            s.push(chars[i]);
                            i += 1;
                        }
                    }
                    out.push((s, line));
                }
                c if c.is_ascii_digit() => {
                    return Err(VerilogError::Unsupported {
                        line,
                        construct: format!("numeric literal starting with `{c}`"),
                    });
                }
                '[' | ']' => {
                    return Err(VerilogError::Unsupported {
                        line,
                        construct: "vector range `[...]` (scalar nets only)".into(),
                    });
                }
                '#' => {
                    return Err(VerilogError::Unsupported {
                        line,
                        construct: "delay/parameter `#`".into(),
                    });
                }
                other => {
                    return Err(VerilogError::Parse {
                        line,
                        detail: format!("unexpected character `{other}`"),
                    });
                }
            }
        }
        Ok(out)
    }

    #[test]
    fn seeded_sources_lex_as_the_char_lexer_did() {
        use subgemini_netlist::rng::Rng64;
        const PIECES: &[&str] = &[
            "module",
            "m_1",
            "a$b",
            "endmodule",
            "\\esc$[]",
            "\\é\u{3000}",
            "\\",
            "(",
            ")",
            ";",
            ",",
            ".",
            "=",
            " ",
            "\t",
            "\r\n",
            "\n",
            "\x0b",
            "\x0c",
            "\u{a0}",
            "\u{2028}",
            "\u{3000}",
            "\u{85}",
            "// line comment é\n",
            "/* block\n comment */",
            "/*/",
            "`define x\n",
        ];
        // Rare pieces: each fails the lexer where it stands, except the
        // open block comment, which swallows the rest.
        const BAD: &[&str] = &["/", "9", "[", "#", "é", "\u{feff}", "*", "/* open\n"];
        for case in 0..2_000u64 {
            let mut rng = Rng64::new(0x001e_c5e0 + case);
            let n = rng.range(0, 40);
            let src: String = (0..n)
                .map(|_| {
                    let from = if rng.ratio(1, 30) { BAD } else { PIECES };
                    from[rng.index(from.len())]
                })
                .collect();
            let got = lex(&src).map(|toks| {
                let text = |t: Token| match t.tok {
                    Tok::Ident(s) => format!("id {s}"),
                    Tok::Sym(c) => c.to_string(),
                };
                toks.into_iter()
                    .map(|t| (text(t), t.line))
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, by_chars(&src), "case {case}: {src:?}");
        }
    }
}
