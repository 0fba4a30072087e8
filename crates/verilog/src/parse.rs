//! Recursive-descent parser for the structural subset.

use crate::ast::{Conns, Dir, Instance, Module, Source};
use crate::error::VerilogError;
use crate::lex::{lex, Tok, Token};

struct Parser<'s> {
    toks: Vec<Token<'s>>,
    pos: usize,
    anon: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<&Token<'s>> {
        self.toks.get(self.pos)
    }

    fn line(&self) -> usize {
        self.peek()
            .map_or_else(|| self.toks.last().map_or(1, |t| t.line), |t| t.line)
    }

    fn err(&self, detail: impl Into<String>) -> VerilogError {
        VerilogError::Parse {
            line: self.line(),
            detail: detail.into(),
        }
    }

    fn next_ident(&mut self, what: &str) -> Result<String, VerilogError> {
        match self.toks.get(self.pos) {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) => {
                self.pos += 1;
                Ok(s.to_string())
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn eat_sym(&mut self, c: char) -> Result<(), VerilogError> {
        match self.peek() {
            Some(Token {
                tok: Tok::Sym(s), ..
            }) if *s == c => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected `{c}`"))),
        }
    }

    fn try_sym(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Token { tok: Tok::Sym(s), .. }) if *s == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident_list(&mut self) -> Result<Vec<String>, VerilogError> {
        let mut names = vec![self.next_ident("identifier")?];
        while self.try_sym(',') {
            names.push(self.next_ident("identifier")?);
        }
        Ok(names)
    }

    fn parse_module(&mut self) -> Result<Module, VerilogError> {
        let mut m = Module {
            name: self.next_ident("module name")?,
            ..Module::default()
        };
        // Header port list (ANSI or plain).
        if self.try_sym('(') && !self.try_sym(')') {
            {
                loop {
                    let first = self.next_ident("port")?;
                    match first.as_str() {
                        "input" | "output" | "inout" => {
                            let dir = match first.as_str() {
                                "input" => Dir::Input,
                                "output" => Dir::Output,
                                _ => Dir::Inout,
                            };
                            // `wire` qualifier allowed: `input wire a`.
                            let mut name = self.next_ident("port name")?;
                            if name == "wire" {
                                name = self.next_ident("port name")?;
                            }
                            m.ports.push(name);
                            m.dirs.push(dir);
                            // Continuation names keep the direction.
                            while self.try_sym(',') {
                                // A following direction keyword starts a
                                // new group; plain idents continue this
                                // one.
                                if let Some(Token {
                                    tok: Tok::Ident(s), ..
                                }) = self.peek()
                                {
                                    if matches!(*s, "input" | "output" | "inout") {
                                        self.pos -= 0; // fallthrough to outer loop
                                        break;
                                    }
                                }
                                if matches!(
                                    self.peek(),
                                    Some(Token {
                                        tok: Tok::Sym(')'),
                                        ..
                                    })
                                ) {
                                    break;
                                }
                                let name = self.next_ident("port name")?;
                                m.ports.push(name);
                                m.dirs.push(dir);
                            }
                            if matches!(
                                self.peek(),
                                Some(Token {
                                    tok: Tok::Sym(')'),
                                    ..
                                })
                            ) {
                                self.pos += 1;
                                break;
                            }
                            // Otherwise the loop continues with the next
                            // direction keyword (already positioned).
                            continue;
                        }
                        _ => {
                            // Plain (non-ANSI) port list; directions come
                            // from body declarations.
                            m.ports.push(first);
                            m.dirs.push(Dir::Inout);
                            while self.try_sym(',') {
                                m.ports.push(self.next_ident("port")?);
                                m.dirs.push(Dir::Inout);
                            }
                            self.eat_sym(')')?;
                            break;
                        }
                    }
                }
            }
        }
        self.eat_sym(';')?;
        // Body.
        loop {
            let line = self.line();
            let word = self.next_ident("statement or `endmodule`")?;
            match word.as_str() {
                "endmodule" => break,
                "wire" => {
                    m.wires.extend(self.ident_list()?);
                    self.eat_sym(';')?;
                }
                "supply0" => {
                    m.supply0.extend(self.ident_list()?);
                    self.eat_sym(';')?;
                }
                "supply1" => {
                    m.supply1.extend(self.ident_list()?);
                    self.eat_sym(';')?;
                }
                "input" | "output" | "inout" => {
                    // Non-ANSI direction declaration: update dirs.
                    let dir = match word.as_str() {
                        "input" => Dir::Input,
                        "output" => Dir::Output,
                        _ => Dir::Inout,
                    };
                    for name in self.ident_list()? {
                        if let Some(pos) = m.ports.iter().position(|p| *p == name) {
                            m.dirs[pos] = dir;
                        } else {
                            return Err(VerilogError::Parse {
                                line,
                                detail: format!("`{name}` declared {word} but not a port"),
                            });
                        }
                    }
                    self.eat_sym(';')?;
                }
                "assign" | "always" | "initial" | "reg" | "parameter" | "specify" | "generate"
                | "function" | "task" => {
                    return Err(VerilogError::Unsupported {
                        line,
                        construct: word,
                    });
                }
                module => {
                    // Instance: MODULE [NAME] ( conns ) ;
                    let name = if matches!(
                        self.peek(),
                        Some(Token {
                            tok: Tok::Sym('('),
                            ..
                        })
                    ) {
                        self.anon += 1;
                        format!("_g{}", self.anon)
                    } else {
                        self.next_ident("instance name")?
                    };
                    self.eat_sym('(')?;
                    let conns = self.parse_conns()?;
                    self.eat_sym(';')?;
                    m.instances.push(Instance {
                        module: module.to_string(),
                        name,
                        conns,
                        line,
                    });
                }
            }
        }
        Ok(m)
    }

    fn parse_conns(&mut self) -> Result<Conns, VerilogError> {
        if self.try_sym(')') {
            return Ok(Conns::Positional(Vec::new()));
        }
        if matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Sym('.'),
                ..
            })
        ) {
            let mut named = Vec::new();
            loop {
                self.eat_sym('.')?;
                let port = self.next_ident("port name")?;
                self.eat_sym('(')?;
                let net = self.next_ident("net name")?;
                self.eat_sym(')')?;
                named.push((port, net));
                if !self.try_sym(',') {
                    break;
                }
            }
            self.eat_sym(')')?;
            Ok(Conns::Named(named))
        } else {
            let nets = self.ident_list()?;
            self.eat_sym(')')?;
            Ok(Conns::Positional(nets))
        }
    }
}

/// Parses structural Verilog source text.
///
/// # Errors
///
/// Syntax errors and unsupported constructs, with source lines.
///
/// # Examples
///
/// ```
/// let src = subgemini_verilog::parse(
///     "module top(input a, b, output y);\n\
///        wire w;\n\
///        nand g1(w, a, b);\n\
///        not  g2(y, w);\n\
///      endmodule\n",
/// )?;
/// assert_eq!(src.modules.len(), 1);
/// assert_eq!(src.modules[0].instances.len(), 2);
/// # Ok::<(), subgemini_verilog::VerilogError>(())
/// ```
pub fn parse(text: &str) -> Result<Source, VerilogError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        anon: 0,
    };
    let mut src = Source::default();
    while let Some(t) = p.peek() {
        match &t.tok {
            Tok::Ident("module") => {
                p.pos += 1;
                src.modules.push(p.parse_module()?);
            }
            _ => {
                return Err(p.err("expected `module`"));
            }
        }
    }
    Ok(src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ansi_header_with_mixed_directions() {
        let src = parse("module m(input a, b, output wire y, inout z);\nendmodule\n").unwrap();
        let m = &src.modules[0];
        assert_eq!(m.ports, vec!["a", "b", "y", "z"]);
        assert_eq!(
            m.dirs,
            vec![Dir::Input, Dir::Input, Dir::Output, Dir::Inout]
        );
    }

    #[test]
    fn non_ansi_ports_pick_up_directions() {
        let src = parse("module m(a, y);\ninput a;\noutput y;\nwire w;\nendmodule\n").unwrap();
        let m = &src.modules[0];
        assert_eq!(m.dirs, vec![Dir::Input, Dir::Output]);
        assert_eq!(m.wires, vec!["w"]);
    }

    #[test]
    fn named_and_positional_instances() {
        let src = parse(
            "module top(input a, output y);\nwire w;\n\
             inv u1(.a(a), .y(w));\n\
             inv u2(w, y);\n\
             nand (y, a, w);\nendmodule\n",
        )
        .unwrap();
        let m = &src.modules[0];
        assert_eq!(m.instances.len(), 3);
        assert!(matches!(m.instances[0].conns, Conns::Named(_)));
        assert!(matches!(m.instances[1].conns, Conns::Positional(_)));
        assert_eq!(m.instances[2].name, "_g1"); // anonymous primitive
    }

    #[test]
    fn supplies_are_recorded() {
        let src = parse("module m(a);\nsupply1 vdd;\nsupply0 gnd, vss;\nendmodule\n").unwrap();
        let m = &src.modules[0];
        assert_eq!(m.supply1, vec!["vdd"]);
        assert_eq!(m.supply0, vec!["gnd", "vss"]);
    }

    #[test]
    fn behavioral_constructs_rejected() {
        let err = parse("module m(a);\nassign a = a;\nendmodule\n").unwrap_err();
        assert!(matches!(err, VerilogError::Unsupported { line: 2, .. }));
    }

    #[test]
    fn stray_text_rejected() {
        assert!(parse("wire w;\n").is_err());
    }

    #[test]
    fn undeclared_direction_target_rejected() {
        let err = parse("module m(a);\ninput b;\nendmodule\n").unwrap_err();
        assert!(matches!(err, VerilogError::Parse { .. }));
    }
}
