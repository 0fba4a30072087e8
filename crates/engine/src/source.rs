//! Netlist source loading: file- and text-based parsing plus main/cell
//! elaboration, shared by every engine front end. Files (or source
//! names) ending in `.v` or `.sv` load through the structural Verilog
//! parser; everything else is treated as SPICE (file loads resolve
//! `.include`).

use subgemini_netlist::{ElaborateOptions, Netlist};
use subgemini_spice::{parse as sparse, parse_file, SpiceDoc};
use subgemini_verilog::{parse as vparse, Source};

/// Which parser a source goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// A SPICE deck.
    Spice,
    /// A structural Verilog source.
    Verilog,
}

impl SourceKind {
    /// Dispatch on file extension: `.v`/`.sv` is Verilog, everything
    /// else SPICE.
    fn from_path(path: &str) -> SourceKind {
        if path.ends_with(".v") || path.ends_with(".sv") {
            SourceKind::Verilog
        } else {
            SourceKind::Spice
        }
    }

    /// Parses a format name (`spice` / `verilog`), as used by daemon
    /// request bodies.
    pub fn from_name(name: &str) -> Option<SourceKind> {
        match name {
            "spice" => Some(SourceKind::Spice),
            "verilog" => Some(SourceKind::Verilog),
            _ => None,
        }
    }
}

/// A loaded deck in either supported format.
#[derive(Debug)]
pub enum Doc {
    /// A SPICE deck.
    Spice(SpiceDoc),
    /// A structural Verilog source.
    Verilog(Source),
}

/// Reads and parses a netlist file, dispatching on extension.
///
/// # Errors
///
/// I/O and parse errors as strings, with the path in the message.
pub fn load_doc(path: &str) -> Result<Doc, String> {
    match SourceKind::from_path(path) {
        SourceKind::Verilog => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Doc::Verilog(
                vparse(&text).map_err(|e| format!("{path}: {e}"))?,
            ))
        }
        SourceKind::Spice => Ok(Doc::Spice(parse_file(path).map_err(|e| e.to_string())?)),
    }
}

/// Parses netlist text that did not come from a file (daemon request
/// bodies). `label` names the source in error messages. Text parses do
/// not resolve SPICE `.include` cards — a daemon must not read the
/// server's filesystem on behalf of a client.
///
/// # Errors
///
/// Parse errors as strings, prefixed with `label`.
pub fn parse_text(text: &str, kind: SourceKind, label: &str) -> Result<Doc, String> {
    match kind {
        SourceKind::Spice => Ok(Doc::Spice(
            sparse(text).map_err(|e| format!("{label}: {e}"))?,
        )),
        SourceKind::Verilog => Ok(Doc::Verilog(
            vparse(text).map_err(|e| format!("{label}: {e}"))?,
        )),
    }
}

impl Doc {
    /// Cell (subckt/module) names defined by the deck.
    pub fn cell_names(&self) -> Vec<String> {
        match self {
            Doc::Spice(d) => d.subckts.iter().map(|s| s.name.clone()).collect(),
            Doc::Verilog(s) => s.modules.iter().map(|m| m.name.clone()).collect(),
        }
    }
}

/// Elaborates the main circuit of a deck: the top level (SPICE cards /
/// the inferred top module), falling back to a sole cell definition.
/// `top_name` names the elaborated top; `label` names the source in
/// error messages.
///
/// # Errors
///
/// Propagates elaboration problems, or reports an ambiguous deck.
pub fn main_from_doc(doc: &Doc, top_name: &str, label: &str) -> Result<Netlist, String> {
    match doc {
        Doc::Spice(doc) => {
            let opts = ElaborateOptions::default();
            if doc.top_card_count() > 0 {
                return doc
                    .elaborate_top(top_name, &opts)
                    .map_err(|e| format!("{label}: {e}"));
            }
            match doc.subckts.len() {
                1 => doc
                    .elaborate_cell(&doc.subckts[0].name.clone(), &opts)
                    .map_err(|e| format!("{label}: {e}")),
                0 => Err(format!("{label}: deck is empty")),
                n => Err(format!(
                    "{label}: no top-level cards and {n} subcircuits; pass --pattern/--cell to pick one"
                )),
            }
        }
        Doc::Verilog(src) => src
            .elaborate(None, &ElaborateOptions::default())
            .map_err(|e| format!("{label}: {e}")),
    }
}

/// Elaborates the main circuit of a netlist file.
///
/// # Errors
///
/// See [`main_from_doc`]; messages carry the path.
pub fn load_main(path: &str) -> Result<Netlist, String> {
    main_from_doc(&load_doc(path)?, main_name(path), path)
}

/// How a deck's cells elaborate their `X` instances of other cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellMode {
    /// Inlined down to primitive devices: patterns and rules.
    Flat,
    /// Kept as composite devices, one level deep. Hierarchy
    /// reconstruction needs this — a flat elaboration erases the
    /// reference depth the level grouping is built from.
    Hierarchical,
}

impl CellMode {
    /// The elaboration options this mode stands for, in either format.
    fn options(self) -> ElaborateOptions {
        ElaborateOptions {
            flatten: self == CellMode::Flat,
        }
    }
}

fn load_cell_as(doc: &Doc, name: &str, mode: CellMode, label: &str) -> Result<Netlist, String> {
    let opts = mode.options();
    match doc {
        Doc::Spice(d) => d
            .elaborate_cell(name, &opts)
            .map_err(|e| format!("{label}: {e}")),
        Doc::Verilog(s) => s
            .elaborate(Some(name), &opts)
            .map_err(|e| format!("{label}: {e}")),
    }
}

/// Elaborates a named cell from a deck (for patterns and rules).
/// `label` names the source in error messages.
///
/// # Errors
///
/// Propagates unknown-cell and elaboration problems.
pub fn load_cell(doc: &Doc, name: &str, label: &str) -> Result<Netlist, String> {
    load_cell_as(doc, name, CellMode::Flat, label)
}

/// Elaborates a named cell keeping one level of structure (see
/// [`CellMode::Hierarchical`]).
///
/// # Errors
///
/// Propagates unknown-cell and elaboration problems.
pub fn load_cell_hierarchical(doc: &Doc, name: &str, label: &str) -> Result<Netlist, String> {
    load_cell_as(doc, name, CellMode::Hierarchical, label)
}

/// Elaborates every cell a deck defines, in [`Doc::cell_names`] order —
/// the same netlists and the same first error as [`load_cell`] (or
/// [`load_cell_hierarchical`]) per name, but the deck shares one memo
/// across its cells, so a cell other cells instantiate is elaborated
/// once, not once per cell that reaches it. An empty deck yields no
/// cells.
///
/// # Errors
///
/// The first cell's elaboration problem, prefixed with `label`.
pub fn load_cells(doc: &Doc, mode: CellMode, label: &str) -> Result<Vec<Netlist>, String> {
    let opts = mode.options();
    match doc {
        Doc::Spice(d) => d
            .elaborate_cells(&opts)
            .map_err(|e| format!("{label}: {e}")),
        Doc::Verilog(s) => s
            .elaborate_cells(&opts)
            .map_err(|e| format!("{label}: {e}")),
    }
}

/// Elaborates a deck's cells as a library to search with: [`load_cells`]
/// on a deck that defines at least one cell, each checked by
/// [`check_patterns`].
///
/// # Errors
///
/// Elaboration problems, an empty deck, or an isolated net.
pub fn load_library(doc: &Doc, mode: CellMode, label: &str) -> Result<Vec<Netlist>, String> {
    let cells = load_cells(doc, mode, label)?;
    if cells.is_empty() {
        return Err(format!("{label}: no cell definitions"));
    }
    check_patterns(&cells, label)?;
    Ok(cells)
}

/// Checks cells about to be searched for (patterns, library cells,
/// rules): a net no device connects can be anchored by neither phase,
/// and the search would panic on it. Loaders that only describe a deck
/// (`stats`, `dot`, `fingerprint`, `compare`) skip this check.
///
/// # Errors
///
/// The first such net, naming its cell, prefixed with `label`.
pub fn check_patterns(cells: &[Netlist], label: &str) -> Result<(), String> {
    for cell in cells {
        if let Some(n) = cell.net_ids().find(|&n| cell.net_ref(n).degree() == 0) {
            return Err(format!(
                "{label}: pattern `{}`: net `{}` is isolated (no device connects it)",
                cell.name(),
                cell.net_ref(n).name()
            ));
        }
    }
    Ok(())
}

/// The default circuit name for a path: the file stem, without SPICE
/// extensions.
fn main_name(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".sp")
        .trim_end_matches(".cir")
        .trim_end_matches(".spice")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_name_strips_path_and_extension() {
        assert_eq!(main_name("/tmp/chip.sp"), "chip");
        assert_eq!(main_name("adder.spice"), "adder");
        assert_eq!(main_name("plain"), "plain");
    }

    #[test]
    fn load_doc_reports_missing_file() {
        let err = load_doc("/nonexistent/x.sp").unwrap_err();
        assert!(err.contains("/nonexistent/x.sp"));
        let err = load_doc("/nonexistent/x.v").unwrap_err();
        assert!(err.contains("/nonexistent/x.v"));
    }

    #[test]
    fn extension_dispatch() {
        assert_eq!(SourceKind::from_path("a.v"), SourceKind::Verilog);
        assert_eq!(SourceKind::from_path("b.sv"), SourceKind::Verilog);
        assert_eq!(SourceKind::from_path("c.sp"), SourceKind::Spice);
        assert_eq!(SourceKind::from_name("spice"), Some(SourceKind::Spice));
        assert_eq!(SourceKind::from_name("verilog"), Some(SourceKind::Verilog));
        assert_eq!(SourceKind::from_name("edif"), None);
    }

    #[test]
    fn parse_text_elaborates_like_a_file() {
        let deck = ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n";
        let doc = parse_text(deck, SourceKind::Spice, "body").unwrap();
        assert_eq!(doc.cell_names(), vec!["inv".to_string()]);
        let cell = load_cell(&doc, "inv", "body").unwrap();
        assert_eq!(cell.device_count(), 2);
        let err = load_cell(&doc, "nope", "body").unwrap_err();
        assert!(err.contains("body"), "{err}");
    }

    #[test]
    fn parse_text_labels_errors() {
        let err = parse_text(".subckt broken", SourceKind::Spice, "upload").unwrap_err();
        assert!(err.contains("upload"), "{err}");
    }

    #[test]
    fn load_cells_matches_load_cell_per_name() {
        let deck = ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n\
                    .subckt buf a y\nx1 a m inv\nx2 m y inv\n.ends\n";
        let doc = parse_text(deck, SourceKind::Spice, "body").unwrap();
        for (mode, one) in [
            (CellMode::Flat, load_cell as fn(&Doc, &str, &str) -> _),
            (CellMode::Hierarchical, load_cell_hierarchical),
        ] {
            let all = load_cells(&doc, mode, "body").unwrap();
            for (cell, name) in all.iter().zip(doc.cell_names()) {
                let single = one(&doc, &name, "body").unwrap();
                assert_eq!(cell.device_count(), single.device_count(), "{name}");
                assert_eq!(cell.net_count(), single.net_count(), "{name}");
            }
        }
        let empty = parse_text("* nothing\n", SourceKind::Spice, "body").unwrap();
        assert!(load_cells(&empty, CellMode::Flat, "body")
            .unwrap()
            .is_empty());
        let bad = parse_text(
            ".subckt a x\nxq x nosuch\n.ends\n",
            SourceKind::Spice,
            "body",
        )
        .unwrap();
        assert_eq!(
            load_cells(&bad, CellMode::Flat, "body").unwrap_err(),
            load_cell(&bad, "a", "body").unwrap_err()
        );
    }

    #[test]
    fn a_long_chained_library_loads_through_one_memo() {
        // Cell-by-cell loading rebuilt every cell below each one, with
        // a list-scan cycle check: time cubic in the chain's length.
        let mut deck = String::from(".subckt c0 a y\nmn y a gnd gnd nmos\n.ends\n");
        for k in 1..=2_000 {
            deck.push_str(&format!(".subckt c{k} a y\nx1 a y c{}\n.ends\n", k - 1));
        }
        let doc = parse_text(&deck, SourceKind::Spice, "lib").unwrap();
        let cells = load_cells(&doc, CellMode::Flat, "lib").unwrap();
        assert_eq!(cells.len(), 2_001);
        assert!(cells.iter().all(|c| c.device_count() == 1));
        assert_eq!(cells[2_000].name(), "c2000");
    }

    #[test]
    fn a_long_chained_verilog_library_loads_through_one_memo() {
        let mut src = String::from("module c0(input a, output y);\nnot g(y, a);\nendmodule\n");
        for k in 1..=2_000 {
            src.push_str(&format!(
                "module c{k}(input a, output y);\nc{} u1(a, y);\nendmodule\n",
                k - 1
            ));
        }
        let doc = parse_text(&src, SourceKind::Verilog, "lib").unwrap();
        let cells = load_cells(&doc, CellMode::Flat, "lib").unwrap();
        assert_eq!(cells.len(), 2_001);
        assert!(cells.iter().all(|c| c.device_count() == 1));
        assert_eq!(cells[2_000].name(), "c2000");
        let one = load_cell(&doc, "c7", "lib").unwrap();
        assert_eq!(cells[7].device_count(), one.device_count());
        assert_eq!(cells[7].net_count(), one.net_count());
    }

    #[test]
    fn main_from_doc_reports_ambiguity() {
        let deck = ".subckt a x\nm1 x x x x nmos\n.ends\n.subckt b y\nm1 y y y y nmos\n.ends\n";
        let doc = parse_text(deck, SourceKind::Spice, "body").unwrap();
        let err = main_from_doc(&doc, "top", "body").unwrap_err();
        assert!(err.contains("2 subcircuits"), "{err}");
    }
}
