//! Hierarchical netlist comparison (paper §I).
//!
//! "Matching circuits hierarchically simplifies the problem of
//! identifying the precise location of errors and also allows one to
//! efficiently check incremental changes": cells are compared
//! definition-by-definition and the top level is compared unflattened,
//! so an edit inside one cell flags exactly that cell.

use subgemini_gemini::{compare, GeminiOutcome};
use subgemini_netlist::{ElaborateOptions, Netlist};
use subgemini_spice::{SpiceDoc, SpiceError};
use subgemini_verilog::{Source, VerilogError};

/// Outcome for one named cell (or the top level).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// Present in both decks and isomorphic.
    Matches,
    /// Present in both decks but different; the report explains.
    Differs(String),
    /// Defined only in the first deck.
    OnlyInFirst,
    /// Defined only in the second deck.
    OnlyInSecond,
}

/// Full hierarchical comparison report.
#[derive(Clone, Debug, Default)]
pub struct HierReport {
    /// Per-cell outcomes, sorted by cell name.
    pub cells: Vec<(String, CellOutcome)>,
    /// The unflattened top-level outcome.
    pub top: Option<CellOutcome>,
}

impl HierReport {
    /// `true` when every cell and the top level match.
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|(_, o)| *o == CellOutcome::Matches)
            && self.top.as_ref().is_none_or(|o| *o == CellOutcome::Matches)
    }

    /// Names of cells that differ or exist on one side only.
    pub fn dirty_cells(&self) -> Vec<&str> {
        self.cells
            .iter()
            .filter(|(_, o)| *o != CellOutcome::Matches)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Compares two parsed SPICE decks hierarchically.
///
/// # Errors
///
/// Propagates elaboration failures (unknown/recursive subcircuits).
///
/// # Examples
///
/// ```
/// use subgemini_suite::hier::compare_docs;
///
/// let a = subgemini_spice::parse(
///     ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\nXu i o inv\n",
/// )?;
/// let b = subgemini_spice::parse(
///     ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\nXw p q inv\n",
/// )?;
/// let report = compare_docs(&a, &b)?;
/// assert!(report.is_clean());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compare_docs(a: &SpiceDoc, b: &SpiceDoc) -> Result<HierReport, SpiceError> {
    let decks = [a, b];
    compare_hierarchically(
        decks.map(|d| d.subckts.iter().map(|s| s.name.as_str()).collect()),
        |side, name| decks[side].elaborate_cell(name, &ElaborateOptions::default()),
        |side| decks[side].elaborate_top("top", &ElaborateOptions::hierarchical()),
    )
}

/// Compares two structural Verilog sources hierarchically:
/// module-by-module, plus the unflattened top.
///
/// # Errors
///
/// Propagates elaboration failures.
///
/// # Examples
///
/// ```
/// use subgemini_suite::hier::compare_verilog;
///
/// let a = subgemini_verilog::parse(
///     "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
///      module top(input x, output z);\ninv u(x, z);\nendmodule\n",
/// )?;
/// let b = a.clone();
/// assert!(compare_verilog(&a, &b)?.is_clean());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compare_verilog(a: &Source, b: &Source) -> Result<HierReport, VerilogError> {
    let sources = [a, b];
    compare_hierarchically(
        sources.map(|s| s.modules.iter().map(|m| m.name.as_str()).collect()),
        |side, name| sources[side].elaborate(Some(name), &ElaborateOptions::default()),
        |side| sources[side].elaborate(None, &ElaborateOptions::hierarchical()),
    )
}

/// The one hierarchical comparison: every cell name of either side
/// (`names`, in definition order, lowercased for SPICE), sorted; each
/// cell both sides define compared flat, the first side's elaborated
/// first; then the two tops, unflattened. `cell(side, name)` and
/// `top(side)` elaborate side 0 (the first deck) or side 1.
fn compare_hierarchically<E>(
    names: [Vec<&str>; 2],
    cell: impl Fn(usize, &str) -> Result<Netlist, E>,
    top: impl Fn(usize) -> Result<Netlist, E>,
) -> Result<HierReport, E> {
    let mut all = names[0].clone();
    for &name in &names[1] {
        if !all.contains(&name) {
            all.push(name);
        }
    }
    all.sort_unstable();
    let mut report = HierReport::default();
    for name in all {
        let outcome = match (names[0].contains(&name), names[1].contains(&name)) {
            (true, true) => outcome(&cell(0, name)?, &cell(1, name)?),
            (true, false) => CellOutcome::OnlyInFirst,
            (false, true) => CellOutcome::OnlyInSecond,
            (false, false) => unreachable!("name collected from one side"),
        };
        report.cells.push((name.to_string(), outcome));
    }
    report.top = Some(outcome(&top(0)?, &top(1)?));
    Ok(report)
}

fn outcome(a: &Netlist, b: &Netlist) -> CellOutcome {
    match compare(a, b) {
        GeminiOutcome::Isomorphic(_) => CellOutcome::Matches,
        GeminiOutcome::Mismatch(m) => CellOutcome::Differs(m.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "\
.global vdd gnd
.subckt inv a y
mp y a vdd vdd pmos
mn y a gnd gnd nmos
.ends
.subckt nand2 a b y
mp1 y a vdd vdd pmos
mp2 y b vdd vdd pmos
mn1 mid a y gnd nmos
mn2 gnd b mid gnd nmos
.ends
Xu1 in w inv
Xg1 w en out nand2
";

    #[test]
    fn identical_decks_are_clean() {
        let a = subgemini_spice::parse(DECK).unwrap();
        let b = subgemini_spice::parse(DECK).unwrap();
        let r = compare_docs(&a, &b).unwrap();
        assert!(r.is_clean(), "{r:?}");
        assert!(r.dirty_cells().is_empty());
    }

    #[test]
    fn edit_localizes_to_one_cell() {
        let a = subgemini_spice::parse(DECK).unwrap();
        let edited = DECK.replace("mn2 gnd b mid gnd nmos", "mn2 gnd b y gnd nmos");
        let b = subgemini_spice::parse(&edited).unwrap();
        let r = compare_docs(&a, &b).unwrap();
        assert!(!r.is_clean());
        assert_eq!(r.dirty_cells(), vec!["nand2"]);
        assert_eq!(r.top, Some(CellOutcome::Matches));
    }

    #[test]
    fn verilog_compare_localizes_edits() {
        let a = subgemini_verilog::parse(
            "module inv(input a, output y);\nnot g(y, a);\nendmodule\n\
             module buf2(input a, output y);\nwire w;\ninv u1(a, w);\ninv u2(w, y);\nendmodule\n\
             module top(input x, output z);\nbuf2 u(x, z);\nendmodule\n",
        )
        .unwrap();
        let edited_text = "module inv(input a, output y);\nbuf g(y, a);\nendmodule\n\
             module buf2(input a, output y);\nwire w;\ninv u1(a, w);\ninv u2(w, y);\nendmodule\n\
             module top(input x, output z);\nbuf2 u(x, z);\nendmodule\n";
        let b = subgemini_verilog::parse(edited_text).unwrap();
        let r = compare_verilog(&a, &b).unwrap();
        // inv differs directly; buf2 differs transitively (flattened
        // cell comparison sees the buf-for-not swap); top is compared
        // unflattened and matches.
        assert!(r.dirty_cells().contains(&"inv"));
        assert_eq!(r.top, Some(CellOutcome::Matches));
    }

    #[test]
    fn missing_cell_reported() {
        let a = subgemini_spice::parse(DECK).unwrap();
        let shorter: String = DECK
            .lines()
            .filter(|l| !l.contains("nand2") || l.starts_with('X'))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            .replace("Xg1 w en out nand2\n", "");
        // Remove the nand2 definition lines precisely.
        let mut b_text = String::new();
        let mut skipping = false;
        for line in DECK.lines() {
            if line.starts_with(".subckt nand2") {
                skipping = true;
            }
            if !skipping && !line.starts_with("Xg1") {
                b_text.push_str(line);
                b_text.push('\n');
            }
            if skipping && line.starts_with(".ends") {
                skipping = false;
            }
        }
        let _ = shorter;
        let b = subgemini_spice::parse(&b_text).unwrap();
        let r = compare_docs(&a, &b).unwrap();
        assert!(r
            .cells
            .iter()
            .any(|(n, o)| n == "nand2" && *o == CellOutcome::OnlyInFirst));
    }

    #[test]
    fn top_level_rewire_detected() {
        let a = subgemini_spice::parse(DECK).unwrap();
        let edited = DECK.replace("Xg1 w en out nand2", "Xg1 w w out nand2");
        let b = subgemini_spice::parse(&edited).unwrap();
        let r = compare_docs(&a, &b).unwrap();
        assert_eq!(r.dirty_cells(), Vec::<&str>::new());
        assert!(matches!(r.top, Some(CellOutcome::Differs(_))));
    }
}
