//! Gemini-style whole-netlist graph isomorphism.
//!
//! This crate reimplements the *graph* isomorphism algorithm of
//! Gemini (Ebeling & Zajicek, reference \[3\] of the SubGemini paper),
//! which SubGemini extends to *subgraph* isomorphism. Two netlists are
//! compared by iterative partition refinement: vertices are labeled
//! from invariants (device type, net degree), then repeatedly relabeled
//! from their neighbors' labels through class-weighted sums. Isomorphic
//! netlists refine to identical singleton partitions, which directly
//! yield the vertex mapping; automorphic ties are broken by
//! individuation with backtracking.
//!
//! Used in this reproduction as (a) the historical substrate SubGemini
//! builds on, (b) an LVS-style netlist comparator (see the `lvs`
//! example), and (c) an independent checker for extracted subcircuit
//! instances.
//!
//! # Examples
//!
//! ```
//! use subgemini_netlist::Netlist;
//! use subgemini_gemini::compare;
//!
//! # fn main() -> Result<(), subgemini_netlist::NetlistError> {
//! let build = |swap: bool| -> Result<Netlist, subgemini_netlist::NetlistError> {
//!     let mut nl = Netlist::new("inv");
//!     let mos = nl.add_mos_types();
//!     let (a, y, vdd, gnd) = (nl.net("a"), nl.net("y"), nl.net("vdd"), nl.net("gnd"));
//!     nl.mark_global(vdd);
//!     nl.mark_global(gnd);
//!     // Listing source/drain in either order must not matter.
//!     let pins = if swap { [a, y, vdd] } else { [a, vdd, y] };
//!     nl.add_device("mp", mos.pmos, &pins)?;
//!     nl.add_device("mn", mos.nmos, &[a, gnd, y])?;
//!     Ok(nl)
//! };
//! let a = build(false)?;
//! let b = build(true)?;
//! assert!(compare(&a, &b).is_isomorphic());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;
mod refine;
mod report;

use subgemini_netlist::Netlist;

pub use fingerprint::{dedup_classes, fingerprint};
pub use refine::GeminiOptions;
pub use report::{GeminiOutcome, GeminiReport, GeminiStats, Mapping, MismatchReport};

/// Compares netlists `a` and `b` with default options.
///
/// Returns a verified [`Mapping`] when the netlists are isomorphic
/// (respecting device types, terminal equivalence classes, and global
/// net names) or a [`MismatchReport`] pointing at the divergence.
pub fn compare(a: &Netlist, b: &Netlist) -> GeminiOutcome {
    compare_with_stats(a, b, &GeminiOptions::default()).outcome
}

/// Compares netlists and reports effort counters alongside the outcome.
pub fn compare_with_stats(a: &Netlist, b: &Netlist, opts: &GeminiOptions) -> GeminiReport {
    let (outcome, stats) = refine::run(a, b, opts);
    GeminiReport { outcome, stats }
}

/// Convenience predicate: `true` iff the netlists are isomorphic.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::Netlist;
/// assert!(subgemini_gemini::are_isomorphic(
///     &Netlist::new("a"),
///     &Netlist::new("b"),
/// ));
/// ```
pub fn are_isomorphic(a: &Netlist, b: &Netlist) -> bool {
    compare(a, b).is_isomorphic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini_netlist::{Netlist, NetlistError};

    /// A NAND2 built with a chosen device order and net naming scheme.
    fn nand2(prefix: &str, reorder: bool) -> Result<Netlist, NetlistError> {
        let mut nl = Netlist::new("nand2");
        let mos = nl.add_mos_types();
        let n = |s: &str| format!("{prefix}{s}");
        let (a, b, y) = (nl.net(n("a")), nl.net(n("b")), nl.net(n("y")));
        let mid = nl.net(n("mid"));
        let (vdd, gnd) = (nl.net("vdd"), nl.net("gnd"));
        nl.mark_global(vdd);
        nl.mark_global(gnd);
        let devs: Vec<(String, _, [_; 3])> = vec![
            (n("p1"), mos.pmos, [a, vdd, y]),
            (n("p2"), mos.pmos, [b, vdd, y]),
            (n("n1"), mos.nmos, [a, y, mid]),
            (n("n2"), mos.nmos, [b, mid, gnd]),
        ];
        let order: Vec<usize> = if reorder {
            vec![3, 1, 0, 2]
        } else {
            vec![0, 1, 2, 3]
        };
        for i in order {
            let (name, ty, pins) = &devs[i];
            nl.add_device(name.clone(), *ty, pins)?;
        }
        Ok(nl)
    }

    #[test]
    fn renamed_and_reordered_nand_matches() {
        let a = nand2("x_", false).unwrap();
        let b = nand2("zz", true).unwrap();
        let rep = compare_with_stats(&a, &b, &GeminiOptions::default());
        assert!(rep.outcome.is_isomorphic(), "{:?}", rep.outcome.mismatch());
        let m = rep.outcome.mapping().unwrap();
        // Mapping respects names-by-structure: x_mid maps to zzmid.
        let mid_a = a.find_net("x_mid").unwrap();
        assert_eq!(b.net_ref(m.net(mid_a)).name(), "zzmid");
    }

    #[test]
    fn swapped_inputs_of_nand_still_match() {
        // NAND(a,b) vs NAND(b,a) are isomorphic as graphs.
        let a = nand2("", false).unwrap();
        let mut b = nand2("", false).unwrap();
        b.set_name("other");
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn miswired_nand_detected() {
        let a = nand2("", false).unwrap();
        // Build a broken variant: n2's source goes to y instead of gnd
        // (short-circuits the pull-down chain differently).
        let mut b = Netlist::new("bad");
        let mos = b.add_mos_types();
        let (pa, pb, y, mid) = (b.net("a"), b.net("b"), b.net("y"), b.net("mid"));
        let (vdd, gnd) = (b.net("vdd"), b.net("gnd"));
        b.mark_global(vdd);
        b.mark_global(gnd);
        b.add_device("p1", mos.pmos, &[pa, vdd, y]).unwrap();
        b.add_device("p2", mos.pmos, &[pb, vdd, y]).unwrap();
        b.add_device("n1", mos.nmos, &[pa, y, mid]).unwrap();
        b.add_device("n2", mos.nmos, &[pb, mid, y]).unwrap(); // wrong
        let out = compare(&a, &b);
        assert!(!out.is_isomorphic());
        let report = out.mismatch().unwrap();
        assert!(!report.reason.is_empty());
    }

    #[test]
    fn type_swap_detected() {
        let a = nand2("", false).unwrap();
        let b = nand2("", false).unwrap();
        // Rebuild b with one transistor's type flipped.
        let mut c = Netlist::new("flip");
        let mos = c.add_mos_types();
        for d in b.device_ids() {
            let dev = b.device(d);
            let ty = if dev.name() == "n2" {
                mos.pmos
            } else {
                dev.type_id()
            };
            let pins: Vec<_> = dev
                .pins()
                .iter()
                .map(|&n| c.net(b.net_ref(n).name()))
                .collect();
            for &n in dev.pins() {
                if b.net_ref(n).is_global() {
                    let id = c.net(b.net_ref(n).name());
                    c.mark_global(id);
                }
            }
            c.add_device(dev.name(), ty, &pins).unwrap();
        }
        assert!(!are_isomorphic(&a, &c));
    }

    #[test]
    fn disconnected_identical_cells_need_individuation() {
        // Three identical disconnected inverters are fully automorphic:
        // refinement alone cannot split them.
        let build = || {
            let mut nl = Netlist::new("trio");
            let mos = nl.add_mos_types();
            for i in 0..3 {
                let a = nl.net(format!("a{i}"));
                let y = nl.net(format!("y{i}"));
                let vdd = nl.net("vdd");
                let gnd = nl.net("gnd");
                nl.mark_global(vdd);
                nl.mark_global(gnd);
                nl.add_device(format!("p{i}"), mos.pmos, &[a, vdd, y])
                    .unwrap();
                nl.add_device(format!("n{i}"), mos.nmos, &[a, gnd, y])
                    .unwrap();
            }
            nl
        };
        let rep = compare_with_stats(&build(), &build(), &GeminiOptions::default());
        assert!(rep.outcome.is_isomorphic());
        assert!(rep.stats.guesses >= 2, "stats: {:?}", rep.stats);
    }

    #[test]
    fn global_name_mismatch_detected() {
        let a = nand2("", false).unwrap();
        let mut b = nand2("", false).unwrap();
        let vdd = b.find_net("vdd").unwrap();
        b.clear_global(vdd);
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn stats_count_passes() {
        let a = nand2("", false).unwrap();
        let b = nand2("", true).unwrap();
        let rep = compare_with_stats(&a, &b, &GeminiOptions::default());
        assert!(rep.stats.passes >= 1);
    }

    #[test]
    fn guess_budget_is_respected() {
        // Force heavy individuation with identical disconnected cells and
        // a tiny budget.
        let build = || {
            let mut nl = Netlist::new("many");
            let mos = nl.add_mos_types();
            for i in 0..8 {
                let a = nl.net(format!("a{i}"));
                let y = nl.net(format!("y{i}"));
                nl.add_device(format!("n{i}"), mos.nmos, &[a, y, y])
                    .unwrap();
            }
            nl
        };
        let rep = compare_with_stats(&build(), &build(), &GeminiOptions { max_guesses: 1 });
        // With a budget of one guess the 8-fold symmetry cannot be
        // resolved; the outcome must be an explicit give-up, not a hang.
        if let Some(m) = rep.outcome.mismatch() {
            assert!(m.reason.contains("gave up"));
        }
    }
}
