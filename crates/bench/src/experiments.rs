//! The experiment implementations (DESIGN.md §4, E1–E10).

use std::time::Instant;

use subgemini::{MatchOptions, Matcher};
use subgemini_baseline::{find_all as dfs_find_all, DfsOptions};
use subgemini_netlist::{Netlist, NetlistStats};
use subgemini_workloads::{cells, gen, paper};

/// One row of the canonical results table (E4): a (circuit, cell)
/// matching run with all effort counters.
#[derive(Clone, Debug)]
pub struct MatchRow {
    /// Circuit name.
    pub circuit: String,
    /// Pattern cell name.
    pub cell: String,
    /// Main-circuit device count.
    pub g_devices: usize,
    /// Main-circuit net count.
    pub g_nets: usize,
    /// Pattern device count.
    pub s_devices: usize,
    /// Verified instances found.
    pub instances: usize,
    /// Expected instance count from the generator's ground truth
    /// (`usize::MAX` when unknown).
    pub expected: usize,
    /// Total devices covered by instances (the paper's linearity
    /// x-axis).
    pub matched_devices: usize,
    /// Candidate-vector size (Phase I filter output).
    pub cv: usize,
    /// Candidates rejected by Phase II.
    pub false_candidates: usize,
    /// Phase I relabeling iterations.
    pub p1_iters: usize,
    /// Phase II relabeling passes (all candidates).
    pub p2_passes: usize,
    /// Phase II ambiguity guesses.
    pub guesses: usize,
    /// Phase II backtracks.
    pub backtracks: usize,
    /// Wall time of the complete search, microseconds.
    pub micros: u128,
}

impl MatchRow {
    /// Formats the row for the text table.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.circuit.clone(),
            self.cell.clone(),
            self.g_devices.to_string(),
            self.g_nets.to_string(),
            self.s_devices.to_string(),
            self.instances.to_string(),
            if self.expected == usize::MAX {
                "-".into()
            } else {
                self.expected.to_string()
            },
            self.cv.to_string(),
            self.false_candidates.to_string(),
            self.p1_iters.to_string(),
            self.p2_passes.to_string(),
            self.guesses.to_string(),
            self.backtracks.to_string(),
            self.micros.to_string(),
        ]
    }

    /// Table headers matching [`MatchRow::cells`].
    pub fn headers() -> &'static [&'static str] {
        &[
            "circuit", "cell", "G.dev", "G.net", "S.dev", "found", "expect", "|CV|", "false",
            "P1.it", "P2.pass", "guess", "backtk", "time_us",
        ]
    }
}

/// Runs one (pattern, main) search and collects a [`MatchRow`].
pub fn run_match(
    circuit: &str,
    main: &Netlist,
    cell: &Netlist,
    expected: usize,
    opts: &MatchOptions,
) -> MatchRow {
    let stats = NetlistStats::of(main);
    let start = Instant::now();
    let outcome = Matcher::new(cell, main).options(opts.clone()).find_all();
    let micros = start.elapsed().as_micros();
    MatchRow {
        circuit: circuit.to_string(),
        cell: cell.name().to_string(),
        g_devices: stats.devices,
        g_nets: stats.nets,
        s_devices: cell.device_count(),
        instances: outcome.count(),
        expected,
        matched_devices: outcome.matched_device_total(),
        cv: outcome.phase1.cv_size,
        false_candidates: outcome.phase2.false_candidates,
        p1_iters: outcome.phase1.iterations,
        p2_passes: outcome.phase2.passes,
        guesses: outcome.phase2.guesses,
        backtracks: outcome.phase2.backtracks,
        micros,
    }
}

/// E4: the canonical results table over the workload suite.
///
/// `scale` multiplies the circuit sizes (1 = quick, 4+ = paper-scale).
pub fn results_table(scale: usize) -> Vec<MatchRow> {
    let scale = scale.max(1);
    let opts = MatchOptions::default();
    let mut rows = Vec::new();

    let adder = gen::ripple_adder(16 * scale);
    rows.push(run_match(
        "ripple_adder",
        &adder.netlist,
        &cells::full_adder(),
        adder.structural_count("full_adder"),
        &opts,
    ));
    rows.push(run_match(
        "ripple_adder",
        &adder.netlist,
        &cells::inv(),
        adder.structural_count("inv"),
        &opts,
    ));

    let sreg = gen::shift_register(12 * scale);
    rows.push(run_match(
        "shift_register",
        &sreg.netlist,
        &cells::dff(),
        sreg.structural_count("dff"),
        &opts,
    ));
    rows.push(run_match(
        "shift_register",
        &sreg.netlist,
        &cells::dlatch(),
        sreg.structural_count("dlatch"),
        &opts,
    ));
    rows.push(run_match(
        "shift_register",
        &sreg.netlist,
        &cells::inv(),
        sreg.structural_count("inv"),
        &opts,
    ));

    let mult = gen::array_multiplier(4 * scale);
    rows.push(run_match(
        "multiplier",
        &mult.netlist,
        &cells::full_adder(),
        mult.structural_count("full_adder"),
        &opts,
    ));
    rows.push(run_match(
        "multiplier",
        &mult.netlist,
        &cells::nand2(),
        mult.structural_count("nand2"),
        &opts,
    ));

    let sram = gen::sram_array(8 * scale, 16 * scale);
    rows.push(run_match(
        "sram_array",
        &sram.netlist,
        &cells::sram6t(),
        sram.structural_count("sram6t"),
        &opts,
    ));

    let dec = gen::decoder(3);
    rows.push(run_match(
        "decoder",
        &dec.netlist,
        &cells::nand3(),
        dec.structural_count("nand3"),
        &opts,
    ));

    let soup = gen::random_soup(1993, 60 * scale);
    for cell in [
        cells::nand2(),
        cells::xor2(),
        cells::dff(),
        cells::full_adder(),
    ] {
        let expected = soup.structural_count(cell.name());
        rows.push(run_match(
            "random_soup",
            &soup.netlist,
            &cell,
            expected,
            &opts,
        ));
    }
    rows
}

/// One point of the linearity experiment (E5).
#[derive(Clone, Debug)]
pub struct LinearityRow {
    /// Workload family.
    pub workload: String,
    /// Size parameter (bits / gates).
    pub n: usize,
    /// Main-circuit devices.
    pub g_devices: usize,
    /// Total devices inside matched instances.
    pub matched_devices: usize,
    /// Wall time in microseconds.
    pub micros: u128,
    /// Nanoseconds per matched device — flat ⇔ linear scaling.
    pub ns_per_matched_device: u128,
}

impl LinearityRow {
    /// Formats for tables/CSV.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.workload.clone(),
            self.n.to_string(),
            self.g_devices.to_string(),
            self.matched_devices.to_string(),
            self.micros.to_string(),
            self.ns_per_matched_device.to_string(),
        ]
    }

    /// Table headers.
    pub fn headers() -> &'static [&'static str] {
        &[
            "workload",
            "n",
            "G.dev",
            "matched.dev",
            "time_us",
            "ns_per_dev",
        ]
    }
}

fn linearity_point(workload: &str, n: usize, main: &Netlist, cell: &Netlist) -> LinearityRow {
    let start = Instant::now();
    let outcome = Matcher::new(cell, main).find_all();
    let micros = start.elapsed().as_micros();
    let matched = outcome.matched_device_total().max(1);
    LinearityRow {
        workload: workload.to_string(),
        n,
        g_devices: main.device_count(),
        matched_devices: matched,
        micros,
        ns_per_matched_device: micros.saturating_mul(1000) / matched as u128,
    }
}

/// E5: time vs total matched devices across three workload families.
/// The paper's headline claim is that `ns_per_matched_device` stays
/// roughly flat as `n` grows.
pub fn linearity_series(sizes: &[usize]) -> Vec<LinearityRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let adder = gen::ripple_adder(n);
        rows.push(linearity_point(
            "adder/full_adder",
            n,
            &adder.netlist,
            &cells::full_adder(),
        ));
    }
    for &n in sizes {
        let sreg = gen::shift_register(n);
        rows.push(linearity_point(
            "shiftreg/dff",
            n,
            &sreg.netlist,
            &cells::dff(),
        ));
    }
    for &n in sizes {
        let soup = gen::random_soup(77, n * 4);
        rows.push(linearity_point(
            "soup/nand2",
            n * 4,
            &soup.netlist,
            &cells::nand2(),
        ));
    }
    rows
}

/// One row of the SubGemini-vs-exhaustive-DFS comparison (E6).
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// Workload family.
    pub workload: String,
    /// Size parameter.
    pub n: usize,
    /// Instances found (must agree between engines).
    pub instances: usize,
    /// SubGemini wall time, microseconds.
    pub sub_micros: u128,
    /// DFS wall time, microseconds.
    pub dfs_micros: u128,
    /// `true` when the DFS step budget ran out (time is then a lower
    /// bound).
    pub dfs_capped: bool,
}

impl BaselineRow {
    /// Formats for tables.
    pub fn cells(&self) -> Vec<String> {
        let ratio = if self.sub_micros == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", self.dfs_micros as f64 / self.sub_micros as f64)
        };
        vec![
            self.workload.clone(),
            self.n.to_string(),
            self.instances.to_string(),
            self.sub_micros.to_string(),
            format!(
                "{}{}",
                self.dfs_micros,
                if self.dfs_capped { "+" } else { "" }
            ),
            ratio,
        ]
    }

    /// Table headers.
    pub fn headers() -> &'static [&'static str] {
        &[
            "workload",
            "n",
            "found",
            "subgemini_us",
            "dfs_us",
            "dfs/sub",
        ]
    }
}

/// E6: both engines on the same workloads — a sparse one (few
/// instances: DFS's type-anchoring is competitive) and two repetitive
/// fabrics (everything looks alike: SubGemini's global filtering wins
/// by a growing factor). The paper's qualitative claim is the fabric
/// regime; reporting both makes the crossover visible.
pub fn baseline_rows(sizes: &[usize]) -> Vec<BaselineRow> {
    let mut rows = Vec::new();
    let mut run = |workload: &str, n: usize, main: &Netlist, cell: &Netlist| {
        let start = Instant::now();
        let sub = Matcher::new(cell, main).find_all();
        let sub_micros = start.elapsed().as_micros();
        let start = Instant::now();
        let dfs = dfs_find_all(
            cell,
            main,
            &DfsOptions {
                max_steps: 200_000_000,
                ..DfsOptions::default()
            },
        );
        let dfs_micros = start.elapsed().as_micros();
        assert_eq!(
            sub.count(),
            dfs.instances.len(),
            "engines disagree on {workload}({n})"
        );
        rows.push(BaselineRow {
            workload: workload.to_string(),
            n,
            instances: sub.count(),
            sub_micros,
            dfs_micros,
            dfs_capped: dfs.budget_exhausted,
        });
    };
    for &n in sizes {
        let soup = gen::random_soup(4242, n);
        run("soup/nand2", n, &soup.netlist, &cells::nand2());
    }
    for &n in sizes {
        let side = (n as f64).sqrt().ceil() as usize * 4;
        let sram = gen::sram_array(side, side);
        run("sram/sram6t", side * side, &sram.netlist, &cells::sram6t());
    }
    for &n in sizes {
        let sreg = gen::shift_register(n);
        run("shiftreg/dff", n, &sreg.netlist, &cells::dff());
    }
    rows
}

/// One row of the Phase I filter-quality experiment (E7).
#[derive(Clone, Debug)]
pub struct FilterRow {
    /// Circuit name.
    pub circuit: String,
    /// Pattern cell.
    pub cell: String,
    /// Candidate-vector size.
    pub cv: usize,
    /// True instances.
    pub instances: usize,
    /// Candidates per instance (1.0 = perfect filter).
    pub cands_per_instance: f64,
}

impl FilterRow {
    /// Formats for tables.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.circuit.clone(),
            self.cell.clone(),
            self.cv.to_string(),
            self.instances.to_string(),
            format!("{:.2}", self.cands_per_instance),
        ]
    }

    /// Table headers.
    pub fn headers() -> &'static [&'static str] {
        &["circuit", "cell", "|CV|", "instances", "CV/inst"]
    }
}

/// E7: how tight the Phase I filter is across workloads.
pub fn filter_rows(scale: usize) -> Vec<FilterRow> {
    let scale = scale.max(1);
    let mut rows = Vec::new();
    let mut push = |circuit: &str, main: &Netlist, cell: &Netlist| {
        let outcome = Matcher::new(cell, main).find_all();
        let inst = outcome.count();
        rows.push(FilterRow {
            circuit: circuit.to_string(),
            cell: cell.name().to_string(),
            cv: outcome.phase1.cv_size,
            instances: inst,
            cands_per_instance: if inst == 0 {
                outcome.phase1.cv_size as f64
            } else {
                outcome.phase1.cv_size as f64 / inst as f64
            },
        });
    };
    let adder = gen::ripple_adder(16 * scale);
    push("ripple_adder", &adder.netlist, &cells::full_adder());
    let sreg = gen::shift_register(12 * scale);
    push("shift_register", &sreg.netlist, &cells::dff());
    let sram = gen::sram_array(8 * scale, 8 * scale);
    push("sram_array", &sram.netlist, &cells::sram6t());
    let soup = gen::random_soup(5, 50 * scale);
    push("random_soup", &soup.netlist, &cells::nand2());
    push("random_soup", &soup.netlist, &cells::xor2());
    push("random_soup", &soup.netlist, &cells::dff());
    // Adversarial pressure: fields of near-miss mutants contain zero
    // true instances; every surviving candidate is a false positive the
    // filter could not reject.
    for cell in [cells::nand2(), cells::dff(), cells::full_adder()] {
        let field = gen::near_miss_field(&cell, 20 * scale, 99);
        push("near_miss_field", &field.netlist, &cell);
    }
    rows
}

/// One row of the special-nets ablation (E8).
#[derive(Clone, Debug)]
pub struct SpecialNetsRow {
    /// Circuit name.
    pub circuit: String,
    /// Pattern cell.
    pub cell: String,
    /// Whether special nets were honored.
    pub respected: bool,
    /// Instances found.
    pub instances: usize,
    /// Candidate-vector size.
    pub cv: usize,
    /// Wall time, microseconds.
    pub micros: u128,
}

impl SpecialNetsRow {
    /// Formats for tables.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.circuit.clone(),
            self.cell.clone(),
            if self.respected { "yes" } else { "no" }.into(),
            self.instances.to_string(),
            self.cv.to_string(),
            self.micros.to_string(),
        ]
    }

    /// Table headers.
    pub fn headers() -> &'static [&'static str] {
        &["circuit", "cell", "specials", "found", "|CV|", "time_us"]
    }
}

/// E8 (+E3): instances and runtime with and without special-net
/// treatment, including the Fig. 7 inverter-in-NAND demonstration.
pub fn special_nets_rows(scale: usize) -> Vec<SpecialNetsRow> {
    let scale = scale.max(1);
    let mut rows = Vec::new();
    let mut push = |circuit: &str, main: &Netlist, cell: &Netlist, respect: bool| {
        let opts = if respect {
            MatchOptions::default()
        } else {
            MatchOptions::ignore_globals()
        };
        let start = Instant::now();
        let outcome = Matcher::new(cell, main).options(opts).find_all();
        rows.push(SpecialNetsRow {
            circuit: circuit.to_string(),
            cell: cell.name().to_string(),
            respected: respect,
            instances: outcome.count(),
            cv: outcome.phase1.cv_size,
            micros: start.elapsed().as_micros(),
        });
    };
    let nand = paper::fig7_nand();
    let inv = paper::fig7_inverter();
    push("fig7_nand", &nand, &inv, true);
    push("fig7_nand", &nand, &inv, false);
    let soup = gen::random_soup(99, 40 * scale);
    push("random_soup", &soup.netlist, &cells::inv(), true);
    push("random_soup", &soup.netlist, &cells::inv(), false);
    push("random_soup", &soup.netlist, &cells::dff(), true);
    push("random_soup", &soup.netlist, &cells::dff(), false);
    rows
}

/// Result of the Fig. 5 experiment (E2).
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Instances found (1).
    pub instances: usize,
    /// Guesses made (≥1: the symmetric pair must be guessed).
    pub guesses: usize,
    /// Backtracks (0: either guess is right).
    pub backtracks: usize,
}

/// E2: the symmetric-ambiguity statistics of Fig. 5.
pub fn fig5_row() -> Fig5Row {
    let (p, m) = paper::fig5_pair();
    let outcome = Matcher::new(&p, &m).find_all();
    Fig5Row {
        instances: outcome.count(),
        guesses: outcome.phase2.guesses,
        backtracks: outcome.phase2.backtracks,
    }
}

/// One row of the extraction experiment (E9).
#[derive(Clone, Debug)]
pub struct ExtractRow {
    /// Circuit name.
    pub circuit: String,
    /// Input transistor count.
    pub transistors: usize,
    /// Output composite (gate) count.
    pub gates: usize,
    /// Primitive devices left unabsorbed.
    pub unabsorbed: usize,
    /// Wall time, microseconds.
    pub micros: u128,
}

impl ExtractRow {
    /// Formats for tables.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.circuit.clone(),
            self.transistors.to_string(),
            self.gates.to_string(),
            self.unabsorbed.to_string(),
            self.micros.to_string(),
        ]
    }

    /// Table headers.
    pub fn headers() -> &'static [&'static str] {
        &["circuit", "transistors", "gates", "unabsorbed", "time_us"]
    }
}

/// E9: full-library gate extraction over the workload suite.
pub fn extraction_rows(scale: usize) -> Vec<ExtractRow> {
    let scale = scale.max(1);
    let mut rows = Vec::new();
    let mut run = |circuit: &str, main: &Netlist| {
        let mut extractor = subgemini::Extractor::new();
        for cell in cells::library() {
            extractor.add_cell(cell);
        }
        let start = Instant::now();
        let (gates, report) = extractor.extract(main).expect("extraction rebuild");
        rows.push(ExtractRow {
            circuit: circuit.to_string(),
            transistors: main.device_count(),
            gates: report.instance_count(),
            unabsorbed: report.unabsorbed_devices,
            micros: start.elapsed().as_micros(),
        });
        let _ = gates;
    };
    let adder = gen::ripple_adder(8 * scale);
    run("ripple_adder", &adder.netlist);
    let soup = gen::random_soup(2024, 30 * scale);
    run("random_soup", &soup.netlist);
    let sram = gen::sram_array(4 * scale, 8 * scale);
    run("sram_array", &sram.netlist);
    rows
}

/// One row of the library-survey experiment (E11): shared vs
/// per-pattern Phase I.
#[derive(Clone, Debug)]
pub struct SurveyRow {
    /// Main circuit.
    pub circuit: String,
    /// Cells surveyed.
    pub cells: usize,
    /// Wall time with the shared G-label trace, microseconds.
    pub shared_micros: u128,
    /// Wall time running Phase I per pattern, microseconds.
    pub individual_micros: u128,
}

impl SurveyRow {
    /// Formats for tables.
    pub fn cells_row(&self) -> Vec<String> {
        let ratio = if self.shared_micros == 0 {
            "-".into()
        } else {
            format!(
                "{:.1}",
                self.individual_micros as f64 / self.shared_micros as f64
            )
        };
        vec![
            self.circuit.clone(),
            self.cells.to_string(),
            self.shared_micros.to_string(),
            self.individual_micros.to_string(),
            ratio,
        ]
    }

    /// Table headers.
    pub fn headers() -> &'static [&'static str] {
        &["circuit", "cells", "shared_us", "individual_us", "speedup"]
    }
}

/// E11: Phase I library survey with the shared main-graph label trace
/// (this reproduction's optimization; results are asserted identical).
pub fn survey_rows(scale: usize) -> Vec<SurveyRow> {
    let scale = scale.max(1);
    let library = cells::library();
    let refs: Vec<&Netlist> = library.iter().collect();
    let mut rows = Vec::new();
    let mut run = |circuit: &str, main: &Netlist| {
        let start = Instant::now();
        let shared = subgemini::candidates::generate_many(&refs, main);
        let shared_micros = start.elapsed().as_micros();
        let start = Instant::now();
        let individual: Vec<_> = refs
            .iter()
            .map(|p| subgemini::candidates::generate(p, main))
            .collect();
        let individual_micros = start.elapsed().as_micros();
        for (a, b) in shared.iter().zip(&individual) {
            assert_eq!(a.candidates, b.candidates, "survey result diverged");
        }
        rows.push(SurveyRow {
            circuit: circuit.to_string(),
            cells: refs.len(),
            shared_micros,
            individual_micros,
        });
    };
    let soup = gen::random_soup(1993, 120 * scale);
    run("random_soup", &soup.netlist);
    let adder = gen::ripple_adder(32 * scale);
    run("ripple_adder", &adder.netlist);
    let sram = gen::sram_array(16 * scale, 16 * scale);
    run("sram_array", &sram.netlist);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_table_matches_ground_truth() {
        for row in results_table(1) {
            assert_eq!(
                row.instances, row.expected,
                "{}:{} found {} expected {}",
                row.circuit, row.cell, row.instances, row.expected
            );
        }
    }

    #[test]
    fn linearity_rows_have_positive_matches() {
        for row in linearity_series(&[2, 4]) {
            assert!(row.matched_devices > 0, "{row:?}");
        }
    }

    #[test]
    fn baseline_rows_agree_between_engines() {
        // The assert inside baseline_rows is the real check.
        let rows = baseline_rows(&[20]);
        assert_eq!(rows.len(), 3); // soup + sram + shiftreg
    }

    #[test]
    fn filter_is_tight_on_structured_circuits() {
        for row in filter_rows(1) {
            if row.instances > 0 && row.circuit != "random_soup" && row.circuit != "near_miss_field"
            {
                assert!(
                    row.cands_per_instance <= 2.0,
                    "filter unexpectedly loose: {row:?}"
                );
            }
            if row.circuit == "near_miss_field" {
                assert_eq!(row.instances, 0, "mutants must never match: {row:?}");
            }
        }
    }

    #[test]
    fn fig5_has_guess_but_no_backtrack() {
        let r = fig5_row();
        assert_eq!(r.instances, 1);
        assert!(r.guesses >= 1);
        assert_eq!(r.backtracks, 0);
    }

    #[test]
    fn special_nets_change_fig7_count() {
        let rows = special_nets_rows(1);
        let fig7: Vec<_> = rows.iter().filter(|r| r.circuit == "fig7_nand").collect();
        assert_eq!(fig7.len(), 2);
        let with = fig7.iter().find(|r| r.respected).unwrap();
        let without = fig7.iter().find(|r| !r.respected).unwrap();
        assert_eq!(with.instances, 0);
        assert_eq!(without.instances, 1);
    }

    #[test]
    fn survey_rows_assert_equality_internally() {
        let rows = survey_rows(1);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn extraction_covers_structured_circuits() {
        for row in extraction_rows(1) {
            if row.circuit != "random_soup" {
                assert_eq!(row.unabsorbed, 0, "{row:?}");
            }
            assert!(row.gates > 0);
        }
    }
}
