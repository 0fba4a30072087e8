//! Hierarchy construction (paper §I): flat transistors → extracted
//! cells → hierarchical SPICE → flattened again → isomorphic to the
//! original.

use subgemini::Extractor;
use subgemini_gemini::compare;
use subgemini_spice::{parse, write_hierarchical, ElaborateOptions};
use subgemini_workloads::{cells, gen};

fn used_cells(report: &subgemini::ExtractReport) -> Vec<subgemini_netlist::Netlist> {
    report
        .per_cell
        .iter()
        .filter(|(_, n)| *n > 0)
        .filter_map(|(name, _)| cells::by_name(name))
        .collect()
}

fn full_library_extractor() -> Extractor {
    let mut e = Extractor::new();
    for cell in cells::library() {
        e.add_cell(cell);
    }
    e
}

#[test]
fn flat_to_hierarchy_roundtrip_is_isomorphic() {
    let flat = gen::ripple_adder(4).netlist;
    let (top, report) = full_library_extractor().extract(&flat).unwrap();
    assert_eq!(report.unabsorbed_devices, 0);

    let deck = write_hierarchical(&top, &used_cells(&report));
    assert!(deck.contains(".subckt full_adder"));

    let doc = parse(&deck).unwrap();
    let reflattened = doc
        .elaborate_top(flat.name(), &ElaborateOptions::default())
        .unwrap();
    let outcome = compare(&flat, &reflattened);
    assert!(
        outcome.is_isomorphic(),
        "roundtrip diverged: {:?}",
        outcome.mismatch()
    );
}

#[test]
fn mixed_hierarchy_roundtrip() {
    // Adder + registers + loose gates: multiple cell kinds in one deck.
    let mut flat = gen::ripple_adder(2).netlist;
    let clk = flat.net("clk");
    for i in 0..2 {
        let d = flat.net(format!("s{i}"));
        let q = flat.net(format!("q{i}"));
        subgemini_netlist::instantiate(&mut flat, &cells::dff(), &format!("r{i}"), &[d, clk, q])
            .unwrap();
    }
    let (top, report) = full_library_extractor().extract(&flat).unwrap();
    assert_eq!(report.unabsorbed_devices, 0);
    let deck = write_hierarchical(&top, &used_cells(&report));
    let doc = parse(&deck).unwrap();
    let reflattened = doc
        .elaborate_top(flat.name(), &ElaborateOptions::default())
        .unwrap();
    assert!(compare(&flat, &reflattened).is_isomorphic());
}

#[test]
fn hierarchical_deck_is_humanly_structured() {
    let flat = gen::sram_array(2, 2).netlist;
    let (top, report) = full_library_extractor().extract(&flat).unwrap();
    let deck = write_hierarchical(&top, &used_cells(&report));
    // One subckt definition, four instances.
    assert_eq!(deck.matches(".subckt sram6t").count(), 1);
    assert_eq!(deck.matches(" sram6t").count(), 1 + 4); // def + 4 X cards
                                                        // Global rails declared once at deck level.
    assert_eq!(deck.matches(".global").count(), 1);
}

#[test]
fn hierarchize_recovers_planted_hierarchy_per_level() {
    let chip = gen::hierarchical_chip(1, 3, 400);
    let outcome = subgemini::hier::hierarchize(
        &chip.generated.netlist,
        &chip.library,
        &subgemini::MatchOptions::extraction(),
    )
    .unwrap();
    assert_eq!(outcome.report.unabsorbed_devices, 0);
    assert_eq!(outcome.report.levels.len(), 3);
    for (i, cells) in chip.level_cells.iter().enumerate() {
        let level = &outcome.report.levels[i];
        assert_eq!(level.level, i + 1);
        for cell in cells {
            let found = level
                .per_cell
                .iter()
                .find(|(name, _)| name == cell)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            assert_eq!(
                found,
                chip.expected_count(cell),
                "level {} cell {cell}: found != planted",
                i + 1
            );
        }
    }
}

#[test]
fn hierarchize_roundtrip_is_isomorphic_across_seeds() {
    for seed in 0..32u64 {
        let chip = gen::hierarchical_chip(seed, 3, 250);
        let flat = &chip.generated.netlist;
        let outcome = subgemini::hier::hierarchize(
            flat,
            &chip.library,
            &subgemini::MatchOptions::extraction(),
        )
        .unwrap();
        assert_eq!(
            outcome.report.unabsorbed_devices, 0,
            "seed {seed}: residue left behind"
        );
        for (cell, &want) in &chip.expected {
            assert_eq!(
                outcome.report.count_of(cell),
                want,
                "seed {seed}: count for {cell}"
            );
        }
        let deck = write_hierarchical(&outcome.top, &outcome.used_cells());
        let doc = parse(&deck).unwrap();
        let reflattened = doc
            .elaborate_top(flat.name(), &ElaborateOptions::default())
            .unwrap();
        let cmp = compare(flat, &reflattened);
        assert!(
            cmp.is_isomorphic(),
            "seed {seed}: roundtrip diverged: {:?}",
            cmp.mismatch()
        );
    }
}

#[test]
fn hierarchize_bytes_are_runtime_config_invariant() {
    use subgemini::MatchOptions;
    let chip = gen::hierarchical_chip(9, 3, 300);
    let flat = &chip.generated.netlist;
    let mut golden: Option<(String, String)> = None;
    for threads in [1usize, 2, 8] {
        let mut options = MatchOptions::extraction();
        options.threads = threads;
        let outcome = subgemini::hier::hierarchize(flat, &chip.library, &options).unwrap();
        let report = outcome.report.to_json().pretty();
        let deck = write_hierarchical(&outcome.top, &outcome.used_cells());
        match &golden {
            None => golden = Some((report, deck)),
            Some((r, d)) => {
                assert_eq!(r, &report, "report drifted at threads={threads}");
                assert_eq!(d, &deck, "deck drifted at threads={threads}");
            }
        }
    }
}

#[test]
fn hierarchical_mode_match_on_gate_level() {
    // After extraction, match at the *gate* level: find dff composites
    // in the hierarchical netlist using a composite pattern.
    let flat = gen::shift_register(4).netlist;
    let (top, _report) = full_library_extractor().extract(&flat).unwrap();
    assert_eq!(top.device_count(), 4);
    // Pattern: one composite dff device with the same type. Build it
    // from the extractor's own type table to guarantee identical
    // terminal classes.
    let dffty = top.type_id("dff").expect("composite type");
    let ty = top.device_type(dffty).clone();
    let mut pat = subgemini_netlist::Netlist::new("dff_gate");
    let pt = pat.add_type(ty).unwrap();
    let (d, clk, q) = (pat.net("d"), pat.net("clk"), pat.net("q"));
    pat.mark_port(d);
    pat.mark_port(clk);
    pat.mark_port(q);
    pat.add_device("g", pt, &[d, clk, q]).unwrap();
    let found = subgemini::Matcher::new(&pat, &top).find_all();
    assert_eq!(found.count(), 4, "gate-level matching works on composites");
}
