//! Integration tests for the extraction engine (experiment E9) across
//! crates: extract, then independently validate with Gemini.

use subgemini::metrics::ExtractCellMetrics;
use subgemini::{Extractor, MatchOptions, WarmMain};
use subgemini_gemini::compare;
use subgemini_netlist::{Artifact, NetlistStats};
use subgemini_workloads::{cells, gen};

fn full_library_extractor() -> Extractor {
    let mut e = Extractor::new();
    for cell in cells::library() {
        e.add_cell(cell);
    }
    e
}

#[test]
fn adder_extracts_to_exactly_its_full_adders() {
    let adder = gen::ripple_adder(6);
    let (gates, report) = full_library_extractor().extract(&adder.netlist).unwrap();
    assert_eq!(report.count_of("full_adder"), 6);
    assert_eq!(report.unabsorbed_devices, 0);
    // All transistors gone; 6 composite gates remain.
    let stats = NetlistStats::of(&gates);
    assert_eq!(stats.devices, 6);
    assert!(stats.devices_by_type.contains_key("full_adder"));
    assert!(!stats.devices_by_type.contains_key("nmos"));
}

#[test]
fn shift_register_extracts_to_dffs_not_latches() {
    // Largest-first ordering must let dff claim its transistors before
    // the smaller dlatch/inv/buf patterns can eat them.
    let sreg = gen::shift_register(5);
    let (gates, report) = full_library_extractor().extract(&sreg.netlist).unwrap();
    assert_eq!(report.count_of("dff"), 5);
    assert_eq!(report.count_of("dlatch"), 0);
    assert_eq!(report.count_of("inv"), 0);
    assert_eq!(report.unabsorbed_devices, 0);
    assert_eq!(gates.device_count(), 5);
}

#[test]
fn sram_extracts_to_bit_cells() {
    let sram = gen::sram_array(3, 4);
    let (gates, report) = full_library_extractor().extract(&sram.netlist).unwrap();
    assert_eq!(report.count_of("sram6t"), 12);
    assert_eq!(report.unabsorbed_devices, 0);
    assert_eq!(gates.device_count(), 12);
    // Word/bit lines survive as shared nets.
    assert!(gates.find_net("wl0").is_some());
    assert!(gates.find_net("bl3").is_some());
}

#[test]
fn soup_extraction_covers_every_planted_gate() {
    let soup = gen::random_soup(31337, 40);
    let (gates, report) = full_library_extractor().extract(&soup.netlist).unwrap();
    // Largest-first extraction may repartition smaller cells into
    // larger-cell matches (e.g. chained planted inverters form a `buf`),
    // but every primitive transistor must be absorbed into some gate.
    assert_eq!(report.unabsorbed_devices, 0, "all transistors absorbed");
    let absorbed: usize = report
        .instances(&soup.netlist)
        .map(|inst| inst.children().len())
        .sum();
    assert_eq!(absorbed, soup.netlist.device_count());
    assert_eq!(gates.device_count(), report.instance_count());
    gates.validate().unwrap();
}

#[test]
fn extracted_instance_absorbs_correct_transistors() {
    let adder = gen::ripple_adder(2);
    let (_gates, report) = full_library_extractor().extract(&adder.netlist).unwrap();
    for inst in report.instances(&adder.netlist) {
        assert_eq!(inst.cell(), Some("full_adder"));
        assert_eq!(inst.children().len(), 28);
        // All absorbed transistors share the instance prefix.
        let names: Vec<_> = inst.children().map(|d| d.name()).collect();
        let prefix: Vec<&str> = names.iter().map(|n| n.split('.').next().unwrap()).collect();
        assert!(prefix.windows(2).all(|w| w[0] == w[1]), "{prefix:?}");
    }
}

#[test]
fn two_equal_chips_extract_to_isomorphic_gate_netlists() {
    let a = gen::ripple_adder(4);
    let b = gen::ripple_adder(4);
    let (ga, _) = full_library_extractor().extract(&a.netlist).unwrap();
    let (gb, _) = full_library_extractor().extract(&b.netlist).unwrap();
    assert!(compare(&ga, &gb).is_isomorphic());
}

#[test]
fn extraction_is_idempotent_on_gate_netlists() {
    // Running the extractor again on the gate-level output must be a
    // no-op: no transistors remain to match.
    let adder = gen::ripple_adder(3);
    let extractor = full_library_extractor();
    let (gates, _) = extractor.extract(&adder.netlist).unwrap();
    let (gates2, report2) = extractor.extract(&gates).unwrap();
    assert_eq!(report2.instance_count(), 0);
    assert_eq!(gates2.device_count(), gates.device_count());
}

#[test]
fn mixed_logic_block_extracts_fully() {
    // adder + registers + a few planted discrete gates.
    let mut chip = gen::ripple_adder(2).netlist;
    let clk = chip.net("clk");
    for i in 0..2 {
        let d = chip.net(format!("s{i}"));
        let q = chip.net(format!("q{i}"));
        subgemini_netlist::instantiate(&mut chip, &cells::dff(), &format!("r{i}"), &[d, clk, q])
            .unwrap();
    }
    let a = chip.net("q0");
    let b = chip.net("q1");
    let y = chip.net("alarm");
    subgemini_netlist::instantiate(&mut chip, &cells::nand2(), "alarm_gate", &[a, b, y]).unwrap();

    let (gates, report) = full_library_extractor().extract(&chip).unwrap();
    assert_eq!(report.count_of("full_adder"), 2);
    assert_eq!(report.count_of("dff"), 2);
    assert_eq!(report.count_of("nand2"), 1);
    assert_eq!(report.unabsorbed_devices, 0);
    assert_eq!(gates.device_count(), 5);
}

#[test]
fn unabsorbed_count_ignores_colliding_type_names() {
    // Regression: `unabsorbed_devices` used to compare device *type*
    // names against library cell names, so a main device whose type
    // merely shares a cell's name — the normal state of a partially
    // extracted netlist fed back in — was silently counted as
    // absorbed. Now only composites created by the run itself count.
    use subgemini_netlist::Netlist;
    let mut flat = Netlist::new("collide");
    for i in 0..2 {
        let a = flat.net(format!("a{i}"));
        let y = flat.net(format!("y{i}"));
        subgemini_netlist::instantiate(&mut flat, &cells::inv(), &format!("u{i}"), &[a, y])
            .unwrap();
    }
    let mut extractor = Extractor::new();
    extractor.add_cell(cells::inv());
    let (gates, report) = extractor.extract(&flat).unwrap();
    assert_eq!(report.count_of("inv"), 2);
    assert_eq!(report.unabsorbed_devices, 0);

    // Round 2, re-entrant: two fresh raw inverters alongside the two
    // round-1 composites, whose type name (`inv`) collides with the
    // library cell. The offset keeps round-2 composite names clear of
    // round 1's.
    let mut evolved = gates.clone();
    for i in 0..2 {
        let a = evolved.net(format!("b{i}"));
        let y = evolved.net(format!("z{i}"));
        subgemini_netlist::instantiate(&mut evolved, &cells::inv(), &format!("v{i}"), &[a, y])
            .unwrap();
    }
    extractor.set_composite_offset(report.instance_count());
    let (gates2, report2) = extractor.extract(&evolved).unwrap();
    assert_eq!(report2.count_of("inv"), 2, "only the raw pair matches");
    // The two round-1 composites survive and are residue of *this*
    // run; the buggy name comparison reported 0 here.
    assert_eq!(report2.unabsorbed_devices, 2, "{report2:?}");
    assert_eq!(gates2.device_count(), 4);
}

#[test]
fn extract_metrics_cell_timer_matches_outcome_total() {
    // Regression: the per-cell wall clock was read from the timer twice
    // (once for the outcome's `total_ns`, once for `match_ns`), so the
    // two reports of the same quantity always disagreed.
    let adder = gen::ripple_adder(4);
    let mut extractor = full_library_extractor();
    extractor.set_options(subgemini::MatchOptions {
        collect_metrics: true,
        ..subgemini::MatchOptions::extraction()
    });
    let (_, report) = extractor.extract(&adder.netlist).unwrap();
    let metrics = report.metrics.as_ref().expect("metrics requested");
    assert!(!metrics.cells.is_empty());
    for cm in &metrics.cells {
        let inner = cm.match_metrics.as_ref().expect("per-match metrics");
        assert_eq!(
            cm.match_ns, inner.total_ns,
            "cell {}: extractor and match report disagree on the same timer",
            cm.cell
        );
    }
    assert!(metrics.total_ns >= metrics.cells.iter().map(|c| c.match_ns).sum::<u64>());
}

/// Extracts `[dff, full_adder, nand2, inv]` (run largest first) from
/// `main` with metrics on, and returns each cell's metrics.
fn cell_metrics(
    main: &subgemini_netlist::Netlist,
    warm: Option<WarmMain>,
) -> Vec<ExtractCellMetrics> {
    let mut extractor = Extractor::new();
    for cell in [
        cells::dff(),
        cells::full_adder(),
        cells::nand2(),
        cells::inv(),
    ] {
        extractor.add_cell(cell);
    }
    extractor.set_options(MatchOptions {
        collect_metrics: true,
        warm_main: warm,
        ..MatchOptions::extraction()
    });
    let (_, report) = extractor.extract(main).unwrap();
    report.metrics.expect("metrics requested").cells
}

/// Which cell pays for compiling the main circuit: the first cell on
/// each netlist version. A collapse changes the netlist, so the next
/// cell compiles it afresh (a warm handle describes the input only); a
/// round that finds nothing leaves the snapshot to the next cell, which
/// counts a cache hit.
#[test]
fn extraction_attributes_each_main_compile_to_one_cell() {
    let counts = |cells: &[ExtractCellMetrics]| -> Vec<(String, u64, u64, u64)> {
        cells
            .iter()
            .map(|cm| {
                let c = &cm
                    .match_metrics
                    .as_ref()
                    .expect("per-match metrics")
                    .counters;
                (
                    cm.cell.clone(),
                    c.get("artifact.warm_hits"),
                    c.get("artifact.warm_misses"),
                    c.get("compile.main_cache_hits"),
                )
            })
            .collect()
    };
    let expect = |rows: [(&str, u64, u64, u64); 4]| -> Vec<(String, u64, u64, u64)> {
        rows.iter()
            .map(|&(c, h, m, k)| (c.to_string(), h, m, k))
            .collect()
    };
    let load_ns = |cm: &ExtractCellMetrics| {
        let m = cm.match_metrics.as_ref().expect("per-match metrics");
        m.counters.get("artifact.load_ns")
    };

    // Warm: the handle serves the input, so `full_adder` adopts it; its
    // instances collapse, and `dff` misses on the changed netlist.
    let adder = gen::ripple_adder(4);
    let warm = WarmMain::from_artifact(Artifact::build(&adder.netlist), 1234);
    let cells = cell_metrics(&adder.netlist, Some(warm));
    assert_eq!(
        counts(&cells),
        expect([
            ("full_adder", 1, 0, 0),
            ("dff", 0, 1, 0),
            ("nand2", 0, 0, 1),
            ("inv", 0, 0, 1),
        ])
    );
    assert_eq!(load_ns(&cells[0]), 1234);
    assert!(cells[1..].iter().all(|cm| load_ns(cm) == 0));

    // Cold: the same cells compile, without artifact counters. The main
    // is large next to the patterns, so the compile `full_adder` reports
    // dwarfs the pattern-only compiles of the cache hits after `dff`.
    let adder = gen::ripple_adder(64);
    let cells = cell_metrics(&adder.netlist, None);
    assert_eq!(
        counts(&cells),
        expect([
            ("full_adder", 0, 0, 0),
            ("dff", 0, 0, 0),
            ("nand2", 0, 0, 1),
            ("inv", 0, 0, 1),
        ])
    );
    let compile_ns = |cm: &ExtractCellMetrics| cm.match_metrics.as_ref().unwrap().compile_ns;
    let pattern_only = compile_ns(&cells[2]).min(compile_ns(&cells[3]));
    assert!(
        compile_ns(&cells[0]) > pattern_only,
        "full_adder's compile_ns {} must include the main compile (cache hits: {})",
        compile_ns(&cells[0]),
        pattern_only
    );
    for cm in &cells {
        let m = cm.match_metrics.as_ref().unwrap();
        let phases = m.compile_ns + m.phase1_refine_ns + m.phase1_select_ns + m.phase2_wall_ns;
        assert!(
            cm.match_ns >= phases,
            "{}: match_ns covers its phases",
            cm.cell
        );
    }
}
