//! `find_all_many` must be observationally identical to per-pattern
//! `find_all` — the shared compiled main circuit and shared Phase I
//! label trace are pure caches. Also pins the cache-hit accounting:
//! a multi-pattern run compiles the main circuit exactly once.

use subgemini::{find_all, find_all_many, MatchOptions};
use subgemini_netlist::{DeviceType, Netlist};
use subgemini_workloads::{analog, cells, gen};

fn check_equivalence(patterns: &[&Netlist], main: &Netlist, options: &MatchOptions) {
    let many = find_all_many(patterns, main, options);
    assert_eq!(many.len(), patterns.len());
    for (pattern, outcome) in patterns.iter().zip(&many) {
        let solo = find_all(pattern, main, options);
        assert_eq!(
            outcome.instances,
            solo.instances,
            "pattern {}: shared-compilation instances diverge",
            pattern.name()
        );
        assert_eq!(outcome.key, solo.key, "pattern {}", pattern.name());
        assert_eq!(outcome.phase1, solo.phase1, "pattern {}", pattern.name());
        assert_eq!(outcome.phase2, solo.phase2, "pattern {}", pattern.name());
    }
}

#[test]
fn library_survey_matches_per_pattern_runs() {
    let library = cells::library();
    let refs: Vec<&Netlist> = library.iter().collect();
    let adder = gen::ripple_adder(8);
    check_equivalence(&refs, &adder.netlist, &MatchOptions::default());
}

#[test]
fn analog_cells_match_on_mixed_signal_chip() {
    let library = analog::analog_library();
    let refs: Vec<&Netlist> = library.iter().collect();
    let chip = analog::mixed_signal_chip(7, 3);
    check_equivalence(&refs, &chip.netlist, &MatchOptions::default());
}

#[test]
fn equivalence_holds_across_option_variants() {
    let library = [cells::inv(), cells::nand2(), cells::full_adder()];
    let refs: Vec<&Netlist> = library.iter().collect();
    let adder = gen::ripple_adder(6);
    for options in [
        MatchOptions {
            threads: 1,
            ..MatchOptions::default()
        },
        MatchOptions {
            threads: 4,
            ..MatchOptions::default()
        },
        MatchOptions {
            respect_globals: false,
            ..MatchOptions::default()
        },
        MatchOptions::extraction(),
    ] {
        check_equivalence(&refs, &adder.netlist, &options);
    }
}

#[test]
fn main_is_compiled_once_across_patterns() {
    let library = [cells::inv(), cells::nand2(), cells::full_adder()];
    let refs: Vec<&Netlist> = library.iter().collect();
    let adder = gen::ripple_adder(6);
    let options = MatchOptions {
        collect_metrics: true,
        ..MatchOptions::default()
    };
    let outcomes = find_all_many(&refs, &adder.netlist, &options);
    for (i, outcome) in outcomes.iter().enumerate() {
        let m = outcome.metrics.as_ref().expect("collect_metrics was set");
        let hits = m.counters.get("compile.main_cache_hits");
        if i == 0 {
            assert_eq!(hits, 0, "first pattern pays the compile");
        } else {
            assert_eq!(hits, 1, "pattern {i} must reuse the main compilation");
        }
    }
}

/// Every survey row's `total_ns` covers the phases it reports, the main
/// compile included: the row that compiles the main circuit times that
/// compile too, even when its own search ends at once.
#[test]
fn survey_row_total_covers_its_own_compile() {
    // A resistor divider: the adder has no resistors, so Phase I proves
    // the first row empty at once.
    let mut divider = Netlist::new("divider");
    let res = divider.add_type(DeviceType::two_terminal("res")).unwrap();
    let (a, m, b) = (divider.net("a"), divider.net("m"), divider.net("b"));
    divider.mark_port(a);
    divider.mark_port(b);
    divider.add_device("r1", res, &[a, m]).unwrap();
    divider.add_device("r2", res, &[m, b]).unwrap();
    let library = [divider, cells::inv(), cells::full_adder()];
    let refs: Vec<&Netlist> = library.iter().collect();
    let adder = gen::ripple_adder(512);
    let options = MatchOptions {
        collect_metrics: true,
        ..MatchOptions::default()
    };
    let rows = find_all_many(&refs, &adder.netlist, &options);
    assert!(rows[0].phase1.proven_empty, "no resistor in the adder");
    assert_eq!(rows[2].count(), 512);
    for (pattern, row) in library.iter().zip(&rows) {
        let m = row.metrics.as_ref().expect("collect_metrics was set");
        let phases = m.compile_ns + m.phase1_refine_ns + m.phase1_select_ns + m.phase2_wall_ns;
        assert!(
            m.total_ns >= phases,
            "{}: total_ns {} < compile {} + phase I {} + {} + phase II {}",
            pattern.name(),
            m.total_ns,
            m.compile_ns,
            m.phase1_refine_ns,
            m.phase1_select_ns,
            m.phase2_wall_ns
        );
    }
}
