//! Scenario tests for the two-phase matcher.

use subgemini::{MatchOptions, Matcher, OverlapPolicy};
use subgemini_netlist::{instantiate, DeviceType, Netlist, Vertex};

fn inverter_cell() -> Netlist {
    let mut inv = Netlist::new("inv");
    let mos = inv.add_mos_types();
    let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
    inv.mark_port(a);
    inv.mark_port(y);
    inv.mark_global(vdd);
    inv.mark_global(gnd);
    inv.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
    inv.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
    inv
}

fn nand2_cell() -> Netlist {
    let mut nand = Netlist::new("nand2");
    let mos = nand.add_mos_types();
    let (a, b, y, mid) = (nand.net("a"), nand.net("b"), nand.net("y"), nand.net("mid"));
    let (vdd, gnd) = (nand.net("vdd"), nand.net("gnd"));
    nand.mark_port(a);
    nand.mark_port(b);
    nand.mark_port(y);
    nand.mark_global(vdd);
    nand.mark_global(gnd);
    nand.add_device("p1", mos.pmos, &[a, vdd, y]).unwrap();
    nand.add_device("p2", mos.pmos, &[b, vdd, y]).unwrap();
    nand.add_device("n1", mos.nmos, &[a, y, mid]).unwrap();
    nand.add_device("n2", mos.nmos, &[b, mid, gnd]).unwrap();
    nand
}

fn dff_like_cell() -> Netlist {
    // A larger cell: two back-to-back inverters plus pass transistors —
    // 6 devices, with internal nets.
    let mut c = Netlist::new("latch");
    let mos = c.add_mos_types();
    let (d, q, clk) = (c.net("d"), c.net("q"), c.net("clk"));
    let (x, qb) = (c.net("x"), c.net("qb"));
    let (vdd, gnd) = (c.net("vdd"), c.net("gnd"));
    c.mark_port(d);
    c.mark_port(q);
    c.mark_port(clk);
    c.mark_global(vdd);
    c.mark_global(gnd);
    c.add_device("pass", mos.nmos, &[clk, d, x]).unwrap();
    c.add_device("i1p", mos.pmos, &[x, vdd, qb]).unwrap();
    c.add_device("i1n", mos.nmos, &[x, gnd, qb]).unwrap();
    c.add_device("i2p", mos.pmos, &[qb, vdd, q]).unwrap();
    c.add_device("i2n", mos.nmos, &[qb, gnd, q]).unwrap();
    c.add_device("fb", mos.nmos, &[clk, q, x]).unwrap();
    c
}

/// A chip with known planted content.
fn mixed_chip(invs: usize, nands: usize, latches: usize) -> Netlist {
    let inv = inverter_cell();
    let nand = nand2_cell();
    let latch = dff_like_cell();
    let mut chip = Netlist::new("chip");
    let mut prev = chip.net("w_in");
    for i in 0..invs {
        let next = chip.net(format!("wi{i}"));
        instantiate(&mut chip, &inv, &format!("inv{i}"), &[prev, next]).unwrap();
        prev = next;
    }
    for i in 0..nands {
        let a = prev;
        let b = chip.net(format!("nb{i}"));
        let y = chip.net(format!("ny{i}"));
        instantiate(&mut chip, &nand, &format!("nand{i}"), &[a, b, y]).unwrap();
        prev = y;
    }
    for i in 0..latches {
        let d = prev;
        let q = chip.net(format!("lq{i}"));
        let clk = chip.net("clk");
        instantiate(&mut chip, &latch, &format!("lat{i}"), &[d, q, clk]).unwrap();
        prev = q;
    }
    chip
}

#[test]
fn finds_exact_counts_of_each_cell() {
    let chip = mixed_chip(7, 3, 2);
    let inv = Matcher::new(&inverter_cell(), &chip).find_all();
    // Each latch contains two structural inverters as well.
    assert_eq!(inv.count(), 7 + 2 * 2, "inverters: {:?}", inv.phase1);
    let nand = Matcher::new(&nand2_cell(), &chip).find_all();
    assert_eq!(nand.count(), 3);
    let latch = Matcher::new(&dff_like_cell(), &chip).find_all();
    assert_eq!(latch.count(), 2);
}

#[test]
fn no_instances_in_foreign_circuit() {
    let chip = mixed_chip(5, 0, 0);
    let outcome = Matcher::new(&nand2_cell(), &chip).find_all();
    assert_eq!(outcome.count(), 0);
}

#[test]
fn phase1_filter_is_complete() {
    // Every true instance's key image must be in the candidate vector.
    let chip = mixed_chip(4, 4, 0);
    let nand = nand2_cell();
    let cv = subgemini::candidates::generate(&nand, &chip);
    assert!(cv.candidates.len() >= 4);
    let outcome = Matcher::new(&nand, &chip).find_all();
    assert_eq!(outcome.count(), 4);
    for img in outcome.key_images() {
        assert!(cv.candidates.contains(&img));
    }
}

#[test]
fn fig7_inverter_in_nand_depends_on_special_nets() {
    let nand = nand2_cell();
    let inv = inverter_cell();
    let with = Matcher::new(&inv, &nand).find_all();
    assert_eq!(with.count(), 0, "specials respected: no inverter");
    let without = Matcher::new(&inv, &nand)
        .options(MatchOptions::ignore_globals())
        .find_all();
    assert_eq!(without.count(), 1, "specials ignored: Fig. 7 false gate");
}

#[test]
fn fig5_symmetry_needs_guess_but_no_backtracking() {
    // Two parallel transistors between the same nets: matching requires
    // one guess; either choice succeeds, so no backtracking.
    let build = |name: &str| {
        let mut nl = Netlist::new(name);
        let mos = nl.add_mos_types();
        let (g, s, d) = (nl.net("g"), nl.net("s"), nl.net("d"));
        nl.mark_port(g);
        nl.mark_port(s);
        nl.mark_port(d);
        nl.add_device("a", mos.nmos, &[g, s, d]).unwrap();
        nl.add_device("b", mos.nmos, &[g, s, d]).unwrap();
        nl
    };
    let outcome = Matcher::new(&build("pat"), &build("main")).find_all();
    assert_eq!(outcome.count(), 1);
    assert!(outcome.phase2.guesses >= 1, "stats: {:?}", outcome.phase2);
    assert_eq!(outcome.phase2.backtracks, 0, "stats: {:?}", outcome.phase2);
}

#[test]
fn overlap_policy_claims_devices() {
    // Overlapping matches: pattern = single NMOS with all-port nets;
    // a 2-high stack has 2 instances sharing the mid net but not devices,
    // so both policies agree here. Instead make the pattern a 2-chain and
    // main a 3-chain: the two chain instances overlap on the middle device.
    let mut pat = Netlist::new("chain2");
    let mos = pat.add_mos_types();
    let (a, m, b) = (pat.net("a"), pat.net("m"), pat.net("b"));
    let g = pat.net("g");
    pat.mark_port(a);
    pat.mark_port(b);
    pat.mark_port(g);
    pat.add_device("m1", mos.nmos, &[g, a, m]).unwrap();
    pat.add_device("m2", mos.nmos, &[g, m, b]).unwrap();

    let mut main = Netlist::new("chain3");
    let mos2 = main.add_mos_types();
    let (x0, x1, x2, x3) = (
        main.net("x0"),
        main.net("x1"),
        main.net("x2"),
        main.net("x3"),
    );
    let gg = main.net("gg");
    main.add_device("t1", mos2.nmos, &[gg, x0, x1]).unwrap();
    main.add_device("t2", mos2.nmos, &[gg, x1, x2]).unwrap();
    main.add_device("t3", mos2.nmos, &[gg, x2, x3]).unwrap();

    let both = Matcher::new(&pat, &main).find_all();
    assert_eq!(both.count(), 2, "overlapping instances allowed");
    let claimed = Matcher::new(&pat, &main)
        .options(MatchOptions {
            overlap: OverlapPolicy::ClaimDevices,
            ..MatchOptions::default()
        })
        .find_all();
    assert_eq!(claimed.count(), 1, "claiming drops the overlap");
    assert!(claimed.phase2.overlap_dropped >= 1 || claimed.phase2.candidates_tried >= 1);
}

#[test]
fn max_instances_short_circuits() {
    let chip = mixed_chip(9, 0, 0);
    let outcome = Matcher::new(&inverter_cell(), &chip)
        .options(MatchOptions {
            max_instances: 3,
            ..MatchOptions::default()
        })
        .find_all();
    assert_eq!(outcome.count(), 3);
}

#[test]
fn missing_global_counterpart_is_empty() {
    // Pattern references global `vbias`; chip has no such net.
    let mut pat = Netlist::new("biased");
    let mos = pat.add_mos_types();
    let (g, d, vbias) = (pat.net("g"), pat.net("d"), pat.net("vbias"));
    pat.mark_port(g);
    pat.mark_port(d);
    pat.mark_global(vbias);
    pat.add_device("m", mos.nmos, &[g, vbias, d]).unwrap();
    let chip = mixed_chip(3, 0, 0);
    let outcome = Matcher::new(&pat, &chip).find_all();
    assert_eq!(outcome.count(), 0);
}

#[test]
fn deterministic_across_runs() {
    let chip = mixed_chip(5, 2, 1);
    let nand = nand2_cell();
    let a = Matcher::new(&nand, &chip).find_all();
    let b = Matcher::new(&nand, &chip).find_all();
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.phase1, b.phase1);
    assert_eq!(a.phase2, b.phase2);
}

#[test]
fn trace_records_passes_for_successful_candidate() {
    let chip = mixed_chip(2, 1, 0);
    let outcome = Matcher::new(&nand2_cell(), &chip)
        .options(MatchOptions {
            record_trace: true,
            ..MatchOptions::default()
        })
        .find_all();
    assert_eq!(outcome.count(), 1);
    let trace = outcome.trace.expect("trace recorded");
    assert!(trace.pass_count() >= 1);
    // The final snapshot must show every pattern vertex matched.
    let last = trace.passes.last().unwrap();
    assert!(last.s_devices.iter().all(|c| c.matched));
    assert!(last.s_nets.iter().all(|c| c.matched));
}

#[test]
fn source_drain_listed_either_way_matches() {
    let inv = inverter_cell();
    // Rebuild an inverter instance with swapped s/d pin order in main.
    let mut chip = Netlist::new("chip");
    let mos = chip.add_mos_types();
    let (a, y, vdd, gnd) = (
        chip.net("a"),
        chip.net("y"),
        chip.net("vdd"),
        chip.net("gnd"),
    );
    chip.mark_global(vdd);
    chip.mark_global(gnd);
    chip.add_device("mp", mos.pmos, &[a, y, vdd]).unwrap(); // s<->d swapped
    chip.add_device("mn", mos.nmos, &[a, y, gnd]).unwrap();
    let outcome = Matcher::new(&inv, &chip).find_all();
    assert_eq!(outcome.count(), 1);
}

#[test]
fn multi_type_pattern_with_passives() {
    // Pattern: RC-loaded inverter (4 devices, 3 types).
    let mut pat = Netlist::new("rcinv");
    let mos = pat.add_mos_types();
    let res = pat.add_type(DeviceType::two_terminal("res")).unwrap();
    let cap = pat.add_type(DeviceType::two_terminal("cap")).unwrap();
    let (a, y, o) = (pat.net("a"), pat.net("y"), pat.net("o"));
    let (vdd, gnd) = (pat.net("vdd"), pat.net("gnd"));
    pat.mark_port(a);
    pat.mark_port(o);
    pat.mark_global(vdd);
    pat.mark_global(gnd);
    pat.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
    pat.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
    pat.add_device("r", res, &[y, o]).unwrap();
    pat.add_device("c", cap, &[o, gnd]).unwrap();

    let mut chip = Netlist::new("chip");
    for i in 0..3 {
        let a = chip.net(format!("in{i}"));
        let o = chip.net(format!("out{i}"));
        instantiate(&mut chip, &pat, &format!("u{i}"), &[a, o]).unwrap();
    }
    let outcome = Matcher::new(&pat, &chip).find_all();
    assert_eq!(outcome.count(), 3);
    // The resistor partitions the candidate space hard: the CV should
    // be exactly the 3 instances (perfect filter).
    assert!(outcome.phase1.cv_size <= 6, "{:?}", outcome.phase1);
}

#[test]
fn key_vertex_is_reported() {
    let chip = mixed_chip(2, 1, 0);
    let outcome = Matcher::new(&nand2_cell(), &chip).find_all();
    match outcome.key {
        Some(Vertex::Device(_)) | Some(Vertex::Net(_)) => {}
        None => panic!("key must be chosen when instances exist"),
    }
}

#[test]
fn empty_pattern_finds_nothing() {
    let chip = mixed_chip(1, 0, 0);
    let pat = Netlist::new("empty");
    let outcome = Matcher::new(&pat, &chip).find_all();
    assert_eq!(outcome.count(), 0);
}

#[test]
fn find_first_returns_one() {
    let chip = mixed_chip(5, 0, 0);
    let m = Matcher::new(&inverter_cell(), &chip).find_first();
    assert!(m.is_some());
}

#[test]
fn port_spreading_mode_never_changes_results() {
    let chip = mixed_chip(4, 2, 2);
    for cell in [inverter_cell(), nand2_cell(), dff_like_cell()] {
        let suppressed = Matcher::new(&cell, &chip).find_all();
        let literal = Matcher::new(&cell, &chip)
            .options(MatchOptions {
                spread_from_port_images: true,
                ..MatchOptions::default()
            })
            .find_all();
        let sets = |o: &subgemini::MatchOutcome| {
            let mut v: Vec<_> = o.instances.iter().map(|m| m.device_set()).collect();
            v.sort();
            v
        };
        assert_eq!(sets(&suppressed), sets(&literal), "{}", cell.name());
    }
}

#[test]
fn generate_many_agrees_with_individual_runs() {
    let chip = mixed_chip(4, 3, 2);
    let patterns = [inverter_cell(), nand2_cell(), dff_like_cell()];
    let refs: Vec<&Netlist> = patterns.iter().collect();
    let shared = subgemini::candidates::generate_many(&refs, &chip);
    assert_eq!(shared.len(), patterns.len());
    for (pattern, cv_shared) in patterns.iter().zip(&shared) {
        let solo = subgemini::candidates::generate(pattern, &chip);
        assert_eq!(cv_shared.key, solo.key, "{}", pattern.name());
        assert_eq!(cv_shared.candidates, solo.candidates, "{}", pattern.name());
        assert_eq!(
            cv_shared.stats.iterations,
            solo.stats.iterations,
            "{}",
            pattern.name()
        );
    }
}

#[test]
fn pattern_larger_than_main_is_empty_fast() {
    let chip = mixed_chip(1, 0, 0);
    let outcome = Matcher::new(&dff_like_cell(), &chip).find_all();
    assert_eq!(outcome.count(), 0);
    assert!(outcome.phase1.proven_empty);
}

#[test]
fn parallel_matches_serial_results() {
    let chip = mixed_chip(8, 4, 3);
    for cell in [inverter_cell(), nand2_cell(), dff_like_cell()] {
        let serial = Matcher::new(&cell, &chip).find_all();
        for threads in [0usize, 2, 8] {
            let par = Matcher::new(&cell, &chip)
                .options(MatchOptions {
                    threads,
                    ..MatchOptions::default()
                })
                .find_all();
            assert_eq!(
                serial.instances,
                par.instances,
                "{} with {threads} threads",
                cell.name()
            );
        }
        // Claiming policy also merges identically.
        let serial = Matcher::new(&cell, &chip)
            .options(MatchOptions::extraction())
            .find_all();
        let par = Matcher::new(&cell, &chip)
            .options(MatchOptions {
                threads: 4,
                ..MatchOptions::extraction()
            })
            .find_all();
        assert_eq!(serial.instances, par.instances, "{} claimed", cell.name());
    }
}
