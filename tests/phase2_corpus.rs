//! Phase II output, pinned. The determinism suites compare runs across
//! thread counts only, so a change that moved every label the same way
//! would pass them; this corpus pins the bytes themselves. Each case's
//! digest covers every instance's device and net images in order, the
//! key vertex, the Phase I and Phase II stats, the completeness, the
//! NDJSON event journal and the `reject.*`, `candidates.*` and
//! `instances.*` counters (never a timer or a `scheduler.*` counter),
//! plus Table 1's rendered trace for Fig. 1. Every case runs under both
//! overlap policies at threads 1 and 2, and both thread counts must
//! reproduce the one pinned digest.

use subgemini::events::journal_to_ndjson;
use subgemini::{MatchOptions, MatchOutcome, Matcher, OverlapPolicy, WorkBudget};
use subgemini_netlist::hashing::fnv1a;
use subgemini_netlist::{DeviceType, DeviceTypeId, Netlist};
use subgemini_workloads::{cells, gen, paper};

/// Appends the canonical rendering of one search to `out`.
fn render_outcome(outcome: &MatchOutcome, out: &mut String) {
    for m in &outcome.instances {
        let devices: Vec<String> = m.devices.iter().map(|d| d.raw().to_string()).collect();
        let nets: Vec<String> = m.nets.iter().map(|n| n.raw().to_string()).collect();
        out.push_str(&format!(
            "inst d {} n {}\n",
            devices.join(" "),
            nets.join(" ")
        ));
    }
    out.push_str(&format!(
        "key {:?}\nphase1 {:?}\nphase2 {:?}\ncompleteness {:?}\n",
        outcome.key, outcome.phase1, outcome.phase2, outcome.completeness
    ));
    let journal = outcome.events.as_ref().expect("events were requested");
    out.push_str(&journal_to_ndjson(journal));
    let metrics = outcome.metrics.as_ref().expect("metrics were requested");
    for (name, value) in metrics.counters.iter() {
        if ["reject.", "candidates.", "instances."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            out.push_str(&format!("counter {name} {value}\n"));
        }
    }
}

/// One corpus case: a list of `(pattern, main)` searches run with the
/// same options.
struct Case {
    name: &'static str,
    searches: Vec<(Netlist, Netlist)>,
    options: MatchOptions,
    /// Fold the rendered Phase II trace (Table 1) into the digest.
    render_trace: bool,
}

fn case(name: &'static str, searches: Vec<(Netlist, Netlist)>, options: MatchOptions) -> Case {
    Case {
        name,
        searches,
        options,
        render_trace: false,
    }
}

/// A 4-cycle of resistors with two interchangeable interior nets (see
/// `undo_log_determinism.rs`).
fn square() -> Netlist {
    let mut nl = Netlist::new("square");
    let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
    let (a, x, b, y) = (nl.net("a"), nl.net("x"), nl.net("b"), nl.net("y"));
    nl.mark_port(a);
    nl.mark_port(b);
    nl.add_device("r1", res, &[a, x]).unwrap();
    nl.add_device("r2", res, &[x, b]).unwrap();
    nl.add_device("r3", res, &[b, y]).unwrap();
    nl.add_device("r4", res, &[y, a]).unwrap();
    nl
}

/// The backtrack trap: guessing `Z` fails only after further spreading.
fn trap() -> Netlist {
    let mut nl = Netlist::new("trap");
    let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
    let (a, b) = (nl.net("A"), nl.net("B"));
    let (x, y, z, w) = (nl.net("X"), nl.net("Y"), nl.net("Z"), nl.net("W"));
    nl.add_device("ax", res, &[a, x]).unwrap();
    nl.add_device("ay", res, &[a, y]).unwrap();
    nl.add_device("az", res, &[a, z]).unwrap();
    nl.add_device("bx", res, &[b, x]).unwrap();
    nl.add_device("by", res, &[b, y]).unwrap();
    nl.add_device("zw", res, &[z, w]).unwrap();
    nl
}

/// A ring of `n` identical resistors: Phase II must guess a direction.
fn ring(nl: &mut Netlist, n: usize, prefix: &str) {
    let res = match nl.device_types().iter().position(|t| t.name() == "res") {
        Some(i) => DeviceTypeId::new(i as u32),
        None => nl.add_type(DeviceType::two_terminal("res")).unwrap(),
    };
    let nets: Vec<_> = (0..n).map(|i| nl.net(format!("{prefix}{i}"))).collect();
    for i in 0..n {
        nl.add_device(format!("{prefix}r{i}"), res, &[nets[i], nets[(i + 1) % n]])
            .unwrap();
    }
}

fn rings() -> (Netlist, Netlist) {
    let mut pattern = Netlist::new("rings44");
    ring(&mut pattern, 4, "p");
    ring(&mut pattern, 4, "q");
    let mut main = Netlist::new("rings446");
    ring(&mut main, 4, "a");
    ring(&mut main, 4, "b");
    ring(&mut main, 6, "c");
    (pattern, main)
}

/// Every library cell searched in `main`.
fn over_library(main: &Netlist) -> Vec<(Netlist, Netlist)> {
    cells::library()
        .into_iter()
        .map(|cell| (cell, main.clone()))
        .collect()
}

/// The corpus, in pinned order.
fn cases() -> Vec<Case> {
    let metered = MatchOptions {
        trace_events: true,
        collect_metrics: true,
        ..MatchOptions::default()
    };
    let with = |o: MatchOptions| MatchOptions {
        trace_events: true,
        collect_metrics: true,
        ..o
    };
    vec![
        Case {
            render_trace: true,
            ..case(
                "fig1-table1",
                vec![(paper::fig1_pattern(), paper::fig1_main())],
                with(MatchOptions {
                    record_trace: true,
                    spread_from_port_images: true,
                    ..MatchOptions::default()
                }),
            )
        },
        case("fig5", vec![paper::fig5_pair()], metered.clone()),
        case(
            "fig7",
            vec![(paper::fig7_inverter(), paper::fig7_nand())],
            metered.clone(),
        ),
        case(
            "fig7-ignore-globals",
            vec![(paper::fig7_inverter(), paper::fig7_nand())],
            with(MatchOptions::ignore_globals()),
        ),
        case("square-in-trap", vec![(square(), trap())], metered.clone()),
        case("rings", vec![rings()], metered.clone()),
        case(
            "library-in-sram",
            over_library(&gen::sram_array(4, 6).netlist),
            metered.clone(),
        ),
        case(
            "library-in-soup",
            over_library(&gen::random_soup(29, 60).netlist),
            metered.clone(),
        ),
        case(
            "library-near-misses",
            cells::library()
                .into_iter()
                .enumerate()
                .map(|(i, cell)| {
                    let field = gen::near_miss_field(&cell, 12, 40 + i as u64).netlist;
                    (cell, field)
                })
                .collect(),
            metered.clone(),
        ),
        case(
            "dff-in-shift-register-budgeted",
            vec![(cells::dff(), gen::shift_register(8).netlist)],
            with(MatchOptions {
                budget: Some(WorkBudget::effort(BUDGET)),
                ..MatchOptions::default()
            }),
        ),
    ]
}

/// The effort cap of the budgeted case: it truncates the search after
/// some instances are found (checked below).
const BUDGET: u64 = 60;

const POLICIES: [OverlapPolicy; 2] = [OverlapPolicy::AllowOverlap, OverlapPolicy::ClaimDevices];

/// Runs `case` under `overlap` at `threads` and digests every search.
fn case_digest(case: &Case, overlap: OverlapPolicy, threads: usize) -> u64 {
    let options = MatchOptions {
        overlap,
        threads,
        ..case.options.clone()
    };
    let mut out = String::new();
    for (pattern, main) in &case.searches {
        out.push_str(&format!("search {} in {}\n", pattern.name(), main.name()));
        let outcome = Matcher::new(pattern, main)
            .options(options.clone())
            .find_all();
        render_outcome(&outcome, &mut out);
        if case.render_trace {
            let trace = outcome.trace.as_ref().expect("trace was requested");
            out.push_str(&trace.render(pattern, main));
        }
    }
    fnv1a(&out)
}

/// [`case_digest`] for each case of [`cases`], under each of
/// [`POLICIES`] in turn.
const PHASE2_PINNED: [[u64; 2]; 10] = [
    [0x4468c624bd5240fa, 0x4468c624bd5240fa],
    [0x352c385ced84d07f, 0x8d37afe9d24dfdac],
    [0x4c48ecc16989ba00, 0x4c48ecc16989ba00],
    [0xaff12f4eaa3672be, 0xaff12f4eaa3672be],
    [0xed1ab924e27c9b2b, 0xed1ab924e27c9b2b],
    [0x2b87fb9da16c64c4, 0x6b8c397e1a02abfb],
    [0x04618106f817059e, 0x53ac4dae814ca516],
    [0xa8053d2fecfd6992, 0x4d9ac2cc43638955],
    [0x5d074ee8b4cda736, 0x5d074ee8b4cda736],
    [0x349bf5c2ecf34ee5, 0x349bf5c2ecf34ee5],
];

#[test]
fn phase2_outputs_match_the_pinned_digests() {
    let cases = cases();
    assert_eq!(cases.len(), PHASE2_PINNED.len());
    let mut mismatches = Vec::new();
    for (case, pinned) in cases.iter().zip(PHASE2_PINNED) {
        for (&overlap, want) in POLICIES.iter().zip(pinned) {
            for threads in [1, 2] {
                let got = case_digest(case, overlap, threads);
                if got != want {
                    mismatches.push(format!(
                        "{} {overlap:?} threads {threads}: got {got:#018x}, pinned {want:#018x}",
                        case.name
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn the_corpus_reaches_what_it_pins() {
    let cases = cases();
    let run = |name: &str| {
        let case = cases.iter().find(|c| c.name == name).expect("case exists");
        let (pattern, main) = &case.searches[0];
        Matcher::new(pattern, main)
            .options(case.options.clone())
            .find_all()
    };
    let trapped = run("square-in-trap");
    assert!(trapped.phase2.backtracks > 0, "the trap must backtrack");
    let ringed = run("rings");
    assert!(ringed.phase2.guesses > 0, "the rings must guess");
    let budgeted = run("dff-in-shift-register-budgeted");
    assert!(
        !budgeted.completeness.is_complete() && budgeted.count() > 0,
        "the budgeted case must truncate after finding something: {:?}",
        budgeted.completeness
    );
}
