//! Fingerprint pruning must be invisible in results and visible only
//! in the counters. A search prunes exactly when it adopts a warm
//! handle, so the pruned arm runs warm (off an artifact built from the
//! main circuit) and the unpruned arm cold: on every workload the two
//! produce identical instance sets, stats, and completeness (the prune
//! is provably sound — it may only discard candidates Phase II would
//! reject anyway), and on a decoy-heavy field the prune ratio is
//! measurably nonzero. Pruned runs are also pinned byte-identical
//! across thread counts, journal included.

use subgemini::events::journal_to_ndjson;
use subgemini::{MatchOptions, MatchOutcome, Matcher, WarmMain};
use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{instantiate, Artifact, DeviceType, NetId, Netlist};
use subgemini_workloads::{cells, gen};

/// Random MOS + resistor soup over `n_nets` wires with power rails,
/// following the `prop_differential.rs` generator idiom.
fn random_soup(rng: &mut Rng64, n_nets: usize, n_dev: usize) -> Netlist {
    let mut nl = Netlist::new("soup");
    let mos = nl.add_mos_types();
    let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
    let nets: Vec<NetId> = (0..n_nets.max(2))
        .map(|i| nl.net(format!("w{i}")))
        .collect();
    let (vdd, gnd) = (nl.net("vdd"), nl.net("gnd"));
    nl.mark_global(vdd);
    nl.mark_global(gnd);
    for i in 0..n_dev {
        let p = |rng: &mut Rng64| nets[rng.index(nets.len())];
        match rng.range(0, 4) {
            0 => {
                let (d, g) = (p(rng), p(rng));
                nl.add_device(format!("n{i}"), mos.nmos, &[d, gnd, g])
                    .unwrap();
            }
            1 => {
                let (d, g) = (p(rng), p(rng));
                nl.add_device(format!("p{i}"), mos.pmos, &[d, vdd, g])
                    .unwrap();
            }
            2 => {
                let (d, g, s) = (p(rng), p(rng), p(rng));
                nl.add_device(format!("m{i}"), mos.nmos, &[d, g, s])
                    .unwrap();
            }
            _ => {
                let (a, b) = (p(rng), p(rng));
                nl.add_device(format!("r{i}"), res, &[a, b]).unwrap();
            }
        }
    }
    nl
}

/// Plants `count` copies of `cell` onto random soup nets.
fn plant(rng: &mut Rng64, soup: &mut Netlist, cell: &Netlist, count: usize) {
    for k in 0..count {
        let bindings: Vec<NetId> = (0..cell.ports().len())
            .map(|_| soup.net(format!("w{}", rng.range(0, 8))))
            .collect();
        instantiate(soup, cell, &format!("u{k}"), &bindings).unwrap();
    }
}

/// The decoy field where fingerprints have real work to do: `inv` is a
/// shallow pattern (Phase I stops after one iteration, so the key
/// device's label is type-only) planted among near-miss mutants whose
/// mis-wirings the degree-free rail features can see.
fn decoy_workload() -> (Netlist, gen::Generated) {
    let pattern = cells::inv();
    let mut g = gen::near_miss_field(&pattern, 24, 0x5347_e140);
    for i in 0..8 {
        let bindings: Vec<NetId> = (0..pattern.ports().len())
            .map(|p| g.netlist.net(format!("t{i}p{p}")))
            .collect();
        g.plant(&pattern, &format!("pl{i}"), &bindings);
    }
    (pattern, g)
}

fn run(pattern: &Netlist, main: &Netlist, opts: MatchOptions) -> MatchOutcome {
    Matcher::new(pattern, main).options(opts).find_all()
}

/// Options for the unpruned arm: a cold search, metrics on.
fn cold() -> MatchOptions {
    MatchOptions {
        collect_metrics: true,
        ..MatchOptions::default()
    }
}

/// Options for the pruned arm: a search warm off an artifact built from
/// `main`, metrics on.
fn warm(main: &Netlist) -> MatchOptions {
    MatchOptions {
        warm_main: Some(WarmMain::from_artifact(Artifact::build(main), 0)),
        ..cold()
    }
}

fn counter(o: &MatchOutcome, name: &str) -> u64 {
    o.metrics
        .as_ref()
        .expect("collect_metrics was set")
        .counters
        .get(name)
}

/// Asserts the full pruned-vs-unpruned contract on one workload.
fn check_prune_invisible(case: u64, pattern: &Netlist, main: &Netlist) {
    let unpruned = run(pattern, main, cold());
    let pruned = run(pattern, main, warm(main));

    assert_eq!(
        unpruned.instances, pruned.instances,
        "case {case}: pruning changed the instance list"
    );
    assert_eq!(unpruned.key, pruned.key, "case {case}: key diverged");
    assert_eq!(
        unpruned.phase1, pruned.phase1,
        "case {case}: Phase I stats diverged"
    );
    assert_eq!(
        unpruned.completeness, pruned.completeness,
        "case {case}: completeness diverged"
    );

    // Independent re-verification: every instance of the pruned run is
    // a true embedding, so a mistakenly admitted candidate can only
    // cost time, never correctness — and a mistakenly pruned one would
    // already have tripped the instance-list equality above.
    for m in &pruned.instances {
        subgemini::verify_instance(pattern, main, m, true)
            .unwrap_or_else(|e| panic!("case {case}: invalid instance survived pruning: {e}"));
    }

    // The counters partition the candidate vector: with a device key,
    // pruned + admitted covers every candidate; with a net key the
    // index never engages and both tallies stay zero.
    let pruned_n = counter(&pruned, "index.pruned_candidates");
    let admitted_n = counter(&pruned, "index.admitted_candidates");
    if pruned_n + admitted_n > 0 {
        assert_eq!(
            pruned_n + admitted_n,
            pruned.phase1.cv_size as u64,
            "case {case}: prune tallies must partition the candidate vector"
        );
    }
    assert_eq!(
        counter(&unpruned, "index.pruned_candidates"),
        0,
        "case {case}: a cold search must not prune"
    );
}

#[test]
fn pruning_is_invisible_on_random_planted_soups() {
    let cells = [cells::inv(), cells::nand2(), cells::nor2()];
    for case in 0..48u64 {
        let mut rng = Rng64::new(0x9b1d_3000 + case);
        let pattern = &cells[rng.index(cells.len())];
        let (n_nets, n_dev, n_plant) = (rng.range(4, 10), rng.range(0, 12), rng.range(0, 4));
        let mut soup = random_soup(&mut rng, n_nets, n_dev);
        plant(&mut rng, &mut soup, pattern, n_plant);
        check_prune_invisible(case, pattern, &soup);
    }
}

#[test]
fn pruning_is_invisible_on_library_cells_over_an_adder() {
    let adder = gen::ripple_adder(8);
    for (i, cell) in cells::library().iter().enumerate() {
        check_prune_invisible(1000 + i as u64, cell, &adder.netlist);
    }
}

#[test]
fn prune_ratio_is_nonzero_on_the_decoy_field() {
    let (pattern, g) = decoy_workload();
    let pruned = run(&pattern, &g.netlist, warm(&g.netlist));
    let unpruned = run(&pattern, &g.netlist, cold());

    assert_eq!(
        pruned.count(),
        g.planted_count("inv"),
        "every planted inverter must be found despite pruning"
    );
    assert_eq!(unpruned.instances, pruned.instances);

    let pruned_n = counter(&pruned, "index.pruned_candidates");
    let admitted_n = counter(&pruned, "index.admitted_candidates");
    assert!(
        pruned_n > 0,
        "the decoy field must yield a nonzero prune ratio (cv={}, admitted={admitted_n})",
        pruned.phase1.cv_size
    );
    assert!(
        admitted_n >= pruned.count() as u64,
        "every true instance's candidate must be admitted"
    );
    assert_eq!(pruned_n + admitted_n, pruned.phase1.cv_size as u64);
}

#[test]
fn pruned_runs_are_identical_across_threads_and_schedulers() {
    let (pattern, g) = decoy_workload();
    let observed = |threads: usize| {
        run(
            &pattern,
            &g.netlist,
            MatchOptions {
                threads,
                trace_events: true,
                ..warm(&g.netlist)
            },
        )
    };
    let reference = observed(1);
    let ref_journal = journal_to_ndjson(reference.events.as_ref().expect("journal requested"));
    assert!(!ref_journal.is_empty());
    let ref_counters = (
        counter(&reference, "index.pruned_candidates"),
        counter(&reference, "index.admitted_candidates"),
    );
    assert!(ref_counters.0 > 0, "workload must actually prune");
    for threads in [1, 2, 8] {
        let o = observed(threads);
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: instances diverge"
        );
        assert_eq!(
            reference.phase2, o.phase2,
            "threads {threads}: Phase II stats diverge"
        );
        assert_eq!(
            ref_journal,
            journal_to_ndjson(o.events.as_ref().expect("journal requested")),
            "threads {threads}: journal diverges"
        );
        assert_eq!(
            ref_counters,
            (
                counter(&o, "index.pruned_candidates"),
                counter(&o, "index.admitted_candidates"),
            ),
            "threads {threads}: prune tallies diverge"
        );
    }
}
