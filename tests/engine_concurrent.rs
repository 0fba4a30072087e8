//! Concurrent engine requests over one shared registry entry must be
//! byte-identical to serial runs: same instance sets, same
//! completeness, same reject tallies, same event journals. This is the
//! sharing contract of DESIGN §3g — the daemon's whole correctness
//! story is that N threads on one `Arc<CompiledCircuit>` + index
//! answer exactly what N serial CLI invocations would. A registered
//! search prunes off the entry's index, so each serial baseline runs
//! warm off an artifact of the same netlist, as `subg find --artifact`
//! does.

use std::sync::Barrier;
use std::thread;

use subgemini::{find_all, MatchOutcome, WarmMain, WorkBudget};
use subgemini_engine::{CircuitSource, Engine, FindRequest, PatternSource, RequestOptions};
use subgemini_netlist::{Artifact, Netlist};
use subgemini_workloads::{analog, cells, gen};

/// The metrics counters in the `reject.*` namespace, sorted by name.
fn reject_tallies(outcome: &MatchOutcome) -> Vec<(String, u64)> {
    let mut tallies: Vec<(String, u64)> = outcome
        .metrics
        .as_ref()
        .expect("metrics were requested")
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("reject."))
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    tallies.sort();
    tallies
}

/// Full-strength request options for the comparison: metrics and
/// journal on.
fn comparison_options() -> RequestOptions {
    RequestOptions {
        collect_metrics: true,
        trace_events: true,
        ..RequestOptions::default()
    }
}

/// The serial baseline: `options` lowered with a warm handle built from
/// `main`, so it prunes exactly as a registered request does.
fn serial(pattern: &Netlist, main: &Netlist, options: &RequestOptions) -> MatchOutcome {
    let warm = WarmMain::from_artifact(Artifact::build(main), 0);
    find_all(pattern, main, &options.lower(main, Some(&warm)).unwrap())
}

fn assert_outcomes_identical(concurrent: &MatchOutcome, serial: &MatchOutcome) {
    assert_eq!(concurrent.instances, serial.instances);
    assert_eq!(concurrent.key, serial.key);
    assert_eq!(concurrent.phase1, serial.phase1);
    assert_eq!(concurrent.phase2, serial.phase2);
    assert_eq!(concurrent.completeness, serial.completeness);
    assert_eq!(concurrent.events, serial.events);
    assert_eq!(reject_tallies(concurrent), reject_tallies(serial));
}

#[test]
fn eight_threads_match_serial_cold_runs_exactly() {
    let main = gen::ripple_adder(6).netlist;
    let pattern = cells::full_adder();
    let engine = Engine::new();
    engine.register_circuit("chip", main.clone());

    // The serial baseline: what `subg find --artifact` runs for a
    // one-shot CLI invocation with the same flags.
    let serial = serial(&pattern, &main, &comparison_options());
    assert!(serial.count() > 0, "baseline must find instances");

    thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    engine
                        .find(&FindRequest {
                            circuit: CircuitSource::Registered("chip"),
                            pattern: PatternSource::Inline(&pattern),
                            options: comparison_options(),
                        })
                        .unwrap()
                })
            })
            .collect();
        for handle in handles {
            let resp = handle.join().unwrap();
            assert_outcomes_identical(&resp.outcome, &serial);
        }
    });
}

#[test]
fn concurrent_budgeted_requests_truncate_identically() {
    let main = gen::ripple_adder(6).netlist;
    let pattern = cells::full_adder();
    let engine = Engine::new();
    engine.register_circuit("chip", main.clone());

    // Size the effort cap off a governed-but-uncapped run (the ledger
    // only accrues under a governor) so the budget bites mid-search
    // deterministically — the ledger is candidate-vector-ordered, not
    // wall-clock-ordered.
    let probe_opts = RequestOptions {
        budget: Some(WorkBudget::effort(u64::MAX)),
        ..comparison_options()
    };
    let full_effort = serial(&pattern, &main, &probe_opts)
        .metrics
        .as_ref()
        .unwrap()
        .effort_spent;
    assert!(full_effort > 0);
    let cap = (full_effort / 3).max(1);

    let budgeted = || RequestOptions {
        budget: Some(WorkBudget::effort(cap)),
        ..comparison_options()
    };
    let serial = serial(&pattern, &main, &budgeted());
    assert!(
        serial.completeness.is_truncated(),
        "cap of {cap}/{full_effort} effort units must truncate"
    );

    thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    engine
                        .find(&FindRequest {
                            circuit: CircuitSource::Registered("chip"),
                            pattern: PatternSource::Inline(&pattern),
                            options: budgeted(),
                        })
                        .unwrap()
                })
            })
            .collect();
        for handle in handles {
            let resp = handle.join().unwrap();
            assert_outcomes_identical(&resp.outcome, &serial);
        }
    });
}

#[test]
fn mixed_qos_requests_coexist_on_one_entry() {
    let main = analog::mixed_signal_chip(7, 3).netlist;
    let engine = Engine::new();
    engine.register_circuit("chip", main.clone());
    let opamp = analog::two_stage_opamp();
    let inv = cells::inv();

    // Two different patterns with two different budgets/thread counts
    // on the same registry entry, racing; each must still equal its own
    // serial baseline.
    let heavy = || RequestOptions {
        threads: 2,
        ..comparison_options()
    };
    let tiny = || RequestOptions {
        budget: Some(WorkBudget::effort(1)),
        ..comparison_options()
    };
    let serial_heavy = serial(&opamp, &main, &heavy());
    let serial_tiny = serial(&inv, &main, &tiny());
    assert!(serial_tiny.completeness.is_truncated());

    thread::scope(|scope| {
        let heavy_handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    engine
                        .find(&FindRequest {
                            circuit: CircuitSource::Registered("chip"),
                            pattern: PatternSource::Inline(&opamp),
                            options: heavy(),
                        })
                        .unwrap()
                })
            })
            .collect();
        let tiny_handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    engine
                        .find(&FindRequest {
                            circuit: CircuitSource::Registered("chip"),
                            pattern: PatternSource::Inline(&inv),
                            options: tiny(),
                        })
                        .unwrap()
                })
            })
            .collect();
        for handle in heavy_handles {
            assert_outcomes_identical(&handle.join().unwrap().outcome, &serial_heavy);
        }
        for handle in tiny_handles {
            assert_outcomes_identical(&handle.join().unwrap().outcome, &serial_tiny);
        }
    });
}

/// Runs `cells[i % cells.len()]` on 8 threads, released together,
/// against the registered `chip` and checks every answer against a
/// serial run over `main`. Returns the serial outcomes, in `cells`
/// order.
fn race_cells_against_serial_runs(
    engine: &Engine,
    main: &Netlist,
    cells: &[Netlist],
) -> Vec<MatchOutcome> {
    let baseline: Vec<MatchOutcome> = cells
        .iter()
        .map(|cell| serial(cell, main, &comparison_options()))
        .collect();
    let start = Barrier::new(8);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (cell, start) = (&cells[i % cells.len()], &start);
                scope.spawn(move || {
                    start.wait();
                    let resp = engine
                        .find(&FindRequest {
                            circuit: CircuitSource::Registered("chip"),
                            pattern: PatternSource::Inline(cell),
                            options: comparison_options(),
                        })
                        .unwrap();
                    (i % cells.len(), resp.outcome)
                })
            })
            .collect();
        for handle in handles {
            let (c, outcome) = handle.join().unwrap();
            assert_outcomes_identical(&outcome, &baseline[c]);
        }
    });
    baseline
}

#[test]
fn shared_trace_races_and_re_registration_match_cold_runs() {
    // Cells whose Phase I stops at different depths race on a freshly
    // registered entry, so they build and adopt its shared trace steps
    // in whatever order the threads run.
    let cells = [
        cells::inv(),
        cells::nand2(),
        cells::full_adder(),
        cells::dff(),
    ];
    let engine = Engine::new();
    let first = gen::tiled_chip(3, 3_000).netlist;
    engine.register_circuit("chip", first.clone());
    let before = race_cells_against_serial_runs(&engine, &first, &cells);
    let depths: Vec<usize> = before.iter().map(|o| o.phase1.iterations).collect();
    assert_eq!(depths, [1, 2, 3, 4], "inv .. dff stop at increasing depths");
    assert!(
        before.iter().all(|o| o.count() > 0),
        "every cell is planted"
    );

    // Re-registering the name must serve the new circuit, not the old
    // circuit's shared steps.
    let second = gen::tiled_chip(4, 2_000).netlist;
    engine.register_circuit("chip", second.clone());
    let after = race_cells_against_serial_runs(&engine, &second, &cells);
    assert_ne!(
        before.iter().map(MatchOutcome::count).collect::<Vec<_>>(),
        after.iter().map(MatchOutcome::count).collect::<Vec<_>>(),
        "the two circuits differ in their answers"
    );
}
