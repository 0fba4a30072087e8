//! The telemetry layer's two load-bearing contracts (DESIGN §3h):
//!
//! 1. **Zero perturbation** — folding request samples into the
//!    engine's cumulative rollups may never change what a search
//!    answers. A registered request runs with exactly the options it
//!    carries, so its instances, journal, truncation point and counts
//!    equal a direct core search's, across thread counts, including
//!    under budgets; and the rollups read the counts every search keeps.
//! 2. **Correlation without contamination** — every request gets an
//!    engine-minted id, stamped on the outcome and the response, but
//!    journal *event bytes* stay id-free so cross-request journal
//!    equality keeps holding.

use std::collections::BTreeMap;

use subgemini::{find_all, MetricsReport, Rollup, WarmMain, WorkBudget};
use subgemini_engine::{
    CircuitSource, Engine, ExplainRequest, FindRequest, LibrarySource, PatternSource,
    RequestOptions, SurveyRequest,
};
use subgemini_netlist::{Artifact, NetId, Netlist};
use subgemini_workloads::{cells, gen};

/// Every registered find of a (threads, budget) matrix answers exactly
/// as `find_all` does with the request's options lowered the same way,
/// under the same request id and a warm handle built from the same
/// netlist: instances, key, stats, completeness, journal and prune and
/// reject counts. The engine hands the search the caller's options and
/// folds telemetry without touching them. The budgeted cells matter
/// most — a perturbed truncation point is exactly the bug this test
/// exists to catch.
#[test]
fn registered_finds_equal_direct_searches_with_their_options() {
    let main = gen::ripple_adder(24).netlist;
    let pattern = cells::full_adder();
    let engine = Engine::new();
    engine.register_circuit("chip", main.clone());
    let warm = WarmMain::from_artifact(Artifact::build(&main), 0);

    let budgets: [Option<WorkBudget>; 2] = [
        None,
        Some(WorkBudget {
            max_effort: Some(40),
            ..WorkBudget::default()
        }),
    ];
    for budget in &budgets {
        for threads in [1usize, 2, 8] {
            let options = RequestOptions {
                threads,
                budget: budget.clone(),
                trace_events: true,
                ..RequestOptions::default()
            };
            let resp = engine
                .find(&FindRequest {
                    circuit: CircuitSource::Registered("chip"),
                    pattern: PatternSource::Inline(&pattern),
                    options: options.clone(),
                })
                .unwrap();
            let lowered = RequestOptions {
                request_id: Some(resp.request_id),
                ..options
            }
            .lower(&main, Some(&warm))
            .unwrap();
            let direct = find_all(&pattern, &main, &lowered);
            assert!(direct.admitted_candidates > 0, "the warm handle prunes");
            assert_eq!(resp.outcome, direct, "threads={threads} budget={budget:?}");
        }
    }
    // The engine folded every cell of the matrix.
    let snap = engine.telemetry().snapshot();
    assert_eq!(snap.requests, 6);
    assert_eq!(snap.endpoint("find").unwrap().requests, 6);
    assert_eq!(snap.circuit("chip").unwrap().requests, 6);
}

#[test]
fn request_ids_are_minted_sequentially_and_stamped_through() {
    let main = gen::ripple_adder(4).netlist;
    let pattern = cells::full_adder();
    let engine = Engine::new();
    engine.register_circuit("chip", main);
    for expect in 1u64..=3 {
        let resp = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions::default(),
            })
            .unwrap();
        assert_eq!(resp.request_id, expect);
        assert_eq!(resp.outcome.request_id, Some(expect));
    }
    // A caller-supplied id is honoured verbatim and does not advance
    // the mint.
    let resp = engine
        .find(&FindRequest {
            circuit: CircuitSource::Registered("chip"),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions {
                request_id: Some(777),
                ..RequestOptions::default()
            },
        })
        .unwrap();
    assert_eq!(resp.request_id, 777);
    assert_eq!(resp.outcome.request_id, Some(777));
    let resp = engine
        .find(&FindRequest {
            circuit: CircuitSource::Registered("chip"),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions::default(),
        })
        .unwrap();
    assert_eq!(resp.request_id, 4, "minting resumes where it left off");
}

/// Journal event bytes carry no request id: two requests with
/// different ids produce equal journals. (The id lives on the outcome
/// and response envelope only.)
#[test]
fn journals_stay_id_free() {
    let main = gen::ripple_adder(6).netlist;
    let pattern = cells::full_adder();
    let engine = Engine::new();
    engine.register_circuit("chip", main);
    let run = |id: Option<u64>| {
        engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Inline(&pattern),
                options: RequestOptions {
                    trace_events: true,
                    request_id: id,
                    ..RequestOptions::default()
                },
            })
            .unwrap()
    };
    let a = run(Some(1));
    let b = run(Some(999_999));
    assert_ne!(a.request_id, b.request_id);
    assert_eq!(a.outcome.events, b.outcome.events);
    assert_eq!(
        subgemini::events::journal_to_ndjson(a.outcome.events.as_ref().unwrap()),
        subgemini::events::journal_to_ndjson(b.outcome.events.as_ref().unwrap()),
    );
}

/// A request that does not ask for metrics gets none, yet its effort
/// is still reported, equal to that of the same request with metrics,
/// and both fold into the rollup.
#[test]
fn unrequested_metrics_stay_absent_but_effort_is_still_reported() {
    let main = gen::ripple_adder(4).netlist;
    let pattern = cells::full_adder();
    let engine = Engine::new();
    engine.register_circuit("chip", main);
    let quiet = engine
        .find(&FindRequest {
            circuit: CircuitSource::Registered("chip"),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions::default(),
        })
        .unwrap();
    assert!(quiet.outcome.metrics.is_none());
    assert!(quiet.effort_spent > 0);
    let loud = engine
        .find(&FindRequest {
            circuit: CircuitSource::Registered("chip"),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions {
                collect_metrics: true,
                ..RequestOptions::default()
            },
        })
        .unwrap();
    assert!(loud.outcome.metrics.is_some());
    assert_eq!(quiet.effort_spent, loud.effort_spent);
    // Both requests folded into the rollup.
    let snap = engine.telemetry().snapshot();
    let find = snap.endpoint("find").unwrap();
    assert_eq!(find.requests, 2);
    assert_eq!(find.effort.count(), 2);
    assert_eq!(find.wall_ns.count(), 2);
}

/// The `inv` decoy field of `prune_differential.rs`: near-miss mutants
/// the fingerprint index prunes or Phase II rejects, and eight true
/// inverters.
fn decoy_field() -> Netlist {
    let pattern = cells::inv();
    let mut g = gen::near_miss_field(&pattern, 24, 0x5347_e140);
    for i in 0..8 {
        let bindings: Vec<NetId> = (0..pattern.ports().len())
            .map(|p| g.netlist.net(format!("t{i}p{p}")))
            .collect();
        g.plant(&pattern, &format!("pl{i}"), &bindings);
    }
    g.netlist
}

/// Asserts that `rollup`, folded from two runs of one request, holds
/// twice the `index.*` and `reject.*` counters of `reports`, one run's
/// metrics.
fn assert_rollup_doubles(rollup: &Rollup, reports: &[&MetricsReport], what: &str) {
    let sum = |name: &str| reports.iter().map(|m| m.counters.get(name)).sum::<u64>();
    let mut rejects = BTreeMap::new();
    for (name, v) in reports.iter().flat_map(|m| m.counters.iter()) {
        if let Some(reason) = name.strip_prefix("reject.") {
            *rejects.entry(reason.to_string()).or_insert(0) += 2 * v;
        }
    }
    assert!(
        sum("index.pruned_candidates") > 0 && !rejects.is_empty(),
        "{what}: the field must prune and reject"
    );
    assert_eq!(
        rollup.pruned_candidates,
        2 * sum("index.pruned_candidates"),
        "{what}"
    );
    assert_eq!(
        rollup.admitted_candidates,
        2 * sum("index.admitted_candidates"),
        "{what}"
    );
    assert_eq!(rollup.reject_reasons, rejects, "{what}");
}

/// The rollups' prune and reject counts are the searches' own: a
/// request without metrics folds exactly what the same request with
/// metrics reports as `index.*` and `reject.*` counters, for a find
/// and for a survey, serial and parallel.
#[test]
fn rollup_prune_and_reject_counts_equal_the_report_counters() {
    let field = decoy_field();
    let pattern = cells::inv();
    let library = vec![cells::inv(), cells::nand2()];
    for threads in [1usize, 2] {
        let engine = Engine::new();
        engine.register_circuit("field", field.clone());
        let options = |collect_metrics| RequestOptions {
            threads,
            collect_metrics,
            ..RequestOptions::default()
        };
        let find = |collect_metrics| {
            engine
                .find(&FindRequest {
                    circuit: CircuitSource::Registered("field"),
                    pattern: PatternSource::Inline(&pattern),
                    options: options(collect_metrics),
                })
                .unwrap()
        };
        let survey = |collect_metrics| {
            engine
                .survey(&SurveyRequest {
                    circuit: CircuitSource::Registered("field"),
                    library: LibrarySource::Inline(&library),
                    options: options(collect_metrics),
                })
                .unwrap()
        };
        find(false);
        let loud = find(true);
        survey(false);
        let loud_survey = survey(true);
        let snap = engine.telemetry().snapshot();
        let metrics = loud.outcome.metrics.as_ref().expect("metrics requested");
        assert_rollup_doubles(
            snap.endpoint("find").unwrap(),
            &[metrics],
            &format!("find threads={threads}"),
        );
        let rows: Vec<&MetricsReport> = loud_survey
            .rows
            .iter()
            .map(|r| r.outcome.metrics.as_ref().expect("metrics requested"))
            .collect();
        assert_rollup_doubles(
            snap.endpoint("survey").unwrap(),
            &rows,
            &format!("survey threads={threads}"),
        );
    }
}

#[test]
fn rollups_accumulate_per_endpoint_and_per_circuit() {
    let main = gen::ripple_adder(6).netlist;
    let pattern = cells::full_adder();
    let library = vec![cells::full_adder()];
    let engine = Engine::new();
    engine.register_circuit("chip", main.clone());
    let find_req = FindRequest {
        circuit: CircuitSource::Registered("chip"),
        pattern: PatternSource::Inline(&pattern),
        options: RequestOptions::default(),
    };
    engine.find(&find_req).unwrap();
    engine.find(&find_req).unwrap();
    engine
        .survey(&SurveyRequest {
            circuit: CircuitSource::Registered("chip"),
            library: LibrarySource::Inline(&library),
            options: RequestOptions::default(),
        })
        .unwrap();
    engine
        .explain(&ExplainRequest {
            circuit: CircuitSource::Registered("chip"),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions::default(),
        })
        .unwrap();
    // An inline circuit folds into the endpoint rollup but not any
    // per-circuit one.
    engine
        .find(&FindRequest {
            circuit: CircuitSource::Inline(&main),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions::default(),
        })
        .unwrap();

    let snap = engine.telemetry().snapshot();
    assert_eq!(snap.requests, 5);
    assert_eq!(snap.endpoint("find").unwrap().requests, 3);
    assert_eq!(snap.endpoint("survey").unwrap().requests, 1);
    assert_eq!(snap.endpoint("explain").unwrap().requests, 1);
    assert_eq!(snap.circuit("chip").unwrap().requests, 4);
    // Engine status carries the same snapshot.
    let status = engine.status();
    assert_eq!(status.telemetry, snap);
    // And the JSON form is well-formed with both maps present.
    let doc = snap.to_json();
    assert!(doc.get("endpoints").is_some());
    assert!(doc.get("circuits").is_some());
}

#[test]
fn truncation_reasons_are_tallied_by_name() {
    let main = gen::ripple_adder(24).netlist;
    let pattern = cells::full_adder();
    let engine = Engine::new();
    engine.register_circuit("chip", main);
    let resp = engine
        .find(&FindRequest {
            circuit: CircuitSource::Registered("chip"),
            pattern: PatternSource::Inline(&pattern),
            options: RequestOptions {
                budget: Some(WorkBudget {
                    max_effort: Some(1),
                    ..WorkBudget::default()
                }),
                ..RequestOptions::default()
            },
        })
        .unwrap();
    assert!(resp.outcome.completeness.is_truncated());
    let snap = engine.telemetry().snapshot();
    let find = snap.endpoint("find").unwrap();
    assert_eq!(find.truncated, 1);
    assert_eq!(
        find.truncation_reasons.get("effort_exhausted").copied(),
        Some(1)
    );
}
