//! The telemetry layer's two load-bearing contracts (DESIGN §3h):
//!
//! 1. **Zero perturbation** — folding request samples into the
//!    engine's cumulative rollups may never change what a search
//!    answers. Instances, journals, and truncation points must be
//!    byte-identical with telemetry on and off, across thread counts,
//!    including under budgets.
//! 2. **Correlation without contamination** — every request gets an
//!    engine-minted id, stamped on the outcome and the response, but
//!    journal *event bytes* stay id-free so cross-request journal
//!    equality keeps holding.

use subgemini::{MatchOutcome, WorkBudget};
use subgemini_engine::{
    CircuitSource, Engine, ExplainRequest, FindRequest, LibrarySource, PatternSource,
    RequestOptions, SurveyRequest,
};
use subgemini_workloads::{cells, gen};

fn assert_outcomes_identical(a: &MatchOutcome, b: &MatchOutcome) {
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.key, b.key);
    assert_eq!(a.phase1, b.phase1);
    assert_eq!(a.phase2, b.phase2);
    assert_eq!(a.completeness, b.completeness);
    assert_eq!(a.events, b.events);
}

/// One engine with telemetry folding, one with it switched off, same
/// registered circuit: every (threads, budget) cell must answer
/// identically. The budgeted cells matter most — a perturbed
/// truncation point is exactly the bug this test exists to catch.
#[test]
fn telemetry_on_and_off_answer_byte_identically() {
    let main = gen::ripple_adder(24).netlist;
    let pattern = cells::full_adder();
    let on = Engine::new();
    let off = Engine::new();
    off.telemetry().set_enabled(false);
    assert!(on.telemetry().enabled());
    assert!(!off.telemetry().enabled());
    on.register_circuit("chip", main.clone());
    off.register_circuit("chip", main);

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
            let request = |engine: &Engine| {
                engine
                    .find(&FindRequest {
                        circuit: CircuitSource::Registered("chip"),
                        pattern: PatternSource::Inline(&pattern),
                        options: options.clone(),
                    })
                    .unwrap()
            };
            let a = request(&on);
            let b = request(&off);
            assert_outcomes_identical(&a.outcome, &b.outcome);
            assert_eq!(
                a.instance_devices().collect::<Vec<_>>(),
                b.instance_devices().collect::<Vec<_>>()
            );
            assert_eq!(
                a.effort_spent, b.effort_spent,
                "threads={threads} budget={budget:?}"
            );
        }
    }
    // The disabled engine accumulated nothing.
    assert_eq!(off.telemetry().snapshot().requests, 0);
    assert!(off.telemetry().snapshot().endpoints.is_empty());
    // The enabled one folded every cell of the matrix.
    let snap = on.telemetry().snapshot();
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

/// Telemetry forces metric collection internally but must strip it
/// back out when the caller didn't ask — the visible response is the
/// same either way, and effort is still reported.
#[test]
fn unrequested_metrics_are_stripped_but_effort_still_reported() {
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
    // Both requests still folded prune counters into the rollup.
    let snap = engine.telemetry().snapshot();
    let find = snap.endpoint("find").unwrap();
    assert_eq!(find.requests, 2);
    assert_eq!(find.effort.count(), 2);
    assert_eq!(find.wall_ns.count(), 2);
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
