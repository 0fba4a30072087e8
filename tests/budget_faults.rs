//! Fault-injection pinning of the search governor: deterministic
//! truncation across thread counts under injected guess storms, worker
//! stalls, and worker death; byte-identical results when budgets are
//! disabled; and the dedicated pass-budget reject reason.
//!
//! The failpoint registry is process-global, so every test in this
//! binary serializes on one lock and disarms all sites on exit (even
//! when it did not arm any — a stray armed site would perturb it).

use std::sync::{Mutex, MutexGuard, OnceLock};

use subgemini::budget::failpoint::{self, Action};
use subgemini::{CancelToken, Completeness, MatchOptions, Matcher, TruncationReason, WorkBudget};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

/// Serializes failpoint-sensitive tests and guarantees a disarmed
/// registry on both entry and exit (including panic unwinds).
struct FpSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FpSession {
    fn start() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        failpoint::clear_all();
        Self(guard)
    }
}

impl Drop for FpSession {
    fn drop(&mut self) {
        failpoint::clear_all();
    }
}

fn workload() -> (Netlist, Netlist) {
    (cells::dff(), gen::shift_register(8).netlist)
}

fn run(pattern: &Netlist, main: &Netlist, opts: MatchOptions) -> subgemini::MatchOutcome {
    Matcher::new(pattern, main).options(opts).find_all()
}

/// The full-effort cost of a serial ungoverned run, reconstructed from
/// its counters: Phase I iterations plus one opening unit per tried
/// candidate plus every pass, guess, and backtrack.
fn total_effort(o: &subgemini::MatchOutcome) -> u64 {
    (o.phase1.iterations
        + o.phase2.candidates_tried
        + o.phase2.passes
        + o.phase2.guesses
        + o.phase2.backtracks) as u64
}

fn device_sets(o: &subgemini::MatchOutcome) -> Vec<Vec<subgemini_netlist::DeviceId>> {
    o.instances.iter().map(|m| m.device_set()).collect()
}

#[test]
fn effort_truncation_point_is_identical_across_thread_counts() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let full = run(&pattern, &main, MatchOptions::default());
    assert!(full.count() > 1, "workload must have several instances");
    assert!(full.completeness.is_complete());
    // A budget around the midpoint truncates partway through the CV.
    let budget = total_effort(&full) / 2;
    let reference = run(
        &pattern,
        &main,
        MatchOptions {
            budget: Some(WorkBudget::effort(budget)),
            ..MatchOptions::default()
        },
    );
    let Completeness::Truncated {
        reason,
        candidates_tried,
        candidates_skipped,
    } = reference.completeness.clone()
    else {
        panic!("midpoint budget must truncate (budget {budget})");
    };
    assert_eq!(reason, TruncationReason::EffortExhausted);
    assert!(candidates_tried > 0, "some candidates must be consumed");
    assert!(candidates_skipped > 0, "some candidates must be cut off");
    // Everything reported is genuine: a subset of the full answer.
    let full_sets = device_sets(&full);
    for set in device_sets(&reference) {
        assert!(full_sets.contains(&set), "truncated run invented {set:?}");
    }
    for threads in [2, 8] {
        let parallel = run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                budget: Some(WorkBudget::effort(budget)),
                ..MatchOptions::default()
            },
        );
        assert_eq!(
            reference.instances, parallel.instances,
            "threads 1 vs {threads}: instance sets diverge under budget {budget}"
        );
        assert_eq!(
            reference.completeness, parallel.completeness,
            "threads 1 vs {threads}: truncation point diverges under budget {budget}"
        );
    }
}

#[test]
fn unbudgeted_and_unreachable_budget_runs_are_identical() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    for threads in [1, 2, 8] {
        let plain = run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                ..MatchOptions::default()
            },
        );
        // An explicit-but-unlimited budget constructs no governor at
        // all; a huge budget constructs one that never fires. Both must
        // reproduce the ungoverned outcome exactly (same instances,
        // stats, and Complete outcome — MatchOutcome is Eq).
        let unlimited = run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                budget: Some(WorkBudget::default()),
                ..MatchOptions::default()
            },
        );
        let huge = run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                budget: Some(WorkBudget::effort(u64::MAX)),
                ..MatchOptions::default()
            },
        );
        assert_eq!(plain, unlimited, "threads {threads}: unlimited budget");
        assert_eq!(plain, huge, "threads {threads}: unreachable budget");
        assert!(huge.completeness.is_complete());
    }
}

#[test]
fn injected_guess_storm_truncates_identically_on_every_thread_count() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    // The storm burns guesses from every candidate's budget before
    // verification starts, inflating each candidate's effort by the
    // same deterministic amount on every thread count.
    failpoint::configure("phase2.candidate", Action::GuessStorm(16));
    let full = run(&pattern, &main, MatchOptions::default());
    let budget = total_effort(&full) / 2;
    let mut outcomes = Vec::new();
    for threads in [1, 2, 8] {
        outcomes.push(run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                budget: Some(WorkBudget::effort(budget)),
                ..MatchOptions::default()
            },
        ));
    }
    assert!(
        outcomes[0].completeness.is_truncated(),
        "storm plus midpoint budget must truncate"
    );
    for (o, threads) in outcomes.iter().zip([1usize, 2, 8]) {
        assert_eq!(
            outcomes[0].instances, o.instances,
            "guess storm: threads 1 vs {threads} instances"
        );
        assert_eq!(
            outcomes[0].completeness, o.completeness,
            "guess storm: threads 1 vs {threads} truncation"
        );
    }
}

#[test]
fn injected_worker_stall_does_not_move_the_truncation_point() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let full = run(&pattern, &main, MatchOptions::default());
    let budget = total_effort(&full) / 2;
    // Stall every worker at startup: wall-clock shifts, effort does
    // not — the effort-budget truncation point must not move.
    failpoint::configure("phase2.worker", Action::StallMs(25));
    let mut outcomes = Vec::new();
    for threads in [1, 2, 8] {
        outcomes.push(run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                budget: Some(WorkBudget::effort(budget)),
                ..MatchOptions::default()
            },
        ));
    }
    assert!(outcomes[0].completeness.is_truncated());
    for (o, threads) in outcomes.iter().zip([1usize, 2, 8]) {
        assert_eq!(
            outcomes[0].instances, o.instances,
            "stall: threads {threads}"
        );
        assert_eq!(
            outcomes[0].completeness, o.completeness,
            "stall: threads {threads}"
        );
    }
}

#[test]
fn killed_workers_fall_back_to_serial_recomputation() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, MatchOptions::default());
    // Every spawned worker dies before claiming anything. The calling
    // thread is a worker too and never runs the startup failpoint, so
    // it claims and verifies every candidate itself: the full answer,
    // with nothing left for the merge to recompute.
    failpoint::configure("phase2.worker", Action::KillWorker);
    for threads in [2, 8] {
        let survived = run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                collect_metrics: true,
                ..MatchOptions::default()
            },
        );
        assert_eq!(
            reference.instances, survived.instances,
            "threads {threads}: worker death changed the result"
        );
        assert!(survived.completeness.is_complete());
        let m = survived.metrics.as_ref().expect("metrics requested");
        assert_eq!(
            m.counters.get("scheduler.recomputed"),
            0,
            "threads {threads}: the calling thread verifies every candidate"
        );
    }
    // Same story under a budget: the truncation point is decided by
    // the serial ledger, dead workers or not.
    let budget = total_effort(&reference) / 2;
    let budgeted_serial = run(
        &pattern,
        &main,
        MatchOptions {
            budget: Some(WorkBudget::effort(budget)),
            ..MatchOptions::default()
        },
    );
    for threads in [2, 8] {
        let budgeted = run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                budget: Some(WorkBudget::effort(budget)),
                collect_metrics: true,
                ..MatchOptions::default()
            },
        );
        assert_eq!(budgeted_serial.instances, budgeted.instances);
        assert_eq!(budgeted_serial.completeness, budgeted.completeness);
        let m = budgeted.metrics.as_ref().expect("metrics requested");
        assert_eq!(
            m.counters.get("scheduler.recomputed"),
            0,
            "threads {threads}"
        );
    }
}

#[test]
fn zero_deadline_truncates_deterministically_before_any_work() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    for threads in [1, 2, 8] {
        let o = run(
            &pattern,
            &main,
            MatchOptions {
                threads,
                budget: Some(WorkBudget::deadline(0)),
                ..MatchOptions::default()
            },
        );
        // The zero deadline fires at the very first Phase I check
        // site, before any refinement: no key, no candidates, and the
        // exact same truncated outcome on every thread count.
        assert_eq!(o.key, None);
        assert_eq!(o.count(), 0);
        assert_eq!(
            o.completeness,
            Completeness::Truncated {
                reason: TruncationReason::DeadlineExpired,
                candidates_tried: 0,
                candidates_skipped: 0,
            },
            "threads {threads}"
        );
    }
}

#[test]
fn precancelled_token_stops_phase1_and_reports_cancelled() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let token = CancelToken::new();
    token.cancel();
    let o = run(
        &pattern,
        &main,
        MatchOptions {
            cancel: Some(token),
            ..MatchOptions::default()
        },
    );
    assert_eq!(o.count(), 0);
    assert_eq!(
        o.completeness,
        Completeness::Truncated {
            reason: TruncationReason::Cancelled,
            candidates_tried: 0,
            candidates_skipped: 0,
        }
    );
    // An unfired token changes nothing.
    let armed = run(
        &pattern,
        &main,
        MatchOptions {
            cancel: Some(CancelToken::new()),
            ..MatchOptions::default()
        },
    );
    let plain = run(&pattern, &main, MatchOptions::default());
    assert_eq!(plain, armed);
}

#[test]
fn truncated_outcome_reports_budget_metrics_and_journal_event() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let full = run(&pattern, &main, MatchOptions::default());
    let budget = total_effort(&full) / 2;
    let o = run(
        &pattern,
        &main,
        MatchOptions {
            budget: Some(WorkBudget::effort(budget)),
            collect_metrics: true,
            trace_events: true,
            ..MatchOptions::default()
        },
    );
    assert!(o.completeness.is_truncated());
    let m = o.metrics.as_ref().expect("metrics requested");
    assert_eq!(m.effort_limit, budget);
    assert!(m.effort_spent >= budget, "ledger stopped at/after the cap");
    assert!(m.counters.get("budget.effort_spent") >= budget);
    assert_eq!(m.counters.get("budget.truncations"), 1);
    assert!(m.counters.get("budget.candidates_skipped") > 0);
    let journal = o.events.as_ref().expect("journal requested");
    let truncated_events = journal
        .events
        .iter()
        .filter(|e| subgemini::events::event_name(&e.kind) == "truncated")
        .count();
    assert_eq!(truncated_events, 1, "exactly one Truncated event");
}

/// Satellite 2 regression: exhausting `max_passes_per_candidate` while
/// refinement is still progressing must surface as its own
/// `PassBudgetExhausted` reject reason, not be conflated with a stall.
#[test]
fn pass_budget_exhaustion_has_its_own_reject_reason() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    // Sanity: with sane budgets the pattern is present.
    let sane = run(&pattern, &main, MatchOptions::default());
    assert!(sane.count() > 0);
    // One labeling pass is not enough to spread matched labels across
    // a dff, so every candidate runs out of passes mid-progress.
    let starved = run(
        &pattern,
        &main,
        MatchOptions {
            max_passes_per_candidate: 1,
            max_guesses_per_candidate: 0,
            collect_metrics: true,
            ..MatchOptions::default()
        },
    );
    assert_eq!(starved.count(), 0, "one pass cannot verify a dff");
    let m = starved.metrics.as_ref().expect("metrics requested");
    assert!(
        m.counters.get("reject.pass_budget_exhausted") > 0,
        "pass starvation must be tallied as pass_budget_exhausted, got counters: {:?}",
        m.counters.iter().collect::<Vec<_>>()
    );
}
