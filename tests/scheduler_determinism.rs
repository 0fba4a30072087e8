//! Work-stealing scheduler determinism: on a skew-heavy workload the
//! stealing and static-chunk schedulers, at every thread count, must
//! produce byte-identical instances, stats, event journals, reject
//! tallies, and truncation points — including when workers are killed
//! or stalled at the steal sites.
//!
//! The failpoint registry is process-global, so every test in this
//! binary serializes on one lock and disarms all sites on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use subgemini::budget::failpoint::{self, Action};
use subgemini::{MatchOptions, Matcher, Phase2Scheduler, WorkBudget};
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

/// A deliberately imbalanced field: a symmetric blob of superposed
/// pattern copies (each ~80x more expensive to verify than a planted
/// instance) clustered at the head of the candidate vector, followed
/// by cheap well-separated instances.
fn workload() -> (Netlist, Netlist) {
    let cell = cells::nand_k(6);
    let g = gen::skewed_trap_field(&cell, 4, 96);
    (cell, g.netlist)
}

fn run(pattern: &Netlist, main: &Netlist, opts: MatchOptions) -> subgemini::MatchOutcome {
    Matcher::new(pattern, main).options(opts).find_all()
}

fn opts(threads: usize, scheduler: Phase2Scheduler) -> MatchOptions {
    MatchOptions {
        threads,
        scheduler,
        ..MatchOptions::default()
    }
}

/// Every `reject.*` tally from the metrics counters, in name order.
fn reject_tallies(o: &subgemini::MatchOutcome) -> Vec<(String, u64)> {
    let m = o.metrics.as_ref().expect("metrics requested");
    let mut t: Vec<(String, u64)> = m
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("reject."))
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    t.sort();
    t
}

fn total_effort(o: &subgemini::MatchOutcome) -> u64 {
    (o.phase1.iterations
        + o.phase2.candidates_tried
        + o.phase2.passes
        + o.phase2.guesses
        + o.phase2.backtracks) as u64
}

const SCHEDULERS: [Phase2Scheduler; 2] =
    [Phase2Scheduler::WorkStealing, Phase2Scheduler::StaticChunks];

#[test]
fn schedulers_and_thread_counts_agree_on_instances_and_stats() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1, Phase2Scheduler::WorkStealing));
    assert_eq!(reference.count(), 100, "4 blob copies + 96 planted");
    assert!(reference.completeness.is_complete());
    for scheduler in SCHEDULERS {
        for threads in [1, 2, 8] {
            let o = run(&pattern, &main, opts(threads, scheduler));
            assert_eq!(
                reference.instances, o.instances,
                "{scheduler:?} threads {threads}: instances diverge"
            );
            assert_eq!(reference.key, o.key, "{scheduler:?} threads {threads}");
            assert_eq!(
                reference.phase1, o.phase1,
                "{scheduler:?} threads {threads}"
            );
            assert_eq!(
                reference.phase2, o.phase2,
                "{scheduler:?} threads {threads}: Phase II stats diverge"
            );
            assert_eq!(
                reference.completeness, o.completeness,
                "{scheduler:?} threads {threads}"
            );
        }
    }
}

#[test]
fn journals_and_reject_tallies_are_identical_across_schedulers() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let observed = |threads, scheduler| {
        run(
            &pattern,
            &main,
            MatchOptions {
                trace_events: true,
                collect_metrics: true,
                ..opts(threads, scheduler)
            },
        )
    };
    let reference = observed(1, Phase2Scheduler::WorkStealing);
    let ref_journal = reference.events.as_ref().expect("journal requested");
    assert!(!ref_journal.events.is_empty());
    let ref_tallies = reject_tallies(&reference);
    assert!(
        ref_tallies.iter().any(|(_, v)| *v > 0),
        "the blob must produce rejects: {ref_tallies:?}"
    );
    for scheduler in SCHEDULERS {
        for threads in [2, 8] {
            let o = observed(threads, scheduler);
            assert_eq!(reference.instances, o.instances);
            assert_eq!(
                ref_journal,
                o.events.as_ref().expect("journal requested"),
                "{scheduler:?} threads {threads}: journal diverges"
            );
            assert_eq!(
                ref_tallies,
                reject_tallies(&o),
                "{scheduler:?} threads {threads}: reject tallies diverge"
            );
        }
    }
}

#[test]
fn truncation_point_is_identical_across_schedulers_and_threads() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let full = run(&pattern, &main, opts(1, Phase2Scheduler::WorkStealing));
    // A midpoint budget cuts the candidate vector partway through.
    let budget = total_effort(&full) / 2;
    let reference = run(
        &pattern,
        &main,
        MatchOptions {
            budget: Some(WorkBudget::effort(budget)),
            ..opts(1, Phase2Scheduler::WorkStealing)
        },
    );
    assert!(
        reference.completeness.is_truncated(),
        "midpoint budget must truncate"
    );
    for scheduler in SCHEDULERS {
        for threads in [1, 2, 8] {
            let o = run(
                &pattern,
                &main,
                MatchOptions {
                    budget: Some(WorkBudget::effort(budget)),
                    ..opts(threads, scheduler)
                },
            );
            assert_eq!(
                reference.instances, o.instances,
                "{scheduler:?} threads {threads}: truncated instances diverge"
            );
            assert_eq!(
                reference.completeness, o.completeness,
                "{scheduler:?} threads {threads}: truncation point diverges"
            );
        }
    }
}

#[test]
fn max_instances_stop_is_identical_across_schedulers_and_threads() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(
        &pattern,
        &main,
        MatchOptions {
            max_instances: 10,
            ..opts(1, Phase2Scheduler::WorkStealing)
        },
    );
    assert_eq!(reference.count(), 10);
    for scheduler in SCHEDULERS {
        for threads in [2, 8] {
            let o = run(
                &pattern,
                &main,
                MatchOptions {
                    max_instances: 10,
                    ..opts(threads, scheduler)
                },
            );
            assert_eq!(
                reference.instances, o.instances,
                "{scheduler:?} threads {threads}: max_instances stop diverges"
            );
        }
    }
}

#[test]
fn stealing_happens_and_worker_accounting_stays_consistent() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let o = run(
        &pattern,
        &main,
        MatchOptions {
            collect_metrics: true,
            ..opts(8, Phase2Scheduler::WorkStealing)
        },
    );
    let m = o.metrics.as_ref().expect("metrics requested");
    assert_eq!(m.threads_requested, 8);
    assert_eq!(m.threads_resolved, 8);
    assert_eq!(m.worker_busy_ns.len(), m.threads_used);
    // Each candidate is claimed at most once (the cursor never hands
    // an index out twice), and every consumed candidate came from a
    // worker slot or a merge recomputation.
    let claims = m.counters.get("scheduler.claims");
    assert!(claims <= o.phase1.cv_size as u64);
    assert!(claims + m.counters.get("scheduler.recomputed") >= o.phase2.candidates_tried as u64);
    // The blob clusters heavy candidates into one home range, so idle
    // workers must cross chunk boundaries to drain the tail.
    assert!(
        m.counters.get("scheduler.steals") > 0,
        "skewed workload at 8 threads must provoke steals; counters: {:?}",
        m.counters.iter().collect::<Vec<_>>()
    );
    // Raced-but-discarded work is possible; invented work is not.
    assert!(o.completeness.is_complete());
}

#[test]
fn worker_death_at_steal_site_recovers_with_identical_results() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1, Phase2Scheduler::WorkStealing));
    // Every worker dies at its first claim, leaving an abandoned-slot
    // tombstone; the merge must recompute every candidate serially and
    // still produce the full answer. The calling thread claims too, so
    // its own abandoned claim guarantees at least one recomputed hole.
    failpoint::configure("phase2.steal", Action::KillWorker);
    for threads in [2, 8] {
        let o = run(
            &pattern,
            &main,
            MatchOptions {
                collect_metrics: true,
                ..opts(threads, Phase2Scheduler::WorkStealing)
            },
        );
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: steal-site death changed the result"
        );
        assert!(o.completeness.is_complete());
        let m = o.metrics.as_ref().expect("metrics requested");
        assert!(
            m.counters.get("scheduler.recomputed") >= 1,
            "threads {threads}: the hole-recovery path must run"
        );
    }
    // Under a budget the truncation point is still the serial one.
    let budget = total_effort(&reference) / 2;
    let budgeted_serial = run(
        &pattern,
        &main,
        MatchOptions {
            budget: Some(WorkBudget::effort(budget)),
            ..opts(1, Phase2Scheduler::WorkStealing)
        },
    );
    assert!(budgeted_serial.completeness.is_truncated());
    for threads in [2, 8] {
        let o = run(
            &pattern,
            &main,
            MatchOptions {
                budget: Some(WorkBudget::effort(budget)),
                ..opts(threads, Phase2Scheduler::WorkStealing)
            },
        );
        assert_eq!(budgeted_serial.instances, o.instances, "threads {threads}");
        assert_eq!(
            budgeted_serial.completeness, o.completeness,
            "threads {threads}"
        );
    }
}

#[test]
fn worker_stall_at_steal_site_shifts_time_but_not_results() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1, Phase2Scheduler::WorkStealing));
    // Stall every claim attempt: claim interleavings scramble, the
    // merged outcome must not.
    failpoint::configure("phase2.steal", Action::StallMs(1));
    for threads in [2, 8] {
        let o = run(
            &pattern,
            &main,
            opts(threads, Phase2Scheduler::WorkStealing),
        );
        assert_eq!(reference.instances, o.instances, "threads {threads}");
        assert_eq!(reference.phase2, o.phase2, "threads {threads}");
        assert!(o.completeness.is_complete());
    }
}

#[test]
fn worker_death_at_spawn_site_recovers_under_stealing_scheduler() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1, Phase2Scheduler::WorkStealing));
    // Spawned workers die before claiming anything at all (no
    // tombstones, just an empty board). The calling thread never runs
    // the startup failpoint: under stealing it claims every candidate
    // itself, so nothing is recomputed; under static chunks it owns
    // only chunk 0 and the merge self-heals the rest by recomputation.
    failpoint::configure("phase2.worker", Action::KillWorker);
    for scheduler in SCHEDULERS {
        for threads in [2, 8] {
            let o = run(
                &pattern,
                &main,
                MatchOptions {
                    collect_metrics: true,
                    ..opts(threads, scheduler)
                },
            );
            assert_eq!(
                reference.instances, o.instances,
                "{scheduler:?} threads {threads}: spawn-site death changed the result"
            );
            assert!(o.completeness.is_complete());
            if scheduler == Phase2Scheduler::WorkStealing {
                let m = o.metrics.as_ref().expect("metrics requested");
                assert_eq!(
                    m.counters.get("scheduler.recomputed"),
                    0,
                    "threads {threads}: the calling thread verifies every candidate"
                );
            }
        }
    }
}

#[test]
fn threads_auto_resolves_and_reports_both_numbers() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let o = run(
        &pattern,
        &main,
        MatchOptions {
            collect_metrics: true,
            ..opts(0, Phase2Scheduler::WorkStealing)
        },
    );
    let m = o.metrics.as_ref().expect("metrics requested");
    assert_eq!(m.threads_requested, 0, "the request is echoed verbatim");
    assert!(m.threads_resolved >= 1, "auto maps to a concrete count");
    assert!(m.threads_used >= 1);
    // Auto must agree with an explicit request for the same count.
    let explicit = run(
        &pattern,
        &main,
        opts(m.threads_resolved, Phase2Scheduler::WorkStealing),
    );
    assert_eq!(o.instances, explicit.instances);
    assert_eq!(o.phase2, explicit.phase2);
}
