//! Work-stealing determinism: at every thread count, parallel Phase II
//! must produce the serial run's instances, stats, event journals,
//! reject tallies, and truncation points — on a skew-heavy field, on a
//! mixed tiled chip, and when workers are killed or stalled at the
//! steal sites. A panic inside the merge must reach the caller.
//!
//! The failpoint registry is process-global, so every test in this
//! binary serializes on one lock and disarms all sites on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use subgemini::budget::failpoint::{self, Action};
use subgemini::{MatchOptions, MatchOutcome, Matcher, WorkBudget};
use subgemini_netlist::Netlist;
use subgemini_workloads::{analog, cells, gen};

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

const THREADS: [usize; 3] = [1, 2, 8];

fn run(pattern: &Netlist, main: &Netlist, opts: MatchOptions) -> MatchOutcome {
    Matcher::new(pattern, main).options(opts).find_all()
}

fn opts(threads: usize) -> MatchOptions {
    MatchOptions {
        threads,
        ..MatchOptions::default()
    }
}

/// `opts(threads)` with the journal and metrics on.
fn observed(threads: usize) -> MatchOptions {
    MatchOptions {
        trace_events: true,
        collect_metrics: true,
        ..opts(threads)
    }
}

/// Every `reject.*` tally from the metrics counters, in name order
/// (empty without metrics).
fn reject_tallies(o: &MatchOutcome) -> Vec<(String, u64)> {
    let mut t: Vec<(String, u64)> = o
        .metrics
        .iter()
        .flat_map(|m| m.counters.iter())
        .filter(|(name, _)| name.starts_with("reject."))
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    t.sort();
    t
}

/// Asserts `got` matches `base` on everything the merge decides.
/// Scheduler counters and timings legitimately differ between runs.
#[track_caller]
fn assert_equivalent(base: &MatchOutcome, got: &MatchOutcome, ctx: &str) {
    assert_eq!(base.instances, got.instances, "{ctx}: instances");
    assert_eq!(base.key, got.key, "{ctx}: key image");
    assert_eq!(base.phase1, got.phase1, "{ctx}: Phase I stats");
    assert_eq!(base.phase2, got.phase2, "{ctx}: Phase II stats");
    assert_eq!(base.completeness, got.completeness, "{ctx}: completeness");
    assert_eq!(base.events, got.events, "{ctx}: event journal");
    assert_eq!(
        reject_tallies(base),
        reject_tallies(got),
        "{ctx}: reject tallies"
    );
}

fn total_effort(o: &MatchOutcome) -> u64 {
    (o.phase1.iterations
        + o.phase2.candidates_tried
        + o.phase2.passes
        + o.phase2.guesses
        + o.phase2.backtracks) as u64
}

#[test]
fn schedulers_and_thread_counts_agree_on_instances_and_stats() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1));
    assert_eq!(reference.count(), 100, "4 blob copies + 96 planted");
    assert!(reference.completeness.is_complete());
    for threads in THREADS {
        let o = run(&pattern, &main, opts(threads));
        assert_equivalent(&reference, &o, &format!("skewed field, threads {threads}"));
    }
    // A mixed tiled chip: SRAM, datapath, analog and glue tiles.
    let chip = gen::tiled_chip(5, 4_000);
    for pattern in [cells::full_adder(), analog::two_stage_opamp()] {
        let name = pattern.name();
        let reference = run(&pattern, &chip.netlist, observed(1));
        assert_eq!(
            reference.count(),
            chip.planted_count(name),
            "{name}: ground truth"
        );
        for threads in THREADS {
            let o = run(&pattern, &chip.netlist, observed(threads));
            assert_equivalent(&reference, &o, &format!("{name}, threads {threads}"));
        }
    }
}

#[test]
fn journals_and_reject_tallies_are_identical_across_schedulers() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, observed(1));
    let ref_journal = reference.events.as_ref().expect("journal requested");
    assert!(!ref_journal.events.is_empty());
    let ref_tallies = reject_tallies(&reference);
    assert!(
        ref_tallies.iter().any(|(_, v)| *v > 0),
        "the blob must produce rejects: {ref_tallies:?}"
    );
    for threads in [2, 8] {
        let o = run(&pattern, &main, observed(threads));
        assert_equivalent(&reference, &o, &format!("threads {threads}"));
    }
}

#[test]
fn truncation_point_is_identical_across_schedulers_and_threads() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let full = run(&pattern, &main, opts(1));
    // A midpoint budget cuts the candidate vector partway through.
    let budget = total_effort(&full) / 2;
    let budgeted = |threads| MatchOptions {
        budget: Some(WorkBudget::effort(budget)),
        ..opts(threads)
    };
    let reference = run(&pattern, &main, budgeted(1));
    assert!(
        reference.completeness.is_truncated(),
        "midpoint budget must truncate"
    );
    for threads in THREADS {
        let o = run(&pattern, &main, budgeted(threads));
        assert_equivalent(&reference, &o, &format!("threads {threads}"));
    }
    // Budgets from a few candidates to past the whole search, on a
    // field of 16 superposed nand2 copies ahead of 24 easy ones.
    let cell = cells::nand2();
    let field = gen::skewed_trap_field(&cell, 16, 24);
    for max_effort in [50u64, 200, 1000, 5000] {
        let budgeted = |threads| MatchOptions {
            budget: Some(WorkBudget::effort(max_effort)),
            ..observed(threads)
        };
        let reference = run(&cell, &field.netlist, budgeted(1));
        for threads in THREADS {
            let o = run(&cell, &field.netlist, budgeted(threads));
            assert_equivalent(
                &reference,
                &o,
                &format!("effort {max_effort}, threads {threads}"),
            );
        }
    }
}

#[test]
fn max_instances_stop_is_identical_across_schedulers_and_threads() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let limited = |threads| MatchOptions {
        max_instances: 10,
        ..opts(threads)
    };
    let reference = run(&pattern, &main, limited(1));
    assert_eq!(reference.count(), 10);
    for threads in [2, 8] {
        let o = run(&pattern, &main, limited(threads));
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: max_instances stop diverges"
        );
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
            ..opts(8)
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
    // The blob clusters heavy candidates into one home chunk, so idle
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
    let reference = run(&pattern, &main, opts(1));
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
                ..opts(threads)
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
    let budgeted = |threads| MatchOptions {
        budget: Some(WorkBudget::effort(budget)),
        ..opts(threads)
    };
    let budgeted_serial = run(&pattern, &main, budgeted(1));
    assert!(budgeted_serial.completeness.is_truncated());
    for threads in [2, 8] {
        let o = run(&pattern, &main, budgeted(threads));
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
    let reference = run(&pattern, &main, opts(1));
    // Stall every claim attempt: claim interleavings scramble, the
    // merged outcome must not.
    failpoint::configure("phase2.steal", Action::StallMs(1));
    for threads in [2, 8] {
        let o = run(&pattern, &main, opts(threads));
        assert_eq!(reference.instances, o.instances, "threads {threads}");
        assert_eq!(reference.phase2, o.phase2, "threads {threads}");
        assert!(o.completeness.is_complete());
    }
}

#[test]
fn worker_death_at_spawn_site_recovers_under_stealing_scheduler() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1));
    // Spawned workers die before claiming anything at all (no
    // tombstones, just an empty board). The calling thread never runs
    // the startup failpoint: it claims every candidate itself, so
    // nothing is recomputed.
    failpoint::configure("phase2.worker", Action::KillWorker);
    for threads in [2, 8] {
        let o = run(
            &pattern,
            &main,
            MatchOptions {
                collect_metrics: true,
                ..opts(threads)
            },
        );
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: spawn-site death changed the result"
        );
        assert!(o.completeness.is_complete());
        let m = o.metrics.as_ref().expect("metrics requested");
        assert_eq!(
            m.counters.get("scheduler.recomputed"),
            0,
            "threads {threads}: the calling thread verifies every candidate"
        );
    }
}

#[test]
fn merge_panic_reaches_the_caller_instead_of_hanging() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    // More candidates than the reorder window holds at two threads, so
    // the spawned worker parks on the window once the merge stops.
    let cv = subgemini::candidates::generate(&pattern, &main)
        .candidates
        .len();
    assert!(cv > 64, "candidate vector of {cv} must exceed the window");
    failpoint::configure("phase2.merge", Action::Panic);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let search = std::panic::AssertUnwindSafe(|| run(&pattern, &main, opts(2)));
        let _ = tx.send(std::panic::catch_unwind(search).is_err());
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("find_all hung: the merge panicked but the workers were never halted");
    assert!(panicked, "the injected merge panic must reach the caller");
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
            ..opts(0)
        },
    );
    let m = o.metrics.as_ref().expect("metrics requested");
    assert_eq!(m.threads_requested, 0, "the request is echoed verbatim");
    assert!(m.threads_resolved >= 1, "auto maps to a concrete count");
    assert!(m.threads_used >= 1);
    // Auto must agree with an explicit request for the same count.
    let explicit = run(&pattern, &main, opts(m.threads_resolved));
    assert_eq!(o.instances, explicit.instances);
    assert_eq!(o.phase2, explicit.phase2);
}

/// Chip-scale pin: a 10^6-device tiled chip at two threads matches
/// the serial run exactly and finds every planted full adder. Run
/// with `cargo test --release -- --ignored`.
#[test]
#[ignore = "chip-scale (10^6 devices): run with --release -- --ignored"]
fn million_device_tiled_chip_threads_2_equals_threads_1() {
    let _fp = FpSession::start();
    let chip = gen::tiled_chip(1, 1_000_000);
    assert!(chip.netlist.device_count() >= 1_000_000);
    let fa = cells::full_adder();
    let reference = run(&fa, &chip.netlist, observed(1));
    assert_eq!(reference.count(), chip.planted_count("full_adder"));
    let o = run(&fa, &chip.netlist, observed(2));
    assert_equivalent(&reference, &o, "10^6 devices, threads 2");
}
