//! Phase II work stealing on a skew-heavy workload: a symmetric blob
//! of superposed pattern copies (guess storms, ~80x the mean
//! verification cost) clustered at the head of the candidate vector,
//! followed by a long tail of cheap instances. An even, fixed split of
//! the vector would strand every heavy candidate in one worker's
//! share; stealing drains the tail around it.
//!
//! Besides timing, this bench is a correctness gate: it asserts that
//! every thread count returns byte-identical instances and
//! completeness, and that stealing actually happens at 8 threads.

use std::hint::black_box;

use subgemini::{MatchOptions, Matcher};
use subgemini_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

const TRAPS: usize = 10;
const EASY: usize = 128;
const THREADS: usize = 8;

fn workload() -> (Netlist, Netlist) {
    let cell = cells::nand_k(6);
    let g = gen::skewed_trap_field(&cell, TRAPS, EASY);
    (cell, g.netlist)
}

fn opts(threads: usize) -> MatchOptions {
    MatchOptions {
        threads,
        ..MatchOptions::default()
    }
}

fn run(pattern: &Netlist, main: &Netlist, o: MatchOptions) -> subgemini::MatchOutcome {
    Matcher::new(pattern, main).options(o).find_all()
}

/// Identical answers at every thread count, and real stealing on the
/// skewed field.
fn preflight(pattern: &Netlist, main: &Netlist) {
    let reference = run(pattern, main, opts(1));
    assert!(reference.completeness.is_complete());
    assert_eq!(
        reference.count(),
        TRAPS + EASY,
        "ground truth: every planted instance is found"
    );
    for threads in [2, THREADS] {
        let o = run(pattern, main, opts(threads));
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: instances diverge"
        );
        assert_eq!(reference.completeness, o.completeness);
    }
    let observed = run(
        pattern,
        main,
        MatchOptions {
            collect_metrics: true,
            ..opts(THREADS)
        },
    );
    let m = observed.metrics.as_ref().expect("metrics requested");
    assert!(
        m.counters.get("scheduler.steals") > 0,
        "skewed workload at {THREADS} threads must provoke steals"
    );
    println!(
        "scheduler_skew preflight: {} instances, cv {}, steals {}",
        observed.count(),
        observed.phase1.cv_size,
        m.counters.get("scheduler.steals"),
    );
}

fn bench(c: &mut Criterion) {
    let (pattern, main) = workload();
    preflight(&pattern, &main);
    let mut group = c.benchmark_group("scheduler_skew");
    for (name, threads) in [("serial", 1), ("steal", THREADS)] {
        group.bench_with_input(BenchmarkId::new(name, threads), &(), |b, ()| {
            b.iter(|| black_box(run(&pattern, &main, opts(threads))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
