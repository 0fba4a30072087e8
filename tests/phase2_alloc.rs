//! Phase II's allocation contract: once a worker's search state is
//! warm, a rejected candidate allocates nothing and a verified mapping
//! allocates only its `SubMatch` (two `Vec`s); the merge stores device
//! sets back to back and claims in one bitset, so it adds nothing per
//! instance but amortized growth. A counting global allocator measures
//! whole `find_all` runs at two sizes of each workload; everything that
//! does not grow with the candidate count (compilation, Phase I,
//! warm-up) cancels in the difference.
//!
//! This is its own test binary because the allocator is global; the
//! counter is per thread, so tests running in parallel do not disturb
//! each other, and `threads: 1` keeps each search on the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subgemini::{find_all, MatchOptions, MatchOutcome, OverlapPolicy};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation
/// made on the current thread.
struct Counting;

fn bump() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract for them. The only extra work
// is bumping a const-initialized thread-local `Cell<u64>`, which needs
// no allocation and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is
        // valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A serial search under `overlap`, and the allocations it made.
fn counted_find(pattern: &Netlist, main: &Netlist, overlap: OverlapPolicy) -> (MatchOutcome, u64) {
    let opts = MatchOptions {
        threads: 1,
        overlap,
        ..MatchOptions::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let outcome = find_all(pattern, main, &opts);
    (outcome, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_rejected_candidate_allocates_nothing() {
    for (name, cell) in [
        ("full_adder", cells::full_adder()),
        ("dff", cells::dff()),
        ("inv", cells::inv()),
    ] {
        let small = gen::near_miss_field(&cell, 200, 7).netlist;
        let large = gen::near_miss_field(&cell, 400, 7).netlist;
        let (o_small, a_small) = counted_find(&cell, &small, OverlapPolicy::AllowOverlap);
        let (o_large, a_large) = counted_find(&cell, &large, OverlapPolicy::AllowOverlap);
        let (r_small, r_large) = (
            o_small.phase2.false_candidates,
            o_large.phase2.false_candidates,
        );
        assert!(r_large > r_small, "{name}: rejected {r_small} -> {r_large}");
        let extra = a_large.saturating_sub(a_small) as f64;
        let per = extra / (r_large - r_small) as f64;
        assert!(
            per <= 0.05,
            "{name}: {per:.2} allocations per extra rejected candidate \
             ({a_small} -> {a_large} allocations, {r_small} -> {r_large} rejected)"
        );
    }
}

/// Candidates verified into a mapping: reported, duplicate or
/// overlap-dropped alike, each allocated its `SubMatch`.
fn verified(o: &MatchOutcome) -> usize {
    o.phase2.candidates_tried - o.phase2.false_candidates
}

#[test]
fn a_found_instance_allocates_its_mapping_and_the_merge_only() {
    let inv = cells::inv();
    let full_adder = cells::full_adder();
    let sram6t = cells::sram6t();
    for (name, cell, small, large, overlap) in [
        (
            "inverter_chain",
            &inv,
            gen::inverter_chain(4_000),
            gen::inverter_chain(8_000),
            OverlapPolicy::AllowOverlap,
        ),
        (
            "ripple_adder",
            &full_adder,
            gen::ripple_adder(64),
            gen::ripple_adder(128),
            OverlapPolicy::AllowOverlap,
        ),
        (
            "ripple_adder_claimed",
            &full_adder,
            gen::ripple_adder(64),
            gen::ripple_adder(128),
            OverlapPolicy::ClaimDevices,
        ),
        (
            // Every `sram6t` instance is verified twice, through both
            // images of the key vertex; the merge drops the second.
            "sram_array",
            &sram6t,
            gen::sram_array(32, 32),
            gen::sram_array(64, 32),
            OverlapPolicy::AllowOverlap,
        ),
    ] {
        let (o_small, a_small) = counted_find(cell, &small.netlist, overlap);
        let (o_large, a_large) = counted_find(cell, &large.netlist, overlap);
        let (f_small, f_large) = (o_small.instances.len(), o_large.instances.len());
        assert!(f_large > f_small, "{name}: found {f_small} -> {f_large}");
        let (v_small, v_large) = (verified(&o_small), verified(&o_large));
        let extra = a_large.saturating_sub(a_small) as f64;
        let per = extra / (v_large - v_small) as f64;
        assert!(
            per <= 2.1,
            "{name}: {per:.3} allocations per extra verified mapping \
             ({a_small} -> {a_large} allocations, {v_small} -> {v_large} verified, \
             {f_small} -> {f_large} found)"
        );
    }
}

#[test]
fn the_duplicate_heavy_search_drops_duplicates() {
    let sram6t = cells::sram6t();
    let opts = MatchOptions {
        threads: 1,
        collect_metrics: true,
        ..MatchOptions::default()
    };
    let o = find_all(&sram6t, &gen::sram_array(32, 32).netlist, &opts);
    let counters = &o.metrics.as_ref().expect("metrics were collected").counters;
    let dropped = counters.get("instances.dedup_dropped");
    assert!(dropped > 0, "sram6t over sram_array dropped no duplicate");
    assert_eq!(dropped as usize + o.count(), verified(&o));
}
