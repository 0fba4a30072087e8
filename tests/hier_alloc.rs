//! A hierarchize run's allocation contract: containment is recorded by
//! id, in flat arrays that grow, so an extra composite costs only its
//! search's `SubMatch` and its collapse input (a name and a port
//! list), not a string per absorbed device or per tree node. A counting
//! global allocator measures whole runs at two design sizes, at threads
//! 1 so every allocation lands on the counting thread. The name-keyed
//! record this replaced made about 17.9 allocations per extra
//! composite on these designs: a `String` per absorbed device, cell and
//! composite name, a `Vec` per instance, and the same again for the
//! owned containment tree.
//!
//! This is its own test binary because the allocator is global; the
//! counter is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subgemini::hier::Hierarchizer;
use subgemini::MatchOptions;
use subgemini_workloads::gen;

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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Hierarchizes the 3-level `hierarchical_chip(18, 3, devices)` at
/// threads 1 and returns the composites it recovered and the
/// allocations the run made.
fn run(devices: usize) -> (usize, u64) {
    let chip = gen::hierarchical_chip(18, 3, devices);
    let mut hierarchizer = Hierarchizer::new(&chip.library).unwrap();
    hierarchizer.set_options(MatchOptions {
        threads: 1,
        ..MatchOptions::extraction()
    });
    let before = allocations();
    let outcome = hierarchizer.run(&chip.generated.netlist).unwrap();
    let made = allocations() - before;
    assert_eq!(outcome.report.unabsorbed_devices, 0);
    let composites = outcome
        .report
        .levels
        .iter()
        .flat_map(|l| &l.per_cell)
        .map(|&(_, n)| n)
        .sum();
    assert_eq!(outcome.report.roots().len(), outcome.top.device_count());
    (composites, made)
}

#[test]
fn an_extra_composite_allocates_its_match_and_collapse_input_only() {
    // Warm up whatever a first run initializes once per thread.
    run(1_000);
    let [(c_small, a_small), (c_large, a_large)] = [3_000, 6_000].map(run);
    let per = a_large.saturating_sub(a_small) as f64 / (c_large - c_small) as f64;
    assert!(
        per <= 6.0,
        "{per:.2} allocations per extra composite \
         ({a_small} -> {a_large} allocations from {c_small} to {c_large} composites)"
    );
}
