//! `Netlist::collapse`'s allocation contract: the collapse renumbers
//! the surviving devices, nets and types in place, so its allocations
//! do not grow with the netlist — only with the number of composites.
//! A counting global allocator measures the same collapse (same
//! absorbed devices, same composites) of two chains of different
//! length; everything per-composite cancels in the difference. The
//! rebuild that collapse replaced allocated several times per
//! surviving device.
//!
//! This is its own test binary because the allocator is global; the
//! counter is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subgemini_netlist::{DeviceId, DeviceType, Netlist, TerminalSpec};
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

/// Collapses the first 100 inverters of an `n`-inverter chain into
/// composites; returns the surviving device count and the allocations
/// the collapse made.
fn counted_collapse(n: usize) -> (usize, u64) {
    let mut nl: Netlist = gen::inverter_chain(n).netlist;
    let absorbed: Vec<DeviceId> = (0..200).map(DeviceId::new).collect();
    let composites: Vec<_> = absorbed
        .chunks(2)
        .enumerate()
        .map(|(k, pair)| {
            let p = nl.device(pair[0]);
            (format!("inv#{k}"), vec![p.pin(0), p.pin(2)])
        })
        .collect();
    let ty = DeviceType::new(
        "inv",
        vec![TerminalSpec::new("a", "a"), TerminalSpec::new("y", "y")],
    );
    let before = ALLOCATIONS.with(Cell::get);
    nl.collapse(&absorbed, ty, composites).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    nl.validate().unwrap();
    (nl.device_count() - 100, allocations)
}

#[test]
fn collapse_allocations_do_not_grow_with_the_survivors() {
    let (s_small, a_small) = counted_collapse(2_000);
    let (s_large, a_large) = counted_collapse(4_000);
    assert!(s_large > s_small, "survivors {s_small} -> {s_large}");
    let extra = a_large.saturating_sub(a_small) as f64;
    let per = extra / (s_large - s_small) as f64;
    assert!(
        per <= 0.05,
        "{per:.3} allocations per extra surviving device \
         ({a_small} -> {a_large} allocations, {s_small} -> {s_large} survivors)"
    );
}
