//! `Netlist`'s allocation contract: names live in one arena, pins in
//! flat arrays and lookups in id tables, so building a netlist
//! allocates only when one of those arrays grows — a count that grows
//! with the logarithm of the size, not with the device count — and a
//! clone copies each array once, whatever the size. A counting global
//! allocator measures both at two sizes; the layout this replaced made
//! about 4.7 allocations per device building and 4.4 cloning (a
//! `String` and a pin `Vec` per device and net, and every name again
//! in each of the name maps).
//!
//! This is its own test binary because the allocator is global; the
//! counter is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

use subgemini_netlist::Netlist;
use subgemini_spice::ElaborateOptions;
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

/// Builds an inverter chain of `n` devices through `net` and
/// `add_device`, naming into one reused buffer so that only the
/// netlist allocates. With `read`, every add is followed by reads of
/// net pins: the rail's, growing, and the new output's. Returns the
/// netlist and the allocations building it made.
fn build(n: usize, read: bool) -> (Netlist, u64) {
    let mut name = String::with_capacity(32);
    let before = allocations();
    let mut nl = Netlist::new("chain");
    let mos = nl.add_mos_types();
    let (vdd, gnd) = (nl.net("vdd"), nl.net("gnd"));
    nl.mark_global(vdd);
    nl.mark_global(gnd);
    let mut a = nl.net("in");
    nl.mark_port(a);
    for i in 0..n / 2 {
        name.clear();
        write!(name, "n{i}").unwrap();
        let y = nl.net(&name);
        for (ty, rail, prefix) in [(mos.pmos, vdd, "mp"), (mos.nmos, gnd, "mn")] {
            name.clear();
            write!(name, "{prefix}{i}").unwrap();
            nl.add_device(&name, ty, &[a, rail, y]).unwrap();
            if read {
                assert_eq!(nl.net_ref(rail).pins().last().map(|p| p.terminal), Some(1));
                assert!(nl.net_ref(y).degree() > 0);
            }
        }
        a = y;
    }
    nl.mark_port(a);
    let made = allocations() - before;
    (nl, made)
}

/// Allocations per extra device between two `(devices, allocations)`
/// counts.
fn per_extra_device(counts: [(usize, u64); 2]) -> f64 {
    let [(n_small, a_small), (n_large, a_large)] = counts;
    a_large.saturating_sub(a_small) as f64 / (n_large - n_small) as f64
}

#[test]
fn building_allocates_only_as_arrays_grow() {
    for read in [false, true] {
        let counts = [1_000, 100_000].map(|n| {
            let (nl, made) = build(n, read);
            assert_eq!(nl.device_count(), n);
            (n, made)
        });
        let per = per_extra_device(counts);
        assert!(
            per <= 0.01,
            "{per:.4} allocations per extra device with reads {read} \
             ({} -> {} allocations from {} to {} devices)",
            counts[0].1,
            counts[1].1,
            counts[0].0,
            counts[1].0
        );
    }
}

#[test]
fn clone_allocations_do_not_grow_with_the_netlist() {
    // Once with the net pins never read, once with them built: each
    // clone copies a fixed set of arrays.
    for read in [false, true] {
        let counts = [1_000, 100_000].map(|n| {
            let (nl, _) = build(n, read);
            let before = allocations();
            let copy = nl.clone();
            let made = allocations() - before;
            assert_eq!(copy.device_count(), n);
            made
        });
        assert_eq!(
            counts[0], counts[1],
            "clone allocations at 10^3 and 10^5 devices (reads {read})"
        );
    }
}

#[test]
fn spice_elaboration_allocates_only_as_arrays_grow() {
    let counts = [2_000, 20_000].map(|n| {
        let chip = gen::tiled_chip(17, n).netlist;
        let doc = subgemini_spice::parse(&subgemini_spice::write_netlist(&chip)).unwrap();
        let before = allocations();
        let nl = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap();
        let made = allocations() - before;
        assert_eq!(nl.device_count(), chip.device_count());
        (nl.device_count(), made)
    });
    let per = per_extra_device(counts);
    assert!(
        per <= 0.01,
        "{per:.4} allocations per extra device elaborating \
         ({} -> {} allocations from {} to {} devices)",
        counts[0].1,
        counts[1].1,
        counts[0].0,
        counts[1].0
    );
}
