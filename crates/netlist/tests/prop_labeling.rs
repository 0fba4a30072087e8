//! Property tests for the labeling engine's invariants — the
//! foundations both Gemini and SubGemini rely on. Cases are generated
//! from a seeded internal PRNG ([`Rng64`]) so every run explores the
//! same (reproducible) sample of the input space.

use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{CompiledCircuit, DeviceType, NetId, Netlist};

/// Builds a random netlist from an opcode stream: `n_nets` wires plus
/// devices whose pins are chosen by the `picks` values.
fn random_netlist(n_nets: usize, devices: &[(u8, [usize; 3])]) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mos = nl.add_mos_types();
    let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
    let nets: Vec<NetId> = (0..n_nets.max(1))
        .map(|i| nl.net(format!("w{i}")))
        .collect();
    for (i, (kind, pins)) in devices.iter().enumerate() {
        let p = |k: usize| nets[pins[k] % nets.len()];
        match kind % 3 {
            0 => {
                nl.add_device(format!("n{i}"), mos.nmos, &[p(0), p(1), p(2)])
                    .unwrap();
            }
            1 => {
                nl.add_device(format!("p{i}"), mos.pmos, &[p(0), p(1), p(2)])
                    .unwrap();
            }
            _ => {
                nl.add_device(format!("r{i}"), res, &[p(0), p(1)]).unwrap();
            }
        }
    }
    nl
}

/// Draws the shared `(n_nets, devices)` shape used by most cases.
fn draw_shape(
    rng: &mut Rng64,
    min_devices: usize,
    max_devices: usize,
) -> (usize, Vec<(u8, [usize; 3])>) {
    let n_nets = rng.range(1, 8);
    let n_dev = rng.range(min_devices, max_devices);
    let devices = (0..n_dev)
        .map(|_| {
            (
                rng.range(0, 3) as u8,
                [
                    rng.next_u64() as usize,
                    rng.next_u64() as usize,
                    rng.next_u64() as usize,
                ],
            )
        })
        .collect();
    (n_nets, devices)
}

/// The same netlist with every MOS source/drain pair swapped.
fn swap_sd(nl: &Netlist) -> Netlist {
    let mut out = Netlist::new(nl.name().to_string());
    for ty in nl.device_types() {
        out.add_type(ty.clone()).unwrap();
    }
    for n in nl.net_ids() {
        let net = nl.net_ref(n);
        let id = out.net(net.name());
        if net.is_global() {
            out.mark_global(id);
        }
    }
    for d in nl.device_ids() {
        let dev = nl.device(d);
        let ty = nl.device_type_of(d);
        let mut pins: Vec<NetId> = dev
            .pins()
            .iter()
            .map(|&n| out.net(nl.net_ref(n).name()))
            .collect();
        // Swap any two terminals sharing a class.
        'outer: for i in 0..pins.len() {
            for j in (i + 1)..pins.len() {
                if ty.same_class(i, j) {
                    pins.swap(i, j);
                    break 'outer;
                }
            }
        }
        out.add_device(dev.name(), dev.type_id(), &pins).unwrap();
    }
    out
}

/// Runs `k` full Jacobi relabel rounds and returns the sorted label
/// multiset (device labels then net labels).
fn labels_after(nl: &Netlist, k: usize) -> (Vec<u64>, Vec<u64>) {
    let g = CompiledCircuit::compile(nl);
    let mut dev: Vec<u64> = nl.device_ids().map(|d| g.initial_device_label(d)).collect();
    let mut net: Vec<u64> = nl.net_ids().map(|n| g.initial_net_label(n)).collect();
    for _ in 0..k {
        let new_net: Vec<u64> = nl
            .net_ids()
            .map(|n| {
                let c = g.net_contribs(n, |d| Some(dev[d.index()]));
                subgemini_netlist::hashing::relabel(net[n.index()], c.sum)
            })
            .collect();
        let new_dev: Vec<u64> = nl
            .device_ids()
            .map(|d| {
                let c = g.device_contribs(d, |n| Some(new_net[n.index()]));
                subgemini_netlist::hashing::relabel(dev[d.index()], c.sum)
            })
            .collect();
        net = new_net;
        dev = new_dev;
    }
    dev.sort_unstable();
    net.sort_unstable();
    (dev, net)
}

/// Swapping pins within a terminal equivalence class never changes
/// any label, at any refinement depth.
#[test]
fn labels_invariant_under_class_swaps() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x1abe_1000 + case);
        let (n_nets, devices) = draw_shape(&mut rng, 1, 12);
        let rounds = rng.range(1, 5);
        let a = random_netlist(n_nets, &devices);
        let b = swap_sd(&a);
        assert_eq!(
            labels_after(&a, rounds),
            labels_after(&b, rounds),
            "case {case}"
        );
    }
}

/// Renaming nets and devices never changes the label multiset
/// (labels derive from structure and type names only).
#[test]
fn labels_invariant_under_renaming() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x2abe_1000 + case);
        let (n_nets, devices) = draw_shape(&mut rng, 1, 12);
        let a = random_netlist(n_nets, &devices);
        let mut b = Netlist::new("renamed");
        for ty in a.device_types() {
            b.add_type(ty.clone()).unwrap();
        }
        for d in a.device_ids() {
            let dev = a.device(d);
            let pins: Vec<NetId> = dev
                .pins()
                .iter()
                .map(|&n| b.net(format!("zz_{}", a.net_ref(n).name())))
                .collect();
            b.add_device(format!("dev_{}", dev.name()), dev.type_id(), &pins)
                .unwrap();
        }
        // Isolated nets don't exist in b; compact a to align.
        let a = a.compact();
        assert_eq!(labels_after(&a, 3), labels_after(&b, 3), "case {case}");
    }
}

/// `compact` is idempotent and never drops a connected net.
#[test]
fn compact_idempotent() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x3abe_1000 + case);
        let n_nets = rng.range(1, 10);
        let n_dev = rng.range(0, 10);
        let devices: Vec<(u8, [usize; 3])> = (0..n_dev)
            .map(|_| {
                (
                    rng.range(0, 3) as u8,
                    [
                        rng.next_u64() as usize,
                        rng.next_u64() as usize,
                        rng.next_u64() as usize,
                    ],
                )
            })
            .collect();
        let a = random_netlist(n_nets, &devices);
        let c1 = a.compact();
        let c2 = c1.compact();
        assert_eq!(c1.net_count(), c2.net_count(), "case {case}");
        assert_eq!(c1.device_count(), a.device_count(), "case {case}");
        for n in c1.net_ids() {
            assert!(c1.net_ref(n).degree() > 0, "case {case}");
        }
        c1.validate().unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Validation always passes for netlists built through the API.
#[test]
fn api_built_netlists_validate() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x4abe_1000 + case);
        let n_nets = rng.range(1, 6);
        let n_dev = rng.range(0, 16);
        let devices: Vec<(u8, [usize; 3])> = (0..n_dev)
            .map(|_| {
                (
                    rng.range(0, 3) as u8,
                    [
                        rng.next_u64() as usize,
                        rng.next_u64() as usize,
                        rng.next_u64() as usize,
                    ],
                )
            })
            .collect();
        let a = random_netlist(n_nets, &devices);
        a.validate().unwrap_or_else(|e| panic!("case {case}: {e}"));
        let stats = subgemini_netlist::NetlistStats::of(&a);
        assert_eq!(stats.devices, devices.len(), "case {case}");
    }
}

/// Distinct terminal classes must produce distinct labels for
/// structurally different wirings: a gate-connected vs a
/// source-connected net differ after one round.
#[test]
fn class_distinction_shows_in_labels() {
    let mut nl = Netlist::new("x");
    let mos = nl.add_mos_types();
    let (a, b, c) = (nl.net("a"), nl.net("b"), nl.net("c"));
    nl.add_device("m", mos.nmos, &[a, b, c]).unwrap();
    let (_, nets) = labels_after(&nl, 1);
    // a (gate) must differ from b/c (s/d); b and c must agree:
    // sorted labels give exactly 2 distinct values.
    let mut uniq = nets.clone();
    uniq.dedup();
    assert_eq!(uniq.len(), 2, "nets={nets:?}");
}
