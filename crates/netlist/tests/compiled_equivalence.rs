//! Equivalence of the compiled CSR snapshot and the netlist it was
//! compiled from: on seeded random netlists, every query the labeling
//! engine and the matcher rely on — initial labels, degrees, neighbors
//! in pin order with their class multipliers, global/port flags, and
//! contribution sums — must answer what the netlist's own pins, terminal
//! classes and flags say.

use subgemini_netlist::hashing::{global_net_label, net_degree_label};
use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{CompiledCircuit, DeviceType, NetId, Netlist};

/// Builds a random netlist (mos + resistor soup) with some nets marked
/// port and/or global, following the prop_labeling generator idiom.
fn random_netlist(rng: &mut Rng64) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mos = nl.add_mos_types();
    let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
    let n_nets = rng.range(2, 9);
    let nets: Vec<NetId> = (0..n_nets).map(|i| nl.net(format!("w{i}"))).collect();
    for &n in &nets {
        match rng.range(0, 5) {
            0 => nl.mark_global(n),
            1 => nl.mark_port(n),
            2 => {
                nl.mark_port(n);
                nl.mark_global(n);
            }
            _ => {}
        }
    }
    let n_dev = rng.range(1, 14);
    for i in 0..n_dev {
        let p = |rng: &mut Rng64| nets[rng.index(nets.len())];
        match rng.range(0, 3) {
            0 => {
                let pins = [p(rng), p(rng), p(rng)];
                nl.add_device(format!("n{i}"), mos.nmos, &pins).unwrap();
            }
            1 => {
                let pins = [p(rng), p(rng), p(rng)];
                nl.add_device(format!("p{i}"), mos.pmos, &pins).unwrap();
            }
            _ => {
                let pins = [p(rng), p(rng)];
                nl.add_device(format!("r{i}"), res, &pins).unwrap();
            }
        }
    }
    nl
}

/// `(neighbor, class multiplier)` pairs: weighted sum, used count.
fn expected_contribs(pairs: &[(u32, u64)], label: impl Fn(u32) -> u64) -> (u64, usize) {
    let sum = pairs.iter().fold(0u64, |acc, &(v, mult)| {
        acc.wrapping_add(mult.wrapping_mul(label(v)))
    });
    (sum, pairs.len())
}

#[test]
fn compiled_agrees_with_the_netlist_on_all_queries() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0xc0de_5000 + case);
        let nl = random_netlist(&mut rng);
        let compiled = CompiledCircuit::compile(&nl);

        assert_eq!(compiled.device_count(), nl.device_count(), "case {case}");
        assert_eq!(compiled.net_count(), nl.net_count(), "case {case}");
        assert_eq!(compiled.pin_count(), nl.pin_count(), "case {case}");

        for d in nl.device_ids() {
            let dev = nl.device(d);
            let ty = nl.device_type_of(d);
            assert_eq!(
                compiled.initial_device_label(d),
                ty.initial_label(),
                "case {case}: device {d:?} initial label"
            );
            assert_eq!(compiled.device_degree(d), dev.pins().len(), "case {case}");
            // Neighbors in terminal order, each with its class multiplier.
            let want: Vec<(u32, u64)> = dev
                .pins()
                .iter()
                .enumerate()
                .map(|(t, n)| (n.raw(), ty.class_multiplier(t)))
                .collect();
            let got: Vec<(u32, u64)> = compiled
                .device_neighbors(d)
                .map(|(n, w)| (n.raw(), w))
                .collect();
            assert_eq!(got, want, "case {case}: device {d:?} neighbors");
            let c = compiled.device_contribs(d, |n| Some(n.raw() as u64 + 1));
            let (sum, used) = expected_contribs(&want, |n| n as u64 + 1);
            assert_eq!((c.sum, c.used, c.skipped), (sum, used, 0), "case {case}");
        }

        for n in nl.net_ids() {
            let net = nl.net_ref(n);
            let label = if net.is_global() {
                global_net_label(net.name())
            } else {
                net_degree_label(net.degree())
            };
            assert_eq!(
                compiled.initial_net_label(n),
                label,
                "case {case}: net {n:?} initial label"
            );
            assert_eq!(compiled.net_degree(n), net.degree(), "case {case}");
            assert_eq!(compiled.is_global(n), net.is_global());
            assert_eq!(compiled.is_port(n), net.is_port());
            // Neighbors in (device, terminal) order, as the netlist
            // lists the net's pins.
            let want: Vec<(u32, u64)> = net
                .pins()
                .iter()
                .map(|p| {
                    let ty = nl.device_type_of(p.device);
                    (p.device.raw(), ty.class_multiplier(p.terminal as usize))
                })
                .collect();
            let got: Vec<(u32, u64)> = compiled
                .net_neighbors(n)
                .map(|(d, w)| (d.raw(), w))
                .collect();
            assert_eq!(got, want, "case {case}: net {n:?} neighbors");
            let c = compiled.net_contribs(n, |d| Some(d.raw() as u64 * 3 + 7));
            let (sum, used) = expected_contribs(&want, |d| d as u64 * 3 + 7);
            assert_eq!((c.sum, c.used, c.skipped), (sum, used, 0), "case {case}");
        }

        // Global directory agrees with the netlist.
        for n in nl.net_ids() {
            let net = nl.net_ref(n);
            if net.is_global() {
                assert_eq!(
                    compiled.find_global(net.name()),
                    Some(n),
                    "case {case}: global {} not found",
                    net.name()
                );
            } else {
                assert_eq!(compiled.find_global(net.name()), None, "case {case}");
            }
        }
        assert_eq!(compiled.ports(), nl.ports(), "case {case}");
    }
}

#[test]
fn repeated_compilation_is_identical() {
    for case in 0..16u64 {
        let mut rng = Rng64::new(0xc0de_6000 + case);
        let nl = random_netlist(&mut rng);
        let once = CompiledCircuit::compile(&nl);
        assert_eq!(once, CompiledCircuit::compile(&nl), "case {case}");
        assert_eq!(*CompiledCircuit::compile_shared(&nl), once, "case {case}");
    }
}
