//! `Netlist::collapse` against the rebuild it replaced. The oracle below
//! is extraction's old replace step, written against the public API
//! only: it re-adds every surviving device, then the composites, to an
//! empty netlist, by name. Over seeded generator netlists with random
//! absorbed sets, random port images, stray isolated nets, ports and
//! globals, the in-place collapse must produce the same netlist — types,
//! devices, nets, pin lists, flags, ports and name lookups — or the same
//! error, in which case it must leave its netlist untouched.

use std::collections::HashSet;

use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{DeviceId, DeviceType, NetId, Netlist, NetlistError, TerminalSpec};
use subgemini_workloads::gen;

type Composites = Vec<(String, Vec<NetId>)>;

/// The old replace step: rebuilds `main` with `absorbed` removed and the
/// composites added, creating nets lazily by name.
fn rebuild(
    main: &Netlist,
    absorbed: &[DeviceId],
    ty: &DeviceType,
    composites: &Composites,
) -> Result<Netlist, NetlistError> {
    let absorbed: HashSet<DeviceId> = absorbed.iter().copied().collect();
    let mut out = Netlist::new(main.name().to_string());
    let carry_net = |out: &mut Netlist, n: NetId| {
        let net = main.net_ref(n);
        let id = out.net(net.name());
        if net.is_global() {
            out.mark_global(id);
        }
        if net.is_port() {
            out.mark_port(id);
        }
        id
    };
    for d in main.device_ids() {
        if absorbed.contains(&d) {
            continue;
        }
        let dev = main.device(d);
        let ty = out.add_type(main.device_type(dev.type_id()).clone())?;
        let pins: Vec<_> = dev.pins().iter().map(|&n| carry_net(&mut out, n)).collect();
        out.add_device(dev.name(), ty, &pins)?;
    }
    let comp = out.add_type(ty.clone())?;
    for (name, pins) in composites {
        let pins: Vec<_> = pins.iter().map(|&n| carry_net(&mut out, n)).collect();
        out.add_device(name.clone(), comp, &pins)?;
    }
    Ok(out)
}

/// Every structural fact the public API exposes, plus name lookups for
/// `names` (which include names the collapse removed).
fn dump(nl: &Netlist, names: &[String]) -> String {
    let mut out = format!("netlist {}\n", nl.name());
    for (i, ty) in nl.device_types().iter().enumerate() {
        out.push_str(&format!("type {i} {}", ty.name()));
        for t in ty.terminals() {
            out.push_str(&format!(" {}:{}", t.name(), t.class()));
        }
        out.push('\n');
    }
    for d in nl.device_ids() {
        let dev = nl.device(d);
        out.push_str(&format!(
            "dev {d} {} {} {:?}\n",
            dev.name(),
            dev.type_id(),
            dev.pins()
        ));
    }
    for n in nl.net_ids() {
        let net = nl.net_ref(n);
        out.push_str(&format!(
            "net {n} {} global={} port={} {:?}\n",
            net.name(),
            net.is_global(),
            net.is_port(),
            net.pins()
        ));
    }
    out.push_str(&format!("ports {:?}\n", nl.ports()));
    for name in names {
        out.push_str(&format!(
            "lookup {name} {:?} {:?} {:?}\n",
            nl.find_device(name),
            nl.find_net(name),
            nl.type_id(name)
        ));
    }
    out
}

/// Every device, net and type name of `nl`.
fn all_names(nl: &Netlist) -> Vec<String> {
    let devices = nl.device_ids().map(|d| nl.device(d).name().to_string());
    let nets = nl.net_ids().map(|n| nl.net_ref(n).name().to_string());
    let types = nl.device_types().iter().map(|t| t.name().to_string());
    devices.chain(nets).chain(types).collect()
}

/// A generator netlist of roughly 10–400 devices.
fn base(i: usize) -> Netlist {
    let seed = i as u64;
    match i % 6 {
        0 => gen::random_soup(seed, 8 + i % 30).netlist,
        1 => gen::tiled_chip(seed, 150 + 2 * i).netlist,
        2 => gen::ripple_adder(1 + i % 4).netlist,
        3 => gen::sram_array(2, 2 + i % 3).netlist,
        4 => {
            gen::hierarchical_chip(seed, 1 + i % 3, 150)
                .generated
                .netlist
        }
        _ => gen::shift_register(1 + i % 3).netlist,
    }
}

/// One seeded case: the input netlist, absorbed ids, composite type and
/// composites.
fn case(i: usize) -> (Netlist, Vec<DeviceId>, DeviceType, Composites) {
    let mut rng = Rng64::new(0xc0_11a9_5e00 + i as u64);
    let mut nl = base(i);
    // Stray isolated nets, and random port and global marks.
    for k in 0..rng.index(3) {
        nl.net(format!("stray{k}"));
    }
    for _ in 0..rng.index(6) {
        let n = NetId::new(rng.index(nl.net_count()) as u32);
        if rng.ratio(1, 3) {
            nl.mark_global(n);
        } else {
            nl.mark_port(n);
        }
    }
    // Absorbed devices, split into groups of 1–4, one composite each.
    let tenths = rng.index(7) as u64;
    let mut absorbed: Vec<DeviceId> = nl.device_ids().filter(|_| rng.ratio(tenths, 10)).collect();
    for k in (1..absorbed.len()).rev() {
        absorbed.swap(k, rng.index(k + 1));
    }
    let ty = match rng.index(8) {
        0 => DeviceType::mos("nmos"),
        1 => DeviceType::new(
            "nmos",
            vec![TerminalSpec::new("a", "x"), TerminalSpec::new("b", "x")],
        ),
        _ => {
            let arity = rng.range(1, 5);
            let terms = (0..arity)
                .map(|t| TerminalSpec::new(format!("p{t}"), format!("c{}", rng.index(2))))
                .collect();
            DeviceType::new(format!("cell{}", rng.index(3)), terms)
        }
    };
    let mut composites: Composites = Vec::new();
    let mut rest = &absorbed[..];
    while !rest.is_empty() || (composites.is_empty() && rng.ratio(1, 4)) {
        let take = rng.range(1, 5).min(rest.len());
        let (group, tail) = rest.split_at(take);
        rest = tail;
        // Port images: mostly nets of the group, some anywhere.
        let pins = (0..ty.terminal_count())
            .map(|_| match group {
                [] => NetId::new(rng.index(nl.net_count()) as u32),
                _ if rng.ratio(1, 4) => NetId::new(rng.index(nl.net_count()) as u32),
                _ => {
                    let dev = nl.device(group[rng.index(group.len())]);
                    dev.pin(rng.index(dev.pins().len()))
                }
            })
            .collect();
        // Reusing an absorbed device's name is legal.
        let name = match group.first() {
            Some(&d) if rng.ratio(1, 8) => nl.device(d).name().to_string(),
            _ => format!("{}#{}", ty.name(), composites.len()),
        };
        composites.push((name, pins));
    }
    // At most one fault per case: a wrong pin count, any device's name
    // (an error unless that device was absorbed), or a name given twice.
    if !composites.is_empty() {
        let k = rng.index(composites.len());
        match rng.index(12) {
            0 => composites[k].1.push(NetId::new(0)),
            1 => {
                let d = DeviceId::new(rng.index(nl.device_count()) as u32);
                composites[k].0 = nl.device(d).name().to_string();
            }
            2 => composites[k].0 = composites[0].0.clone(),
            _ => {}
        }
    }
    (nl, absorbed, ty, composites)
}

#[test]
fn collapse_matches_the_rebuild_on_seeded_cases() {
    let (mut collapsed, mut failed) = (0, 0);
    for i in 0..240 {
        let (mut nl, absorbed, ty, composites) = case(i);
        let mut names = all_names(&nl);
        names.extend(composites.iter().map(|(name, _)| name.clone()));
        let before = dump(&nl, &names);
        let want = rebuild(&nl, &absorbed, &ty, &composites);
        match (nl.collapse(&absorbed, ty, composites), want) {
            (Ok(()), Ok(want)) => {
                nl.validate()
                    .unwrap_or_else(|e| panic!("case {i}: invalid after collapse: {e}"));
                assert_eq!(dump(&nl, &names), dump(&want, &names), "case {i}");
                collapsed += 1;
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "case {i}");
                assert_eq!(
                    dump(&nl, &names),
                    before,
                    "case {i}: error changed the netlist"
                );
                failed += 1;
            }
            (got, want) => panic!("case {i}: collapse {got:?}, rebuild {:?}", want.err()),
        }
    }
    // Both outcomes are exercised; most cases collapse.
    assert!(
        collapsed >= 160 && failed >= 10,
        "{collapsed} ok, {failed} errors"
    );
}

#[test]
fn repeated_collapses_match_repeated_rebuilds() {
    // Extraction collapses the same netlist round after round: chain
    // eight collapses and compare after each.
    for i in 0..24 {
        let (mut nl, ..) = case(i);
        let mut oracle = nl.clone();
        let mut rng = Rng64::new(0x0ce_a110 + i as u64);
        for round in 0..8 {
            if nl.device_count() == 0 {
                break;
            }
            let absorbed: Vec<DeviceId> = nl.device_ids().filter(|_| rng.ratio(1, 4)).collect();
            let ty = DeviceType::new(
                format!("r{round}"),
                vec![TerminalSpec::new("a", "c"), TerminalSpec::new("b", "c")],
            );
            let composites: Composites = absorbed
                .chunks(3)
                .enumerate()
                .map(|(k, group)| {
                    let dev = nl.device(group[0]);
                    let a = dev.pin(0);
                    let b = dev.pin(dev.pins().len() - 1);
                    (format!("r{round}#{k}"), vec![a, b])
                })
                .collect();
            let mut names = all_names(&nl);
            names.extend(composites.iter().map(|(name, _)| name.clone()));
            oracle = rebuild(&oracle, &absorbed, &ty, &composites).unwrap();
            nl.collapse(&absorbed, ty, composites).unwrap();
            nl.validate().unwrap();
            assert_eq!(
                dump(&nl, &names),
                dump(&oracle, &names),
                "case {i} round {round}"
            );
        }
    }
}
