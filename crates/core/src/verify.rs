//! Structural verification of candidate instance mappings.
//!
//! Phase II's labels are probabilistic (64-bit hashes approximating
//! exact partition labels), so a completed mapping is always re-checked
//! structurally before being reported — per the paper's "verify the
//! isomorphism mapping" step. This also pins down the reproduction's
//! instance semantics in one place:
//!
//! * device types must agree;
//! * pins must correspond under terminal equivalence classes;
//! * internal pattern nets are *induced*: their images must have exactly
//!   the same degree (no extra connections in the main circuit);
//! * external nets (ports) may have extra connections;
//! * with special nets honored, a global pattern net must map to the
//!   same-named global main net;
//! * the mapping must be injective on both devices and nets.

use subgemini_netlist::{NetId, Netlist};

use crate::instance::SubMatch;

/// Reusable buffers for [`verify_with`]: once they have grown to the
/// pattern's size, a check allocates nothing unless it fails.
#[derive(Default)]
pub(crate) struct VerifyScratch {
    /// Image ids, sorted to find repeats.
    ids: Vec<u32>,
    /// One device's pins as `(class multiplier, net)`: the pattern
    /// device's pins mapped through the nets, and its image's pins.
    sp: Vec<(u64, NetId)>,
    gp: Vec<(u64, NetId)>,
}

/// Does `ids` repeat a value? Sorts `buf` to find out.
fn has_repeat(buf: &mut Vec<u32>, ids: impl Iterator<Item = u32>) -> bool {
    buf.clear();
    buf.extend(ids);
    buf.sort_unstable();
    buf.windows(2).any(|w| w[0] == w[1])
}

/// Checks that `m` is a genuine instance of `pattern` inside `main`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn verify_instance(
    pattern: &Netlist,
    main: &Netlist,
    m: &SubMatch,
    respect_globals: bool,
) -> Result<(), String> {
    verify_with(
        pattern,
        main,
        m,
        respect_globals,
        &mut VerifyScratch::default(),
    )
}

/// [`verify_instance`] with caller-owned buffers: the check Phase II
/// runs on every completed mapping. It reads the [`Netlist`]s, not the
/// compiled graphs or Phase II's labels, so it stays an independent
/// soundness check.
pub(crate) fn verify_with(
    pattern: &Netlist,
    main: &Netlist,
    m: &SubMatch,
    respect_globals: bool,
    scratch: &mut VerifyScratch,
) -> Result<(), String> {
    if m.devices.len() != pattern.device_count() || m.nets.len() != pattern.net_count() {
        return Err(format!(
            "mapping covers {}/{} devices and {}/{} nets",
            m.devices.len(),
            pattern.device_count(),
            m.nets.len(),
            pattern.net_count()
        ));
    }
    // Injectivity.
    if has_repeat(&mut scratch.ids, m.devices.iter().map(|d| d.raw())) {
        return Err("device mapping is not injective".into());
    }
    if has_repeat(&mut scratch.ids, m.nets.iter().map(|n| n.raw())) {
        return Err("net mapping is not injective".into());
    }
    // Devices: type and class-respecting pin correspondence.
    let VerifyScratch { sp, gp, .. } = scratch;
    for sd in pattern.device_ids() {
        let gd = m.device(sd);
        if gd.index() >= main.device_count() {
            return Err(format!("image {gd} of {sd} is out of range"));
        }
        let sty = pattern.device_type_of(sd);
        let gty = main.device_type_of(gd);
        if sty.name() != gty.name() {
            return Err(format!(
                "pattern device `{}` ({}) maps to `{}` ({})",
                pattern.device(sd).name(),
                sty.name(),
                main.device(gd).name(),
                gty.name()
            ));
        }
        sp.clear();
        sp.extend(
            pattern
                .device(sd)
                .pins()
                .iter()
                .enumerate()
                .map(|(i, &n)| (sty.class_multiplier(i), m.net(n))),
        );
        gp.clear();
        gp.extend(
            main.device(gd)
                .pins()
                .iter()
                .enumerate()
                .map(|(i, &n)| (gty.class_multiplier(i), n)),
        );
        sp.sort_unstable();
        gp.sort_unstable();
        if sp != gp {
            return Err(format!(
                "pins of pattern device `{}` do not map onto `{}` under its terminal classes",
                pattern.device(sd).name(),
                main.device(gd).name()
            ));
        }
    }
    // Nets: induced-degree and global constraints.
    for sn in pattern.net_ids() {
        let gn = m.net(sn);
        if gn.index() >= main.net_count() {
            return Err(format!("image {gn} of {sn} is out of range"));
        }
        let snet = pattern.net_ref(sn);
        let gnet = main.net_ref(gn);
        if respect_globals && (snet.is_global() || gnet.is_global()) {
            // Special signals match only each other, by name (§IV.A).
            if !(snet.is_global() && gnet.is_global() && snet.name() == gnet.name()) {
                return Err(format!(
                    "special net constraint violated: pattern `{}` maps to `{}`",
                    snet.name(),
                    gnet.name()
                ));
            }
            continue;
        }
        let external = snet.is_port() || snet.is_global();
        if !external && snet.degree() != gnet.degree() {
            return Err(format!(
                "internal pattern net `{}` (degree {}) maps to `{}` (degree {})",
                snet.name(),
                snet.degree(),
                gnet.name(),
                gnet.degree()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini_netlist::DeviceId;

    fn inverter() -> Netlist {
        let mut inv = Netlist::new("inv");
        let mos = inv.add_mos_types();
        let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
        inv.mark_port(a);
        inv.mark_port(y);
        inv.mark_global(vdd);
        inv.mark_global(gnd);
        inv.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
        inv.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        inv
    }

    /// Main circuit: one inverter with extra fanout on `a` and `y`.
    fn main_with_inverter() -> Netlist {
        let mut g = Netlist::new("main");
        let mos = g.add_mos_types();
        let (a, y, vdd, gnd, z) = (
            g.net("a"),
            g.net("y"),
            g.net("vdd"),
            g.net("gnd"),
            g.net("z"),
        );
        g.mark_global(vdd);
        g.mark_global(gnd);
        g.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
        g.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        g.add_device("load", mos.nmos, &[y, z, gnd]).unwrap();
        g
    }

    fn identity_match(pattern: &Netlist, main: &Netlist) -> SubMatch {
        SubMatch {
            devices: pattern
                .device_ids()
                .map(|d| main.find_device(pattern.device(d).name()).unwrap())
                .collect(),
            nets: pattern
                .net_ids()
                .map(|n| main.find_net(pattern.net_ref(n).name()).unwrap())
                .collect(),
        }
    }

    #[test]
    fn valid_instance_passes() {
        let p = inverter();
        let g = main_with_inverter();
        let m = identity_match(&p, &g);
        verify_instance(&p, &g, &m, true).unwrap();
        // External nets are allowed extra fanout: y has degree 3 in main.
        verify_instance(&p, &g, &m, false).unwrap();
    }

    #[test]
    fn non_injective_rejected() {
        let p = inverter();
        let g = main_with_inverter();
        let mut m = identity_match(&p, &g);
        m.devices[1] = m.devices[0];
        let err = verify_instance(&p, &g, &m, true).unwrap_err();
        assert!(err.contains("injective"));
    }

    #[test]
    fn wrong_type_rejected() {
        let p = inverter();
        let g = main_with_inverter();
        let mut m = identity_match(&p, &g);
        m.devices.swap(0, 1); // pmos <-> nmos
        let err = verify_instance(&p, &g, &m, true).unwrap_err();
        assert!(err.contains("maps to"));
    }

    #[test]
    fn global_name_enforced_only_when_respected() {
        let p = inverter();
        let g = main_with_inverter();
        let mut m = identity_match(&p, &g);
        // Point pattern vdd at gnd: same global status, wrong name.
        let vdd_s = p.find_net("vdd").unwrap();
        m.nets[vdd_s.index()] = g.find_net("gnd").unwrap();
        // ...and pattern gnd at vdd to keep injectivity.
        let gnd_s = p.find_net("gnd").unwrap();
        m.nets[gnd_s.index()] = g.find_net("vdd").unwrap();
        assert!(verify_instance(&p, &g, &m, true).is_err());
        // Ignoring globals, the crossed mapping is structurally wrong
        // anyway (pmos source on gnd), so pins fail:
        assert!(verify_instance(&p, &g, &m, false).is_err());
    }

    #[test]
    fn internal_degree_enforced() {
        // Pattern with an internal net: 2-transistor chain where mid is
        // internal. Main adds a tap on mid, so degree differs.
        let mut p = Netlist::new("chain");
        let mos = p.add_mos_types();
        let (a, mid, b, gnd) = (p.net("a"), p.net("mid"), p.net("b"), p.net("gnd"));
        p.mark_port(a);
        p.mark_port(b);
        p.mark_global(gnd);
        p.add_device("m1", mos.nmos, &[a, b, mid]).unwrap();
        p.add_device("m2", mos.nmos, &[a, mid, gnd]).unwrap();

        let mut g = Netlist::new("main");
        let mos2 = g.add_mos_types();
        let (a, mid, b, gnd, t) = (
            g.net("a"),
            g.net("mid"),
            g.net("b"),
            g.net("gnd"),
            g.net("t"),
        );
        g.mark_global(gnd);
        g.add_device("m1", mos2.nmos, &[a, b, mid]).unwrap();
        g.add_device("m2", mos2.nmos, &[a, mid, gnd]).unwrap();
        g.add_device("tap", mos2.nmos, &[mid, t, gnd]).unwrap();

        let m = identity_match(&p, &g);
        let err = verify_instance(&p, &g, &m, true).unwrap_err();
        assert!(err.contains("degree"), "{err}");
    }

    #[test]
    fn non_injective_net_mapping_rejected() {
        let p = inverter();
        let g = main_with_inverter();
        let mut m = identity_match(&p, &g);
        let (a, y) = (p.find_net("a").unwrap(), p.find_net("y").unwrap());
        m.nets[a.index()] = m.nets[y.index()];
        let err = verify_instance(&p, &g, &m, true).unwrap_err();
        assert_eq!(err, "net mapping is not injective");
    }

    #[test]
    fn out_of_range_images_rejected() {
        let p = inverter();
        let g = main_with_inverter();
        let mut m = identity_match(&p, &g);
        m.devices[0] = DeviceId::new(99);
        let err = verify_instance(&p, &g, &m, true).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // A net on no device pin reaches the net checks unchallenged.
        let mut p = inverter();
        p.net("iso");
        let mut m = identity_match(&inverter(), &g);
        m.nets.push(NetId::new(99));
        let err = verify_instance(&p, &g, &m, true).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn same_type_device_on_wrong_nets_rejected() {
        let p = inverter();
        let g = main_with_inverter();
        let mut m = identity_match(&p, &g);
        // Input and output crossed: every device keeps its type, but
        // gates now land on drains.
        let (a, y) = (p.find_net("a").unwrap(), p.find_net("y").unwrap());
        m.nets.swap(a.index(), y.index());
        let err = verify_instance(&p, &g, &m, true).unwrap_err();
        assert!(err.contains("do not map onto"), "{err}");
    }

    #[test]
    fn pin_swap_within_a_class_accepted() {
        let p = inverter();
        // The main circuit's pmos has source and drain the other way
        // round: one terminal class, so still an image.
        let mut g = Netlist::new("main");
        let mos = g.add_mos_types();
        let (a, y, vdd, gnd) = (g.net("a"), g.net("y"), g.net("vdd"), g.net("gnd"));
        g.mark_global(vdd);
        g.mark_global(gnd);
        g.add_device("mp", mos.pmos, &[a, y, vdd]).unwrap();
        g.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        let m = identity_match(&p, &g);
        verify_instance(&p, &g, &m, true).unwrap();
        // Gate and drain are different classes: that swap is rejected.
        let mut g2 = Netlist::new("main");
        let mos = g2.add_mos_types();
        let (a, y, vdd, gnd) = (g2.net("a"), g2.net("y"), g2.net("vdd"), g2.net("gnd"));
        g2.mark_global(vdd);
        g2.mark_global(gnd);
        g2.add_device("mp", mos.pmos, &[y, vdd, a]).unwrap();
        g2.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        let m = identity_match(&p, &g2);
        assert!(verify_instance(&p, &g2, &m, true).is_err());
    }

    #[test]
    fn a_reused_scratch_answers_like_a_fresh_one() {
        let p = inverter();
        let g = main_with_inverter();
        let ok = identity_match(&p, &g);
        let mut dup_device = ok.clone();
        dup_device.devices[1] = dup_device.devices[0];
        let mut swapped_types = ok.clone();
        swapped_types.devices.swap(0, 1);
        let mut crossed = ok.clone();
        crossed.nets.swap(0, 1);
        let mut far = ok.clone();
        far.devices[1] = DeviceId::new(7);
        let short = SubMatch {
            devices: vec![DeviceId::new(0)],
            nets: vec![],
        };
        let mut scratch = VerifyScratch::default();
        for m in [
            &ok,
            &dup_device,
            &ok,
            &swapped_types,
            &crossed,
            &ok,
            &far,
            &short,
            &ok,
        ] {
            for respect_globals in [true, false] {
                let reused = verify_with(&p, &g, m, respect_globals, &mut scratch);
                assert_eq!(reused, verify_instance(&p, &g, m, respect_globals), "{m:?}");
            }
        }
    }

    #[test]
    fn short_mapping_rejected() {
        let p = inverter();
        let g = main_with_inverter();
        let m = SubMatch {
            devices: vec![DeviceId::new(0)],
            nets: vec![],
        };
        assert!(verify_instance(&p, &g, &m, true).is_err());
    }
}
