//! Parallel-device merging: collapsing transistor fingers.
//!
//! Layout generators routinely split a wide transistor into several
//! parallel *fingers* — same type, same nets on every terminal (up to
//! terminal-class symmetry). A pattern drawn with one transistor per
//! position would otherwise miss such instances, and the paper's Fig. 5
//! shows exactly this shape as the canonical ambiguity. Merging
//! parallel devices before matching is the standard normalization: it
//! removes the ambiguity *and* makes fingered layouts match unfingered
//! patterns.

use crate::id::{DeviceId, NetId};
use crate::netlist::Netlist;

/// Report of a [`merge_parallel`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Devices in the input.
    pub devices_before: usize,
    /// Devices in the output.
    pub devices_after: usize,
    /// Groups that actually merged (≥2 members), as
    /// `(surviving name, absorbed names)`.
    pub merged: Vec<(String, Vec<String>)>,
}

impl MergeReport {
    /// Number of devices removed by merging.
    pub fn removed(&self) -> usize {
        self.devices_before - self.devices_after
    }
}

/// Returns a copy of `netlist` with parallel devices merged: devices of
/// the same type whose pins connect to the same nets through the same
/// terminal classes (in any order within a class) collapse into the
/// first of their group.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::{merge_parallel, Netlist};
///
/// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
/// let mut nl = Netlist::new("fingered");
/// let mos = nl.add_mos_types();
/// let (g, s, d) = (nl.net("g"), nl.net("s"), nl.net("d"));
/// nl.add_device("m1a", mos.nmos, &[g, s, d])?;
/// nl.add_device("m1b", mos.nmos, &[g, d, s])?; // s/d swapped finger
/// nl.add_device("m2", mos.nmos, &[s, g, d])?; // different gate: kept
/// let (merged, report) = merge_parallel(&nl);
/// assert_eq!(merged.device_count(), 2);
/// assert_eq!(report.removed(), 1);
/// # Ok(())
/// # }
/// ```
pub fn merge_parallel(netlist: &Netlist) -> (Netlist, MergeReport) {
    // Grouping key: the type plus the class-weighted pins, sorted. The
    // keys lie back to back in one array, `key_end` cutting it.
    let mut keys: Vec<(u64, NetId)> = Vec::with_capacity(netlist.pin_count());
    let mut key_end = Vec::with_capacity(netlist.device_count());
    for d in netlist.device_ids() {
        let ty = netlist.device_type_of(d);
        let start = keys.len();
        let pins = netlist.device(d).pins().iter().enumerate();
        keys.extend(pins.map(|(i, &n)| (ty.class_multiplier(i), n)));
        keys[start..].sort_unstable();
        key_end.push(keys.len());
    }
    let key = |d: DeviceId| {
        let start = d.index().checked_sub(1).map_or(0, |p| key_end[p]);
        (
            netlist.device(d).type_id(),
            &keys[start..key_end[d.index()]],
        )
    };
    // Groups are runs of equal keys; the first member, the smallest id,
    // survives.
    let mut order: Vec<DeviceId> = netlist.device_ids().collect();
    order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)).then(a.cmp(&b)));
    let mut survives = vec![true; netlist.device_count()];
    let mut report = MergeReport {
        devices_before: netlist.device_count(),
        ..MergeReport::default()
    };
    let name = |d: DeviceId| netlist.device(d).name().to_string();
    for group in order.chunk_by(|&a, &b| key(a) == key(b)) {
        let (keep, absorbed) = (group[0], &group[1..]);
        if absorbed.is_empty() {
            continue;
        }
        let mut absorbed: Vec<String> = absorbed
            .iter()
            .map(|&m| {
                survives[m.index()] = false;
                name(m)
            })
            .collect();
        absorbed.sort();
        report.merged.push((name(keep), absorbed));
    }
    report.merged.sort();
    // Rebuild with survivors only, in original order; nets are numbered
    // by first appearance over their pins and keep their flags.
    let mut out = Netlist::new(netlist.name());
    for ty in netlist.device_types() {
        out.add_type(ty.clone()).expect("types are valid");
    }
    let mut net_map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    let mut pins = Vec::new();
    for d in netlist.device_ids().filter(|d| survives[d.index()]) {
        let dev = netlist.device(d);
        pins.clear();
        for &n in dev.pins() {
            pins.push(*net_map[n.index()].get_or_insert_with(|| {
                let net = netlist.net_ref(n);
                let id = out.net(net.name());
                if net.is_global() {
                    out.mark_global(id);
                }
                id
            }));
        }
        out.add_device(dev.name(), dev.type_id(), &pins)
            .expect("copying preserves validity");
    }
    // Carry port marks for surviving nets.
    for &p in netlist.ports() {
        if let Some(id) = net_map[p.index()] {
            out.mark_port(id);
        }
    }
    report.devices_after = out.device_count();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_fingers_across_sd_swap() {
        let mut nl = Netlist::new("x");
        let mos = nl.add_mos_types();
        let (g, s, d) = (nl.net("g"), nl.net("s"), nl.net("d"));
        for (i, pins) in [[g, s, d], [g, d, s], [g, s, d]].iter().enumerate() {
            nl.add_device(format!("f{i}"), mos.nmos, pins).unwrap();
        }
        let (merged, report) = merge_parallel(&nl);
        assert_eq!(merged.device_count(), 1);
        assert_eq!(report.removed(), 2);
        assert_eq!(report.merged.len(), 1);
        assert_eq!(report.merged[0].0, "f0");
        assert_eq!(report.merged[0].1, vec!["f1", "f2"]);
        merged.validate().unwrap();
    }

    #[test]
    fn distinct_gates_do_not_merge() {
        let mut nl = Netlist::new("x");
        let mos = nl.add_mos_types();
        let (g1, g2, s, d) = (nl.net("g1"), nl.net("g2"), nl.net("s"), nl.net("d"));
        nl.add_device("a", mos.nmos, &[g1, s, d]).unwrap();
        nl.add_device("b", mos.nmos, &[g2, s, d]).unwrap();
        let (merged, report) = merge_parallel(&nl);
        assert_eq!(merged.device_count(), 2);
        assert!(report.merged.is_empty());
    }

    #[test]
    fn gate_vs_sd_position_not_confused() {
        // Same three nets, but one device has the gate on `s`: the
        // class-weighted key must keep them apart.
        let mut nl = Netlist::new("x");
        let mos = nl.add_mos_types();
        let (g, s, d) = (nl.net("g"), nl.net("s"), nl.net("d"));
        nl.add_device("a", mos.nmos, &[g, s, d]).unwrap();
        nl.add_device("b", mos.nmos, &[s, g, d]).unwrap();
        let (merged, _) = merge_parallel(&nl);
        assert_eq!(merged.device_count(), 2);
    }

    #[test]
    fn different_types_do_not_merge() {
        let mut nl = Netlist::new("x");
        let mos = nl.add_mos_types();
        let (g, s, d) = (nl.net("g"), nl.net("s"), nl.net("d"));
        nl.add_device("a", mos.nmos, &[g, s, d]).unwrap();
        nl.add_device("b", mos.pmos, &[g, s, d]).unwrap();
        let (merged, _) = merge_parallel(&nl);
        assert_eq!(merged.device_count(), 2);
    }

    #[test]
    fn ports_and_globals_survive() {
        let mut nl = Netlist::new("x");
        let mos = nl.add_mos_types();
        let (g, s, d) = (nl.net("g"), nl.net("vdd"), nl.net("d"));
        nl.mark_global(s);
        nl.mark_port(g);
        nl.mark_port(d);
        nl.add_device("a", mos.pmos, &[g, s, d]).unwrap();
        nl.add_device("b", mos.pmos, &[g, s, d]).unwrap();
        let (merged, _) = merge_parallel(&nl);
        let vdd = merged.find_net("vdd").unwrap();
        assert!(merged.net_ref(vdd).is_global());
        assert_eq!(merged.ports().len(), 2);
    }

    #[test]
    fn idempotent() {
        let mut nl = Netlist::new("x");
        let mos = nl.add_mos_types();
        let (g, s, d) = (nl.net("g"), nl.net("s"), nl.net("d"));
        nl.add_device("a", mos.nmos, &[g, s, d]).unwrap();
        nl.add_device("b", mos.nmos, &[g, d, s]).unwrap();
        let (m1, _) = merge_parallel(&nl);
        let (m2, r2) = merge_parallel(&m1);
        assert_eq!(m1.device_count(), m2.device_count());
        assert_eq!(r2.removed(), 0);
    }
}
