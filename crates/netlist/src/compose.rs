//! Hierarchical composition: instantiating one netlist inside another.
//!
//! Workload generators and the SPICE flattener build large circuits by
//! stamping *cells* (small netlists with ports) into a parent. Port nets
//! bind to caller-supplied nets, global nets unify by name, and internal
//! nets/devices get instance-prefixed fresh names.

use crate::error::NetlistError;
use crate::id::{DeviceId, NetId};
use crate::netlist::Netlist;

/// The most devices a front end's flattening may create with
/// [`instantiate`] during one elaboration, devices copied out of
/// memoized cells included. Flattening multiplies (a deck of 40 cells,
/// each instantiating the previous one twice, flattens to 2^40
/// devices), so the SPICE and Verilog elaborators both stop at this
/// bound on the work and memory a deck of any size can demand. It is a
/// constant, not an option: it sits far above every deck in this
/// repository and no caller needs another value.
pub const MAX_INSTANTIATED_DEVICES: u64 = 1 << 18;

/// The most name bytes a front end's flattening may have [`instantiate`]
/// mint during one elaboration ([`minted_name_bytes`] per call, summed).
/// Instance paths grow with depth, so a chain of `d` cells each
/// instantiating the next mints about `1.5 d²` bytes per leaf device
/// (`x1.x1.….m1`): flattening is quadratic in the depth however few
/// devices it makes. The SPICE and Verilog elaborators both stop at this
/// bound, which such a chain reaches about 26,750 levels deep with one
/// leaf device and 18,900 with two. Like [`MAX_INSTANTIATED_DEVICES`] it
/// is a constant, far above every deck in this repository.
pub const MAX_INSTANTIATED_NAME_BYTES: u64 = 1 << 30;

/// Mapping produced by [`instantiate`]: where each cell entity landed in
/// the parent netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstantiateReport {
    /// For each cell device (by index), the parent device id.
    pub devices: Vec<DeviceId>,
    /// For each cell net (by index), the parent net id.
    pub nets: Vec<NetId>,
}

/// Stamps `cell` into `target` as instance `prefix`, binding the cell's
/// ports (in order) to `bindings`.
///
/// * Cell *port* nets map to the corresponding entry of `bindings`.
/// * Cell *global* nets map to a same-named net in `target`, created and
///   marked global if absent (this is how every stamped inverter shares
///   one `vdd`).
/// * All other cell nets become fresh `"{prefix}.{name}"` nets.
/// * Devices become `"{prefix}.{name}"`.
///
/// # Errors
///
/// * [`NetlistError::PinCountMismatch`] if `bindings.len()` differs from
///   the cell's port count (reported with the instance name).
/// * Propagates type/name conflicts from the underlying builders.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::{instantiate, Netlist};
///
/// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
/// let mut inv = Netlist::new("inv");
/// let mos = inv.add_mos_types();
/// let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
/// inv.mark_port(a);
/// inv.mark_port(y);
/// inv.mark_global(vdd);
/// inv.mark_global(gnd);
/// inv.add_device("mp", mos.pmos, &[a, vdd, y])?;
/// inv.add_device("mn", mos.nmos, &[a, gnd, y])?;
///
/// let mut chip = Netlist::new("chip");
/// let (i, o) = (chip.net("in"), chip.net("out"));
/// let report = instantiate(&mut chip, &inv, "u1", &[i, o])?;
/// assert_eq!(report.devices.len(), 2);
/// assert_eq!(chip.device_count(), 2);
/// assert!(chip.find_net("vdd").is_some());
/// # Ok(())
/// # }
/// ```
pub fn instantiate(
    target: &mut Netlist,
    cell: &Netlist,
    prefix: &str,
    bindings: &[NetId],
) -> Result<InstantiateReport, NetlistError> {
    if bindings.len() != cell.ports().len() {
        return Err(NetlistError::PinCountMismatch {
            device: prefix.to_string(),
            expected: cell.ports().len(),
            got: bindings.len(),
        });
    }
    // Map cell nets into the target: ports to their bindings, globals
    // by name, the rest to fresh prefixed nets, created in cell order.
    let mut nets = vec![NetId::new(0); cell.net_count()];
    for (&p, &bound) in cell.ports().iter().zip(bindings) {
        nets[p.index()] = bound;
    }
    for n in cell.net_ids() {
        let net = cell.net_ref(n);
        if net.is_port() {
            continue;
        }
        nets[n.index()] = if net.is_global() {
            let g = target.net(net.name());
            target.mark_global(g);
            g
        } else {
            target.intern_net(&[prefix, ".", net.name()])
        };
    }
    // Copy devices, registering each cell type on its first use.
    let mut types = vec![None; cell.device_types().len()];
    let mut devices = Vec::with_capacity(cell.device_count());
    for d in cell.device_ids() {
        let dev = cell.device(d);
        let ty = match types[dev.type_id().index()] {
            Some(ty) => ty,
            None => {
                let cell_ty = cell.device_type(dev.type_id());
                let ty = match target.known_type(cell_ty)? {
                    Some(ty) => ty,
                    None => target.push_type(cell_ty.clone()),
                };
                *types[dev.type_id().index()].insert(ty)
            }
        };
        let pins = dev.pins().iter().map(|&n| nets[n.index()]);
        devices.push(target.push_device(&[prefix, ".", dev.name()], ty, pins)?);
    }
    Ok(InstantiateReport { devices, nets })
}

/// The bytes of new names [`instantiate`] writes when it stamps `cell`
/// as instance `prefix`: `"{prefix}.{name}"` for every device and for
/// every net that is neither a port nor global. The flatteners add it
/// up against [`MAX_INSTANTIATED_NAME_BYTES`] before they instantiate.
pub fn minted_name_bytes(cell: &Netlist, prefix: &str) -> u64 {
    let devices = cell.device_ids().map(|d| cell.device(d).name());
    let nets = cell
        .net_ids()
        .map(|n| cell.net_ref(n))
        .filter(|net| !net.is_port() && !net.is_global())
        .map(|net| net.name());
    let minted = devices
        .chain(nets)
        .map(|name| prefix.len() + 1 + name.len());
    minted.map(|len| len as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter_cell() -> Netlist {
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

    #[test]
    fn two_instances_share_globals_but_not_internals() {
        let inv = inverter_cell();
        let mut chip = Netlist::new("chip");
        let (a, b, c) = (chip.net("a"), chip.net("b"), chip.net("c"));
        instantiate(&mut chip, &inv, "u1", &[a, b]).unwrap();
        instantiate(&mut chip, &inv, "u2", &[b, c]).unwrap();
        assert_eq!(chip.device_count(), 4);
        // a, b, c, vdd, gnd — globals unified.
        assert_eq!(chip.net_count(), 5);
        let vdd = chip.find_net("vdd").unwrap();
        assert!(chip.net_ref(vdd).is_global());
        assert_eq!(chip.net_ref(vdd).degree(), 2);
        chip.validate().unwrap();
    }

    #[test]
    fn internal_nets_are_prefixed() {
        let mut cell = inverter_cell();
        // Add an internal net to the cell.
        let mos = cell.add_mos_types();
        let (a, mid, gnd) = (cell.net("a"), cell.net("mid"), cell.net("gnd"));
        cell.add_device("mx", mos.nmos, &[a, mid, gnd]).unwrap();

        let mut chip = Netlist::new("chip");
        let (i, o) = (chip.net("in"), chip.net("out"));
        instantiate(&mut chip, &cell, "u7", &[i, o]).unwrap();
        assert!(chip.find_net("u7.mid").is_some());
        assert!(chip.find_net("mid").is_none());
        assert!(chip.find_device("u7.mx").is_some());
    }

    #[test]
    fn binding_count_checked() {
        let inv = inverter_cell();
        let mut chip = Netlist::new("chip");
        let a = chip.net("a");
        let err = instantiate(&mut chip, &inv, "u1", &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::PinCountMismatch { .. }));
    }

    #[test]
    fn report_maps_cell_entities() {
        let inv = inverter_cell();
        let mut chip = Netlist::new("chip");
        let (a, b) = (chip.net("a"), chip.net("b"));
        let rep = instantiate(&mut chip, &inv, "u1", &[a, b]).unwrap();
        // Cell net 0 is port `a` -> bound to chip `a`.
        assert_eq!(rep.nets[0], a);
        // Devices map in declaration order.
        assert_eq!(chip.device(rep.devices[0]).name(), "u1.mp");
        assert_eq!(chip.device_type_of(rep.devices[1]).name(), "nmos");
    }

    #[test]
    fn minted_name_bytes_counts_what_instantiate_writes() {
        let mut cell = inverter_cell();
        let mos = cell.add_mos_types();
        let (a, mid, gnd) = (cell.net("a"), cell.net("mid"), cell.net("gnd"));
        cell.add_device("mx", mos.nmos, &[a, mid, gnd]).unwrap();
        let mut chip = Netlist::new("chip");
        let (i, o) = (chip.net("in"), chip.net("out"));
        let names = |nl: &Netlist| -> usize {
            let devices = nl.device_ids().map(|d| nl.device(d).name().len());
            devices
                .chain(nl.net_ids().map(|n| nl.net_ref(n).name().len()))
                .sum()
        };
        let before = names(&chip) + "vdd".len() + "gnd".len();
        instantiate(&mut chip, &cell, "u7", &[i, o]).unwrap();
        // `u7.mp`, `u7.mn`, `u7.mx` and `u7.mid`; ports and rails mint
        // nothing.
        assert_eq!(minted_name_bytes(&cell, "u7"), 5 + 5 + 5 + 6);
        assert_eq!(names(&chip) - before, 21);
    }

    #[test]
    fn duplicate_instance_prefix_rejected() {
        let inv = inverter_cell();
        let mut chip = Netlist::new("chip");
        let (a, b) = (chip.net("a"), chip.net("b"));
        instantiate(&mut chip, &inv, "u1", &[a, b]).unwrap();
        let err = instantiate(&mut chip, &inv, "u1", &[a, b]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateDevice { .. }));
    }
}
