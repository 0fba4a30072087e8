//! The [`Netlist`]: a flat circuit as interconnected devices and nets.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::error::NetlistError;
use crate::id::{DeviceId, DeviceTypeId, NetId};
use crate::types::DeviceType;

/// One pin: a (device, terminal-index) pair attached to a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pin {
    /// The device the pin belongs to.
    pub device: DeviceId,
    /// Index into the device type's terminal list.
    pub terminal: u16,
}

/// A device instance: a named occurrence of a [`DeviceType`] with one net
/// per terminal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Device {
    name: String,
    ty: DeviceTypeId,
    pins: Vec<NetId>,
}

impl Device {
    /// The instance name (unique within the netlist).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device type id.
    pub fn type_id(&self) -> DeviceTypeId {
        self.ty
    }

    /// The net attached to each terminal, in terminal order.
    pub fn pins(&self) -> &[NetId] {
        &self.pins
    }

    /// The net attached to terminal `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for the device type.
    pub fn pin(&self, i: usize) -> NetId {
        self.pins[i]
    }
}

/// A net (wire) connecting device terminals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Net {
    name: String,
    pins: Vec<Pin>,
    is_port: bool,
    is_global: bool,
}

impl Net {
    /// The net name (unique within the netlist).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All pins attached to this net.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Number of device terminals on this net (the paper's `degree(n)`).
    pub fn degree(&self) -> usize {
        self.pins.len()
    }

    /// Whether the net is an external port of the (sub)circuit.
    ///
    /// In a pattern netlist, ports are the *external nets* of §II: their
    /// images in the main circuit may have additional connections, so
    /// Phase I marks their labels corrupt from the start.
    pub fn is_port(&self) -> bool {
        self.is_port
    }

    /// Whether the net is a special global signal (e.g. `Vdd`, `GND`).
    ///
    /// Global nets are matched by name and carry a fixed label (§IV.A).
    pub fn is_global(&self) -> bool {
        self.is_global
    }
}

/// Ids of the standard CMOS transistor types registered by
/// [`Netlist::add_mos_types`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MosTypes {
    /// The N-channel MOSFET type (`nmos`).
    pub nmos: DeviceTypeId,
    /// The P-channel MOSFET type (`pmos`).
    pub pmos: DeviceTypeId,
}

/// A flat circuit netlist: device types, devices, and nets.
///
/// This is the substrate data structure of the whole reproduction. It is
/// deliberately technology-independent: a "device" may be a transistor,
/// a resistor, or a composite cell produced by extraction — anything with
/// a named type and classed terminals.
///
/// # Examples
///
/// Build the CMOS inverter of paper Fig. 7:
///
/// ```
/// use subgemini_netlist::Netlist;
///
/// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
/// let mut nl = Netlist::new("inverter");
/// let mos = nl.add_mos_types();
/// let (vdd, gnd) = (nl.net("vdd"), nl.net("gnd"));
/// let (a, y) = (nl.net("a"), nl.net("y"));
/// nl.mark_global(vdd);
/// nl.mark_global(gnd);
/// nl.mark_port(a);
/// nl.mark_port(y);
/// nl.add_device("mp", mos.pmos, &[a, vdd, y])?; // g, s, d
/// nl.add_device("mn", mos.nmos, &[a, gnd, y])?;
/// assert_eq!(nl.device_count(), 2);
/// assert_eq!(nl.net_count(), 4);
/// assert_eq!(nl.net_ref(y).degree(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    types: Vec<DeviceType>,
    type_ids: HashMap<String, DeviceTypeId>,
    devices: Vec<Device>,
    device_ids: HashMap<String, DeviceId>,
    nets: Vec<Net>,
    net_ids: HashMap<String, NetId>,
    ports: Vec<NetId>,
}

impl Netlist {
    /// Creates an empty netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The netlist (circuit) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    /// Registers a device type, or returns the existing id if an
    /// identical type with the same name is already present.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateType`] if a *different* type with
    /// the same name exists, and [`NetlistError::EmptyType`] if the type
    /// has no terminals.
    pub fn add_type(&mut self, ty: DeviceType) -> Result<DeviceTypeId, NetlistError> {
        if ty.terminal_count() == 0 {
            return Err(NetlistError::EmptyType {
                name: ty.name().to_string(),
            });
        }
        if let Some(&id) = self.type_ids.get(ty.name()) {
            if self.types[id.index()] == ty {
                return Ok(id);
            }
            return Err(NetlistError::DuplicateType {
                name: ty.name().to_string(),
            });
        }
        let id = DeviceTypeId::new(self.types.len() as u32);
        self.type_ids.insert(ty.name().to_string(), id);
        self.types.push(ty);
        Ok(id)
    }

    /// Registers (or fetches) the standard `nmos`/`pmos` transistor
    /// types.
    pub fn add_mos_types(&mut self) -> MosTypes {
        let nmos = self
            .add_type(DeviceType::mos("nmos"))
            .expect("builtin nmos type is valid");
        let pmos = self
            .add_type(DeviceType::mos("pmos"))
            .expect("builtin pmos type is valid");
        MosTypes { nmos, pmos }
    }

    /// Looks up a type id by name.
    pub fn type_id(&self, name: &str) -> Option<DeviceTypeId> {
        self.type_ids.get(name).copied()
    }

    /// The type table entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this netlist.
    pub fn device_type(&self, id: DeviceTypeId) -> &DeviceType {
        &self.types[id.index()]
    }

    /// All registered device types.
    pub fn device_types(&self) -> &[DeviceType] {
        &self.types
    }

    // ------------------------------------------------------------------
    // Nets
    // ------------------------------------------------------------------

    /// Returns the net named `name`, creating it if necessary.
    pub fn net(&mut self, name: impl AsRef<str>) -> NetId {
        let name = name.as_ref();
        if let Some(&id) = self.net_ids.get(name) {
            return id;
        }
        let id = NetId::new(self.nets.len() as u32);
        self.net_ids.insert(name.to_string(), id);
        self.nets.push(Net {
            name: name.to_string(),
            pins: Vec::new(),
            is_port: false,
            is_global: false,
        });
        id
    }

    /// Looks up an existing net by name without creating it.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_ids.get(name).copied()
    }

    /// The net record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this netlist.
    #[inline]
    pub fn net_ref(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Alias for [`Netlist::net_ref`], reads better at call sites that
    /// already hold an id.
    #[inline]
    pub fn net_by_id(&self, id: NetId) -> &Net {
        self.net_ref(id)
    }

    /// Marks a net as an external port (appends to the ordered port
    /// list; idempotent).
    pub fn mark_port(&mut self, id: NetId) {
        let net = &mut self.nets[id.index()];
        if !net.is_port {
            net.is_port = true;
            self.ports.push(id);
        }
    }

    /// Marks a net as a special global signal (`Vdd`/`GND`-like).
    pub fn mark_global(&mut self, id: NetId) {
        self.nets[id.index()].is_global = true;
    }

    /// Clears the global flag on a net (used by ablation experiments that
    /// deliberately ignore special signals).
    pub fn clear_global(&mut self, id: NetId) {
        self.nets[id.index()].is_global = false;
    }

    /// The ordered list of port nets.
    pub fn ports(&self) -> &[NetId] {
        &self.ports
    }

    /// All global (special) nets.
    pub fn global_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32)
            .map(NetId::new)
            .filter(|&n| self.nets[n.index()].is_global)
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl ExactSizeIterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId::new)
    }

    /// Reserves room for at least `additional` more devices, so a
    /// builder that knows its device count up front grows the device
    /// tables once.
    pub fn reserve_devices(&mut self, additional: usize) {
        self.devices.reserve(additional);
        self.device_ids.reserve(additional);
    }

    // ------------------------------------------------------------------
    // Devices
    // ------------------------------------------------------------------

    /// Adds a device instance of type `ty` with one net per terminal (in
    /// the type's terminal order).
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateDevice`] if the name is taken.
    /// * [`NetlistError::UnknownType`] if `ty` is not in the type table.
    /// * [`NetlistError::PinCountMismatch`] if `pins.len()` differs from
    ///   the type's terminal count.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        ty: DeviceTypeId,
        pins: &[NetId],
    ) -> Result<DeviceId, NetlistError> {
        let slot = match self.device_ids.entry(name.into()) {
            Entry::Occupied(taken) => {
                return Err(NetlistError::DuplicateDevice {
                    name: taken.key().clone(),
                })
            }
            Entry::Vacant(slot) => slot,
        };
        let Some(tyref) = self.types.get(ty.index()) else {
            return Err(NetlistError::UnknownType {
                name: format!("{ty}"),
            });
        };
        if pins.len() != tyref.terminal_count() {
            return Err(NetlistError::PinCountMismatch {
                device: slot.into_key(),
                expected: tyref.terminal_count(),
                got: pins.len(),
            });
        }
        for &n in pins {
            if n.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet {
                    name: format!("{n}"),
                });
            }
        }
        let id = DeviceId::new(self.devices.len() as u32);
        for (i, &n) in pins.iter().enumerate() {
            self.nets[n.index()].pins.push(Pin {
                device: id,
                terminal: i as u16,
            });
        }
        let name = slot.key().clone();
        slot.insert(id);
        self.devices.push(Device {
            name,
            ty,
            pins: pins.to_vec(),
        });
        Ok(id)
    }

    /// Looks up a device by name.
    pub fn find_device(&self, name: &str) -> Option<DeviceId> {
        self.device_ids.get(name).copied()
    }

    /// The device record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this netlist.
    #[inline]
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// The device type of device `id`.
    #[inline]
    pub fn device_type_of(&self, id: DeviceId) -> &DeviceType {
        &self.types[self.devices[id.index()].ty.index()]
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Iterates over all device ids.
    pub fn device_ids(&self) -> impl ExactSizeIterator<Item = DeviceId> {
        (0..self.devices.len() as u32).map(DeviceId::new)
    }

    /// Total number of pins (graph edges).
    pub fn pin_count(&self) -> usize {
        self.devices.iter().map(|d| d.pins.len()).sum()
    }

    /// Carves the induced subcircuit over `devices` out as a standalone
    /// pattern netlist: nets whose every pin lies inside the selection
    /// become internal, nets with outside connections become ports, and
    /// global nets stay global. The result is directly usable as a
    /// SubGemini pattern — by construction the original circuit
    /// contains at least one instance of it.
    ///
    /// Devices keep their names; duplicate selections are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any id was not issued by this netlist.
    ///
    /// # Examples
    ///
    /// ```
    /// use subgemini_netlist::Netlist;
    ///
    /// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
    /// let mut nl = Netlist::new("chip");
    /// let mos = nl.add_mos_types();
    /// let (a, m, b) = (nl.net("a"), nl.net("m"), nl.net("b"));
    /// let d0 = nl.add_device("t0", mos.nmos, &[a, a, m])?;
    /// let d1 = nl.add_device("t1", mos.nmos, &[b, m, b])?;
    /// nl.add_device("t2", mos.nmos, &[m, b, a])?; // outside the carve
    /// let pat = nl.subnetlist("pair", &[d0, d1]);
    /// assert_eq!(pat.device_count(), 2);
    /// // `m` has an outside pin (t2's gate), so it is a port.
    /// let m_p = pat.find_net("m").unwrap();
    /// assert!(pat.net_ref(m_p).is_port());
    /// # Ok(())
    /// # }
    /// ```
    pub fn subnetlist(&self, name: &str, devices: &[DeviceId]) -> Netlist {
        let mut selected = vec![false; self.devices.len()];
        for &d in devices {
            selected[d.index()] = true;
        }
        let mut out = Netlist::new(name);
        for ty in &self.types {
            out.add_type(ty.clone()).expect("types are valid");
        }
        // First pass: create nets with the right flags.
        let mut net_map: Vec<Option<NetId>> = vec![None; self.nets.len()];
        for (ni, net) in self.nets.iter().enumerate() {
            let touched = net.pins.iter().any(|p| selected[p.device.index()]);
            if !touched {
                continue;
            }
            let id = out.net(&net.name);
            if net.is_global {
                out.mark_global(id);
            } else {
                let fully_inside = net.pins.iter().all(|p| selected[p.device.index()]);
                if !fully_inside || net.is_port {
                    out.mark_port(id);
                }
            }
            net_map[ni] = Some(id);
        }
        for (di, dev) in self.devices.iter().enumerate() {
            if !selected[di] {
                continue;
            }
            let pins: Vec<NetId> = dev
                .pins
                .iter()
                .map(|&n| net_map[n.index()].expect("selected pins were mapped"))
                .collect();
            out.add_device(dev.name.clone(), dev.ty, &pins)
                .expect("carving preserves validity");
        }
        out
    }

    /// Returns a copy with all isolated (degree-0) nets removed and net
    /// ids renumbered densely.
    ///
    /// Isolated nets carry no structure: matchers reject them in
    /// patterns and text formats like SPICE cannot represent them, so
    /// generators and parsers use this to normalize.
    ///
    /// # Examples
    ///
    /// ```
    /// use subgemini_netlist::Netlist;
    /// let mut nl = Netlist::new("x");
    /// nl.net("floating");
    /// let compacted = nl.compact();
    /// assert_eq!(compacted.net_count(), 0);
    /// ```
    pub fn compact(&self) -> Netlist {
        let mut out = Netlist::new(self.name.clone());
        for ty in &self.types {
            out.add_type(ty.clone()).expect("types are valid");
        }
        for n in self.net_ids() {
            let net = self.net_ref(n);
            if net.degree() == 0 {
                continue;
            }
            let id = out.net(net.name());
            if net.is_global() {
                out.mark_global(id);
            }
        }
        for &p in &self.ports {
            if self.net_ref(p).degree() > 0 {
                let id = out.net(self.net_ref(p).name());
                out.mark_port(id);
            }
        }
        for d in self.device_ids() {
            let dev = self.device(d);
            let pins: Vec<NetId> = dev
                .pins()
                .iter()
                .map(|&n| out.net(self.net_ref(n).name()))
                .collect();
            out.add_device(dev.name().to_string(), dev.type_id(), &pins)
                .expect("copying preserves validity");
        }
        out
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks internal consistency: every device pin is mirrored by a net
    /// pin and vice versa, and pin counts match terminal counts.
    ///
    /// Construction through the public API maintains these invariants;
    /// this is a guard for code that assembles netlists programmatically
    /// (parsers, generators, extraction).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Inconsistent`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (di, dev) in self.devices.iter().enumerate() {
            let ty = &self.types[dev.ty.index()];
            if dev.pins.len() != ty.terminal_count() {
                return Err(NetlistError::Inconsistent {
                    detail: format!(
                        "device `{}` has {} pins, type `{}` has {} terminals",
                        dev.name,
                        dev.pins.len(),
                        ty.name(),
                        ty.terminal_count()
                    ),
                });
            }
            for (ti, &net) in dev.pins.iter().enumerate() {
                let Some(netrec) = self.nets.get(net.index()) else {
                    return Err(NetlistError::Inconsistent {
                        detail: format!("device `{}` pin {ti} references missing {net}", dev.name),
                    });
                };
                let back = Pin {
                    device: DeviceId::new(di as u32),
                    terminal: ti as u16,
                };
                if !netrec.pins.contains(&back) {
                    return Err(NetlistError::Inconsistent {
                        detail: format!(
                            "net `{}` lacks back-reference to device `{}` terminal {ti}",
                            netrec.name, dev.name
                        ),
                    });
                }
            }
        }
        for net in &self.nets {
            for pin in &net.pins {
                let Some(dev) = self.devices.get(pin.device.index()) else {
                    return Err(NetlistError::Inconsistent {
                        detail: format!("net `{}` references missing {}", net.name, pin.device),
                    });
                };
                if dev.pins.get(pin.terminal as usize).copied()
                    != self.net_ids.get(&net.name).copied()
                {
                    return Err(NetlistError::Inconsistent {
                        detail: format!(
                            "net `{}` pin back-reference mismatch on device `{}`",
                            net.name, dev.name
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist `{}`: {} devices, {} nets, {} ports",
            self.name,
            self.devices.len(),
            self.nets.len(),
            self.ports.len()
        )?;
        for dev in &self.devices {
            let ty = &self.types[dev.ty.index()];
            write!(f, "  {} {}(", dev.name, ty.name())?;
            for (i, &n) in dev.pins.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}={}", ty.terminal(i).name(), self.nets[n.index()].name)?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter() -> (Netlist, MosTypes) {
        let mut nl = Netlist::new("inv");
        let mos = nl.add_mos_types();
        let (vdd, gnd) = (nl.net("vdd"), nl.net("gnd"));
        let (a, y) = (nl.net("a"), nl.net("y"));
        nl.mark_global(vdd);
        nl.mark_global(gnd);
        nl.mark_port(a);
        nl.mark_port(y);
        nl.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
        nl.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        (nl, mos)
    }

    #[test]
    fn build_and_query_inverter() {
        let (nl, _) = inverter();
        assert_eq!(nl.device_count(), 2);
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.pin_count(), 6);
        let y = nl.find_net("y").unwrap();
        assert_eq!(nl.net_ref(y).degree(), 2);
        assert!(nl.net_ref(nl.find_net("vdd").unwrap()).is_global());
        assert!(nl.net_ref(y).is_port());
        assert_eq!(nl.ports().len(), 2);
        assert_eq!(nl.global_nets().count(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn net_get_or_create_is_idempotent() {
        let mut nl = Netlist::new("x");
        let a1 = nl.net("a");
        let a2 = nl.net("a");
        assert_eq!(a1, a2);
        assert_eq!(nl.net_count(), 1);
        assert_eq!(nl.find_net("b"), None);
    }

    #[test]
    fn duplicate_device_rejected() {
        let (mut nl, mos) = inverter();
        let a = nl.net("a");
        let err = nl.add_device("mp", mos.nmos, &[a, a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateDevice { .. }));
    }

    #[test]
    fn pin_count_mismatch_rejected() {
        let (mut nl, mos) = inverter();
        let a = nl.net("a");
        let err = nl.add_device("m9", mos.nmos, &[a]).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::PinCountMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn unknown_net_rejected() {
        let (mut nl, mos) = inverter();
        let bogus = NetId::new(999);
        let a = nl.net("a");
        let err = nl.add_device("m9", mos.nmos, &[a, a, bogus]).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNet { .. }));
    }

    #[test]
    fn add_type_idempotent_for_identical_types() {
        let mut nl = Netlist::new("x");
        let t1 = nl.add_type(DeviceType::mos("nmos")).unwrap();
        let t2 = nl.add_type(DeviceType::mos("nmos")).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(nl.device_types().len(), 1);
    }

    #[test]
    fn add_type_rejects_conflicting_redefinition() {
        let mut nl = Netlist::new("x");
        nl.add_type(DeviceType::mos("q")).unwrap();
        let err = nl.add_type(DeviceType::two_terminal("q")).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateType { .. }));
    }

    #[test]
    fn mark_port_is_idempotent_and_ordered() {
        let mut nl = Netlist::new("x");
        let a = nl.net("a");
        let b = nl.net("b");
        nl.mark_port(b);
        nl.mark_port(a);
        nl.mark_port(b);
        assert_eq!(nl.ports(), &[b, a]);
    }

    #[test]
    fn net_pins_record_terminals() {
        let (nl, _) = inverter();
        let y = nl.find_net("y").unwrap();
        let pins = nl.net_ref(y).pins();
        assert_eq!(pins.len(), 2);
        // Both connections are through the `d` terminal (index 2).
        assert!(pins.iter().all(|p| p.terminal == 2));
    }

    #[test]
    fn display_mentions_every_device() {
        let (nl, _) = inverter();
        let s = nl.to_string();
        assert!(s.contains("mp") && s.contains("mn") && s.contains("pmos"));
        assert!(s.contains("g=a"));
    }

    #[test]
    fn clear_global_unsets_flag() {
        let (mut nl, _) = inverter();
        let vdd = nl.find_net("vdd").unwrap();
        nl.clear_global(vdd);
        assert!(!nl.net_ref(vdd).is_global());
        assert_eq!(nl.global_nets().count(), 1);
    }

    #[test]
    fn subnetlist_carves_with_port_detection() {
        let mut nl = Netlist::new("chip");
        let mos = nl.add_mos_types();
        let (a, m, b, vdd) = (nl.net("a"), nl.net("m"), nl.net("b"), nl.net("vdd"));
        nl.mark_global(vdd);
        let d0 = nl.add_device("t0", mos.pmos, &[a, vdd, m]).unwrap();
        let d1 = nl.add_device("t1", mos.nmos, &[m, a, b]).unwrap();
        nl.add_device("t2", mos.nmos, &[b, m, a]).unwrap();
        let pat = nl.subnetlist("carved", &[d0, d1]);
        pat.validate().unwrap();
        assert_eq!(pat.device_count(), 2);
        // vdd stays global, not a port.
        let vdd_p = pat.find_net("vdd").unwrap();
        assert!(pat.net_ref(vdd_p).is_global());
        assert!(!pat.net_ref(vdd_p).is_port());
        // a, m, b all have outside pins (t2) -> ports.
        for name in ["a", "m", "b"] {
            let n = pat.find_net(name).unwrap();
            assert!(pat.net_ref(n).is_port(), "{name}");
        }
    }

    #[test]
    fn subnetlist_internal_nets_stay_internal() {
        let mut nl = Netlist::new("chip");
        let mos = nl.add_mos_types();
        let (a, m, b) = (nl.net("a"), nl.net("m"), nl.net("b"));
        let d0 = nl.add_device("t0", mos.nmos, &[a, a, m]).unwrap();
        let d1 = nl.add_device("t1", mos.nmos, &[b, m, b]).unwrap();
        // Whole circuit carved: everything internal.
        let pat = nl.subnetlist("all", &[d0, d1]);
        assert_eq!(pat.ports().len(), 0);
        let m_p = pat.find_net("m").unwrap();
        assert!(!pat.net_ref(m_p).is_port());
    }

    #[test]
    fn subnetlist_duplicate_selection_ignored() {
        let mut nl = Netlist::new("chip");
        let mos = nl.add_mos_types();
        let (a, b) = (nl.net("a"), nl.net("b"));
        let d0 = nl.add_device("t0", mos.nmos, &[a, b, b]).unwrap();
        let pat = nl.subnetlist("one", &[d0, d0, d0]);
        assert_eq!(pat.device_count(), 1);
    }

    #[test]
    fn validate_detects_tampering() {
        // Build a netlist and then corrupt it through a private-field
        // clone to ensure validate() actually checks cross-references.
        let (nl, _) = inverter();
        let mut bad = nl.clone();
        bad.nets[0].pins.clear(); // drop back-references on net 0
        assert!(bad.validate().is_err());
    }
}
