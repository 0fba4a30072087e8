//! The [`Netlist`]: a flat circuit as interconnected devices and nets.
//!
//! Layout (DESIGN §3n). Every device and net name lives once, in one
//! byte arena, addressed by `u32` spans. Device pins are one flat
//! [`NetId`] array cut by per-device end offsets. Port and global flags
//! are one byte per net. Lookups by name are [`IdMap`]s holding ids
//! only, confirmed against the arena. Each net's pins are a run of one
//! flat [`Pin`] array in (device, terminal) order: the transpose of the
//! device pins, built on the first read of a net's pins and kept
//! current from then on. Building a netlist allocates only as these
//! arrays grow, and a clone copies each array once.

use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

use crate::error::NetlistError;
use crate::id::{DeviceId, DeviceTypeId, NetId};
use crate::idmap::{IdMap, VACANT};
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
/// per terminal. A view into its [`Netlist`] ([`Netlist::device`]).
#[derive(Clone, Copy)]
pub struct Device<'a> {
    netlist: &'a Netlist,
    index: usize,
    ty: DeviceTypeId,
}

impl<'a> Device<'a> {
    /// The instance name (unique within the netlist).
    pub fn name(&self) -> &'a str {
        self.netlist.name_at(self.netlist.dev_name[self.index])
    }

    /// The device type id.
    pub fn type_id(&self) -> DeviceTypeId {
        self.ty
    }

    /// The net attached to each terminal, in terminal order.
    pub fn pins(&self) -> &'a [NetId] {
        self.netlist.device_pins(self.index)
    }

    /// The net attached to terminal `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for the device type.
    pub fn pin(&self, i: usize) -> NetId {
        self.pins()[i]
    }
}

impl fmt::Debug for Device<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.name())
            .field("ty", &self.ty)
            .field("pins", &self.pins())
            .finish()
    }
}

/// A net (wire) connecting device terminals. A view into its
/// [`Netlist`] ([`Netlist::net_ref`]).
#[derive(Clone, Copy)]
pub struct Net<'a> {
    netlist: &'a Netlist,
    index: usize,
}

impl<'a> Net<'a> {
    /// The net name (unique within the netlist).
    pub fn name(&self) -> &'a str {
        self.netlist.name_at(self.netlist.net_name[self.index])
    }

    /// All pins attached to this net, in (device, terminal) order.
    pub fn pins(&self) -> &'a [Pin] {
        self.netlist.net_pins().pins(self.index)
    }

    /// Number of device terminals on this net (the paper's `degree(n)`).
    pub fn degree(&self) -> usize {
        self.netlist.net_pins().runs[self.index].len as usize
    }

    /// Whether the net is an external port of the (sub)circuit.
    ///
    /// In a pattern netlist, ports are the *external nets* of §II: their
    /// images in the main circuit may have additional connections, so
    /// Phase I marks their labels corrupt from the start.
    pub fn is_port(&self) -> bool {
        self.netlist.net_flags[self.index] & PORT != 0
    }

    /// Whether the net is a special global signal (e.g. `Vdd`, `GND`).
    ///
    /// Global nets are matched by name and carry a fixed label (§IV.A).
    pub fn is_global(&self) -> bool {
        self.netlist.net_flags[self.index] & GLOBAL != 0
    }
}

impl fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name())
            .field("pins", &self.pins())
            .field("is_port", &self.is_port())
            .field("is_global", &self.is_global())
            .finish()
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

/// Where a name sits in the arena: `names[start..start + len]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

/// `net_flags` bits.
const PORT: u8 = 1;
const GLOBAL: u8 = 2;

/// Every net's pins: the transpose of the device pins, one run per net.
#[derive(Clone, Debug, Default)]
struct NetPins {
    runs: Vec<Run>,
    /// The runs back to back, each with its spare room; a run that
    /// outgrew its room left its old place behind.
    pins: Vec<Pin>,
}

/// A net's pins in [`NetPins::pins`]: `len` of them from `start`, in
/// room for `cap`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

impl NetPins {
    /// Transposes `netlist`'s device pins: each run exactly as long as
    /// its net's degree, in (device, terminal) order.
    fn transpose(netlist: &Netlist) -> NetPins {
        let mut runs = vec![Run::default(); netlist.net_count()];
        for &n in &netlist.dev_pins {
            runs[n.index()].cap += 1;
        }
        let mut start = 0;
        for run in &mut runs {
            run.start = start;
            start += run.cap;
        }
        let mut pins = vec![
            Pin {
                device: DeviceId::new(0),
                terminal: 0,
            };
            netlist.dev_pins.len()
        ];
        for d in 0..netlist.device_count() {
            for (terminal, &n) in netlist.device_pins(d).iter().enumerate() {
                let run = &mut runs[n.index()];
                pins[(run.start + run.len) as usize] = Pin {
                    device: DeviceId::new(d as u32),
                    terminal: terminal as u16,
                };
                run.len += 1;
            }
        }
        NetPins { runs, pins }
    }

    /// Net `i`'s pins.
    fn pins(&self, i: usize) -> &[Pin] {
        let run = self.runs[i];
        &self.pins[run.start as usize..(run.start + run.len) as usize]
    }

    /// Appends `pin` to `net`'s run, moving the run to the end with
    /// twice the room when it is full.
    fn push(&mut self, net: NetId, pin: Pin) {
        let run = &mut self.runs[net.index()];
        if run.len == run.cap {
            let (old, end) = (run.start as usize, self.pins.len());
            // At least four pins' room: most nets have no more.
            let cap = (run.cap * 2).max(4);
            self.pins.extend_from_within(old..old + run.len as usize);
            self.pins.resize(end + cap as usize, pin);
            run.start = u32::try_from(end).expect("a netlist holds at most 2^32 net pins");
            run.cap = cap;
        }
        self.pins[(run.start + run.len) as usize] = pin;
        run.len += 1;
    }
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
    /// Every device and net name, back to back. Names of devices and
    /// nets that [`Netlist::collapse`] dropped stay until the netlist
    /// does.
    names: String,
    types: Vec<DeviceType>,
    type_index: IdMap,
    // Devices, by id.
    dev_name: Vec<Span>,
    dev_type: Vec<DeviceTypeId>,
    /// Device `d`'s nets are `dev_pins[dev_pin_end[d - 1]..dev_pin_end[d]]`.
    dev_pin_end: Vec<u32>,
    dev_pins: Vec<NetId>,
    device_index: IdMap,
    // Nets, by id.
    net_name: Vec<Span>,
    net_flags: Vec<u8>,
    net_index: IdMap,
    /// Built on first read; kept current by every change after that.
    net_pins: OnceLock<NetPins>,
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
        match self.known_type(&ty)? {
            Some(id) => Ok(id),
            None => Ok(self.push_type(ty)),
        }
    }

    /// The id of the registered type equal to `ty`, if any: what
    /// [`Netlist::add_type`] returns without registering anything.
    pub(crate) fn known_type(&self, ty: &DeviceType) -> Result<Option<DeviceTypeId>, NetlistError> {
        if ty.terminal_count() == 0 {
            return Err(NetlistError::EmptyType {
                name: ty.name().to_string(),
            });
        }
        match self.type_id(ty.name()) {
            Some(id) if self.types[id.index()] != *ty => Err(NetlistError::DuplicateType {
                name: ty.name().to_string(),
            }),
            known => Ok(known),
        }
    }

    /// Appends `ty`, whose name no registered type has.
    pub(crate) fn push_type(&mut self, ty: DeviceType) -> DeviceTypeId {
        let id = self.types.len() as u32;
        self.type_index.insert(self.type_index.hash(ty.name()), id);
        self.types.push(ty);
        DeviceTypeId::new(id)
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
        let hash = self.type_index.hash(name);
        self.type_index
            .find(hash, |id| self.types[id as usize].name() == name)
            .map(DeviceTypeId::new)
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
    // Names
    // ------------------------------------------------------------------

    fn name_at(&self, span: Span) -> &str {
        let start = span.start as usize;
        &self.names[start..start + span.len as usize]
    }

    /// The id `index` stores for `name`, whose hash is `hash`; `spans`
    /// are the names of the ids it stores.
    fn lookup(&self, index: &IdMap, spans: &[Span], hash: u32, name: &str) -> Option<u32> {
        index.find(hash, |id| self.name_at(spans[id as usize]) == name)
    }

    /// Appends the name made of `parts` to the arena; returns where it
    /// starts. The arena's tail from there is the name until it is
    /// interned or dropped.
    fn push_name(&mut self, parts: &[&str]) -> usize {
        let start = self.names.len();
        for part in parts {
            self.names.push_str(part);
        }
        start
    }

    /// The span of the arena's tail from `start`.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows `u32` offsets (4 GiB of names).
    fn tail_span(&self, start: usize) -> Span {
        let end = u32::try_from(self.names.len()).expect("a netlist holds at most 4 GiB of names");
        Span {
            start: start as u32,
            len: end - start as u32,
        }
    }

    // ------------------------------------------------------------------
    // Nets
    // ------------------------------------------------------------------

    /// Returns the net named `name`, creating it if necessary.
    pub fn net(&mut self, name: impl AsRef<str>) -> NetId {
        self.intern_net(&[name.as_ref()])
    }

    /// The net named by `parts` back to back, created if necessary:
    /// [`Netlist::net`] without first joining the parts into a string.
    pub(crate) fn intern_net(&mut self, parts: &[&str]) -> NetId {
        let start = self.push_name(parts);
        let name = &self.names[start..];
        let hash = self.net_index.hash(name);
        if let Some(id) = self.lookup(&self.net_index, &self.net_name, hash, name) {
            self.names.truncate(start);
            return NetId::new(id);
        }
        let id = self.net_name.len() as u32;
        self.net_name.push(self.tail_span(start));
        self.net_flags.push(0);
        self.net_index.insert(hash, id);
        if let Some(net_pins) = self.net_pins.get_mut() {
            net_pins.runs.push(Run::default());
        }
        NetId::new(id)
    }

    /// Looks up an existing net by name without creating it.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        let hash = self.net_index.hash(name);
        self.lookup(&self.net_index, &self.net_name, hash, name)
            .map(NetId::new)
    }

    /// The net record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this netlist.
    #[inline]
    pub fn net_ref(&self, id: NetId) -> Net<'_> {
        assert!(
            id.index() < self.net_count(),
            "{id} is not a net of `{}`",
            self.name
        );
        Net {
            netlist: self,
            index: id.index(),
        }
    }

    /// Alias for [`Netlist::net_ref`], reads better at call sites that
    /// already hold an id.
    #[inline]
    pub fn net_by_id(&self, id: NetId) -> Net<'_> {
        self.net_ref(id)
    }

    /// Every net's pins, transposed from the device pins on first use.
    fn net_pins(&self) -> &NetPins {
        self.net_pins.get_or_init(|| NetPins::transpose(self))
    }

    /// Marks a net as an external port (appends to the ordered port
    /// list; idempotent).
    pub fn mark_port(&mut self, id: NetId) {
        let flags = &mut self.net_flags[id.index()];
        if *flags & PORT == 0 {
            *flags |= PORT;
            self.ports.push(id);
        }
    }

    /// Marks a net as a special global signal (`Vdd`/`GND`-like).
    pub fn mark_global(&mut self, id: NetId) {
        self.net_flags[id.index()] |= GLOBAL;
    }

    /// Clears the global flag on a net (used by ablation experiments that
    /// deliberately ignore special signals).
    pub fn clear_global(&mut self, id: NetId) {
        self.net_flags[id.index()] &= !GLOBAL;
    }

    /// The ordered list of port nets.
    pub fn ports(&self) -> &[NetId] {
        &self.ports
    }

    /// All global (special) nets.
    pub fn global_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.net_ids()
            .filter(|&n| self.net_flags[n.index()] & GLOBAL != 0)
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_name.len()
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl ExactSizeIterator<Item = NetId> {
        (0..self.net_name.len() as u32).map(NetId::new)
    }

    /// Reserves room for at least `additional` more devices, so a
    /// builder that knows its device count up front grows the device
    /// tables once.
    pub fn reserve_devices(&mut self, additional: usize) {
        self.dev_name.reserve(additional);
        self.dev_type.reserve(additional);
        self.dev_pin_end.reserve(additional);
        self.device_index.reserve(additional);
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
        name: impl AsRef<str>,
        ty: DeviceTypeId,
        pins: &[NetId],
    ) -> Result<DeviceId, NetlistError> {
        self.push_device(&[name.as_ref()], ty, pins.iter().copied())
    }

    /// [`Netlist::add_device`] for the device named by `parts` back to
    /// back, with its pins from an iterator: neither is collected first.
    /// An error leaves the netlist as it was.
    pub(crate) fn push_device(
        &mut self,
        parts: &[&str],
        ty: DeviceTypeId,
        pins: impl IntoIterator<Item = NetId>,
    ) -> Result<DeviceId, NetlistError> {
        let (name_start, pin_start) = (self.push_name(parts), self.dev_pins.len());
        self.dev_pins.extend(pins);
        let hash = match self.check_device(name_start, ty, pin_start) {
            Ok(hash) => hash,
            Err(e) => {
                self.names.truncate(name_start);
                self.dev_pins.truncate(pin_start);
                return Err(e);
            }
        };
        let id = self.dev_name.len() as u32;
        self.dev_name.push(self.tail_span(name_start));
        self.dev_type.push(ty);
        let end = u32::try_from(self.dev_pins.len()).expect("a netlist holds at most 2^32 pins");
        self.dev_pin_end.push(end);
        self.device_index.insert(hash, id);
        if let Some(net_pins) = self.net_pins.get_mut() {
            for (terminal, &n) in self.dev_pins[pin_start..].iter().enumerate() {
                let device = DeviceId::new(id);
                let terminal = terminal as u16;
                net_pins.push(n, Pin { device, terminal });
            }
        }
        Ok(DeviceId::new(id))
    }

    /// The checks of [`Netlist::add_device`], in its order, on the
    /// device whose name and pins are the tails of the arena and of
    /// `dev_pins`; returns the name's hash.
    fn check_device(
        &self,
        name_start: usize,
        ty: DeviceTypeId,
        pin_start: usize,
    ) -> Result<u32, NetlistError> {
        let name = &self.names[name_start..];
        let hash = self.device_index.hash(name);
        if self
            .lookup(&self.device_index, &self.dev_name, hash, name)
            .is_some()
        {
            return Err(NetlistError::DuplicateDevice {
                name: name.to_string(),
            });
        }
        let Some(tyref) = self.types.get(ty.index()) else {
            return Err(NetlistError::UnknownType {
                name: format!("{ty}"),
            });
        };
        let pins = &self.dev_pins[pin_start..];
        if pins.len() != tyref.terminal_count() {
            return Err(NetlistError::PinCountMismatch {
                device: name.to_string(),
                expected: tyref.terminal_count(),
                got: pins.len(),
            });
        }
        if let Some(n) = pins.iter().find(|n| n.index() >= self.net_count()) {
            return Err(NetlistError::UnknownNet {
                name: format!("{n}"),
            });
        }
        Ok(hash)
    }

    /// Looks up a device by name.
    pub fn find_device(&self, name: &str) -> Option<DeviceId> {
        let hash = self.device_index.hash(name);
        self.lookup(&self.device_index, &self.dev_name, hash, name)
            .map(DeviceId::new)
    }

    /// The device record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this netlist.
    #[inline]
    pub fn device(&self, id: DeviceId) -> Device<'_> {
        Device {
            netlist: self,
            index: id.index(),
            ty: self.dev_type[id.index()],
        }
    }

    /// Device `i`'s nets, in terminal order.
    #[inline]
    fn device_pins(&self, i: usize) -> &[NetId] {
        &self.dev_pins[self.pin_start(i)..self.dev_pin_end[i] as usize]
    }

    /// Where device `i`'s nets start in `dev_pins`.
    fn pin_start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |p| self.dev_pin_end[p] as usize)
    }

    /// The device type of device `id`.
    #[inline]
    pub fn device_type_of(&self, id: DeviceId) -> &DeviceType {
        &self.types[self.dev_type[id.index()].index()]
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.dev_name.len()
    }

    /// Iterates over all device ids.
    pub fn device_ids(&self) -> impl ExactSizeIterator<Item = DeviceId> {
        (0..self.dev_name.len() as u32).map(DeviceId::new)
    }

    /// Total number of pins (graph edges).
    pub fn pin_count(&self) -> usize {
        self.dev_pins.len()
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
        let mut selected = vec![false; self.device_count()];
        for &d in devices {
            selected[d.index()] = true;
        }
        let mut out = self.empty_copy(name);
        // First pass: create nets with the right flags.
        let mut net_map = vec![NetId::new(VACANT); self.net_count()];
        for n in self.net_ids() {
            let net = self.net_ref(n);
            if !net.pins().iter().any(|p| selected[p.device.index()]) {
                continue;
            }
            let id = out.net(net.name());
            if net.is_global() {
                out.mark_global(id);
            } else {
                let fully_inside = net.pins().iter().all(|p| selected[p.device.index()]);
                if !fully_inside || net.is_port() {
                    out.mark_port(id);
                }
            }
            net_map[n.index()] = id;
        }
        for d in self.device_ids().filter(|d| selected[d.index()]) {
            out.copy_device(self, d, &net_map);
        }
        out
    }

    /// An empty netlist named `name` with this one's type table.
    fn empty_copy(&self, name: &str) -> Netlist {
        Netlist {
            name: name.to_string(),
            types: self.types.clone(),
            type_index: self.type_index.clone(),
            ..Netlist::default()
        }
    }

    /// Adds `from`'s device `d`, its pins mapped through `net_map`, to
    /// this netlist, whose type table is `from`'s.
    fn copy_device(&mut self, from: &Netlist, d: DeviceId, net_map: &[NetId]) {
        let dev = from.device(d);
        let pins = dev.pins().iter().map(|n| net_map[n.index()]);
        self.push_device(&[dev.name()], dev.type_id(), pins)
            .expect("copying preserves validity");
    }

    /// Collapses groups of devices into composite devices, in place: the
    /// `absorbed` devices are removed, one device of type `ty` is
    /// appended per `(name, pins)` entry of `composites` (pins in this
    /// netlist's current net ids), and devices, nets and types are
    /// renumbered by id. This is extraction's replace step.
    ///
    /// The result is the netlist that re-adding every surviving device,
    /// then the composites, to an empty netlist would build:
    ///
    /// * devices: the survivors in their old relative order, then the
    ///   composites in order;
    /// * nets: numbered by first appearance over those devices' pins,
    ///   each keeping its name, flags and (device, terminal)-ordered pin
    ///   list. A net no remaining device touches is dropped — interior
    ///   nets of the collapsed groups, and nets already isolated;
    /// * types: numbered by first appearance; a type only absorbed
    ///   devices used is dropped. `ty` is appended, or reused if an
    ///   equal type of its name survives, even when `composites` is
    ///   empty;
    /// * ports: the surviving port nets, in new-id order.
    ///
    /// Name lookups follow the new ids. All checks run before anything
    /// changes, so an error leaves the netlist as it was.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::EmptyType`] if `ty` has no terminals.
    /// * [`NetlistError::DuplicateType`] if a *different* surviving type
    ///   has `ty`'s name.
    /// * [`NetlistError::DuplicateDevice`] if a composite name is a
    ///   surviving device's or another composite's (an absorbed device's
    ///   name may be reused).
    /// * [`NetlistError::PinCountMismatch`] if a composite's pin count is
    ///   not `ty`'s terminal count.
    /// * [`NetlistError::UnknownNet`] if a pin is not a net of this
    ///   netlist.
    ///
    /// # Panics
    ///
    /// Panics if an absorbed id was not issued by this netlist.
    ///
    /// # Examples
    ///
    /// ```
    /// use subgemini_netlist::{DeviceType, Netlist, TerminalSpec};
    ///
    /// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
    /// let mut nl = Netlist::new("chip");
    /// let mos = nl.add_mos_types();
    /// let (a, m, y) = (nl.net("a"), nl.net("m"), nl.net("y"));
    /// let p = nl.add_device("mp", mos.pmos, &[a, a, m])?;
    /// let n = nl.add_device("mn", mos.nmos, &[m, m, y])?;
    /// let pair = DeviceType::new(
    ///     "pair",
    ///     vec![TerminalSpec::new("a", "a"), TerminalSpec::new("y", "y")],
    /// );
    /// nl.collapse(&[p, n], pair, vec![("pair#0".to_string(), vec![a, y])])?;
    /// assert_eq!(nl.device_count(), 1);
    /// assert_eq!(nl.find_net("m"), None); // interior net gone
    /// assert_eq!(nl.device_types().len(), 1); // mos types unused
    /// # Ok(())
    /// # }
    /// ```
    pub fn collapse(
        &mut self,
        absorbed: &[DeviceId],
        ty: DeviceType,
        composites: Vec<(String, Vec<NetId>)>,
    ) -> Result<(), NetlistError> {
        // Old id -> new id for devices, nets and types; DEAD when dropped.
        let mut device_map = vec![0u32; self.device_count()];
        for &d in absorbed {
            device_map[d.index()] = DEAD;
        }
        for (new, id) in device_map.iter_mut().filter(|new| **new != DEAD).zip(0..) {
            *new = id;
        }
        let mut type_map = vec![DEAD; self.types.len()];
        let mut net_map = vec![DEAD; self.net_count()];
        let (mut types, mut nets) = (0u32, 0u32);
        for d in (0..self.device_count()).filter(|&d| device_map[d] != DEAD) {
            first_appearance(&mut type_map, &mut types, self.dev_type[d].index());
            for &n in self.device_pins(d) {
                first_appearance(&mut net_map, &mut nets, n.index());
            }
        }
        if ty.terminal_count() == 0 {
            return Err(NetlistError::EmptyType {
                name: ty.name().to_string(),
            });
        }
        let reused = match self.type_id(ty.name()) {
            Some(old) if type_map[old.index()] != DEAD => {
                if self.types[old.index()] != ty {
                    return Err(NetlistError::DuplicateType {
                        name: ty.name().to_string(),
                    });
                }
                Some(DeviceTypeId::new(type_map[old.index()]))
            }
            _ => None,
        };
        // Linear in the composites: each name is looked up once in the
        // name map (survivors) and once in a set of this call's names.
        let mut minted = HashSet::with_capacity(composites.len());
        for (name, pins) in &composites {
            let taken = self
                .find_device(name)
                .is_some_and(|d| device_map[d.index()] != DEAD);
            if taken || !minted.insert(name.as_str()) {
                return Err(NetlistError::DuplicateDevice { name: name.clone() });
            }
            if pins.len() != ty.terminal_count() {
                return Err(NetlistError::PinCountMismatch {
                    device: name.clone(),
                    expected: ty.terminal_count(),
                    got: pins.len(),
                });
            }
            for &n in pins {
                if n.index() >= self.net_count() {
                    return Err(NetlistError::UnknownNet {
                        name: format!("{n}"),
                    });
                }
                first_appearance(&mut net_map, &mut nets, n.index());
            }
        }

        // Every check passed: renumber in place. Survivors keep their
        // relative order, so each moves down over absorbed devices.
        let (mut kept, mut read, mut write) = (0, 0, 0);
        for d in 0..self.device_count() {
            let end = self.dev_pin_end[d] as usize;
            if device_map[d] != DEAD {
                self.dev_name[kept] = self.dev_name[d];
                self.dev_type[kept] = DeviceTypeId::new(type_map[self.dev_type[d].index()]);
                for p in read..end {
                    self.dev_pins[write] = NetId::new(net_map[self.dev_pins[p].index()]);
                    write += 1;
                }
                self.dev_pin_end[kept] = write as u32;
                kept += 1;
            }
            read = end;
        }
        self.dev_name.truncate(kept);
        self.dev_type.truncate(kept);
        self.dev_pin_end.truncate(kept);
        self.dev_pins.truncate(write);
        // The net pins are transposed afresh when next read.
        self.net_pins = OnceLock::new();
        permute(&mut self.types, &type_map, types);
        permute(&mut self.net_name, &net_map, nets);
        permute(&mut self.net_flags, &net_map, nets);
        self.device_index.remap(&device_map);
        self.net_index.remap(&net_map);
        self.type_index.remap(&type_map);
        self.ports.retain_mut(|p| {
            *p = NetId::new(net_map[p.index()]);
            p.raw() != DEAD
        });
        self.ports.sort_unstable();
        let ty_id = reused.unwrap_or_else(|| self.push_type(ty));
        self.reserve_devices(composites.len());
        for (name, pins) in &composites {
            let pins = pins.iter().map(|n| NetId::new(net_map[n.index()]));
            self.push_device(&[name], ty_id, pins)
                .expect("composites were checked above");
        }
        Ok(())
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
        let mut out = self.empty_copy(&self.name);
        let mut net_map = vec![NetId::new(VACANT); self.net_count()];
        for n in self.net_ids() {
            let net = self.net_ref(n);
            if net.degree() == 0 {
                continue;
            }
            let id = out.net(net.name());
            if net.is_global() {
                out.mark_global(id);
            }
            net_map[n.index()] = id;
        }
        for &p in &self.ports {
            if self.net_ref(p).degree() > 0 {
                out.mark_port(net_map[p.index()]);
            }
        }
        for d in self.device_ids() {
            out.copy_device(self, d, &net_map);
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
        // Which device pins their net lists, marked in one pass over the
        // net side: `covered[i]` for the device pin at `dev_pins[i]`.
        let mut covered = vec![false; self.dev_pins.len()];
        for n in self.net_ids() {
            for pin in self.net_ref(n).pins() {
                let d = pin.device.index();
                if d >= self.device_count() {
                    continue;
                }
                let t = pin.terminal as usize;
                if self.device_pins(d).get(t) == Some(&n) {
                    covered[self.pin_start(d) + t] = true;
                }
            }
        }
        for d in self.device_ids() {
            let dev = self.device(d);
            let ty = self.device_type_of(d);
            if dev.pins().len() != ty.terminal_count() {
                return Err(NetlistError::Inconsistent {
                    detail: format!(
                        "device `{}` has {} pins, type `{}` has {} terminals",
                        dev.name(),
                        dev.pins().len(),
                        ty.name(),
                        ty.terminal_count()
                    ),
                });
            }
            for (ti, &net) in dev.pins().iter().enumerate() {
                if net.index() >= self.net_count() {
                    return Err(NetlistError::Inconsistent {
                        detail: format!(
                            "device `{}` pin {ti} references missing {net}",
                            dev.name()
                        ),
                    });
                }
                if !covered[self.pin_start(d.index()) + ti] {
                    return Err(NetlistError::Inconsistent {
                        detail: format!(
                            "net `{}` lacks back-reference to device `{}` terminal {ti}",
                            self.net_ref(net).name(),
                            dev.name()
                        ),
                    });
                }
            }
        }
        for n in self.net_ids() {
            let net = self.net_ref(n);
            for pin in net.pins() {
                if pin.device.index() >= self.device_count() {
                    return Err(NetlistError::Inconsistent {
                        detail: format!("net `{}` references missing {}", net.name(), pin.device),
                    });
                }
                let dev = self.device(pin.device);
                if dev.pins().get(pin.terminal as usize).copied() != self.find_net(net.name()) {
                    return Err(NetlistError::Inconsistent {
                        detail: format!(
                            "net `{}` pin back-reference mismatch on device `{}`",
                            net.name(),
                            dev.name()
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Marks an id that [`Netlist::collapse`] drops.
const DEAD: u32 = VACANT;

/// Gives index `i` the next new id, unless it already has one.
fn first_appearance(map: &mut [u32], next: &mut u32, i: usize) {
    if map[i] == DEAD {
        map[i] = *next;
        *next += 1;
    }
}

/// Moves each `items[old]` to index `map[old]` of a `len`-long table,
/// dropping the items mapped to [`DEAD`]. `map` must be onto `0..len`.
fn permute<T>(items: &mut Vec<T>, map: &[u32], len: u32) {
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (item, &new) in items.drain(..).zip(map) {
        if new != DEAD {
            slots[new as usize] = Some(item);
        }
    }
    items.extend(slots.into_iter().map(|s| s.expect("map is onto 0..len")));
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist `{}`: {} devices, {} nets, {} ports",
            self.name,
            self.device_count(),
            self.net_count(),
            self.ports.len()
        )?;
        for d in self.device_ids() {
            let (dev, ty) = (self.device(d), self.device_type_of(d));
            write!(f, "  {} {}(", dev.name(), ty.name())?;
            for (i, &n) in dev.pins().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}={}", ty.terminal(i).name(), self.net_ref(n).name())?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TerminalSpec;

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

    /// Two inverters in series, `a -> m -> y`, an isolated net `nc`,
    /// and ports `y`, `a` marked in that order.
    fn chain() -> (Netlist, [DeviceId; 4]) {
        let mut nl = Netlist::new("chain");
        let mos = nl.add_mos_types();
        let (vdd, gnd) = (nl.net("vdd"), nl.net("gnd"));
        nl.mark_global(vdd);
        nl.mark_global(gnd);
        let (a, m, y) = (nl.net("a"), nl.net("m"), nl.net("y"));
        nl.net("nc");
        nl.mark_port(y);
        nl.mark_port(a);
        let devices = [
            nl.add_device("p1", mos.pmos, &[a, vdd, m]).unwrap(),
            nl.add_device("n1", mos.nmos, &[a, gnd, m]).unwrap(),
            nl.add_device("p2", mos.pmos, &[m, vdd, y]).unwrap(),
            nl.add_device("n2", mos.nmos, &[m, gnd, y]).unwrap(),
        ];
        (nl, devices)
    }

    fn two_pin(name: &str) -> DeviceType {
        DeviceType::new(
            name,
            vec![TerminalSpec::new("a", "a"), TerminalSpec::new("y", "y")],
        )
    }

    fn net_names(nl: &Netlist) -> Vec<&str> {
        nl.net_ids().map(|n| nl.net_ref(n).name()).collect()
    }

    /// Everything the accessors show, lookups by name included.
    fn snapshot(nl: &Netlist) -> String {
        let mut out = format!("{} {:?} {:?}\n", nl.name(), nl.device_types(), nl.ports());
        for d in nl.device_ids() {
            let dev = nl.device(d);
            let found = nl.find_device(dev.name());
            out += &format!("{dev:?} {found:?}\n");
        }
        for n in nl.net_ids() {
            let net = nl.net_ref(n);
            out += &format!("{net:?} {:?}\n", nl.find_net(net.name()));
        }
        for ty in nl.device_types() {
            out += &format!("{:?}\n", nl.type_id(ty.name()));
        }
        out
    }

    fn same(a: &Netlist, b: &Netlist) -> bool {
        snapshot(a) == snapshot(b)
    }

    #[test]
    fn collapse_drops_interior_and_isolated_nets() {
        let (mut nl, [p1, n1, p2, n2]) = chain();
        let (a, y) = (nl.find_net("a").unwrap(), nl.find_net("y").unwrap());
        nl.collapse(
            &[p1, n1, p2, n2],
            two_pin("buf"),
            vec![("buf#0".to_string(), vec![a, y])],
        )
        .unwrap();
        nl.validate().unwrap();
        // `m` was interior, `nc` isolated, the rails touched only by
        // absorbed transistors.
        assert_eq!(net_names(&nl), ["a", "y"]);
        for gone in ["m", "nc", "vdd", "gnd"] {
            assert_eq!(nl.find_net(gone), None, "{gone}");
        }
        assert_eq!(nl.find_net("y"), Some(NetId::new(1)));
        assert_eq!(nl.device_count(), 1);
        assert_eq!(nl.find_device("buf#0"), Some(DeviceId::new(0)));
        assert_eq!(nl.find_device("p1"), None);
    }

    #[test]
    fn collapse_renumbers_by_first_appearance() {
        let (mut nl, [p1, n1, ..]) = chain();
        let (a, m) = (nl.find_net("a").unwrap(), nl.find_net("m").unwrap());
        nl.collapse(
            &[n1, p1],
            two_pin("inv"),
            vec![("inv#0".to_string(), vec![a, m])],
        )
        .unwrap();
        nl.validate().unwrap();
        let names: Vec<&str> = nl.device_types().iter().map(DeviceType::name).collect();
        // `p2` comes first, so `pmos` now precedes `nmos`.
        assert_eq!(names, ["pmos", "nmos", "inv"]);
        assert_eq!(nl.type_id("inv"), Some(DeviceTypeId::new(2)));
        assert_eq!(net_names(&nl), ["m", "vdd", "y", "gnd", "a"]);
        let m = nl.find_net("m").unwrap();
        let pins: Vec<(u32, u16)> = nl
            .net_ref(m)
            .pins()
            .iter()
            .map(|p| (p.device.raw(), p.terminal))
            .collect();
        assert_eq!(pins, [(0, 0), (1, 0), (2, 1)]);
        assert_eq!(nl.find_device("p2"), Some(DeviceId::new(0)));
        assert_eq!(nl.find_device("inv#0"), Some(DeviceId::new(2)));
    }

    #[test]
    fn collapse_keeps_port_order_by_id_and_global_flags() {
        let (mut nl, [p1, n1, ..]) = chain();
        let (a, m) = (nl.find_net("a").unwrap(), nl.find_net("m").unwrap());
        nl.collapse(
            &[p1, n1],
            two_pin("inv"),
            vec![("inv#0".to_string(), vec![a, m])],
        )
        .unwrap();
        nl.validate().unwrap();
        let ports: Vec<&str> = nl.ports().iter().map(|&p| nl.net_ref(p).name()).collect();
        assert_eq!(ports, ["y", "a"]);
        let globals: Vec<&str> = nl.global_nets().map(|n| nl.net_ref(n).name()).collect();
        assert_eq!(globals, ["vdd", "gnd"]);
        assert!(!nl.net_ref(nl.find_net("m").unwrap()).is_port());
    }

    #[test]
    fn collapse_drops_types_only_absorbed_devices_used() {
        let (mut nl, _) = chain();
        let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
        let (a, y) = (nl.find_net("a").unwrap(), nl.find_net("y").unwrap());
        let r = nl.add_device("r1", res, &[a, y]).unwrap();
        nl.collapse(&[r], two_pin("wire"), vec![("w#0".to_string(), vec![a, y])])
            .unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.type_id("res"), None);
        assert_eq!(nl.device_types().len(), 3);
        // An equal surviving type is reused, not appended; a type of an
        // absorbed-only name may be redefined.
        let pmos = nl.find_device("p1").unwrap();
        nl.collapse(&[], DeviceType::mos("pmos"), Vec::new())
            .unwrap();
        assert_eq!(nl.device_types().len(), 3);
        nl.collapse(&[pmos], two_pin("res"), Vec::new()).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.type_id("res"), Some(DeviceTypeId::new(3)));
    }

    #[test]
    fn collapse_may_reuse_an_absorbed_name() {
        let (mut nl, [p1, n1, ..]) = chain();
        let (a, m) = (nl.find_net("a").unwrap(), nl.find_net("m").unwrap());
        nl.collapse(
            &[p1, n1],
            two_pin("inv"),
            vec![("p1".to_string(), vec![a, m])],
        )
        .unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.find_device("p1"), Some(DeviceId::new(2)));
        assert_eq!(nl.device(DeviceId::new(2)).name(), "p1");
    }

    #[test]
    fn collapse_errors_leave_the_netlist_unchanged() {
        let (mut nl, [p1, n1, ..]) = chain();
        let before = nl.clone();
        let (a, m) = (nl.find_net("a").unwrap(), nl.find_net("m").unwrap());
        let one = |name: &str| vec![(name.to_string(), vec![a, m])];
        // A survivor's name, and a name given twice.
        let err = nl
            .collapse(&[p1, n1], two_pin("inv"), one("p2"))
            .unwrap_err();
        assert_eq!(err, NetlistError::DuplicateDevice { name: "p2".into() });
        let mut twice = one("inv#0");
        twice.extend(one("inv#0"));
        let err = nl.collapse(&[p1, n1], two_pin("inv"), twice).unwrap_err();
        assert_eq!(
            err,
            NetlistError::DuplicateDevice {
                name: "inv#0".into()
            }
        );
        // A different type under a surviving type's name.
        let err = nl
            .collapse(&[p1, n1], two_pin("nmos"), one("inv#0"))
            .unwrap_err();
        assert_eq!(
            err,
            NetlistError::DuplicateType {
                name: "nmos".into()
            }
        );
        let err = nl
            .collapse(&[p1, n1], DeviceType::without_terminals("void"), one("v#0"))
            .unwrap_err();
        assert_eq!(
            err,
            NetlistError::EmptyType {
                name: "void".into()
            }
        );
        let err = nl
            .collapse(&[p1, n1], two_pin("inv"), vec![("inv#0".into(), vec![a])])
            .unwrap_err();
        assert!(
            matches!(err, NetlistError::PinCountMismatch { .. }),
            "{err}"
        );
        let err = nl
            .collapse(
                &[p1],
                two_pin("inv"),
                vec![("inv#0".into(), vec![a, NetId::new(99)])],
            )
            .unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNet { .. }), "{err}");
        assert!(same(&nl, &before));
        nl.validate().unwrap();
    }

    #[test]
    fn validate_detects_tampering() {
        // Build a netlist and then corrupt it through a private-field
        // clone to ensure validate() actually checks cross-references.
        let (nl, _) = inverter();
        let mut bad = nl.clone();
        bad.net_pins();
        bad.net_pins.get_mut().unwrap().runs[0].len = 0; // drop back-references on net 0
        assert!(bad.validate().is_err());
    }
}
