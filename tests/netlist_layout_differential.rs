//! `Netlist`'s arena layout against a plain reference model of the
//! layout it replaced: owned names, a pin `Vec` per device and per net,
//! lookups by scanning. Seeded sequences drive both through the same
//! operations — `add_type`, `net`, `add_device`, `mark_port`,
//! `mark_global`, `clear_global`, `instantiate`, `collapse`,
//! `subnetlist`, `compact`, `merge_parallel` and `clone` — with
//! duplicate names and every reachable error path. Every result, error
//! value, accessor, name lookup (of live and of dropped names),
//! `Display` line and `structural_digest` must agree. Checks fall at
//! random points of a sequence, so net pins are read both before they
//! exist and while devices keep arriving.

use std::collections::{HashMap, HashSet};

use subgemini_netlist::hashing::{fnv1a, mix};
use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{
    instantiate, merge_parallel, structural_digest, DeviceId, DeviceType, DeviceTypeId,
    MergeReport, NetId, Netlist, NetlistError, Pin, TerminalSpec,
};

const DEAD: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct MDevice {
    name: String,
    ty: DeviceTypeId,
    pins: Vec<NetId>,
}

#[derive(Clone, Debug)]
struct MNet {
    name: String,
    pins: Vec<Pin>,
    port: bool,
    global: bool,
}

/// The reference: every name owned, every pin list its own `Vec`.
#[derive(Clone, Debug, Default)]
struct Model {
    name: String,
    types: Vec<DeviceType>,
    devices: Vec<MDevice>,
    nets: Vec<MNet>,
    ports: Vec<NetId>,
}

impl Model {
    fn new(name: &str) -> Model {
        Model {
            name: name.to_string(),
            ..Model::default()
        }
    }

    fn type_id(&self, name: &str) -> Option<DeviceTypeId> {
        let i = self.types.iter().position(|t| t.name() == name)?;
        Some(DeviceTypeId::new(i as u32))
    }

    fn find_net(&self, name: &str) -> Option<NetId> {
        let i = self.nets.iter().position(|n| n.name == name)?;
        Some(NetId::new(i as u32))
    }

    fn find_device(&self, name: &str) -> Option<DeviceId> {
        let i = self.devices.iter().position(|d| d.name == name)?;
        Some(DeviceId::new(i as u32))
    }

    fn add_type(&mut self, ty: DeviceType) -> Result<DeviceTypeId, NetlistError> {
        if ty.terminal_count() == 0 {
            return Err(NetlistError::EmptyType {
                name: ty.name().to_string(),
            });
        }
        if let Some(id) = self.type_id(ty.name()) {
            if self.types[id.index()] == ty {
                return Ok(id);
            }
            return Err(NetlistError::DuplicateType {
                name: ty.name().to_string(),
            });
        }
        self.types.push(ty);
        Ok(DeviceTypeId::new(self.types.len() as u32 - 1))
    }

    fn net(&mut self, name: &str) -> NetId {
        self.find_net(name).unwrap_or_else(|| {
            self.nets.push(MNet {
                name: name.to_string(),
                pins: Vec::new(),
                port: false,
                global: false,
            });
            NetId::new(self.nets.len() as u32 - 1)
        })
    }

    fn mark_port(&mut self, n: NetId) {
        if !self.nets[n.index()].port {
            self.nets[n.index()].port = true;
            self.ports.push(n);
        }
    }

    fn add_device(
        &mut self,
        name: &str,
        ty: DeviceTypeId,
        pins: &[NetId],
    ) -> Result<DeviceId, NetlistError> {
        if self.find_device(name).is_some() {
            return Err(NetlistError::DuplicateDevice {
                name: name.to_string(),
            });
        }
        let Some(t) = self.types.get(ty.index()) else {
            return Err(NetlistError::UnknownType {
                name: format!("{ty}"),
            });
        };
        if pins.len() != t.terminal_count() {
            return Err(NetlistError::PinCountMismatch {
                device: name.to_string(),
                expected: t.terminal_count(),
                got: pins.len(),
            });
        }
        if let Some(n) = pins.iter().find(|n| n.index() >= self.nets.len()) {
            return Err(NetlistError::UnknownNet {
                name: format!("{n}"),
            });
        }
        let id = DeviceId::new(self.devices.len() as u32);
        for (i, &n) in pins.iter().enumerate() {
            self.nets[n.index()].pins.push(Pin {
                device: id,
                terminal: i as u16,
            });
        }
        self.devices.push(MDevice {
            name: name.to_string(),
            ty,
            pins: pins.to_vec(),
        });
        Ok(id)
    }

    fn instantiate(
        &mut self,
        cell: &Model,
        prefix: &str,
        bindings: &[NetId],
    ) -> Result<(), NetlistError> {
        if bindings.len() != cell.ports.len() {
            return Err(NetlistError::PinCountMismatch {
                device: prefix.to_string(),
                expected: cell.ports.len(),
                got: bindings.len(),
            });
        }
        let mut nets = Vec::new();
        for (i, net) in cell.nets.iter().enumerate() {
            let n = NetId::new(i as u32);
            nets.push(if let Some(pos) = cell.ports.iter().position(|&p| p == n) {
                bindings[pos]
            } else if net.global {
                let g = self.net(&net.name);
                self.nets[g.index()].global = true;
                g
            } else {
                self.net(&format!("{prefix}.{}", net.name))
            });
        }
        for dev in &cell.devices {
            let ty = self.add_type(cell.types[dev.ty.index()].clone())?;
            let pins: Vec<NetId> = dev.pins.iter().map(|n| nets[n.index()]).collect();
            self.add_device(&format!("{prefix}.{}", dev.name), ty, &pins)?;
        }
        Ok(())
    }

    fn collapse(
        &mut self,
        absorbed: &[DeviceId],
        ty: DeviceType,
        composites: &[(String, Vec<NetId>)],
    ) -> Result<(), NetlistError> {
        let first = |map: &mut [u32], next: &mut u32, i: usize| {
            if map[i] == DEAD {
                map[i] = *next;
                *next += 1;
            }
        };
        let mut device_map = vec![0u32; self.devices.len()];
        for &d in absorbed {
            device_map[d.index()] = DEAD;
        }
        let mut survivors = 0;
        for new in device_map.iter_mut().filter(|n| **n != DEAD) {
            *new = survivors;
            survivors += 1;
        }
        let mut type_map = vec![DEAD; self.types.len()];
        let mut net_map = vec![DEAD; self.nets.len()];
        let (mut types, mut nets) = (0, 0);
        for (dev, _) in self
            .devices
            .iter()
            .zip(&device_map)
            .filter(|(_, &n)| n != DEAD)
        {
            first(&mut type_map, &mut types, dev.ty.index());
            for &n in &dev.pins {
                first(&mut net_map, &mut nets, n.index());
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
        let mut minted = HashSet::new();
        for (name, pins) in composites {
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
                if n.index() >= self.nets.len() {
                    return Err(NetlistError::UnknownNet {
                        name: format!("{n}"),
                    });
                }
                first(&mut net_map, &mut nets, n.index());
            }
        }
        let old_devices = std::mem::take(&mut self.devices);
        for (mut dev, &new) in old_devices.into_iter().zip(&device_map) {
            if new != DEAD {
                dev.ty = DeviceTypeId::new(type_map[dev.ty.index()]);
                for n in &mut dev.pins {
                    *n = NetId::new(net_map[n.index()]);
                }
                self.devices.push(dev);
            }
        }
        self.types = permuted(std::mem::take(&mut self.types), &type_map, types);
        self.nets = permuted(std::mem::take(&mut self.nets), &net_map, nets);
        for net in &mut self.nets {
            net.pins.retain_mut(|p| {
                let new = device_map[p.device.index()];
                p.device = DeviceId::new(new);
                new != DEAD
            });
        }
        self.ports.retain_mut(|p| {
            *p = NetId::new(net_map[p.index()]);
            p.raw() != DEAD
        });
        self.ports.sort_unstable();
        let ty_id = reused.unwrap_or_else(|| {
            self.types.push(ty);
            DeviceTypeId::new(types)
        });
        for (k, (name, pins)) in composites.iter().enumerate() {
            let id = DeviceId::new(survivors + k as u32);
            let pins: Vec<NetId> = pins
                .iter()
                .map(|n| NetId::new(net_map[n.index()]))
                .collect();
            for (terminal, n) in pins.iter().enumerate() {
                self.nets[n.index()].pins.push(Pin {
                    device: id,
                    terminal: terminal as u16,
                });
            }
            self.devices.push(MDevice {
                name: name.clone(),
                ty: ty_id,
                pins,
            });
        }
        Ok(())
    }

    fn with_types(&self, name: &str) -> Model {
        let mut out = Model::new(name);
        for ty in &self.types {
            out.add_type(ty.clone()).unwrap();
        }
        out
    }

    fn subnetlist(&self, name: &str, devices: &[DeviceId]) -> Model {
        let mut selected = vec![false; self.devices.len()];
        for &d in devices {
            selected[d.index()] = true;
        }
        let mut out = self.with_types(name);
        let mut net_map = vec![None; self.nets.len()];
        for (i, net) in self.nets.iter().enumerate() {
            if !net.pins.iter().any(|p| selected[p.device.index()]) {
                continue;
            }
            let id = out.net(&net.name);
            if net.global {
                out.nets[id.index()].global = true;
            } else if net.port || !net.pins.iter().all(|p| selected[p.device.index()]) {
                out.mark_port(id);
            }
            net_map[i] = Some(id);
        }
        for (i, dev) in self.devices.iter().enumerate() {
            if selected[i] {
                let pins: Vec<NetId> = dev
                    .pins
                    .iter()
                    .map(|n| net_map[n.index()].unwrap())
                    .collect();
                out.add_device(&dev.name, dev.ty, &pins).unwrap();
            }
        }
        out
    }

    fn compact(&self) -> Model {
        let mut out = self.with_types(&self.name);
        for net in self.nets.iter().filter(|n| !n.pins.is_empty()) {
            let id = out.net(&net.name);
            out.nets[id.index()].global |= net.global;
        }
        for &p in &self.ports {
            if !self.nets[p.index()].pins.is_empty() {
                let id = out.net(&self.nets[p.index()].name);
                out.mark_port(id);
            }
        }
        for dev in &self.devices {
            let pins: Vec<NetId> = dev
                .pins
                .iter()
                .map(|n| out.net(&self.nets[n.index()].name))
                .collect();
            out.add_device(&dev.name, dev.ty, &pins).unwrap();
        }
        out
    }

    fn merge_parallel(&self) -> (Model, MergeReport) {
        type Key = (String, Vec<(u64, NetId)>);
        let mut groups: HashMap<Key, Vec<usize>> = HashMap::new();
        for (i, dev) in self.devices.iter().enumerate() {
            let ty = &self.types[dev.ty.index()];
            let mut key: Vec<(u64, NetId)> = dev
                .pins
                .iter()
                .enumerate()
                .map(|(t, &n)| (ty.class_multiplier(t), n))
                .collect();
            key.sort_unstable();
            groups
                .entry((ty.name().to_string(), key))
                .or_default()
                .push(i);
        }
        let mut keep = vec![false; self.devices.len()];
        let mut report = MergeReport {
            devices_before: self.devices.len(),
            ..MergeReport::default()
        };
        for members in groups.values() {
            let first = *members.iter().min().unwrap();
            keep[first] = true;
            if members.len() > 1 {
                let mut absorbed: Vec<String> = members
                    .iter()
                    .filter(|&&m| m != first)
                    .map(|&m| self.devices[m].name.clone())
                    .collect();
                absorbed.sort();
                report
                    .merged
                    .push((self.devices[first].name.clone(), absorbed));
            }
        }
        report.merged.sort();
        let mut out = self.with_types(&self.name);
        for (dev, _) in self.devices.iter().zip(&keep).filter(|(_, &k)| k) {
            let pins: Vec<NetId> = dev
                .pins
                .iter()
                .map(|n| {
                    let net = &self.nets[n.index()];
                    let id = out.net(&net.name);
                    out.nets[id.index()].global |= net.global;
                    id
                })
                .collect();
            out.add_device(&dev.name, dev.ty, &pins).unwrap();
        }
        for &p in &self.ports {
            let id = out.net(&self.nets[p.index()].name);
            out.mark_port(id);
        }
        let out = out.compact();
        report.devices_after = out.devices.len();
        (out, report)
    }

    /// `structural_digest`, restated over the model.
    fn digest(&self) -> u64 {
        let mut h = fnv1a("sgc-digest:v1");
        let mut put = |v: u64| h = mix(h ^ v.rotate_left(1));
        put(self.devices.len() as u64);
        put(self.nets.len() as u64);
        for t in &self.types {
            put(fnv1a(t.name()));
            put(t.terminal_count() as u64);
            for i in 0..t.terminal_count() {
                put(t.class_multiplier(i));
            }
        }
        for dev in &self.devices {
            put(dev.ty.index() as u64);
            for n in &dev.pins {
                put(u64::from(n.raw()));
            }
        }
        for net in &self.nets {
            put(u64::from(net.global) | u64::from(net.port) << 1);
            if net.global {
                put(fnv1a(&net.name));
            }
        }
        for p in &self.ports {
            put(u64::from(p.raw()));
        }
        h
    }

    /// `Netlist`'s `Display`, restated over the model.
    fn display(&self) -> String {
        let mut out = format!(
            "netlist `{}`: {} devices, {} nets, {} ports\n",
            self.name,
            self.devices.len(),
            self.nets.len(),
            self.ports.len()
        );
        for dev in &self.devices {
            let ty = &self.types[dev.ty.index()];
            let pins: Vec<String> = dev
                .pins
                .iter()
                .enumerate()
                .map(|(i, n)| format!("{}={}", ty.terminal(i).name(), self.nets[n.index()].name))
                .collect();
            out += &format!("  {} {}({})\n", dev.name, ty.name(), pins.join(", "));
        }
        out
    }
}

fn permuted<T>(items: Vec<T>, map: &[u32], len: u32) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (item, &new) in items.into_iter().zip(map) {
        if new != DEAD {
            slots[new as usize] = Some(item);
        }
    }
    slots.into_iter().map(Option::unwrap).collect()
}

/// Every name a sequence may use, so lookups of dropped and of never
/// created names are compared too.
fn probe_names() -> Vec<String> {
    let mut names: Vec<String> = NETS.iter().chain(DEVICES).map(|s| s.to_string()).collect();
    for prefix in PREFIXES {
        for inner in ["a", "y", "m", "mp", "mn", "r1", "i1", "i2"] {
            names.push(format!("{prefix}.{inner}"));
        }
    }
    names.extend(["nmos", "pmos", "res", "inv", "absent", ""].map(String::from));
    names
}

/// Asserts that `real` and `model` agree on everything observable.
fn agree(real: &Netlist, model: &Model, probes: &[String], ctx: &str) {
    assert_eq!(real.name(), model.name, "{ctx}");
    assert_eq!(real.device_types(), &model.types[..], "{ctx}");
    assert_eq!(real.device_count(), model.devices.len(), "{ctx}");
    assert_eq!(real.net_count(), model.nets.len(), "{ctx}");
    for (d, dev) in real.device_ids().zip(&model.devices) {
        let r = real.device(d);
        assert_eq!(
            (r.name(), r.type_id(), r.pins()),
            (dev.name.as_str(), dev.ty, &dev.pins[..]),
            "{ctx}: {d}"
        );
        assert_eq!(
            real.device_type_of(d),
            &model.types[dev.ty.index()],
            "{ctx}"
        );
    }
    for (n, net) in real.net_ids().zip(&model.nets) {
        let r = real.net_ref(n);
        assert_eq!(
            (r.name(), r.pins(), r.degree(), r.is_port(), r.is_global()),
            (
                net.name.as_str(),
                &net.pins[..],
                net.pins.len(),
                net.port,
                net.global
            ),
            "{ctx}: {n}"
        );
    }
    assert_eq!(real.ports(), &model.ports[..], "{ctx}");
    let globals: Vec<NetId> = model
        .nets
        .iter()
        .enumerate()
        .filter(|(_, n)| n.global)
        .map(|(i, _)| NetId::new(i as u32))
        .collect();
    assert_eq!(real.global_nets().collect::<Vec<_>>(), globals, "{ctx}");
    let pins: usize = model.devices.iter().map(|d| d.pins.len()).sum();
    assert_eq!(real.pin_count(), pins, "{ctx}");
    for name in probes {
        assert_eq!(
            real.find_net(name),
            model.find_net(name),
            "{ctx}: net {name:?}"
        );
        assert_eq!(
            real.find_device(name),
            model.find_device(name),
            "{ctx}: device {name:?}"
        );
        assert_eq!(
            real.type_id(name),
            model.type_id(name),
            "{ctx}: type {name:?}"
        );
    }
    assert_eq!(structural_digest(real), model.digest(), "{ctx}");
    assert_eq!(real.to_string(), model.display(), "{ctx}");
    real.validate().unwrap();
}

const NETS: &[&str] = &[
    "a", "b", "c", "y", "m", "vdd", "gnd", "u1.m", "n0", "n1", "n2",
];
const DEVICES: &[&str] = &[
    "m0", "m1", "m2", "m3", "r1", "u1.mp", "u2.mn", "c#0", "c#1", "mp",
];
const PREFIXES: &[&str] = &["u1", "u2", "u3"];

/// The types a sequence registers or collapses to: `nmos2` and the
/// second `res` clash with `nmos` and `res` by name.
fn type_pool() -> Vec<DeviceType> {
    let two = |name: &str| {
        DeviceType::new(
            name,
            vec![TerminalSpec::new("a", "a"), TerminalSpec::new("y", "y")],
        )
    };
    vec![
        DeviceType::mos("nmos"),
        DeviceType::mos("pmos"),
        DeviceType::two_terminal("res"),
        DeviceType::two_terminal("nmos"),
        two("res"),
        two("inv"),
        DeviceType::polarized("diode"),
    ]
}

/// A netlist and its model, changed together.
#[derive(Clone)]
struct Pair {
    real: Netlist,
    model: Model,
}

impl Pair {
    fn new(name: &str) -> Pair {
        Pair {
            real: Netlist::new(name),
            model: Model::new(name),
        }
    }

    fn add_type(&mut self, ty: &DeviceType) -> Result<DeviceTypeId, NetlistError> {
        let r = self.real.add_type(ty.clone());
        assert_eq!(r, self.model.add_type(ty.clone()));
        r
    }

    fn net(&mut self, name: &str) -> NetId {
        let r = self.real.net(name);
        assert_eq!(r, self.model.net(name));
        r
    }

    fn mark_port(&mut self, n: NetId) {
        self.real.mark_port(n);
        self.model.mark_port(n);
    }

    fn mark_global(&mut self, n: NetId) {
        self.real.mark_global(n);
        self.model.nets[n.index()].global = true;
    }

    fn add_device(
        &mut self,
        name: &str,
        ty: DeviceTypeId,
        pins: &[NetId],
    ) -> Result<DeviceId, NetlistError> {
        let r = self.real.add_device(name, ty, pins);
        assert_eq!(r, self.model.add_device(name, ty, pins));
        r
    }
}

/// Cells a sequence instantiates: an inverter on the rails, a buffer
/// with an internal net, and a resistor cell whose `nmos` type clashes
/// with the MOS one.
fn cells() -> Vec<Pair> {
    let mut inv = Pair::new("inv");
    let (n, p) = (
        inv.add_type(&DeviceType::mos("nmos")).unwrap(),
        inv.add_type(&DeviceType::mos("pmos")).unwrap(),
    );
    let [a, y, vdd, gnd] = ["a", "y", "vdd", "gnd"].map(|s| inv.net(s));
    inv.mark_port(a);
    inv.mark_port(y);
    inv.mark_global(vdd);
    inv.mark_global(gnd);
    inv.add_device("mp", p, &[a, vdd, y]).unwrap();
    inv.add_device("mn", n, &[a, gnd, y]).unwrap();

    let mut buf = Pair::new("buf");
    let [a, m, y] = ["a", "m", "y"].map(|s| buf.net(s));
    buf.mark_port(a);
    buf.mark_port(y);
    for (name, from, to) in [("i1", a, m), ("i2", m, y)] {
        let r = instantiate(&mut buf.real, &inv.real, name, &[from, to]);
        let m = buf.model.instantiate(&inv.model, name, &[from, to]);
        assert_eq!(r.map(|_| ()), m);
    }

    let mut res = Pair::new("res");
    let ty = res.add_type(&DeviceType::two_terminal("nmos")).unwrap();
    let [a, y, gnd] = ["a", "y", "gnd"].map(|s| res.net(s));
    res.mark_port(y);
    res.mark_port(a);
    res.mark_global(gnd);
    res.add_device("r1", ty, &[a, gnd]).unwrap();
    res.add_device("r2", ty, &[gnd, y]).unwrap();
    vec![inv, buf, res]
}

/// A random net id: usually one of `len`, sometimes past the end.
fn some_net(rng: &mut Rng64, len: usize) -> NetId {
    if len == 0 || rng.ratio(1, 20) {
        NetId::new((len + rng.index(3)) as u32)
    } else {
        NetId::new(rng.index(len) as u32)
    }
}

/// `count` random nets, or now and then one too many or too few.
fn some_pins(rng: &mut Rng64, count: usize, nets: usize) -> Vec<NetId> {
    let count = if rng.ratio(1, 12) {
        count + 1 - 2 * usize::from(count > 0 && rng.ratio(1, 2))
    } else {
        count
    };
    (0..count).map(|_| some_net(rng, nets)).collect()
}

fn run_sequence(seed: u64, cells: &[Pair], probes: &[String]) {
    let mut rng = Rng64::new(seed);
    let types = type_pool();
    let mut pair = Pair::new("seq");
    for step in 0..80 {
        let ctx = format!("seed {seed:#x} step {step}");
        let nets = pair.model.nets.len();
        let devices = pair.model.devices.len();
        match rng.index(100) {
            0..=17 => {
                pair.net(NETS[rng.index(NETS.len())]);
            }
            18..=44 => {
                let tys = pair.model.types.len();
                let ty = DeviceTypeId::new(rng.index(tys + 1) as u32);
                let terminals = pair
                    .model
                    .types
                    .get(ty.index())
                    .map_or(3, |t| t.terminal_count());
                let pins = some_pins(&mut rng, terminals, nets);
                let name = DEVICES[rng.index(DEVICES.len())];
                let _ = pair.add_device(name, ty, &pins);
            }
            45..=52 => {
                let _ = pair.add_type(&types[rng.index(types.len())]);
            }
            53..=62 if nets > 0 => {
                let n = NetId::new(rng.index(nets) as u32);
                match rng.index(3) {
                    0 => pair.mark_port(n),
                    1 => pair.mark_global(n),
                    _ => {
                        pair.real.clear_global(n);
                        pair.model.nets[n.index()].global = false;
                    }
                }
            }
            63..=74 => {
                let cell = &cells[rng.index(cells.len())];
                let ports = cell.model.ports.len();
                let bindings = some_pins(&mut rng, ports, nets);
                let prefix = PREFIXES[rng.index(PREFIXES.len())];
                let r = instantiate(&mut pair.real, &cell.real, prefix, &bindings);
                let m = pair.model.instantiate(&cell.model, prefix, &bindings);
                assert_eq!(r.map(|_| ()), m, "{ctx}");
            }
            75..=84 => {
                let absorbed: Vec<DeviceId> = (0..devices as u32)
                    .filter(|_| rng.ratio(1, 3))
                    .map(DeviceId::new)
                    .collect();
                let ty = types[rng.index(types.len())].clone();
                let composites: Vec<(String, Vec<NetId>)> = (0..rng.index(4))
                    .map(|k| {
                        let name = if rng.ratio(1, 3) {
                            DEVICES[rng.index(DEVICES.len())].to_string()
                        } else {
                            format!("c#{k}")
                        };
                        (name, some_pins(&mut rng, ty.terminal_count(), nets))
                    })
                    .collect();
                let before = pair.clone();
                let r = pair
                    .real
                    .collapse(&absorbed, ty.clone(), composites.clone());
                let m = pair.model.collapse(&absorbed, ty, &composites);
                assert_eq!(r, m, "{ctx}");
                if r.is_err() {
                    agree(&pair.real, &before.model, probes, &ctx);
                }
            }
            85..=88 => {
                let picked: Vec<DeviceId> = (0..devices as u32)
                    .filter(|_| rng.ratio(1, 2))
                    .map(DeviceId::new)
                    .collect();
                pair = Pair {
                    real: pair.real.subnetlist("carved", &picked),
                    model: pair.model.subnetlist("carved", &picked),
                };
            }
            89..=91 => {
                pair = Pair {
                    real: pair.real.compact(),
                    model: pair.model.compact(),
                };
            }
            92..=95 => {
                let (real, r) = merge_parallel(&pair.real);
                let (model, m) = pair.model.merge_parallel();
                assert_eq!(r, m, "{ctx}");
                pair = Pair { real, model };
            }
            _ => {
                // The copy changes alone.
                let mut copy = pair.clone();
                copy.net("copy only");
                agree(&pair.real, &pair.model, probes, &ctx);
                pair = copy;
            }
        }
        if rng.ratio(1, 5) {
            agree(&pair.real, &pair.model, probes, &ctx);
        }
    }
    agree(
        &pair.real,
        &pair.model,
        probes,
        &format!("seed {seed:#x} end"),
    );
}

#[test]
fn seeded_sequences_agree_with_the_owned_layout() {
    let cells = cells();
    for cell in &cells {
        agree(
            &cell.real,
            &cell.model,
            &probe_names(),
            cell.model.name.as_str(),
        );
    }
    let probes = probe_names();
    for i in 0..400 {
        run_sequence(0x1a_7007 + i, &cells, &probes);
    }
}
