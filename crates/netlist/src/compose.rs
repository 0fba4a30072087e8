//! Hierarchical composition: instantiating one netlist inside another,
//! and the one flattener both front ends elaborate through.
//!
//! Workload generators and the flattener build large circuits by
//! stamping *cells* (small netlists with ports) into a parent. Port nets
//! bind to caller-supplied nets, global nets unify by name, and internal
//! nets/devices get instance-prefixed fresh names.
//!
//! The SPICE and Verilog front ends supply a [`FrontEnd`]: their cells,
//! the cell an item names, an item's own errors and how one item is
//! added. [`flatten_top`], [`flatten_cell`] and [`flatten_cells`] own
//! the rest: the worklist, cycle detection, the cell memo, both caps and
//! the library pass.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::error::NetlistError;
use crate::id::{DeviceId, DeviceTypeId, NetId};
use crate::netlist::Netlist;
use crate::types::DeviceType;

/// The most devices a front end's flattening may create with
/// [`instantiate`] during one elaboration, devices copied out of
/// memoized cells included. Flattening multiplies (a deck of 40 cells,
/// each instantiating the previous one twice, flattens to 2^40
/// devices), so the flattener stops at this bound on the work and
/// memory a deck of any size can demand, in SPICE and Verilog alike. It is a
/// constant, not an option: it sits far above every deck in this
/// repository and no caller needs another value.
pub const MAX_INSTANTIATED_DEVICES: u64 = 1 << 18;

/// The most name bytes a front end's flattening may have [`instantiate`]
/// mint during one elaboration ([`minted_name_bytes`] per call, summed).
/// Instance paths grow with depth, so a chain of `d` cells each
/// instantiating the next mints about `1.5 d²` bytes per leaf device
/// (`x1.x1.….m1`): flattening is quadratic in the depth however few
/// devices it makes. The flattener stops at this bound, in SPICE and
/// Verilog alike, which such a chain reaches about 26,750 levels deep with one
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
/// every net that is neither a port nor global. The flattener adds it
/// up against [`MAX_INSTANTIATED_NAME_BYTES`] before it instantiates.
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

/// How a front end elaborates instances of its cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElaborateOptions {
    /// If `true` (default), instances are flattened recursively down to
    /// leaf devices. If `false`, each instance becomes a composite
    /// device whose type is the cell's name and whose terminals are its
    /// ports (each port its own equivalence class).
    pub flatten: bool,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        Self { flatten: true }
    }
}

impl ElaborateOptions {
    /// Hierarchical (non-flattening) elaboration.
    pub fn hierarchical() -> Self {
        Self { flatten: false }
    }
}

/// The errors the flattener raises itself, each naming a cell; every
/// front end turns them into its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlattenError {
    /// The cell instantiates itself, directly or indirectly.
    Recursive {
        /// The cell.
        name: String,
    },
    /// An instance of the cell would take the devices [`instantiate`]
    /// creates past [`MAX_INSTANTIATED_DEVICES`].
    Devices {
        /// The cell.
        name: String,
        /// Devices the elaboration would have instantiated with it.
        devices: u64,
    },
    /// An instance of the cell would take the name bytes
    /// [`instantiate`] mints past [`MAX_INSTANTIATED_NAME_BYTES`].
    Names {
        /// The cell.
        name: String,
        /// Name bytes the elaboration would have minted with it.
        bytes: u64,
    },
}

/// The net names a netlist under construction treats as global.
pub trait GlobalNames {
    /// Whether a net named `name` is global.
    fn contains(&self, name: &str) -> bool;
}

impl<S: Borrow<str> + Hash + Eq> GlobalNames for HashSet<S> {
    #[inline]
    fn contains(&self, name: &str) -> bool {
        HashSet::contains(self, name)
    }
}

impl<G: GlobalNames + ?Sized> GlobalNames for &G {
    #[inline]
    fn contains(&self, name: &str) -> bool {
        (**self).contains(name)
    }
}

/// A [`Builder`]'s cache of recently resolved nets has
/// `1 << RECENT_BITS` slots.
const RECENT_BITS: u32 = 7;

/// One slot of the recent-net cache: the [`recent_key`] of a name and
/// the net it resolved to.
#[derive(Clone, Copy, Debug)]
struct Recent {
    key: u32,
    net: NetId,
}

/// An empty slot: no netlist has its net.
const NO_NET: Recent = Recent {
    key: 0,
    net: NetId::new(u32::MAX),
};

/// The recent-net cache key of `name`: its length and its last eight
/// bytes, mixed. Its top bits pick the slot. Names of one length that
/// share their last eight bytes share a key.
#[inline]
fn recent_key(name: &str) -> u32 {
    let b = name.as_bytes();
    let tail = match b.len().checked_sub(8) {
        Some(at) => u64::from_le_bytes(b[at..].try_into().expect("eight bytes")),
        None => b.iter().fold(0, |tail, &x| tail << 8 | u64::from(x)),
    };
    ((tail ^ b.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// A netlist a front end is elaborating, with what is already known
/// about it: the type each key stands for, which nets have been checked
/// against the global names, and the nets it resolved last.
#[derive(Debug)]
pub struct Builder<K, G> {
    nl: Netlist,
    /// Types registered so far. Only the first item of a key goes
    /// through `Netlist::add_type` (so its errors are unchanged); later
    /// ones reuse the id.
    types: Vec<(K, DeviceTypeId)>,
    /// Per net id: already checked against `globals`.
    checked: Vec<bool>,
    globals: G,
    /// The nets of the item being added, reused from item to item.
    pins: Vec<NetId>,
    /// Direct-mapped by [`recent_key`]: the net [`Builder::net`] last
    /// resolved for a name of each slot.
    recent: [Recent; 1 << RECENT_BITS],
}

// The per-card methods are `#[inline]`: a front end's flattener is
// compiled into its own crate, and without the hint they stay calls
// across codegen units, several per card.
impl<K: Copy + Eq, G: GlobalNames> Builder<K, G> {
    /// Starts building `nl`, whose nets named in `globals` are global.
    pub fn new(nl: Netlist, globals: G) -> Self {
        Self {
            nl,
            types: Vec::new(),
            checked: Vec::new(),
            globals,
            pins: Vec::new(),
            recent: [NO_NET; 1 << RECENT_BITS],
        }
    }

    /// The type `key` stands for: `make`'s, registered (and failing) as
    /// [`Netlist::add_type`] does the first time the key is met.
    #[inline]
    pub fn ty(
        &mut self,
        key: K,
        make: impl FnOnce() -> DeviceType,
    ) -> Result<DeviceTypeId, NetlistError> {
        self.try_ty(key, || Ok(make()))
    }

    /// [`Builder::ty`] for a type whose making can fail.
    #[inline]
    pub fn try_ty<E: From<NetlistError>>(
        &mut self,
        key: K,
        make: impl FnOnce() -> Result<DeviceType, E>,
    ) -> Result<DeviceTypeId, E> {
        if let Some(&(_, id)) = self.types.iter().find(|(k, _)| *k == key) {
            return Ok(id);
        }
        let id = self.nl.add_type(make()?)?;
        self.types.push((key, id));
        Ok(id)
    }

    /// [`Netlist::add_type`], every time: for a type no key stands for.
    pub fn add_type(&mut self, ty: DeviceType) -> Result<DeviceTypeId, NetlistError> {
        self.nl.add_type(ty)
    }

    /// The net named `name`, created if new, marked global the first
    /// time this builder sees it if the name is global.
    ///
    /// A name resolved lately is found in a small cache, confirmed by
    /// comparing it with the net's name: a builder only adds nets, so a
    /// name keeps its id, and the net was checked when it was cached.
    #[inline]
    pub fn net(&mut self, name: &str) -> NetId {
        let key = recent_key(name);
        let slot = (key >> (32 - RECENT_BITS)) as usize;
        let Recent { key: seen, net } = self.recent[slot];
        if seen == key && net.index() < self.nl.net_count() && self.nl.net_ref(net).name() == name {
            return net;
        }
        let id = self.nl.net(name);
        self.recent[slot] = Recent { key, net: id };
        let i = id.index();
        if i >= self.checked.len() {
            self.checked.resize(i + 1, false);
        }
        if !self.checked[i] {
            self.checked[i] = true;
            if self.globals.contains(name) {
                self.nl.mark_global(id);
            }
        }
        id
    }

    /// The net named `name`, marked a port.
    pub fn port(&mut self, name: &str) {
        let id = self.net(name);
        self.nl.mark_port(id);
    }

    /// [`Netlist::add_device`] on the nets named `nets`, in terminal
    /// order.
    #[inline]
    pub fn device<'n>(
        &mut self,
        name: &str,
        ty: DeviceTypeId,
        nets: impl IntoIterator<Item = &'n str>,
    ) -> Result<DeviceId, NetlistError> {
        self.bind(nets);
        self.nl.add_device(name, ty, &self.pins)
    }

    /// The nets named `nets`, for the instance the flattener is about
    /// to stamp, in its cell's port order.
    #[inline]
    pub fn bind<'n>(&mut self, nets: impl IntoIterator<Item = &'n str>) {
        self.pins.clear();
        for name in nets {
            let id = self.net(name);
            self.pins.push(id);
        }
    }
}

/// What a front end supplies to the one flattener ([`flatten_top`],
/// [`flatten_cell`], [`flatten_cells`]): its cells, the cell an item
/// names, an item's own errors, how a cell starts and how one item is
/// added. The worklist, cycle detection, the cell memo, both caps and
/// the library pass are the flattener's.
pub trait FrontEnd<'d> {
    /// One card or instance of a cell's body.
    type Item: 'd;
    /// What decides an item's device type: equal keys, equal types.
    type Key: Copy + Eq;
    /// The net names a cell's netlist treats as global.
    type Globals: GlobalNames;
    /// The front end's error.
    type Error: From<NetlistError> + From<FlattenError>;
    /// Whether a name defined twice resolves to its later definition
    /// (else to its first).
    const LAST_DEFINITION_WINS: bool;

    /// The number of cells (definitions).
    fn cell_count(&self) -> usize;
    /// Cell `cell`'s name.
    fn cell_name(&self, cell: usize) -> &'d str;
    /// Cell `cell`'s body.
    fn body(&self, cell: usize) -> &'d [Self::Item];
    /// The items outside every cell: a top level.
    fn top(&self) -> &'d [Self::Item] {
        &[]
    }
    /// The cell name `item` instantiates; `None` for a leaf item.
    fn target(&self, item: &'d Self::Item) -> Option<&'d str>;
    /// `item`'s own errors that come before `cell`, the cell it names
    /// (if defined), is elaborated.
    fn check(&self, item: &'d Self::Item, cell: Option<usize>) -> Result<(), Self::Error>;
    /// Cell `cell`'s netlist as it starts: its ports marked.
    fn start(&self, cell: usize) -> Builder<Self::Key, Self::Globals>;
    /// Adds `item` to `out` as one device: a leaf item, an item naming
    /// no cell, or, when not flattening, an instance of `cell` kept as a
    /// composite device.
    fn add(
        &self,
        out: &mut Builder<Self::Key, Self::Globals>,
        item: &'d Self::Item,
        cell: Option<usize>,
    ) -> Result<(), Self::Error>;
    /// Binds the nets of `item`, an instance of `cell`, to the ports of
    /// `child`, the cell's netlist as [`FrontEnd::finish`] handed it
    /// out, in their order ([`Builder::bind`]); returns the instance
    /// name.
    fn bind(
        &self,
        out: &mut Builder<Self::Key, Self::Globals>,
        item: &'d Self::Item,
        cell: usize,
        child: &Netlist,
    ) -> Result<&'d str, Self::Error>;
    /// A finished netlist as the front end hands it out.
    fn finish(&self, nl: Netlist) -> Netlist {
        nl
    }
}

/// Elaborates `fe`'s top level ([`FrontEnd::top`]) into `out`, a
/// netlist the caller started.
///
/// # Errors
///
/// The first error a depth-first walk meets: the front end's, a
/// [`FlattenError`], or the netlist's.
pub fn flatten_top<'d, F: FrontEnd<'d>>(
    fe: &F,
    opts: &ElaborateOptions,
    out: Builder<F::Key, F::Globals>,
) -> Result<Netlist, F::Error> {
    Flattener::new(fe, opts).run(Frame {
        cell: None,
        items: fe.top(),
        next: 0,
        out: Some(Box::new(out)),
    })
}

/// Elaborates cell `cell` into a standalone netlist with its ports
/// marked.
///
/// # Errors
///
/// As [`flatten_top`].
pub fn flatten_cell<'d, F: FrontEnd<'d>>(
    fe: &F,
    opts: &ElaborateOptions,
    cell: usize,
) -> Result<Netlist, F::Error> {
    let mut flattener = Flattener::new(fe, opts);
    let root = flattener.open(cell);
    flattener.run(root)
}

/// Elaborates every cell, one netlist per definition in definition
/// order, through one memo: a cell other cells instantiate is
/// elaborated once, not once per cell that reaches it, and a name
/// defined twice gives both positions the definition it resolves to.
/// Equivalent to [`flatten_cell`] on each position in turn, down to
/// which error comes first.
///
/// # Errors
///
/// As [`flatten_top`]; the caps count the whole library.
pub fn flatten_cells<'d, F: FrontEnd<'d>>(
    fe: &F,
    opts: &ElaborateOptions,
) -> Result<Vec<Netlist>, F::Error> {
    let mut flattener = Flattener::new(fe, opts);
    // Every cell is also an output: keep them all.
    flattener.uses.fill(u32::MAX);
    let order: Vec<usize> = (0..fe.cell_count())
        .map(|def| flattener.index[fe.cell_name(def)])
        .collect();
    for &cell in &order {
        if flattener.memo[cell].is_none() {
            let root = flattener.open(cell);
            let nl = flattener.run(root)?;
            flattener.memo[cell] = Some(Box::new(nl));
        }
    }
    // Hand each netlist to the last position that wants it; clone it
    // for the positions before.
    let mut wanted = vec![0usize; fe.cell_count()];
    for &cell in &order {
        wanted[cell] += 1;
    }
    Ok(order
        .iter()
        .map(|&cell| {
            wanted[cell] -= 1;
            let memo = &mut flattener.memo[cell];
            let nl = if wanted[cell] == 0 {
                memo.take()
            } else {
                memo.clone()
            };
            *nl.expect("elaborated above")
        })
        .collect())
}

/// One netlist on the worklist: its items and how far it has got.
struct Frame<'d, F: FrontEnd<'d>> {
    /// The cell being elaborated; `None` for the top level.
    cell: Option<usize>,
    items: &'d [F::Item],
    next: usize,
    /// Started when the first item adds to it, so the frames of a chain
    /// waiting on the cells below them hold no netlist.
    out: Option<Box<Builder<F::Key, F::Globals>>>,
}

/// Elaborates cells from an explicit worklist rather than by recursion,
/// so nesting depth costs heap, not stack. The visiting order is the
/// depth-first order a recursive walk would take, and only cells
/// reachable from what is being elaborated are visited.
struct Flattener<'f, 'd, F: FrontEnd<'d>> {
    fe: &'f F,
    /// [`ElaborateOptions::flatten`].
    flatten: bool,
    /// Cell name → the definition it resolves to.
    index: HashMap<&'d str, usize>,
    /// Flattening, per cell: its netlist once elaborated, until the last
    /// instance that can flatten it has. Boxed: a source may define
    /// hundreds of thousands of cells.
    memo: Vec<Option<Box<Netlist>>>,
    /// Flattening, per cell: items naming it that have not been
    /// flattened yet.
    uses: Vec<u32>,
    /// Per cell: on the worklist now, so meeting it again is a cycle.
    open: Vec<bool>,
    /// Devices `instantiate` has created so far.
    instantiated: u64,
    /// Name bytes `instantiate` has minted so far.
    minted: u64,
}

impl<'f, 'd, F: FrontEnd<'d>> Flattener<'f, 'd, F> {
    fn new(fe: &'f F, opts: &ElaborateOptions) -> Self {
        let n = fe.cell_count();
        let mut index = HashMap::with_capacity(n);
        for cell in 0..n {
            let name = fe.cell_name(cell);
            if F::LAST_DEFINITION_WINS {
                index.insert(name, cell);
            } else {
                index.entry(name).or_insert(cell);
            }
        }
        let mut uses = vec![0u32; n];
        if opts.flatten {
            let bodies = (0..n).flat_map(|cell| fe.body(cell));
            for item in fe.top().iter().chain(bodies) {
                if let Some(&cell) = fe.target(item).and_then(|name| index.get(name)) {
                    uses[cell] += 1;
                }
            }
        }
        Self {
            fe,
            flatten: opts.flatten,
            index,
            memo: vec![None; n],
            uses,
            open: vec![false; n],
            instantiated: 0,
            minted: 0,
        }
    }

    /// Puts cell `cell` on the worklist.
    fn open(&mut self, cell: usize) -> Frame<'d, F> {
        self.open[cell] = true;
        Frame {
            cell: Some(cell),
            items: self.fe.body(cell),
            next: 0,
            out: None,
        }
    }

    /// Elaborates `root`, first elaborating each cell it flattens the
    /// first time one of its items needs it; the item is retried once
    /// the cell is done.
    fn run(&mut self, root: Frame<'d, F>) -> Result<Netlist, F::Error> {
        let fe = self.fe;
        let mut stack = vec![root];
        loop {
            let frame = stack.last_mut().expect("the root stays until it returns");
            let (items, at) = (frame.items, frame.cell);
            let Some(item) = items.get(frame.next) else {
                let done = stack.pop().expect("checked above");
                let out = match done.out {
                    Some(out) => out.nl,
                    None => {
                        fe.start(at.expect("the top level starts with its netlist"))
                            .nl
                    }
                };
                let nl = fe.finish(out);
                if let Some(cell) = at {
                    self.open[cell] = false;
                }
                match (stack.is_empty(), at) {
                    (false, Some(cell)) => self.memo[cell] = Some(Box::new(nl)),
                    _ => return Ok(nl),
                }
                continue;
            };
            let cell = fe
                .target(item)
                .and_then(|name| self.index.get(name).copied());
            fe.check(item, cell)?;
            let flat = cell.filter(|_| self.flatten);
            if let Some(cell) = flat.filter(|&cell| self.memo[cell].is_none()) {
                if self.open[cell] {
                    let name = fe.cell_name(cell).to_string();
                    return Err(FlattenError::Recursive { name }.into());
                }
                let child = self.open(cell);
                stack.push(child);
                continue;
            }
            let out = frame.out.get_or_insert_with(|| {
                Box::new(fe.start(at.expect("the top level starts with its netlist")))
            });
            match flat {
                Some(cell) => self.stamp(out, item, cell)?,
                None => fe.add(out, item, cell)?,
            }
            frame.next += 1;
        }
    }

    /// Flattens `item`, an instance of the elaborated cell `cell`, into
    /// `out`, if neither cap would be crossed.
    fn stamp(
        &mut self,
        out: &mut Builder<F::Key, F::Globals>,
        item: &'d F::Item,
        cell: usize,
    ) -> Result<(), F::Error> {
        let nl = self.memo[cell]
            .as_deref()
            .expect("a cell is elaborated before its instances");
        let prefix = self.fe.bind(out, item, cell, nl)?;
        let name = || self.fe.cell_name(cell).to_string();
        let devices = self.instantiated + nl.device_count() as u64;
        if devices > MAX_INSTANTIATED_DEVICES {
            return Err(FlattenError::Devices {
                name: name(),
                devices,
            }
            .into());
        }
        let bytes = self.minted + minted_name_bytes(nl, prefix);
        if bytes > MAX_INSTANTIATED_NAME_BYTES {
            return Err(FlattenError::Names {
                name: name(),
                bytes,
            }
            .into());
        }
        instantiate(&mut out.nl, nl, prefix, &out.pins)?;
        self.instantiated = devices;
        self.minted = bytes;
        self.uses[cell] -= 1;
        if self.uses[cell] == 0 {
            self.memo[cell] = None;
        }
        Ok(())
    }
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
    fn names_of_one_length_and_tail_share_a_recent_key() {
        // What `tests/net_cache_soundness.rs` relies on.
        let key = recent_key("w000_same_tail");
        for i in 1..48 {
            assert_eq!(recent_key(&format!("w{i:03}_same_tail")), key);
        }
        assert_ne!(recent_key("vdd"), recent_key("gnd"));
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
