//! [`CompiledCircuit`]: an owned, immutable CSR snapshot of a
//! [`Netlist`].
//!
//! Every hot loop in the workspace — Gemini refinement, Phase I
//! relabeling, Phase II spreading, extraction — walks the bipartite
//! device/net graph. Compiling the netlist once into flat
//! `row_offsets`/`neighbor`/`multiplicity` arrays (both directions),
//! with initial labels, degrees, and global/port flags precomputed,
//! makes those loops touch nothing but dense arrays, and the owned
//! representation is `Arc`-shareable across patterns, worker threads,
//! and extraction passes.
//!
//! Compilation happens in one pass over the netlist and never mutates:
//! a `CompiledCircuit` is a snapshot. Rebuild it when the netlist
//! changes (the extractor does so only after a pass actually replaced
//! devices).
//!
//! Invariants (checked by the equivalence test suite):
//!
//! * `dev_pin_start.len() == device_count + 1`, and the slice
//!   `[dev_pin_start[d], dev_pin_start[d+1])` of `dev_pin_net` /
//!   `dev_pin_mult` lists device `d`'s pins in terminal order;
//! * symmetrically for nets, in (device, terminal) order — the
//!   transpose of the device side, which is the order the netlist
//!   lists each net's pins in;
//! * `dev_init[d]` is the hash of the device's type name;
//!   `net_init[n]` is the degree hash, or the fixed name-derived label
//!   for globals;
//! * class multipliers are odd, so weighted contribution sums are
//!   invariant under within-class pin swaps.

use std::sync::Arc;

use crate::hashing;
use crate::id::{DeviceId, NetId};
use crate::netlist::Netlist;

/// The neighbor-contribution accumulator returned by the relabeling
/// helpers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Contribs {
    /// Wrapping sum of `class_multiplier × neighbor_label` over the
    /// neighbors whose labels were supplied.
    pub sum: u64,
    /// Number of neighbors whose labels were supplied.
    pub used: usize,
    /// Number of neighbors skipped (callback returned `None`).
    pub skipped: usize,
}

/// Borrowed view of every field of a [`CompiledCircuit`], in
/// declaration order. Used by the artifact codec to serialize the
/// snapshot without exposing the fields publicly.
pub(crate) struct RawPartsRef<'a> {
    pub dev_pin_start: &'a [u32],
    pub dev_pin_net: &'a [NetId],
    pub dev_pin_mult: &'a [u64],
    pub net_pin_start: &'a [u32],
    pub net_pin_dev: &'a [DeviceId],
    pub net_pin_mult: &'a [u64],
    pub dev_init: &'a [u64],
    pub net_init: &'a [u64],
    pub dev_type: &'a [u32],
    pub type_names: &'a [String],
    pub net_global: &'a [bool],
    pub net_port: &'a [bool],
    pub globals: &'a [(String, NetId)],
    pub ports: &'a [NetId],
}

/// Owned counterpart of [`RawPartsRef`], consumed by
/// [`CompiledCircuit::from_raw_parts`].
pub(crate) struct RawParts {
    pub dev_pin_start: Vec<u32>,
    pub dev_pin_net: Vec<NetId>,
    pub dev_pin_mult: Vec<u64>,
    pub net_pin_start: Vec<u32>,
    pub net_pin_dev: Vec<DeviceId>,
    pub net_pin_mult: Vec<u64>,
    pub dev_init: Vec<u64>,
    pub net_init: Vec<u64>,
    pub dev_type: Vec<u32>,
    pub type_names: Vec<String>,
    pub net_global: Vec<bool>,
    pub net_port: Vec<bool>,
    pub globals: Vec<(String, NetId)>,
    pub ports: Vec<NetId>,
}

/// An owned, immutable, query-optimized bipartite snapshot of a
/// netlist.
///
/// A `CompiledCircuit` does not borrow the netlist: wrap it in an
/// [`Arc`] and share it across threads and repeated searches.
///
/// Representing nets as first-class vertices (rather than cliques of
/// device-device edges) is the paper's §II modeling decision: it
/// reduces `N(N−1)/2` edges to `N` and exposes net structure to
/// partitioning.
///
/// # Examples
///
/// ```
/// use subgemini_netlist::{CompiledCircuit, Netlist};
///
/// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
/// let mut nl = Netlist::new("inv");
/// let mos = nl.add_mos_types();
/// let (a, y, vdd, gnd) = (nl.net("a"), nl.net("y"), nl.net("vdd"), nl.net("gnd"));
/// nl.add_device("mp", mos.pmos, &[a, vdd, y])?;
/// nl.add_device("mn", mos.nmos, &[a, gnd, y])?;
/// let g = std::sync::Arc::new(CompiledCircuit::compile(&nl));
/// assert_eq!(g.device_count(), 2);
/// assert_eq!(g.net_degree(y), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledCircuit {
    // Device -> net CSR.
    dev_pin_start: Vec<u32>,
    dev_pin_net: Vec<NetId>,
    dev_pin_mult: Vec<u64>,
    // Net -> device CSR.
    net_pin_start: Vec<u32>,
    net_pin_dev: Vec<DeviceId>,
    net_pin_mult: Vec<u64>,
    // Precomputed labeling material.
    dev_init: Vec<u64>,
    net_init: Vec<u64>,
    // Interned device-type labels: `dev_type[d]` indexes `type_names`.
    dev_type: Vec<u32>,
    type_names: Vec<String>,
    // Net flags.
    net_global: Vec<bool>,
    net_port: Vec<bool>,
    // Global nets as (name, id), sorted by name for binary search.
    globals: Vec<(String, NetId)>,
    // Ports in declaration order (the netlist's port contract).
    ports: Vec<NetId>,
}

impl CompiledCircuit {
    /// Compiles `netlist` into its CSR snapshot: one pass over the
    /// devices, then their transpose for the nets. The netlist's own
    /// net pin table is neither read nor built.
    pub fn compile(netlist: &Netlist) -> Self {
        let nd = netlist.device_count();
        let nn = netlist.net_count();

        // Intern device types once; per-device work is then index math.
        let type_names: Vec<String> = netlist
            .device_types()
            .iter()
            .map(|t| t.name().to_string())
            .collect();
        let type_inits: Vec<u64> = netlist
            .device_types()
            .iter()
            .map(|t| t.initial_label())
            .collect();

        let mut dev_pin_start = Vec::with_capacity(nd + 1);
        let mut dev_pin_net = Vec::with_capacity(netlist.pin_count());
        let mut dev_pin_mult = Vec::with_capacity(netlist.pin_count());
        let mut dev_type = Vec::with_capacity(nd);
        let mut dev_init = Vec::with_capacity(nd);
        dev_pin_start.push(0);
        for d in netlist.device_ids() {
            let dev = netlist.device(d);
            let ty = netlist.device_type(dev.type_id());
            dev_pin_net.extend_from_slice(dev.pins());
            dev_pin_mult.extend((0..dev.pins().len()).map(|i| ty.class_multiplier(i)));
            dev_pin_start.push(dev_pin_net.len() as u32);
            dev_type.push(dev.type_id().index() as u32);
            dev_init.push(type_inits[dev.type_id().index()]);
        }

        // Net -> device CSR: the transpose of the device side, so each
        // net lists its pins in (device, terminal) order, as the netlist
        // does.
        let mut net_pin_start = vec![0u32; nn + 1];
        for n in &dev_pin_net {
            net_pin_start[n.index() + 1] += 1;
        }
        for i in 0..nn {
            net_pin_start[i + 1] += net_pin_start[i];
        }
        let mut next = net_pin_start[..nn].to_vec();
        let mut net_pin_dev = vec![DeviceId::new(0); dev_pin_net.len()];
        let mut net_pin_mult = vec![0; dev_pin_net.len()];
        for d in 0..nd {
            for p in dev_pin_start[d] as usize..dev_pin_start[d + 1] as usize {
                let slot = &mut next[dev_pin_net[p].index()];
                net_pin_dev[*slot as usize] = DeviceId::new(d as u32);
                net_pin_mult[*slot as usize] = dev_pin_mult[p];
                *slot += 1;
            }
        }
        let mut net_init = Vec::with_capacity(nn);
        let mut net_global = Vec::with_capacity(nn);
        let mut net_port = Vec::with_capacity(nn);
        let mut globals: Vec<(String, NetId)> = Vec::new();
        for n in netlist.net_ids() {
            let net = netlist.net_ref(n);
            if net.is_global() {
                net_init.push(hashing::global_net_label(net.name()));
                globals.push((net.name().to_string(), n));
            } else {
                let degree = net_pin_start[n.index() + 1] - net_pin_start[n.index()];
                net_init.push(hashing::net_degree_label(degree as usize));
            }
            net_global.push(net.is_global());
            net_port.push(net.is_port());
        }
        globals.sort_by(|a, b| a.0.cmp(&b.0));

        Self {
            dev_pin_start,
            dev_pin_net,
            dev_pin_mult,
            net_pin_start,
            net_pin_dev,
            net_pin_mult,
            dev_init,
            net_init,
            dev_type,
            type_names,
            net_global,
            net_port,
            globals,
            ports: netlist.ports().to_vec(),
        }
    }

    /// Compiles straight into an [`Arc`] for sharing.
    pub fn compile_shared(netlist: &Netlist) -> Arc<Self> {
        Arc::new(Self::compile(netlist))
    }

    /// Borrowed view of every field, for the artifact codec.
    pub(crate) fn raw_parts(&self) -> RawPartsRef<'_> {
        RawPartsRef {
            dev_pin_start: &self.dev_pin_start,
            dev_pin_net: &self.dev_pin_net,
            dev_pin_mult: &self.dev_pin_mult,
            net_pin_start: &self.net_pin_start,
            net_pin_dev: &self.net_pin_dev,
            net_pin_mult: &self.net_pin_mult,
            dev_init: &self.dev_init,
            net_init: &self.net_init,
            dev_type: &self.dev_type,
            type_names: &self.type_names,
            net_global: &self.net_global,
            net_port: &self.net_port,
            globals: &self.globals,
            ports: &self.ports,
        }
    }

    /// Reassembles a snapshot from deserialized parts, re-checking every
    /// structural invariant the compiler guarantees: CSR offset shape,
    /// index bounds, mirror consistency of the two pin directions, odd
    /// class multipliers, label material recomputed from names and
    /// degrees, and the sorted global directory. An artifact that passes
    /// is indistinguishable from a fresh [`compile`](Self::compile) of
    /// the same netlist.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub(crate) fn from_raw_parts(p: RawParts) -> Result<Self, String> {
        let nd = p.dev_init.len();
        let nn = p.net_init.len();
        let np = p.dev_pin_net.len();

        check_csr("device", &p.dev_pin_start, nd, np)?;
        check_csr("net", &p.net_pin_start, nn, p.net_pin_dev.len())?;
        if p.dev_pin_mult.len() != np || p.net_pin_mult.len() != p.net_pin_dev.len() {
            return Err("multiplicity array length mismatch".into());
        }
        if p.net_pin_dev.len() != np {
            return Err("pin count differs between CSR directions".into());
        }
        if p.dev_type.len() != nd {
            return Err("dev_type length mismatch".into());
        }
        if p.net_global.len() != nn || p.net_port.len() != nn {
            return Err("net flag array length mismatch".into());
        }
        for &n in &p.dev_pin_net {
            if n.index() >= nn {
                return Err(format!("pin references net {} out of range", n.raw()));
            }
        }
        for &d in &p.net_pin_dev {
            if d.index() >= nd {
                return Err(format!("pin references device {} out of range", d.raw()));
            }
        }
        for &t in &p.dev_type {
            if t as usize >= p.type_names.len() {
                return Err(format!("device type index {t} out of range"));
            }
        }
        for &m in p.dev_pin_mult.iter().chain(&p.net_pin_mult) {
            if m & 1 == 0 {
                return Err("even class multiplier".into());
            }
        }

        // The two CSR directions must describe the same pin multiset.
        let mut fwd: Vec<(u32, u32, u64)> = Vec::with_capacity(np);
        for d in 0..nd {
            let (lo, hi) = (p.dev_pin_start[d] as usize, p.dev_pin_start[d + 1] as usize);
            for i in lo..hi {
                fwd.push((d as u32, p.dev_pin_net[i].raw(), p.dev_pin_mult[i]));
            }
        }
        let mut rev: Vec<(u32, u32, u64)> = Vec::with_capacity(np);
        for n in 0..nn {
            let (lo, hi) = (p.net_pin_start[n] as usize, p.net_pin_start[n + 1] as usize);
            for i in lo..hi {
                rev.push((p.net_pin_dev[i].raw(), n as u32, p.net_pin_mult[i]));
            }
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        if fwd != rev {
            return Err("CSR directions disagree on the pin multiset".into());
        }

        // Label material must match what compile() derives from names
        // and degrees.
        let type_inits: Vec<u64> = p
            .type_names
            .iter()
            .map(|name| hashing::mix(hashing::fnv1a("type:") ^ hashing::fnv1a(name)))
            .collect();
        for d in 0..nd {
            if p.dev_init[d] != type_inits[p.dev_type[d] as usize] {
                return Err(format!("device {d} initial label mismatch"));
            }
        }

        // Global directory: sorted, deduplicated, flags consistent.
        for w in p.globals.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err("global directory not strictly sorted by name".into());
            }
        }
        for (name, n) in &p.globals {
            if n.index() >= nn || !p.net_global[n.index()] {
                return Err(format!("global `{name}` not flagged global"));
            }
        }
        if p.globals.len() != p.net_global.iter().filter(|&&g| g).count() {
            return Err("global flag count disagrees with the directory".into());
        }
        let mut global_name = vec![None; nn];
        for (name, n) in &p.globals {
            global_name[n.index()] = Some(name.as_str());
        }
        for (n, name) in global_name.iter().enumerate() {
            let degree = (p.net_pin_start[n + 1] - p.net_pin_start[n]) as usize;
            let expect = match name {
                Some(name) => hashing::global_net_label(name),
                None => hashing::net_degree_label(degree),
            };
            if p.net_init[n] != expect {
                return Err(format!("net {n} initial label mismatch"));
            }
        }
        for &n in &p.ports {
            if n.index() >= nn || !p.net_port[n.index()] {
                return Err(format!("port net {} not flagged port", n.raw()));
            }
        }
        if p.ports.len() != p.net_port.iter().filter(|&&f| f).count() {
            return Err("port flag count disagrees with the port list".into());
        }

        Ok(Self {
            dev_pin_start: p.dev_pin_start,
            dev_pin_net: p.dev_pin_net,
            dev_pin_mult: p.dev_pin_mult,
            net_pin_start: p.net_pin_start,
            net_pin_dev: p.net_pin_dev,
            net_pin_mult: p.net_pin_mult,
            dev_init: p.dev_init,
            net_init: p.net_init,
            dev_type: p.dev_type,
            type_names: p.type_names,
            net_global: p.net_global,
            net_port: p.net_port,
            globals: p.globals,
            ports: p.ports,
        })
    }

    /// Number of device vertices.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.dev_init.len()
    }

    /// Number of net vertices.
    #[inline]
    pub fn net_count(&self) -> usize {
        self.net_init.len()
    }

    /// Total pin (edge) count.
    #[inline]
    pub fn pin_count(&self) -> usize {
        self.dev_pin_net.len()
    }

    /// Whether net `n` is a special global signal.
    #[inline]
    pub fn is_global(&self, n: NetId) -> bool {
        self.net_global[n.index()]
    }

    /// Whether net `n` is an external port.
    #[inline]
    pub fn is_port(&self, n: NetId) -> bool {
        self.net_port[n.index()]
    }

    /// The ports, in declaration order.
    #[inline]
    pub fn ports(&self) -> &[NetId] {
        &self.ports
    }

    /// The global nets as `(name, id)`, sorted by name.
    #[inline]
    pub fn globals(&self) -> &[(String, NetId)] {
        &self.globals
    }

    /// Looks up a global net by name.
    pub fn find_global(&self, name: &str) -> Option<NetId> {
        self.globals
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.globals[i].1)
    }

    /// Degree of device `d` (number of terminals).
    #[inline]
    pub fn device_degree(&self, d: DeviceId) -> usize {
        (self.dev_pin_start[d.index() + 1] - self.dev_pin_start[d.index()]) as usize
    }

    /// Degree of net `n` (number of pins).
    #[inline]
    pub fn net_degree(&self, n: NetId) -> usize {
        (self.net_pin_start[n.index() + 1] - self.net_pin_start[n.index()]) as usize
    }

    /// The nets adjacent to device `d`, each with the class multiplier
    /// of the connecting terminal.
    #[inline]
    pub fn device_neighbors(
        &self,
        d: DeviceId,
    ) -> impl ExactSizeIterator<Item = (NetId, u64)> + '_ {
        let lo = self.dev_pin_start[d.index()] as usize;
        let hi = self.dev_pin_start[d.index() + 1] as usize;
        self.dev_pin_net[lo..hi]
            .iter()
            .copied()
            .zip(self.dev_pin_mult[lo..hi].iter().copied())
    }

    /// The devices adjacent to net `n`, each with the class multiplier
    /// of the connecting terminal.
    #[inline]
    pub fn net_neighbors(&self, n: NetId) -> impl ExactSizeIterator<Item = (DeviceId, u64)> + '_ {
        let lo = self.net_pin_start[n.index()] as usize;
        let hi = self.net_pin_start[n.index() + 1] as usize;
        self.net_pin_dev[lo..hi]
            .iter()
            .copied()
            .zip(self.net_pin_mult[lo..hi].iter().copied())
    }

    /// Initial (vertex-invariant) label of device `d`: a hash of its
    /// type name.
    #[inline]
    pub fn initial_device_label(&self, d: DeviceId) -> u64 {
        self.dev_init[d.index()]
    }

    /// Initial label of net `n`: its degree hash, or the fixed global
    /// label for special nets.
    #[inline]
    pub fn initial_net_label(&self, n: NetId) -> u64 {
        self.net_init[n.index()]
    }

    /// Accumulates the weighted label contributions of the nets around
    /// device `d`. `label_of` returns `None` to skip a neighbor
    /// (corrupt in Phase I, suspect in Phase II).
    #[inline]
    pub fn device_contribs(
        &self,
        d: DeviceId,
        mut label_of: impl FnMut(NetId) -> Option<u64>,
    ) -> Contribs {
        let mut c = Contribs::default();
        for (n, mult) in self.device_neighbors(d) {
            match label_of(n) {
                Some(l) => {
                    c.sum = c.sum.wrapping_add(mult.wrapping_mul(l));
                    c.used += 1;
                }
                None => c.skipped += 1,
            }
        }
        c
    }

    /// Accumulates the weighted label contributions of the devices
    /// around net `n`; see [`CompiledCircuit::device_contribs`].
    #[inline]
    pub fn net_contribs(
        &self,
        n: NetId,
        mut label_of: impl FnMut(DeviceId) -> Option<u64>,
    ) -> Contribs {
        let mut c = Contribs::default();
        for (d, mult) in self.net_neighbors(n) {
            match label_of(d) {
                Some(l) => {
                    c.sum = c.sum.wrapping_add(mult.wrapping_mul(l));
                    c.used += 1;
                }
                None => c.skipped += 1,
            }
        }
        c
    }
}

/// Checks that `start` is a well-formed CSR offset array for `rows`
/// rows over `entries` entries: length `rows + 1`, starts at 0,
/// monotone, and ends at `entries`.
fn check_csr(what: &str, start: &[u32], rows: usize, entries: usize) -> Result<(), String> {
    if start.len() != rows + 1 {
        return Err(format!("{what} CSR offset length mismatch"));
    }
    if start[0] != 0 || start[rows] as usize != entries {
        return Err(format!("{what} CSR offsets do not span the entry array"));
    }
    for w in start.windows(2) {
        if w[0] > w[1] {
            return Err(format!("{what} CSR offsets not monotone"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::MosTypes;

    fn inverter(globals: bool) -> Netlist {
        let mut nl = Netlist::new("inv");
        let MosTypes { nmos, pmos } = nl.add_mos_types();
        let (a, y, vdd, gnd) = (nl.net("a"), nl.net("y"), nl.net("vdd"), nl.net("gnd"));
        if globals {
            nl.mark_global(vdd);
            nl.mark_global(gnd);
        }
        nl.mark_port(a);
        nl.mark_port(y);
        nl.add_device("mp", pmos, &[a, vdd, y]).unwrap();
        nl.add_device("mn", nmos, &[a, gnd, y]).unwrap();
        nl
    }

    #[test]
    fn compiled_is_owned_and_shareable() {
        let g = {
            let nl = inverter(true);
            CompiledCircuit::compile_shared(&nl)
        };
        // The netlist is gone; the snapshot still answers queries.
        assert_eq!(g.device_count(), 2);
        assert_eq!(g.net_count(), 4);
        let g2 = Arc::clone(&g);
        std::thread::spawn(move || assert_eq!(g2.net_count(), 4))
            .join()
            .unwrap();
    }

    #[test]
    fn type_interning_and_degrees() {
        let nl = inverter(false);
        let g = CompiledCircuit::compile(&nl);
        let mp = nl.find_device("mp").unwrap();
        let mn = nl.find_device("mn").unwrap();
        let type_name = |d: DeviceId| g.type_names[g.dev_type[d.index()] as usize].as_str();
        assert_eq!(type_name(mp), "pmos");
        assert_eq!(type_name(mn), "nmos");
        assert_ne!(g.dev_type[mp.index()], g.dev_type[mn.index()]);
        assert_eq!(g.device_degree(mp), 3);
        assert_eq!(g.net_degree(nl.find_net("a").unwrap()), 2);
        assert_eq!(g.pin_count(), 6);
    }

    #[test]
    fn global_and_port_flags_survive_compilation() {
        let nl = inverter(true);
        let g = CompiledCircuit::compile(&nl);
        let (a, vdd) = (nl.find_net("a").unwrap(), nl.find_net("vdd").unwrap());
        assert!(g.is_port(a) && !g.is_global(a));
        assert!(g.is_global(vdd) && !g.is_port(vdd));
        assert_eq!(g.find_global("vdd"), Some(vdd));
        assert_eq!(g.find_global("a"), None);
        assert_eq!(g.ports(), nl.ports());
        assert_eq!(g.globals().len(), 2);
    }

    #[test]
    fn initial_labels_partition_types_and_degrees() {
        let nl = inverter(false);
        let g = CompiledCircuit::compile(&nl);
        let mp = nl.find_device("mp").unwrap();
        let mn = nl.find_device("mn").unwrap();
        assert_ne!(
            g.initial_device_label(mp),
            g.initial_device_label(mn),
            "pmos vs nmos must partition apart"
        );
        let a = nl.find_net("a").unwrap();
        let y = nl.find_net("y").unwrap();
        // Both degree 2 => same initial partition.
        assert_eq!(g.initial_net_label(a), g.initial_net_label(y));
        // Globals are labeled by name, not degree.
        let nl = inverter(true);
        let g = CompiledCircuit::compile(&nl);
        let (vdd, gnd) = (nl.find_net("vdd").unwrap(), nl.find_net("gnd").unwrap());
        assert_ne!(g.initial_net_label(vdd), g.initial_net_label(gnd));
    }

    #[test]
    fn contribs_respect_skip_and_symmetry() {
        let nl = inverter(false);
        let g = CompiledCircuit::compile(&nl);
        let mp = nl.find_device("mp").unwrap();
        let all = g.device_contribs(mp, |_| Some(5));
        assert_eq!(all.used, 3);
        assert_eq!(all.skipped, 0);
        let none = g.device_contribs(mp, |_| None);
        assert_eq!(none.used, 0);
        assert_eq!(none.skipped, 3);
        assert_eq!(none.sum, 0);
    }

    #[test]
    fn source_drain_swap_leaves_contribs_unchanged() {
        // Two transistors listing source/drain in opposite orders must
        // accumulate identical device contributions.
        let mk = |swap: bool| {
            let mut nl = Netlist::new("inv");
            let MosTypes { nmos, .. } = nl.add_mos_types();
            let (a, y, gnd) = (nl.net("a"), nl.net("y"), nl.net("gnd"));
            let pins = if swap { [a, y, gnd] } else { [a, gnd, y] };
            nl.add_device("mn", nmos, &pins).unwrap();
            nl
        };
        let (nl1, nl2) = (mk(false), mk(true));
        let (g1, g2) = (
            CompiledCircuit::compile(&nl1),
            CompiledCircuit::compile(&nl2),
        );
        let d = DeviceId::new(0);
        // Feed the same per-net labels keyed by net name.
        let label = |nl: &Netlist, n: NetId| match nl.net_ref(n).name() {
            "a" => Some(11),
            "y" => Some(22),
            "gnd" => Some(33),
            _ => None,
        };
        let c1 = g1.device_contribs(d, |n| label(&nl1, n));
        let c2 = g2.device_contribs(d, |n| label(&nl2, n));
        assert_eq!(c1.sum, c2.sum);
    }

    #[test]
    fn net_contribs_weighted_by_terminal_class() {
        let nl = inverter(false);
        let g = CompiledCircuit::compile(&nl);
        let a = nl.find_net("a").unwrap(); // two gate pins
        let y = nl.find_net("y").unwrap(); // two drain pins
        let ca = g.net_contribs(a, |_| Some(7));
        let cy = g.net_contribs(y, |_| Some(7));
        // Gate class multiplier differs from source/drain class, so the
        // sums must differ even with equal device labels.
        assert_ne!(ca.sum, cy.sum);
    }

    #[test]
    fn initial_labels_match_hashing_contract() {
        let nl = inverter(true);
        let g = CompiledCircuit::compile(&nl);
        let vdd = nl.find_net("vdd").unwrap();
        let a = nl.find_net("a").unwrap();
        assert_eq!(g.initial_net_label(vdd), hashing::global_net_label("vdd"));
        assert_eq!(g.initial_net_label(a), hashing::net_degree_label(2));
        let mp = nl.find_device("mp").unwrap();
        assert_eq!(
            g.initial_device_label(mp),
            nl.device_type_of(mp).initial_label()
        );
    }
}
