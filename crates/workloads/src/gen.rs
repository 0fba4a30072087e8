//! Deterministic circuit generators with planted ground truth.
//!
//! Each generator returns a [`Generated`] bundle: the flat
//! transistor-level netlist plus the exact number of instances planted
//! per library cell. All randomness is seeded
//! ([`Rng64`](subgemini_netlist::rng::Rng64)), so a given call is
//! bit-reproducible.
//!
//! Note on ground truth: the counts record *planted* cells. Larger
//! cells structurally contain smaller ones (a `dff` contains four
//! inverters; a `full_adder` contains two), so a matcher hunting `inv`
//! legitimately reports more than `planted["inv"]`. Helpers like
//! [`Generated::structural_count`] account for containment of the
//! standard library cells.

use std::collections::BTreeMap;

use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{instantiate, NetId, Netlist};

use crate::cells;

/// A generated circuit plus its planted ground truth.
#[derive(Clone, Debug)]
pub struct Generated {
    /// The flat transistor netlist.
    pub netlist: Netlist,
    /// Planted instance counts by cell name.
    pub planted: BTreeMap<String, usize>,
}

impl Generated {
    /// Creates an empty bundle named `name`.
    pub fn new(name: &str) -> Self {
        Self {
            netlist: Netlist::new(name),
            planted: BTreeMap::new(),
        }
    }

    /// Stamps `cell` into the netlist and records it in the ground
    /// truth.
    ///
    /// # Panics
    ///
    /// Panics if `bindings` does not match the cell's port count or the
    /// instance prefix collides.
    pub fn plant(&mut self, cell: &Netlist, prefix: &str, bindings: &[NetId]) {
        instantiate(&mut self.netlist, cell, prefix, bindings)
            .expect("generator bindings match cell ports");
        *self.planted.entry(cell.name().to_string()).or_insert(0) += 1;
    }

    /// Planted count for `cell` (0 if none).
    pub fn planted_count(&self, cell: &str) -> usize {
        self.planted.get(cell).copied().unwrap_or(0)
    }

    /// Splits a child seed off `master` for the given `stream`.
    ///
    /// Every seeded generator used to call `Rng64::new(seed)` directly,
    /// so composing two generators with one master seed (as
    /// [`tiled_chip`] does per tile) replayed the *same* SplitMix
    /// stream in both — correlated "random" choices, identical tiles.
    /// Deriving per-call-site child seeds through a second SplitMix64
    /// avalanche over the `(master, stream)` pair gives each composed
    /// call its own stream while staying bit-reproducible.
    pub fn child_seed(master: u64, stream: u64) -> u64 {
        let mut z = master ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream.wrapping_add(1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Number of structural instances of `cell` expected in the
    /// netlist, accounting for containment inside the other planted
    /// library cells (e.g. each planted `dff` contributes 4 `inv`
    /// instances and each `full_adder` 2).
    pub fn structural_count(&self, cell: &str) -> usize {
        let mut n = self.planted_count(cell);
        match cell {
            "inv" => {
                // dff: clock inverter + two per internal latch.
                n += 5 * self.planted_count("dff");
                n += 2 * self.planted_count("dlatch");
                n += 2 * self.planted_count("full_adder");
                n += 2 * self.planted_count("buf");
                n += 2 * self.planted_count("xor2");
                n += 2 * self.planted_count("sram6t");
                n += self.planted_count("mux2");
            }
            // Each dff is two back-to-back latches (clock phases
            // swapped, which the dlatch pattern's ports absorb).
            "dlatch" => n += 2 * self.planted_count("dff"),
            // Chained inverter pairs with a degree-2 midpoint.
            "buf" => {
                n += 2 * self.planted_count("dff");
                n += self.planted_count("dlatch");
            }
            // An XOR is a mux selecting between b and b̄: the inverter
            // plus two transmission gates line up exactly (the dff's
            // latch pairs do not — their clkb node has degree 6, not
            // the pattern's 4).
            "mux2" => n += self.planted_count("xor2"),
            _ => {}
        }
        n
    }
}

/// Stream tags for [`Generated::child_seed`]: one per seeded
/// generator, so equal caller seeds passed to *different* generators
/// never alias the same RNG stream.
pub mod streams {
    /// [`super::random_soup`]'s stream.
    pub const RANDOM_SOUP: u64 = 1;
    /// [`super::near_miss_field`]'s stream.
    pub const NEAR_MISS: u64 = 2;
    /// [`crate::analog::mixed_signal_chip`]'s stream.
    pub const MIXED_SIGNAL: u64 = 3;
    /// [`super::tiled_chip`]'s per-tile master stream.
    pub const TILED_CHIP: u64 = 4;
    /// [`super::hierarchical_chip`]'s stream.
    pub const HIERARCHICAL_CHIP: u64 = 5;
}

/// A chain of `n` inverters: `in -> w0 -> … -> w(n-1)`.
pub fn inverter_chain(n: usize) -> Generated {
    let inv = cells::inv();
    let mut g = Generated::new("inv_chain");
    let mut prev = g.netlist.net("in");
    for i in 0..n {
        let next = g.netlist.net(format!("w{i}"));
        let bindings = [prev, next];
        g.plant(&inv, &format!("u{i}"), &bindings);
        prev = next;
    }
    g
}

/// An `n`-bit ripple-carry adder built from mirror full adders.
pub fn ripple_adder(bits: usize) -> Generated {
    let fa = cells::full_adder();
    let mut g = Generated::new("ripple_adder");
    let mut carry = g.netlist.net("cin");
    for i in 0..bits {
        let a = g.netlist.net(format!("a{i}"));
        let b = g.netlist.net(format!("b{i}"));
        let s = g.netlist.net(format!("s{i}"));
        let cout = g.netlist.net(format!("c{i}"));
        let bindings = [a, b, carry, s, cout];
        g.plant(&fa, &format!("fa{i}"), &bindings);
        carry = cout;
    }
    g
}

/// An `n`-bit shift register of master-slave D flip-flops sharing one
/// clock.
pub fn shift_register(bits: usize) -> Generated {
    let dff = cells::dff();
    let mut g = Generated::new("shift_register");
    let clk = g.netlist.net("clk");
    let mut prev = g.netlist.net("si");
    for i in 0..bits {
        let q = g.netlist.net(format!("q{i}"));
        let bindings = [prev, clk, q];
        g.plant(&dff, &format!("ff{i}"), &bindings);
        prev = q;
    }
    g
}

/// An `n × n` array multiplier: NAND+INV partial products feeding a
/// carry-save array of full adders.
pub fn array_multiplier(n: usize) -> Generated {
    let nand = cells::nand2();
    let inv = cells::inv();
    let fa = cells::full_adder();
    let mut g = Generated::new("array_multiplier");
    // Partial products pp[i][j] = a[i] AND b[j].
    let mut pp = vec![vec![NetId::new(0); n]; n];
    for (i, row) in pp.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            let a = g.netlist.net(format!("a{i}"));
            let b = g.netlist.net(format!("b{j}"));
            let nn = g.netlist.net(format!("pp_n{i}_{j}"));
            let p = g.netlist.net(format!("pp{i}_{j}"));
            let bindings = [a, b, nn];
            g.plant(&nand, &format!("and_n{i}_{j}"), &bindings);
            let bindings = [nn, p];
            g.plant(&inv, &format!("and_i{i}_{j}"), &bindings);
            *slot = p;
        }
    }
    // Carry-save reduction rows (structural, not arithmetic-perfect:
    // the goal is a realistic datapath fabric of FAs).
    for i in 1..n {
        for j in 0..n.saturating_sub(1) {
            let a = pp[i - 1][j + 1];
            let b = pp[i][j];
            let cin = g.netlist.net(format!("carry{i}_{j}"));
            let s = g.netlist.net(format!("sum{i}_{j}"));
            let cout = g.netlist.net(format!("carry{i}_{}", j + 1));
            let bindings = [a, b, cin, s, cout];
            g.plant(&fa, &format!("fa{i}_{j}"), &bindings);
            pp[i][j] = s;
        }
    }
    g
}

/// A `rows × cols` SRAM array with shared word/bit lines.
pub fn sram_array(rows: usize, cols: usize) -> Generated {
    let cell = cells::sram6t();
    let mut g = Generated::new("sram_array");
    for r in 0..rows {
        let wl = g.netlist.net(format!("wl{r}"));
        for c in 0..cols {
            let bl = g.netlist.net(format!("bl{c}"));
            let blb = g.netlist.net(format!("blb{c}"));
            let bindings = [bl, blb, wl];
            g.plant(&cell, &format!("bit{r}_{c}"), &bindings);
        }
    }
    g
}

/// An `n`-to-2ⁿ address decoder: per-input true/complement inverters
/// feeding one NAND+INV AND-gate per output row (the classic row
/// decoder structure).
pub fn decoder(address_bits: usize) -> Generated {
    let inv = cells::inv();
    let nandk = match address_bits {
        0 | 1 => cells::inv(), // degenerate; callers use >= 2
        2 => cells::nand2(),
        _ => cells::nand3(),
    };
    let bits = address_bits.clamp(2, 3);
    let rows = 1usize << bits;
    let mut g = Generated::new("decoder");
    // True/complement rails.
    let mut t = Vec::new();
    let mut f = Vec::new();
    for i in 0..bits {
        let a = g.netlist.net(format!("a{i}"));
        let ab = g.netlist.net(format!("ab{i}"));
        let bindings = [a, ab];
        g.plant(&inv, &format!("ibar{i}"), &bindings);
        t.push(a);
        f.push(ab);
    }
    for r in 0..rows {
        let sel: Vec<NetId> = (0..bits)
            .map(|i| if (r >> i) & 1 == 1 { t[i] } else { f[i] })
            .collect();
        let n = g.netlist.net(format!("n{r}"));
        let y = g.netlist.net(format!("row{r}"));
        let mut bindings = sel.clone();
        bindings.push(n);
        g.plant(&nandk, &format!("and_n{r}"), &bindings);
        let bindings = [n, y];
        g.plant(&inv, &format!("and_i{r}"), &bindings);
    }
    g
}

/// An `n`-bit ripple counter: each stage is a DFF whose input is its
/// own inverted output (via an XOR with the enable line), clocked by
/// the previous stage's output — a structure mixing sequential and
/// combinational cells with feedback.
pub fn ripple_counter(bits: usize) -> Generated {
    let dff = cells::dff();
    let xor = cells::xor2();
    let mut g = Generated::new("ripple_counter");
    let enable = g.netlist.net("en");
    let mut clk = g.netlist.net("clk");
    for i in 0..bits {
        let q = g.netlist.net(format!("q{i}"));
        let d = g.netlist.net(format!("d{i}"));
        let bindings = [q, enable, d];
        g.plant(&xor, &format!("tx{i}"), &bindings);
        let bindings = [d, clk, q];
        g.plant(&dff, &format!("ff{i}"), &bindings);
        clk = q; // ripple: next stage clocks off this output
    }
    g
}

/// A seeded random standard-cell soup: `gates` cells drawn uniformly
/// from the library, inputs wired to a shared pool, each output driving
/// a fresh net (which guarantees no accidental cross-cell instances of
/// the library cells, keeping the ground truth exact).
pub fn random_soup(seed: u64, gates: usize) -> Generated {
    let lib = cells::library();
    let mut rng = Rng64::new(Generated::child_seed(seed, streams::RANDOM_SOUP));
    let mut g = Generated::new("random_soup");
    // Input pool: primary inputs plus previously generated outputs.
    let mut pool: Vec<NetId> = (0..8.max(gates / 4))
        .map(|i| g.netlist.net(format!("pi{i}")))
        .collect();
    for i in 0..gates {
        let cell = lib[rng.index(lib.len())].clone();
        let nports = cell.ports().len();
        // Heuristic: the last 1-2 ports of each cell are outputs (y /
        // sum,cout / q); wire them to fresh nets.
        let outputs = match cell.name() {
            "full_adder" => 2,
            "sram6t" => 0, // bl/blb/wl are all shared
            _ => 1,
        };
        let mut bindings: Vec<NetId> = Vec::with_capacity(nports);
        for p in 0..nports {
            if p >= nports - outputs {
                let fresh = g.netlist.net(format!("o{i}_{p}"));
                bindings.push(fresh);
            } else {
                // Distinct inputs per instance: a planted cell whose two
                // ports share a net would not be an (injective) instance
                // of its own pattern, which would falsify the ground
                // truth.
                let pick = loop {
                    let cand = pool[rng.index(pool.len())];
                    if !bindings.contains(&cand) {
                        break cand;
                    }
                };
                bindings.push(pick);
            }
        }
        g.plant(&cell, &format!("u{i}"), &bindings);
        pool.extend(bindings.iter().skip(nports - outputs).copied());
    }
    // Drop pool nets the wiring never used (SPICE cannot express
    // degree-0 nets, and matchers reject them in patterns).
    g.netlist = g.netlist.compact();
    g
}

/// A broken variant of `cell`: one device pin that touched an internal
/// net is rerouted to a fresh external net (destroying the induced-net
/// structure), or — for cells without internal nets — one device's type
/// is flipped between `nmos`/`pmos`. The mutant is *almost* the cell:
/// ideal pressure for the Phase I filter, and guaranteed to contain no
/// true instance of the original.
///
/// `variant` seeds which pin/device is hit, so different variants break
/// different places.
pub fn mutate_cell(cell: &Netlist, variant: u64) -> Netlist {
    let mut out = Netlist::new(format!("{}_mut{variant}", cell.name()));
    for ty in cell.device_types() {
        out.add_type(ty.clone()).expect("types are valid");
    }
    // Candidate mutation points: (device, pin) pairs on internal nets.
    let mut points: Vec<(usize, usize)> = Vec::new();
    for d in cell.device_ids() {
        for (pin, &n) in cell.device(d).pins().iter().enumerate() {
            let net = cell.net_ref(n);
            if !net.is_port() && !net.is_global() && net.degree() >= 2 {
                points.push((d.index(), pin));
            }
        }
    }
    let reroute = if points.is_empty() {
        None
    } else {
        Some(points[(variant as usize) % points.len()])
    };
    let flip = (variant as usize) % cell.device_count().max(1);
    for d in cell.device_ids() {
        let dev = cell.device(d);
        let mut ty = dev.type_id();
        let mut pins: Vec<NetId> = dev
            .pins()
            .iter()
            .map(|&n| {
                let net = cell.net_ref(n);
                let id = out.net(net.name());
                if net.is_global() {
                    out.mark_global(id);
                }
                id
            })
            .collect();
        match reroute {
            Some((dd, pin)) if dd == d.index() => {
                let fresh = out.net("mutant_tap");
                pins[pin] = fresh;
            }
            None if d.index() == flip => {
                let name = cell.device_type_of(d).name();
                let flipped = match name {
                    "nmos" => Some("pmos"),
                    "pmos" => Some("nmos"),
                    _ => None,
                };
                if let Some(f) = flipped {
                    ty = out
                        .add_type(subgemini_netlist::DeviceType::mos(f))
                        .expect("mos types are valid");
                }
            }
            _ => {}
        }
        out.add_device(dev.name(), ty, &pins)
            .expect("copying preserves validity");
    }
    for &p in cell.ports() {
        let id = out.net(cell.net_ref(p).name());
        out.mark_port(id);
    }
    out.compact()
}

/// A field of `n` near-miss mutants of `cell`, wired like
/// [`random_soup`] (shared input pool, fresh outputs). Contains zero
/// true instances of `cell` by construction — the adversarial workload
/// for filter-quality experiments.
pub fn near_miss_field(cell: &Netlist, n: usize, seed: u64) -> Generated {
    let mut rng = Rng64::new(Generated::child_seed(seed, streams::NEAR_MISS));
    let mut g = Generated::new("near_miss_field");
    let nports = cell.ports().len();
    let mut pool: Vec<NetId> = (0..(4 + nports))
        .map(|i| g.netlist.net(format!("pi{i}")))
        .collect();
    for i in 0..n {
        let mutant = mutate_cell(cell, rng.next_u64());
        let mports = mutant.ports().len();
        let mut bindings: Vec<NetId> = Vec::with_capacity(mports);
        for p in 0..mports {
            if p + 1 == mports {
                let fresh = g.netlist.net(format!("o{i}"));
                bindings.push(fresh);
            } else {
                let pick = loop {
                    let cand = pool[rng.index(pool.len())];
                    if !bindings.contains(&cand) {
                        break cand;
                    }
                };
                bindings.push(pick);
            }
        }
        instantiate(&mut g.netlist, &mutant, &format!("u{i}"), &bindings)
            .expect("mutant bindings match ports");
        pool.push(bindings[mports - 1]);
    }
    g.netlist = g.netlist.compact();
    g
}

/// A skewed scheduler workload: `traps` copies of `cell` superposed on
/// one shared set of port nets (a symmetric blob — every verification
/// inside it must individuate its copy out of `traps` interchangeable
/// ones, a guess-storm that costs orders of magnitude more Phase II
/// effort per candidate than a clean instance), followed by `easy`
/// true instances on disjoint fresh nets (each a fast verify). The
/// blob is planted first, so its heavy candidates cluster at the head
/// of the candidate vector: split evenly and up front, the first
/// worker's share would serialize behind the whole blob while the rest
/// idle; work stealing lets every worker drain the easy tail
/// meanwhile. Fully deterministic (no randomness). Ground truth:
/// `traps + easy` true instances (blob copies share nets, not
/// devices).
pub fn skewed_trap_field(cell: &Netlist, traps: usize, easy: usize) -> Generated {
    let mut g = Generated::new("skewed_trap_field");
    let nports = cell.ports().len();
    let blob_nets: Vec<NetId> = (0..nports)
        .map(|p| g.netlist.net(format!("b{p}")))
        .collect();
    for j in 0..traps {
        g.plant(cell, &format!("x{j}"), &blob_nets);
    }
    for i in 0..easy {
        let bindings: Vec<NetId> = (0..nports)
            .map(|p| g.netlist.net(format!("e{i}p{p}")))
            .collect();
        g.plant(cell, &format!("t{i}"), &bindings);
    }
    g
}

/// A chip-scale tiled workload: row-major tiles of mixed standard-cell
/// and analog blocks, grown until the device count reaches
/// `target_devices` (usable from 10^5 up to 10^7 devices). Tiles cycle
/// through four kinds — an SRAM block (12×8 `sram6t`), a pipelined
/// datapath (8 `full_adder` + `dff` stages), a 4-channel mixed-signal
/// front end (`two_stage_opamp` + `rc_lowpass` + digital glue), and a
/// seeded glue-logic soup — so every stretch of the compiled device
/// order mixes block styles. Each tile draws its own RNG stream via
/// [`Generated::child_seed`] (master stream [`streams::TILED_CHIP`],
/// then per-tile index), so tiles with the same master seed are not
/// clones and the generator composes with other seeded generators
/// without stream reuse. All outputs drive fresh per-tile nets, keeping
/// the planted counts exact ground truth, same as [`random_soup`].
pub fn tiled_chip(seed: u64, target_devices: usize) -> Generated {
    let fa = cells::full_adder();
    let dff = cells::dff();
    let inv = cells::inv();
    let nand = cells::nand2();
    let sram = cells::sram6t();
    let opamp = crate::analog::two_stage_opamp();
    let filt = crate::analog::rc_lowpass();
    let mut g = Generated::new("tiled_chip");
    let master = Generated::child_seed(seed, streams::TILED_CHIP);
    const ROW_TILES: usize = 8;
    let mut t = 0usize;
    while g.netlist.device_count() < target_devices {
        let (row, col) = (t / ROW_TILES, t % ROW_TILES);
        let mut rng = Rng64::new(Generated::child_seed(master, t as u64));
        let p = format!("r{row}c{col}");
        match t % 4 {
            0 => {
                // SRAM block: shared word/bit lines inside the tile.
                for r in 0..12 {
                    let wl = g.netlist.net(format!("{p}_wl{r}"));
                    for c in 0..8 {
                        let bl = g.netlist.net(format!("{p}_bl{c}"));
                        let blb = g.netlist.net(format!("{p}_blb{c}"));
                        g.plant(&sram, &format!("{p}_bit{r}_{c}"), &[bl, blb, wl]);
                    }
                }
            }
            1 => {
                // Datapath: ripple-carry adder stages into pipeline regs.
                let clk = g.netlist.net(format!("{p}_clk"));
                let mut carry = g.netlist.net(format!("{p}_cin"));
                for i in 0..8 {
                    let a = g.netlist.net(format!("{p}_a{i}"));
                    let b = g.netlist.net(format!("{p}_b{i}"));
                    let s = g.netlist.net(format!("{p}_s{i}"));
                    let cout = g.netlist.net(format!("{p}_c{i}"));
                    g.plant(&fa, &format!("{p}_fa{i}"), &[a, b, carry, s, cout]);
                    let q = g.netlist.net(format!("{p}_q{i}"));
                    g.plant(&dff, &format!("{p}_ff{i}"), &[s, clk, q]);
                    carry = cout;
                }
            }
            2 => {
                // Mixed-signal front end, wired like mixed_signal_chip.
                let bias = g.netlist.net(format!("{p}_bias"));
                let den = g.netlist.net(format!("{p}_en"));
                for ch in 0..4 {
                    let inp = g.netlist.net(format!("{p}_ain{ch}"));
                    let fb = g.netlist.net(format!("{p}_fb{ch}"));
                    let aout = g.netlist.net(format!("{p}_aout{ch}"));
                    let filtered = g.netlist.net(format!("{p}_filt{ch}"));
                    g.plant(&opamp, &format!("{p}_amp{ch}"), &[inp, fb, aout, bias]);
                    g.plant(&filt, &format!("{p}_lp{ch}"), &[aout, filtered]);
                    let d1 = g.netlist.net(format!("{p}_d1_{ch}"));
                    let dout = g.netlist.net(format!("{p}_dout{ch}"));
                    g.plant(&inv, &format!("{p}_cmp{ch}"), &[filtered, d1]);
                    g.plant(&nand, &format!("{p}_gate{ch}"), &[d1, den, dout]);
                    if rng.ratio(1, 2) {
                        let spare = g.netlist.net(format!("{p}_spare{ch}"));
                        g.plant(&inv, &format!("{p}_sp{ch}"), &[dout, spare]);
                    }
                }
            }
            _ => {
                // Glue-logic soup: inv/nand2 with fresh outputs.
                let mut pool: Vec<NetId> = (0..8)
                    .map(|i| g.netlist.net(format!("{p}_pi{i}")))
                    .collect();
                for i in 0..48 {
                    let out = g.netlist.net(format!("{p}_o{i}"));
                    if rng.ratio(1, 3) {
                        let a = pool[rng.index(pool.len())];
                        g.plant(&inv, &format!("{p}_u{i}"), &[a, out]);
                    } else {
                        let a = pool[rng.index(pool.len())];
                        let b = loop {
                            let cand = pool[rng.index(pool.len())];
                            if cand != a {
                                break cand;
                            }
                        };
                        g.plant(&nand, &format!("{p}_u{i}"), &[a, b, out]);
                    }
                    pool.push(out);
                }
            }
        }
        t += 1;
    }
    g
}

/// A flattened multi-level design plus its exact per-level ground
/// truth, produced by [`hierarchical_chip`].
#[derive(Clone, Debug)]
pub struct HierarchicalChip {
    /// The flat transistor netlist and the *top-level* planted block
    /// counts (a planted `pipeline_stage` counts once here, not as its
    /// constituent gates).
    pub generated: Generated,
    /// The hierarchical cell library — lower cells referenced through
    /// naive composite device types, the same shape a parsed SPICE
    /// `X`-card hierarchy produces — suitable for `subgemini::hier`.
    pub library: Vec<Netlist>,
    /// Exact instance counts a full bottom-up extraction finds per
    /// cell: top-level plants plus every nested occurrence (each
    /// `pipeline_stage` contributes 2 `xor_nand`, each `xor_nand` 4
    /// `nand2`, and so on).
    pub expected: BTreeMap<String, usize>,
    /// Cell names grouped by hierarchy level; index 0 is level 1
    /// (transistor-level cells).
    pub level_cells: Vec<Vec<String>>,
}

impl HierarchicalChip {
    /// Expected extracted-instance count for `cell` (0 if absent).
    pub fn expected_count(&self, cell: &str) -> usize {
        self.expected.get(cell).copied().unwrap_or(0)
    }
}

/// Nested cell instances inside each multi-level cell definition: the
/// direct children only (the recursion in [`hierarchical_chip`]'s
/// expected-count propagation walks the rest).
fn hier_contributions(cell: &str) -> &'static [(&'static str, usize)] {
    match cell {
        "xor_nand" => &[("nand2", 4)],
        "mux_nand" => &[("inv", 1), ("nand2", 3)],
        "pipeline_stage" => &[("xor_nand", 2), ("mux_nand", 1), ("nor2", 1)],
        _ => &[],
    }
}

/// A naive composite device type for `cell`: one terminal per port,
/// each terminal's symmetry class set to the port's own name. This is
/// exactly what SPICE `X`-card parsing mints for a subcircuit call —
/// the hierarchizer normalizes these to canonical composite types
/// before matching.
fn naive_composite(cell: &Netlist) -> subgemini_netlist::DeviceType {
    use subgemini_netlist::TerminalSpec;
    let terms = cell
        .ports()
        .iter()
        .map(|&p| {
            let n = cell.net_ref(p).name();
            TerminalSpec::new(n, n)
        })
        .collect();
    subgemini_netlist::DeviceType::new(cell.name(), terms)
}

/// Level-2 XOR built from four NAND2 references. Ports: `a b y`.
fn ref_xor_nand() -> Netlist {
    let mut c = Netlist::new("xor_nand");
    let nand = c
        .add_type(naive_composite(&cells::nand2()))
        .expect("fresh type");
    let (a, b, y) = (c.net("a"), c.net("b"), c.net("y"));
    c.mark_port(a);
    c.mark_port(b);
    c.mark_port(y);
    let (n1, n2, n3) = (c.net("n1"), c.net("n2"), c.net("n3"));
    c.add_device("g1", nand, &[a, b, n1]).expect("unique names");
    c.add_device("g2", nand, &[a, n1, n2])
        .expect("unique names");
    c.add_device("g3", nand, &[b, n1, n3])
        .expect("unique names");
    c.add_device("g4", nand, &[n2, n3, y])
        .expect("unique names");
    c
}

/// Level-2 2:1 mux from an inverter and three NAND2s. Ports:
/// `a b s y` (selects `a` when `s` is low).
fn ref_mux_nand() -> Netlist {
    let mut c = Netlist::new("mux_nand");
    let inv = c
        .add_type(naive_composite(&cells::inv()))
        .expect("fresh type");
    let nand = c
        .add_type(naive_composite(&cells::nand2()))
        .expect("fresh type");
    let (a, b, s, y) = (c.net("a"), c.net("b"), c.net("s"), c.net("y"));
    for p in [a, b, s, y] {
        c.mark_port(p);
    }
    let (sb, n1, n2) = (c.net("sb"), c.net("n1"), c.net("n2"));
    c.add_device("i1", inv, &[s, sb]).expect("unique names");
    c.add_device("g1", nand, &[a, sb, n1])
        .expect("unique names");
    c.add_device("g2", nand, &[b, s, n2]).expect("unique names");
    c.add_device("g3", nand, &[n1, n2, y])
        .expect("unique names");
    c
}

/// Level-3 datapath block: two XORs (a half sum chain), a bypass mux,
/// and an enable NOR. Ports: `a b cin sel en y`.
fn ref_pipeline_stage() -> Netlist {
    let mut c = Netlist::new("pipeline_stage");
    let xor = c
        .add_type(naive_composite(&ref_xor_nand()))
        .expect("fresh type");
    let mux = c
        .add_type(naive_composite(&ref_mux_nand()))
        .expect("fresh type");
    let nor = c
        .add_type(naive_composite(&cells::nor2()))
        .expect("fresh type");
    let (a, b, cin, sel, en, y) = (
        c.net("a"),
        c.net("b"),
        c.net("cin"),
        c.net("sel"),
        c.net("en"),
        c.net("y"),
    );
    for p in [a, b, cin, sel, en, y] {
        c.mark_port(p);
    }
    let (s1, s2, m) = (c.net("s1"), c.net("s2"), c.net("m"));
    c.add_device("x1", xor, &[a, b, s1]).expect("unique names");
    c.add_device("x2", xor, &[s1, cin, s2])
        .expect("unique names");
    c.add_device("m1", mux, &[s1, s2, sel, m])
        .expect("unique names");
    c.add_device("n1", nor, &[m, en, y]).expect("unique names");
    c
}

/// The hierarchical cell library for [`hierarchical_chip`] designs,
/// trimmed to `levels` (clamped to 1..=3): level 1 is flat CMOS
/// (`inv`/`nand2`/`nor2`), level 2 adds `xor_nand`/`mux_nand` built
/// over NAND2/inv references, level 3 adds `pipeline_stage` over the
/// level-2 blocks. Upper cells reference lower ones through naive
/// composite types ([`naive_composite`]'s shape), matching what a
/// parsed hierarchical SPICE deck provides.
pub fn hierarchical_library(levels: usize) -> Vec<Netlist> {
    let levels = levels.clamp(1, 3);
    let mut lib = vec![cells::inv(), cells::nand2(), cells::nor2()];
    if levels >= 2 {
        lib.push(ref_xor_nand());
        lib.push(ref_mux_nand());
    }
    if levels >= 3 {
        lib.push(ref_pipeline_stage());
    }
    lib
}

/// Flat (transistor-level) elaboration of `cell` from the
/// [`hierarchical_library`], used for planting: upper-level reference
/// cells are expanded by stamping lower flat cells through
/// [`instantiate`], so the chip netlist never contains a composite
/// device.
fn flat_hier_cell(name: &str) -> Netlist {
    match name {
        "inv" => cells::inv(),
        "nand2" => cells::nand2(),
        "nor2" => cells::nor2(),
        _ => {
            let reference = match name {
                "xor_nand" => ref_xor_nand(),
                "mux_nand" => ref_mux_nand(),
                "pipeline_stage" => ref_pipeline_stage(),
                other => unreachable!("unknown hierarchical cell {other}"),
            };
            let mut flat = Netlist::new(name);
            // Recreate the reference cell's nets (ports in order), then
            // stamp each composite reference as a flat sub-elaboration.
            let mut ids: BTreeMap<String, NetId> = BTreeMap::new();
            for &p in reference.ports() {
                let n = reference.net_ref(p).name().to_string();
                let id = flat.net(n.clone());
                flat.mark_port(id);
                ids.insert(n, id);
            }
            for d in reference.device_ids() {
                let dev = reference.device(d);
                let child = flat_hier_cell(reference.device_type(dev.type_id()).name());
                let bindings: Vec<NetId> = dev
                    .pins()
                    .iter()
                    .map(|&pin| {
                        let n = reference.net_ref(pin).name().to_string();
                        *ids.entry(n.clone()).or_insert_with(|| flat.net(n))
                    })
                    .collect();
                instantiate(&mut flat, &child, dev.name(), &bindings)
                    .expect("reference arity matches child ports");
            }
            flat
        }
    }
}

/// A flattened multi-level design — transistors → gates → datapath
/// blocks — with exact planted ground truth per level, grown until the
/// transistor count reaches `target_devices` (and at least one of each
/// palette cell exists). `levels` (clamped 1..=3) bounds the tallest
/// planted block. Every block input draws from a shared primary-input
/// pool and every output drives a fresh net that is *never* consumed
/// downstream, so no accidental cell instance can form across block
/// boundaries: the extraction counts in
/// [`HierarchicalChip::expected`] are exact, not statistical.
pub fn hierarchical_chip(seed: u64, levels: usize, target_devices: usize) -> HierarchicalChip {
    let levels = levels.clamp(1, 3);
    let mut palette = vec!["inv", "nand2", "nor2"];
    if levels >= 2 {
        palette.extend(["xor_nand", "mux_nand"]);
    }
    if levels >= 3 {
        palette.push("pipeline_stage");
    }
    let flats: Vec<Netlist> = palette.iter().map(|n| flat_hier_cell(n)).collect();
    let mut rng = Rng64::new(Generated::child_seed(seed, streams::HIERARCHICAL_CHIP));
    let mut g = Generated::new("hierarchical_chip");
    // Inputs only: unlike random_soup, outputs never join the pool, so
    // blocks never chain and the planted counts stay exact.
    let pool: Vec<NetId> = (0..8.max(target_devices / 64))
        .map(|i| g.netlist.net(format!("pi{i}")))
        .collect();
    let mut i = 0usize;
    while g.netlist.device_count() < target_devices || i < flats.len() {
        // First pass covers the palette once so every cell appears even
        // in tiny chips; after that the pick is seeded-random.
        let cell = if i < flats.len() {
            &flats[i]
        } else {
            &flats[rng.index(flats.len())]
        };
        let nports = cell.ports().len();
        let mut bindings: Vec<NetId> = Vec::with_capacity(nports);
        for p in 0..nports {
            if p == nports - 1 {
                bindings.push(g.netlist.net(format!("o{i}")));
            } else {
                let pick = loop {
                    let cand = pool[rng.index(pool.len())];
                    if !bindings.contains(&cand) {
                        break cand;
                    }
                };
                bindings.push(pick);
            }
        }
        g.plant(cell, &format!("u{i}"), &bindings);
        i += 1;
    }
    g.netlist = g.netlist.compact();
    // Propagate top-level plants down the containment tree, highest
    // level first, so nested blocks contribute transitively.
    let mut expected = g.planted.clone();
    for name in ["pipeline_stage", "mux_nand", "xor_nand"] {
        let n = expected.get(name).copied().unwrap_or(0);
        if n == 0 {
            continue;
        }
        for &(child, k) in hier_contributions(name) {
            *expected.entry(child.to_string()).or_insert(0) += n * k;
        }
    }
    let mut level_cells = vec![vec![
        "inv".to_string(),
        "nand2".to_string(),
        "nor2".to_string(),
    ]];
    if levels >= 2 {
        level_cells.push(vec!["xor_nand".to_string(), "mux_nand".to_string()]);
    }
    if levels >= 3 {
        level_cells.push(vec!["pipeline_stage".to_string()]);
    }
    HierarchicalChip {
        generated: g,
        library: hierarchical_library(levels),
        expected,
        level_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_trap_field_plants_blob_and_easy_instances() {
        let g = skewed_trap_field(&cells::nand2(), 2, 5);
        assert_eq!(g.planted_count("nand2"), 7, "blob copies are instances too");
        g.netlist.validate().unwrap();
        // Blob copies share port nets but not devices.
        assert_eq!(g.netlist.device_count(), 7 * cells::nand2().device_count());
    }

    #[test]
    fn inverter_chain_counts() {
        let g = inverter_chain(10);
        assert_eq!(g.planted_count("inv"), 10);
        assert_eq!(g.netlist.device_count(), 20);
        g.netlist.validate().unwrap();
    }

    #[test]
    fn ripple_adder_counts() {
        let g = ripple_adder(8);
        assert_eq!(g.planted_count("full_adder"), 8);
        assert_eq!(g.netlist.device_count(), 8 * 28);
        // Carries chain: c0..c6 are internal fan-through nets.
        assert!(g.netlist.find_net("c3").is_some());
        g.netlist.validate().unwrap();
    }

    #[test]
    fn shift_register_shares_clock() {
        let g = shift_register(5);
        assert_eq!(g.planted_count("dff"), 5);
        let clk = g.netlist.find_net("clk").unwrap();
        // Each dff touches clk at 3 points (clkb inverter gate + 2 tgate
        // gates... exactly: inv gate, master tgate n-side? count > 5).
        assert!(g.netlist.net_ref(clk).degree() >= 5);
        g.netlist.validate().unwrap();
    }

    #[test]
    fn multiplier_counts() {
        let g = array_multiplier(4);
        assert_eq!(g.planted_count("nand2"), 16);
        assert_eq!(g.planted_count("inv"), 16);
        assert_eq!(g.planted_count("full_adder"), 3 * 3);
        g.netlist.validate().unwrap();
    }

    #[test]
    fn ripple_counter_counts() {
        let g = ripple_counter(4);
        assert_eq!(g.planted_count("dff"), 4);
        assert_eq!(g.planted_count("xor2"), 4);
        assert_eq!(g.netlist.device_count(), 4 * (18 + 8));
        g.netlist.validate().unwrap();
    }

    #[test]
    fn decoder_counts() {
        let g = decoder(3);
        assert_eq!(g.planted_count("nand3"), 8);
        assert_eq!(g.planted_count("inv"), 3 + 8);
        g.netlist.validate().unwrap();
        let row0 = g.netlist.find_net("row0").unwrap();
        assert_eq!(g.netlist.net_ref(row0).degree(), 2); // inv pull-up + pull-down
    }

    #[test]
    fn sram_array_counts() {
        let g = sram_array(4, 8);
        assert_eq!(g.planted_count("sram6t"), 32);
        assert_eq!(g.netlist.device_count(), 32 * 6);
        let wl0 = g.netlist.find_net("wl0").unwrap();
        assert_eq!(g.netlist.net_ref(wl0).degree(), 16); // 2 access per cell
        g.netlist.validate().unwrap();
    }

    #[test]
    fn random_soup_is_deterministic() {
        let a = random_soup(42, 30);
        let b = random_soup(42, 30);
        assert_eq!(a.netlist.device_count(), b.netlist.device_count());
        assert_eq!(a.planted, b.planted);
        let c = random_soup(43, 30);
        // Overwhelmingly likely to differ.
        assert!(a.planted != c.planted || a.netlist.net_count() != c.netlist.net_count());
        a.netlist.validate().unwrap();
    }

    #[test]
    fn hierarchical_chip_is_deterministic_with_exact_expectations() {
        let a = hierarchical_chip(11, 3, 400);
        let b = hierarchical_chip(11, 3, 400);
        assert_eq!(a.generated.planted, b.generated.planted);
        assert_eq!(a.expected, b.expected);
        assert_eq!(
            a.generated.netlist.device_count(),
            b.generated.netlist.device_count()
        );
        a.generated.netlist.validate().unwrap();
        assert!(a.generated.netlist.device_count() >= 400);
        // Every palette cell appears at least once.
        for cell in [
            "inv",
            "nand2",
            "nor2",
            "xor_nand",
            "mux_nand",
            "pipeline_stage",
        ] {
            assert!(a.generated.planted_count(cell) >= 1, "{cell} missing");
        }
        let c = hierarchical_chip(12, 3, 400);
        assert!(a.generated.planted != c.generated.planted || a.expected != c.expected);
    }

    #[test]
    fn hierarchical_chip_expected_counts_include_containment() {
        let chip = hierarchical_chip(5, 3, 300);
        let p = |c: &str| chip.generated.planted_count(c);
        let pipe = p("pipeline_stage");
        let xor = p("xor_nand") + 2 * pipe;
        let mux = p("mux_nand") + pipe;
        assert_eq!(chip.expected_count("pipeline_stage"), pipe);
        assert_eq!(chip.expected_count("xor_nand"), xor);
        assert_eq!(chip.expected_count("mux_nand"), mux);
        assert_eq!(chip.expected_count("nor2"), p("nor2") + pipe);
        assert_eq!(chip.expected_count("nand2"), p("nand2") + 4 * xor + 3 * mux);
        assert_eq!(chip.expected_count("inv"), p("inv") + mux);
        // The flat device count is fully explained by the plants.
        let flat_sizes: BTreeMap<&str, usize> = [
            ("inv", 2),
            ("nand2", 4),
            ("nor2", 4),
            ("xor_nand", 16),
            ("mux_nand", 14),
            ("pipeline_stage", 50),
        ]
        .into_iter()
        .collect();
        let total: usize = chip
            .generated
            .planted
            .iter()
            .map(|(cell, n)| flat_sizes[cell.as_str()] * n)
            .sum();
        assert_eq!(chip.generated.netlist.device_count(), total);
    }

    #[test]
    fn hierarchical_library_levels_and_references() {
        assert_eq!(hierarchical_library(1).len(), 3);
        assert_eq!(hierarchical_library(2).len(), 5);
        let lib = hierarchical_library(3);
        assert_eq!(lib.len(), 6);
        let pipe = lib.iter().find(|c| c.name() == "pipeline_stage").unwrap();
        let ty_names: Vec<&str> = pipe.device_types().iter().map(|t| t.name()).collect();
        assert!(ty_names.contains(&"xor_nand"));
        assert!(ty_names.contains(&"mux_nand"));
        assert!(ty_names.contains(&"nor2"));
        // Level-2 cells reference level-1 by type name with port arity.
        let xor = lib.iter().find(|c| c.name() == "xor_nand").unwrap();
        let nand_ty = xor
            .device_types()
            .iter()
            .find(|t| t.name() == "nand2")
            .unwrap();
        assert_eq!(nand_ty.terminal_count(), 3);
        for cell in &lib {
            cell.validate().unwrap();
        }
        // Levels clamp: 0 and 9 behave as 1 and 3.
        assert_eq!(hierarchical_library(0).len(), 3);
        assert_eq!(hierarchical_library(9).len(), 6);
    }

    #[test]
    fn soup_plants_sum_to_gate_count() {
        let g = random_soup(7, 50);
        let total: usize = g.planted.values().sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn mutants_are_not_instances() {
        use crate::cells;
        for cell in [
            cells::nand2(),
            cells::dff(),
            cells::full_adder(),
            cells::inv(),
        ] {
            for v in 0..4u64 {
                let m = mutate_cell(&cell, v);
                m.validate().unwrap();
                // The mutant differs from the cell structurally.
                assert!(
                    !subgemini_gemini_free::isomorphic_stub(&cell, &m),
                    "{} variant {v}",
                    cell.name()
                );
            }
        }
    }

    /// Local structural check (device-count + per-type pin/degree
    /// signature) sufficient for the mutation tests without a gemini
    /// dependency.
    mod subgemini_gemini_free {
        use subgemini_netlist::Netlist;

        pub fn isomorphic_stub(a: &Netlist, b: &Netlist) -> bool {
            signature(a) == signature(b)
        }

        fn signature(nl: &Netlist) -> Vec<(String, Vec<usize>)> {
            let mut v: Vec<(String, Vec<usize>)> = nl
                .device_ids()
                .map(|d| {
                    let mut degs: Vec<usize> = nl
                        .device(d)
                        .pins()
                        .iter()
                        .map(|&n| nl.net_ref(n).degree())
                        .collect();
                    degs.sort_unstable();
                    (nl.device_type_of(d).name().to_string(), degs)
                })
                .collect();
            v.sort();
            v
        }
    }

    #[test]
    fn near_miss_field_is_deterministic_and_clean() {
        use crate::cells;
        let a = near_miss_field(&cells::nand2(), 10, 7);
        let b = near_miss_field(&cells::nand2(), 10, 7);
        assert_eq!(a.netlist.device_count(), b.netlist.device_count());
        a.netlist.validate().unwrap();
        assert!(a.netlist.device_count() >= 10 * 3);
    }

    #[test]
    fn child_seeds_do_not_collide_across_streams() {
        // Regression for the stream-reuse bug: generators used to seed
        // `Rng64::new(seed)` directly, so `random_soup(s, …)` and
        // `mixed_signal_chip(s, …)` replayed one identical stream. The
        // split-off child seeds must be pairwise distinct across
        // masters and streams.
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 1, 42, 0x5eed, u64::MAX] {
            for stream in 0..64u64 {
                assert!(
                    seen.insert(Generated::child_seed(master, stream)),
                    "collision at master={master} stream={stream}"
                );
            }
        }
        // The documented per-generator streams are distinct.
        let tags = [
            streams::RANDOM_SOUP,
            streams::NEAR_MISS,
            streams::MIXED_SIGNAL,
            streams::TILED_CHIP,
        ];
        for (i, &a) in tags.iter().enumerate() {
            for &b in &tags[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(Generated::child_seed(7, a), Generated::child_seed(7, b));
            }
        }
    }

    #[test]
    fn composed_generators_draw_distinct_streams() {
        // Same master seed, different generators: the RNG-dependent
        // shapes must differ (before the child-seed split both drew the
        // same SplitMix values in the same order).
        let ms = crate::analog::mixed_signal_chip(7, 16);
        // The mixed-signal spare-inverter coin flips are the observable
        // stream: a stream alias with random_soup(7, …) would reproduce
        // its draw sequence bit-for-bit; distinct child seeds make the
        // flips an independent sequence (pinned here: some but not all
        // of the 16 channels grow a spare).
        let spares = ms.planted_count("inv") - 16;
        assert!(spares > 0 && spares < 16, "spares={spares}");
        // And the same master seed still yields a deterministic chip.
        let again = crate::analog::mixed_signal_chip(7, 16);
        assert_eq!(ms.planted, again.planted);
    }

    #[test]
    fn tiled_chip_is_deterministic_with_exact_ground_truth() {
        let a = tiled_chip(11, 5_000);
        let b = tiled_chip(11, 5_000);
        assert_eq!(a.planted, b.planted);
        assert_eq!(a.netlist.device_count(), b.netlist.device_count());
        assert!(a.netlist.device_count() >= 5_000);
        // Tiles are bounded (~600 devices max), so the overshoot is too.
        assert!(a.netlist.device_count() < 5_000 + 1_000);
        a.netlist.validate().unwrap();
        // All four tile kinds are present with known planted counts.
        for cell in [
            "sram6t",
            "full_adder",
            "dff",
            "two_stage_opamp",
            "rc_lowpass",
        ] {
            assert!(a.planted_count(cell) > 0, "{cell}");
        }
        let c = tiled_chip(12, 5_000);
        assert_ne!(
            (a.netlist.device_count(), a.netlist.net_count()),
            (c.netlist.device_count(), c.netlist.net_count()),
            "different masters must differ"
        );
    }

    #[test]
    fn tiled_chip_tiles_are_not_clones() {
        // Two mixed-signal tiles (t=2 and t=6) draw different child
        // streams, so their spare-inverter patterns differ for at least
        // one of these master seeds.
        let mut differed = false;
        for seed in 0..4u64 {
            let g = tiled_chip(seed, 4_000);
            let spare_a = g.netlist.find_net("r0c2_spare0").is_some() as u8
                + g.netlist.find_net("r0c2_spare1").is_some() as u8
                + g.netlist.find_net("r0c2_spare2").is_some() as u8
                + g.netlist.find_net("r0c2_spare3").is_some() as u8;
            let spare_b = g.netlist.find_net("r0c6_spare0").is_some() as u8
                + g.netlist.find_net("r0c6_spare1").is_some() as u8
                + g.netlist.find_net("r0c6_spare2").is_some() as u8
                + g.netlist.find_net("r0c6_spare3").is_some() as u8;
            differed |= spare_a != spare_b;
        }
        assert!(differed, "per-tile child seeds must decorrelate tiles");
    }

    #[test]
    fn structural_counts_add_containment() {
        let mut g = shift_register(3);
        assert_eq!(g.structural_count("inv"), 15); // 5 per dff
        g.planted.insert("inv".into(), 2);
        assert_eq!(g.structural_count("inv"), 17);
        assert_eq!(g.structural_count("dff"), 3);
        assert_eq!(g.structural_count("dlatch"), 6);
        assert_eq!(g.structural_count("buf"), 6);
    }
}
