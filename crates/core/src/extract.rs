//! Library extraction: converting a transistor netlist into a gate
//! netlist by repeated subcircuit identification and replacement.
//!
//! This is the paper's flagship application (§I): "converting a
//! transistor netlist into a gate netlist involves finding the
//! subcircuits representing gates and replacing them with the
//! corresponding gates". Cells are processed largest-first — the
//! paper's §IV.A alternative to special-casing power rails, and the
//! discipline that prevents an inverter from eating half of every NAND.
//!
//! Each round matches one cell with
//! [`OverlapPolicy::ClaimDevices`](crate::OverlapPolicy) and collapses
//! every found instance, in place, into a composite device whose type
//! carries inferred port-symmetry classes, so a later (gate-level)
//! match can treat NAND inputs as interchangeable.

use std::borrow::Cow;

use subgemini_netlist::{DeviceId, Netlist, NetlistError};

use crate::instance::SubMatch;
use crate::matcher::{assert_no_isolated_nets, search_stamped, PreparedMain};
use crate::options::{MatchOptions, OverlapPolicy};
use crate::symmetry::composite_type;

/// Which devices each composite of an extraction absorbed, by id.
///
/// Every device the run saw has a `u32` *code*: codes below `inputs`
/// are the devices of the netlist the run started from, by id, and code
/// `inputs + k` is composite `k`, named `cell#{first + k}` unless a
/// surviving device already held that name when it was minted. Composite
/// `k`'s members are the codes of the devices it absorbed, in its
/// cell's device order, back to back in one flat array; a composite
/// adds only a cell index and an end offset. Names are rendered when a
/// [`ContainmentNode`] is asked for one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Containment {
    /// Devices of the input netlist; codes below it are theirs.
    inputs: u32,
    /// The ordinal in composite 0's name.
    first: usize,
    /// Library cell names, each once, in first-use order.
    cells: Vec<String>,
    /// Per composite: its cell, an index into `cells`.
    cell: Vec<u32>,
    /// Per composite: the end of its members in `members`.
    end: Vec<u32>,
    /// Member codes, composite after composite.
    members: Vec<u32>,
    /// The composites minted under another name, as `(k, name)` in
    /// composite order.
    renamed: Vec<(u32, String)>,
}

/// Marks an absorbed device's code until the codes are compacted.
const ABSORBED: u32 = u32::MAX;

impl Containment {
    /// An empty record over an input of `inputs` devices whose first
    /// composite is named with ordinal `first`.
    pub(crate) fn new(inputs: usize, first: usize) -> Self {
        Self {
            inputs: u32::try_from(inputs).expect("device ids are u32"),
            first,
            ..Self::default()
        }
    }

    /// The input's devices' codes, in id order.
    pub(crate) fn input_codes(&self) -> Vec<u32> {
        (0..self.inputs).collect()
    }

    /// Composites recorded.
    pub(crate) fn len(&self) -> usize {
        self.cell.len()
    }

    /// How many of `codes` are input devices.
    pub(crate) fn inputs_among(&self, codes: &[u32]) -> usize {
        codes.iter().filter(|&&c| c < self.inputs).count()
    }

    /// The composite `code` stands for; `None` for an input device.
    fn composite(&self, code: u32) -> Option<usize> {
        code.checked_sub(self.inputs).map(|k| k as usize)
    }

    fn code_of(&self, k: usize) -> u32 {
        u32::try_from(self.inputs as usize + k)
            .ok()
            .filter(|&code| code != ABSORBED)
            .expect("device codes fit below u32::MAX")
    }

    fn cell_name(&self, k: usize) -> &str {
        &self.cells[self.cell[k] as usize]
    }

    fn members(&self, k: usize) -> &[u32] {
        let start = k.checked_sub(1).map_or(0, |j| self.end[j] as usize);
        &self.members[start..self.end[k] as usize]
    }

    /// Composite `k`'s device name: `cell#{first + k}`, or the name
    /// [`mint_name`](Self::mint_name) kept for it.
    fn composite_name(&self, k: usize) -> String {
        match self.renamed.binary_search_by_key(&(k as u32), |(j, _)| *j) {
            Ok(i) => self.renamed[i].1.clone(),
            Err(_) => format!("{}#{}", self.cell_name(k), self.first + k),
        }
    }

    /// Names composite `k`: `cell#{first + k}`, or, when `taken` says a
    /// device already holds that, the first of `cell#{first + k}_1`,
    /// `_2`, … that none holds, kept in the record.
    fn mint_name(&mut self, k: usize, taken: impl Fn(&str) -> bool) -> String {
        let name = self.composite_name(k);
        if !taken(&name) {
            return name;
        }
        let minted = (1..)
            .map(|j| format!("{name}_{j}"))
            .find(|n| !taken(n))
            .expect("a netlist holds finitely many names");
        self.renamed.push((k as u32, minted.clone()));
        minted
    }

    /// The index of the cell named `name`, added on first use.
    fn cell_index(&mut self, name: &str) -> u32 {
        let index = match self.cells.iter().position(|c| c == name) {
            Some(i) => i,
            None => {
                self.cells.push(name.to_string());
                self.cells.len() - 1
            }
        };
        index as u32
    }

    /// Records a composite of cell `cell` whose members are `members`.
    fn push(&mut self, cell: u32, members: impl IntoIterator<Item = u32>) {
        self.cell.push(cell);
        self.members.extend(members);
        self.end
            .push(u32::try_from(self.members.len()).expect("member codes fit u32 offsets"));
    }

    /// One node per code of `codes`, input devices named from `names`.
    pub(crate) fn nodes<'a>(
        &'a self,
        names: &'a DeviceNames,
        codes: &'a [u32],
    ) -> impl ExactSizeIterator<Item = ContainmentNode<'a>> + 'a {
        codes.iter().map(move |&code| ContainmentNode {
            record: self,
            names: InputNames::Copied(names),
            code,
        })
    }
}

/// A netlist's device names, copied in one pass into one byte buffer
/// cut by end offsets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct DeviceNames {
    bytes: String,
    end: Vec<u32>,
}

impl DeviceNames {
    /// The device names of `netlist`, in id order.
    pub(crate) fn of(netlist: &Netlist) -> Self {
        let name = |d| netlist.device(d).name();
        let mut bytes = String::with_capacity(netlist.device_ids().map(|d| name(d).len()).sum());
        let end = netlist
            .device_ids()
            .map(|d| {
                bytes.push_str(name(d));
                u32::try_from(bytes.len()).expect("device names fit u32 offsets")
            })
            .collect();
        Self { bytes, end }
    }

    fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |j| self.end[j] as usize);
        &self.bytes[start..self.end[i] as usize]
    }
}

/// Where an input device's name is read from.
#[derive(Clone, Copy, Debug)]
enum InputNames<'a> {
    /// The netlist the run started from.
    Netlist(&'a Netlist),
    /// A copy of its device names.
    Copied(&'a DeviceNames),
}

/// One device of a containment record: an input device is a leaf, a
/// composite has the devices it absorbed as children. Names are read
/// or rendered on demand.
#[derive(Clone, Copy, Debug)]
pub struct ContainmentNode<'a> {
    record: &'a Containment,
    names: InputNames<'a>,
    code: u32,
}

impl<'a> ContainmentNode<'a> {
    /// The library cell of a composite; `None` for an input device.
    pub fn cell(&self) -> Option<&'a str> {
        let record = self.record;
        record.composite(self.code).map(|k| record.cell_name(k))
    }

    /// The device's name: an input device's own, a composite's
    /// `cell#k` as in the netlist the composite was collapsed into.
    pub fn name(&self) -> Cow<'a, str> {
        match self.record.composite(self.code) {
            Some(k) => Cow::Owned(self.record.composite_name(k)),
            None => Cow::Borrowed(match self.names {
                InputNames::Netlist(n) => n.device(DeviceId::new(self.code)).name(),
                InputNames::Copied(names) => names.get(self.code as usize),
            }),
        }
    }

    /// The devices a composite absorbed, in its cell's device order;
    /// none for an input device.
    pub fn children(&self) -> impl ExactSizeIterator<Item = ContainmentNode<'a>> + 'a {
        let (record, names) = (self.record, self.names);
        let members = record
            .composite(self.code)
            .map_or(&[][..], |k| record.members(k));
        members.iter().map(move |&code| ContainmentNode {
            record,
            names,
            code,
        })
    }
}

/// Summary of an extraction run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtractReport {
    /// Which devices each composite absorbed, by id.
    containment: Containment,
    /// Per-cell instance counts, in processing (largest-first) order.
    pub per_cell: Vec<(String, usize)>,
    /// Devices of the input that no cell covered.
    pub unabsorbed_devices: usize,
    /// Cell rounds whose match stopped early under the extractor's
    /// [`WorkBudget`](crate::WorkBudget) (each cell's search gets a
    /// fresh budget) or [`CancelToken`](crate::CancelToken). Cells
    /// never started because of a cancellation are *not* counted; they
    /// appear as missing entries in [`ExtractReport::per_cell`].
    pub truncated_cells: usize,
    /// Per-cell and total timings, when the extractor's options set
    /// [`MatchOptions::collect_metrics`](crate::MatchOptions).
    pub metrics: Option<crate::metrics::ExtractMetrics>,
}

impl ExtractReport {
    /// Instances of a particular cell.
    pub fn count_of(&self, cell: &str) -> usize {
        self.per_cell
            .iter()
            .find(|(c, _)| c == cell)
            .map_or(0, |&(_, n)| n)
    }

    /// Composites created.
    pub fn instance_count(&self) -> usize {
        self.containment.len()
    }

    /// Every composite created, in creation order: its
    /// [`cell`](ContainmentNode::cell), its device
    /// [`name`](ContainmentNode::name) in the output netlist, and the
    /// devices it absorbed as its [`children`](ContainmentNode::children).
    /// Absorbed input devices are named from `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not the size of the netlist the run started
    /// from.
    pub fn instances<'a>(
        &'a self,
        input: &'a Netlist,
    ) -> impl ExactSizeIterator<Item = ContainmentNode<'a>> + 'a {
        let record = &self.containment;
        assert_eq!(
            input.device_count(),
            record.inputs as usize,
            "`input` must be the netlist the extraction started from"
        );
        (0..record.len()).map(move |k| ContainmentNode {
            record,
            names: InputNames::Netlist(input),
            code: record.code_of(k),
        })
    }
}

/// A configured extraction engine over a cell library.
///
/// # Examples
///
/// See the `gate_extraction` example and the crate-level documentation;
/// a minimal run:
///
/// ```
/// use subgemini::Extractor;
/// use subgemini_netlist::{instantiate, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut inv = Netlist::new("inv");
/// # let mos = inv.add_mos_types();
/// # let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
/// # inv.mark_port(a); inv.mark_port(y); inv.mark_global(vdd); inv.mark_global(gnd);
/// # inv.add_device("mp", mos.pmos, &[a, vdd, y])?;
/// # inv.add_device("mn", mos.nmos, &[a, gnd, y])?;
/// # let mut chip = Netlist::new("chip");
/// # let (i, o) = (chip.net("in"), chip.net("out"));
/// # instantiate(&mut chip, &inv, "u1", &[i, o])?;
/// let mut extractor = Extractor::new();
/// extractor.add_cell(inv);
/// let (gates, report) = extractor.extract(&chip)?;
/// assert_eq!(report.count_of("inv"), 1);
/// assert_eq!(gates.device_count(), 1); // one composite, no transistors
/// let inv0 = report.instances(&chip).next().unwrap();
/// assert_eq!((inv0.cell(), inv0.name().as_ref()), (Some("inv"), "inv#0"));
/// let absorbed: Vec<_> = inv0.children().map(|d| d.name()).collect();
/// assert_eq!(absorbed, ["u1.mp", "u1.mn"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Extractor {
    cells: Vec<Netlist>,
    options: MatchOptions,
    composite_offset: usize,
}

impl Extractor {
    /// Creates an extractor with extraction-appropriate default options
    /// (devices are claimed; special nets respected).
    pub fn new() -> Self {
        Self {
            cells: Vec::new(),
            options: MatchOptions::extraction(),
            composite_offset: 0,
        }
    }

    /// Adds a library cell (a netlist with ports).
    pub fn add_cell(&mut self, cell: Netlist) -> &mut Self {
        self.cells.push(cell);
        self
    }

    /// Overrides the matching options; the overlap policy is forced to
    /// [`OverlapPolicy::ClaimDevices`](crate::OverlapPolicy).
    pub fn set_options(&mut self, options: MatchOptions) -> &mut Self {
        self.options = MatchOptions {
            overlap: OverlapPolicy::ClaimDevices,
            ..options
        };
        self
    }

    /// Starts composite-device numbering at `offset` instead of 0, so
    /// repeated [`extract`](Extractor::extract) calls over the same
    /// evolving netlist never collide with composites minted by earlier
    /// calls. Composites from a prior call are legal main devices:
    /// they survive matching untouched unless a library cell's
    /// composite type claims them.
    pub fn set_composite_offset(&mut self, offset: usize) -> &mut Self {
        self.composite_offset = offset;
        self
    }

    /// Runs extraction: matches each cell largest-first, replacing
    /// instances with composite devices, and returns the gate-level
    /// netlist plus a report.
    ///
    /// Rounds that find nothing match against the borrowed input (or
    /// the netlist as the last replacing round left it), reusing one
    /// compiled CSR snapshot and one Phase I label trace. The first
    /// round that replaces instances copies the input once; every
    /// replacing round collapses that copy in place
    /// ([`Netlist::collapse`]), and the next round recompiles it.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors from the collapse (only possible if
    /// input names collide with generated composite names).
    pub fn extract(&self, main: &Netlist) -> Result<(Netlist, ExtractReport), NetlistError> {
        let mut record = Containment::new(main.device_count(), self.composite_offset);
        let mut codes = record.input_codes();
        let (gates, mut report) = self.run(Cow::Borrowed(main), &mut codes, &mut record)?;
        report.containment = record;
        Ok((gates, report))
    }

    /// [`Extractor::extract`] over a netlist the caller gives up, so
    /// even the first replacing round collapses it without a copy, and
    /// into a record the caller keeps, so its composites are numbered
    /// on from the record's: the hierarchizer threads its one working
    /// netlist, its devices' `codes` and one record through every round
    /// this way. The returned report's own record stays empty.
    pub(crate) fn extract_owned(
        &self,
        main: Netlist,
        codes: &mut Vec<u32>,
        record: &mut Containment,
    ) -> Result<(Netlist, ExtractReport), NetlistError> {
        self.run(Cow::Owned(main), codes, record)
    }

    /// Extracts `current`, whose device `d` has code `codes[d]` in
    /// `record`, recording every composite there and keeping `codes` in
    /// step with the netlist.
    fn run(
        &self,
        mut current: Cow<'_, Netlist>,
        codes: &mut Vec<u32>,
        record: &mut Containment,
    ) -> Result<(Netlist, ExtractReport), NetlistError> {
        use crate::metrics::{ExtractCellMetrics, ExtractMetrics, PhaseTimer};
        let collect = self.options.collect_metrics;
        let total_timer = collect.then(PhaseTimer::start);
        let mut cells: Vec<&Netlist> = self.cells.iter().collect();
        // Largest first; ties broken by name for determinism.
        cells.sort_by(|a, b| {
            b.device_count()
                .cmp(&a.device_count())
                .then_with(|| a.name().cmp(b.name()))
        });
        // One prepared main per netlist version: rounds that find nothing
        // share it; a collapse drops it.
        let mut prepared: Option<PreparedMain> = None;
        let mut report = ExtractReport::default();
        let mut metrics = collect.then(ExtractMetrics::default);
        for cell in cells {
            // Cooperative cancellation between cell rounds: already
            // extracted cells keep their composites, unstarted cells
            // simply never run (visible as absent `per_cell` entries).
            if self
                .options
                .cancel
                .as_ref()
                .is_some_and(crate::budget::CancelToken::is_cancelled)
            {
                break;
            }
            assert_no_isolated_nets(cell);
            let prepare = || PreparedMain::new(&current, &self.options).with_private_trace();
            let mut outcome = search_stamped(&mut prepared, prepare, cell, &current, &self.options);
            // The outcome's one timer is the cell's `match_ns`.
            let match_ns = outcome.metrics.as_ref().map_or(0, |m| m.total_ns);
            let found = outcome.instances.len();
            if outcome.completeness.is_truncated() {
                report.truncated_cells += 1;
            }
            report.per_cell.push((cell.name().to_string(), found));
            let replace_timer = collect.then(PhaseTimer::start);
            if found > 0 {
                replace_instances(current.to_mut(), cell, &outcome.instances, codes, record)?;
                // The netlist changed; the next round must recompile.
                prepared = None;
            }
            if let Some(m) = metrics.as_mut() {
                m.cells.push(ExtractCellMetrics {
                    cell: cell.name().to_string(),
                    found,
                    match_ns,
                    replace_ns: replace_timer.map_or(0, |t| t.elapsed_ns()),
                    match_metrics: outcome.metrics.take(),
                });
            }
        }
        if let (Some(m), Some(t)) = (metrics.as_mut(), total_timer) {
            m.total_ns = t.elapsed_ns();
        }
        report.metrics = metrics;
        // A device is absorbed exactly when its code is no longer an
        // input's, so the residue is the surviving input devices.
        // Comparing type names against cell names would misclassify input
        // devices whose type happens to share a library cell's name — the
        // normal state of a partially extracted netlist fed back in.
        report.unabsorbed_devices = record.inputs_among(codes);
        Ok((current.into_owned(), report))
    }
}

/// Collapses each instance of `cell` in `main` into a composite device
/// named `cell#k`, numbering on from the composites already recorded.
/// Each composite's members are recorded by code, and `codes` follows
/// the collapse: survivors keep their order, composites are appended.
fn replace_instances(
    main: &mut Netlist,
    cell: &Netlist,
    instances: &[SubMatch],
    codes: &mut Vec<u32>,
    record: &mut Containment,
) -> Result<(), NetlistError> {
    let absorbed: Vec<DeviceId> = instances
        .iter()
        .flat_map(|m| m.devices.iter().copied())
        .collect();
    let start = record.len();
    let cell_index = record.cell_index(cell.name());
    for m in instances {
        record.push(cell_index, m.devices.iter().map(|d| codes[d.index()]));
    }
    for d in &absorbed {
        codes[d.index()] = ABSORBED;
    }
    // A composite must not take the name of a device that survives the
    // round (§3m).
    let survivor = |name: &str| {
        main.find_device(name)
            .is_some_and(|d| codes[d.index()] != ABSORBED)
    };
    let composites = instances
        .iter()
        .zip(start..)
        .map(|(m, k)| (record.mint_name(k, survivor), m.port_images(cell)))
        .collect();
    main.collapse(&absorbed, composite_type(cell), composites)?;
    codes.retain(|&c| c != ABSORBED);
    codes.extend((start..record.len()).map(|k| record.code_of(k)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use subgemini_netlist::Netlist;

    use super::*;

    /// An inverter with rails `vdd` and `gnd`.
    fn minv() -> Netlist {
        let mut c = Netlist::new("minv");
        let mos = c.add_mos_types();
        let [a, y, vdd, gnd] = ["a", "y", "vdd", "gnd"].map(|n| c.net(n));
        c.mark_port(a);
        c.mark_port(y);
        c.mark_global(vdd);
        c.mark_global(gnd);
        c.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
        c.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        c
    }

    #[test]
    fn a_composite_never_takes_a_surviving_device_name() {
        // The lone pmos holds `minv#0`, the name the one composite is
        // usually minted under.
        let mut deck = Netlist::new("deck");
        let mos = deck.add_mos_types();
        let [a, y, z, vdd, gnd] = ["a", "y", "z", "vdd", "gnd"].map(|n| deck.net(n));
        deck.mark_global(vdd);
        deck.mark_global(gnd);
        deck.add_device("mp1", mos.pmos, &[a, vdd, y]).unwrap();
        deck.add_device("mn1", mos.nmos, &[a, gnd, y]).unwrap();
        deck.add_device("minv#0", mos.pmos, &[y, vdd, z]).unwrap();
        let mut extractor = Extractor::new();
        extractor.add_cell(minv());
        extractor.set_options(MatchOptions::extraction());
        let (gates, report) = extractor.extract(&deck).expect("the deck extracts");
        assert_eq!((report.count_of("minv"), report.unabsorbed_devices), (1, 1));
        let names: Vec<&str> = gates.device_ids().map(|d| gates.device(d).name()).collect();
        assert_eq!(names, ["minv#0", "minv#0_1"]);
        let inst = report.instances(&deck).next().expect("one instance");
        let children: Vec<String> = inst.children().map(|c| c.name().into_owned()).collect();
        assert_eq!(
            (inst.name().as_ref(), &children[..]),
            ("minv#0_1", &["mp1", "mn1"].map(String::from)[..])
        );
        let leaf = gates.find_device("minv#0").expect("the pmos survives");
        let ty = gates.device_type(gates.device(leaf).type_id());
        assert_eq!(ty.name(), "pmos");
    }
}
