//! Iterative hierarchy reconstruction: the paper's §I headline
//! application, rebuilding a design hierarchy from a flat transistor
//! netlist by running extraction repeatedly.
//!
//! The cell library is grouped into *levels*: a cell whose devices are
//! all primitives sits at level 1; a cell whose devices include other
//! cells' composite types sits one level above the deepest cell it
//! references. A [`Hierarchizer`] then runs the existing [`Extractor`]
//! bottom-up, level by level, over the evolving netlist — composites
//! minted by lower rounds are legal main devices for higher rounds —
//! and repeats the whole sweep until a full sweep replaces nothing
//! (a fixpoint). The result is a [`HierarchyOutcome`]: the recovered
//! top-level netlist (composites for every found instance), the
//! normalized library cells, and a [`HierarchyReport`] with per-level
//! per-cell counts, the containment tree, and the unabsorbed residue.
//!
//! ## Containment by id
//!
//! Every round records which devices each composite absorbed in one
//! record, by `u32` code: a code is either a device of the flat input,
//! by id, or a composite, by its ordinal over the whole run. The report
//! keeps that record, the codes of the final netlist's devices as the
//! tree's roots, and one copy of the flat device names; a tree node's
//! name is read or rendered only when the tree is walked
//! ([`HierarchyReport::roots`]). Because a member is an id, a flat
//! device that happens to be named like a composite (`mbuf#2`) is
//! still a leaf.
//!
//! ## Library normalization
//!
//! A level-2 cell as parsed from a SPICE deck references lower cells
//! through `X` instances whose device types carry naive terminal
//! classes (each port its own class, named after the port). Extraction,
//! however, replaces instances with composites built by
//! `composite_type` — terminals classed by inferred port symmetry.
//! Since label hashing mixes terminal class names, a pattern holding
//! the naive type would never match a main circuit holding the
//! canonical one. [`Hierarchizer::new`] therefore *normalizes* the
//! library bottom-up: every device whose type name matches a library
//! cell is retyped to the canonical composite type of that
//! (already-normalized) cell, making patterns and mains agree by
//! construction.
//!
//! ## Fixpoint argument
//!
//! Every composite absorbs at least one device and each absorbed
//! device belongs to exactly one composite
//! ([`OverlapPolicy::ClaimDevices`](crate::OverlapPolicy)), so a sweep
//! that replaces anything strictly shrinks the netlist unless every
//! replaced cell is a single-device cell — and a single-device cell
//! cannot re-match its own composite (the composite's type name is the
//! cell name, not the device's original type), while mutual
//! single-device absorption between cells would require a reference
//! cycle, which level grouping rejects. Sweeps therefore make strict
//! progress and the driver terminates; a generous sweep cap guards the
//! invariant.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use subgemini_netlist::{DeviceType, NetId, Netlist, NetlistError};

use crate::extract::{Containment, ContainmentNode, DeviceNames, Extractor};
use crate::metrics::json::Value;
use crate::metrics::REPORT_SCHEMA_VERSION;
use crate::options::MatchOptions;
use crate::symmetry::composite_type;

/// Sweeps after which the driver gives up instead of looping; far above
/// any real hierarchy depth (each productive sweep shrinks the netlist).
const MAX_SWEEPS: usize = 64;

/// Errors from library grouping, normalization, or the fixpoint driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HierError {
    /// Two library cells share a name.
    DuplicateCell(String),
    /// Cell references form a cycle through the named cell.
    Cycle(String),
    /// A device referencing a library cell has the wrong pin count.
    PortArity {
        /// The cell holding the offending device.
        cell: String,
        /// The offending device's name.
        device: String,
        /// The referenced cell's port count.
        expected: usize,
        /// The device's actual pin count.
        got: usize,
    },
    /// The sweep cap was hit without reaching a fixpoint.
    NoFixpoint(usize),
    /// Normalizing a cell or collapsing found instances failed (a name
    /// or type collision).
    Netlist(NetlistError),
}

impl fmt::Display for HierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierError::DuplicateCell(name) => {
                write!(f, "library defines cell `{name}` more than once")
            }
            HierError::Cycle(name) => {
                write!(f, "cell references form a cycle through `{name}`")
            }
            HierError::PortArity {
                cell,
                device,
                expected,
                got,
            } => write!(
                f,
                "device `{device}` in cell `{cell}` has {got} pins but the referenced cell has {expected} ports"
            ),
            HierError::NoFixpoint(sweeps) => {
                write!(f, "no fixpoint after {sweeps} sweeps")
            }
            HierError::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HierError {}

impl From<NetlistError> for HierError {
    fn from(e: NetlistError) -> Self {
        HierError::Netlist(e)
    }
}

/// Accumulated tallies for one library level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelReport {
    /// The level (1 = cells of primitives only).
    pub level: usize,
    /// Per-cell instance counts in the level's processing
    /// (largest-first) order, summed over all sweeps.
    pub per_cell: Vec<(String, usize)>,
    /// Cell rounds at this level whose match stopped early (budget,
    /// deadline, or cancellation), summed over all sweeps.
    pub truncated_cells: usize,
}

/// Summary of a hierarchy reconstruction run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierarchyReport {
    /// Per-level tallies, ascending level.
    pub levels: Vec<LevelReport>,
    /// Which devices each composite absorbed, by code: flat-device ids
    /// and composite ordinals over the whole run.
    containment: Containment,
    /// The codes of the final netlist's devices, in its device order:
    /// the containment forest's roots.
    roots: Vec<u32>,
    /// The flat input's device names, read by the forest's leaves.
    names: DeviceNames,
    /// Final-netlist devices that are not composites minted by this run
    /// (the residue no cell covered).
    pub unabsorbed_devices: usize,
    /// Bottom-up sweeps executed, including the final all-quiet sweep
    /// that confirmed the fixpoint.
    pub sweeps: usize,
}

impl HierarchyReport {
    /// Total instances of `cell` across all levels.
    pub fn count_of(&self, cell: &str) -> usize {
        self.levels
            .iter()
            .flat_map(|l| l.per_cell.iter())
            .filter(|(c, _)| c == cell)
            .map(|&(_, n)| n)
            .sum()
    }

    /// The containment forest, one root per final-netlist device in its
    /// order: a composite has the devices it absorbed as children,
    /// recursively down to flat devices; a flat device no cell absorbed
    /// is a leaf.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = ContainmentNode<'_>> {
        self.containment.nodes(&self.names, &self.roots)
    }

    /// The stable machine-readable report document.
    pub fn to_json(&self) -> Value {
        fn node(n: ContainmentNode<'_>) -> Value {
            match n.cell() {
                None => Value::Str(n.name().into_owned()),
                Some(cell) => Value::Obj(vec![
                    ("cell".into(), Value::Str(cell.to_string())),
                    ("device".into(), Value::Str(n.name().into_owned())),
                    (
                        "children".into(),
                        Value::Arr(n.children().map(node).collect()),
                    ),
                ]),
            }
        }
        Value::Obj(vec![
            ("schema_version".into(), Value::int(REPORT_SCHEMA_VERSION)),
            ("sweeps".into(), Value::int(self.sweeps as u64)),
            (
                "levels".into(),
                Value::Arr(
                    self.levels
                        .iter()
                        .map(|l| {
                            Value::Obj(vec![
                                ("level".into(), Value::int(l.level as u64)),
                                (
                                    "truncated_cells".into(),
                                    Value::int(l.truncated_cells as u64),
                                ),
                                (
                                    "cells".into(),
                                    Value::Arr(
                                        l.per_cell
                                            .iter()
                                            .map(|(c, n)| {
                                                Value::Obj(vec![
                                                    ("cell".into(), Value::Str(c.clone())),
                                                    ("found".into(), Value::int(*n as u64)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "unabsorbed_devices".into(),
                Value::int(self.unabsorbed_devices as u64),
            ),
            ("tree".into(), Value::Arr(self.roots().map(node).collect())),
        ])
    }

    /// A human-readable table: per-level counts plus the residue.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hierarchy: {} level(s), {} sweep(s)",
            self.levels.len(),
            self.sweeps
        );
        for l in &self.levels {
            let trunc = if l.truncated_cells > 0 {
                format!("  ({} truncated)", l.truncated_cells)
            } else {
                String::new()
            };
            let _ = writeln!(out, "level {}:{trunc}", l.level);
            for (cell, n) in &l.per_cell {
                let _ = writeln!(out, "  {cell:<20} {n:>6}");
            }
        }
        let _ = writeln!(out, "unabsorbed devices: {}", self.unabsorbed_devices);
        out
    }
}

/// Everything a hierarchy run produces.
#[derive(Clone, Debug)]
pub struct HierarchyOutcome {
    /// The final netlist: every found instance collapsed into a
    /// composite device, untouched primitives carried through.
    pub top: Netlist,
    /// The normalized library, ascending level, each level in its
    /// processing (largest-first) order — the `.subckt` definitions a
    /// hierarchical deck needs, lowest first.
    pub cells: Vec<Netlist>,
    /// Tallies, containment tree, residue.
    pub report: HierarchyReport,
}

impl HierarchyOutcome {
    /// The normalized cells instantiated at least once, in definition
    /// order (lower levels first, so a deck defines a cell before any
    /// higher cell instantiates it). Cloned so the result feeds
    /// `write_hierarchical`-style `&[Netlist]` consumers directly.
    pub fn used_cells(&self) -> Vec<Netlist> {
        self.cells
            .iter()
            .filter(|c| self.report.count_of(c.name()) > 0)
            .cloned()
            .collect()
    }
}

/// What one round (one level-pass of one sweep) did; handed to the
/// observer of [`Hierarchizer::run_observed`] as soon as the round
/// finishes, for per-round telemetry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundReport {
    /// 1-based sweep number.
    pub sweep: usize,
    /// The level this round extracted.
    pub level: usize,
    /// Instances replaced by this round.
    pub replaced: usize,
    /// Cell rounds truncated within this round.
    pub truncated_cells: usize,
}

/// A configured hierarchy-reconstruction driver over a grouped,
/// normalized cell library.
///
/// # Examples
///
/// ```
/// use subgemini::hier::Hierarchizer;
/// use subgemini_netlist::{instantiate, DeviceType, Netlist, TerminalSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Level 1: an inverter. Level 2: a buffer of two inverters,
/// // referencing `inv` through a (naive) composite device type.
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
/// let mut buf2 = Netlist::new("buf2");
/// let ity = buf2.add_type(DeviceType::new(
///     "inv",
///     vec![TerminalSpec::new("a", "a"), TerminalSpec::new("y", "y")],
/// ))?;
/// let (ba, bm, by) = (buf2.net("a"), buf2.net("m"), buf2.net("y"));
/// buf2.mark_port(ba);
/// buf2.mark_port(by);
/// buf2.add_device("u1", ity, &[ba, bm])?;
/// buf2.add_device("u2", ity, &[bm, by])?;
///
/// // Flat main: two chained inverters.
/// let mut chip = Netlist::new("chip");
/// let (ci, cm, co) = (chip.net("in"), chip.net("mid"), chip.net("out"));
/// instantiate(&mut chip, &inv, "g1", &[ci, cm])?;
/// instantiate(&mut chip, &inv, "g2", &[cm, co])?;
///
/// let outcome = Hierarchizer::new(&[inv, buf2])?.run(&chip)?;
/// assert_eq!(outcome.report.count_of("inv"), 2);
/// assert_eq!(outcome.report.count_of("buf2"), 1);
/// assert_eq!(outcome.top.device_count(), 1); // one buf2 composite
/// assert_eq!(outcome.report.unabsorbed_devices, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Hierarchizer {
    /// Normalized cells grouped by level; index 0 holds level 1.
    levels: Vec<Vec<Netlist>>,
    options: MatchOptions,
}

impl Hierarchizer {
    /// Groups `cells` into levels and normalizes cross-cell references
    /// to canonical composite types (see the module docs).
    ///
    /// # Errors
    ///
    /// [`HierError::DuplicateCell`] on name clashes,
    /// [`HierError::Cycle`] when references are not a DAG,
    /// [`HierError::PortArity`] on pin-count mismatches, and
    /// [`HierError::Netlist`] if normalizing a cell fails.
    pub fn new(cells: &[Netlist]) -> Result<Self, HierError> {
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (i, c) in cells.iter().enumerate() {
            if index.insert(c.name(), i).is_some() {
                return Err(HierError::DuplicateCell(c.name().to_string()));
            }
        }
        let refs: Vec<Vec<usize>> = cells
            .iter()
            .map(|c| {
                let mut r: Vec<usize> = c
                    .device_ids()
                    .filter_map(|d| index.get(c.device_type_of(d).name()).copied())
                    .collect();
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let mut level = vec![0usize; cells.len()];
        let mut state = vec![0u8; cells.len()];
        for i in 0..cells.len() {
            assign_level(i, cells, &refs, &mut level, &mut state)?;
        }
        // Normalize bottom-up: composite types of lower cells must
        // exist before any higher cell is rebuilt over them.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by(|&a, &b| {
            level[a].cmp(&level[b]).then_with(|| {
                cells[b]
                    .device_count()
                    .cmp(&cells[a].device_count())
                    .then_with(|| cells[a].name().cmp(cells[b].name()))
            })
        });
        let referenced: HashSet<usize> = refs.iter().flatten().copied().collect();
        let mut composites: Vec<Option<DeviceType>> = vec![None; cells.len()];
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut levels: Vec<Vec<Netlist>> = vec![Vec::new(); max_level];
        for &i in &order {
            let norm = if refs[i].is_empty() {
                cells[i].clone()
            } else {
                normalize_cell(&cells[i], &index, &composites)?
            };
            if referenced.contains(&i) {
                composites[i] = Some(composite_type(&norm));
            }
            levels[level[i] - 1].push(norm);
        }
        Ok(Self {
            levels,
            options: MatchOptions::extraction(),
        })
    }

    /// Overrides the matching options used by every round; the overlap
    /// policy is forced to claim devices, as extraction requires.
    pub fn set_options(&mut self, options: MatchOptions) -> &mut Self {
        self.options = options;
        self
    }

    /// The normalized library, grouped by level (index 0 = level 1).
    pub fn levels(&self) -> &[Vec<Netlist>] {
        &self.levels
    }

    /// Runs the fixpoint driver over `flat`.
    ///
    /// # Errors
    ///
    /// [`HierError::Netlist`] from a collapse, or
    /// [`HierError::NoFixpoint`] if the sweep cap is hit.
    pub fn run(&self, flat: &Netlist) -> Result<HierarchyOutcome, HierError> {
        self.run_observed(flat, |_| {})
    }

    /// Runs the fixpoint driver, invoking `on_round` after every round
    /// (one level-pass of one sweep) — the hook the engine uses to fold
    /// one telemetry sample per round.
    ///
    /// # Errors
    ///
    /// See [`Hierarchizer::run`].
    pub fn run_observed(
        &self,
        flat: &Netlist,
        mut on_round: impl FnMut(&RoundReport),
    ) -> Result<HierarchyOutcome, HierError> {
        let extractors: Vec<Extractor> = self
            .levels
            .iter()
            .map(|cells| {
                let mut ex = Extractor::new();
                for c in cells {
                    ex.add_cell(c.clone());
                }
                ex.set_options(self.options.clone());
                ex
            })
            .collect();
        let mut per_level: Vec<BTreeMap<String, usize>> = vec![BTreeMap::new(); self.levels.len()];
        let mut truncated: Vec<usize> = vec![0; self.levels.len()];
        // The one copy of the design: every round collapses it in place,
        // keeps its devices' codes in step and records its composites.
        let mut current = flat.clone();
        let mut record = Containment::new(flat.device_count(), 0);
        let mut codes = record.input_codes();
        let mut sweeps = 0usize;
        loop {
            if sweeps == MAX_SWEEPS {
                return Err(HierError::NoFixpoint(sweeps));
            }
            sweeps += 1;
            let mut replaced_this_sweep = 0usize;
            for (li, ex) in extractors.iter().enumerate() {
                let before = record.len();
                let (next, rep) = ex.extract_owned(current, &mut codes, &mut record)?;
                for (cell, n) in &rep.per_cell {
                    *per_level[li].entry(cell.clone()).or_insert(0) += n;
                }
                truncated[li] += rep.truncated_cells;
                let replaced = record.len() - before;
                on_round(&RoundReport {
                    sweep: sweeps,
                    level: li + 1,
                    replaced,
                    truncated_cells: rep.truncated_cells,
                });
                current = next;
                replaced_this_sweep += replaced;
            }
            if replaced_this_sweep == 0 {
                break;
            }
        }
        // Per-level tallies in each level's processing (largest-first)
        // order; cells a cancelled sweep never reached report 0.
        let levels: Vec<LevelReport> = self
            .levels
            .iter()
            .enumerate()
            .map(|(li, cells)| {
                let mut ordered: Vec<&Netlist> = cells.iter().collect();
                ordered.sort_by(|a, b| {
                    b.device_count()
                        .cmp(&a.device_count())
                        .then_with(|| a.name().cmp(b.name()))
                });
                LevelReport {
                    level: li + 1,
                    per_cell: ordered
                        .iter()
                        .map(|c| {
                            (
                                c.name().to_string(),
                                per_level[li].get(c.name()).copied().unwrap_or(0),
                            )
                        })
                        .collect(),
                    truncated_cells: truncated[li],
                }
            })
            .collect();
        Ok(HierarchyOutcome {
            top: current,
            cells: self.levels.iter().flatten().cloned().collect(),
            report: HierarchyReport {
                levels,
                unabsorbed_devices: record.inputs_among(&codes),
                containment: record,
                roots: codes,
                names: DeviceNames::of(flat),
                sweeps,
            },
        })
    }
}

/// One-call convenience over [`Hierarchizer`].
///
/// # Errors
///
/// See [`Hierarchizer::new`] and [`Hierarchizer::run`].
pub fn hierarchize(
    flat: &Netlist,
    cells: &[Netlist],
    options: &MatchOptions,
) -> Result<HierarchyOutcome, HierError> {
    let mut h = Hierarchizer::new(cells)?;
    h.set_options(options.clone());
    h.run(flat)
}

/// Assigns `level[i]` (1 + deepest referenced cell), detecting cycles.
fn assign_level(
    i: usize,
    cells: &[Netlist],
    refs: &[Vec<usize>],
    level: &mut [usize],
    state: &mut [u8],
) -> Result<usize, HierError> {
    if state[i] == 2 {
        return Ok(level[i]);
    }
    if state[i] == 1 {
        return Err(HierError::Cycle(cells[i].name().to_string()));
    }
    state[i] = 1;
    let mut l = 1;
    for &j in &refs[i] {
        if j == i {
            return Err(HierError::Cycle(cells[i].name().to_string()));
        }
        l = l.max(1 + assign_level(j, cells, refs, level, state)?);
    }
    state[i] = 2;
    level[i] = l;
    Ok(l)
}

/// Rebuilds `cell` with every library-cell reference retyped to the
/// referenced cell's canonical composite type.
fn normalize_cell(
    cell: &Netlist,
    index: &HashMap<&str, usize>,
    composites: &[Option<DeviceType>],
) -> Result<Netlist, HierError> {
    let mut out = Netlist::new(cell.name().to_string());
    let mut nets: Vec<NetId> = Vec::with_capacity(cell.net_count());
    for n in cell.net_ids() {
        let net = cell.net_ref(n);
        let id = out.net(net.name());
        if net.is_global() {
            out.mark_global(id);
        }
        nets.push(id);
    }
    for &p in cell.ports() {
        out.mark_port(nets[p.index()]);
    }
    for d in cell.device_ids() {
        let dev = cell.device(d);
        let src = cell.device_type_of(d);
        let ty = match index.get(src.name()) {
            Some(&j) => {
                let comp = composites[j]
                    .as_ref()
                    .expect("referenced cells are normalized before their referrers");
                if comp.terminal_count() != dev.pins().len() {
                    return Err(HierError::PortArity {
                        cell: cell.name().to_string(),
                        device: dev.name().to_string(),
                        expected: comp.terminal_count(),
                        got: dev.pins().len(),
                    });
                }
                out.add_type(comp.clone())?
            }
            None => out.add_type(src.clone())?,
        };
        let pins: Vec<NetId> = dev.pins().iter().map(|&n| nets[n.index()]).collect();
        out.add_device(dev.name(), ty, &pins)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini_netlist::{instantiate, TerminalSpec};

    fn inv() -> Netlist {
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

    /// A buffer `name` referencing `inv` through a naive composite type,
    /// as a hierarchical SPICE parse would produce it.
    fn buffer(name: &str) -> Netlist {
        let mut b = Netlist::new(name);
        let ity = b
            .add_type(DeviceType::new(
                "inv",
                vec![TerminalSpec::new("a", "a"), TerminalSpec::new("y", "y")],
            ))
            .unwrap();
        let (a, m, y) = (b.net("a"), b.net("m"), b.net("y"));
        b.mark_port(a);
        b.mark_port(y);
        b.add_device("u1", ity, &[a, m]).unwrap();
        b.add_device("u2", ity, &[m, y]).unwrap();
        b
    }

    fn two_inverter_chip() -> Netlist {
        let mut chip = Netlist::new("chip");
        let (i, m, o) = (chip.net("in"), chip.net("mid"), chip.net("out"));
        let cell = inv();
        instantiate(&mut chip, &cell, "g1", &[i, m]).unwrap();
        instantiate(&mut chip, &cell, "g2", &[m, o]).unwrap();
        chip
    }

    #[test]
    fn levels_group_by_reference_depth() {
        let h = Hierarchizer::new(&[buffer("buf2"), inv()]).unwrap();
        assert_eq!(h.levels().len(), 2);
        assert_eq!(h.levels()[0][0].name(), "inv");
        assert_eq!(h.levels()[1][0].name(), "buf2");
    }

    #[test]
    fn normalization_retypes_references_to_canonical_composites() {
        let h = Hierarchizer::new(&[inv(), buffer("buf2")]).unwrap();
        let norm = &h.levels()[1][0];
        let canonical = composite_type(&inv());
        let d = norm.device_ids().next().unwrap();
        assert_eq!(norm.device_type_of(d), &canonical);
    }

    #[test]
    fn two_level_fixpoint_recovers_the_buffer() {
        let outcome = hierarchize(
            &two_inverter_chip(),
            &[inv(), buffer("buf2")],
            &MatchOptions::extraction(),
        )
        .unwrap();
        assert_eq!(outcome.report.count_of("inv"), 2);
        assert_eq!(outcome.report.count_of("buf2"), 1);
        assert_eq!(outcome.top.device_count(), 1);
        assert_eq!(outcome.report.unabsorbed_devices, 0);
        // One productive sweep plus the all-quiet confirmation.
        assert_eq!(outcome.report.sweeps, 2);
        // Containment: buf2#…, two inv children, four transistor leaves.
        assert_eq!(outcome.report.roots().len(), 1);
        let root = outcome.report.roots().next().unwrap();
        assert_eq!(root.cell(), Some("buf2"));
        assert_eq!(root.children().len(), 2);
        for child in root.children() {
            assert_eq!(
                child.cell(),
                Some("inv"),
                "unexpected leaf {}",
                child.name()
            );
            assert_eq!(child.children().len(), 2);
            assert!(child.children().all(|c| c.cell().is_none()));
        }
        assert_eq!(outcome.used_cells().len(), 2);
    }

    /// A node and its subtree as `name[child child …]`, leaves bare.
    fn render(n: ContainmentNode<'_>) -> String {
        match n.cell() {
            None => n.name().into_owned(),
            Some(_) => {
                let children: Vec<String> = n.children().map(render).collect();
                format!("{}[{}]", n.name(), children.join(" "))
            }
        }
    }

    /// Two chained inverters, transistor by transistor, the first pmos
    /// named `first_pmos`.
    fn named_chain(first_pmos: &str) -> Netlist {
        let mut chip = Netlist::new("chain");
        let mos = chip.add_mos_types();
        let [i, w, o, vdd, gnd] = ["in", "w0", "out", "vdd", "gnd"].map(|n| chip.net(n));
        chip.mark_global(vdd);
        chip.mark_global(gnd);
        chip.add_device(first_pmos, mos.pmos, &[i, vdd, w]).unwrap();
        chip.add_device("mn1", mos.nmos, &[i, gnd, w]).unwrap();
        chip.add_device("mp2", mos.pmos, &[w, vdd, o]).unwrap();
        chip.add_device("mn2", mos.nmos, &[w, gnd, o]).unwrap();
        chip
    }

    #[test]
    fn a_flat_device_named_like_a_composite_stays_a_leaf() {
        // `mbuf#2` is the name the level-2 composite is minted under;
        // a tree keyed by name recursed into it forever.
        let library = [inv(), buffer("mbuf")];
        let options = MatchOptions::extraction();
        let twin = hierarchize(&named_chain("mp1"), &library, &options).unwrap();
        let collide = hierarchize(&named_chain("mbuf#2"), &library, &options).unwrap();
        let trees = [&twin, &collide].map(|o| {
            assert_eq!(o.report.count_of("inv"), 2);
            assert_eq!(o.report.count_of("mbuf"), 1);
            assert_eq!(o.report.unabsorbed_devices, 0);
            o.report.roots().map(render).collect::<Vec<_>>()
        });
        assert_eq!(trees[0], ["mbuf#2[inv#0[mp1 mn1] inv#1[mp2 mn2]]"]);
        assert_eq!(trees[1], ["mbuf#2[inv#0[mbuf#2 mn1] inv#1[mp2 mn2]]"]);
        let root = collide.report.roots().next().unwrap();
        let leaf = root.children().next().unwrap().children().next().unwrap();
        assert_eq!((leaf.cell(), leaf.name().as_ref()), (None, "mbuf#2"));
    }

    #[test]
    fn round_observer_sees_every_level_pass() {
        let mut h = Hierarchizer::new(&[inv(), buffer("buf2")]).unwrap();
        h.set_options(MatchOptions::extraction());
        let mut rounds = Vec::new();
        h.run_observed(&two_inverter_chip(), |r| rounds.push(r.clone()))
            .unwrap();
        // Two sweeps × two levels.
        assert_eq!(rounds.len(), 4);
        assert_eq!((rounds[0].sweep, rounds[0].level), (1, 1));
        assert_eq!(rounds[0].replaced, 2);
        assert_eq!((rounds[1].sweep, rounds[1].level), (1, 2));
        assert_eq!(rounds[1].replaced, 1);
        assert!(rounds[2..].iter().all(|r| r.replaced == 0));
    }

    #[test]
    fn reference_cycles_are_rejected() {
        let mk = |name: &str, other: &str| {
            let mut c = Netlist::new(name);
            let ty = c
                .add_type(DeviceType::new(
                    other,
                    vec![TerminalSpec::new("a", "a"), TerminalSpec::new("y", "y")],
                ))
                .unwrap();
            let (a, y) = (c.net("a"), c.net("y"));
            c.mark_port(a);
            c.mark_port(y);
            c.add_device("u", ty, &[a, y]).unwrap();
            c
        };
        let err = Hierarchizer::new(&[mk("a", "b"), mk("b", "a")]).unwrap_err();
        assert!(matches!(err, HierError::Cycle(_)), "{err}");
    }

    #[test]
    fn duplicate_cells_and_bad_arity_are_rejected() {
        let err = Hierarchizer::new(&[inv(), inv()]).unwrap_err();
        assert_eq!(err, HierError::DuplicateCell("inv".into()));

        let mut bad = Netlist::new("bad");
        let ty = bad
            .add_type(DeviceType::new("inv", vec![TerminalSpec::new("a", "a")]))
            .unwrap();
        let a = bad.net("a");
        bad.mark_port(a);
        bad.add_device("u", ty, &[a]).unwrap();
        let err = Hierarchizer::new(&[inv(), bad]).unwrap_err();
        assert!(matches!(err, HierError::PortArity { .. }), "{err}");
    }

    #[test]
    fn report_json_and_text_cover_the_schema() {
        let outcome = hierarchize(
            &two_inverter_chip(),
            &[inv(), buffer("buf2")],
            &MatchOptions::extraction(),
        )
        .unwrap();
        let doc = outcome.report.to_json();
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(REPORT_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("sweeps").unwrap().as_u64(), Some(2));
        let levels = doc.get("levels").unwrap().as_arr().unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(
            levels[0].get("cells").unwrap().as_arr().unwrap()[0]
                .get("found")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(doc.get("unabsorbed_devices").unwrap().as_u64(), Some(0));
        let text = outcome.report.render_text();
        assert!(text.contains("level 1:"), "{text}");
        assert!(text.contains("inv"), "{text}");
        assert!(text.contains("unabsorbed devices: 0"), "{text}");
    }
}
