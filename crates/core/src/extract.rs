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

/// One composite device created by extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtractedInstance {
    /// The library cell name.
    pub cell: String,
    /// The composite device's name in the output netlist.
    pub device: String,
    /// Names of the primitive devices that were collapsed.
    pub absorbed: Vec<String>,
}

/// Summary of an extraction run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtractReport {
    /// All composites created, in creation order.
    pub instances: Vec<ExtractedInstance>,
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
    /// evolving netlist — the re-entrant mode the hierarchy fixpoint
    /// driver uses — never collide with composites minted by earlier
    /// rounds. Composites from a prior round are legal main devices:
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
        self.run(Cow::Borrowed(main))
    }

    /// [`Extractor::extract`] over a netlist the caller gives up, so
    /// even the first replacing round collapses it without a copy: the
    /// hierarchizer threads its one working netlist through every round
    /// this way.
    pub(crate) fn extract_owned(
        &self,
        main: Netlist,
    ) -> Result<(Netlist, ExtractReport), NetlistError> {
        self.run(Cow::Owned(main))
    }

    fn run(&self, mut current: Cow<'_, Netlist>) -> Result<(Netlist, ExtractReport), NetlistError> {
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
        // A collapse keeps survivors in order and appends composites, so
        // the input devices still alive are always the prefix
        // `0..inputs_alive` of the device list and this run's composites
        // its tail.
        let mut inputs_alive = current.device_count();
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
                inputs_alive -= outcome
                    .instances
                    .iter()
                    .flat_map(|m| &m.devices)
                    .filter(|d| d.index() < inputs_alive)
                    .count();
                replace_instances(
                    current.to_mut(),
                    cell,
                    &outcome.instances,
                    &mut report,
                    self.composite_offset,
                )?;
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
        // A device is absorbed exactly when it *is* one of this run's
        // composites, so the residue is the surviving input devices.
        // Comparing type names against cell names would misclassify input
        // devices whose type happens to share a library cell's name — the
        // normal state of a partially extracted netlist fed back in.
        report.unabsorbed_devices = inputs_alive;
        Ok((current.into_owned(), report))
    }
}

/// Collapses each instance of `cell` in `main` into a composite device
/// named `cell#k`, numbering on from the composites already reported.
fn replace_instances(
    main: &mut Netlist,
    cell: &Netlist,
    instances: &[SubMatch],
    report: &mut ExtractReport,
    composite_offset: usize,
) -> Result<(), NetlistError> {
    let absorbed: Vec<DeviceId> = instances
        .iter()
        .flat_map(|m| m.devices.iter().copied())
        .collect();
    let start = composite_offset + report.instances.len();
    let mut composites = Vec::with_capacity(instances.len());
    for (i, m) in instances.iter().enumerate() {
        let name = format!("{}#{}", cell.name(), start + i);
        // Absorbed names are read before the collapse frees them.
        report.instances.push(ExtractedInstance {
            cell: cell.name().to_string(),
            device: name.clone(),
            absorbed: m
                .devices
                .iter()
                .map(|&d| main.device(d).name().to_string())
                .collect(),
        });
        composites.push((name, m.port_images(cell)));
    }
    main.collapse(&absorbed, composite_type(cell), composites)
}
