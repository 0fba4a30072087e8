//! Phase I — generating the candidate vector (§III of the paper).
//!
//! Both circuits are partitioned by iterative relabeling, but the
//! pattern `S` carries a **valid/corrupt** bit per vertex: external
//! nets (ports) start corrupt because their images in `G` may have
//! extra connections, and corruption spreads to any vertex with a
//! corrupt neighbor. Label Invariant (1): while `s` is valid, its image
//! carries the same label — so every partition of valid `S` vertices
//! corresponds to a `G` partition that is guaranteed to contain all
//! images.
//!
//! The loop alternates net and device relabeling and stops when one
//! side of `S` is fully corrupt (plus two guards the paper doesn't
//! need: partition stabilization for closed patterns without external
//! nets, and a hard iteration cap). The smallest surviving `G`
//! partition becomes the candidate vector `CV`; its `S` counterpart
//! supplies the key vertex `K`.
//!
//! Consistency checks run after every phase: a valid `S` label that is
//! missing (or undersupplied) in `G` proves no instance exists.
//!
//! All loops run over the flat arrays of a [`CompiledCircuit`]: the
//! pattern side relabels through a reusable double buffer (no
//! per-iteration allocation), and `G`'s partitions are indexed by
//! vertex ids sorted by label ([`Side`]) instead of hash maps.
//!
//! `G`'s labels do not depend on the pattern, so its trace of steps can
//! be built once per main graph and shared: a warm-start handle
//! ([`WarmMain`]) holds the first [`SHARED_STEPS`] steps, written once
//! each by whichever request first needs them (DESIGN.md §3b).

use std::sync::{Arc, OnceLock};

use subgemini_netlist::{hashing, CompiledCircuit, DeviceId, NetId, Vertex};

use crate::events::{EventBuffer, EventKind};
use crate::instance::Phase1Stats;
use crate::options::WarmMain;

/// Output of Phase I.
#[derive(Clone, Debug)]
pub struct Phase1Output {
    /// The key vertex in the pattern (`None` iff `proven_empty` or the
    /// pattern has no usable vertices).
    pub key: Option<Vertex>,
    /// Candidate images of the key vertex in the main circuit.
    pub candidates: Vec<Vertex>,
    /// Statistics.
    pub stats: Phase1Stats,
    /// `Some` when a governor (deadline or cancellation) stopped the
    /// refinement loop before it finished: no candidate vector was
    /// selected (`key` is `None`) and the outcome must report itself
    /// as truncated. Always `None` on ungoverned runs.
    pub interrupted: Option<crate::budget::TruncationReason>,
}

struct Labels {
    dev: Vec<u64>,
    net: Vec<u64>,
}

fn initial_labels(g: &CompiledCircuit) -> Labels {
    Labels {
        dev: (0..g.device_count())
            .map(|i| g.initial_device_label(DeviceId::new(i as u32)))
            .collect(),
        net: (0..g.net_count())
            .map(|i| g.initial_net_label(NetId::new(i as u32)))
            .collect(),
    }
}

/// One Jacobi half-phase over `c`: writes the next label of every net
/// (`nets`) or of every device into `out`, each a pure function of the
/// previous `dev`/`net` labels. Global nets keep their fixed labels.
fn relabel(c: &CompiledCircuit, dev: &[u64], net: &[u64], nets: bool, out: &mut Vec<u64>) {
    let next = |i: usize| {
        if nets {
            let n = NetId::new(i as u32);
            if c.is_global(n) {
                net[i]
            } else {
                hashing::relabel(net[i], c.net_contribs(n, |d| Some(dev[d.index()])).sum)
            }
        } else {
            let d = DeviceId::new(i as u32);
            hashing::relabel(dev[i], c.device_contribs(d, |n| Some(net[n.index()])).sum)
        }
    };
    let len = if nets { net.len() } else { dev.len() };
    out.clear();
    out.extend((0..len).map(next));
}

/// One side (devices or nets) of a `G` trace step: its labels plus the
/// label→members partition index, stored as the vertex ids sorted by
/// `(label, id)` and looked up through `labels`. Lookup is two binary
/// searches; building is one sort — cheaper and cache-friendlier than a
/// `HashMap<u64, Vec>` for the snapshot-heavy trace.
struct Side {
    labels: Vec<u64>,
    order: Vec<u32>,
}

impl Side {
    fn new(labels: Vec<u64>) -> Self {
        // A stable sort of ascending ids by label alone leaves ties in
        // id order; it beats sorting `(label, id)` keys, most of all on
        // the few distinct labels of early steps.
        let mut order: Vec<u32> = (0..labels.len() as u32).collect();
        order.sort_by_key(|&i| labels[i as usize]);
        Self { labels, order }
    }

    /// The members of `label`'s partition, ascending by vertex index.
    fn members(&self, label: u64) -> &[u32] {
        let of = |i: &u32| self.labels[*i as usize];
        let lo = self.order.partition_point(|i| of(i) < label);
        let len = self.order[lo..].partition_point(|i| of(i) == label);
        &self.order[lo..lo + len]
    }

    fn count(&self, label: u64) -> usize {
        self.members(label).len()
    }
}

/// One step of a `G` trace, cached so that per-pattern consistency
/// checks cost `O(|S| log |G|)` rather than `O(|G|)`. Step 0 is the
/// initial labeling; odd steps follow a net half-phase, even steps a
/// device half-phase. A half-phase changes one side only, so a step
/// owns the side it changed and shares the other with the step before.
struct Step {
    dev: Arc<Side>,
    net: Arc<Side>,
}

impl Step {
    fn initial(g: &CompiledCircuit) -> Self {
        let Labels { dev, net } = initial_labels(g);
        Self {
            dev: Arc::new(Side::new(dev)),
            net: Arc::new(Side::new(net)),
        }
    }

    /// The step after `self`, whose index is `index`.
    fn next(&self, g: &CompiledCircuit, index: usize) -> Self {
        let nets = index % 2 == 1;
        let mut out = Vec::new();
        relabel(g, &self.dev.labels, &self.net.labels, nets, &mut out);
        let changed = Arc::new(Side::new(out));
        if nets {
            Self {
                dev: Arc::clone(&self.dev),
                net: changed,
            }
        } else {
            Self {
                dev: changed,
                net: Arc::clone(&self.net),
            }
        }
    }
}

/// How many leading `G` trace steps a warm-start handle shares across
/// requests. Refinement stops once one side of the pattern is fully
/// corrupt, which takes few half-phases for library-sized cells: every
/// `cells::library()` cell stops by step 4 on the 10^5-device tiled
/// chip (`dff`), so six slots leave a cycle to spare. Deeper steps
/// (large or closed patterns) stay private to the request that needs
/// them, so the shared part has a fixed size per handle whatever
/// patterns arrive.
pub(crate) const SHARED_STEPS: usize = 6;

/// The shared prefix of one main graph's trace: each slot is written
/// once, by the first request that needs that step, and read lock-free
/// afterwards. Lives in the [`WarmMain`] handle it belongs to.
#[derive(Default)]
pub(crate) struct SharedSteps {
    slots: [OnceLock<Arc<Step>>; SHARED_STEPS],
}

impl SharedSteps {
    /// Steps built so far.
    #[cfg(test)]
    fn built(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }
}

/// A lazily extended sequence of `G` label steps. Main-graph
/// relabeling in Phase I is *pattern-independent* (no valid/corrupt
/// logic applies to `G`), so one trace can serve many patterns — the
/// basis of [`run_many`] and the matcher's multi-pattern path — and,
/// through a [`WarmMain`]'s [`SharedSteps`], many requests.
///
/// The trace owns an [`Arc`] of the compiled main graph, so it can
/// outlive the borrow that produced it (the extractor keeps one alive
/// across replacement passes).
pub struct GTrace {
    g: Arc<CompiledCircuit>,
    /// Steps built or adopted so far, in order.
    steps: Vec<Arc<Step>>,
    /// Where the first [`SHARED_STEPS`] steps come from, if shared.
    shared: Option<WarmMain>,
}

impl GTrace {
    /// Starts a private trace for the compiled main graph `g`. Nothing
    /// is built until Phase I asks for a step.
    pub fn new(g: Arc<CompiledCircuit>) -> Self {
        Self {
            g,
            steps: Vec::new(),
            shared: None,
        }
    }

    /// Starts a trace over a warm handle's compiled main graph that
    /// adopts the handle's shared steps, building each one first if no
    /// request has yet.
    pub(crate) fn shared(warm: &WarmMain) -> Self {
        Self {
            shared: Some(warm.clone()),
            ..Self::new(Arc::clone(warm.compiled()))
        }
    }

    /// The step after `index` relabeling half-phases, extending the
    /// trace as needed.
    fn step(&mut self, index: usize) -> Arc<Step> {
        while self.steps.len() <= index {
            let i = self.steps.len();
            let build = || match self.steps.last() {
                None => Step::initial(&self.g),
                Some(prev) => prev.next(&self.g, i),
            };
            let step = match self
                .shared
                .as_ref()
                .and_then(|w| w.shared_steps().slots.get(i))
            {
                Some(slot) => Arc::clone(slot.get_or_init(|| Arc::new(build()))),
                None => Arc::new(build()),
            };
            self.steps.push(step);
        }
        Arc::clone(&self.steps[index])
    }
}

struct Validity {
    dev: Vec<bool>,
    net: Vec<bool>,
}

impl Validity {
    fn new(s: &CompiledCircuit) -> Self {
        let net = (0..s.net_count())
            .map(|i| {
                let n = NetId::new(i as u32);
                // External nets are corrupt from the start; globals stay
                // valid forever (their labels are fixed by name).
                s.is_global(n) || !s.is_port(n)
            })
            .collect();
        Self {
            dev: vec![true; s.device_count()],
            net,
        }
    }

    /// Marks nets with an invalid device neighbor invalid; returns how
    /// many were newly invalidated.
    fn propagate_to_nets(&mut self, s: &CompiledCircuit) -> usize {
        let mut newly = 0;
        for i in 0..self.net.len() {
            let n = NetId::new(i as u32);
            if !self.net[i] || s.is_global(n) {
                continue;
            }
            if s.net_neighbors(n).any(|(d, _)| !self.dev[d.index()]) {
                self.net[i] = false;
                newly += 1;
            }
        }
        newly
    }

    /// Marks devices with an invalid net neighbor invalid; returns how
    /// many were newly invalidated.
    fn propagate_to_devices(&mut self, s: &CompiledCircuit) -> usize {
        let mut newly = 0;
        for i in 0..self.dev.len() {
            if !self.dev[i] {
                continue;
            }
            let d = DeviceId::new(i as u32);
            if s.device_neighbors(d).any(|(n, _)| !self.net[n.index()]) {
                self.dev[i] = false;
                newly += 1;
            }
        }
        newly
    }

    fn live_nets(&self, s: &CompiledCircuit) -> usize {
        (0..self.net.len())
            .filter(|&i| self.net[i] && !s.is_global(NetId::new(i as u32)))
            .count()
    }

    fn live_devices(&self) -> usize {
        self.dev.iter().filter(|&&v| v).count()
    }
}

/// Checks Label Invariant (1)'s consequence: every valid `S` partition
/// must be matched in `G` with at least as many members. `Err` carries
/// the first violated `(label, s_count, g_count)` — the pattern
/// provably has no instance. The valid `S` labels are gathered into
/// `scratch` and sorted; each equal-label run is checked against the
/// trace step's cached partition index.
fn consistent(
    s_labels: &[u64],
    s_valid: &[bool],
    g_side: &Side,
    scratch: &mut Vec<u64>,
) -> Result<(), (u64, usize, usize)> {
    scratch.clear();
    scratch.extend(
        s_labels
            .iter()
            .zip(s_valid.iter())
            .filter(|&(_, &v)| v)
            .map(|(&l, _)| l),
    );
    scratch.sort_unstable();
    let mut i = 0;
    while i < scratch.len() {
        let l = scratch[i];
        let mut j = i + 1;
        while j < scratch.len() && scratch[j] == l {
            j += 1;
        }
        let gc = g_side.count(l);
        if gc < j - i {
            return Err((l, j - i, gc));
        }
        i = j;
    }
    Ok(())
}

/// Wall-clock split of one Phase I run (zeroed unless collection was
/// requested).
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase1Timing {
    /// Iterative-relabeling (partition refinement) time.
    pub refine_ns: u64,
    /// Candidate-vector / key-vertex selection time.
    pub select_ns: u64,
}

/// Runs Phase I.
pub fn run(s: &CompiledCircuit, g: &Arc<CompiledCircuit>) -> Phase1Output {
    run_many(&[s], g).pop().expect("one output per pattern")
}

/// Runs Phase I for many patterns against one main circuit, relabeling
/// the main graph only once: its Phase I labels do not depend on the
/// pattern, so the per-pattern cost drops from `O(|G|·iters)` to the
/// pattern-side work after the first call.
pub fn run_many(patterns: &[&CompiledCircuit], g: &Arc<CompiledCircuit>) -> Vec<Phase1Output> {
    let mut trace = GTrace::new(Arc::clone(g));
    patterns
        .iter()
        .map(|s| run_governed(s, &mut trace, false, None, None).0)
        .collect()
}

/// Runs Phase I against a (shared, lazily extended) main-graph label
/// trace.
///
/// Globals in either graph never relabel (fixed name-derived labels) and
/// are excluded from candidate-vector selection: with special-net
/// semantics they are pre-matched by name, so anchoring Phase II on them
/// would be useless.
///
/// * `collect` times refinement and selection separately (no clock
///   reads when unset). Refinement includes building any `G` step the
///   trace does not hold yet, step 0 included.
/// * `events` receives [`RefineIter`](EventKind::RefineIter) /
///   [`RefineFail`](EventKind::RefineFail) /
///   [`CvSelected`](EventKind::CvSelected) events; with `None` no event
///   is constructed (the hot loop stays event-free).
/// * `governor` checks cancellation and wall-clock deadlines once per
///   refinement cycle (effort accounting stays with the caller, which
///   charges the returned iteration count). The governor type is
///   crate-private by design.
pub(crate) fn run_governed(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    collect: bool,
    mut events: Option<&mut EventBuffer>,
    governor: Option<&crate::budget::Governor>,
) -> (Phase1Output, Phase1Timing) {
    let mut timing = Phase1Timing::default();
    let timer = collect.then(crate::metrics::PhaseTimer::start);
    let refined = refine(s, trace, events.as_deref_mut(), governor);
    if let Some(t) = &timer {
        timing.refine_ns = t.elapsed_ns();
    }
    let out = match refined {
        Err((stats, interrupted)) => Phase1Output {
            key: None,
            candidates: Vec::new(),
            stats,
            interrupted,
        },
        Ok(refined) => {
            let timer = collect.then(crate::metrics::PhaseTimer::start);
            let out = select(s, trace, refined, events);
            if let Some(t) = &timer {
                timing.select_ns = t.elapsed_ns();
            }
            out
        }
    };
    (out, timing)
}

/// Pattern-side state after the refinement loop stops.
struct Refined {
    sl: Labels,
    valid: Validity,
    step: usize,
    stats: Phase1Stats,
}

/// Distinct labels among valid vertices (both sides) — the event-stream
/// notion of "live partitions". Only computed when events are on.
fn distinct_valid_labels(sl: &Labels, valid: &Validity) -> u32 {
    let mut set = std::collections::HashSet::new();
    for (i, &l) in sl.dev.iter().enumerate() {
        if valid.dev[i] {
            set.insert((false, l));
        }
    }
    for (i, &l) in sl.net.iter().enumerate() {
        if valid.net[i] {
            set.insert((true, l));
        }
    }
    set.len() as u32
}

/// The iterative-relabeling loop: alternating net/device phases with
/// valid/corrupt propagation and per-phase consistency checks. `Err`
/// carries the stats of a run that stopped early: with no
/// [`TruncationReason`](crate::budget::TruncationReason) it proved no
/// instance can exist; with one, a governor interrupted it.
fn refine(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    mut events: Option<&mut EventBuffer>,
    governor: Option<&crate::budget::Governor>,
) -> Result<Refined, (Phase1Stats, Option<crate::budget::TruncationReason>)> {
    let mut stats = Phase1Stats::default();
    let mut sl = initial_labels(s);
    let mut valid = Validity::new(s);
    let mut step = 0usize;
    // Reused buffers: double-buffer for relabeling, sort buffer for
    // consistency checks. No allocation inside the loop after warmup.
    let mut relabel_buf: Vec<u64> = Vec::new();
    let mut sort_buf: Vec<u64> = Vec::new();

    let empty = |stats: Phase1Stats| Phase1Stats {
        proven_empty: true,
        ..stats
    };
    let fail_event = |events: &mut Option<&mut EventBuffer>,
                      round: usize,
                      (label, s_count, g_count): (u64, usize, usize)| {
        if let Some(ev) = events.as_deref_mut() {
            ev.push(EventKind::RefineFail {
                round: round as u32,
                label,
                s_count: s_count as u32,
                g_count: g_count as u32,
            });
        }
    };

    // Consistency on the initial (invariant) labels — the check that
    // removes the "-" vertices in paper Fig. 4.
    {
        let g0 = trace.step(0);
        if let Err(v) = consistent(&sl.dev, &valid.dev, &g0.dev, &mut sort_buf)
            .and_then(|()| consistent(&sl.net, &valid.net, &g0.net, &mut sort_buf))
        {
            fail_event(&mut events, 0, v);
            return Err((empty(stats), None));
        }
    }

    let max_cycles = s.device_count() + s.net_count() + 2;
    let mut prev_signature = (0usize, 0usize, 0usize);
    for _cycle in 0..max_cycles {
        // Cooperative stop check, once per cycle: a cancelled or
        // deadline-expired search abandons refinement (the caller
        // reports a truncated outcome). A zero deadline always stops
        // here, before any relabeling work — the deterministic case.
        crate::budget::failpoint::stall("phase1.cycle");
        if let Some(reason) = governor.and_then(crate::budget::Governor::interrupted) {
            return Err((stats, Some(reason)));
        }
        // --- net phase ---
        relabel(s, &sl.dev, &sl.net, true, &mut relabel_buf);
        std::mem::swap(&mut sl.net, &mut relabel_buf);
        step += 1;
        let inv_n = valid.propagate_to_nets(s);
        stats.iterations += 1;
        if let Some(ev) = events.as_deref_mut() {
            ev.push(EventKind::RefineIter {
                round: stats.iterations as u32,
                live_partitions: distinct_valid_labels(&sl, &valid),
                corrupted: inv_n as u32,
            });
        }
        if let Err(v) = consistent(&sl.net, &valid.net, &trace.step(step).net, &mut sort_buf) {
            fail_event(&mut events, stats.iterations, v);
            return Err((empty(stats), None));
        }
        if valid.live_nets(s) == 0 {
            break;
        }
        // --- device phase ---
        relabel(s, &sl.dev, &sl.net, false, &mut relabel_buf);
        std::mem::swap(&mut sl.dev, &mut relabel_buf);
        step += 1;
        let inv_d = valid.propagate_to_devices(s);
        stats.iterations += 1;
        if let Some(ev) = events.as_deref_mut() {
            ev.push(EventKind::RefineIter {
                round: stats.iterations as u32,
                live_partitions: distinct_valid_labels(&sl, &valid),
                corrupted: inv_d as u32,
            });
        }
        if let Err(v) = consistent(&sl.dev, &valid.dev, &trace.step(step).dev, &mut sort_buf) {
            fail_event(&mut events, stats.iterations, v);
            return Err((empty(stats), None));
        }
        if valid.live_devices() == 0 {
            break;
        }
        // --- stabilization guard (closed patterns never corrupt) ---
        let distinct_valid = distinct_valid_labels(&sl, &valid) as usize;
        let signature = (inv_n, inv_d, distinct_valid);
        if inv_n == 0 && inv_d == 0 && signature.2 == prev_signature.2 && _cycle > 0 {
            break;
        }
        prev_signature = signature;
    }

    Ok(Refined {
        sl,
        valid,
        step,
        stats,
    })
}

/// Sorted `(label, index)` entries of the valid `S` vertices on one
/// side, collapsed into `(label, count, first_index)` runs.
fn valid_runs(labels: &[u64], keep: impl Fn(usize) -> bool) -> Vec<(u64, u32, u32)> {
    let mut entries: Vec<(u64, u32)> = labels
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep(i))
        .map(|(i, &l)| (l, i as u32))
        .collect();
    entries.sort_unstable();
    let mut runs: Vec<(u64, u32, u32)> = Vec::new();
    for (l, i) in entries {
        match runs.last_mut() {
            Some((rl, c, _)) if *rl == l => *c += 1,
            _ => runs.push((l, 1, i)),
        }
    }
    runs
}

/// Candidate-vector selection: the key vertex comes from the smallest
/// viable `G` partition of the refined ones, and its candidate images
/// are materialized.
fn select(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    refined: Refined,
    mut events: Option<&mut EventBuffer>,
) -> Phase1Output {
    let Refined {
        sl,
        valid,
        step,
        mut stats,
    } = refined;
    let empty = |stats: Phase1Stats| Phase1Output {
        key: None,
        candidates: Vec::new(),
        stats: Phase1Stats {
            proven_empty: true,
            ..stats
        },
        interrupted: None,
    };
    // Use the cached G partitions at the step we stopped on. Global
    // nets are filtered out of the (at most |S|) partitions we actually
    // inspect, keeping per-pattern cost near-independent of |G|.
    let data = trace.step(step);
    let g = &trace.g;

    // Valid S vertices per label as sorted runs, so we can report the
    // key's partition size and verify |P_g| >= |P_s| one last time.
    let s_dev_runs = valid_runs(&sl.dev, |i| valid.dev[i]);
    let s_net_runs = valid_runs(&sl.net, |i| {
        valid.net[i] && !s.is_global(NetId::new(i as u32))
    });

    // Non-global G net partition members for exactly the labels we may
    // anchor on, keyed in run (= ascending label) order.
    let mut g_net_parts: Vec<(u64, Vec<u32>)> = s_net_runs
        .iter()
        .map(|&(l, _, _)| {
            let members: Vec<u32> = data
                .net
                .members(l)
                .iter()
                .copied()
                .filter(|&gi| !g.is_global(NetId::new(gi)))
                .collect();
            (l, members)
        })
        .collect();

    // Enumerate viable (G-partition size, side, label, first S index)
    // choices, verifying |P_g| >= |P_s| one last time, then pick the
    // smallest: the paper's rule, minimizing Phase II work. Tie-breaking
    // is deterministic by (size, side, label).
    let mut viable: Vec<(usize, u8, u64, u32)> = Vec::new();
    for &(l, sc, first) in &s_dev_runs {
        let gp = data.dev.count(l);
        if gp < sc as usize {
            if let Some(ev) = events.as_deref_mut() {
                ev.push(EventKind::RefineFail {
                    round: stats.iterations as u32,
                    label: l,
                    s_count: sc,
                    g_count: gp as u32,
                });
            }
            return empty(stats);
        }
        viable.push((gp, 0u8, l, first));
    }
    for (&(l, sc, first), (_, members)) in s_net_runs.iter().zip(&g_net_parts) {
        let gp = members.len();
        if gp < sc as usize {
            if let Some(ev) = events.as_deref_mut() {
                ev.push(EventKind::RefineFail {
                    round: stats.iterations as u32,
                    label: l,
                    s_count: sc,
                    g_count: gp as u32,
                });
            }
            return empty(stats);
        }
        viable.push((gp, 1u8, l, first));
    }
    let best = viable
        .iter()
        .min_by_key(|&&(gp, side, l, _)| (gp, side, l))
        .copied();
    let Some((size, side, label, first)) = best else {
        // No valid vertices at all (pattern without devices): nothing to
        // anchor on.
        return Phase1Output {
            key: None,
            candidates: Vec::new(),
            stats,
            interrupted: None,
        };
    };
    let (key, candidates): (Vertex, Vec<Vertex>) = if side == 0 {
        (
            Vertex::Device(DeviceId::new(first)),
            data.dev
                .members(label)
                .iter()
                .map(|&i| Vertex::Device(DeviceId::new(i)))
                .collect(),
        )
    } else {
        let slot = g_net_parts
            .binary_search_by_key(&label, |&(l, _)| l)
            .expect("net label came from the same runs");
        (
            Vertex::Net(NetId::new(first)),
            std::mem::take(&mut g_net_parts[slot].1)
                .into_iter()
                .map(|i| Vertex::Net(NetId::new(i)))
                .collect(),
        )
    };
    if let Some(ev) = events {
        ev.push(EventKind::CvSelected {
            label,
            size: size as u32,
            key_vertex: key,
        });
    }
    stats.cv_size = size;
    stats.key_partition_size = if side == 0 {
        s_dev_runs
            .iter()
            .find(|&&(l, _, _)| l == label)
            .map_or(0, |&(_, c, _)| c as usize)
    } else {
        s_net_runs
            .iter()
            .find(|&&(l, _, _)| l == label)
            .map_or(0, |&(_, c, _)| c as usize)
    };
    Phase1Output {
        key: Some(key),
        candidates,
        stats,
        interrupted: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini_netlist::{instantiate, Netlist};

    fn compile(nl: &Netlist) -> Arc<CompiledCircuit> {
        Arc::new(CompiledCircuit::compile(nl))
    }

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

    fn inverter_chain(n: usize) -> Netlist {
        let inv = inverter_cell();
        let mut chip = Netlist::new("chain");
        let mut prev = chip.net("in");
        for i in 0..n {
            let next = chip.net(format!("w{i}"));
            instantiate(&mut chip, &inv, &format!("u{i}"), &[prev, next]).unwrap();
            prev = next;
        }
        chip
    }

    #[test]
    fn candidate_vector_covers_all_instances() {
        let pat = inverter_cell();
        let chip = inverter_chain(5);
        let sp = compile(&pat);
        let gp = compile(&chip);
        let out = run(&sp, &gp);
        assert!(!out.stats.proven_empty);
        let key = out.key.expect("key chosen");
        // Whatever the key is, completeness demands |CV| >= 5 images.
        assert!(out.candidates.len() >= 5, "cv={:?}", out.candidates);
        assert_eq!(out.stats.cv_size, out.candidates.len());
        // Key must come from the pattern's vertex space.
        match key {
            Vertex::Device(d) => assert!(d.index() < pat.device_count()),
            Vertex::Net(n) => assert!(n.index() < pat.net_count()),
        }
    }

    #[test]
    fn absent_device_type_proves_empty() {
        // Pattern uses a resistor; main circuit has none.
        let mut pat = Netlist::new("rc");
        let res = pat
            .add_type(subgemini_netlist::DeviceType::two_terminal("res"))
            .unwrap();
        let (a, b) = (pat.net("a"), pat.net("b"));
        pat.mark_port(a);
        pat.mark_port(b);
        pat.add_device("r1", res, &[a, b]).unwrap();
        let chip = inverter_chain(3);
        let out = run(&compile(&pat), &compile(&chip));
        assert!(out.stats.proven_empty);
        assert!(out.key.is_none());
    }

    #[test]
    fn oversized_pattern_proves_empty() {
        // Pattern needs 4 pmos; main has 2.
        let mut pat = Netlist::new("big");
        let mos = pat.add_mos_types();
        let vdd = pat.net("vdd");
        pat.mark_global(vdd);
        for i in 0..4 {
            let g = pat.net(format!("g{i}"));
            let d = pat.net(format!("d{i}"));
            pat.mark_port(g);
            pat.mark_port(d);
            pat.add_device(format!("p{i}"), mos.pmos, &[g, vdd, d])
                .unwrap();
        }
        let chip = inverter_chain(2);
        let out = run(&compile(&pat), &compile(&chip));
        assert!(out.stats.proven_empty);
    }

    #[test]
    fn closed_pattern_terminates() {
        // A ring oscillator pattern: no ports at all. Phase I must stop
        // via the stabilization guard, not loop forever.
        let inv = inverter_cell();
        let mut ring = Netlist::new("ring");
        let (a, b, c) = (ring.net("n0"), ring.net("n1"), ring.net("n2"));
        for (i, (x, y)) in [(a, b), (b, c), (c, a)].iter().enumerate() {
            instantiate(&mut ring, &inv, &format!("u{i}"), &[*x, *y]).unwrap();
        }
        // Pattern = the ring itself (no ports -> no external nets).
        let mut big = Netlist::new("big");
        let (p, q, r, s) = (big.net("m0"), big.net("m1"), big.net("m2"), big.net("m3"));
        for (i, (x, y)) in [(p, q), (q, r), (r, s), (s, p)].iter().enumerate() {
            instantiate(&mut big, &inv, &format!("v{i}"), &[*x, *y]).unwrap();
        }
        let out = run(&compile(&ring), &compile(&big));
        // 3-ring is not a subgraph of a 4-ring; Phase I may or may not
        // prove it, but it must terminate with *some* answer.
        assert!(out.stats.iterations < 100);
    }

    #[test]
    fn key_prefers_small_partitions() {
        // One NAND in a sea of inverters: anchoring on the NAND-specific
        // structure should give a small CV.
        let inv = inverter_cell();
        let mut chip = inverter_chain(8);
        // Plant a distinctive 2-high NMOS stack.
        let mos = chip.add_mos_types();
        let (x, y, z, gnd) = (
            chip.net("x"),
            chip.net("y9"),
            chip.net("z"),
            chip.net("gnd"),
        );
        chip.add_device("s1", mos.nmos, &[x, y, z]).unwrap();
        let w = chip.net("w9");
        chip.add_device("s2", mos.nmos, &[x, z, gnd]).unwrap();
        let _ = w;
        let pat = inv;
        let out = run(&compile(&pat), &compile(&chip));
        // The inverter pattern's CV must still include all 8 planted
        // inverters' key images.
        assert!(out.candidates.len() >= 8);
    }

    #[test]
    fn iterations_bounded_by_pattern_size() {
        let pat = inverter_cell();
        let chip = inverter_chain(12);
        let out = run(&compile(&pat), &compile(&chip));
        assert!(out.stats.iterations <= pat.device_count() + pat.net_count() + 4);
    }

    /// Asserts two steps carry the same labels and partition order on
    /// both sides.
    fn assert_same_step(a: &Step, b: &Step, what: &str) {
        assert_eq!(a.dev.labels, b.dev.labels, "{what}: device labels");
        assert_eq!(a.dev.order, b.dev.order, "{what}: device order");
        assert_eq!(a.net.labels, b.net.labels, "{what}: net labels");
        assert_eq!(a.net.order, b.net.order, "{what}: net order");
    }

    #[test]
    fn half_phase_steps_share_the_side_they_did_not_change() {
        let mut trace = GTrace::new(compile(&inverter_chain(5)));
        let steps: Vec<Arc<Step>> = (0..5).map(|i| trace.step(i)).collect();
        for i in 1..steps.len() {
            let (prev, step) = (&steps[i - 1], &steps[i]);
            let nets = i % 2 == 1;
            assert_eq!(Arc::ptr_eq(&prev.dev, &step.dev), nets, "step {i} devices");
            assert_eq!(Arc::ptr_eq(&prev.net, &step.net), !nets, "step {i} nets");
        }
    }

    #[test]
    fn shared_prefix_is_built_once_and_matches_a_private_trace() {
        let chip = inverter_chain(9);
        let depth = SHARED_STEPS + 3;
        let mut private = GTrace::new(compile(&chip));
        let reference: Vec<Arc<Step>> = (0..=depth).map(|i| private.step(i)).collect();
        let warm = WarmMain::from_artifact(subgemini_netlist::Artifact::build(&chip), 0);
        let mut a = GTrace::shared(&warm);
        let mut b = GTrace::shared(&warm);
        // Interleaved, to different depths: `a` builds the first
        // steps, `b` adopts them and builds the rest of the prefix
        // and past it, `a` adopts those and goes past the cap too.
        for (first, upto) in [(true, 2), (false, depth), (true, depth - 1)] {
            let trace = if first { &mut a } else { &mut b };
            let step = trace.step(upto);
            assert_same_step(&step, &reference[upto], &format!("step {upto}"));
            assert!(warm.shared_steps().built() <= SHARED_STEPS);
        }
        assert_eq!(warm.shared_steps().built(), SHARED_STEPS);
        for (i, want) in reference.iter().enumerate() {
            let what = format!("step {i}");
            assert_same_step(&b.steps[i], want, &what);
            if i < a.steps.len() {
                assert_same_step(&a.steps[i], want, &what);
                let adopted = Arc::ptr_eq(&a.steps[i], &b.steps[i]);
                assert_eq!(
                    adopted,
                    i < SHARED_STEPS,
                    "{what}: shared iff below the cap"
                );
            }
        }
    }

    #[test]
    fn shared_trace_reproduces_isolated_runs() {
        // run_many over one trace must agree with one-trace-per-pattern.
        let pats = [inverter_cell(), inverter_cell()];
        let chip = inverter_chain(6);
        let g = compile(&chip);
        let compiled: Vec<Arc<CompiledCircuit>> = pats.iter().map(compile).collect();
        let refs: Vec<&CompiledCircuit> = compiled.iter().map(|c| c.as_ref()).collect();
        let many = run_many(&refs, &g);
        for (s, out) in refs.iter().zip(&many) {
            let solo = run(s, &g);
            assert_eq!(solo.key, out.key);
            assert_eq!(solo.candidates, out.candidates);
        }
    }
}
