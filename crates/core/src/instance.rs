//! Result types: instances, statistics, outcomes.

use subgemini_netlist::{DeviceId, NetId, Netlist, Vertex};

/// One verified subcircuit instance: a mapping from every pattern vertex
/// to its image in the main circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubMatch {
    /// `devices[i]` is the main-circuit image of pattern device `i`.
    pub devices: Vec<DeviceId>,
    /// `nets[i]` is the main-circuit image of pattern net `i`.
    pub nets: Vec<NetId>,
}

impl SubMatch {
    /// Image of a pattern device.
    pub fn device(&self, s: DeviceId) -> DeviceId {
        self.devices[s.index()]
    }

    /// Image of a pattern net.
    pub fn net(&self, s: NetId) -> NetId {
        self.nets[s.index()]
    }

    /// The matched main-circuit devices as a sorted set — the canonical
    /// identity of the instance (automorphic remappings collapse onto
    /// the same set).
    pub fn device_set(&self) -> Vec<DeviceId> {
        let mut v = self.devices.clone();
        v.sort_unstable();
        v
    }

    /// Images of the pattern's ports, in port order — the "pin
    /// connections" of the found instance, used when replacing it with a
    /// composite device.
    pub fn port_images(&self, pattern: &Netlist) -> Vec<NetId> {
        pattern.ports().iter().map(|&p| self.net(p)).collect()
    }
}

/// Statistics from Phase I (candidate-vector generation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Phase1Stats {
    /// Relabeling iterations executed (one iteration = one net phase
    /// and/or one device phase, per the paper's optimized loop).
    pub iterations: usize,
    /// Size of the chosen candidate vector.
    pub cv_size: usize,
    /// Size of the pattern partition the key vertex was chosen from.
    pub key_partition_size: usize,
    /// `true` if a consistency check proved no instance can exist.
    pub proven_empty: bool,
}

/// Statistics from Phase II (candidate verification).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Phase2Stats {
    /// Candidates taken from the candidate vector.
    pub candidates_tried: usize,
    /// Candidates that failed verification (Phase I false positives).
    pub false_candidates: usize,
    /// Total relabeling passes across all candidates.
    pub passes: usize,
    /// Ambiguity guesses made (paper Fig. 5 situations).
    pub guesses: usize,
    /// Guesses that were rolled back.
    pub backtracks: usize,
    /// Instances dropped by [`OverlapPolicy::ClaimDevices`](crate::OverlapPolicy).
    pub overlap_dropped: usize,
}

impl Phase2Stats {
    /// Adds another stats block (one consumed candidate's worth) into
    /// this one. The streaming merge uses this to accumulate exactly
    /// the candidates it consumed, in candidate-vector order, so the
    /// outcome's stats are identical across thread counts.
    pub(crate) fn absorb(&mut self, o: &Phase2Stats) {
        self.candidates_tried += o.candidates_tried;
        self.false_candidates += o.false_candidates;
        self.passes += o.passes;
        self.guesses += o.guesses;
        self.backtracks += o.backtracks;
        self.overlap_dropped += o.overlap_dropped;
    }
}

/// Complete outcome of a SubGemini search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Verified instances, deduplicated by device set, in deterministic
    /// order.
    pub instances: Vec<SubMatch>,
    /// The key vertex chosen in the pattern (`None` when Phase I proved
    /// emptiness before choosing one).
    pub key: Option<Vertex>,
    /// Phase I statistics.
    pub phase1: Phase1Stats,
    /// Phase II statistics.
    pub phase2: Phase2Stats,
    /// Candidates the fingerprint index pruned from the candidate
    /// vector (0 when the search held no index).
    pub pruned_candidates: u64,
    /// Candidates the fingerprint index admitted to Phase II (0 when
    /// the search held no index).
    pub admitted_candidates: u64,
    /// Why Phase II rejected candidates, tallied over the candidates the
    /// merge consumed, so identical for every thread count.
    pub rejects: crate::events::RejectTally,
    /// Pass-by-pass trace of the first successful candidate, when
    /// [`MatchOptions::record_trace`](crate::MatchOptions) was set.
    pub trace: Option<crate::trace::Phase2Trace>,
    /// Phase timings and effort counters, when
    /// [`MatchOptions::collect_metrics`](crate::MatchOptions) was set.
    pub metrics: Option<crate::metrics::MetricsReport>,
    /// Merged structured event journal, when
    /// [`MatchOptions::trace_events`](crate::MatchOptions) was set.
    /// Deterministic across thread counts: events are ordered by
    /// `(candidate rank, sequence)` regardless of worker assignment.
    pub events: Option<crate::events::EventJournal>,
    /// Whether the search ran to completion or was stopped early by a
    /// [`WorkBudget`](crate::WorkBudget) or
    /// [`CancelToken`](crate::CancelToken). A truncated outcome still
    /// carries every instance verified before the stop; with an effort
    /// budget the truncation point is identical for every thread count.
    pub completeness: crate::budget::Completeness,
    /// The session-layer request id this search ran under
    /// ([`MatchOptions::request_id`](crate::MatchOptions)), stamped
    /// verbatim for correlation in reports and logs. Pure metadata: it
    /// never influences the search.
    pub request_id: Option<u64>,
}

impl MatchOutcome {
    /// Number of instances found.
    pub fn count(&self) -> usize {
        self.instances.len()
    }

    /// Distinct main-circuit images of the key vertex across instances.
    pub fn key_images(&self) -> Vec<Vertex> {
        let Some(key) = self.key else {
            return Vec::new();
        };
        let mut v: Vec<Vertex> = self
            .instances
            .iter()
            .map(|m| match key {
                Vertex::Device(d) => Vertex::Device(m.device(d)),
                Vertex::Net(n) => Vertex::Net(m.net(n)),
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total devices covered by all instances (with multiplicity) — the
    /// paper's "total number of devices within the subcircuits being
    /// matched", the x-axis of the linearity experiment (E5).
    pub fn matched_device_total(&self) -> usize {
        self.instances.iter().map(|m| m.devices.len()).sum()
    }
}

impl std::fmt::Display for MatchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} instance(s); phase1: |CV|={} in {} iterations; \
             phase2: {} tried, {} false, {} passes, {} guesses, {} backtracks",
            self.instances.len(),
            self.phase1.cv_size,
            self.phase1.iterations,
            self.phase2.candidates_tried,
            self.phase2.false_candidates,
            self.phase2.passes,
            self.phase2.guesses,
            self.phase2.backtracks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_set_is_sorted_and_canonical() {
        let m = SubMatch {
            devices: vec![DeviceId::new(5), DeviceId::new(1)],
            nets: vec![],
        };
        assert_eq!(m.device_set(), vec![DeviceId::new(1), DeviceId::new(5)]);
    }

    #[test]
    fn outcome_display_summarizes() {
        let o = MatchOutcome::default();
        let text = o.to_string();
        assert!(text.contains("0 instance(s)"));
        assert!(text.contains("phase2"));
    }

    #[test]
    fn outcome_counters() {
        let mut o = MatchOutcome::default();
        assert_eq!(o.count(), 0);
        assert!(o.key_images().is_empty());
        o.key = Some(Vertex::Device(DeviceId::new(0)));
        o.instances.push(SubMatch {
            devices: vec![DeviceId::new(3)],
            nets: vec![NetId::new(2)],
        });
        o.instances.push(SubMatch {
            devices: vec![DeviceId::new(3)],
            nets: vec![NetId::new(4)],
        });
        assert_eq!(o.count(), 2);
        assert_eq!(o.key_images(), vec![Vertex::Device(DeviceId::new(3))]);
        assert_eq!(o.matched_device_total(), 2);
    }
}
