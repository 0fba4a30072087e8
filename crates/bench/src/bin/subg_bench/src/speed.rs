//! The host's speed, read off a fixed reference kernel that runs between
//! the workload's timed operations.
//!
//! This VM shares its host, and the host slows every program on it by up
//! to 1.8× for stretches of seconds to minutes, so the medians of two
//! identical runs made minutes apart differ by more than a regression
//! bound. The reference kernel refines labels over a fixed random graph:
//! it hashes, sorts and allocates the way the engine's Phase I does, and
//! the host slows it in step with the engine (README.md, Host speed).
//! It is this file's own code and calls nothing of the program under
//! test, so a change to the program cannot move it. Every timed sample
//! is divided by the host's slowness around it, which scales it to a
//! host running at the nominal speed.

use std::collections::HashMap;
use std::time::Instant;

/// Nodes of the reference graph; each has [`DEGREE`] random neighbours.
const NODES: usize = 16_384;
const DEGREE: usize = 3;
/// Refinement rounds per reference run.
const ROUNDS: usize = 4;
/// Seed of the reference graph; never the workload's seed.
const GRAPH_SEED: u64 = 0x5EED_5EED;
/// One reference run on the host at nominal speed (2-vCPU Xeon VM, its
/// quiet stretches), in nanoseconds.
pub const NOMINAL_NS: f64 = 4.0e6;

/// The reference kernel and its latest reading.
pub struct Speed {
    graph: Vec<[u32; DEGREE]>,
    last_ns: f64,
    /// The slowness of every stretch measured, in order.
    readings: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Speed {
        let mut state = GRAPH_SEED;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % NODES as u64) as u32
        };
        let graph = (0..NODES).map(|_| [next(), next(), next()]).collect();
        Speed {
            graph,
            last_ns: NOMINAL_NS,
            readings: Vec::new(),
        }
    }
}

impl Speed {
    /// One reference run: [`ROUNDS`] rounds of colour refinement, each
    /// node's next label being the id of its label and sorted neighbour
    /// labels. Returns its wall time in nanoseconds.
    fn reference(&self) -> f64 {
        let t0 = Instant::now();
        let mut labels = vec![0u32; NODES];
        for _ in 0..ROUNDS {
            let mut ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
            let next: Vec<u32> = self
                .graph
                .iter()
                .zip(&labels)
                .map(|(adj, &own)| {
                    let mut key: Vec<u32> = adj.iter().map(|&j| labels[j as usize]).collect();
                    key.sort_unstable();
                    let id = ids.len() as u32;
                    *ids.entry((own, key)).or_insert(id)
                })
                .collect();
            labels = next;
        }
        std::hint::black_box(&labels);
        t0.elapsed().as_nanos() as f64
    }

    /// Reads the host's speed at the start of a timed stretch.
    pub fn mark(&mut self) {
        self.last_ns = self.reference();
    }

    /// Reads the host's speed again and returns its slowness over the
    /// stretch since the last reading: the mean of the two reference
    /// times over [`NOMINAL_NS`]. This reading starts the next stretch.
    pub fn since_mark(&mut self) -> f64 {
        let now = self.reference();
        let slowness = (self.last_ns + now) / 2.0 / NOMINAL_NS;
        self.last_ns = now;
        self.readings.push(slowness);
        slowness
    }

    /// The slowness of every stretch measured so far.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

/// Timed samples, each with the host's slowness over it.
#[derive(Default)]
pub struct Samples {
    pub ns: Vec<f64>,
    slowness: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ns: f64, slowness: f64) {
        self.ns.push(ns);
        self.slowness.push(slowness);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Every sample scaled to the host at nominal speed.
    pub fn scaled(&self) -> Vec<f64> {
        self.ns
            .iter()
            .zip(&self.slowness)
            .map(|(ns, s)| ns / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_fixed_work() {
        let a = Speed::default();
        let b = Speed::default();
        assert_eq!(a.graph, b.graph, "the reference graph depends on nothing");
        let mut speed = a;
        speed.mark();
        let s = speed.since_mark();
        assert!(s > 0.0 && s.is_finite(), "slowness {s}");
        assert_eq!(speed.readings(), [s]);
    }

    #[test]
    fn samples_are_divided_by_their_slowness() {
        let mut samples = Samples::default();
        samples.push(300.0, 1.5);
        samples.push(200.0, 1.0);
        assert_eq!(samples.scaled(), [200.0, 200.0]);
        assert_eq!(samples.len(), 2);
    }
}
