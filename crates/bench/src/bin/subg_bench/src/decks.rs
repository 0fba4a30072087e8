//! Inputs as the program receives them: SPICE deck text. The generators
//! in `subgemini_workloads` build netlists with planted ground truth;
//! this module renders them to decks and feeds the decks back through
//! the engine's own source loading, timing each layer on the way.

use subgemini::metrics::json::Value;
use subgemini_engine::source::{self, SourceKind};
use subgemini_engine::{CompileInfo, Engine};
use subgemini_netlist::hashing::fnv1a;
use subgemini_netlist::{structural_digest, Artifact, CompiledCircuit, FingerprintIndex, Netlist};

use crate::trace::Trace;

/// A generated SPICE deck.
pub struct Deck {
    pub name: &'static str,
    pub text: String,
    /// Devices of the netlist the deck was rendered from.
    pub devices: usize,
}

impl Deck {
    /// A flat circuit deck (top-level cards).
    pub fn circuit(name: &'static str, netlist: &Netlist) -> Deck {
        Deck {
            name,
            text: subgemini_spice::write_netlist(netlist),
            devices: netlist.device_count(),
        }
    }

    /// A library deck: one `.subckt` per cell, no top-level cards.
    pub fn library(name: &'static str, cells: &[Netlist]) -> Deck {
        Deck {
            name,
            text: subgemini_spice::write_hierarchical(&Netlist::new(name), cells),
            devices: cells.iter().map(Netlist::device_count).sum(),
        }
    }

    /// The deck's line in the environment record. Two runs with equal
    /// FNV-1a digests fed the program identical input.
    pub fn env(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.into())),
            (
                "fnv1a64".into(),
                Value::Str(format!("{:016x}", fnv1a(&self.text))),
            ),
            ("bytes".into(), Value::int(self.text.len() as u64)),
            ("devices".into(), Value::int(self.devices as u64)),
        ])
    }

    /// Parses and elaborates the deck's top level.
    pub fn elaborate(&self) -> Result<Netlist, String> {
        let doc = source::parse_text(&self.text, SourceKind::Spice, self.name)?;
        source::main_from_doc(&doc, self.name, self.name)
    }

    /// Parses the deck's cell definitions, each elaborated flat or, for
    /// hierarchy reconstruction, keeping references to other cells.
    pub fn cells(&self, hierarchical: bool) -> Result<Vec<Netlist>, String> {
        let doc = source::parse_text(&self.text, SourceKind::Spice, self.name)?;
        let load = if hierarchical {
            source::load_cell_hierarchical
        } else {
            source::load_cell
        };
        doc.cell_names()
            .iter()
            .map(|cell| load(&doc, cell, self.name))
            .collect()
    }
}

/// Where the time of one deck-to-ready-circuit ingest went.
pub struct Ingest {
    pub parse_ns: u64,
    pub elaborate_ns: u64,
    pub register_ns: u64,
    pub info: CompileInfo,
}

/// Brings `deck` up as registered circuit `name`: parse, elaborate,
/// `Engine::register_circuit`. A traced run also splits the artifact
/// build into its parts, between elaboration and registration, outside
/// the three timed steps.
pub fn ingest(
    engine: &Engine,
    name: &str,
    deck: &Deck,
    trace: &mut Trace,
    split: Option<&mut Vec<NetlistSplit>>,
) -> Result<Ingest, String> {
    let root = trace.begin("setup.ingest");
    let (doc, parse_ns) = trace.timed("spice.parse", || {
        source::parse_text(&deck.text, SourceKind::Spice, name)
    });
    let doc = doc?;
    let (main, elaborate_ns) = trace.timed("spice.elaborate", || {
        source::main_from_doc(&doc, name, name)
    });
    drop(doc);
    let main = main?;
    if let Some(out) = split {
        out.push(NetlistSplit::measure(&main, trace));
    }
    let (info, register_ns) =
        trace.timed("engine.register", || engine.register_circuit(name, main));
    trace.end(root);
    Ok(Ingest {
        parse_ns,
        elaborate_ns,
        register_ns,
        info,
    })
}

/// `Engine::register_circuit` split into the public calls it makes:
/// compile, fingerprint index, structural digest, artifact encoding.
pub struct NetlistSplit {
    pub compile_ns: u64,
    pub index_ns: u64,
    pub digest_ns: u64,
    pub encode_ns: u64,
    pub artifact_bytes: usize,
}

impl NetlistSplit {
    pub fn measure(main: &Netlist, trace: &mut Trace) -> NetlistSplit {
        let root = trace.begin("netlist.artifact");
        let (circuit, compile_ns) =
            trace.timed("netlist.compile", || CompiledCircuit::compile(main));
        let (index, index_ns) = trace.timed("netlist.index", || FingerprintIndex::build(&circuit));
        let (source_digest, digest_ns) = trace.timed("netlist.digest", || structural_digest(main));
        let artifact = Artifact {
            circuit,
            index,
            source_digest,
        };
        let (artifact_bytes, encode_ns) = trace.timed("netlist.encode", || artifact.encode().len());
        trace.end(root);
        NetlistSplit {
            compile_ns,
            index_ns,
            digest_ns,
            encode_ns,
            artifact_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini_workloads::{cells, gen};

    #[test]
    fn decks_round_trip_through_the_engine_sources() {
        let g = gen::tiled_chip(5, 1_000);
        let deck = Deck::circuit("chip", &g.netlist);
        assert_eq!(
            deck.elaborate().unwrap().device_count(),
            g.netlist.device_count()
        );
        let lib = Deck::library("lib", &cells::library());
        assert_eq!(lib.cells(false).unwrap().len(), cells::library().len());
        let digest = |d: &Deck| d.env().get("fnv1a64").cloned();
        let again = Deck::circuit("chip", &gen::tiled_chip(5, 1_000).netlist);
        assert_eq!(digest(&deck), digest(&again), "same seed, same deck");
        let other = Deck::circuit("chip", &gen::tiled_chip(6, 1_000).netlist);
        assert_ne!(digest(&deck), digest(&other));
    }

    #[test]
    fn split_accounts_for_the_registered_artifact() {
        let g = gen::tiled_chip(5, 1_000);
        let deck = Deck::circuit("chip", &g.netlist);
        let engine = Engine::new();
        let mut splits = Vec::new();
        let mut trace = Trace::new(true);
        let ingest = ingest(&engine, "chip", &deck, &mut trace, Some(&mut splits)).unwrap();
        assert_eq!(ingest.info.devices, g.netlist.device_count());
        assert_eq!(splits[0].artifact_bytes, ingest.info.artifact_bytes);
    }
}
