//! Round-trip property battery for `.sgc` artifacts: on a seeded
//! random corpus, `encode` → `decode` must reproduce the compiled
//! snapshot exactly — structurally equal, identical on every query the
//! labeling engine relies on (the `compiled_equivalence.rs`
//! checklist), with an identical fingerprint index and source digest.

use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{
    structural_digest, Artifact, CompiledCircuit, DeviceType, FingerprintIndex, NetId, Netlist,
};

/// Builds a random netlist (mos + resistor soup) with some nets marked
/// port and/or global, following the compiled_equivalence generator
/// idiom.
fn random_netlist(rng: &mut Rng64) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mos = nl.add_mos_types();
    let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
    let n_nets = rng.range(2, 9);
    let nets: Vec<NetId> = (0..n_nets).map(|i| nl.net(format!("w{i}"))).collect();
    for &n in &nets {
        match rng.range(0, 5) {
            0 => nl.mark_global(n),
            1 => nl.mark_port(n),
            2 => {
                nl.mark_port(n);
                nl.mark_global(n);
            }
            _ => {}
        }
    }
    let n_dev = rng.range(1, 14);
    for i in 0..n_dev {
        let p = |rng: &mut Rng64| nets[rng.index(nets.len())];
        match rng.range(0, 3) {
            0 => {
                let pins = [p(rng), p(rng), p(rng)];
                nl.add_device(format!("n{i}"), mos.nmos, &pins).unwrap();
            }
            1 => {
                let pins = [p(rng), p(rng), p(rng)];
                nl.add_device(format!("p{i}"), mos.pmos, &pins).unwrap();
            }
            _ => {
                let pins = [p(rng), p(rng)];
                nl.add_device(format!("r{i}"), res, &pins).unwrap();
            }
        }
    }
    nl
}

/// Asserts the full query battery between a decoded snapshot and a
/// freshly compiled one.
fn assert_queries_identical(case: u64, fresh: &CompiledCircuit, decoded: &CompiledCircuit) {
    assert_eq!(decoded.device_count(), fresh.device_count(), "case {case}");
    assert_eq!(decoded.net_count(), fresh.net_count(), "case {case}");
    assert_eq!(decoded.pin_count(), fresh.pin_count(), "case {case}");
    for i in 0..fresh.device_count() {
        let d = subgemini_netlist::DeviceId::new(i as u32);
        assert_eq!(
            decoded.initial_device_label(d),
            fresh.initial_device_label(d),
            "case {case}: device {i} initial label"
        );
        assert_eq!(decoded.device_degree(d), fresh.device_degree(d));
        let a: Vec<(u32, u64)> = decoded
            .device_neighbors(d)
            .map(|(n, w)| (n.raw(), w))
            .collect();
        let b: Vec<(u32, u64)> = fresh
            .device_neighbors(d)
            .map(|(n, w)| (n.raw(), w))
            .collect();
        assert_eq!(a, b, "case {case}: device {i} neighbors");
        let ca = decoded.device_contribs(d, |n| Some(n.raw() as u64 + 1));
        let cb = fresh.device_contribs(d, |n| Some(n.raw() as u64 + 1));
        assert_eq!((ca.sum, ca.used, ca.skipped), (cb.sum, cb.used, cb.skipped));
    }
    for i in 0..fresh.net_count() {
        let n = NetId::new(i as u32);
        assert_eq!(
            decoded.initial_net_label(n),
            fresh.initial_net_label(n),
            "case {case}: net {i} initial label"
        );
        assert_eq!(decoded.net_degree(n), fresh.net_degree(n));
        assert_eq!(decoded.is_global(n), fresh.is_global(n));
        assert_eq!(decoded.is_port(n), fresh.is_port(n));
        let a: Vec<(u32, u64)> = decoded
            .net_neighbors(n)
            .map(|(d, w)| (d.raw(), w))
            .collect();
        let b: Vec<(u32, u64)> = fresh.net_neighbors(n).map(|(d, w)| (d.raw(), w)).collect();
        assert_eq!(a, b, "case {case}: net {i} neighbors");
        let ca = decoded.net_contribs(n, |d| Some(d.raw() as u64 * 3 + 7));
        let cb = fresh.net_contribs(n, |d| Some(d.raw() as u64 * 3 + 7));
        assert_eq!((ca.sum, ca.used, ca.skipped), (cb.sum, cb.used, cb.skipped));
    }
    assert_eq!(decoded.ports(), fresh.ports(), "case {case}: ports");
}

#[test]
fn encode_decode_reproduces_the_snapshot_on_a_seeded_corpus() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0xa57f_1000 + case);
        let nl = random_netlist(&mut rng);
        let artifact = Artifact::build(&nl);
        let bytes = artifact.encode();
        assert_eq!(artifact.encoded_len(), bytes.len(), "case {case}");
        let decoded = Artifact::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: fresh artifact failed to decode: {e}"));

        // Whole-value equality (CompiledCircuit and FingerprintIndex
        // are PartialEq over every field), then the query battery —
        // equality of representation and equality of observable
        // behavior are pinned independently.
        assert_eq!(decoded, artifact, "case {case}");
        assert_eq!(decoded.source_digest, structural_digest(&nl), "case {case}");

        let fresh = CompiledCircuit::compile(&nl);
        assert_queries_identical(case, &fresh, &decoded.circuit);
        assert_eq!(
            decoded.index,
            FingerprintIndex::build(&fresh),
            "case {case}: index"
        );

        // Globals directory survives (sorted by name in the snapshot).
        for i in 0..nl.net_count() {
            let n = NetId::new(i as u32);
            let net = nl.net_ref(n);
            let expect = net.is_global().then_some(n);
            assert_eq!(
                decoded.circuit.find_global(net.name()),
                expect,
                "case {case}: global lookup {}",
                net.name()
            );
        }

        // Encoding is deterministic: same artifact, same bytes.
        assert_eq!(bytes, decoded.encode(), "case {case}: re-encode differs");
    }
}

#[test]
fn file_round_trip_matches_in_memory_round_trip() {
    let dir = std::env::temp_dir().join("sgc_roundtrip_test");
    std::fs::create_dir_all(&dir).unwrap();
    for case in 0..8u64 {
        let mut rng = Rng64::new(0xa57f_2000 + case);
        let nl = random_netlist(&mut rng);
        let artifact = Artifact::build(&nl);
        let path = dir.join(format!("case{case}.sgc"));
        artifact.save(&path).unwrap();
        let loaded = Artifact::load(&path).unwrap();
        assert_eq!(loaded, artifact, "case {case}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn digest_tracks_every_structural_facet() {
    // Mutating any facet the matcher can observe must change the
    // digest: device order, pin wiring, type, global/port marks, names
    // of globals.
    let build = |f: &dyn Fn(&mut Netlist)| {
        let mut nl = Netlist::new("t");
        let mos = nl.add_mos_types();
        let (a, b, vdd) = (nl.net("a"), nl.net("b"), nl.net("vdd"));
        nl.mark_global(vdd);
        nl.mark_port(a);
        nl.add_device("m0", mos.nmos, &[a, b, vdd]).unwrap();
        nl.add_device("m1", mos.pmos, &[b, vdd, a]).unwrap();
        f(&mut nl);
        structural_digest(&nl)
    };
    let base = build(&|_| {});
    assert_eq!(base, build(&|_| {}), "digest is deterministic");
    assert_ne!(
        base,
        build(&|nl| {
            let c = nl.net("c");
            nl.mark_port(c);
        }),
        "extra port changes the digest"
    );
    assert_ne!(
        base,
        build(&|nl| {
            let b = nl.net("b");
            nl.mark_global(b);
        }),
        "global mark changes the digest"
    );
    assert_ne!(
        base,
        build(&|nl| {
            let mos = nl.add_mos_types();
            let (a, b) = (nl.net("a"), nl.net("b"));
            nl.add_device("m2", mos.nmos, &[a, b, b]).unwrap();
        }),
        "extra device changes the digest"
    );
}
