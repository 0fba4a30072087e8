//! Property tests across the interchange formats: random netlists
//! round-trip through the SPICE and Verilog writers isomorphically.
//! Cases come from a seeded internal PRNG so every run is reproducible.

use subgemini_gemini::compare;
use subgemini_netlist::rng::Rng64;
use subgemini_netlist::{DeviceType, NetId, Netlist};

/// Random netlist over SPICE-writable primitive types.
fn random_netlist(n_nets: usize, devices: &[(u8, [usize; 3])]) -> Netlist {
    let mut nl = Netlist::new("rt");
    let mos = nl.add_mos_types();
    let res = nl.add_type(DeviceType::two_terminal("res")).unwrap();
    let cap = nl.add_type(DeviceType::two_terminal("cap")).unwrap();
    let nets: Vec<NetId> = (0..n_nets.max(2))
        .map(|i| nl.net(format!("w{i}")))
        .collect();
    let vdd = nl.net("vdd");
    nl.mark_global(vdd);
    for (i, (kind, pins)) in devices.iter().enumerate() {
        let p = |k: usize| nets[pins[k] % nets.len()];
        match kind % 4 {
            0 => {
                nl.add_device(format!("mn{i}"), mos.nmos, &[p(0), p(1), vdd])
                    .unwrap();
            }
            1 => {
                nl.add_device(format!("mp{i}"), mos.pmos, &[p(0), vdd, p(2)])
                    .unwrap();
            }
            2 => {
                nl.add_device(format!("r{i}"), res, &[p(0), p(1)]).unwrap();
            }
            _ => {
                nl.add_device(format!("c{i}"), cap, &[p(0), p(1)]).unwrap();
            }
        }
    }
    nl.compact()
}

fn draw_devices(rng: &mut Rng64, lo: usize, hi: usize) -> Vec<(u8, [usize; 3])> {
    let n = rng.range(lo, hi);
    (0..n)
        .map(|_| {
            (
                rng.range(0, 4) as u8,
                [
                    rng.next_u64() as usize,
                    rng.next_u64() as usize,
                    rng.next_u64() as usize,
                ],
            )
        })
        .collect()
}

#[test]
fn spice_roundtrip_is_isomorphic() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xf0_1000 + case);
        let n_nets = rng.range(2, 8);
        let devices = draw_devices(&mut rng, 1, 12);
        let nl = random_netlist(n_nets, &devices);
        let text = subgemini_spice::write_netlist(&nl);
        let doc =
            subgemini_spice::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        let back = doc
            .elaborate_top(nl.name(), &Default::default())
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        let outcome = compare(&nl, &back);
        assert!(
            outcome.is_isomorphic(),
            "case {case}: diverged: {:?}\n{text}",
            outcome.mismatch()
        );
    }
}

/// Random gate-level netlists round-trip through the Verilog writer
/// (primitive gates only).
#[test]
fn verilog_roundtrip_is_isomorphic() {
    use subgemini_verilog::{parse, primitive_type, write_module, ElaborateOptions};
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xf0_2000 + case);
        let n_nets = rng.range(2, 8);
        let gates = draw_devices(&mut rng, 1, 10);
        let mut nl = Netlist::new("gl");
        let not_ty = nl.add_type(primitive_type("not", 1)).unwrap();
        let nand_ty = nl.add_type(primitive_type("nand", 2)).unwrap();
        let xor_ty = nl.add_type(primitive_type("xor", 2)).unwrap();
        let nets: Vec<NetId> = (0..n_nets.max(2))
            .map(|i| nl.net(format!("w{i}")))
            .collect();
        for (i, (kind, pins)) in gates.iter().enumerate() {
            let p = |k: usize| nets[pins[k] % nets.len()];
            match kind % 3 {
                0 => {
                    nl.add_device(format!("g{i}"), not_ty, &[p(0), p(1)])
                        .unwrap();
                }
                1 => {
                    nl.add_device(format!("g{i}"), nand_ty, &[p(0), p(1), p(2)])
                        .unwrap();
                }
                _ => {
                    nl.add_device(format!("g{i}"), xor_ty, &[p(0), p(1), p(2)])
                        .unwrap();
                }
            }
        }
        let nl = nl.compact();
        let text = write_module(&nl);
        let src = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        let back = src
            .elaborate(None, &ElaborateOptions::default())
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        let outcome = compare(&nl, &back);
        assert!(
            outcome.is_isomorphic(),
            "case {case}: diverged: {:?}\n{text}",
            outcome.mismatch()
        );
    }
}

/// Matching commutes with SPICE round-trips on random circuits.
#[test]
fn matching_commutes_with_spice_roundtrip() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xf0_3000 + case);
        let n_nets = rng.range(3, 8);
        let devices = draw_devices(&mut rng, 2, 10);
        let nl = random_netlist(n_nets, &devices);
        let text = subgemini_spice::write_netlist(&nl);
        let back = subgemini_spice::parse(&text)
            .unwrap()
            .elaborate_top(nl.name(), &Default::default())
            .unwrap();
        // Pattern: a single nmos with all-external nets.
        let mut pat = Netlist::new("one");
        let mos = pat.add_mos_types();
        let (g, s, d) = (pat.net("g"), pat.net("s"), pat.net("d"));
        pat.mark_port(g);
        pat.mark_port(s);
        pat.mark_port(d);
        pat.add_device("m", mos.nmos, &[g, s, d]).unwrap();
        let a = subgemini::Matcher::new(&pat, &nl).find_all();
        let b = subgemini::Matcher::new(&pat, &back).find_all();
        assert_eq!(a.count(), b.count(), "case {case}");
    }
}
