//! Extraction and hierarchy reconstruction output, pinned. A seeded
//! corpus of generated designs must keep extracting to exactly the
//! netlists, decks and reports pinned below: composite names, absorbed
//! lists, device, net, type and port order, and every report count.
//! The constants were computed with the extractor that rebuilt the
//! whole netlist by name after every replacing round; the in-place
//! collapse that replaced it must reproduce them byte for byte.

use subgemini::hier::hierarchize;
use subgemini::{ExtractReport, Extractor, MatchOptions};
use subgemini_netlist::hashing::fnv1a;
use subgemini_netlist::{instantiate, Netlist};
use subgemini_spice::write_hierarchical;
use subgemini_workloads::{cells, gen};

/// Appends one canonical line per type, device, net and port list, in
/// netlist order.
fn render_netlist(nl: &Netlist, out: &mut String) {
    out.push_str(&format!("netlist {}\n", nl.name()));
    for ty in nl.device_types() {
        out.push_str(&format!("type {}", ty.name()));
        for t in ty.terminals() {
            out.push_str(&format!(" {}:{}", t.name(), t.class()));
        }
        out.push('\n');
    }
    for d in nl.device_ids() {
        let dev = nl.device(d);
        out.push_str(&format!("dev {} {}", dev.name(), dev.type_id()));
        for &n in dev.pins() {
            out.push(' ');
            out.push_str(nl.net_ref(n).name());
        }
        out.push('\n');
    }
    for n in nl.net_ids() {
        let net = nl.net_ref(n);
        out.push_str(&format!(
            "net {} global={} port={}\n",
            net.name(),
            net.is_global(),
            net.is_port()
        ));
    }
    let ports: Vec<&str> = nl.ports().iter().map(|&p| nl.net_ref(p).name()).collect();
    out.push_str(&format!("ports {}\n", ports.join(" ")));
}

/// Every instance's cell, composite and absorbed names (absorbed input
/// devices named from `main`, the extraction's input), then the
/// per-cell counts, the residue and the truncation count.
fn render_report(report: &ExtractReport, main: &Netlist, out: &mut String) {
    for inst in report.instances(main) {
        let absorbed: Vec<String> = inst.children().map(|d| d.name().into_owned()).collect();
        out.push_str(&format!(
            "inst {} {} {}\n",
            inst.cell().expect("an instance is a composite"),
            inst.name(),
            absorbed.join(" ")
        ));
    }
    for (cell, n) in &report.per_cell {
        out.push_str(&format!("cell {cell} {n}\n"));
    }
    out.push_str(&format!(
        "unabsorbed {}\ntruncated {}\n",
        report.unabsorbed_devices, report.truncated_cells
    ));
}

/// The gate deck `subg extract` writes, the report and the netlist.
fn extraction_digest(extractor: &Extractor, library: &[Netlist], main: &Netlist) -> u64 {
    let (gates, report) = extractor.extract(main).expect("extraction succeeds");
    gates.validate().expect("extracted netlist is consistent");
    let used: Vec<Netlist> = library
        .iter()
        .filter(|c| report.count_of(c.name()) > 0)
        .cloned()
        .collect();
    let mut out = write_hierarchical(&gates, &used);
    render_report(&report, main, &mut out);
    render_netlist(&gates, &mut out);
    fnv1a(&out)
}

fn extractor_over(library: &[Netlist], options: MatchOptions) -> Extractor {
    let mut e = Extractor::new();
    for cell in library {
        e.add_cell(cell.clone());
    }
    e.set_options(options);
    e
}

/// The design of extraction case `i`: 8 tiled chips at 2,000 devices,
/// 8 random soups, 4 ripple adders, 4 shift registers, 4 SRAM arrays,
/// then an array multiplier, a decoder, a ripple counter and an
/// inverter chain.
fn extraction_design(i: usize) -> Netlist {
    match i {
        0..=7 => gen::tiled_chip(i as u64 + 1, 2_000).netlist,
        8..=15 => gen::random_soup(1_000 + i as u64, 30 + 10 * (i - 8)).netlist,
        16..=19 => gen::ripple_adder(i - 14).netlist,
        20..=23 => gen::shift_register(i - 18).netlist,
        24..=27 => gen::sram_array(i - 22, i - 21).netlist,
        28 => gen::array_multiplier(3).netlist,
        29 => gen::decoder(3).netlist,
        30 => gen::ripple_counter(4).netlist,
        _ => gen::inverter_chain(41).netlist,
    }
}

const EXTRACTION_CASES: usize = 32;

/// Digests of [`extraction_digest`] over the full library, default
/// extraction options, for each [`extraction_design`].
const EXTRACTION_PINNED: [u64; EXTRACTION_CASES] = [
    0x409959121c38a238,
    0x8837219cdde94d6d,
    0x8abfd9f10d0ba316,
    0x5a5e600a0a10501e,
    0x4df8313e88197894,
    0x3fc190a293f7341b,
    0x350de25a2900d2dd,
    0x4eff94c8c9dc8547,
    0x8ab4b3ca2d74f6b9,
    0xadb5ba17bfecd1ed,
    0x81880f1b262778f6,
    0xf4e7e8402149dcdf,
    0xe6e552781ffa8296,
    0x9b7d5acdb012fccb,
    0xb9008b99906a53e6,
    0x16882622f2b77a7d,
    0x1263e41377c3f6e4,
    0xd2b8892e3e14ed26,
    0x83168e998b5f2719,
    0x32b69d3cd653fbb3,
    0xa1c2881287cb7852,
    0x6731b56e84f9200b,
    0xff4e0bcf401d9b64,
    0x20834e979d747495,
    0xb479b61bf3dbc4a0,
    0x5fad3a84d5ce5dce,
    0x9c94dd68559e74ee,
    0xdc06fe14ce249a18,
    0xc5c1443c6a0624bd,
    0xcd423372ba3e1b73,
    0x452ba0d3e362f04d,
    0x33cc33a6499ac9f9,
];

#[test]
fn library_extraction_outputs_match_the_pinned_digests() {
    let library = cells::library();
    let extractor = extractor_over(&library, MatchOptions::extraction());
    let mut mismatches = Vec::new();
    for (i, &want) in EXTRACTION_PINNED.iter().enumerate() {
        let got = extraction_digest(&extractor, &library, &extraction_design(i));
        if got != want {
            mismatches.push(format!("case {i}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Re-entrant extraction: raw inverters added beside the composites of
/// a first run, extracted again at a composite offset, so the second
/// run's input holds devices whose type names collide with library
/// cells. Two thread counts; the second also matches with global nets
/// ignored, which matches on a de-globaled copy.
const REENTRANT_PINNED: [u64; 2] = [0xc61aa3619fea6cf9, 0x9ceea3daf543da06];

#[test]
fn reentrant_extraction_outputs_match_the_pinned_digests() {
    let library = cells::library();
    let mut mismatches = Vec::new();
    for (i, &want) in REENTRANT_PINNED.iter().enumerate() {
        let options = MatchOptions {
            threads: 1 + i,
            respect_globals: i == 0,
            ..MatchOptions::extraction()
        };
        let mut extractor = extractor_over(&library, options);
        let (mut evolved, first) = extractor
            .extract(&gen::ripple_adder(2 + i).netlist)
            .unwrap();
        for k in 0..3 {
            let a = evolved.net(format!("b{k}"));
            let y = evolved.net(format!("z{k}"));
            instantiate(&mut evolved, &cells::inv(), &format!("v{k}"), &[a, y]).unwrap();
        }
        extractor.set_composite_offset(first.instance_count());
        let got = extraction_digest(&extractor, &library, &evolved);
        if got != want {
            mismatches.push(format!("case {i}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The report JSON, the hierarchical deck and the recovered top level.
fn hierarchy_digest(chip: &gen::HierarchicalChip) -> u64 {
    let outcome = hierarchize(
        &chip.generated.netlist,
        &chip.library,
        &MatchOptions::extraction(),
    )
    .expect("hierarchize succeeds");
    outcome.top.validate().expect("recovered top is consistent");
    let mut out = outcome.report.to_json().pretty();
    out.push_str(&write_hierarchical(&outcome.top, &outcome.used_cells()));
    render_netlist(&outcome.top, &mut out);
    fnv1a(&out)
}

/// Digests of [`hierarchy_digest`] over `hierarchical_chip(seed, levels,
/// 300)`, seed-major: index `3 * seed + levels - 1`.
const HIERARCHY_PINNED: [u64; 48] = [
    0x4862fc5622634ec0,
    0x56e0279d8885d04e,
    0xfdbd9834a6c0c867,
    0xcc2909e18cae7991,
    0xbcb4a2861ad3ee8a,
    0xb9140e3e2a326347,
    0x385409abccc0a654,
    0x047bb7222e413cfc,
    0xa82bd1b6f27a4fda,
    0x7fee54d51c2045e6,
    0xa5198969ae4a378c,
    0x51911a20cb6b5ea1,
    0xc177a3d1874a1488,
    0x11fe0d4f5e7d85e0,
    0x67a9ca50f41f325e,
    0x10ce38ded46afdc5,
    0xb62f33d82724d9b1,
    0xb62bf49602fdfd3b,
    0x32aa20bc3297d222,
    0x0e05e1a427a4cc70,
    0x40a30c2ee7240c39,
    0x81d81788ebde5811,
    0xd93c30650d19e46e,
    0xe8b0f129c5dd1bd5,
    0xc8e21b98817126b2,
    0xed1f5ca659fe49fa,
    0xa7ae2418bd3af42b,
    0xe597809b42082d07,
    0xf568dfeed40b9e0a,
    0xdf4c7d9505fa28c1,
    0xfa2bed7f8e3ad90c,
    0x35e72f171ffd2905,
    0x1514abf3b79dae19,
    0x63799a73cd4f3996,
    0xab8e5171410e5fb3,
    0x310e42cf2922f805,
    0x49fd1497d8c6abbe,
    0x79153d22a3676201,
    0x350c167629ad685c,
    0x1ff1476db05279c1,
    0x6870f504de60e46f,
    0x0193b53c1b76f56d,
    0x1c215f84c58d9a59,
    0xead846e7cf7c6a39,
    0xb28ca7cde05a0582,
    0x93c6b4059227ed6e,
    0x3a409ae8fc62cebb,
    0x0f598091fdba96e0,
];

#[test]
fn hierarchize_outputs_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (i, &want) in HIERARCHY_PINNED.iter().enumerate() {
        let (seed, levels) = ((i / 3) as u64, 1 + i % 3);
        let got = hierarchy_digest(&gen::hierarchical_chip(seed, levels, 300));
        if got != want {
            mismatches.push(format!(
                "seed {seed} levels {levels}: got {got:#018x}, pinned {want:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The benchmark's designs: hierarchize the 3-level 30,000-device chip
/// and extract the 14-cell library from the 10^5-device tiled chip.
const CHIP_SCALE_PINNED: [u64; 2] = [0x5644d9cb74db03bb, 0x1291bd6377677c94];

#[test]
#[ignore = "chip scale: run in release with --ignored"]
fn chip_scale_outputs_match_the_pinned_digests() {
    let library = cells::library();
    let got = [
        hierarchy_digest(&gen::hierarchical_chip(18, 3, 30_000)),
        extraction_digest(
            &extractor_over(&library, MatchOptions::extraction()),
            &library,
            &gen::tiled_chip(17, 100_000).netlist,
        ),
    ];
    assert_eq!(
        got, CHIP_SCALE_PINNED,
        "got {:#018x} {:#018x}",
        got[0], got[1]
    );
}
