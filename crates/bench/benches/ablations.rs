//! Ablation bench for a design choice called out in DESIGN.md:
//! `port_spreading` — Phase II with and without spreading from matched
//! port images (the shared-clock scaling fix).

use std::hint::black_box;
use subgemini::{MatchOptions, Matcher};
use subgemini_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subgemini_workloads::{cells, gen};

fn port_spreading(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/port_spreading");
    let dff = cells::dff();
    for bits in [8usize, 16, 32] {
        let sreg = gen::shift_register(bits);
        for (label, spread) in [("suppressed", false), ("paper_literal", true)] {
            group.bench_with_input(BenchmarkId::new(label, bits), &spread, |b, &spread| {
                b.iter(|| {
                    let o = Matcher::new(&dff, black_box(&sreg.netlist))
                        .options(MatchOptions {
                            spread_from_port_images: spread,
                            ..MatchOptions::default()
                        })
                        .find_all();
                    assert_eq!(o.count(), bits);
                    black_box(o)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, port_spreading);
criterion_main!(benches);
