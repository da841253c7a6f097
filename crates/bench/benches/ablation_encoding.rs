//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * E6 — Gray vs plain-binary code assignment inside SMC blocks;
//! * E7 — basic SMC cover (Section 4.3) vs improved overlap-aware encoding
//!   (Section 4.4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pnsym_core::{AssignmentStrategy, Encoding, SymbolicContext};
use pnsym_net::nets::{muller, philosophers, slotted_ring};
use pnsym_net::PetriNet;
use pnsym_structural::{find_smcs, CoverStrategy};
use std::time::Duration;

fn nets() -> Vec<(&'static str, PetriNet)> {
    vec![
        ("muller-10", muller(10)),
        ("phil-4", philosophers(4)),
        ("slot-4", slotted_ring(4)),
    ]
}

fn traverse(net: &PetriNet, encoding: Encoding) -> f64 {
    SymbolicContext::new(net, encoding)
        .reachable_markings()
        .num_markings
}

fn bench_gray_vs_binary(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/code_assignment");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for (name, net) in nets() {
        let smcs = find_smcs(&net).expect("benchmark nets");
        for (label, strategy) in [
            ("gray", AssignmentStrategy::Gray),
            ("binary", AssignmentStrategy::Sequential),
        ] {
            let enc = Encoding::improved(&net, &smcs, strategy);
            group.bench_function(BenchmarkId::new(label, name), |b| {
                b.iter(|| traverse(&net, enc.clone()))
            });
        }
    }
    group.finish();
}

fn bench_basic_vs_improved(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/cover_scheme");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for (name, net) in nets() {
        let smcs = find_smcs(&net).expect("benchmark nets");
        let basic = Encoding::dense(&net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray);
        let improved = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        group.bench_function(BenchmarkId::new("basic", name), |b| {
            b.iter(|| traverse(&net, basic.clone()))
        });
        group.bench_function(BenchmarkId::new("improved", name), |b| {
            b.iter(|| traverse(&net, improved.clone()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gray_vs_binary, bench_basic_vs_improved);
criterion_main!(benches);
