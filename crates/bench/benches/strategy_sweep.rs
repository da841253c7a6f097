//! Criterion bench comparing the fixpoint strategies of the shared
//! traversal driver: breadth-first (frontier and full) against level
//! saturation, on the dense encoding of each CI-sized table-3 family. The
//! `experiments strategies`
//! subcommand prints the same comparison with marking-count cross-checks;
//! this bench feeds the criterion medians tracked across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pnsym_bench::{table3_workloads, Scale};
use pnsym_core::{analyze, AnalysisOptions, FixpointStrategy};
use std::time::Duration;

fn bench_strategy_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy_sweep");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    let strategies = [
        ("bfs", FixpointStrategy::Bfs { use_frontier: true }),
        (
            "bfs-full",
            FixpointStrategy::Bfs {
                use_frontier: false,
            },
        ),
        ("saturation", FixpointStrategy::Saturation),
    ];
    for workload in table3_workloads(Scale::Default) {
        // Skip the largest instances so the whole suite stays within a few
        // minutes; the experiments binary covers the full sweep.
        if workload.net.num_places() > 40 {
            continue;
        }
        let net = workload.net;
        for (label, strategy) in strategies {
            let options = AnalysisOptions::dense().with_strategy(strategy);
            group.bench_with_input(BenchmarkId::new(label, &workload.name), &net, |b, net| {
                b.iter(|| analyze(net, &options).expect("dense analysis"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_strategy_sweep);
criterion_main!(benches);
