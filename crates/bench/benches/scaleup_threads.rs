//! Thread scale-up of the parallel level-wise enumerator: SDP on
//! large stars at 1, 2, 4 and all available worker threads. The
//! chosen plan is bit-identical at every thread count (asserted
//! here), so the sweep isolates pure wall-clock scaling of the
//! shard-and-merge level loop (skyline pruning runs on the
//! coordinating thread).
//!
//! Interpreting the numbers requires knowing the host's core count
//! (`std::thread::available_parallelism`): on a single-core runner
//! every thread count serializes onto one CPU and the sweep measures
//! the (small) coordination overhead instead of speed-up. See
//! EXPERIMENTS.md for recorded results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_bench::{optimize_with_threads, paper_query};
use sdp_catalog::Catalog;
use sdp_core::{Algorithm, SdpConfig};
use sdp_query::Topology;

fn bench(c: &mut Criterion) {
    let catalog = Catalog::extended(64);
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&available) {
        counts.push(available);
    }

    let mut g = c.benchmark_group("scaleup_threads");
    g.sample_size(10);
    for n in [25usize, 45] {
        let query = paper_query(&catalog, Topology::Star(n), 7, 0);
        let baseline =
            optimize_with_threads(&catalog, &query, Algorithm::Sdp(SdpConfig::paper()), 1);
        for &t in &counts {
            let plan =
                optimize_with_threads(&catalog, &query, Algorithm::Sdp(SdpConfig::paper()), t);
            assert_eq!(
                plan.cost.to_bits(),
                baseline.cost.to_bits(),
                "thread count changed the chosen plan"
            );
            g.bench_with_input(
                BenchmarkId::new(format!("SDP/star{n}"), t),
                &query,
                |b, q| {
                    b.iter(|| {
                        optimize_with_threads(&catalog, q, Algorithm::Sdp(SdpConfig::paper()), t)
                            .cost
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
