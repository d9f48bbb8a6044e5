//! Pair generation in isolation (`LevelScan` over a pre-built
//! exhaustive survivor table) beside end-to-end exhaustive DP, across
//! the four canonical topologies — how much of an optimization is
//! finding the pairs rather than costing them.
//!
//! Infeasible combinations are omitted rather than sampled thin:
//! exhaustive DP on Clique(15)/Clique(20) (~3^n pairs) and Star(20)
//! does not complete in benchmark time — the bottleneck is costing,
//! not generation. EXPERIMENTS.md "Enumeration Strategies" holds the
//! history of these rows, including the strategies they were measured
//! against before those were removed.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_bench::paper_query;
use sdp_catalog::Catalog;
use sdp_core::dp::run_levels;
use sdp_core::{Algorithm, Budget, EnumContext, LevelScan, Optimizer};
use sdp_cost::CostModel;
use sdp_query::{RelSet, Topology};

/// (topology, sizes) pairs where the exhaustive table itself is cheap
/// enough to rebuild in a bench harness.
fn generation_cases() -> Vec<(&'static str, Topology)> {
    vec![
        ("chain_10", Topology::Chain(10)),
        ("chain_15", Topology::Chain(15)),
        ("chain_20", Topology::Chain(20)),
        ("cycle_10", Topology::Cycle(10)),
        ("cycle_15", Topology::Cycle(15)),
        ("cycle_20", Topology::Cycle(20)),
        ("star_10", Topology::Star(10)),
        ("star_15", Topology::Star(15)),
        ("clique_10", Topology::Clique(10)),
    ]
}

fn bench_generation(c: &mut Criterion) {
    let catalog = Catalog::extended(32);
    let model = CostModel::with_defaults(&catalog);
    let mut g = c.benchmark_group("enumeration_pairs");
    g.sample_size(10);
    for (label, topo) in generation_cases() {
        let query = paper_query(&catalog, topo, 1, 0);
        let n = query.num_relations();
        let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
        for i in 0..n {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
        let table = run_levels(&mut ctx, &atoms, n).unwrap();
        g.bench_with_input(BenchmarkId::new("levelscan", label), &table, |b, table| {
            // One scan and one pair buffer per run, as in the engine:
            // the per-level index is built on first use and reused
            // across iterations.
            let mut scan = LevelScan::new(n);
            let mut pairs = Vec::new();
            b.iter(|| {
                let mut total = 0usize;
                for s in 2..=n {
                    scan.level_pairs(table, s, &mut pairs);
                    total += pairs.len();
                }
                black_box(total)
            })
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let catalog = Catalog::extended(32);
    let optimizer = Optimizer::new(&catalog);
    let mut g = c.benchmark_group("enumeration_e2e");
    g.sample_size(10);
    for (label, topo) in generation_cases() {
        let query = paper_query(&catalog, topo, 1, 0);
        g.bench_with_input(BenchmarkId::new("levelscan", label), &query, |b, q| {
            b.iter(|| optimizer.optimize(q, Algorithm::Dp).unwrap().cost)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_generation, bench_end_to_end);
criterion_main!(benches);
