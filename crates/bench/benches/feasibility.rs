//! The feasibility oracle (ISSUE 17): what it costs to ask, next to
//! the doomed rung it replaces.
//!
//! `sdp_core::feasibility::doomed_bound` bounds an exhaustive rung's
//! peak memory from below by counting connected subgraphs of the
//! rewritten join graph, stopping one past what the budget has room
//! for. The governor asks before every DP rung and every IDP first
//! block, so the cost of asking must stay bounded in all three of its
//! regimes: the O(1) exit (every subset would fit — Star-12/16 at
//! 1 GiB), a short doomed count (Star-Chain-14 at 2 MiB: 228 sets), and
//! the worst case, a count that runs to the budget's room without
//! exceeding it (Star-17 at 1 GiB: 65 552 sets; IDP(7) on Star-23:
//! 110 078 sets of ≤ 7 relations out of a 22-spoke frontier).
//!
//! The rung it replaces is run for comparison where that takes
//! microseconds (Star-Chain-14 DP into a 2 MiB budget); at 1 GiB the
//! doomed DP of Star-20 costs hundreds of MB of plans before it dies,
//! which is the point. Before the timings the bench prints the
//! verdicts for the paper's Chain/Star/Star-Chain sizes — the table in
//! EXPERIMENTS.md "The feasibility frontier without running it".

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_bench::paper_query;
use sdp_catalog::Catalog;
use sdp_core::feasibility::{count_connected_subgraphs, doomed_bound, CSG_MODEL_BYTES};
use sdp_core::{Algorithm, Budget, OptError, Optimizer};
use sdp_query::{infer_transitive_edges, JoinGraph, Topology};

const GIB: u64 = 1 << 30;

/// The join graph a rung sees: the paper instance, closure-rewritten.
fn rewritten(catalog: &Catalog, topology: Topology) -> JoinGraph {
    let mut graph = paper_query(catalog, topology, 7, 0).graph;
    infer_transitive_edges(&mut graph);
    graph
}

fn print_frontier(catalog: &Catalog) {
    println!(
        "feasibility frontier at 1 GiB (room for {} one-plan groups)",
        GIB / CSG_MODEL_BYTES
    );
    println!("| graph | rung | connected subgraphs counted | verdict | bound (MB) |");
    println!("|---|---|---|---|---|");
    let dp = Algorithm::Dp;
    let idp7 = Algorithm::Idp { k: 7 };
    let cases = [
        (Topology::Chain(16), dp),
        (Topology::Chain(24), dp),
        (Topology::Star(12), dp),
        (Topology::Star(16), dp),
        (Topology::Star(17), dp),
        (Topology::Star(20), dp),
        (Topology::Star(23), dp),
        (Topology::star_chain(15), dp),
        (Topology::star_chain(20), dp),
        (Topology::star_chain(23), dp),
        (Topology::Star(20), idp7),
        (Topology::Star(23), idp7),
        (Topology::Star(24), idp7),
    ];
    for (topology, algorithm) in cases {
        let graph = rewritten(catalog, topology);
        let verdict = doomed_bound(&graph, algorithm, GIB);
        let max_size = match algorithm {
            Algorithm::Idp { k } => sdp_core::idp::balanced_block_size(graph.len(), k),
            _ => graph.len(),
        };
        let counted = count_connected_subgraphs(&graph, max_size, GIB / CSG_MODEL_BYTES + 1);
        println!(
            "| {topology} | {} | {counted}{} | {} | {} |",
            algorithm.label(),
            if verdict.is_some() { " (stopped)" } else { "" },
            if verdict.is_some() {
                "doomed"
            } else {
                "silent"
            },
            verdict.map_or("–".to_string(), |b| format!(
                "{:.1}",
                b as f64 / 1048576.0
            )),
        );
    }
}

fn bench(c: &mut Criterion) {
    let catalog = Catalog::paper();
    print_frontier(&catalog);

    let mut g = c.benchmark_group("feasibility");
    g.sample_size(20);
    let cases = [
        (
            "star-chain-14@2MiB",
            Topology::star_chain(14),
            Algorithm::Dp,
            2 << 20,
            true,
        ),
        (
            "star-12@1GiB",
            Topology::Star(12),
            Algorithm::Dp,
            GIB,
            false,
        ),
        (
            "star-17@1GiB",
            Topology::Star(17),
            Algorithm::Dp,
            GIB,
            false,
        ),
        ("star-20@1GiB", Topology::Star(20), Algorithm::Dp, GIB, true),
        (
            "star-chain-23@1GiB",
            Topology::star_chain(23),
            Algorithm::Dp,
            GIB,
            true,
        ),
        (
            "idp7/star-23@1GiB",
            Topology::Star(23),
            Algorithm::Idp { k: 7 },
            GIB,
            false,
        ),
        (
            "idp7/star-24@1GiB",
            Topology::Star(24),
            Algorithm::Idp { k: 7 },
            GIB,
            true,
        ),
    ];
    for (name, topology, algorithm, budget, doomed) in cases {
        let graph = rewritten(&catalog, topology);
        g.bench_with_input(BenchmarkId::new("oracle", name), &graph, |b, graph| {
            b.iter(|| {
                let verdict = doomed_bound(black_box(graph), algorithm, budget);
                assert_eq!(verdict.is_some(), doomed, "{name}");
                verdict
            })
        });
    }

    // The rung a predicted descent does not run.
    let query = paper_query(&catalog, Topology::star_chain(14), 7, 0);
    let optimizer =
        Optimizer::with_enumeration(&catalog, 1).with_budget(Budget::with_memory(2 << 20));
    g.bench_function("doomed_dp_rung/star-chain-14@2MiB", |b| {
        b.iter(|| {
            let outcome = optimizer.optimize(black_box(&query), Algorithm::Dp);
            assert!(matches!(outcome, Err(OptError::MemoryExhausted { .. })));
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
