//! Warm-restart value proposition (ISSUE 7, satellite 6): the
//! first-request latency of a freshly *restarted* daemon, with and
//! without a durable plan store to warm-fill from.
//!
//! Each iteration measures the whole restart path the operator
//! experiences — service construction (including segment replay for
//! the warm case) plus the first `get_plan`. Cold pays a full
//! enumeration; warm pays a segment-log replay, codec decode and one
//! cache probe. `warm_fill_only` isolates the replay itself so the
//! crossover point (how many cached plans a replay is worth) can be
//! read directly. See EXPERIMENTS.md § warm restart for recorded
//! numbers.

use std::path::PathBuf;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_bench::paper_query;
use sdp_catalog::Catalog;
use sdp_core::Algorithm;
use sdp_query::Topology;
use sdp_service::{OptimizerService, PlanSource, ServiceConfig, ServiceRequest};

fn service(catalog: &Catalog) -> OptimizerService {
    OptimizerService::new(
        catalog.clone(),
        ServiceConfig {
            cache_capacity: 256,
            cache_shards: 4,
            parallelism: Some(1),
            ..ServiceConfig::default()
        },
    )
}

/// A store directory pre-populated with `distinct` optimized plans,
/// exactly as a prior daemon run would leave it.
fn populated_dir(catalog: &Catalog, distinct: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sdp-bench-warm-restart-{}-{distinct}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let svc = service(catalog).with_store(&dir).unwrap();
    for k in 0..distinct {
        let query = paper_query(catalog, Topology::Star(9), 11, k);
        svc.get_plan(&ServiceRequest::query(query).with_algorithm(Algorithm::Dp))
            .unwrap();
    }
    svc.flush_store();
    dir
}

fn bench(c: &mut Criterion) {
    let catalog = Catalog::paper();
    let mut g = c.benchmark_group("warm_restart");
    g.sample_size(10);

    // Cold restart: no persistent tier, first request enumerates.
    let query = paper_query(&catalog, Topology::Star(9), 11, 0);
    let request = ServiceRequest::query(query).with_algorithm(Algorithm::Dp);
    g.bench_function("cold_first_request", |b| {
        b.iter(|| {
            let svc = service(&catalog);
            let resp = svc.get_plan(black_box(&request)).unwrap();
            assert_eq!(resp.source, PlanSource::Fresh);
            resp.plan.root.cost
        })
    });

    // Warm restart: replay `distinct` persisted plans, then serve the
    // first request from the warm-filled cache.
    for distinct in [1u64, 8, 32] {
        let dir = populated_dir(&catalog, distinct);
        g.bench_with_input(
            BenchmarkId::new("warm_first_request", distinct),
            &distinct,
            |b, _| {
                b.iter(|| {
                    let svc = service(&catalog).with_store(&dir).unwrap();
                    let resp = svc.get_plan(black_box(&request)).unwrap();
                    assert_eq!(resp.source, PlanSource::Cache);
                    assert!(svc.store_counters().snapshot().warm_hits > 0);
                    resp.plan.root.cost
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("warm_fill_only", distinct),
            &distinct,
            |b, _| {
                b.iter(|| {
                    let svc = service(&catalog).with_store(&dir).unwrap();
                    svc.store_counters().snapshot().warm_fills
                })
            },
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
