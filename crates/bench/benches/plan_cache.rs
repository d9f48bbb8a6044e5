//! Plan-cache request-path throughput: cold miss (full enumeration)
//! vs warm hit (fingerprint + sharded-LRU probe) vs coalesced
//! concurrent requests, on star and star-chain workloads.
//!
//! The cold/warm gap is the service layer's whole value proposition:
//! a warm hit replaces an enumeration costing thousands of plans with
//! one WL fingerprint pass and one shard-mutex probe. The coalesced
//! case replays 8 concurrent identical requests against a cleared
//! cache — at most one enumeration runs, the other seven block on its
//! flight. See EXPERIMENTS.md for recorded results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_bench::paper_query;
use sdp_catalog::Catalog;
use sdp_core::Algorithm;
use sdp_query::Topology;
use sdp_service::{OptimizerService, PlanSource, ServiceConfig, ServiceRequest};
use std::sync::{Arc, Barrier};

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

fn bench(c: &mut Criterion) {
    let catalog = Catalog::paper();
    let mut g = c.benchmark_group("plan_cache");
    g.sample_size(10);

    for topo in [Topology::Star(9), Topology::star_chain(9)] {
        let query = paper_query(&catalog, topo, 11, 0);
        let request = ServiceRequest::query(query).with_algorithm(Algorithm::Dp);

        // Cold miss: epoch-bump between iterations so every request
        // re-enumerates (the bump itself is two atomics and a sweep of
        // a one-entry cache — noise against an enumeration).
        let svc = service(&catalog);
        g.bench_with_input(
            BenchmarkId::new("cold_miss", topo.label()),
            &request,
            |b, req| {
                b.iter(|| {
                    svc.bump_stats_epoch();
                    let resp = svc.get_plan(req).unwrap();
                    assert_eq!(resp.source, PlanSource::Fresh);
                    resp.plan.cost
                })
            },
        );

        // Warm hit: first request seeds the cache, every iteration is
        // a fingerprint + probe.
        let svc = service(&catalog);
        svc.get_plan(&request).unwrap();
        g.bench_with_input(
            BenchmarkId::new("warm_hit", topo.label()),
            &request,
            |b, req| {
                b.iter(|| {
                    let resp = svc.get_plan(req).unwrap();
                    assert_eq!(resp.plans_costed, 0);
                    resp.plan.cost
                })
            },
        );

        // Coalesced: 8 clients fire the same request at a cleared
        // cache; one leads, seven coalesce (or hit, if they lose the
        // race to the leader's completion).
        let svc = Arc::new(service(&catalog));
        g.bench_with_input(
            BenchmarkId::new("coalesced_8", topo.label()),
            &request,
            |b, req| {
                b.iter(|| {
                    svc.bump_stats_epoch(); // clear so one enumeration runs
                    let barrier = Arc::new(Barrier::new(8));
                    std::thread::scope(|scope| {
                        for _ in 0..8 {
                            let (svc, barrier) = (Arc::clone(&svc), Arc::clone(&barrier));
                            scope.spawn(move || {
                                barrier.wait();
                                svc.get_plan(req).unwrap().plan.cost
                            });
                        }
                    });
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
