//! End-to-end acceptance tests for the optimizer service: bit-exact
//! cache hits at zero enumeration cost, single-flight coalescing of
//! concurrent identical requests, and statistics-epoch invalidation.

use std::sync::{Arc, Barrier};

use sdp_catalog::{AnalyzedRelation, Catalog, CatalogError};
use sdp_core::{Algorithm, Optimizer, SdpConfig};
use sdp_query::canon::permute_graph;
use sdp_query::{ColRef, JoinEdge, JoinGraph, Query, QueryGenerator, Topology};
use sdp_service::{Daemon, OptimizerService, PlanSource, ServiceConfig, ServiceRequest};

fn small_config() -> ServiceConfig {
    ServiceConfig {
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    }
}

/// Acceptance: a cache hit returns a plan bit-identical to fresh
/// optimization while costing zero new plans, verified against the
/// service's plan counter.
#[test]
fn cache_hit_is_bit_identical_and_costs_no_plans() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let query = QueryGenerator::new(&catalog, Topology::star_chain(9), 7)
        .with_filter_probability(0.5)
        .ordered_instance(0);
    let algorithm = Algorithm::Sdp(SdpConfig::paper());
    let request = ServiceRequest::query(query.clone()).with_algorithm(algorithm);

    // Reference: a fresh optimizer run outside the service.
    let reference = Optimizer::new(&catalog)
        .optimize(&query, algorithm)
        .unwrap();

    let first = service.get_plan(&request).unwrap();
    assert_eq!(first.source, PlanSource::Fresh);
    assert_eq!(
        first.plan.root.structural_digest(),
        reference.root.structural_digest(),
        "service plan differs from a direct optimizer run"
    );
    assert_eq!(first.plan.cost.to_bits(), reference.cost.to_bits());
    assert_eq!(first.plans_costed, reference.stats.plans_costed);

    let costed_before = service.counters_snapshot().plans_costed;
    let second = service.get_plan(&request).unwrap();
    assert_eq!(second.source, PlanSource::Cache);
    assert_eq!(
        second.plan.root.structural_digest(),
        reference.root.structural_digest(),
        "cached plan must be bit-identical to fresh optimization"
    );
    assert_eq!(second.plan.cost.to_bits(), reference.cost.to_bits());
    assert_eq!(second.plan.rows.to_bits(), reference.rows.to_bits());
    assert_eq!(second.plans_costed, 0, "a hit costs no new plans");
    assert_eq!(
        service.counters_snapshot().plans_costed,
        costed_before,
        "the global plan counter must not move on a hit"
    );

    let snap = service.counters_snapshot();
    assert_eq!((snap.hits, snap.misses, snap.enumerations), (1, 1, 1));
}

/// An isomorphic restatement of a cached query — relations declared in
/// a different order, conjuncts shuffled — hits the same entry.
#[test]
fn isomorphic_requests_share_one_cache_entry() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let query = QueryGenerator::new(&catalog, Topology::Star(8), 3)
        .with_filter_probability(0.6)
        .instance(0);
    let algorithm = Algorithm::Dp;

    let first = service
        .get_plan(&ServiceRequest::query(query.clone()).with_algorithm(algorithm))
        .unwrap();
    assert_eq!(first.source, PlanSource::Fresh);

    // Rotate node indices and reverse edge declaration order.
    let n = query.graph.len();
    let perm: Vec<usize> = (0..n).map(|i| (i + 2) % n).collect();
    let permuted = permute_graph(&query.graph, &perm);
    let mut edges: Vec<JoinEdge> = permuted.edges().to_vec();
    edges.reverse();
    let mut shuffled = JoinGraph::new(permuted.relations().to_vec(), edges);
    for f in permuted.filters().iter().rev() {
        shuffled.add_filter(*f);
    }
    let isomorphic = Query::new(shuffled);

    let second = service
        .get_plan(&ServiceRequest::query(isomorphic).with_algorithm(algorithm))
        .unwrap();
    assert_eq!(
        second.source,
        PlanSource::Cache,
        "isomorphic restatement must hit the cache"
    );
    assert_eq!(second.plan.cost.to_bits(), first.plan.cost.to_bits());
    assert_eq!(second.plans_costed, 0);
    assert_eq!(service.cached_plans(), 1);
}

/// Acceptance: N concurrent identical requests trigger exactly one
/// enumeration; everyone receives the same plan.
#[test]
fn concurrent_identical_requests_enumerate_once() {
    const CLIENTS: usize = 8;
    let catalog = Catalog::paper();
    let service = Arc::new(OptimizerService::new(catalog.clone(), small_config()));
    // Large enough that the enumeration outlives thread startup, so
    // coalescing (not just caching) is actually exercised.
    let query = QueryGenerator::new(&catalog, Topology::Star(11), 5).instance(0);
    let request = ServiceRequest::query(query).with_algorithm(Algorithm::Dp);

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let digests: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (service, request, barrier) =
                    (Arc::clone(&service), request.clone(), Arc::clone(&barrier));
                scope.spawn(move || {
                    barrier.wait();
                    let resp = service.get_plan(&request).unwrap();
                    resp.plan.root.structural_digest()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(digests.windows(2).all(|w| w[0] == w[1]), "divergent plans");
    let snap = service.counters_snapshot();
    assert_eq!(
        snap.enumerations, 1,
        "exactly one enumeration for {CLIENTS} clients"
    );
    assert_eq!(snap.misses, 1);
    assert_eq!(
        snap.hits + snap.coalesced,
        (CLIENTS - 1) as u64,
        "every other client was served without enumerating"
    );
}

/// Acceptance: bumping the statistics epoch forces re-optimization.
#[test]
fn stats_epoch_bump_forces_reoptimization() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let query = QueryGenerator::new(&catalog, Topology::Chain(6), 11).instance(0);
    let request = ServiceRequest::query(query).with_algorithm(Algorithm::Dp);

    let first = service.get_plan(&request).unwrap();
    assert_eq!(first.source, PlanSource::Fresh);
    assert_eq!(
        service.get_plan(&request).unwrap().source,
        PlanSource::Cache
    );

    let epoch = service.bump_stats_epoch();
    assert_eq!(service.catalog().stats_epoch(), epoch);

    let after = service.get_plan(&request).unwrap();
    assert_eq!(
        after.source,
        PlanSource::Fresh,
        "stale plan served after the epoch bump"
    );
    assert!(after.plans_costed > 0);
    let snap = service.counters_snapshot();
    assert_eq!(snap.enumerations, 2);
    assert!(snap.stale_evicted >= 1, "the old entry was purged");
    assert_eq!(after.plan.stats_epoch, epoch);
}

/// Replacing statistics swaps the snapshot: new requests plan against
/// the new estimates (different fingerprints and costs), old cached
/// plans are unreachable.
#[test]
fn replacing_stats_changes_the_served_plan_cost() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let query = QueryGenerator::new(&catalog, Topology::Chain(5), 2).instance(0);
    let request = ServiceRequest::query(query.clone()).with_algorithm(Algorithm::Dp);

    let before = service.get_plan(&request).unwrap();

    // Grow every relation a hundredfold.
    let analyzed: Vec<_> = catalog
        .relations()
        .iter()
        .map(|r| {
            let mut a = sdp_catalog::AnalyzedRelation::analyze(r);
            a.relation.tuples *= 100.0;
            a.relation.pages *= 100.0;
            a
        })
        .collect();
    service.update_stats(analyzed).unwrap();

    let after = service.get_plan(&request).unwrap();
    assert_eq!(after.source, PlanSource::Fresh);
    assert!(
        after.plan.cost > before.plan.cost,
        "hundredfold larger inputs must cost more ({} vs {})",
        after.plan.cost,
        before.plan.cost
    );
}

/// Offer `service` misshapen or poisoned statistics: they are refused
/// with a typed error, returned, and the epoch, the cache and the purge
/// counter are as they were — the cached plan is still a hit — and a new
/// request touching every relation (star instance `seed`) plans: no
/// poisoned catalog lock, no estimator panic.
fn assert_refused_and_unharmed(
    catalog: &Catalog,
    service: &OptimizerService,
    cached: &ServiceRequest,
    seed: u64,
    analyzed: Vec<AnalyzedRelation>,
) -> CatalogError {
    let cached_plans = service.cached_plans();
    let refused = service
        .update_stats(analyzed)
        .expect_err("the statistics are refused");
    assert_eq!(service.catalog().stats_epoch(), 0);
    assert_eq!(service.cached_plans(), cached_plans);
    assert_eq!(service.counters_snapshot().stale_evicted, 0);
    assert_eq!(service.get_plan(cached).unwrap().source, PlanSource::Cache);
    let star = QueryGenerator::new(catalog, Topology::Star(catalog.len()), seed).instance(0);
    let fresh = ServiceRequest::query(star).with_algorithm(Algorithm::Goo);
    assert_eq!(service.get_plan(&fresh).unwrap().source, PlanSource::Fresh);
    refused
}

/// [`assert_refused_and_unharmed`], refused for their shape.
fn assert_misshapen(
    catalog: &Catalog,
    service: &OptimizerService,
    cached: &ServiceRequest,
    seed: u64,
    analyzed: Vec<AnalyzedRelation>,
) {
    let refused = assert_refused_and_unharmed(catalog, service, cached, seed, analyzed);
    assert!(
        matches!(refused, CatalogError::StatsShape { .. }),
        "{refused:?}"
    );
}

fn analyzed(catalog: &Catalog) -> Vec<AnalyzedRelation> {
    catalog
        .relations()
        .iter()
        .map(AnalyzedRelation::analyze)
        .collect()
}

/// Statistics for the wrong number of relations are refused with a
/// typed error instead of panicking under the catalog's write lock —
/// which used to poison it and fail every later request.
#[test]
fn statistics_for_the_wrong_relations_are_refused() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let query = QueryGenerator::new(&catalog, Topology::Chain(5), 2).instance(0);
    let request = ServiceRequest::query(query).with_algorithm(Algorithm::Dp);
    service.get_plan(&request).unwrap();

    assert_misshapen(&catalog, &service, &request, 1, Vec::new());
    let mut one_short = analyzed(&catalog);
    one_short.pop();
    assert_misshapen(&catalog, &service, &request, 2, one_short);
}

/// Truncated per-column statistics or histograms are refused too: once
/// installed, every request reading a missing column used to panic in
/// the estimator, surface as `LeaderPanicked` and feed the DLQ and the
/// breaker.
#[test]
fn truncated_column_statistics_are_refused() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let query = QueryGenerator::new(&catalog, Topology::Chain(5), 2).instance(0);
    let request = ServiceRequest::query(query).with_algorithm(Algorithm::Dp);
    service.get_plan(&request).unwrap();

    let mut seed = 0;
    for relation in [0, catalog.len() - 1] {
        let mut columns = analyzed(&catalog);
        columns[relation].columns.truncate(1);
        seed += 1;
        assert_misshapen(&catalog, &service, &request, seed, columns);
        let mut histograms = analyzed(&catalog);
        histograms[relation].histograms.clear();
        seed += 1;
        assert_misshapen(&catalog, &service, &request, seed, histograms);
    }
    let accepted = service.update_stats(analyzed(&catalog));
    assert_eq!(accepted, Ok(1), "well-shaped statistics go in");
}

/// Statistics no estimate can be made from are refused like misshapen
/// ones, naming the relation, the column and the field. Once installed,
/// a NaN tuple or page count panicked every optimization touching the
/// relation (`Group::best` compares costs), and a NaN distinct count or
/// skew factor was clamped into plans costing up to 1e298.
#[test]
fn statistics_no_estimate_can_use_are_refused() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let query = QueryGenerator::new(&catalog, Topology::Chain(5), 2).instance(0);
    let request = ServiceRequest::query(query).with_algorithm(Algorithm::Dp);
    service.get_plan(&request).unwrap();

    type Poison = fn(&mut AnalyzedRelation);
    let cases: [(Poison, Option<usize>, &str); 6] = [
        (|a| a.relation.tuples = f64::NAN, None, "tuples"),
        (|a| a.relation.pages = f64::INFINITY, None, "pages"),
        (|a| a.relation.tuple_width = -8.0, None, "tuple_width"),
        (
            |a| a.columns[2].n_distinct = f64::NAN,
            Some(2),
            "n_distinct",
        ),
        (
            |a| a.columns[2].skew_factor = f64::NAN,
            Some(2),
            "skew_factor",
        ),
        (|a| a.columns[0].null_frac = 2.0, Some(0), "null_frac"),
    ];
    for (seed, (poison, column, field)) in (1..).zip(cases) {
        let relation = seed as usize;
        let mut stats = analyzed(&catalog);
        poison(&mut stats[relation]);
        let refused = assert_refused_and_unharmed(&catalog, &service, &request, seed, stats);
        let expected = CatalogError::StatsValue {
            relation,
            column,
            field,
        };
        assert_eq!(refused, expected);
    }
    assert_eq!(service.update_stats(analyzed(&catalog)), Ok(1));
}

/// LRU capacity pressure evicts; the counters see it.
#[test]
fn capacity_pressure_evicts_lru_entries() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(
        catalog.clone(),
        ServiceConfig {
            cache_capacity: 2,
            cache_shards: 1,
            ..ServiceConfig::default()
        },
    );
    let gen = QueryGenerator::new(&catalog, Topology::Chain(4), 17);
    for k in 0..5 {
        let resp = service
            .get_plan(&ServiceRequest::query(gen.instance(k)).with_algorithm(Algorithm::Dp))
            .unwrap();
        assert_eq!(resp.source, PlanSource::Fresh);
    }
    assert!(service.cached_plans() <= 2);
    assert!(service.counters_snapshot().evicted >= 3);
}

/// The daemon front serves a mixed SQL/programmatic workload and
/// coalesces duplicates across its workers.
#[test]
fn daemon_replays_a_mixed_workload() {
    let catalog = Catalog::paper();
    let service = Arc::new(OptimizerService::new(catalog.clone(), small_config()));
    let daemon = Daemon::spawn(Arc::clone(&service), 4);

    let gen = QueryGenerator::new(&catalog, Topology::star_chain(8), 23);
    let queries: Vec<Query> = (0..3).map(|k| gen.instance(k)).collect();
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            let q = &queries[i % queries.len()];
            let request = if i % 2 == 0 {
                ServiceRequest::sql(sdp_sql::render_sql(&catalog, q))
            } else {
                ServiceRequest::query(q.clone())
            };
            daemon.submit(request)
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }

    let snap = service.counters_snapshot();
    assert_eq!(snap.requests(), 24);
    assert_eq!(
        snap.enumerations, 3,
        "three distinct queries → three enumerations, despite SQL/programmatic mixing"
    );
    assert_eq!(service.cached_plans(), 3);
    daemon.shutdown();
}

/// `ORDER BY` requests are keyed apart from their unordered twins.
#[test]
fn ordered_and_unordered_variants_do_not_collide() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let gen = QueryGenerator::new(&catalog, Topology::Star(7), 31);
    let unordered = gen.instance(0);
    let ordered = gen.ordered_instance(0);
    assert!(ordered.order_by.is_some());

    let a = service
        .get_plan(&ServiceRequest::query(unordered).with_algorithm(Algorithm::Dp))
        .unwrap();
    let b = service
        .get_plan(&ServiceRequest::query(ordered).with_algorithm(Algorithm::Dp))
        .unwrap();
    assert_eq!(a.source, PlanSource::Fresh);
    assert_eq!(
        b.source,
        PlanSource::Fresh,
        "order marker must split the key"
    );
    assert_ne!(a.plan.fingerprint, b.plan.fingerprint);
    assert_eq!(service.cached_plans(), 2);
}

/// A filter on a different constant is a different query.
#[test]
fn filter_constants_split_cache_entries() {
    let catalog = Catalog::paper();
    let service = OptimizerService::new(catalog.clone(), small_config());
    let base = QueryGenerator::new(&catalog, Topology::Chain(4), 13).instance(0);

    let mut with_filter = base.clone();
    with_filter.graph.add_filter(sdp_query::Predicate::new(
        ColRef::new(0, base.graph.edges()[0].left.col),
        sdp_query::PredOp::Lt,
        100,
    ));
    let mut other_filter = base.clone();
    other_filter.graph.add_filter(sdp_query::Predicate::new(
        ColRef::new(0, base.graph.edges()[0].left.col),
        sdp_query::PredOp::Lt,
        200,
    ));

    for q in [&base, &with_filter, &other_filter] {
        let resp = service
            .get_plan(&ServiceRequest::query(q.clone()).with_algorithm(Algorithm::Dp))
            .unwrap();
        assert_eq!(resp.source, PlanSource::Fresh);
    }
    assert_eq!(service.cached_plans(), 3);
}
