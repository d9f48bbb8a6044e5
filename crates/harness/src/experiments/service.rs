//! `extra-service-replay` — the service layer measured: replay a
//! repetitive workload through the resident optimizer daemon and
//! report how much enumeration work fingerprint caching and
//! single-flight coalescing amortize away.
//!
//! Production optimizers live or die by this number: the paper's
//! overhead tables price a *single* optimization, but a server sees
//! the same parametrized query shapes over and over, so the effective
//! per-request cost is the cold cost divided by the hit rate the
//! cache can sustain.

use std::sync::Arc;
use std::time::Instant;

use sdp_core::Algorithm;
use sdp_query::{Query, QueryGenerator, Topology};
use sdp_service::{Daemon, OptimizerService, ServiceConfig, ServiceRequest};

use super::{ExperimentReport, Session};

struct ReplayRow {
    workload: String,
    requests: u64,
    enumerations: u64,
    hits: u64,
    coalesced: u64,
    amortized_pct: f64,
    cold_plans: u64,
    throughput: f64,
}

fn replay_workload(
    session: &Session,
    topology: Topology,
    distinct: usize,
    requests: usize,
    clients: usize,
) -> ReplayRow {
    let service = Arc::new(OptimizerService::new(
        session.catalog.clone(),
        ServiceConfig {
            cache_capacity: 256,
            cache_shards: 4,
            ..ServiceConfig::default()
        },
    ));
    let daemon = Daemon::spawn(Arc::clone(&service), clients);
    let generator = QueryGenerator::new(&session.catalog, topology, session.config.seed);
    let queries: Vec<Query> = (0..distinct as u64)
        .map(|k| generator.instance(k))
        .collect();

    let started = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            let q = queries[i % distinct].clone();
            daemon.submit(ServiceRequest::query(q).with_algorithm(Algorithm::Dp))
        })
        .collect();
    for t in tickets {
        t.wait().expect("replayed request failed");
    }
    let elapsed = started.elapsed();
    let snap = service.counters_snapshot();
    daemon.shutdown();

    ReplayRow {
        workload: format!("{} x{distinct} queries", topology.label()),
        requests: snap.requests(),
        enumerations: snap.enumerations,
        hits: snap.hits,
        coalesced: snap.coalesced,
        amortized_pct: snap.amortized_rate() * 100.0,
        cold_plans: snap.plans_costed,
        throughput: requests as f64 / elapsed.as_secs_f64(),
    }
}

/// `extra-service-replay` — daemon workload replay: cache and
/// coalescing amortization on star and star-chain shapes.
pub fn extra_service_replay(session: &Session) -> ExperimentReport {
    let requests = (session.config.instances * 16).max(64);
    let rows = [
        replay_workload(session, Topology::Star(9), 4, requests, 4),
        replay_workload(session, Topology::star_chain(9), 4, requests, 4),
    ];

    let mut text = String::from(
        "Extra: Service replay — repeated-shape workload through the resident daemon\n",
    );
    text.push_str(&format!(
        "{:<28} {:>8} {:>6} {:>6} {:>9} {:>10} {:>11} {:>10}\n",
        "Workload", "requests", "enums", "hits", "coalesced", "amortized", "cold plans", "req/s"
    ));
    let mut markdown = String::from(
        "| Workload | requests | enumerations | hits | coalesced | amortized | cold plans costed | req/s |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in &rows {
        text.push_str(&format!(
            "{:<28} {:>8} {:>6} {:>6} {:>9} {:>9.1}% {:>11} {:>10.0}\n",
            r.workload,
            r.requests,
            r.enumerations,
            r.hits,
            r.coalesced,
            r.amortized_pct,
            r.cold_plans,
            r.throughput,
        ));
        markdown.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.1}% | {} | {:.0} |\n",
            r.workload,
            r.requests,
            r.enumerations,
            r.hits,
            r.coalesced,
            r.amortized_pct,
            r.cold_plans,
            r.throughput,
        ));
    }
    text.push_str(
        "\n(Each workload replays its request stream through a 4-worker daemon;\n\
         every query after the first appearance of its fingerprint is served\n\
         from the sharded plan cache or coalesced onto an in-flight\n\
         enumeration, so total plans costed stays at the cold-start cost.)\n",
    );
    ExperimentReport {
        failure: None,
        id: "extra-service-replay",
        title: "Extra — Plan-Cache and Coalescing Amortization".into(),
        text,
        markdown,
    }
}
