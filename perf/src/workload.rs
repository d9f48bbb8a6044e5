//! The four workloads and their seeded inputs.
//!
//! Everything the service is asked is SQL text made here from
//! `--seed`: a statement list de-duplicated by plan fingerprint (so N
//! statements really are N cache keys) and, per pass, the order in
//! which they are requested. The same seed gives byte-identical
//! inputs; the service under test never sees the seed.

use std::collections::HashSet;

use sdp_catalog::Catalog;
use sdp_core::Algorithm;
use sdp_query::canon::stable_hash;
use sdp_query::{Query, QueryGenerator, Topology};
use sdp_service::{fingerprint_query, PlanSource, ServiceRequest};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request is a plan-cache hit.
    WarmHit,
    /// Every request is an exhaustive-DP enumeration.
    ColdDp,
    /// Every request is an SDP enumeration of a large star-chain.
    ColdSdp,
    /// Hits, memory-governed misses, evictions, epoch purges and
    /// durable-store writes mixed.
    GovernedChurn,
}

/// Statements whose served cost is compared against a reference plan.
pub const REFERENCE_STATEMENTS: usize = 100;

/// The memory-model budget `governed_churn` requests carry: exhaustive
/// DP on Star-Chain-14 needs more, so every miss walks the ladder.
pub const GOVERNED_BUDGET_BYTES: u64 = 2 << 20;

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmHit,
        Workload::ColdDp,
        Workload::ColdSdp,
        Workload::GovernedChurn,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::ColdDp => "cold_dp",
            Workload::ColdSdp => "cold_sdp",
            Workload::GovernedChurn => "governed_churn",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WarmHit => {
                "256 cached Star-Chain-12 statements: lex/parse/bind, WL fingerprint, cache probe \
                 and service glue do all the work, enumeration none"
            }
            Workload::ColdDp => {
                "Distinct Star-12 statements pinned to exhaustive DP on a fresh service: pair \
                 generation, costing and memo merge dominate, skyline idle"
            }
            Workload::ColdSdp => {
                "Distinct Star-Chain-23 statements, selector-chosen SDP on a fresh service: hub \
                 partitioning and skyline pruning beside costing, where DP is infeasible"
            }
            Workload::GovernedChurn => {
                "Star-Chain-14 ORDER BY under a 2 MiB budget, working set above cache capacity: \
                 hits, ladder descents, LRU evictions, epoch purges and store appends together"
            }
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn topology(self) -> Topology {
        match self {
            Workload::WarmHit => Topology::star_chain(12),
            Workload::ColdDp => Topology::Star(12),
            Workload::ColdSdp => Topology::star_chain(23),
            Workload::GovernedChurn => Topology::star_chain(14),
        }
    }

    /// The strategy requests pin; `None` leaves it to the service's
    /// selector (SDP on both star-chains it is left to).
    pub fn pinned(self) -> Option<Algorithm> {
        match self {
            Workload::WarmHit | Workload::ColdSdp => None,
            Workload::ColdDp | Workload::GovernedChurn => Some(Algorithm::Dp),
        }
    }

    /// The strategy whose plan each statement's served cost is divided
    /// by: exhaustive DP wherever it is feasible, IDP(4) on the
    /// 23-relation graph (the paper's Table 1.3 baseline there).
    pub fn reference_algorithm(self) -> Algorithm {
        match self {
            Workload::ColdSdp => Algorithm::Idp { k: 4 },
            _ => Algorithm::Dp,
        }
    }

    /// Whether the service under test has a durable store attached.
    pub fn durable(self) -> bool {
        self == Workload::GovernedChurn
    }

    /// Whether a pass runs against a service made for that pass alone.
    pub fn fresh_service_per_pass(self) -> bool {
        matches!(self, Workload::ColdDp | Workload::ColdSdp)
    }

    /// The only [`PlanSource`] a timed request may come back with, when
    /// there is only one.
    pub fn expected_source(self) -> Option<PlanSource> {
        match self {
            Workload::WarmHit => Some(PlanSource::Cache),
            Workload::ColdDp | Workload::ColdSdp => Some(PlanSource::Fresh),
            Workload::GovernedChurn => None,
        }
    }

    /// The request for one statement of this workload.
    pub fn request(self, sql: &str) -> ServiceRequest {
        let mut request = ServiceRequest::sql(sql);
        if let Some(algorithm) = self.pinned() {
            request = request.with_algorithm(algorithm);
        }
        if self == Workload::GovernedChurn {
            request = request.with_memory_budget(GOVERNED_BUDGET_BYTES);
        }
        request
    }

    /// Full-size request counts, chosen so one pass lasts about 3 s
    /// on the reference host (README.md, "Sizing").
    fn sizes(self) -> Sizes {
        match self {
            Workload::WarmHit => Sizes {
                hot: 256,
                cold: 0,
                pass: 115_000,
                warmup: 10_000,
            },
            Workload::ColdDp => Sizes {
                hot: 288,
                cold: 0,
                pass: 288,
                warmup: 40,
            },
            Workload::ColdSdp => Sizes {
                hot: 864,
                cold: 0,
                pass: 864,
                warmup: 120,
            },
            // 512 + 600 distinct statements against 1 024 cache slots.
            Workload::GovernedChurn => Sizes {
                hot: 512,
                cold: 600,
                pass: 4_000,
                warmup: 250,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Statements requested repeatedly (all of them, except on
    /// `governed_churn`).
    hot: usize,
    /// Statements requested once per pass.
    cold: usize,
    /// Requests in a timed pass (where a pass is every statement once,
    /// the statement count decides and this repeats it).
    pass: usize,
    /// Requests in the untimed warm-up.
    warmup: usize,
}

impl Sizes {
    fn scaled(self, scale: f64) -> Sizes {
        let s = |n: usize, floor: usize| ((n as f64 * scale).round() as usize).max(floor.min(n));
        let (hot, cold) = (s(self.hot, 4), s(self.cold, 4));
        Sizes {
            hot,
            cold,
            pass: s(self.pass, 8).max(hot + cold),
            warmup: s(self.warmup, 4),
        }
    }
}

/// One generated statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// SQL text — all the service is given.
    pub sql: String,
    /// Relations in the `FROM` list, which the served plan must cover.
    pub relations: usize,
    /// Plan fingerprint of the text as the service will bind it.
    pub fingerprint: u128,
}

/// A workload's inputs for one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Distinct statements: the hot ones first, then the cold tail.
    pub statements: Vec<Statement>,
    /// Statement index of each request of one timed pass.
    pub pass: Vec<u32>,
    /// Statement index of each request of the untimed warm-up.
    pub warmup: Vec<u32>,
}

/// Whether the hub (node 0, the largest relation in every topology
/// used here) joins some neighbour on its own indexed column. Such a
/// statement gives the hub an ordered index path, every group above it
/// keeps a Pareto pair of plans, and exhaustive DP on Star-12 costs
/// 226 330 plans instead of 146 456: two latency modes 25 % apart.
fn hub_joins_on_its_index(catalog: &Catalog, query: &Query) -> bool {
    let hub = query.graph.relation(0);
    let indexed = catalog
        .relation(hub)
        .expect("generated query binds catalog relations")
        .indexed_column;
    query
        .graph
        .edges()
        .iter()
        .flat_map(|e| [e.left, e.right])
        .any(|c| c.node == 0 && c.col == indexed)
}

/// Every how many statements one joins the hub on its indexed column.
/// The generator deals that class to 46 % of Star-12 instances, which
/// leaves the median request in the gap between the two modes — at
/// 12.4 ms or 14.8 ms depending on the seed. One in four puts p50
/// inside the light mode and p90 inside the heavy one on every seed,
/// and still measures both.
const HUB_INDEX_EVERY: usize = 4;

/// Generate `count` statements with pairwise distinct fingerprints, the
/// hub-index class dealt to every [`HUB_INDEX_EVERY`]-th of them.
fn statements(workload: Workload, catalog: &Catalog, seed: u64, count: usize) -> Vec<Statement> {
    let generator = QueryGenerator::new(catalog, workload.topology(), seed);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    for k in 0.. {
        if out.len() == count {
            break;
        }
        let query = match workload {
            Workload::GovernedChurn => generator.ordered_instance(k),
            _ => generator.instance(k),
        };
        let wanted = out.len() % HUB_INDEX_EVERY == HUB_INDEX_EVERY - 1;
        if hub_joins_on_its_index(catalog, &query) != wanted {
            continue;
        }
        let sql = sdp_sql::render_sql(catalog, &query);
        // Fingerprint what the service will bind from the text, not the
        // generator's own query value.
        let bound = sdp_sql::parse_query(catalog, &sql).expect("generated SQL binds");
        let fingerprint = fingerprint_query(catalog, &bound).0;
        if seen.insert(fingerprint) {
            out.push(Statement {
                sql,
                relations: bound.num_relations(),
                fingerprint,
            });
        }
    }
    out
}

/// Build the inputs of `workload` for `seed`, with every request count
/// multiplied by `scale` (1.0 is the benchmark; `--quick` uses 0.01).
pub fn generate(workload: Workload, catalog: &Catalog, seed: u64, scale: f64) -> Inputs {
    let sizes = workload.sizes().scaled(scale);
    let statements = statements(workload, catalog, seed, sizes.hot + sizes.cold);
    let hot = sizes.hot;
    let (pass, warmup) = match workload {
        // Cycle over the cached set.
        Workload::WarmHit => (
            (0..sizes.pass).map(|i| (i % hot) as u32).collect(),
            (0..sizes.warmup).map(|i| (i % hot) as u32).collect(),
        ),
        // Each statement once; the warm-up is a prefix.
        Workload::ColdDp | Workload::ColdSdp => (
            (0..hot as u32).collect(),
            (0..sizes.warmup.min(hot) as u32).collect(),
        ),
        // Every statement at least once — so the first-touch misses and
        // the working set are fixed by the sizes, not by the draw — then
        // hot draws up to the pass length, shuffled.
        Workload::GovernedChurn => {
            // The k-th draw below n, from nothing but the seed — the
            // repository's own seeded pick (`sdp-service replay` draws
            // its request stream the same way).
            let mut draws = 0u64;
            let mut below = |n: usize| {
                draws += 1;
                (stable_hash(seed ^ 0x6368_7572, &[draws]) % n as u64) as usize
            };
            let mut pass: Vec<u32> = (0..statements.len() as u32).collect();
            while pass.len() < sizes.pass {
                pass.push(below(hot) as u32);
            }
            for i in (1..pass.len()).rev() {
                pass.swap(i, below(i + 1));
            }
            let warmup = pass[..sizes.warmup.min(pass.len())].to_vec();
            (pass, warmup)
        }
    };
    Inputs {
        workload,
        statements,
        pass,
        warmup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(workload: Workload, seed: u64) -> Inputs {
        generate(workload, &Catalog::paper(), seed, 0.05)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in Workload::ALL {
            let (a, b, c) = (
                inputs(workload, 7),
                inputs(workload, 7),
                inputs(workload, 11),
            );
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a.statements, c.statements, "{}", workload.name());
        }
        let (a, c) = (
            inputs(Workload::GovernedChurn, 7),
            inputs(Workload::GovernedChurn, 11),
        );
        assert_ne!(a.pass, c.pass);
    }

    #[test]
    fn statements_are_distinct_cache_keys() {
        let catalog = Catalog::paper();
        for workload in Workload::ALL {
            let inputs = inputs(workload, 7);
            let keys: HashSet<u128> = inputs.statements.iter().map(|s| s.fingerprint).collect();
            assert_eq!(keys.len(), inputs.statements.len(), "{}", workload.name());
            // The recorded key is the key of the text.
            for s in &inputs.statements {
                let bound = sdp_sql::parse_query(&catalog, &s.sql).unwrap();
                assert_eq!(fingerprint_query(&catalog, &bound).0, s.fingerprint);
                assert_eq!(bound.num_relations(), s.relations);
            }
        }
    }

    #[test]
    fn one_statement_in_four_joins_the_hub_on_its_index() {
        let catalog = Catalog::paper();
        for workload in Workload::ALL {
            for (i, s) in inputs(workload, 7).statements.iter().enumerate() {
                let bound = sdp_sql::parse_query(&catalog, &s.sql).unwrap();
                assert_eq!(
                    hub_joins_on_its_index(&catalog, &bound),
                    i % HUB_INDEX_EVERY == HUB_INDEX_EVERY - 1,
                    "{} statement {i}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn churn_pass_requests_every_statement_and_repeats_only_hot_ones() {
        let inputs = inputs(Workload::GovernedChurn, 7);
        let sizes = Workload::GovernedChurn.sizes().scaled(0.05);
        assert_eq!(inputs.pass.len(), sizes.pass);
        let mut count = vec![0usize; inputs.statements.len()];
        for &i in &inputs.pass {
            count[i as usize] += 1;
        }
        assert!(count.iter().all(|&c| c >= 1));
        assert!(count[sizes.hot..].iter().all(|&c| c == 1));
        assert!(inputs
            .statements
            .iter()
            .all(|s| s.sql.contains(" ORDER BY ")));
    }

    #[test]
    fn full_size_churn_working_set_exceeds_the_default_cache() {
        let sizes = Workload::GovernedChurn.sizes();
        let capacity = sdp_service::ServiceConfig::default().cache_capacity;
        assert!(sizes.hot + sizes.cold > capacity);
        // 85 % hot / 15 % seen once.
        assert_eq!(sizes.cold * 100 / sizes.pass, 15);
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
