//! One exactness harness for every costing shortcut (DESIGN.md,
//! "Exactness harness").
//!
//! Records until `finalize`, plan-pair floors, the falling incumbent,
//! lazy SDP levels, the tight floor and the pair gate each claim full
//! costing's plans. A [`Row`] runs a strategy on every drawn [`Case`]
//! and holds it to a reference run with `EnumContext::reference` set,
//! which costs every pair eagerly with every method, with no bound,
//! gate, floor or deferred level: the exhaustive enumeration, computed
//! once per case for a whole table, or the row's own strategy. Every
//! row must serve the reference's plan (cost bits and structural
//! digest), and its [`Claim`] says which groups' entries and books
//! (`plans_costed + ruled_out + dominated`, less the incumbent greedy's
//! plans) match. A new shortcut is proved by a row in the table whose
//! reference it shares.

use std::sync::Arc;

use proptest::prelude::*;
use sdp_catalog::{Catalog, ColId, RelId};
use sdp_cost::{CostModel, CostParams};
use sdp_query::{ClassId, ColRef, JoinEdge, JoinGraph, Query, QueryGenerator, RelSet, Topology};

use crate::budget::{Budget, OptError, GROUP_MODEL_BYTES};
use crate::context::{EnumContext, Incumbent, LevelStats};
use crate::dp::{
    complete, optimize_complete, optimize_dp, prepare, LevelJcrs, LevelPruner, PruneStats,
};
use crate::enumerate::tests::widen;
use crate::governor::prepare_handoff;
use crate::idp::optimize_idp;
use crate::memo::PlanSource;
use crate::plan::PlanNode;
use crate::sdp::{optimize_sdp, Partitioning, SdpConfig, SkylineOption};

/// Costs under which a join over sequential scans costs its inputs' sum
/// exactly: CPU costs too small to survive rounding, sorts in memory,
/// index probes dear. Every such plan costs its relations' pages, so
/// GOO's plan is optimal, DP's bound `B` equals it to the bit, and so
/// does the floor of the served plan's root pairs: a bound that ruled
/// out a floor equal to it would leave the query without a plan.
fn exact_sum() -> CostParams {
    let tiny = 1e-300;
    CostParams {
        seq_page_cost: 1.0,
        random_page_cost: 1e6,
        cpu_tuple_cost: tiny,
        cpu_index_tuple_cost: tiny,
        cpu_operator_cost: tiny,
        work_mem_bytes: 1e300,
    }
}

/// A drawn graph and its cost setting.
#[derive(Debug)]
pub(crate) struct Case {
    pub(crate) query: Query,
    topology: Topology,
    /// Costed under [`exact_sum`] rather than the defaults.
    exact: bool,
}

impl Case {
    /// What the case exercises, of ten features every table's draws must
    /// reach: the five shapes, both orders, more than 64 edges, more
    /// than 64 filters and the exact-sum costs.
    fn features(&self) -> impl Iterator<Item = String> {
        let graph = &self.query.graph;
        let label = self.topology.label();
        let shape = label.rsplit_once('-').map_or(label.clone(), |s| s.0.into());
        let ordered = format!("ordered: {}", self.query.order_by.is_some());
        [
            Some(shape),
            Some(ordered),
            (graph.edges().len() > 64).then(|| "over 64 edges".into()),
            (graph.filters().len() > 64).then(|| "over 64 filters".into()),
            self.exact.then(|| "exact-sum costs".into()),
        ]
        .into_iter()
        .flatten()
    }
}

/// `QueryGenerator`'s chain, star, cycle, clique and star-chain instances
/// of 3–10 relations, ordered or not, or the same graphs over the
/// catalog's largest relations, [`widen`]ed by closure-inferred cliques
/// and, in half the cases, local predicates; node 0 may join node 1 on
/// its indexed column, or both on their indexed columns.
pub(crate) fn cases() -> impl Strategy<Value = Case> {
    let graph = (0usize..5, 3usize..=10, any::<u64>(), any::<bool>());
    let extras = (
        prop::collection::vec(any::<u64>(), 0usize..=4),
        prop::collection::vec((any::<u64>(), any::<u8>(), any::<u64>()), 0usize..=80),
        any::<bool>(),
    );
    let flags = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    (graph, extras, flags).prop_map(
        |(
            (shape, n, seed, ordered),
            (cliques, filters, filtered),
            (largest, hub_index, merge_index, exact),
        )| {
            let topology = match shape {
                0 => Topology::Chain(n),
                1 => Topology::Star(n),
                2 => Topology::Cycle(n),
                3 => Topology::Clique(n),
                _ => Topology::star_chain(n),
            };
            let catalog = catalog();
            let generator = QueryGenerator::new(&catalog, topology, seed);
            let mut query = if ordered {
                generator.ordered_instance(0)
            } else {
                generator.instance(0)
            };
            if largest {
                let first = (catalog.len() - n) as u32;
                let relations = (first..).take(n).map(RelId).collect();
                query.graph = JoinGraph::new(relations, query.graph.edges().to_vec());
            }
            // A dense clique of ten relations costs seconds a run in the
            // debug profile; nine still pass 64 edges. Predicates on
            // every relation shrink the rows, and the costs' spread with
            // them, so half the graphs go without.
            let cliques = if n <= 9 { &cliques[..] } else { &[] };
            widen(&mut query, cliques, if filtered { &filters } else { &[] });
            let indexed = |node| {
                let relation = catalog.relation(query.graph.relation(node));
                relation.unwrap().indexed_column
            };
            let (index_0, index_1) = (indexed(0), indexed(1));
            if hub_index {
                let edge = JoinEdge::new(ColRef::new(0, index_0), ColRef::new(1, ColId(18)));
                query.graph.add_edge(edge);
            }
            if merge_index {
                let edge = JoinEdge::new(ColRef::new(0, index_0), ColRef::new(1, index_1));
                query.graph.add_edge(edge);
            }
            Case {
                query,
                topology,
                exact,
            }
        },
    )
}

/// The paper catalog, built once per test thread.
fn catalog() -> Catalog {
    thread_local! {
        static PAPER: Catalog = Catalog::paper();
    }
    PAPER.with(Catalog::clone)
}

type Optimize = fn(&mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError>;

/// A group's entries as bits: cost, ordering, source and id.
type Records = Vec<(u64, Option<ClassId>, PlanSource, u16)>;

/// Each group's entries as cost bits and ordering.
type Values = Vec<(RelSet, Vec<(u64, Option<ClassId>)>)>;

/// What a run leaves: the plan served, every memo group's records by
/// set, its level rows but for what they cost, the books and DP's
/// incumbent.
#[derive(Debug)]
struct Outcome {
    served: Option<(u64, u64)>,
    memo: Vec<(RelSet, Records)>,
    levels: Vec<LevelStats>,
    books: u64,
    incumbent: Option<Incumbent>,
}

impl Outcome {
    fn of(case: &Case, reference: bool, strategy: Optimize) -> Self {
        let catalog = catalog();
        let model = if case.exact {
            CostModel::new(&catalog, exact_sum())
        } else {
            CostModel::with_defaults(&catalog)
        };
        let mut ctx = EnumContext::new(&case.query, &model, Budget::unlimited());
        ctx.reference = reference;
        let served = strategy(&mut ctx).ok();
        let records = |set| -> Records {
            let entries = ctx.memo.get(set).unwrap().entries().iter();
            entries
                .map(|e| (e.cost.to_bits(), e.ordering(), e.source, e.id()))
                .collect()
        };
        let mut memo: Vec<_> = ctx.memo.sets().map(|set| (set, records(set))).collect();
        memo.sort_by_key(|&(set, _)| set.0);
        // The greedy's pairs each cost into an empty scratch group, which
        // the gate never finds dominated.
        let greedy = ctx.incumbent.map_or(0, |i| i.plans_costed);
        let levels = (ctx.take_profile().into_iter())
            .map(|row| LevelStats {
                plans_costed: 0,
                jcrs_uncosted: 0,
                ..row
            })
            .collect();
        Outcome {
            served: served.map(|plan| (plan.cost.to_bits(), plan.structural_digest())),
            memo,
            levels,
            books: ctx.plans_costed + ctx.ruled_out + ctx.dominated - greedy,
            incumbent: ctx.incumbent,
        }
    }

    /// Each group's entries as cost bits and ordering, those above
    /// `bound` left out.
    fn values(&self, bound: f64) -> Values {
        let values = |records: &Records| {
            let values = records.iter().map(|r| (r.0, r.1));
            values.filter(|v| f64::from_bits(v.0) <= bound).collect()
        };
        self.memo.iter().map(|(set, r)| (*set, values(r))).collect()
    }
}

/// What a row claims against its reference besides its served plan.
enum Claim {
    /// Every group's records, entry for entry (cost bits, ordering,
    /// source and id), every level row but for what it costed, and the
    /// books equal.
    Same,
    /// The same records and level rows; the books at most the
    /// reference's.
    Cheaper,
    /// Every group's costs and orderings at or under the run's last bound
    /// `B` (ids shift where an entry above `B` went uncosted), every
    /// group the run dropped costing more than `B` and every group of
    /// two or more relations it kept a plan within the first, `B` no
    /// lower than the optimum (and the first equal to it under
    /// [`exact_sum`]), and the books at most the reference's.
    Bounded,
    /// Each group's costs and orderings, as sets, and the served plan's
    /// cost alone. The run offers plans in another order, so a tie may
    /// retain and serve another plan of the same cost, or leave a group
    /// an ordered cheapest plan, which is offered no sort: no claim on
    /// the books. Held on graphs of at most seven relations: a run that
    /// splits every set costs `3^n` pairs.
    Values,
}

/// A strategy and what it claims.
struct Row(&'static str, Optimize, Claim);

/// Hold each row to the exhaustive enumeration in the reference mode,
/// computed once (`shared`), or else to its own strategy in that mode.
fn hold(case: &Case, rows: &[Row], shared: bool) {
    let exhaustive = shared.then(|| Outcome::of(case, true, optimize_complete));
    for Row(name, strategy, claim) in rows {
        if let (Claim::Values, 8..) = (claim, case.query.num_relations()) {
            continue;
        }
        let what = format!(
            "{name} on {} ({} costs, ordered: {})",
            case.topology,
            if case.exact { "exact-sum" } else { "default" },
            case.query.order_by.is_some()
        );
        let own;
        let reference = match &exhaustive {
            Some(reference) => reference,
            None => {
                own = Outcome::of(case, true, *strategy);
                &own
            }
        };
        let outcome = Outcome::of(case, false, *strategy);
        let cost = |outcome: &Outcome| outcome.served.map(|(cost, _)| f64::from_bits(cost));
        let optimum = cost(reference).expect("the reference serves a plan");
        match claim {
            Claim::Values => {
                assert_eq!(cost(&outcome), Some(optimum), "{what}: served cost");
                let sorted = |outcome: &Outcome| {
                    let mut values = outcome.values(f64::INFINITY);
                    values.iter_mut().for_each(|(_, v)| v.sort_unstable());
                    values
                };
                assert_eq!(sorted(&outcome), sorted(reference), "{what}: entries");
                continue;
            }
            _ => assert_eq!(outcome.served, reference.served, "{what}: served plan"),
        }
        if let Claim::Bounded = claim {
            let Incumbent {
                first, last: bound, ..
            } = outcome.incumbent.unwrap();
            assert!(optimum <= bound, "{what}: B {bound} under {optimum}");
            if case.exact {
                assert_eq!(first.to_bits(), optimum.to_bits(), "{what}: GOO's plan");
            }
            for (set, records) in outcome.memo.iter().filter(|(set, _)| set.len() > 1) {
                let within = records.iter().any(|r| f64::from_bits(r.0) <= first);
                assert!(within, "{what}: {set:?} kept above the first bound {first}");
            }
            let mut kept = outcome.values(bound).into_iter().peekable();
            for (set, entries) in reference.values(bound) {
                match kept.next_if(|(s, _)| *s == set) {
                    Some((_, values)) => assert_eq!(values, entries, "{what}: {set:?}"),
                    None => assert!(entries.is_empty(), "{what}: {set:?} dropped under B"),
                }
            }
            assert!(kept.next().is_none(), "{what}: a group the reference lacks");
        } else {
            assert_eq!(outcome.memo, reference.memo, "{what}: entries");
            assert_eq!(outcome.levels, reference.levels, "{what}: level rows");
        }
        if let Claim::Same = claim {
            assert_eq!(outcome.books, reference.books, "{what}: books");
        } else {
            let (books, limit) = (outcome.books, reference.books);
            assert!(books <= limit, "{what}: books {books} above {limit}");
        }
    }
}

/// Defers every level, and records each JCR's inputs floor and tight
/// floor beside the cost it then asks for; keeps everything.
#[derive(Default)]
struct FloorProbe(Vec<(RelSet, f64, f64, f64)>);

impl LevelPruner for FloorProbe {
    fn prune(
        &mut self,
        _ctx: &EnumContext<'_>,
        _level: usize,
        jcrs: &mut LevelJcrs<'_>,
        _keep: &mut [bool],
    ) -> PruneStats {
        for i in 0..jcrs.len() {
            let floor = jcrs.features()[i][1];
            let tight = jcrs.tighten(i);
            self.0.push((jcrs.sets()[i], floor, tight, jcrs.cost(i)));
        }
        PruneStats::default()
    }

    fn defers_costing(&self, _level: usize) -> bool {
        true
    }
}

/// The exhaustive levels under a [`FloorProbe`]. A JCR's inputs floor is
/// at most its tight floor, and that at most its cheapest plan's cost,
/// bit patterns ordered by `f64::total_cmp` with no slack.
fn floors(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    let mut probe = FloorProbe::default();
    let all = prepare(ctx)?;
    let plan = complete(ctx, all, Some(&mut probe))?;
    for &(set, floor, tight, cost) in &probe.0 {
        let ordered = floor.total_cmp(&tight).is_le() && tight.total_cmp(&cost).is_le();
        assert!(ordered, "{set:?}: {floor}, {tight}, {cost}");
        let best = ctx.memo.get(set).unwrap().best_cost();
        assert_eq!(cost.to_bits(), best.to_bits(), "{set:?}");
    }
    Ok(plan)
}

/// The reference costing by another enumeration: every connected set,
/// from the complete one down, split into each pair of connected,
/// joined halves once, through `join_pair`, and offered a sort enforcer
/// once its splits are joined, as a level barrier does.
fn recursion(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    fn enumerate(ctx: &mut EnumContext<'_>, set: RelSet, visited: &mut Vec<RelSet>) {
        if set.len() == 1 {
            return ctx.ensure_base_group(set.min_index().unwrap());
        }
        if visited.contains(&set) {
            return;
        }
        visited.push(set);
        let members: Vec<usize> = set.iter().collect();
        for mask in 1..(1u64 << members.len()) - 1 {
            let a = (0..members.len()).filter(|&i| mask >> i & 1 == 1);
            let a = RelSet::from_indices(a.map(|i| members[i]));
            let (b, graph) = (set - a, ctx.graph());
            if a.min_index() < b.min_index()
                && graph.is_connected(a)
                && graph.is_connected(b)
                && graph.sets_connected(a, b)
            {
                enumerate(ctx, a, visited);
                enumerate(ctx, b, visited);
                ctx.join_pair(a, b);
            }
        }
        ctx.offer_sort_enforcer(set);
    }
    ctx.reference = true;
    let all = ctx.graph().all_nodes();
    enumerate(ctx, all, &mut Vec::new());
    ctx.finalize(all)
}

/// A DP rung tripped by a budget of four one-plan groups a relation,
/// handed down to SDP. The rung is the unbounded enumeration: DP's bound
/// changes what a rung holds, and so where it trips, while the gate and
/// the reference mode hold the same records.
fn governed(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    let groups = 4 * ctx.graph().len() as u64;
    ctx.memory
        .set_budget(Budget::with_memory(groups * GROUP_MODEL_BYTES));
    if let Ok(plan) = optimize_complete(ctx) {
        return Ok(plan);
    }
    prepare_handoff(ctx);
    ctx.memory.set_budget(Budget::unlimited());
    optimize_sdp(ctx, SdpConfig::paper())
}

/// The row of SDP under a `Partitioning` and a `SkylineOption`.
macro_rules! sdp {
    ($name:literal, $partitioning:ident, $skyline:ident) => {
        Row(
            $name,
            |ctx| {
                let (partitioning, skyline) =
                    (Partitioning::$partitioning, SkylineOption::$skyline);
                optimize_sdp(
                    ctx,
                    SdpConfig {
                        partitioning,
                        skyline,
                    },
                )
            },
            Claim::Cheaper,
        )
    };
}

/// The rows held to the exhaustive enumeration.
const EXHAUSTIVE_ROWS: [Row; 4] = [
    Row("DP unbounded", optimize_complete, Claim::Same),
    Row("DP bounded", optimize_dp, Claim::Bounded),
    Row("DP under floors", floors, Claim::Same),
    Row("recursion", recursion, Claim::Values),
];

/// The rows held to their own strategy in the reference mode.
const OWN_ROWS: [Row; 6] = [
    sdp!("SDP root-hub pairwise", RootHub, PairwiseUnion),
    sdp!("SDP root-hub full", RootHub, FullVector),
    sdp!("SDP global pairwise", Global, PairwiseUnion),
    sdp!("SDP global full", Global, FullVector),
    Row("IDP(3)", |ctx| optimize_idp(ctx, 3), Claim::Same),
    Row("governed descent", governed, Claim::Cheaper),
];

/// Hold `rows` on 48 cases drawn from the stream `name` seeds, and check
/// that the draws reached all ten [`Case::features`].
fn hold_drawn(name: &str, rows: &[Row], shared: bool) {
    let mut rng = proptest::TestRng::from_name(name);
    let mut reached = std::collections::BTreeSet::new();
    for _ in 0..48 {
        let case = cases().sample(&mut rng);
        reached.extend(case.features());
        hold(&case, rows, shared);
    }
    assert_eq!(reached.len(), 10, "{name}: the draws reached {reached:?}");
}

#[test]
fn exhaustive_rows_hold_to_the_reference() {
    hold_drawn("exhaustive rows", &EXHAUSTIVE_ROWS, true);
}

#[test]
fn sdp_rows_hold_to_their_reference() {
    hold_drawn("SDP rows", &OWN_ROWS[..4], false);
}

#[test]
fn idp_and_governed_rows_hold_to_their_reference() {
    hold_drawn("IDP and governed rows", &OWN_ROWS[4..], false);
}

/// Star-6 of the instance whose plan probes an index: some JCRs'
/// cheapest plan is an index nested loop, which leaves its inner plan's
/// cost out, and their floors hold. On Star-Chain-16 most pruned JCRs
/// are never costed, and the plan is the reference mode's.
#[test]
fn index_probes_keep_under_the_floor_and_star_chains_go_uncosted() {
    let cat = Catalog::paper();
    let model = CostModel::with_defaults(&cat);
    let q = QueryGenerator::new(&cat, Topology::Star(6), 13).instance(0);
    let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
    let mut probe = FloorProbe::default();
    let all = prepare(&mut ctx).unwrap();
    complete(&mut ctx, all, Some(&mut probe)).unwrap();
    let probed = probe.0.iter().filter(|&&(set, floor, tight, cost)| {
        assert!(floor <= tight && tight <= cost, "{set:?}");
        let method = match ctx.memo.get(set).unwrap().best().source {
            PlanSource::Join { method, .. } => Some(method),
            _ => None,
        };
        method == Some(sdp_cost::JoinMethod::IndexNestedLoop)
    });
    assert!(probed.count() > 0, "no JCR's cheapest plan probes an index");

    let q = QueryGenerator::new(&cat, Topology::star_chain(16), 7).instance(0);
    let run = |reference| {
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        ctx.reference = reference;
        let plan = optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
        let served = (plan.cost.to_bits(), plan.structural_digest());
        (served, ctx.take_profile(), ctx.plans_costed)
    };
    let ((served, rows, costed), (o_served, _, o_costed)) = (run(false), run(true));
    assert_eq!(served, o_served);
    let uncosted: u64 = rows.iter().map(|r| r.jcrs_uncosted).sum();
    let pruned: u64 = rows.iter().map(|r| r.jcrs_pruned).sum();
    assert!(2 * uncosted > pruned, "{uncosted} of {pruned} uncosted");
    assert!(costed < o_costed, "{costed} vs {o_costed}");
}
