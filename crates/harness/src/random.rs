//! Randomized join-order search: Iterative Improvement and Simulated
//! Annealing.
//!
//! The paper's introduction contrasts DP-pruning heuristics with
//! approaches that "completely jettison the DP approach and resort to
//! alternative techniques such as randomized algorithms"
//! (Swami/Gupta, Ioannidis/Kang). These two classics are extension
//! baselines for the quality/effort rows of `figure-1-2` and
//! `extra-idp-variants`; the optimizer itself never runs them.
//!
//! * **II** — repeated random restarts, each hill-climbed to a local
//!   minimum under the *swap* neighbourhood;
//! * **SA** — random restarts followed by simulated annealing with a
//!   geometric cooling schedule, accepting uphill moves with
//!   probability `exp(−Δ/T)`.
//!
//! The search state is a *connected left-deep order*: a permutation of
//! the base relations in which every prefix induces a connected
//! subgraph (cartesian products excluded, as everywhere else). Each
//! candidate order is costed operator-by-operator with the join-cost
//! formula the optimizer's strategies use ([`sdp_cost::JoinTerms`]), so
//! costs are directly comparable.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdp_core::{EnumContext, OptError, PlanNode};
use sdp_query::{ClassId, RelSet};

use crate::recost::{inner_probe, join_alternatives, Subplan};

/// RNG seed of every search.
const SEED: u64 = 0x5d9_2007;
/// Random restarts (II) / annealing chains (SA).
const RESTARTS: usize = 8;
/// Moves examined per hill-climb / per temperature step.
const MOVES_PER_ROUND: usize = 64;
/// SA cooling factor per temperature step.
const COOLING: f64 = 0.85;

/// Cost of executing the relations in `order` as a left-deep pipeline,
/// choosing the cheapest join method at every step (each method costed
/// counts as a plan costed). Returns `None` if some prefix is
/// disconnected.
fn order_cost(ctx: &mut EnumContext<'_>, order: &[usize]) -> Option<f64> {
    let graph = ctx.graph();
    let model = ctx.model();
    let est = model.estimator();

    let first = order[0];
    ctx.ensure_base_group(first);
    let base = |ctx: &EnumContext<'_>, node: usize| {
        let g = ctx.memo.get(RelSet::single(node)).expect("base");
        Subplan {
            rows: g.rows,
            cost: g.best().cost,
            width: g.width,
            ordering: g.best().ordering(),
        }
    };
    let mut set = RelSet::single(first);
    let mut acc = base(ctx, first);

    for &next in &order[1..] {
        let nset = RelSet::single(next);
        if !graph.sets_connected(set, nset) {
            return None;
        }
        ctx.ensure_base_group(next);
        let inner = base(ctx, next);
        let out_rows = est.rows_for_set(graph, set | nset);
        let class = graph
            .crossing_edges(set, nset)
            .find_map(|e| ctx.classes().class_of(e.left));
        let alternatives = join_alternatives(
            model,
            &acc,
            &inner,
            est.crossing_selectivity(graph, set, nset),
            out_rows,
            class,
            inner_probe(model, graph, set, nset),
        );
        let mut best: Option<(f64, Option<ClassId>)> = None;
        for (_, cost, ordering) in alternatives.into_iter().flatten() {
            ctx.plans_costed += 1;
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, ordering));
            }
        }
        let (cost, ordering) = best.expect("at least one join method applies");
        set = set | nset;
        acc = Subplan {
            rows: out_rows,
            cost,
            width: acc.width + inner.width,
            ordering,
        };
    }

    // Account for the ORDER BY enforcement, like finalize().
    if let Some(target) = ctx.order_target() {
        if acc.ordering != Some(target) {
            acc.cost += model.sort_cost(acc.rows, acc.width);
        }
    }
    Some(acc.cost)
}

/// A random connected order: start anywhere, repeatedly append a
/// random neighbour of the prefix.
fn random_connected_order(ctx: &EnumContext<'_>, rng: &mut StdRng) -> Vec<usize> {
    let graph = ctx.graph();
    let n = graph.len();
    let mut order = vec![rng.gen_range(0..n)];
    let mut set = RelSet::single(order[0]);
    while order.len() < n {
        let frontier: Vec<usize> = graph.neighbors(set).iter().collect();
        let next = frontier[rng.gen_range(0..frontier.len())];
        order.push(next);
        set = set.insert(next);
    }
    order
}

/// A random swap move that keeps every prefix connected; `None` if the
/// sampled swap is invalid.
fn swapped(ctx: &EnumContext<'_>, order: &[usize], rng: &mut StdRng) -> Option<Vec<usize>> {
    let n = order.len();
    if n < 3 {
        return None;
    }
    let i = rng.gen_range(0..n);
    let j = rng.gen_range(0..n);
    if i == j {
        return None;
    }
    let mut cand = order.to_vec();
    cand.swap(i, j);
    // Validate connected prefixes.
    let graph = ctx.graph();
    let mut set = RelSet::single(cand[0]);
    for &next in &cand[1..] {
        if !graph.sets_connected(set, RelSet::single(next)) {
            return None;
        }
        set = set.insert(next);
    }
    Some(cand)
}

fn search(ctx: &mut EnumContext<'_>, anneal: bool) -> Result<Arc<PlanNode>, OptError> {
    let n = ctx.graph().len();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let all = ctx.graph().all_nodes();
    if !ctx.graph().is_connected(all) {
        return Err(OptError::DisconnectedJoinGraph);
    }
    if n == 1 {
        ctx.ensure_base_group(0);
        return ctx.finalize(all);
    }

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut best_order: Option<(Vec<usize>, f64)> = None;

    for _ in 0..RESTARTS {
        let mut order = random_connected_order(ctx, &mut rng);
        let mut cost = order_cost(ctx, &order).expect("random connected order is valid");
        let mut temperature = if anneal { cost * 0.1 } else { 0.0 };

        loop {
            let mut improved = false;
            for _ in 0..MOVES_PER_ROUND {
                let Some(cand) = swapped(ctx, &order, &mut rng) else {
                    continue;
                };
                let Some(cand_cost) = order_cost(ctx, &cand) else {
                    continue;
                };
                let delta = cand_cost - cost;
                let accept = delta < 0.0
                    || (anneal
                        && temperature > 0.0
                        && rng.gen::<f64>() < (-delta / temperature).exp());
                if accept {
                    if delta < 0.0 {
                        improved = true;
                    }
                    order = cand;
                    cost = cand_cost;
                }
            }
            ctx.memory.check(ctx.memo.live_nodes())?;
            if anneal {
                temperature *= COOLING;
                if temperature < cost * 1e-4 {
                    break;
                }
            } else if !improved {
                break; // local minimum reached
            }
        }
        if best_order.as_ref().is_none_or(|(_, c)| cost < *c) {
            best_order = Some((order, cost));
        }
    }

    // Cost the winning order through the memo, as a chain of pair
    // groups; `finalize` builds the chain's tree.
    let (order, _) = best_order.expect("at least one restart ran");
    let mut set = RelSet::single(order[0]);
    ctx.ensure_base_group(order[0]);
    for &next in &order[1..] {
        ctx.ensure_base_group(next);
        ctx.join_pair(set, RelSet::single(next));
        set = set.insert(next);
    }
    ctx.finalize(all)
}

/// Optimize with Iterative Improvement (random restarts +
/// hill-climbing).
pub fn optimize_ii(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    search(ctx, false)
}

/// Optimize with Simulated Annealing.
pub fn optimize_sa(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    search(ctx, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;
    use sdp_core::Budget;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    fn run(topo: Topology, seed: u64, anneal: bool) -> (f64, f64) {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, topo, seed).instance(0);
        let mut rctx = EnumContext::new(&q, &model, Budget::unlimited());
        let random = search(&mut rctx, anneal).unwrap();
        let mut dctx = EnumContext::new(&q, &model, Budget::unlimited());
        let dp = sdp_core::dp::optimize_complete(&mut dctx).unwrap();
        (random.cost, dp.cost)
    }

    #[test]
    fn ii_finds_valid_competitive_plans() {
        for topo in [
            Topology::Chain(8),
            Topology::Star(8),
            Topology::star_chain(9),
        ] {
            let (ii, dp) = run(topo, 4, false);
            assert!(ii >= dp * (1.0 - 1e-9), "{topo}: II beat DP");
            assert!(ii / dp < 10.0, "{topo}: II ratio {}", ii / dp);
        }
    }

    #[test]
    fn sa_finds_valid_competitive_plans() {
        for topo in [Topology::Chain(8), Topology::Star(8)] {
            let (sa, dp) = run(topo, 9, true);
            assert!(sa >= dp * (1.0 - 1e-9), "{topo}: SA beat DP");
            assert!(sa / dp < 10.0, "{topo}: SA ratio {}", sa / dp);
        }
    }

    /// Cost bits and plans costed of both searches on three queries,
    /// exactly as they were before the searches moved out of the
    /// optimizer and onto `JoinTerms`: the move changed no plan and no
    /// count.
    #[test]
    fn searches_reproduce_the_pinned_costs_and_counts() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        for (topo, seed, ordered, anneal, cost_bits, plans_costed) in [
            (
                Topology::star_chain(10),
                3,
                false,
                false,
                0x40f8d9caa3eee5d8,
                21_956,
            ),
            (
                Topology::star_chain(10),
                3,
                false,
                true,
                0x40f8d9caa3eee5d8,
                323_571,
            ),
            (
                Topology::Star(9),
                5,
                false,
                false,
                0x4116b8df9c4caccc,
                35_770,
            ),
            (
                Topology::Star(9),
                5,
                false,
                true,
                0x4116b8df9c4caccc,
                586_691,
            ),
            (
                Topology::Star(6),
                8,
                true,
                false,
                0x4150bc2d8a7efa28,
                13_541,
            ),
            (
                Topology::Star(6),
                8,
                true,
                true,
                0x4150bc2d8a7efa28,
                276_844,
            ),
        ] {
            let generator = QueryGenerator::new(&cat, topo, seed);
            let q = if ordered {
                generator.ordered_instance(0)
            } else {
                generator.instance(0)
            };
            let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
            let plan = search(&mut ctx, anneal).unwrap();
            let case = format!("{topo} seed {seed} anneal {anneal}");
            assert_eq!(plan.cost.to_bits(), cost_bits, "{case}");
            assert_eq!(ctx.plans_costed, plans_costed, "{case}");
            assert_eq!(plan.set, q.graph.all_nodes());
            plan.check_invariants().unwrap();
            if ordered {
                assert_eq!(plan.ordering, ctx.order_target(), "{case}");
            }
        }
    }

    #[test]
    fn single_relation_short_circuits() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let g = sdp_query::JoinGraph::new(vec![sdp_catalog::RelId(2)], vec![]);
        let q = sdp_query::Query::new(g);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_ii(&mut ctx).unwrap();
        assert_eq!(plan.join_count(), 0);
    }
}
