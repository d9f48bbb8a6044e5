//! Randomized join-order search: Iterative Improvement and Simulated
//! Annealing.
//!
//! The paper's introduction contrasts DP-pruning heuristics with
//! approaches that "completely jettison the DP approach and resort to
//! alternative techniques such as randomized algorithms"
//! (Swami/Gupta, Ioannidis/Kang). These two classics are provided as
//! additional baselines for the quality/effort trade-off plots:
//!
//! * **II** — repeated random restarts, each hill-climbed to a local
//!   minimum under the *swap* neighbourhood;
//! * **SA** — one II seed followed by simulated annealing with a
//!   geometric cooling schedule, accepting uphill moves with
//!   probability `exp(−Δ/T)`.
//!
//! The search state is a *connected left-deep order*: a permutation of
//! the base relations in which every prefix induces a connected
//! subgraph (cartesian products excluded, as everywhere else). Each
//! candidate order is costed operator-by-operator with the same cost
//! model the DP enumerators use, so costs are directly comparable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdp_cost::{InnerIndex, JoinInput};
use sdp_query::{ClassId, RelSet};

use crate::budget::OptError;
use crate::context::EnumContext;
use crate::plan::PlanNode;
use std::sync::Arc;

/// Tuning parameters for the randomized searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomConfig {
    /// RNG seed.
    pub seed: u64,
    /// Random restarts (II) / annealing chains (SA).
    pub restarts: usize,
    /// Moves examined per hill-climb / per temperature step.
    pub moves_per_round: usize,
    /// SA cooling factor per temperature step (ignored by II).
    pub cooling: f64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            seed: 0x5d9_2007,
            restarts: 8,
            moves_per_round: 64,
            cooling: 0.85,
        }
    }
}

/// Evaluates connected left-deep orders under the shared cost model.
struct OrderCoster<'a, 'q> {
    ctx: &'a mut EnumContext<'q>,
}

impl OrderCoster<'_, '_> {
    /// Cost of executing the relations in `order` as a left-deep
    /// pipeline, choosing the cheapest join method at every step.
    /// Returns `None` if some prefix is disconnected.
    fn cost(&mut self, order: &[usize]) -> Option<f64> {
        let graph = self.ctx.graph();
        let model = self.ctx.model();
        let est = model.estimator();

        let first = order[0];
        self.ctx
            .ensure_base_group(RelSet::single(first).min_index().unwrap());
        let g0 = self.ctx.memo.get(RelSet::single(first)).expect("base");
        let mut set = RelSet::single(first);
        let mut cost = g0.best().cost;
        let mut rows = g0.rows;
        let mut width = g0.width;
        let mut ordering: Option<ClassId> = g0.best().ordering();

        for &next in &order[1..] {
            let nset = RelSet::single(next);
            if !graph.sets_connected(set, nset) {
                return None;
            }
            self.ctx.ensure_base_group(next);
            let (n_rows, n_width, n_cost, n_ordering) = {
                let g = self.ctx.memo.get(nset).expect("base");
                (g.rows, g.width, g.best().cost, g.best().ordering())
            };
            let crossing = est.crossing_selectivity(graph, set, nset);
            let out_rows = est.rows_for_set(graph, set | nset);
            let classes: Vec<ClassId> = graph
                .crossing_edges(set, nset)
                .filter_map(|e| self.ctx.classes().class_of(e.left))
                .collect();
            let rel = graph.relation(next);
            let relation = model.catalog().relation(rel).expect("valid");
            let idx_usable = graph.crossing_edges(set, nset).any(|e| {
                let inner = if e.left.node == next { e.left } else { e.right };
                inner.node == next && relation.has_index_on(inner.col)
            });
            let inner_index = idx_usable.then(|| {
                let s = model.catalog().stats(rel).expect("valid").relation;
                InnerIndex {
                    tuples: s.tuples,
                    pages: s.pages,
                }
            });
            let outer = JoinInput {
                rows,
                cost,
                width,
                ordering,
            };
            let inner = JoinInput {
                rows: n_rows,
                cost: n_cost,
                width: n_width,
                ordering: n_ordering,
            };
            let mut best: Option<(f64, Option<ClassId>)> = None;
            for cand in model.join_candidates(
                &outer,
                &inner,
                crossing,
                out_rows,
                classes.first().copied(),
                inner_index,
            ) {
                self.ctx.plans_costed += 1;
                if best.is_none_or(|(c, _)| cand.cost < c) {
                    best = Some((cand.cost, cand.ordering));
                }
            }
            let (c, o) = best.expect("at least one join method applies");
            set = set | nset;
            cost = c;
            rows = out_rows;
            width += n_width;
            ordering = o;
        }

        // Account for the ORDER BY enforcement, like finalize().
        if let Some(target) = self.ctx.order_target() {
            if ordering != Some(target) {
                cost += self.ctx.model().sort_cost(rows, width);
            }
        }
        Some(cost)
    }
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

fn search(
    ctx: &mut EnumContext<'_>,
    config: RandomConfig,
    anneal: bool,
) -> Result<Arc<PlanNode>, OptError> {
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

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut best_order: Option<(Vec<usize>, f64)> = None;

    for _ in 0..config.restarts.max(1) {
        let mut order = random_connected_order(ctx, &mut rng);
        let mut cost = OrderCoster { ctx }
            .cost(&order)
            .expect("random connected order is valid");
        let mut temperature = if anneal { cost * 0.1 } else { 0.0 };

        loop {
            let mut improved = false;
            for _ in 0..config.moves_per_round {
                let Some(cand) = swapped(ctx, &order, &mut rng) else {
                    continue;
                };
                let Some(cand_cost) = OrderCoster { ctx }.cost(&cand) else {
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
            ctx.memory.check()?;
            if anneal {
                temperature *= config.cooling;
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
pub fn optimize_ii(
    ctx: &mut EnumContext<'_>,
    config: RandomConfig,
) -> Result<Arc<PlanNode>, OptError> {
    search(ctx, config, false)
}

/// Optimize with Simulated Annealing.
pub fn optimize_sa(
    ctx: &mut EnumContext<'_>,
    config: RandomConfig,
) -> Result<Arc<PlanNode>, OptError> {
    search(ctx, config, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::dp::optimize_complete;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    fn run(topo: Topology, seed: u64, anneal: bool) -> (f64, f64) {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, topo, seed).instance(0);
        let mut rctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let random = search(&mut rctx, RandomConfig::default(), anneal).unwrap();
        let mut dctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let dp = optimize_complete(&mut dctx, None).unwrap();
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

    #[test]
    fn random_plans_are_structurally_valid() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::star_chain(10), 3).instance(0);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let plan = optimize_sa(&mut ctx, RandomConfig::default()).unwrap();
        assert_eq!(plan.set, q.graph.all_nodes());
        plan.check_invariants().unwrap();
        assert_eq!(plan.join_count(), 9);
    }

    #[test]
    fn randomized_search_is_deterministic_per_seed() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(9), 5).instance(0);
        let cost = |seed: u64| {
            let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
            optimize_ii(
                &mut ctx,
                RandomConfig {
                    seed,
                    ..RandomConfig::default()
                },
            )
            .unwrap()
            .cost
        };
        assert_eq!(cost(1), cost(1));
    }

    #[test]
    fn ordered_queries_get_enforced_orders() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(6), 8).ordered_instance(0);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let plan = optimize_sa(&mut ctx, RandomConfig::default()).unwrap();
        assert_eq!(plan.ordering, ctx.order_target());
    }

    #[test]
    fn single_relation_short_circuits() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let g = sdp_query::JoinGraph::new(vec![sdp_catalog::RelId(2)], vec![]);
        let q = sdp_query::Query::new(g);
        let mut ctx = EnumContext::from_env(&q, &model, Budget::unlimited());
        let plan = optimize_ii(&mut ctx, RandomConfig::default()).unwrap();
        assert_eq!(plan.join_count(), 0);
    }
}
