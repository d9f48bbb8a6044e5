//! Greedy Operator Ordering — a cheap non-DP baseline.
//!
//! Not part of the paper's comparison set, but a useful lower anchor
//! for the quality/effort trade-off plots: GOO repeatedly joins the
//! connected pair of components with the smallest estimated result,
//! costing only `O(n²)` plans, and typically lands well above DP cost
//! on hub-bearing graphs.
//!
//! Exhaustive DP runs the same merge order costs-only, for the bound it
//! prunes against (`EnumContext::incumbent`); both pick their next
//! merge with `EnumContext::min_rows_pair`.

use std::sync::Arc;

use sdp_query::RelSet;

use crate::budget::OptError;
use crate::context::EnumContext;
use crate::plan::PlanNode;

/// Optimize with greedy operator ordering (MinRows merge criterion).
pub fn optimize_goo(ctx: &mut EnumContext<'_>) -> Result<Arc<PlanNode>, OptError> {
    let n = ctx.graph().len();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let all = ctx.graph().all_nodes();
    if !ctx.graph().is_connected(all) {
        return Err(OptError::DisconnectedJoinGraph);
    }
    let mut components: Vec<RelSet> = (0..n).map(RelSet::single).collect();
    for i in 0..n {
        ctx.ensure_base_group(i);
    }

    while components.len() > 1 {
        let (i, j) = ctx
            .min_rows_pair(components.len(), |k| {
                ctx.memo.get(components[k]).expect("live")
            })
            .ok_or(OptError::DisconnectedJoinGraph)?;
        let (a, b) = (components[i], components[j]);
        ctx.join_pair(a, b);
        components.swap_remove(j);
        components[i] = a | b;
        ctx.memory.check(ctx.memo.live_nodes())?;
    }
    ctx.finalize(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::dp::optimize_complete;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn goo_produces_valid_complete_plans() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        for topo in [
            Topology::Chain(10),
            Topology::Star(10),
            Topology::star_chain(12),
        ] {
            let q = QueryGenerator::new(&cat, topo, 9).instance(0);
            let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
            let plan = optimize_goo(&mut ctx).unwrap();
            assert_eq!(plan.set, q.graph.all_nodes());
            plan.check_invariants().unwrap();
        }
    }

    #[test]
    fn goo_never_beats_dp_and_costs_far_fewer_plans() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Star(9), 4).instance(0);
        let mut goo_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let goo = optimize_goo(&mut goo_ctx).unwrap();
        let mut dp_ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let dp = optimize_complete(&mut dp_ctx).unwrap();
        assert!(goo.cost >= dp.cost * (1.0 - 1e-9));
        assert!(goo_ctx.stats().plans_costed * 10 < dp_ctx.stats().plans_costed);
    }

    #[test]
    fn goo_handles_single_relation() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let g = sdp_query::JoinGraph::new(vec![sdp_catalog::RelId(3)], vec![]);
        let q = sdp_query::Query::new(g);
        let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
        let plan = optimize_goo(&mut ctx).unwrap();
        assert_eq!(plan.join_count(), 0);
    }
}
