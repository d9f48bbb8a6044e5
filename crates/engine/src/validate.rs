//! Cost-model validation: estimated versus actual cardinalities.

use sdp_catalog::Catalog;
use sdp_core::PlanNode;
use sdp_query::{Query, RelSet};

use crate::datagen::Database;
use crate::exec::{execute, ExecError};

/// The q-error of an estimate: `max(est/act, act/est)` with both
/// sides floored at 1 row. 1.0 is perfect.
pub fn q_error(estimated: f64, actual: f64) -> f64 {
    let e = estimated.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// Execute every subtree of `plan` and pair the optimizer's row
/// estimates with the actual counts: `(relation set, estimated,
/// actual)` per operator.
pub fn actual_vs_estimated(
    plan: &PlanNode,
    query: &Query,
    catalog: &Catalog,
    db: &Database,
) -> Result<Vec<(RelSet, f64, f64)>, ExecError> {
    let mut out = Vec::new();
    walk(plan, query, catalog, db, &mut out)?;
    Ok(out)
}

fn walk(
    node: &PlanNode,
    query: &Query,
    catalog: &Catalog,
    db: &Database,
    out: &mut Vec<(RelSet, f64, f64)>,
) -> Result<(), ExecError> {
    for c in node.children() {
        walk(c, query, catalog, db, out)?;
    }
    let actual = execute(node, query, catalog, db)?.len() as f64;
    out.push((node.set, node.rows, actual));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{scaled_catalog, Database};
    use sdp_core::{Algorithm, Optimizer};
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        // Sub-row estimates are floored.
        assert_eq!(q_error(0.001, 1.0), 1.0);
    }

    #[test]
    fn estimates_track_actuals_on_uniform_data() {
        let cat = scaled_catalog(10, 400, 31);
        let db = Database::generate(&cat, 37);
        let mut qerrors = Vec::new();
        for seed in 0..4 {
            let q = QueryGenerator::new(&cat, Topology::Chain(4), seed).instance(0);
            let plan = Optimizer::new(&cat).optimize(&q, Algorithm::Dp).unwrap();
            for (_, est, act) in actual_vs_estimated(&plan.root, &q, &cat, &db).unwrap() {
                qerrors.push(q_error(est, act));
            }
        }
        qerrors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = qerrors[qerrors.len() / 2];
        // Chains of equi-joins under the independence assumption:
        // median q-error should stay moderate on uniform data.
        assert!(median < 5.0, "median q-error {median}");
        // Base-relation estimates are exact.
        let q = QueryGenerator::new(&cat, Topology::Chain(2), 9).instance(0);
        let plan = Optimizer::new(&cat).optimize(&q, Algorithm::Dp).unwrap();
        for (set, est, act) in actual_vs_estimated(&plan.root, &q, &cat, &db).unwrap() {
            if set.len() == 1 {
                // Exact up to the log-space round trip in the
                // estimator.
                assert!((est - act).abs() < 1e-6, "base estimate {est} vs {act}");
            }
        }
    }

    #[test]
    fn star_estimates_are_sane() {
        let cat = scaled_catalog(8, 300, 41);
        let db = Database::generate(&cat, 43);
        let q = QueryGenerator::new(&cat, Topology::Star(4), 2).instance(0);
        let plan = Optimizer::new(&cat).optimize(&q, Algorithm::Dp).unwrap();
        let pairs = actual_vs_estimated(&plan.root, &q, &cat, &db).unwrap();
        assert_eq!(pairs.len(), plan.root.node_count());
        for (set, est, act) in pairs {
            let qe = q_error(est, act);
            assert!(
                qe < 100.0,
                "set {set}: estimate {est} vs actual {act} (q={qe})"
            );
        }
    }
}
