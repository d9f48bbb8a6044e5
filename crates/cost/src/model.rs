//! The cost-model facade consumed by the enumerators.

use sdp_catalog::{Catalog, RelId};

use crate::estimate::Estimator;
use crate::params::CostParams;
use crate::scan::{scan_paths, scan_paths_for_node, sort_cost, ScanPaths};

/// Everything an enumerator needs to cost plans: statistics access,
/// cardinality estimation, and operator costing under one roof.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    estimator: Estimator<'a>,
    params: CostParams,
}

impl<'a> CostModel<'a> {
    /// Build a cost model over a catalog with the given constants.
    ///
    /// # Panics
    /// Panics if `params` fail validation — a cost model with
    /// non-positive constants produces meaningless plans.
    pub fn new(catalog: &'a Catalog, params: CostParams) -> Self {
        params.validate().expect("invalid cost parameters");
        CostModel {
            estimator: Estimator::new(catalog),
            params,
        }
    }

    /// Cost model with PostgreSQL-default constants.
    pub fn with_defaults(catalog: &'a Catalog) -> Self {
        CostModel::new(catalog, CostParams::default())
    }

    /// The cardinality estimator.
    pub fn estimator(&self) -> &Estimator<'a> {
        &self.estimator
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &'a Catalog {
        self.estimator.catalog()
    }

    /// The cost constants in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// All access paths for a base relation (no local predicates).
    pub fn scan_paths(&self, rel: RelId) -> ScanPaths {
        scan_paths(self.catalog(), rel, &self.params)
    }

    /// All access paths for a query node, its local predicates pushed
    /// into the scans.
    pub fn scan_paths_for_node(&self, graph: &sdp_query::JoinGraph, node: usize) -> ScanPaths {
        scan_paths_for_node(self.catalog(), graph, node, &self.params)
    }

    /// Cost of explicitly sorting `rows` tuples of `width` bytes (the
    /// top-level `ORDER BY` enforcer).
    pub fn sort_cost(&self, rows: f64, width: f64) -> f64 {
        sort_cost(rows, width, &self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;

    #[test]
    fn facade_wires_components() {
        let cat = Catalog::paper();
        let m = CostModel::with_defaults(&cat);
        assert_eq!(m.catalog().len(), 25);
        let paths = m.scan_paths(RelId(0));
        assert_eq!(paths.len(), 2);
        assert!(m.sort_cost(1000.0, 100.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid cost parameters")]
    fn invalid_params_rejected() {
        let cat = Catalog::paper();
        let bad = CostParams {
            cpu_tuple_cost: -1.0,
            ..CostParams::default()
        };
        let _ = CostModel::new(&cat, bad);
    }
}
