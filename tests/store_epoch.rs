//! The durable store follows the catalog across `bump_stats_epoch()`.
//!
//! Run in the debug profile (`cargo test --test store_epoch`): the
//! defect this pins down was a `debug_assert!` in `PlanStore::append`
//! that panicked the write-behind thread on the first append after a
//! bump — invisible to every `--release` suite, which instead kept
//! appending records whose epoch the open store never learned.

use sdp::prelude::*;
use sdp::service::{OptimizerService, PlanSource, ServiceRequest};

#[test]
fn store_keeps_persisting_after_a_stats_epoch_bump() {
    let dir = std::env::temp_dir().join(format!("sdp-store-epoch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::paper();
    let query = QueryGenerator::new(&catalog, Topology::Star(6), 11).instance(0);

    let bumped_catalog = {
        let service = OptimizerService::with_defaults(catalog)
            .with_store(&dir)
            .unwrap();
        let request = ServiceRequest::query(query.clone());
        assert_eq!(
            service.get_plan(&request).unwrap().source,
            PlanSource::Fresh
        );
        service.bump_stats_epoch();
        let reoptimized = service.get_plan(&request).unwrap();
        assert_eq!(reoptimized.source, PlanSource::Fresh);
        assert_eq!(
            reoptimized.plan.stats_epoch,
            service.catalog().stats_epoch()
        );
        service.flush_store();
        // Both plans reached the log: had the writer thread died on the
        // second append, it would never have been counted.
        let snap = service.store_counters().snapshot();
        assert_eq!(snap.writes, 2, "{snap:?}");
        assert_eq!(snap.write_errors, 0, "{snap:?}");
        // The store followed the catalog to the new epoch.
        assert_eq!(snap.epoch_adoptions, 1, "{snap:?}");
        assert_eq!(snap.stale_rejected, 0, "{snap:?}");
        (*service.catalog()).clone()
    }; // service dropped = process "restart"

    // Reopen at the bumped epoch: only the re-optimized plan is current.
    let service = OptimizerService::with_defaults(bumped_catalog)
        .with_store(&dir)
        .unwrap();
    let snap = service.store_counters().snapshot();
    assert_eq!(snap.warm_fills, 1, "{snap:?}");
    assert_eq!(snap.stale_dropped, 1, "{snap:?}");
    let warm = service.get_plan(&ServiceRequest::query(query)).unwrap();
    assert_eq!(warm.source, PlanSource::Cache);
    assert!(warm.plan.warm);

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
