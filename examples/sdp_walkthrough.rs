//! A guided walk through SDP's machinery on the paper's Figure 2.1
//! example graph: hub identification, PruneGroup/FreeGroup splitting,
//! and level-by-level survivor counts (the paper's Figure 2.2).
//!
//! ```text
//! cargo run --release --example sdp_walkthrough
//! ```

use sdp::core::sdp::optimize_sdp;
use sdp::core::{Budget, EnumContext};
use sdp::prelude::*;
use sdp::query::hubs;

fn main() {
    let catalog = Catalog::paper();

    // Figure 2.1: nine relations; node 0 star-joins 1..=4, a chain
    // runs 4–5–6, and node 6 star-joins 7 and 8. Hubs: 0 and 6.
    let bindings: Vec<RelId> = {
        let mut ids: Vec<RelId> = catalog.relations().iter().map(|r| r.id).collect();
        ids.truncate(9);
        ids
    };
    let pairs = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (6, 8),
    ];
    let edges: Vec<JoinEdge> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            JoinEdge::new(ColRef::new(a, ColId(i as u16)), ColRef::new(b, ColId(0)))
        })
        .collect();
    let query = Query::new(JoinGraph::new(bindings, edges));

    // --- Hub identification (Figure 2.1) --------------------------------
    let roots = hubs::root_hubs(&query.graph);
    println!("root hubs (degree ≥ 3): {roots:?}  — the paper's relations 1 and 7\n");
    let composite = RelSet::from_indices([0, 1]);
    println!(
        "composite {{0,1}} joins {} external relations → composite hub: {}\n",
        query.graph.degree(composite),
        hubs::is_composite_hub(&query.graph, composite)
    );

    // --- SDP iterations (Figure 2.2) ------------------------------------
    // Run SDP and report, per level, from the run's profile: how many
    // JCRs were enumerated, how many of them were costed (a pruned JCR
    // whose cost floor settled every skyline that judged it never is),
    // and how many survived.
    let model = CostModel::with_defaults(&catalog);
    let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
    let root = optimize_sdp(&mut ctx, SdpConfig::paper()).unwrap();
    println!("level  enumerated  costed  uncosted  pruned  survive");
    for row in ctx.profile() {
        println!(
            "{:>5}  {:>10}  {:>6}  {:>8}  {:>6}  {:>7}",
            row.level,
            row.jcrs_created,
            row.jcrs_created - row.jcrs_uncosted,
            row.jcrs_uncosted,
            row.jcrs_pruned,
            row.jcrs_retained
        );
    }
    println!(
        "\nfinal plan cost {:.0} after costing {} plans ({} JCRs pruned):\n",
        root.cost,
        ctx.stats().plans_costed,
        ctx.stats().jcrs_pruned
    );
    println!("{}", explain(&root));

    // Compare against exhaustive DP on the same query.
    let dp = Optimizer::new(&catalog)
        .optimize(&query, Algorithm::Dp)
        .unwrap();
    println!(
        "exhaustive DP: cost {:.0} with {} plans costed → SDP ratio {:.4}",
        dp.cost,
        dp.stats.plans_costed,
        root.cost / dp.cost
    );
}
