//! Experiments beyond the paper's printed tables, each tied to a
//! claim the paper makes in prose:
//!
//! * `extra-skewed` — "we have experimented with both uniform and
//!   skewed (exponential) distributions": the Star-Chain-15 quality
//!   table on the skewed catalog;
//! * `extra-topologies` — "our results for the other topologies are
//!   similar in flavor": cycle and clique quality tables;
//! * `extra-idp-variants` — IDP1-balanced-bestRow at both block sizes
//!   against SDP, GOO and the randomized II/SA baselines, on one
//!   quality/effort table;
//! * `extra-incumbent-dp` — how much of the paper's DP effort goes to
//!   JCRs and plan pairs that cost more than a complete plan found on
//!   the way: plans costed by the unbounded enumeration against
//!   `Algorithm::Dp`, which drops the JCRs and leaves the plan pairs
//!   uncosted, for the same plan, and against the same levels bounded
//!   at the optimum's cost.

use sdp_catalog::Catalog;
use sdp_core::dp::{optimize_bounded, optimize_complete, optimize_dp};
use sdp_core::{Algorithm, EnumContext, SdpConfig};
use sdp_metrics::{geometric_mean_ratio, QualitySummary};
use sdp_query::{infer_transitive_edges, QueryGenerator, Topology};

use crate::recost::recost;
use crate::runner::{overheads, ExperimentConfig, Runner, Technique};
use crate::tables::{markdown_quality_rows, render_quality_table, QualityRow};

use super::{ExperimentReport, Session};

const SDP: Algorithm = Algorithm::Sdp(SdpConfig {
    partitioning: sdp_core::Partitioning::RootHub,
    skyline: sdp_core::SkylineOption::PairwiseUnion,
});

/// Quality rows on an arbitrary catalog (the session cache only covers
/// the default catalog).
fn quality_rows_on(
    catalog: &Catalog,
    config: ExperimentConfig,
    topology: Topology,
    algorithms: &[Algorithm],
) -> Vec<QualityRow> {
    let runner = Runner::new(catalog, config);
    let reference = runner.run(topology, Algorithm::Dp);
    let dp_ok = !Runner::is_infeasible(&reference);
    algorithms
        .iter()
        .map(|&a| {
            let outcomes = if a == Algorithm::Dp {
                reference.clone()
            } else {
                runner.run(topology, a)
            };
            let is_reference = a == Algorithm::Dp && dp_ok;
            let summary = if Runner::is_infeasible(&outcomes) {
                None
            } else if is_reference {
                Some(QualitySummary::reference(outcomes.len()))
            } else {
                crate::runner::quality_against(&reference, &outcomes)
            };
            QualityRow {
                technique: a.label(),
                summary,
                is_reference,
            }
        })
        .collect()
}

/// `extra-skewed` — Star-Chain-15 on the skewed (exponential) catalog.
pub fn extra_skewed(session: &Session) -> ExperimentReport {
    let catalog = Catalog::paper_skewed();
    let topo = Topology::star_chain(15);
    let algs = [Algorithm::Dp, Algorithm::Idp { k: 7 }, SDP];
    let rows = quality_rows_on(&catalog, session.config, topo, &algs);
    ExperimentReport {
        failure: None,
        id: "extra-skewed",
        title: "Extra — Star-Chain-15 plan quality on skewed (exponential) data".into(),
        text: render_quality_table(
            "Extra: Skewed-data Plan Quality",
            &format!("{} (skewed)", topo.label()),
            &rows,
        ),
        markdown: markdown_quality_rows(&rows),
    }
}

/// `extra-topologies` — cycle and clique graphs ("similar in flavor").
pub fn extra_topologies(session: &Session) -> ExperimentReport {
    let algs = [Algorithm::Dp, Algorithm::Idp { k: 4 }, SDP];
    let mut text = String::new();
    let mut markdown = String::new();
    for topo in [Topology::Cycle(14), Topology::Clique(10)] {
        let rows = quality_rows_on(&session.catalog, session.config, topo, &algs);
        text.push_str(&render_quality_table(
            &format!("Extra ({}): Plan Quality", topo.label()),
            &topo.label(),
            &rows,
        ));
        text.push('\n');
        markdown.push_str(&format!("**{}**\n\n", topo.label()));
        markdown.push_str(&markdown_quality_rows(&rows));
        markdown.push('\n');
    }
    ExperimentReport {
        failure: None,
        id: "extra-topologies",
        title: "Extra — Other Topologies (Cycle, Clique)".into(),
        text,
        markdown,
    }
}

/// `extra-idp-variants` — IDP(7) and IDP(4) vs SDP, GOO and the
/// randomized baselines, quality and effort on Star-Chain-15.
pub fn extra_idp_variants(session: &Session) -> ExperimentReport {
    let topo = Topology::star_chain(15);
    let dp = Technique::Ladder(Algorithm::Dp);
    let techniques: [Technique; 7] = [
        dp,
        Algorithm::Idp { k: 7 }.into(),
        Algorithm::Idp { k: 4 }.into(),
        SDP.into(),
        Technique::Ii,
        Technique::Sa,
        Algorithm::Goo.into(),
    ];
    let runner = Runner::new(&session.catalog, session.config);
    let reference = runner.run(topo, Algorithm::Dp);

    let mut text = String::from("Extra: IDP variants and randomized baselines (Star-Chain-15)\n");
    text.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>14} {:>12}\n",
        "Technique", "rho", "worst", "plans costed", "time (ms)"
    ));
    let mut markdown =
        String::from("| Technique | ρ | W | Plans costed | Time (ms) |\n|---|---|---|---|---|\n");
    for a in techniques {
        let outcomes = if a == dp {
            reference.clone()
        } else {
            runner.run(topo, a)
        };
        let ratios = crate::runner::cost_ratios(&reference, &outcomes);
        let rho = geometric_mean_ratio(&ratios);
        let worst = ratios.iter().copied().fold(1.0f64, f64::max);
        let o = overheads(&outcomes);
        text.push_str(&format!(
            "{:<12} {:>8.3} {:>8.2} {:>14} {:>12.3}\n",
            a.label(),
            rho,
            worst,
            o.plans_costed_sci(),
            o.time_s * 1000.0
        ));
        markdown.push_str(&format!(
            "| {} | {:.3} | {:.2} | {} | {:.3} |\n",
            a.label(),
            rho,
            worst,
            o.plans_costed_sci(),
            o.time_s * 1000.0
        ));
    }
    ExperimentReport {
        failure: None,
        id: "extra-idp-variants",
        title: "Extra — IDP Variants and Randomized Baselines".into(),
        text,
        markdown,
    }
}

/// `extra-robustness` — the title's word, measured: optimize under
/// *sampled* (noisy) statistics, then evaluate the chosen plans under
/// the *true* analytic model. A robust heuristic should lose little
/// quality to statistics noise; a brittle one compounds it.
pub fn extra_robustness(session: &Session) -> ExperimentReport {
    use sdp_core::Optimizer;
    use sdp_engine::{analyze_database, scaled_catalog, Database};

    let analytic = scaled_catalog(12, 2000, 7);
    let db = Database::generate(&analytic, 42);
    let mut sampled = analytic.clone();
    // A deliberately small sample (PostgreSQL's would be ~3000 rows)
    // so the statistics noise is material.
    sampled.replace_stats(analyze_database(&analytic, &db, 150, 99));

    let true_model = sdp_cost::CostModel::with_defaults(&analytic);
    let algs = [Algorithm::Dp, Algorithm::Idp { k: 4 }, SDP, Algorithm::Goo];
    let instances = session.config.instances.min(50) as u64;
    let topo = Topology::star_chain(10);

    // ratios[a][k] = true cost of algorithm a's sampled-stats plan /
    // true cost of the analytic-stats DP optimum, on instance k.
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); algs.len()];
    let generator =
        QueryGenerator::new(&analytic, topo, session.config.seed).with_filter_probability(0.8);
    for k in 0..instances {
        let q = generator.instance(k);
        let mut rewritten = q.clone();
        infer_transitive_edges(&mut rewritten.graph);
        let classes = rewritten.equiv_classes();
        let truth = Optimizer::new(&analytic)
            .optimize(&q, Algorithm::Dp)
            .expect("8-way DP fits")
            .cost;
        for (i, &a) in algs.iter().enumerate() {
            let plan = Optimizer::new(&sampled)
                .optimize(&q, a)
                .expect("sampled-stats optimization fits");
            let true_cost = recost(&plan.root, &true_model, &rewritten.graph, &classes);
            ratios[i].push((true_cost / truth).max(1.0));
        }
    }

    let mut text = String::from(
        "Extra: Robustness to statistics noise (Star-Chain-10 with filters, 150-row ANALYZE sample)\n",
    );
    text.push_str(&format!(
        "{:<10} {:>10} {:>10}\n",
        "Technique", "rho(true)", "worst"
    ));
    let mut markdown = String::from("| Technique | ρ under true model | worst |\n|---|---|---|\n");
    for (i, a) in algs.iter().enumerate() {
        let rho = geometric_mean_ratio(&ratios[i]);
        let worst = ratios[i].iter().copied().fold(1.0f64, f64::max);
        text.push_str(&format!(
            "{:<10} {:>10.3} {:>10.2}\n",
            a.label(),
            rho,
            worst
        ));
        markdown.push_str(&format!("| {} | {:.3} | {:.2} |\n", a.label(), rho, worst));
    }
    text.push_str(
        "\n(Plans are chosen with statistics re-derived from a 150-row sample of the\n\
         materialized data, then costed under the exact analytic model.)\n",
    );
    ExperimentReport {
        failure: None,
        id: "extra-robustness",
        title: "Extra — Robustness to Statistics Noise".into(),
        text,
        markdown,
    }
}

/// `extra-incumbent-dp` — the paper's (unbounded) DP against the
/// incumbent-bounded DP `Algorithm::Dp` runs: plans costed, the
/// incumbent's share of them (GOO's greedy and the completions that
/// tighten it), the same levels bounded at the optimum's cost (the
/// floor any incumbent can reach), the alternatives the bound ruled
/// out before costing them, the first and the last bound against the
/// optimum (geometric means), JCRs kept, and how many plans agree bit
/// for bit (cost and structure) — a plan that does not fails the
/// experiment. Star-Chain-14 runs its ordered variant, so the bound
/// includes a root sort.
pub fn extra_incumbent_dp(session: &Session) -> ExperimentReport {
    let catalog = &session.catalog;
    let model = sdp_cost::CostModel::with_defaults(catalog);
    let mut text = String::from("Extra: Incumbent-bounded DP (plans costed per run)\n");
    text.push_str(&format!(
        "{:<22} {:>10} {:>10} {:>9} {:>10} {:>10} {:>7} {:>15} {:>14} {:>10}\n",
        "Graph",
        "unbounded",
        "bounded",
        "incumbent",
        "at optimum",
        "ruled out",
        "saved",
        "B/opt first→last",
        "JCRs kept",
        "same plan"
    ));
    let mut markdown = String::from(
        "| Graph | DP plans (unbounded) | bounded + incumbent | of which incumbent | bounded at B = optimum | ruled out uncosted | saved | B / optimum, first → last | JCRs kept (unbounded → bounded) | same plan |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut differing = Vec::new();
    for (topology, ordered) in [
        (Topology::Star(12), false),
        (Topology::star_chain(14), true),
        (Topology::Chain(15), false),
        (Topology::Cycle(12), false),
        (Topology::Clique(10), false),
    ] {
        let generator = QueryGenerator::new(catalog, topology, session.config.seed);
        let instances = session.config.instances as u64;
        let (mut unbounded, mut bounded, mut incumbent, mut ruled_out) = (0u64, 0u64, 0u64, 0u64);
        let (mut floor, mut kept_unbounded, mut kept_bounded, mut same) = (0u64, 0u64, 0u64, 0u64);
        let (mut first, mut last) = (Vec::new(), Vec::new());
        for k in 0..instances {
            let mut query = if ordered {
                generator.ordered_instance(k)
            } else {
                generator.instance(k)
            };
            infer_transitive_edges(&mut query.graph);
            let budget = sdp_core::Budget::unlimited();
            let served =
                |plan: &sdp_core::PlanNode| (plan.cost.to_bits(), plan.structural_digest());
            let mut oracle = EnumContext::new(&query, &model, budget);
            let expected = optimize_complete(&mut oracle).expect("unbudgeted DP");
            let mut ctx = EnumContext::new(&query, &model, budget);
            let plan = optimize_dp(&mut ctx).expect("unbudgeted DP");
            let mut at_optimum = EnumContext::new(&query, &model, budget);
            let floor_plan =
                optimize_bounded(&mut at_optimum, expected.cost).expect("unbudgeted DP");
            let bound = ctx.incumbent.expect("DP prices an incumbent");
            unbounded += oracle.plans_costed;
            bounded += ctx.plans_costed;
            incumbent += bound.plans_costed;
            floor += at_optimum.plans_costed;
            ruled_out += ctx.ruled_out;
            kept_unbounded += oracle.memo.len() as u64;
            kept_bounded += ctx.memo.len() as u64;
            first.push(bound.first / expected.cost);
            last.push(bound.last / expected.cost);
            if served(&plan) == served(&expected) && served(&floor_plan) == served(&expected) {
                same += 1;
            } else {
                differing.push(format!("{} instance {k}", topology.label()));
            }
        }
        let n = instances.max(1) as f64;
        let label = format!(
            "{}{}",
            topology.label(),
            if ordered { " (ordered)" } else { "" }
        );
        let saved = 100.0 * (1.0 - bounded as f64 / unbounded.max(1) as f64);
        let per = |x: u64| x as f64 / n;
        let ratios = format!(
            "{:.3} → {:.3}",
            geometric_mean_ratio(&first),
            geometric_mean_ratio(&last)
        );
        text.push_str(&format!(
            "{:<22} {:>10.0} {:>10.0} {:>9.0} {:>10.0} {:>10.0} {:>6.1}% {:>15} {:>6.0} → {:<5.0} {:>6}/{}\n",
            label,
            per(unbounded),
            per(bounded),
            per(incumbent),
            per(floor),
            per(ruled_out),
            saved,
            ratios,
            per(kept_unbounded),
            per(kept_bounded),
            same,
            instances
        ));
        markdown.push_str(&format!(
            "| {label} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {saved:.1} % | {ratios} | {:.0} → {:.0} | {same} / {instances} |\n",
            per(unbounded),
            per(bounded),
            per(incumbent),
            per(floor),
            per(ruled_out),
            per(kept_unbounded),
            per(kept_bounded),
        ));
    }
    let failure = (!differing.is_empty()).then(|| {
        format!(
            "bounded DP served a plan the unbounded enumeration does not: {}",
            differing.join(", ")
        )
    });
    ExperimentReport {
        failure,
        id: "extra-incumbent-dp",
        title: "Extra — Incumbent-bounded DP: plans costed".into(),
        text,
        markdown,
    }
}
