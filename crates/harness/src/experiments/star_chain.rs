//! Star-Chain experiments: Tables 1.1–1.4, Figure 1.2, Table 3.5
//! (ordered variants) and Table 3.6 (local vs global pruning).

use sdp_core::{Algorithm, Partitioning, SdpConfig};
use sdp_query::Topology;

use crate::runner::{overheads, quality_against, RunOutcome, Runner, Technique};
use crate::tables::{
    markdown_overhead_rows, markdown_quality_rows, render_overhead_table, render_quality_table,
    OverheadRow, QualityRow,
};

use super::{ExperimentReport, Session};

const SDP: Algorithm = Algorithm::Sdp(SdpConfig {
    partitioning: Partitioning::RootHub,
    skyline: sdp_core::SkylineOption::PairwiseUnion,
});

/// Build quality rows for a topology: DP as reference when feasible,
/// otherwise SDP (the paper's convention for scaled graphs).
pub(super) fn quality_rows(
    session: &Session,
    topology: Topology,
    techniques: &[impl Into<Technique> + Copy],
    ordered: bool,
    instances: usize,
) -> Vec<QualityRow> {
    let (dp, sdp) = (Technique::Ladder(Algorithm::Dp), Technique::Ladder(SDP));
    let runs: Vec<(Technique, std::rc::Rc<Vec<RunOutcome>>)> = techniques
        .iter()
        .map(|&t| {
            let t = t.into();
            (t, session.outcomes(topology, t, ordered, instances))
        })
        .collect();

    let dp_feasible = runs
        .iter()
        .find(|(t, _)| *t == dp)
        .map(|(_, o)| !Runner::is_infeasible(o))
        .unwrap_or(false);
    let reference: std::rc::Rc<Vec<RunOutcome>> = if dp_feasible {
        runs.iter()
            .find(|(t, _)| *t == dp)
            .map(|(_, o)| o.clone())
            .expect("DP present")
    } else {
        runs.iter()
            .find(|(t, _)| *t == sdp)
            .map(|(_, o)| o.clone())
            .expect("SDP always present")
    };

    runs.iter()
        .map(|(a, outcomes)| {
            let is_reference = (dp_feasible && *a == dp) || (!dp_feasible && *a == sdp);
            let summary = if Runner::is_infeasible(outcomes) {
                None
            } else if is_reference {
                Some(sdp_metrics::QualitySummary::reference(outcomes.len()))
            } else {
                quality_against(&reference, outcomes)
            };
            QualityRow {
                technique: a.label(),
                summary,
                is_reference,
            }
        })
        .collect()
}

pub(super) fn overhead_rows(
    session: &Session,
    topology: Topology,
    techniques: &[impl Into<Technique> + Copy],
    ordered: bool,
    instances: usize,
) -> Vec<OverheadRow> {
    techniques
        .iter()
        .map(|&t| {
            let t = t.into();
            let outcomes = session.outcomes(topology, t, ordered, instances);
            let summary = if Runner::is_infeasible(&outcomes) {
                None
            } else {
                Some(overheads(&outcomes))
            };
            OverheadRow {
                technique: t.label(),
                summary,
            }
        })
        .collect()
}

/// Table 1.1 — Star-Chain-15 plan quality (DP, IDP(7), SDP).
pub fn table_1_1(session: &Session) -> ExperimentReport {
    let topo = Topology::star_chain(15);
    let algs = [Algorithm::Dp, Algorithm::Idp { k: 7 }, SDP];
    let rows = quality_rows(session, topo, &algs, false, session.config.instances);
    ExperimentReport {
        failure: None,
        id: "table-1-1",
        title: "Table 1.1 — Plan Quality (DP, IDP, SDP) on Star-Chain-15".into(),
        text: render_quality_table("Table 1.1: Plan Quality", &topo.label(), &rows),
        markdown: markdown_quality_rows(&rows),
    }
}

/// Table 1.2 — Star-Chain-15 optimization overheads.
pub fn table_1_2(session: &Session) -> ExperimentReport {
    let topo = Topology::star_chain(15);
    let algs = [Algorithm::Dp, Algorithm::Idp { k: 7 }, SDP];
    let rows = overhead_rows(session, topo, &algs, false, session.config.instances);
    ExperimentReport {
        failure: None,
        id: "table-1-2",
        title: "Table 1.2 — Optimization Overheads on Star-Chain-15".into(),
        text: render_overhead_table("Table 1.2: Optimization Overheads", &topo.label(), &rows),
        markdown: markdown_overhead_rows(&rows),
    }
}

/// Figure 1.2 — plan quality ρ versus optimization effort.
pub fn figure_1_2(session: &Session) -> ExperimentReport {
    let topo = Topology::star_chain(15);
    let algs: [Technique; 7] = [
        Algorithm::Dp.into(),
        Algorithm::Idp { k: 4 }.into(),
        Algorithm::Idp { k: 7 }.into(),
        SDP.into(),
        Algorithm::Goo.into(),
        Technique::Ii,
        Technique::Sa,
    ];
    let n = session.config.instances;
    let quality = quality_rows(session, topo, &algs, false, n);
    let cost = overhead_rows(session, topo, &algs, false, n);

    let mut text =
        String::from("Figure 1.2: Plan Quality (rho) vs. Effort Tradeoff (Star-Chain-15)\n");
    let mut markdown =
        String::from("| Technique | Time (s) | Plans costed | ρ |\n|---|---|---|---|\n");
    text.push_str(&format!(
        "{:<10} {:>12} {:>14} {:>8}\n",
        "Technique", "Time (s)", "Costing", "rho"
    ));
    for (q, o) in quality.iter().zip(&cost) {
        match (&q.summary, &o.summary) {
            (Some(qs), Some(os)) => {
                text.push_str(&format!(
                    "{:<10} {:>12.4} {:>14} {:>8.3}\n",
                    q.technique,
                    os.time_s,
                    os.plans_costed_sci(),
                    qs.rho
                ));
                markdown.push_str(&format!(
                    "| {} | {:.4} | {} | {:.3} |\n",
                    q.technique,
                    os.time_s,
                    os.plans_costed_sci(),
                    qs.rho
                ));
            }
            _ => {
                text.push_str(&format!(
                    "{:<10} {:>12} {:>14} {:>8}\n",
                    q.technique, "*", "*", "*"
                ));
                markdown.push_str(&format!("| {} | * | * | * |\n", q.technique));
            }
        }
    }
    // Also render the actual figure as SVG, like the paper's plot:
    // x = plans costed (log), y = ρ.
    let points: Vec<crate::svg::ScatterPoint> = quality
        .iter()
        .zip(&cost)
        .filter_map(|(q, o)| match (&q.summary, &o.summary) {
            (Some(qs), Some(os)) if os.plans_costed > 0.0 => Some(crate::svg::ScatterPoint {
                label: q.technique.clone(),
                x: os.plans_costed,
                y: qs.rho,
            }),
            _ => None,
        })
        .collect();
    if !points.is_empty() {
        let svg = crate::svg::scatter_svg(
            "Plan Quality vs. Effort Tradeoff (Star-Chain-15)",
            "plans costed (log scale)",
            "plan quality rho",
            &points,
        );
        if let Err(e) = std::fs::write("figure_1_2.svg", &svg) {
            text.push_str(&format!("(could not write figure_1_2.svg: {e})\n"));
        } else {
            text.push_str("(figure written to figure_1_2.svg)\n");
        }
    }
    ExperimentReport {
        failure: None,
        id: "figure-1-2",
        title: "Figure 1.2 — Plan Quality (ρ) vs. Effort Tradeoff".into(),
        text,
        markdown,
    }
}

/// Table 1.3 — scaled Star-Chain-23 plan quality (SDP as ideal).
pub fn table_1_3(session: &Session) -> ExperimentReport {
    let topo = Topology::star_chain(23);
    let algs = [Algorithm::Dp, Algorithm::Idp { k: 7 }, SDP];
    let rows = quality_rows(session, topo, &algs, false, session.heavy_instances());
    ExperimentReport {
        failure: None,
        id: "table-1-3",
        title: "Table 1.3 — Scaled Join Graph (Star-Chain-23): Plan Quality".into(),
        text: render_quality_table(
            "Table 1.3: Scaled Join Graph Plan Quality",
            &topo.label(),
            &rows,
        ),
        markdown: markdown_quality_rows(&rows),
    }
}

/// Table 1.4 — scaled Star-Chain-23 overheads.
pub fn table_1_4(session: &Session) -> ExperimentReport {
    let topo = Topology::star_chain(23);
    let algs = [Algorithm::Dp, Algorithm::Idp { k: 7 }, SDP];
    let rows = overhead_rows(session, topo, &algs, false, session.heavy_instances());
    ExperimentReport {
        failure: None,
        id: "table-1-4",
        title: "Table 1.4 — Scaled Join Graph (Star-Chain-23): Overheads".into(),
        text: render_overhead_table(
            "Table 1.4: Scaled Join Graph Overheads",
            &topo.label(),
            &rows,
        ),
        markdown: markdown_overhead_rows(&rows),
    }
}

/// Table 3.5 — ordered Star-Chain plan quality (15, 20, 23).
pub fn table_3_5(session: &Session) -> ExperimentReport {
    let algs = [
        Algorithm::Dp,
        Algorithm::Idp { k: 7 },
        Algorithm::Idp { k: 4 },
        SDP,
    ];
    let mut text = String::new();
    let mut markdown = String::new();
    for n in [15usize, 20, 23] {
        let topo = Topology::star_chain(n);
        let instances = if n >= 20 {
            session.heavy_instances()
        } else {
            session.config.instances
        };
        let rows = quality_rows(session, topo, &algs, true, instances);
        text.push_str(&render_quality_table(
            &format!(
                "Table 3.5 ({}): Ordered Star-Chain Plan Quality",
                topo.label()
            ),
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
        id: "table-3-5",
        title: "Table 3.5 — Ordered Star-Chain: Plan Quality".into(),
        text,
        markdown,
    }
}

/// Table 3.6 — local (hub-partitioned) vs global skyline pruning on
/// Star-Chain-20.
pub fn table_3_6(session: &Session) -> ExperimentReport {
    let topo = Topology::star_chain(20);
    let global = Algorithm::Sdp(SdpConfig {
        partitioning: Partitioning::Global,
        skyline: sdp_core::SkylineOption::PairwiseUnion,
    });
    let algs = [Algorithm::Dp, global, SDP];
    let instances = session.heavy_instances();
    let rows = quality_rows(session, topo, &algs, false, instances);
    // Relabel to the paper's names.
    let rows: Vec<QualityRow> = rows
        .into_iter()
        .map(|mut r| {
            if r.technique.contains("Global") {
                r.technique = "SDP/Global".into();
            } else if r.technique == "SDP" {
                r.technique = "SDP/Local".into();
            }
            r
        })
        .collect();
    ExperimentReport {
        failure: None,
        id: "table-3-6",
        title: "Table 3.6 — Local vs Global Pruning (Star-Chain-20)".into(),
        text: render_quality_table("Table 3.6: Local vs Global Pruning", &topo.label(), &rows),
        markdown: markdown_quality_rows(&rows),
    }
}
