//! Calibration experiments: Table 2.1 (DP overheads on chains versus
//! stars — the observation motivating localized pruning) and
//! Table 3.3 (maximum star scale-up before memory exhaustion).

use sdp_catalog::Catalog;
use sdp_core::{Algorithm, SdpConfig};
use sdp_metrics::overhead::sci;
use sdp_query::Topology;

use crate::runner::{overheads, ExperimentConfig, Runner};

use super::{ExperimentReport, Session};

/// Table 2.1 — DP optimization overheads for chain and star queries
/// of increasing size. Chains stay trivial through 28 relations;
/// stars explode and run out of memory before 20 — "it is the
/// presence of hub relations that are primarily responsible for the
/// high overheads of DP".
pub fn table_2_1(session: &Session) -> ExperimentReport {
    // A few instances per size for stable means; the numbers are
    // per-query averages like the paper's. The 28-relation chains
    // exceed the 25-relation base schema, so the sweep runs on a
    // 32-relation extension of it.
    let catalog = Catalog::extended(32);
    let cfg = ExperimentConfig {
        instances: 3,
        ..session.config
    };
    let runner = Runner::new(&catalog, cfg);

    let mut text = String::from("Table 2.1: DP Overheads (Chain and Star)\n");
    text.push_str(&format!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}\n",
        "N", "Chain time(s)", "Chain mem(MB)", "Star time(s)", "Star mem(MB)"
    ));
    let mut markdown = String::from(
        "| N | Chain time (s) | Chain mem (MB) | Star time (s) | Star mem (MB) |\n|---|---|---|---|---|\n",
    );

    for n in (4..=28).step_by(4) {
        let chain = runner.run(Topology::Chain(n), Algorithm::Dp);
        let chain_cell = if Runner::is_infeasible(&chain) {
            ("–".to_string(), "–".to_string())
        } else {
            let o = overheads(&chain);
            (format!("{:.4}", o.time_s), format!("{:.2}", o.memory_mb))
        };
        let star_cell = if n <= 16 {
            let star = runner.run(Topology::Star(n), Algorithm::Dp);
            if Runner::is_infeasible(&star) {
                ("–".to_string(), "–".to_string())
            } else {
                let o = overheads(&star);
                (format!("{:.4}", o.time_s), format!("{:.2}", o.memory_mb))
            }
        } else {
            // The paper stops reporting stars beyond 16 (dashes):
            // DP is out of memory there, as Table 3.2 confirms.
            ("–".to_string(), "–".to_string())
        };
        text.push_str(&format!(
            "{:>6} {:>14} {:>14} {:>14} {:>14}\n",
            n, chain_cell.0, chain_cell.1, star_cell.0, star_cell.1
        ));
        markdown.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            n, chain_cell.0, chain_cell.1, star_cell.0, star_cell.1
        ));
    }

    ExperimentReport {
        failure: None,
        id: "table-2-1",
        title: "Table 2.1 — DP Overheads (Chain and Star)".into(),
        text,
        markdown,
    }
}

/// Table 3.3 — maximum star join size each algorithm can optimize
/// within the memory budget, and the time taken at that maximum.
/// Uses the extended schema (the paper: "with an extended database
/// schema").
pub fn table_3_3(session: &Session) -> ExperimentReport {
    let extended = Catalog::extended(64);
    let cfg = ExperimentConfig {
        instances: 1,
        ..session.config
    };
    let runner = Runner::new(&extended, cfg);
    let algorithms = [
        Algorithm::Dp,
        Algorithm::Idp { k: 7 },
        Algorithm::Idp { k: 4 },
        Algorithm::Sdp(SdpConfig::paper()),
    ];

    let mut text = String::from("Table 3.3: Maximum Star Scaleup (memory budget 1 GB)\n");
    text.push_str(&format!(
        "{:<10} {:>14} {:>12} {:>14}\n",
        "Technique", "Max relations", "Time (s)", "Costing"
    ));
    let mut markdown = String::from(
        "| Technique | Max relations | Time (s) | Plans costed |\n|---|---|---|---|\n",
    );

    for alg in algorithms {
        // Probe star sizes upward in steps of 5, then refine by 1.
        let mut max_ok: Option<(usize, f64, f64)> = None;
        let mut n = 10;
        let mut step = 5;
        let cap = 60;
        loop {
            let out = runner.run(Topology::Star(n), alg);
            let feasible = !Runner::is_infeasible(&out);
            if feasible {
                let o = overheads(&out);
                max_ok = Some((n, o.time_s, o.plans_costed));
                if n >= cap {
                    break;
                }
                n = (n + step).min(cap);
            } else if step > 1 {
                // Back up and refine.
                n = max_ok.map(|(m, _, _)| m + 1).unwrap_or(4);
                step = 1;
            } else {
                break;
            }
        }
        match max_ok {
            Some((m, t, p)) => {
                let capped = if m >= cap { "+" } else { "" };
                text.push_str(&format!(
                    "{:<10} {:>13}{capped} {:>12.3} {:>14}\n",
                    alg.label(),
                    m,
                    t,
                    sci(p)
                ));
                markdown.push_str(&format!(
                    "| {} | {}{capped} | {:.3} | {} |\n",
                    alg.label(),
                    m,
                    t,
                    sci(p)
                ));
            }
            None => {
                text.push_str(&format!(
                    "{:<10} {:>14} {:>12} {:>14}\n",
                    alg.label(),
                    "*",
                    "*",
                    "*"
                ));
                markdown.push_str(&format!("| {} | * | * | * |\n", alg.label()));
            }
        }
    }

    ExperimentReport {
        failure: None,
        id: "table-3-3",
        title: "Table 3.3 — Maximum Star Scale-up".into(),
        text,
        markdown,
    }
}
