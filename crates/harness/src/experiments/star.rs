//! Pure-star experiments: Tables 3.1, 3.2 and the ordered variants of
//! Table 3.4.

use sdp_core::{Algorithm, SdpConfig};
use sdp_query::Topology;

use crate::tables::{
    markdown_overhead_rows, markdown_quality_rows, render_overhead_table, render_quality_table,
};

use super::star_chain::{overhead_rows, quality_rows};
use super::{ExperimentReport, Session};

const ALGS: [Algorithm; 4] = [
    Algorithm::Dp,
    Algorithm::Idp { k: 7 },
    Algorithm::Idp { k: 4 },
    Algorithm::Sdp(SdpConfig {
        partitioning: sdp_core::Partitioning::RootHub,
        skyline: sdp_core::SkylineOption::PairwiseUnion,
    }),
];

fn star_instances(session: &Session, n: usize) -> usize {
    if n >= 20 {
        session.heavy_instances()
    } else {
        session.config.instances
    }
}

/// Table 3.1 — Star plan quality at 15, 20 and 23 relations.
pub fn table_3_1(session: &Session) -> ExperimentReport {
    let mut text = String::new();
    let mut markdown = String::new();
    for n in [15usize, 20, 23] {
        let topo = Topology::Star(n);
        let rows = quality_rows(session, topo, &ALGS, false, star_instances(session, n));
        text.push_str(&render_quality_table(
            &format!("Table 3.1 ({}): Star Plan Quality", topo.label()),
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
        id: "table-3-1",
        title: "Table 3.1 — Star: Plan Quality".into(),
        text,
        markdown,
    }
}

/// Table 3.2 — Star optimization overheads at 15, 20 and 23
/// relations.
pub fn table_3_2(session: &Session) -> ExperimentReport {
    let mut text = String::new();
    let mut markdown = String::new();
    for n in [15usize, 20, 23] {
        let topo = Topology::Star(n);
        let rows = overhead_rows(session, topo, &ALGS, false, star_instances(session, n));
        text.push_str(&render_overhead_table(
            &format!("Table 3.2 ({}): Star Overheads", topo.label()),
            &topo.label(),
            &rows,
        ));
        text.push('\n');
        markdown.push_str(&format!("**{}**\n\n", topo.label()));
        markdown.push_str(&markdown_overhead_rows(&rows));
        markdown.push('\n');
    }
    ExperimentReport {
        failure: None,
        id: "table-3-2",
        title: "Table 3.2 — Star: Optimization Overheads".into(),
        text,
        markdown,
    }
}

/// Table 3.4 — ordered Star plan quality at 15, 20 and 23 relations.
pub fn table_3_4(session: &Session) -> ExperimentReport {
    let mut text = String::new();
    let mut markdown = String::new();
    for n in [15usize, 20, 23] {
        let topo = Topology::Star(n);
        let rows = quality_rows(session, topo, &ALGS, true, star_instances(session, n));
        text.push_str(&render_quality_table(
            &format!("Table 3.4 ({}): Ordered Star Plan Quality", topo.label()),
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
        id: "table-3-4",
        title: "Table 3.4 — Ordered Star: Plan Quality".into(),
        text,
        markdown,
    }
}
