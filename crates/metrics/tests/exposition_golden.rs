//! Both wire formats of [`MetricsReport`], byte for byte.
//!
//! `tests/golden/{full,empty}.{prom,json}` were first rendered by the
//! hand-unrolled renderers that preceded the metric table; the table
//! reproduces them exactly, apart from the rows it added since (three
//! at its introduction, with schema 3). Adding a metric is one table
//! row plus one line in each `full`/`empty` golden — the struct
//! literals below stop compiling until the new field has a value.

use std::collections::BTreeSet;
use std::time::Duration;

use sdp_metrics::table::{Kind, MetricDef};
use sdp_metrics::{
    AllocSnapshot, CountersSnapshot, GovernorSnapshot, LatencyHistogram, MetricsReport,
    OverloadSnapshot, QErrorHistogram, StoreSnapshot,
};

/// Every scalar non-zero and distinct, two rungs, one Q-error series.
fn full_report() -> MetricsReport {
    let mut report = MetricsReport {
        counters: CountersSnapshot {
            hits: 101,
            misses: 102,
            coalesced: 103,
            evicted: 104,
            stale_evicted: 105,
            enumerations: 106,
            plans_costed: 107,
        },
        governor: GovernorSnapshot {
            degradations: 201,
            deadline_degradations: 202,
            memory_degradations: 203,
            predicted_descents: 205,
            timeouts: 206,
            leader_retries: 207,
        },
        alloc: AllocSnapshot {
            live: 301,
            peak: 302,
        },
        store: StoreSnapshot {
            writes: 401,
            write_errors: 402,
            warm_fills: 403,
            warm_hits: 404,
            stale_dropped: 405,
            epoch_adoptions: 406,
            stale_rejected: 407,
            torn_truncations: 408,
            compactions: 409,
            dlq_enqueued: 410,
            dlq_depth: 412,
        },
        overload: OverloadSnapshot {
            shed_queue_full: 501,
            shed_deadline: 502,
            served_stale: 503,
            breaker_trips: 504,
            breaker_rejections: 505,
            breaker_probes: 506,
            breaker_recoveries: 507,
            queue_depth: 508,
            queue_depth_hwm: 509,
            inflight: 510,
            inflight_hwm: 511,
        },
        cached_plans: 601,
        ..MetricsReport::default()
    };
    for (label, samples) in [("GOO", [80u64, 90, 700]), ("SDP", [700, 800, 5000])] {
        let mut h = LatencyHistogram::default();
        for micros in samples {
            h.record(Duration::from_micros(micros));
        }
        report.rungs.insert(label.to_string(), h);
    }
    let mut q = QErrorHistogram::default();
    for ratio in [1.0, 1.5, 12.0] {
        q.record(ratio);
    }
    report.qerror.insert("node:Join(Hash)".to_string(), q);
    report
}

/// Compare line by line, so a failure names the first line that moved
/// instead of dumping two whole documents.
fn assert_matches(actual: &str, golden: &str, what: &str) {
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{what}: line {} differs from the golden", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{what}: line count differs from the golden"
    );
    assert_eq!(actual, golden, "{what}: trailing bytes differ");
}

#[test]
fn full_report_matches_both_goldens() {
    let report = full_report();
    assert_matches(
        &report.prometheus_text(),
        include_str!("golden/full.prom"),
        "full.prom",
    );
    assert_matches(
        &report.to_json(),
        include_str!("golden/full.json"),
        "full.json",
    );
}

#[test]
fn empty_report_matches_both_goldens() {
    let report = MetricsReport::default();
    assert_matches(
        &report.prometheus_text(),
        include_str!("golden/empty.prom"),
        "empty.prom",
    );
    assert_matches(
        &report.to_json(),
        include_str!("golden/empty.json"),
        "empty.json",
    );
}

/// One pass over every family's `DEFS`: the naming rules the
/// expositions rely on, and every row present exactly once in each
/// format.
#[test]
fn table_rows_are_well_formed_and_rendered_exactly_once() {
    let families: [(&str, &[MetricDef]); 4] = [
        ("counters", CountersSnapshot::DEFS),
        ("governor", GovernorSnapshot::DEFS),
        ("store", StoreSnapshot::DEFS),
        ("overload", OverloadSnapshot::DEFS),
    ];
    let report = full_report();
    let (text, json) = (report.prometheus_text(), report.to_json());
    let mut names = BTreeSet::new();
    for (family, defs) in families {
        assert!(!defs.is_empty(), "{family}: empty family");
        let mut keys = BTreeSet::new();
        for def in defs {
            let name = def.name;
            assert!(names.insert(name), "{name}: Prometheus name used twice");
            assert!(
                name.starts_with("sdp_")
                    && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "{name}: must match ^sdp_[a-z_]+$"
            );
            assert_eq!(
                name.ends_with("_total"),
                def.kind == Kind::Counter,
                "{name}: counters end in _total, gauges do not"
            );
            assert!(!def.help.is_empty(), "{name}: empty help");
            assert!(
                keys.insert(def.field),
                "{family}.{}: JSON key used twice",
                def.field
            );

            for line in [
                format!("# HELP {name} {}\n", def.help),
                format!("# TYPE {name} {}\n", def.kind.label()),
            ] {
                assert_eq!(
                    text.matches(&line).count(),
                    1,
                    "{line:?} in the text format"
                );
            }
            let sample = format!("\n{name} ");
            assert_eq!(text.matches(&sample).count(), 1, "{name}: one sample line");
        }
        // The family's JSON object holds exactly its rows (plus the
        // derived `requests` total of the request counters).
        let open = format!("  \"{family}\": {{\n");
        let body = json.split(&open).nth(1).expect("family object present");
        let body = body.split("  }").next().expect("family object closes");
        let rendered: Vec<&str> = body
            .lines()
            .map(|l| l.trim().split('"').nth(1).expect("a quoted key"))
            .filter(|k| *k != "requests")
            .collect();
        let declared: Vec<&str> = defs.iter().map(|d| d.field).collect();
        assert_eq!(rendered, declared, "{family}: JSON keys in table order");
    }
}
