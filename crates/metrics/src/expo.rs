//! Metrics exposition: one snapshot struct, two wire formats.
//!
//! [`MetricsReport`] bundles every observability surface the daemon
//! owns — request counters, governor ladder counters, per-rung
//! latency histograms, allocator watermarks, cache occupancy — into a
//! plain value that renders as either Prometheus text exposition
//! format ([`MetricsReport::prometheus_text`]) or a single JSON document
//! ([`MetricsReport::to_json`], what `sdp-service replay
//! --metrics-json` writes). Both renderers are hand-rolled: the
//! formats are trivial and the workspace takes no serialization
//! dependency for them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::alloc::AllocSnapshot;
use crate::histogram::QErrorHistogram;
use crate::service::{CountersSnapshot, GovernorSnapshot, LatencyHistogram, OverloadSnapshot};
use crate::store::StoreSnapshot;
use crate::table::{Kind, MetricDef};

/// Version stamped into [`MetricsReport::to_json`] as the leading
/// `"schema"` field. Bumped whenever the document shape changes so
/// inspect tooling and replay smoke scripts can reject incompatible
/// documents instead of mis-parsing them. Version 1 was the implicit,
/// unstamped PR 5 shape; version 2 added the stamp itself and the
/// `qerror` family; version 3 is rendered from the metric table
/// ([`crate::table`]) and gained `governor.predicted_descents`,
/// `store.epoch_adoptions` and `store.stale_rejected`; version 4
/// dropped the `strategies` object, whose samples the `rungs`
/// histograms already file; version 5 dropped the governor's
/// caller-cancellation counter and the store's drained-dead-letter
/// counter, which no production path moved.
pub const METRICS_SCHEMA_VERSION: u32 = 5;

/// Point-in-time bundle of every metric family the service exposes.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Request/cache counters.
    pub counters: CountersSnapshot,
    /// Governor degradation-ladder counters.
    pub governor: GovernorSnapshot,
    /// Per-rung latency histograms, keyed by the label of the
    /// configuration that produced the plan (`"SDP"`, a pinned
    /// `"IDP(7)"`, …).
    pub rungs: BTreeMap<String, LatencyHistogram>,
    /// Process allocator watermarks (zeros when the counting allocator
    /// is not installed).
    pub alloc: AllocSnapshot,
    /// Durable plan-store counters (zeros when no store is attached).
    pub store: StoreSnapshot,
    /// Overload-control counters and occupancy gauges (sheds, stale
    /// serves, circuit breaker, queue depth, in-flight).
    pub overload: OverloadSnapshot,
    /// Cardinality-accuracy (Q-error) histograms keyed by series label
    /// (`node:<kind>` for per-node-kind aggregates, `pred:<display>`
    /// for per-predicate aggregates). Empty unless an instrumented
    /// execution pass ran.
    pub qerror: BTreeMap<String, QErrorHistogram>,
    /// Plans currently resident in the cache.
    pub cached_plans: u64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The scalar gauges that belong to no counter family: one owned by
/// the cache, two by the allocator.
const CACHED_PLANS: MetricDef = MetricDef {
    field: "cached_plans",
    kind: Kind::Gauge,
    name: "sdp_cached_plans",
    help: "Plans currently resident in the cache.",
};
const ALLOC_LIVE: MetricDef = MetricDef {
    field: "live_bytes",
    kind: Kind::Gauge,
    name: "sdp_alloc_live_bytes",
    help: "Bytes currently allocated by the process.",
};
const ALLOC_PEAK: MetricDef = MetricDef {
    field: "peak_bytes",
    kind: Kind::Gauge,
    name: "sdp_alloc_peak_bytes",
    help: "Peak allocated bytes since the last reset.",
};

/// One scalar in the text format: `# HELP`, `# TYPE`, sample. The
/// static parts are pushed, not formatted — only the value goes
/// through `fmt`.
fn prom_row(out: &mut String, def: &MetricDef, value: u64) {
    out.extend(["# HELP ", def.name, " ", def.help, "\n"]);
    out.extend(["# TYPE ", def.name, " ", def.kind.label(), "\n"]);
    out.extend([def.name, " "]);
    let _ = writeln!(out, "{value}");
}

/// The rows of one family that are of `kind`, in table order.
fn prom_rows<'a>(out: &mut String, rows: impl Iterator<Item = (&'a MetricDef, u64)>, kind: Kind) {
    for (def, value) in rows.filter(|(def, _)| def.kind == kind) {
        prom_row(out, def, value);
    }
}

/// One JSON object of scalars, `"key": value` per row in table order,
/// followed by a comma (every family is followed by another member).
fn json_family<'a>(
    out: &mut String,
    key: &str,
    rows: impl Iterator<Item = (&'a MetricDef, u64)>,
    derived: &[(&str, u64)],
) {
    out.extend(["  \"", key, "\": {"]);
    let fields = rows.map(|(def, value)| (def.field, value));
    for (i, (field, value)) in fields.chain(derived.iter().copied()).enumerate() {
        out.extend([if i == 0 { "\n" } else { ",\n" }, "    \"", field, "\": "]);
        let _ = write!(out, "{value}");
    }
    out.push_str("\n  },\n");
}

impl MetricsReport {
    /// Render as Prometheus text exposition format (version 0.0.4):
    /// `# HELP`/`# TYPE` headers, counters suffixed `_total`,
    /// histograms as cumulative `_bucket{le=...}` series ending in
    /// `+Inf`, durations in seconds. Every family's counters come
    /// first, then the gauges, then the three labelled families.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for kind in [Kind::Counter, Kind::Gauge] {
            if kind == Kind::Gauge {
                prom_row(&mut out, &CACHED_PLANS, self.cached_plans);
                prom_row(&mut out, &ALLOC_LIVE, self.alloc.live);
                prom_row(&mut out, &ALLOC_PEAK, self.alloc.peak);
            }
            prom_rows(&mut out, self.counters.rows(), kind);
            prom_rows(&mut out, self.governor.rows(), kind);
            prom_rows(&mut out, self.store.rows(), kind);
            prom_rows(&mut out, self.overload.rows(), kind);
        }

        if !self.rungs.is_empty() {
            let _ = writeln!(
                out,
                "# HELP sdp_rung_latency_seconds Governed latency by producing rung."
            );
            let _ = writeln!(out, "# TYPE sdp_rung_latency_seconds histogram");
            for (label, h) in &self.rungs {
                let mut cumulative = 0u64;
                for (upper, n) in h.nonzero_buckets() {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "sdp_rung_latency_seconds_bucket{{rung=\"{label}\",le=\"{}\"}} {cumulative}",
                        secs(upper)
                    );
                }
                let _ = writeln!(
                    out,
                    "sdp_rung_latency_seconds_bucket{{rung=\"{label}\",le=\"+Inf\"}} {}",
                    h.count
                );
                let _ = writeln!(
                    out,
                    "sdp_rung_latency_seconds_sum{{rung=\"{label}\"}} {}",
                    secs(h.total)
                );
                let _ = writeln!(
                    out,
                    "sdp_rung_latency_seconds_count{{rung=\"{label}\"}} {}",
                    h.count
                );
            }
        }

        if !self.qerror.is_empty() {
            let _ = writeln!(
                out,
                "# HELP sdp_qerror Cardinality Q-error by plan-node series."
            );
            let _ = writeln!(out, "# TYPE sdp_qerror histogram");
            for (label, h) in &self.qerror {
                let mut cumulative = 0u64;
                for (upper, n) in h.nonzero_buckets() {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "sdp_qerror_bucket{{series=\"{label}\",le=\"{upper:.6}\"}} {cumulative}"
                    );
                }
                let _ = writeln!(
                    out,
                    "sdp_qerror_bucket{{series=\"{label}\",le=\"+Inf\"}} {}",
                    h.count
                );
                let _ = writeln!(out, "sdp_qerror_sum{{series=\"{label}\"}} {:.6}", h.total);
                let _ = writeln!(out, "sdp_qerror_count{{series=\"{label}\"}} {}", h.count);
            }
        }
        out
    }

    /// Render as one pretty-printed JSON document: the scalar families
    /// as objects keyed by field name, rung histograms (with
    /// p50/p95/p99 extracted) keyed by label,
    /// durations in microseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {METRICS_SCHEMA_VERSION},");
        let requests = [("requests", self.counters.requests())];
        json_family(&mut out, "counters", self.counters.rows(), &requests);
        json_family(&mut out, "governor", self.governor.rows(), &[]);
        let _ = writeln!(out, "  \"rungs\": {{");
        let n = self.rungs.len();
        for (i, (label, h)) in self.rungs.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(out, "    \"{label}\": {{");
            let _ = writeln!(out, "      \"count\": {},", h.count);
            let _ = writeln!(out, "      \"mean_micros\": {},", h.mean().as_micros());
            let _ = writeln!(out, "      \"p50_micros\": {},", h.p50().as_micros());
            let _ = writeln!(out, "      \"p95_micros\": {},", h.p95().as_micros());
            let _ = writeln!(out, "      \"p99_micros\": {},", h.p99().as_micros());
            let _ = writeln!(out, "      \"max_micros\": {},", h.max.as_micros());
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(upper, count)| format!("[{}, {count}]", upper.as_micros()))
                .collect();
            let _ = writeln!(out, "      \"buckets\": [{}]", buckets.join(", "));
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"qerror\": {{");
        let n = self.qerror.len();
        for (i, (label, h)) in self.qerror.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(out, "    \"{label}\": {{");
            let _ = writeln!(out, "      \"count\": {},", h.count);
            let _ = writeln!(out, "      \"mean\": {:.4},", h.mean());
            let _ = writeln!(out, "      \"p50\": {:.4},", h.p50());
            let _ = writeln!(out, "      \"p95\": {:.4},", h.p95());
            let _ = writeln!(out, "      \"p99\": {:.4},", h.p99());
            let _ = writeln!(out, "      \"max\": {:.4},", h.max);
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(upper, count)| format!("[{upper:.4}, {count}]"))
                .collect();
            let _ = writeln!(out, "      \"buckets\": [{}]", buckets.join(", "));
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  }},");
        let alloc = [
            (&ALLOC_LIVE, self.alloc.live),
            (&ALLOC_PEAK, self.alloc.peak),
        ];
        json_family(&mut out, "alloc", alloc.into_iter(), &[]);
        json_family(&mut out, "store", self.store.rows(), &[]);
        json_family(&mut out, "overload", self.overload.rows(), &[]);
        let _ = writeln!(out, "  \"cached_plans\": {}", self.cached_plans);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MetricsReport {
        let mut report = MetricsReport {
            counters: CountersSnapshot {
                hits: 5,
                misses: 2,
                coalesced: 1,
                evicted: 0,
                stale_evicted: 0,
                enumerations: 2,
                plans_costed: 1234,
            },
            governor: GovernorSnapshot {
                degradations: 1,
                memory_degradations: 1,
                ..Default::default()
            },
            alloc: AllocSnapshot {
                live: 1 << 20,
                peak: 1 << 21,
            },
            store: StoreSnapshot {
                writes: 4,
                warm_fills: 3,
                warm_hits: 2,
                dlq_enqueued: 1,
                dlq_depth: 1,
                ..Default::default()
            },
            overload: OverloadSnapshot {
                shed_queue_full: 7,
                shed_deadline: 2,
                served_stale: 3,
                breaker_trips: 1,
                breaker_rejections: 4,
                breaker_probes: 2,
                breaker_recoveries: 1,
                queue_depth: 0,
                queue_depth_hwm: 9,
                inflight: 1,
                inflight_hwm: 4,
            },
            cached_plans: 2,
            ..Default::default()
        };
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(700));
        h.record(Duration::from_micros(800));
        h.record(Duration::from_millis(5));
        report.rungs.insert("SDP".to_string(), h);
        let mut q = QErrorHistogram::default();
        q.record(1.0);
        q.record(1.5);
        q.record(12.0);
        report.qerror.insert("node:Join(Hash)".to_string(), q);
        report
    }

    // Every scalar line of both formats is pinned byte for byte by
    // tests/exposition_golden.rs; what stays here is the shape of the
    // documents.

    #[test]
    fn prometheus_text_has_headers_and_series() {
        let text = sample_report().prometheus_text();
        assert!(text.contains("sdp_rung_latency_seconds_bucket{rung=\"SDP\",le=\"+Inf\"} 3"));
        assert!(text.contains("# TYPE sdp_qerror histogram"));
        assert!(text.contains("sdp_qerror_bucket{series=\"node:Join(Hash)\",le=\"+Inf\"} 3"));
        assert!(text.contains("sdp_qerror_count{series=\"node:Join(Hash)\"} 3"));
        // Cumulative buckets: the 2 sub-millisecond samples precede
        // the 5 ms one.
        assert!(text.contains("le=\"0.001023\"} 2"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed line: {line}");
        }
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let json = sample_report().to_json();
        assert!(json.starts_with("{\n  \"schema\": 5,\n"));
        assert!(json.contains("\"node:Join(Hash)\""));
        assert!(json.contains("\"requests\": 8"));
        assert!(json.contains("\"p95_micros\""));
        // Structural sanity without a JSON parser: balanced braces and
        // brackets, no trailing comma before a closer.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n}"));
        assert!(!json.contains(",\n  }"));
        assert!(!json.contains(", }"));
        assert!(!json.contains(",]"));
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let report = MetricsReport::default();
        let text = report.prometheus_text();
        assert!(!text.contains("sdp_rung_latency_seconds"));
        let json = report.to_json();
        assert!(json.contains("\"rungs\": {"));
        assert!(json.contains("\"qerror\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
