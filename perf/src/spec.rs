//! The benchmark's contract: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`] written to a file (a test holds the two equal),
//! so the runner, `--selfcheck` and the driver all read one table.

use std::fmt::Write as _;

use crate::workload::Workload;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's identity.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which gate nothing.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a caller of the service sees, per workload. The driver takes
/// each of its ten runs from another seed, so a count's bound has to
/// clear the spread between seeds — other statements, other counts —
/// and is about three times the widest measured on any workload. A
/// timing's has to clear the host as well: quiet, timings spread
/// 1–4 % across seeds, but about once in fifteen minutes this host
/// runs everything 20–30 % slower for a minute or two, and three such
/// runs among ten put the quartile distance at 9 % (README.md,
/// "Measured spread").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.20),
    e2e("latency_p90_us", "us", Lower, 0.20),
    e2e("throughput_rps", "1/s", Higher, 0.20),
    e2e("allocs_per_req", "count", Lower, 0.09),
    e2e("alloc_bytes_per_req", "bytes", Lower, 0.09),
    e2e("peak_heap_mb", "MiB", Lower, 0.05),
    e2e("plans_costed_per_opt", "count", Lower, 0.12),
    e2e("plan_cost_ratio", "ratio", Lower, 0.15),
];

/// Single-layer figures from the traced run. They have no bound.
pub const PER_LAYER: &[Metric] = &[
    layer("sql.tokenize_us", "us", Lower),
    layer("sql.parse_us", "us", Lower),
    layer("sql.bind_us", "us", Lower),
    layer("sql.bytes_per_stmt", "bytes", Lower),
    layer("query.fingerprint_us", "us", Lower),
    layer("cache.get_us", "us", Lower),
    layer("service.get_plan_hit_us", "us", Lower),
    layer("service.glue_hit_us", "us", Lower),
    layer("core.optimize_us", "us", Lower),
    layer("core.pairs_per_req", "count", Lower),
    layer("core.plans_costed_per_req", "count", Lower),
    layer("core.jcrs_created_per_req", "count", Lower),
    layer("core.jcrs_pruned_per_req", "count", Higher),
    layer("core.ns_per_plan_costed", "ns", Lower),
    layer("core.allocs_per_plan_costed", "count", Lower),
    layer("core.alloc_bytes_per_plan_costed", "bytes", Lower),
    layer("core.peak_model_mb", "MiB", Lower),
    layer("core.par2_speedup", "ratio", Higher),
    layer("skyline.partitions_per_req", "count", Lower),
    layer("skyline.survivors_per_req", "count", Lower),
    layer("skyline.pruned_share", "ratio", Higher),
    layer("skyline.order_rescued_per_req", "count", Lower),
    layer("skyline.union_us_n256", "us", Lower),
    layer("governor.degradations_per_req", "count", Lower),
    layer("governor.wasted_plans_share", "ratio", Lower),
    layer("governor.rung_share_sdp", "ratio", Higher),
    layer("governor.rung_share_idp", "ratio", Lower),
    layer("governor.rung_share_goo", "ratio", Lower),
    layer("governor.sort_enforcers_per_req", "count", Lower),
    layer("cache.insert_us", "us", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.evictions_per_req", "count", Lower),
    layer("cache.purged_per_bump", "count", Lower),
    layer("cache.purge_us", "us", Lower),
    layer("service.get_plan_miss_us", "us", Lower),
    layer("service.glue_miss_us", "us", Lower),
    layer("store.encode_us", "us", Lower),
    layer("store.decode_us", "us", Lower),
    layer("store.append_us", "us", Lower),
    layer("store.bytes_per_plan", "bytes", Lower),
    layer("store.disk_bytes_per_payload_byte", "ratio", Lower),
    layer("store.replay_us_per_record", "us", Lower),
    layer("daemon.hop_us", "us", Lower),
    layer("daemon.hop_p90_us", "us", Lower),
    layer("service.latency_p99_us", "us", Lower),
    layer("trace.memsink_us_per_req", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("metrics.report_us", "us", Lower),
    layer("host.offcpu_share", "ratio", Lower),
    layer("host.pass_spread", "ratio", Lower),
];

fn metric_rows(out: &mut String, key: &str, metrics: &[Metric]) {
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.label()
        );
        if let Some(bound) = m.bound {
            let _ = write!(out, ", \"bound\": {bound}");
        }
        out.push('}');
        out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        // Names and reasons are plain text (a test checks), so they
        // need no escaping.
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
            w.name(),
            w.why()
        );
        out.push_str(if i + 1 < Workload::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    metric_rows(&mut out, "end_to_end", END_TO_END);
    out.push_str(",\n");
    metric_rows(&mut out, "per_layer", PER_LAYER);
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in Workload::ALL {
            let plain = |c: char| !c.is_control() && c != '"' && c != '\\';
            assert!(
                w.why().len() <= 200 && w.why().chars().all(plain),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `sdp-perf --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
