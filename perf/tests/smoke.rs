//! The command line end to end, at 1 % of the requests.

use std::collections::BTreeMap;
use std::process::Command;

use sdp_perf::spec::{Metric, END_TO_END, PER_LAYER};
use sdp_perf::workload::Workload;

fn sdp_perf(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_sdp-perf"))
        .args(args)
        .env("SDP_THREADS", "4") // must be ignored
        .output()
        .expect("running sdp-perf");
    assert!(
        output.status.success(),
        "sdp-perf {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// `workload/name value unit` lines, grouped by workload; anything else
/// must be a `#` note.
fn metric_lines(stdout: &str) -> BTreeMap<String, Vec<(String, f64, String)>> {
    let mut by_workload: BTreeMap<String, Vec<_>> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 3, "unexpected line {line:?}");
        let (workload, name) = fields[0].split_once('/').expect("workload/name");
        let value: f64 = fields[1].parse().expect("numeric value");
        assert!(value.is_finite(), "{line}");
        by_workload.entry(workload.to_string()).or_default().push((
            name.to_string(),
            value,
            fields[2].to_string(),
        ));
    }
    by_workload
}

fn assert_prints_exactly(stdout: &str, table: &[Metric]) {
    let by_workload = metric_lines(stdout);
    let workloads: Vec<&str> = by_workload.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    expected.sort_unstable();
    assert_eq!(workloads, expected);
    for (workload, printed) in &by_workload {
        let names: Vec<(&str, &str)> = printed
            .iter()
            .map(|(name, _, unit)| (name.as_str(), unit.as_str()))
            .collect();
        let listed: Vec<(&str, &str)> = table.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, listed, "{workload}");
    }
}

#[test]
fn quick_run_prints_every_end_to_end_metric_once_and_nothing_else() {
    let stdout = sdp_perf(&["--quick", "--seconds", "0"]);
    assert_prints_exactly(&stdout, END_TO_END);
    for (workload, printed) in metric_lines(&stdout) {
        // The contract: no end-to-end metric is ever 0.
        for (name, value, _) in printed {
            assert!(value > 0.0, "{workload}/{name} = {value}");
        }
    }
}

#[test]
fn quick_traced_run_prints_every_per_layer_metric_once_and_writes_spans() {
    let stdout = sdp_perf(&["--quick", "--traced"]);
    assert_prints_exactly(&stdout, PER_LAYER);
    for workload in Workload::ALL {
        let path = format!("target/sdp-perf/{}.spans.json", workload.name());
        let json = std::fs::read_to_string(&path).expect(&path);
        assert!(json.starts_with(&format!("{{\"workload\": \"{}\"", workload.name())));
        assert!(json.contains("\"spans\": [") && json.ends_with("}}\n"));
        for layer in [
            "sql.tokenize",
            "query.fingerprint",
            "cache.get",
            "service.get_plan",
        ] {
            assert!(
                json.contains(&format!("\"{layer}\"")),
                "{path} lacks {layer}"
            );
        }
    }
}

#[test]
fn one_workload_ends_with_the_result_object_and_counts_repeat() {
    let last_line = |seed: &str| {
        let args = [
            "--quick",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--workload",
            "cold_sdp",
            "--seed",
            seed,
        ];
        sdp_perf(&args).lines().last().expect("output").to_string()
    };
    let (first, again, other) = (last_line("7"), last_line("7"), last_line("11"));
    assert!(
        first.starts_with("{\"correct\": true, \"attempted\": "),
        "{first}"
    );
    assert!(first.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    let counts = |line: &str| -> Vec<String> {
        ["allocs_per_req", "plans_costed_per_opt", "plan_cost_ratio"]
            .iter()
            .map(|name| {
                let at = line.find(&format!("\"{name}\"")).expect("metric present");
                line[at..].split('}').next().expect("value").to_string()
            })
            .collect()
    };
    assert_eq!(counts(&first), counts(&again), "same seed, same counts");
    assert_ne!(
        counts(&first),
        counts(&other),
        "another seed, other statements"
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_sdp-perf"))
            .args(args)
            .output()
            .expect("running sdp-perf");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty());
    }
}
