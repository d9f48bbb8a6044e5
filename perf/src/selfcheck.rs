//! `--selfcheck N`: the benchmark measured against itself.
//!
//! Runs every workload 2 x N times under two labels that name the same
//! code, alternating which goes first, and compares the two sets the
//! way the driver compares a change with its parent: per metric, the
//! spread of a set (quartile distance over median) and the gap between
//! the sets' medians, each against the metric's bound. What it prints
//! is the noise floor any later claim has to clear.

use crate::run::{self, Options};
use crate::spec::{Better, Metric, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::Workload;

/// Metrics that must read exactly the same for the same seed, on the
/// workloads where nothing but the client thread allocates.
fn must_repeat(workload: Workload, metric: &str) -> bool {
    match metric {
        "plans_costed_per_opt" | "plan_cost_ratio" => true,
        "allocs_per_req" | "alloc_bytes_per_req" => !workload.durable(),
        _ => false,
    }
}

/// By how much of `first` the median `second` is worse.
fn worsening(metric: &Metric, first: f64, second: f64) -> f64 {
    match metric.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Run the self-check; `Ok(true)` when every spread and gap is within
/// its bound and every run passed the correctness gate.
pub fn run(rounds: usize, base: &Options) -> Result<bool, String> {
    // values[label][workload][metric] -> one value per round.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    let mut ok = true;
    for round in 0..rounds {
        // Both labels get the same seeds, a new one each round, as the
        // driver's ten runs each take another seed.
        let seed = base.seed + round as u64;
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for label in order {
            for (w, &workload) in Workload::ALL.iter().enumerate() {
                let report = run::run(&Options {
                    workload,
                    seed,
                    ..base.clone()
                })?;
                if !report.correct() {
                    println!(
                        "# {} seed {seed} label {}: {} failed, {:?}",
                        workload.name(),
                        ["A", "B"][label],
                        report.failed,
                        report.problems
                    );
                    ok = false;
                }
                for (m, (_, value)) in report.metrics.iter().enumerate() {
                    values[label][w][m].push(*value);
                }
            }
            println!("# round {} label {} done", round + 1, ["A", "B"][label]);
        }
    }

    println!(
        "{:<38} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload/metric", "median A", "median B", "spread A", "spread B", "gap", "bound"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let spread = |v: &[f64]| {
                if v.len() < 2 {
                    return 0.0;
                }
                let [q1, _, q3] = quartiles(v);
                (q3 - q1) / median(v)
            };
            let (spread_a, spread_b) = (spread(a), spread(b));
            let gap = worsening(metric, median(a), median(b));
            // Set-up time is held to its bound between sets only.
            let spread = if metric.name == "setup_s" {
                0.0
            } else {
                spread_a.max(spread_b)
            };
            let failures = [
                (spread > bound, "SPREAD ABOVE BOUND"),
                (gap > bound, "GAP ABOVE BOUND"),
                (must_repeat(*workload, metric.name) && a != b, "NOT EXACT"),
            ];
            let mut verdict: Vec<&str> = failures
                .iter()
                .filter_map(|(failed, what)| failed.then_some(*what))
                .collect();
            ok &= verdict.is_empty();
            if verdict.is_empty() && spread > bound / 3.0 {
                verdict.push("spread above a third of the bound");
            }
            println!(
                "{:<38} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>6.1}%  {}",
                format!("{}/{}", workload.name(), metric.name),
                median(a),
                median(b),
                spread_a * 100.0,
                spread_b * 100.0,
                gap * 100.0,
                bound * 100.0,
                if verdict.is_empty() {
                    "ok".to_string()
                } else {
                    verdict.join(", ")
                }
            );
        }
    }
    Ok(ok)
}
