//! `sdp-perf` — command line of the benchmark. See README.md.

use std::fmt::Write as _;
use std::process::ExitCode;

use sdp_perf::run::{self, Options, Report};
use sdp_perf::spec::{benchmark_json, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use sdp_perf::workload::Workload;
use sdp_perf::{selfcheck, traced};

const USAGE: &str = "\
usage: sdp-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
                [--selfcheck N] [--print-benchmark-json]

  --workload NAME   warm_hit, cold_dp, cold_sdp or governed_churn (default: all four);
                    with it, the last line printed is the run as one JSON object
  --seed N          seed of the generated statements and request stream (default 7)
  --seconds S       seconds of timed passes to aim for (default: run_seconds)
  --trace 1         the traced run: per-layer metrics and target/sdp-perf/<workload>.spans.json
  --traced          the same as --trace 1
  --quick           1 % of the requests: a smoke test, not a measurement
  --selfcheck N     measure the benchmark against itself, 2 x N runs of every workload
  --print-benchmark-json
                    print the text BENCHMARK.json must hold";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    selfcheck: Option<usize>,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        quick: false,
        selfcheck: None,
        print_benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds outside 0..=3600".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--selfcheck" => {
                args.selfcheck = Some(value()?.parse().map_err(|e| format!("--selfcheck: {e}"))?)
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Print a run: its notes, `workload/name value unit` per metric and —
/// returned, for the caller to print last — the result as one JSON
/// object. Returns whether the run was correct.
fn report(table: &[Metric], mut run: Report) -> (bool, String) {
    let workload = run.workload.name();
    let mut correct = run.correct();
    let mut notes = [run.notes, run.problems].concat();
    // A value that is not a number cannot be printed as JSON and is
    // never a measurement.
    for (name, value) in &mut run.metrics {
        if !value.is_finite() {
            notes.push(format!("{name} is {value}"));
            *value = 0.0;
            correct = false;
        }
    }
    if !correct {
        notes.push(format!(
            "FAILED the correctness gate: {} of {} requests",
            run.failed, run.attempted
        ));
    }
    for note in &notes {
        println!("# {workload}: {note}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted, run.failed
    );
    assert_eq!(table.len(), run.metrics.len());
    for (i, (metric, (name, value))) in table.iter().zip(&run.metrics).enumerate() {
        assert_eq!(metric.name, *name, "metrics out of table order");
        println!("{workload}/{name} {value} {}", metric.unit);
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.unit
        );
    }
    json.push_str("}}");
    (correct, json)
}

fn main() -> ExitCode {
    sdp_perf::alloc::adopt_client();
    // The program's own defaults apply, whatever the caller exported.
    std::env::remove_var("SDP_THREADS");
    std::env::remove_var("SDP_ENUMERATOR");

    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("sdp-perf: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let options = Options {
        workload: args.workload.unwrap_or(Workload::WarmHit),
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.quick { 0.01 } else { 1.0 },
        scratch: "target/sdp-perf".into(),
    };

    let result = if let Some(rounds) = args.selfcheck {
        selfcheck::run(rounds, &options)
    } else {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        workloads.iter().try_fold(true, |all_correct, &workload| {
            let options = Options {
                workload,
                ..options.clone()
            };
            let (correct, json) = if args.traced {
                report(PER_LAYER, traced::run(&options)?)
            } else {
                report(END_TO_END, run::run(&options)?)
            };
            if args.workload.is_some() {
                println!("{json}");
            }
            Ok(all_correct && correct)
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sdp-perf: {message}");
            ExitCode::FAILURE
        }
    }
}
