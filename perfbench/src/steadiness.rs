//! `perfbench steadiness`: runs every workload repeatedly, each run a child
//! process of this binary with its own seed, alternating the workload order
//! from run to run, and reports for every end-to-end metric the median and
//! quartiles of its values against the bound `BENCHMARK.json` gives it.
//!
//! ```text
//! perfbench steadiness [--runs 10] [--sets 1] [--seconds S] [--workloads a,b] [--first-seed 1]
//! ```
//!
//! `--seconds` and `--workloads` default to `run_seconds` and the workloads
//! of `BENCHMARK.json`.  With
//! `--sets 2` it makes two sets of runs (seeds `first-seed..` and
//! `first-seed + 1000..`) and also checks that they agree: the second
//! median no worse than the first by more than the bound, and the same
//! share of failed operations.  It exits non-zero when a spread or a shift
//! exceeds its bound, or a run fails.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use crate::{Kind, METRICS};

/// A metric's direction and bound, from `BENCHMARK.json`.
struct Bound {
    higher_is_better: bool,
    bound: f64,
}

/// The bounds of the end-to-end metrics, the run length and the workloads.
type Manifest = (BTreeMap<String, Bound>, String, Vec<String>);

fn manifest() -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for metric in manifest.get("end_to_end").map(Value::as_array).unwrap_or_default() {
        let name = metric.get("name").and_then(Value::as_str).ok_or("a metric has no name")?;
        let bound = metric.get("bound").and_then(Value::as_f64).ok_or("a metric has no bound")?;
        let better = metric.get("better").and_then(Value::as_str).unwrap_or("lower");
        out.insert(name.to_string(), Bound { higher_is_better: better == "higher", bound });
    }
    let seconds = manifest.get("run_seconds").and_then(Value::as_f64).ok_or("no run_seconds")?;
    let workloads = manifest
        .get("workloads")
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    Ok((out, seconds.to_string(), workloads))
}

/// One child run's result line.
struct RunResult {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(workload: &str, seed: u64, seconds: &str) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", seconds])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let value = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let number = |key: &str| value.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let mut metrics = BTreeMap::new();
    if let Some(Value::Object(map)) = value.get("metrics") {
        for (name, metric) in map {
            if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    if value.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed}: an answer failed its check"));
    }
    Ok(RunResult { attempted: number("attempted"), failed: number("failed"), metrics })
}

/// Runs the command.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut runs = 10usize;
    let mut sets = 1usize;
    let (bounds, mut seconds, mut workloads) = manifest()?;
    let mut first_seed = 1u64;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--runs" => runs = value.parse().map_err(|_| "bad --runs")?,
            "--sets" => sets = value.parse().map_err(|_| "bad --sets")?,
            "--seconds" => seconds = value.clone(),
            "--first-seed" => first_seed = value.parse().map_err(|_| "bad --first-seed")?,
            "--workloads" => workloads = value.split(',').map(str::to_string).collect(),
            other => return Err(format!("unknown steadiness argument '{other}'")),
        }
        i += 2;
    }
    // values[set][workload][metric] and failed shares[set][workload].
    let mut values: Vec<BTreeMap<String, BTreeMap<String, Vec<f64>>>> = vec![BTreeMap::new(); sets];
    let mut failed_share: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); sets];
    for (set, (set_values, set_failed)) in values.iter_mut().zip(&mut failed_share).enumerate() {
        for run in 0..runs {
            let seed = first_seed + 1000 * set as u64 + run as u64;
            let mut order = workloads.clone();
            if run % 2 == 1 {
                order.reverse();
            }
            for workload in &order {
                let result = run_child(workload, seed, &seconds)?;
                eprintln!(
                    "set {} run {:>2} {workload:<13} seed {seed}: {}",
                    set + 1,
                    run + 1,
                    result
                        .metrics
                        .iter()
                        .map(|(k, v)| format!("{k}={v:.4}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                for (name, value) in result.metrics {
                    set_values
                        .entry(workload.clone())
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(value);
                }
                set_failed
                    .entry(workload.clone())
                    .or_default()
                    .push(result.failed / result.attempted);
            }
        }
    }

    let mut verdict = Ok(());
    println!(
        "{:<13} {:<14} {:>4} {:>14} {:>14} {:>14} {:>8} {:>7} {:>8}",
        "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "shift"
    );
    for workload in &workloads {
        for (name, _, _) in METRICS.iter().filter(|(_, _, kind)| *kind == Kind::EndToEnd) {
            let Some(bound) = bounds.get(*name) else {
                return Err(format!("BENCHMARK.json has no end-to-end metric '{name}'"));
            };
            let mut first_median = None;
            for (set, set_values) in values.iter().enumerate() {
                let samples = set_values
                    .get(workload)
                    .and_then(|m| m.get(*name))
                    .cloned()
                    .unwrap_or_default();
                let m = median(&samples);
                let (q1, q3) = quartiles(&samples);
                let spread = if m != 0.0 { (q3 - q1) / m } else { f64::INFINITY };
                let shift = first_median.map(|first: f64| {
                    let worse = if bound.higher_is_better { first - m } else { m - first };
                    worse / first
                });
                first_median.get_or_insert(m);
                let spread_ok = *name == "setup_s" || spread <= bound.bound;
                let shift_ok = shift.is_none_or(|s| s <= bound.bound);
                println!(
                    "{workload:<13} {name:<14} {:>4} {m:>14.4} {q1:>14.4} {q3:>14.4} {:>7.1}% {:>6.1}% {:>8}{}",
                    set + 1,
                    spread * 100.0,
                    bound.bound * 100.0,
                    shift.map_or("-".to_string(), |s| format!("{:+.1}%", s * 100.0)),
                    if spread_ok && shift_ok { "" } else { "  EXCEEDS BOUND" },
                );
                if !(spread_ok && shift_ok) {
                    verdict = Err("a spread or shift exceeds its bound".to_string());
                }
            }
        }
        let shares: Vec<&Vec<f64>> = failed_share.iter().filter_map(|s| s.get(workload)).collect();
        let all: Vec<f64> = shares.iter().flat_map(|v| v.iter().copied()).collect();
        let same = all.windows(2).all(|w| w[0] == w[1]);
        println!(
            "{workload:<13} failed share {} across every run{}",
            all.first().map_or("-".to_string(), |v| format!("{v}")),
            if same { " (identical)" } else { "  DIFFERS" }
        );
        if !same {
            verdict = Err("the failed share differs between runs".to_string());
        }
    }
    verdict
}
