//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steadiness [--runs <n>] [--seconds <s>] [--workloads a,b] [--trace <0|1>]
//! perfbench selftest
//! ```
//!
//! A run builds its inputs from `--seed`, sets the workload up (timed as
//! `setup_s`), then measures whole rounds of the same operations until
//! `--seconds` have passed, checks every answer apart from the program, and
//! prints the metrics by name with their units.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  `steadiness` runs the workloads repeatedly in
//! child processes and reports medians and quartiles against the bounds in
//! `BENCHMARK.json`.  See `README.md` in this directory.

mod check;
mod cold;
mod drift;
mod engine;
mod json;
mod serve;
mod solve;
mod stats;
mod steadiness;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Span;

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["serve-repeat", "drift-walk", "solve-small", "solve-large"];

/// One workload run's arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; whole rounds run until it has passed.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No answer failed a check.
    pub correct: bool,
    /// Operations attempted (queries or solves).
    pub attempted: u64,
    /// Operations that failed: wrong answer, error, shed or panic.
    pub failed: u64,
    /// Metric name → value; units come from [`METRICS`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Human-readable lines printed before the result.
    pub report: String,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts one failed operation, keeping its message if it is among the
    /// first few.
    pub fn fail(&mut self, wrong_answer: bool, message: String) {
        self.failed += 1;
        if wrong_answer {
            self.correct = false;
        }
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// Whether a metric is reported by untraced or by traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Untraced run; has a bound.
    EndToEnd,
    /// Traced run; no bound.
    PerLayer,
}

/// Every metric: name, unit, kind.  `BENCHMARK.json` lists the same names,
/// units and directions; the steadiness command reads the bounds from it.
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::EndToEnd),
    ("qps", "queries/s", Kind::EndToEnd),
    ("p50_us", "us", Kind::EndToEnd),
    ("p99_us", "us", Kind::EndToEnd),
    ("miss_p50_us", "us", Kind::EndToEnd),
    ("miss_p90_us", "us", Kind::EndToEnd),
    ("solve_total_s", "s", Kind::EndToEnd),
    ("solve_p50_ms", "ms", Kind::EndToEnd),
    ("service.fingerprint_us", "us", Kind::PerLayer),
    ("service.structural_fingerprint_us", "us", Kind::PerLayer),
    ("service.lookup_p50_us", "us", Kind::PerLayer),
    ("service.publish_p50_us", "us", Kind::PerLayer),
    ("service.hit_ratio", "ratio", Kind::PerLayer),
    ("service.hits", "count", Kind::PerLayer),
    ("service.misses", "count", Kind::PerLayer),
    ("service.coalesced", "count", Kind::PerLayer),
    ("sched.demand_wait_p50_us", "us", Kind::PerLayer),
    ("sched.demand_wait_p99_us", "us", Kind::PerLayer),
    ("sched.revalidation_wait_p50_us", "us", Kind::PerLayer),
    ("drift.in_range", "count", Kind::PerLayer),
    ("drift.dual_repairs", "count", Kind::PerLayer),
    ("drift.resolved", "count", Kind::PerLayer),
    ("drift.reuse_ratio", "ratio", Kind::PerLayer),
    ("drift.warm_solve_p50_us", "us", Kind::PerLayer),
    ("drift.cold_solve_p50_us", "us", Kind::PerLayer),
    ("core.formulate_ms", "ms", Kind::PerLayer),
    ("core.interpret_ms", "ms", Kind::PerLayer),
    ("core.schedule_ms", "ms", Kind::PerLayer),
    ("linprog.phase1_ms", "ms", Kind::PerLayer),
    ("linprog.phase2_ms", "ms", Kind::PerLayer),
    ("linprog.refactor_ms", "ms", Kind::PerLayer),
    ("linprog.certify_ms", "ms", Kind::PerLayer),
    ("linprog.fallback_ms", "ms", Kind::PerLayer),
    ("linprog.pivots", "count", Kind::PerLayer),
    ("linprog.phase1_pivots", "count", Kind::PerLayer),
    ("linprog.degenerate_pivots", "count", Kind::PerLayer),
    ("linprog.refactorizations", "count", Kind::PerLayer),
    ("linprog.fallbacks", "count", Kind::PerLayer),
    ("linprog.certified_ratio", "ratio", Kind::PerLayer),
];

/// Runs `setup` `repeats` times and returns the median wall time with the
/// last setup's product (the one the run measures).
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut product = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous product first, so its teardown is not timed.
        drop(product.take());
        let started = Instant::now();
        let made = setup();
        times.push(started.elapsed().as_secs_f64());
        product = Some(made);
    }
    (stats::median(&times), product.expect("setup ran at least once"))
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench steadiness [--runs <n>] [--seconds <s>] [--workloads a,b] [--trace <0|1>]\n       \
         perfbench selftest",
        WORKLOADS.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                run.seconds = Duration::from_secs_f64(s.max(0.0));
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload '{}'", run.workload));
    }
    Ok(run)
}

/// Runs one workload and returns its outcome.
pub fn run_workload(run: &RunArgs) -> Outcome {
    match run.workload.as_str() {
        "serve-repeat" => serve::run(run),
        "drift-walk" => drift::run(run),
        "solve-small" => cold::run(run, false),
        _ => cold::run(run, true),
    }
}

/// The result line: the JSON object a harness reads from the last line.
fn result_json(run: &RunArgs, outcome: &Outcome) -> String {
    let kind = if run.trace { Kind::PerLayer } else { Kind::EndToEnd };
    let mut metrics = String::new();
    for (name, unit, _) in METRICS.iter().filter(|(_, _, k)| *k == kind) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if metrics.is_empty() { "" } else { ", " },
            json::number(value),
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steadiness") => steadiness::run(&args[1..]),
        Some("selftest") => check::self_test().map(|()| println!("exact check self-test: ok")),
        _ => run_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_main(args: &[String]) -> Result<(), String> {
    let run = parse_run(args).map_err(|e| format!("{e}\n{}", usage()))?;
    // The check must bite before it is trusted with the answers.
    check::self_test()?;
    let outcome = run_workload(&run);
    print!("{}", outcome.report);
    for error in &outcome.errors {
        println!("failed operation   : {error}");
    }
    let kind = if run.trace { Kind::PerLayer } else { Kind::EndToEnd };
    for (name, unit, _) in METRICS.iter().filter(|(_, _, k)| *k == kind) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {value:>14.4} {unit}");
    }
    if run.trace {
        println!("{}", trace::render_layer_table(&outcome.spans));
        let path = format!("perfbench/out/{}-seed{}.trace.json", run.workload, run.seed);
        std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, trace::chrome_trace(&outcome.spans)))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("spans              : {} written to {path}", outcome.spans.len());
    }
    println!("{}", result_json(&run, &outcome));
    Ok(())
}
