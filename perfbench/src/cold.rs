//! The `solve-small` and `solve-large` workloads: rounds of one cold
//! certified solve plus a schedule per instance of a fixed list, with no
//! service in the way.
//!
//! A traced run measures one untraced round first, as the reference for
//! the tracing overhead, then traced rounds until the time is up.

use std::time::Instant;

use steady_lp::Certificate;

use crate::solve::{
    large_instances, ran_certified_route, small_instances, Checks, Failure, SolverSplit,
};
use crate::stats::{median, quantile};
use crate::trace::SpanBuf;
use crate::{timed_setup, Outcome, RunArgs};

/// Instance-list generations timed for `setup_s`: generation takes about a
/// millisecond, so a single timing is mostly allocator and cache noise.
const SETUP_REPEATS: usize = 15;

/// A solve faster than this is timed [`REPEATS`] times and its median kept:
/// a single timing of a few-millisecond solve swings by a third with the
/// page faults of its fresh tableau, which would set the reported median.
const REPEAT_BELOW_NANOS: u64 = 50_000_000;
/// Timings of a fast solve (the first one included).
const REPEATS: usize = 5;

/// Runs `solve-small` (`large == false`) or `solve-large`.
pub fn run(run: &RunArgs, large: bool) -> Outcome {
    let seed = run.seed;
    let (setup_s, instances) =
        timed_setup(
            SETUP_REPEATS,
            || {
                if large {
                    large_instances()
                } else {
                    small_instances(seed)
                }
            },
        );
    let mut out = Outcome { correct: true, ..Outcome::default() };
    out.metrics.insert("setup_s", setup_s);

    let origin = Instant::now();
    let mut untraced = SpanBuf::new(false, origin, 0);
    let mut quiet = SpanBuf::new(false, origin, 0);
    let mut traced = SpanBuf::new(true, origin, 0);
    let mut round_nanos: Vec<f64> = Vec::new();
    let mut reference_nanos: Option<f64> = None;
    // Per instance, its solve times over the measured rounds.
    let mut per_instance: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    let mut round_qps: Vec<f64> = Vec::new();
    let mut split = SolverSplit::default();
    let (mut solves, mut certified, mut phase1_pivots) = (0u64, 0u64, 0u64);
    let mut rounds = 0u64;
    let started = Instant::now();
    loop {
        // A traced run's first round is its untraced reference.
        let tracing = run.trace && reference_nanos.is_some();
        let buf = if tracing { &mut traced } else { &mut untraced };
        let checks = if rounds == 0 { Checks::WithBaselines } else { Checks::Answer };
        let mut total = 0u64;
        let mut round_samples = Vec::with_capacity(instances.len());
        for (index, instance) in instances.iter().enumerate() {
            out.attempted += 1;
            match instance.solve(buf, checks) {
                Ok(solved) => {
                    if rounds == 0 {
                        // Progress on stderr: the first round lists every
                        // instance as it is solved.
                        eprintln!(
                            "  {:<32} {:>10.2} ms  {:>6} pivots  {:?}",
                            instance.name,
                            solved.nanos as f64 / 1e6,
                            solved.pivots,
                            solved.certificate
                        );
                    }
                    let mut times = vec![solved.nanos as f64];
                    while solved.nanos < REPEAT_BELOW_NANOS && times.len() < REPEATS {
                        match instance.solve(&mut quiet, Checks::Answer) {
                            Ok(again) => times.push(again.nanos as f64),
                            Err(failure) => {
                                let wrong = matches!(failure, Failure::Wrong(_));
                                out.fail(wrong, failure.to_string());
                                break;
                            }
                        }
                    }
                    let nanos = median(&times) as u64;
                    total += nanos;
                    round_samples.push((index, nanos));
                    if let Some(recording) = &solved.recording {
                        split.add(&SolverSplit::of(recording, ran_certified_route(&solved)));
                        solves += 1;
                        certified += u64::from(solved.certificate == Certificate::Optimal);
                        phase1_pivots += solved.phase1_pivots as u64;
                    }
                }
                Err(failure) => {
                    let wrong = matches!(failure, Failure::Wrong(_));
                    out.fail(wrong, failure.to_string());
                }
            }
        }
        rounds += 1;
        if run.trace && reference_nanos.is_none() {
            reference_nanos = Some(total as f64);
        } else {
            round_nanos.push(total as f64);
            round_qps.push(round_samples.len() as f64 / (total as f64 / 1e9).max(1e-9));
            for (index, nanos) in round_samples {
                per_instance[index].push(nanos as f64);
            }
        }
        if started.elapsed() >= run.seconds && !round_nanos.is_empty() {
            break;
        }
    }
    let measured_rounds = round_nanos.len() as f64;

    // Latency quantiles are taken over the instances' median times, so a
    // quantile always reads the same instance of the fixed list.
    let medians: Vec<u64> =
        per_instance.iter().filter(|t| !t.is_empty()).map(|t| median(t) as u64).collect();
    let us = |q: f64| quantile(&medians, q) / 1e3;
    out.metrics.insert("qps", median(&round_qps));
    out.metrics.insert("p50_us", us(0.50));
    out.metrics.insert("p99_us", us(0.99));
    out.metrics.insert("miss_p50_us", us(0.50));
    out.metrics.insert("miss_p90_us", us(0.90));
    out.metrics.insert("solve_total_s", median(&round_nanos) / 1e9);
    out.metrics.insert("solve_p50_ms", us(0.50) / 1e3);

    if run.trace {
        let spans = traced.take();
        let per_round_ms = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_nanos - s.start_nanos)
                .sum::<u64>() as f64
                / 1e6
                / measured_rounds
        };
        for (metric, span) in [
            ("core.formulate_ms", "core.formulate"),
            ("core.interpret_ms", "core.interpret"),
            ("core.schedule_ms", "core.schedule"),
        ] {
            out.metrics.insert(metric, per_round_ms(span));
        }
        let per_round = |v: u64| v as f64 / measured_rounds;
        out.metrics.insert("linprog.phase1_ms", per_round(split.phase1_nanos) / 1e6);
        out.metrics.insert("linprog.phase2_ms", per_round(split.phase2_nanos) / 1e6);
        out.metrics.insert("linprog.refactor_ms", per_round(split.refactor_nanos) / 1e6);
        out.metrics.insert("linprog.certify_ms", per_round(split.certify_nanos) / 1e6);
        out.metrics.insert("linprog.fallback_ms", per_round(split.fallback_nanos) / 1e6);
        out.metrics.insert("linprog.pivots", per_round(split.pivots));
        out.metrics.insert("linprog.phase1_pivots", per_round(phase1_pivots));
        out.metrics.insert("linprog.degenerate_pivots", per_round(split.degenerate_pivots));
        out.metrics.insert("linprog.refactorizations", per_round(split.refactorizations));
        out.metrics.insert("linprog.fallbacks", per_round(split.fallbacks));
        out.metrics.insert("linprog.certified_ratio", certified as f64 / solves.max(1) as f64);
        let traced_total = median(&round_nanos);
        if let Some(reference) = reference_nanos {
            out.report.push_str(&format!(
                "tracing overhead   : {:+.1}% (solve_total_s {:.4} s traced vs {:.4} s untraced)\n",
                (traced_total / reference - 1.0) * 100.0,
                traced_total / 1e9,
                reference / 1e9
            ));
        }
        out.spans = spans;
    }
    out.report.insert_str(
        0,
        &format!(
            "workload           : {} (seed {seed}), {} instances x {} measured rounds\n",
            run.workload,
            instances.len(),
            round_nanos.len()
        ),
    );
    out
}
