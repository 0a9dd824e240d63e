//! The `serve-repeat` workload: a repeat-heavy query mix, plus relabeled
//! copies of every query, replayed by 2 closed-loop clients against a
//! warmed 2-worker service.
//!
//! Nearly every query is a cache hit, so the workload measures
//! fingerprinting, the cache lookup and the lane handoff to a worker.  Each
//! round also asks [`NOVEL_PER_ROUND`] queries the service has never seen
//! (cost redraws of one star scatter, unique per round): they are the
//! misses behind `miss_p50_us` and the solves behind `solve_total_s`.
//!
//! A traced run alternates untraced and traced rounds; the untraced ones
//! are the reference for the tracing overhead.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use steady_platform::generators::heterogeneous_star;
use steady_rational::{rat, Ratio};
use steady_service::{
    fingerprint, query_mix, structural_fingerprint, Collective, HistogramSnapshot, Query,
    ServeError, Service, ServiceConfig,
};

use crate::engine::{checked_optimum, relabeled, span_p50_us, EngineDeltas};
use crate::solve::Failure;
use crate::stats::{median, quantile};
use crate::trace::{Span, SpanBuf};
use crate::{timed_setup, Outcome, RunArgs};

/// Distinct queries drawn from `query_mix`.
const DISTINCT: usize = 24;
/// Replayed queries per round (split between the clients).
const ROUND_QUERIES: usize = 20_000;
/// Never-seen queries per round.
const NOVEL_PER_ROUND: usize = 8;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Setups timed for `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Traced rounds whose spans are kept (each holds about 50 000 spans).
const SPAN_ROUNDS: usize = 2;

/// The replay pool: every mix query and a relabeled copy of each, with the
/// index of the original whose reference answer both must equal.
struct Pool {
    queries: Vec<Query>,
    original: Vec<usize>,
    distinct: usize,
}

fn build_pool(seed: u64) -> Pool {
    let mix = query_mix(DISTINCT, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1a_be15);
    let mut queries = mix.clone();
    let mut original: Vec<usize> = (0..mix.len()).collect();
    for (i, query) in mix.iter().enumerate() {
        let n = query.platform.num_nodes();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            perm.swap(k, rng.gen_range(0..=k));
        }
        queries.push(relabeled(query, &perm));
        original.push(i);
    }
    Pool { queries, original, distinct: mix.len() }
}

/// The `i`-th never-seen query of round `round`: a 4-leaf star scatter
/// whose first leaf cost is unique to `(round, i)`.
fn novel_query(round: u64, i: usize) -> Query {
    let unique = round * NOVEL_PER_ROUND as u64 + i as u64;
    let costs = [rat(1 + unique as i64, 4096), rat(1, 3), rat(1, 4), rat(1, 5)];
    let (platform, center, leaves) = heterogeneous_star(&costs);
    Query { platform, collective: Collective::Scatter { source: center, targets: leaves } }
}

struct Setup {
    service: Service,
    pool: Pool,
    sequence: Vec<usize>,
}

fn setup(seed: u64, trace: bool) -> Setup {
    let pool = build_pool(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e9e);
    let sequence = (0..ROUND_QUERIES).map(|_| rng.gen_range(0..pool.queries.len())).collect();
    let config = ServiceConfig {
        workers: WORKERS,
        solver_events: trace,
        solver_record_capacity: 4096,
        ..ServiceConfig::default()
    };
    let service = Service::start(config);
    // Warm-up pass: every distinct query once, so the replay is all hits.
    for query in &pool.queries[..pool.distinct] {
        let _ = service.query(query.clone());
    }
    Setup { service, pool, sequence }
}

/// One client's share of a round.
#[derive(Default)]
struct ClientRound {
    latencies: Vec<u64>,
    miss_latencies: Vec<u64>,
    /// `(pool index or usize::MAX for a novel query, novel id, throughput)`
    /// of every answer, checked after the timed part.
    answers: Vec<(usize, u64, Ratio)>,
    failures: Vec<Failure>,
    spans: Vec<Span>,
}

/// In a traced run, one query in this many also times a `fingerprint` call
/// of its own (the service fingerprints every query internally, where the
/// benchmark cannot see it); sampling keeps the added work small.
const FINGERPRINT_SAMPLE: usize = 16;

fn ask(
    service: &Service,
    query: Query,
    buf: &mut SpanBuf,
    novel: bool,
    sample: bool,
) -> Result<Ratio, Failure> {
    buf.span("bench.query", |buf| {
        if buf.enabled() {
            if sample || novel {
                buf.span("service.fingerprint", |_| fingerprint(&query));
            }
            if novel {
                buf.span("service.structural_fingerprint", |_| structural_fingerprint(&query));
            }
        }
        match buf.span("service.query", |_| service.query(query)) {
            Ok(served) => Ok(served.answer.throughput.clone()),
            Err(ServeError::Shed) => Err(Failure::Error("the query was shed".into())),
            Err(ServeError::Failed(e)) => Err(Failure::Error(e.to_string())),
        }
    })
}

fn client_round(s: &Setup, round: u64, client: usize, trace: bool, origin: Instant) -> ClientRound {
    let mut out = ClientRound::default();
    let mut buf = SpanBuf::new(trace, origin, client as u32);
    let novel_every = ROUND_QUERIES / NOVEL_PER_ROUND;
    for (k, &index) in s.sequence.iter().enumerate().skip(client).step_by(CLIENTS) {
        let (query, novel_id) = if k % novel_every == 0 {
            (
                novel_query(round, k / novel_every),
                Some(round * NOVEL_PER_ROUND as u64 + (k / novel_every) as u64),
            )
        } else {
            (s.pool.queries[index].clone(), None)
        };
        let sent = Instant::now();
        let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ask(
                &s.service,
                query,
                &mut buf,
                novel_id.is_some(),
                (k / CLIENTS).is_multiple_of(FINGERPRINT_SAMPLE),
            )
        }))
        .unwrap_or_else(|_| Err(Failure::Error("the client panicked".into())));
        let nanos = sent.elapsed().as_nanos() as u64;
        out.latencies.push(nanos);
        if novel_id.is_some() {
            out.miss_latencies.push(nanos);
        }
        match answer {
            Ok(throughput) => out.answers.push((
                novel_id.map_or(s.pool.original[index], |_| usize::MAX),
                novel_id.unwrap_or(0),
                throughput,
            )),
            Err(failure) => out.failures.push(failure),
        }
    }
    out.spans = buf.take();
    out
}

/// Runs `serve-repeat`.
pub fn run(run: &RunArgs) -> Outcome {
    let seed = run.seed;
    let (setup_s, s) = timed_setup(SETUP_REPEATS, || setup(seed, run.trace));
    let mut out = Outcome { correct: true, ..Outcome::default() };
    out.metrics.insert("setup_s", setup_s);

    let origin = Instant::now();
    let mut misses = Vec::new();
    let mut round_solve_nanos = Vec::new();
    let mut solve_stage = HistogramSnapshot::empty();
    let mut spans = Vec::new();
    let mut span_rounds = 0;
    let mut deltas = EngineDeltas::default();
    let mut references: Vec<Option<Result<Ratio, Failure>>> = vec![None; s.pool.distinct];
    // Per measured round: queries per second and p50 and p99 latency.  The
    // reported figures are medians over rounds, so a transient stall of the
    // shared machine moves one round, not the run.
    let (mut round_qps, mut round_p50, mut round_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference_qps = Vec::new();
    let mut round = 0u64;
    let started = Instant::now();
    loop {
        let tracing = run.trace && round % 2 == 1;
        let (stats_before, metrics_before) = (s.service.stats(), s.service.metrics());
        let round_started = Instant::now();
        let mut parts: Vec<ClientRound> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let s = &s;
                    scope.spawn(move || client_round(s, round, client, tracing, origin))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
        });
        let elapsed = round_started.elapsed();
        let metrics = s.service.metrics().since(&metrics_before);
        let stats = s.service.stats().since(&stats_before);
        let queries: usize = parts.iter().map(|p| p.latencies.len()).sum();
        out.attempted += ROUND_QUERIES as u64;
        if run.trace && !tracing {
            reference_qps.push(queries as f64 / elapsed.as_secs_f64());
        } else {
            round_qps.push(queries as f64 / elapsed.as_secs_f64());
            let round_latencies: Vec<u64> =
                parts.iter().flat_map(|p| p.latencies.iter().copied()).collect();
            round_p50.push(quantile(&round_latencies, 0.50) / 1e3);
            round_p99.push(quantile(&round_latencies, 0.99) / 1e3);
            let mut solves = HistogramSnapshot::empty();
            for name in ["stage_solve_warm_nanos", "stage_solve_cold_nanos"] {
                if let Some(h) = metrics.histogram(name) {
                    solves.merge(h);
                }
            }
            round_solve_nanos.push(solves.sum() as f64);
            solve_stage.merge(&solves);
        }
        if tracing {
            deltas.add(&metrics, &stats);
        }
        if tracing && span_rounds < SPAN_ROUNDS {
            span_rounds += 1;
            for part in &mut parts {
                spans.append(&mut part.spans);
            }
        }
        // Checks, after the round's timed part: every answer equals the
        // checked cold optimum of its query; relabeled copies share their
        // original's.  A client that panicked outside a query returns an
        // empty share: every query it did not answer is a failed operation.
        let mut answered = 0usize;
        for part in parts {
            if !run.trace || tracing {
                misses.extend(part.miss_latencies);
            }
            answered += part.answers.len() + part.failures.len();
            for failure in part.failures {
                out.fail(false, failure.to_string());
            }
            check_answers(&s, &part.answers, &mut references, &mut out);
        }
        for _ in answered..ROUND_QUERIES {
            out.fail(false, "a client panicked".into());
        }
        round += 1;
        if started.elapsed() >= run.seconds && (!run.trace || round.is_multiple_of(2)) {
            break;
        }
    }

    let us = |samples: &[u64], q: f64| quantile(samples, q) / 1e3;
    out.metrics.insert("qps", median(&round_qps));
    out.metrics.insert("p50_us", median(&round_p50));
    out.metrics.insert("p99_us", median(&round_p99));
    out.metrics.insert("miss_p50_us", us(&misses, 0.50));
    out.metrics.insert("miss_p90_us", us(&misses, 0.90));
    out.metrics.insert("solve_total_s", median(&round_solve_nanos) / 1e9);
    out.metrics.insert("solve_p50_ms", solve_stage.quantile(0.5) as f64 / 1e6);
    if run.trace {
        deltas.write(&mut out.metrics, &s.service.drain_solve_records());
        out.metrics.insert("service.fingerprint_us", span_p50_us(&spans, "service.fingerprint"));
        out.metrics.insert(
            "service.structural_fingerprint_us",
            span_p50_us(&spans, "service.structural_fingerprint"),
        );
        let (traced_qps, untraced_qps) = (median(&round_qps), median(&reference_qps));
        out.report.push_str(&format!(
            "tracing overhead   : {:+.1}% qps ({traced_qps:.0} traced vs {untraced_qps:.0} untraced)\n",
            (untraced_qps / traced_qps - 1.0) * 100.0
        ));
        out.spans = spans;
    }
    out.report.insert_str(
        0,
        &format!(
            "workload           : serve-repeat (seed {seed}), {} pool queries ({} distinct), \
             {CLIENTS} clients, {WORKERS} workers, {round} rounds of {ROUND_QUERIES}\n",
            s.pool.queries.len(),
            s.pool.distinct,
        ),
    );
    out
}

/// Checks one client's answers of a round against the checked cold optima,
/// computing each reference the first time it is needed.
fn check_answers(
    s: &Setup,
    answers: &[(usize, u64, Ratio)],
    references: &mut [Option<Result<Ratio, Failure>>],
    out: &mut Outcome,
) {
    for (original, novel_id, throughput) in answers {
        let expected = if *original == usize::MAX {
            let query = novel_query(
                novel_id / NOVEL_PER_ROUND as u64,
                (novel_id % NOVEL_PER_ROUND as u64) as usize,
            );
            checked_optimum(&query)
        } else {
            references[*original]
                .get_or_insert_with(|| checked_optimum(&s.pool.queries[*original]))
                .clone()
        };
        match expected {
            Ok(expected) if expected == *throughput => {}
            Ok(expected) => {
                out.fail(true, format!("served {throughput}, the checked optimum is {expected}"))
            }
            Err(failure) => out.fail(false, format!("reference solve: {failure}")),
        }
    }
}
