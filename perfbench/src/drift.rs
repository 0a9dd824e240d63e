//! The `drift-walk` workload: the three scenarios of `steady drift-bench`
//! — a 5-leaf star scatter, a 3-leaf star gather and a 5-node random
//! reduce — step their edge-cost random walks every epoch against a
//! 2-worker service with a TTL of 0 epochs.  The two star scenarios walk
//! [`STAR_WALKS`] times each, from seeds drawn from `--seed`, so that no
//! single seed's walk sets the figures.
//!
//! Each epoch, per walk: the drifted query (a miss in a known structural
//! class, answered through the drift triage ladder), one repeat of it (a
//! hit) and the previous epoch's query (expired, so a revalidation on the
//! revalidation lane).  One closed-loop client asks them in order, so the
//! triage counts repeat exactly from run to run.
//!
//! A round is one pass of [`EPOCHS`] epochs against a fresh service whose
//! cache is warmed with each walk's base platform.  Every round replays the
//! same walks, so every round attempts the same operations.  `setup_s` is
//! the median of [`SETUP_REPEATS`] timed input generations, service starts
//! and warm-ups.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use steady_drift::{DriftConfig, DriftModel};
use steady_platform::generators::{heterogeneous_star, random_connected};
use steady_platform::{NodeId, Platform, RandomConfig};
use steady_rational::{rat, Ratio};
use steady_service::{
    fingerprint, structural_fingerprint, Collective, HistogramSnapshot, Query, ServeError, Service,
    ServiceConfig, SolveRecord,
};

use crate::engine::{checked_optimum, span_p50_us, EngineDeltas};
use crate::solve::Failure;
use crate::stats::{median, quantile};
use crate::trace::SpanBuf;
use crate::{timed_setup, Outcome, RunArgs};

/// Epochs per round.
pub const EPOCHS: usize = 20;
/// Submissions of each drifted query per epoch (the first is the miss).
const ASKS_PER_EPOCH: usize = 2;
/// Walks of each star scenario.
const STAR_WALKS: u64 = 2;
/// Setups timed for `setup_s`.
const SETUP_REPEATS: usize = 5;
/// The reduce scenario — platform and walk — is the one `steady drift-bench`
/// runs by default (seed 42), whose walk spends most of its time in
/// triage re-solves.  It is fixed: the cost of a 40-epoch reduce walk
/// varies about 25-fold between walk seeds (0.35 s to 8.8 s measured), more
/// than any run-to-run bound could absorb.  `--seed` drives the scatter and
/// gather walks.
const REDUCE_SEED: u64 = 42;
/// Service worker threads.
const WORKERS: usize = 2;

/// One scenario's walk: its base query and one drifted query per epoch.
struct Walk {
    base: Query,
    steps: Vec<Query>,
}

fn walk(base: Platform, seed: u64, to_query: impl Fn(Platform) -> Query) -> Walk {
    let mut model = DriftModel::new(base.clone(), DriftConfig::default(), seed);
    let steps = (0..EPOCHS).map(|_| to_query(model.step())).collect();
    Walk { base: to_query(base), steps }
}

/// The walks: [`STAR_WALKS`] of each star scenario, then the reduce.
fn walks(seed: u64) -> Vec<Walk> {
    let (scatter, center, leaves) =
        heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5), rat(1, 6)]);
    let (gather, sink, sources) = heterogeneous_star(&[rat(1, 2), rat(2, 3), rat(1, 4)]);
    let reduce = random_connected(
        &RandomConfig { nodes: 5, ..RandomConfig::default() },
        &mut StdRng::seed_from_u64(REDUCE_SEED),
    );
    let participants: Vec<NodeId> = reduce.node_ids().collect();
    let mut walks = Vec::new();
    for k in 0..STAR_WALKS {
        let walk_seed = seed.wrapping_mul(STAR_WALKS).wrapping_add(k);
        walks.push(walk(scatter.clone(), walk_seed ^ 1, |platform| Query {
            platform,
            collective: Collective::Scatter { source: center, targets: leaves.clone() },
        }));
        walks.push(walk(gather.clone(), walk_seed ^ 2, |platform| Query {
            platform,
            collective: Collective::Gather { sources: sources.clone(), sink },
        }));
    }
    walks.push(walk(reduce, REDUCE_SEED ^ 3, |platform| Query {
        platform,
        collective: Collective::Reduce {
            participants: participants.clone(),
            target: participants[0],
            size: rat(1, 1),
            task_cost: rat(1, 1),
        },
    }));
    walks
}

/// What one query is in the walk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// First submission of a drifted platform.
    Drifted,
    /// Repeat of this epoch's drifted query.
    Repeat,
    /// The previous epoch's query, expired under the TTL.
    Revalidation,
}

fn ask(service: &Service, query: &Query, kind: Ask, buf: &mut SpanBuf) -> Result<Ratio, Failure> {
    buf.span("bench.query", |buf| {
        if buf.enabled() {
            if kind != Ask::Repeat {
                buf.span("service.structural_fingerprint", |_| structural_fingerprint(query));
            }
            buf.span("service.fingerprint", |_| fingerprint(query));
        }
        match buf.span("service.query", |_| service.query(query.clone())) {
            Ok(served) => Ok(served.answer.throughput.clone()),
            Err(ServeError::Shed) => Err(Failure::Error("the query was shed".into())),
            Err(ServeError::Failed(e)) => Err(Failure::Error(e.to_string())),
        }
    })
}

fn start(walks: &[Walk], trace: bool) -> Service {
    let service = Service::start(ServiceConfig {
        workers: WORKERS,
        ttl: Some(0),
        solver_events: trace,
        solver_record_capacity: 4096,
        ..ServiceConfig::default()
    });
    for walk in walks {
        let _ = service.query(walk.base.clone());
    }
    service
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    latencies: Vec<u64>,
    miss_latencies: Vec<u64>,
    loop_time: Duration,
    /// `(scenario, epoch, throughput)` of every answer.
    answers: Vec<(usize, usize, Ratio)>,
    failures: Vec<Failure>,
    solves: HistogramSnapshot,
    records: Vec<SolveRecord>,
}

fn round(
    service: &Service,
    walks: &[Walk],
    buf: &mut SpanBuf,
    deltas: Option<&mut EngineDeltas>,
) -> Round {
    let mut out = Round::default();
    let (stats_before, metrics_before) = (service.stats(), service.metrics());
    let started = Instant::now();
    for epoch in 0..EPOCHS {
        service.advance_epoch();
        for (scenario, walk) in walks.iter().enumerate() {
            let mut asks = vec![(Ask::Drifted, epoch); 1];
            asks.extend(std::iter::repeat_n((Ask::Repeat, epoch), ASKS_PER_EPOCH - 1));
            if epoch > 0 {
                asks.push((Ask::Revalidation, epoch - 1));
            }
            for (kind, step) in asks {
                let sent = Instant::now();
                let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ask(service, &walk.steps[step], kind, buf)
                }))
                .unwrap_or_else(|_| Err(Failure::Error("the client panicked".into())));
                let nanos = sent.elapsed().as_nanos() as u64;
                out.latencies.push(nanos);
                if kind != Ask::Repeat {
                    out.miss_latencies.push(nanos);
                }
                match answer {
                    Ok(throughput) => out.answers.push((scenario, step, throughput)),
                    Err(failure) => out.failures.push(failure),
                }
            }
        }
    }
    out.loop_time = started.elapsed();
    let metrics = service.metrics().since(&metrics_before);
    for name in ["stage_solve_warm_nanos", "stage_solve_cold_nanos"] {
        if let Some(h) = metrics.histogram(name) {
            out.solves.merge(h);
        }
    }
    if let Some(deltas) = deltas {
        deltas.add(&metrics, &service.stats().since(&stats_before));
        out.records = service.drain_solve_records();
    }
    out
}

/// Queries one round attempts.
fn round_queries(scenarios: usize) -> u64 {
    (scenarios * (EPOCHS * ASKS_PER_EPOCH + EPOCHS - 1)) as u64
}

/// Runs `drift-walk`.
pub fn run(run: &RunArgs) -> Outcome {
    let seed = run.seed;
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (setup_s, walks) = timed_setup(SETUP_REPEATS, || {
        let walks = walks(seed);
        drop(start(&walks, false));
        walks
    });

    let origin = Instant::now();
    // Per measured round: queries per second, latency quantiles and engine
    // solve time.  The reported figures are medians over rounds, so a
    // transient stall of the shared machine moves one round, not the run;
    // only the p99 pools every round's queries, to have enough of them.
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut solve_stage = HistogramSnapshot::empty();
    let mut reference_qps = Vec::new();
    let mut answers = Vec::new();
    let mut spans = Vec::new();
    let mut records = Vec::new();
    let mut deltas = EngineDeltas::default();
    let mut rounds = 0u64;
    let started = Instant::now();
    loop {
        let tracing = run.trace && rounds % 2 == 1;
        let service = start(&walks, run.trace);
        let mut buf = SpanBuf::new(tracing, origin, 0);
        let mut r = round(&service, &walks, &mut buf, tracing.then_some(&mut deltas));
        drop(service);
        out.attempted += round_queries(walks.len());
        for failure in r.failures.drain(..) {
            out.fail(false, failure.to_string());
        }
        answers.append(&mut r.answers);
        spans.append(&mut buf.take());
        records.append(&mut r.records);
        let qps = r.latencies.len() as f64 / r.loop_time.as_secs_f64();
        if run.trace && !tracing {
            reference_qps.push(qps);
        } else {
            let us = |samples: &[u64], q: f64| quantile(samples, q) / 1e3;
            for (metric, value) in [
                ("qps", qps),
                ("p50_us", us(&r.latencies, 0.50)),
                ("miss_p50_us", us(&r.miss_latencies, 0.50)),
                ("miss_p90_us", us(&r.miss_latencies, 0.90)),
                ("solve_total_s", r.solves.sum() as f64 / 1e9),
            ] {
                per_round.entry(metric).or_default().push(value);
            }
            latencies.append(&mut r.latencies);
            solve_stage.merge(&r.solves);
        }
        rounds += 1;
        if started.elapsed() >= run.seconds && (!run.trace || rounds.is_multiple_of(2)) {
            break;
        }
    }

    // Checks, after the timed part: every answer — drifted, repeated or
    // revalidated — equals the checked cold optimum of its platform.
    let mut references: Vec<Vec<Option<Result<Ratio, Failure>>>> =
        walks.iter().map(|_| vec![None; EPOCHS]).collect();
    for (scenario, step, throughput) in &answers {
        let expected = references[*scenario][*step]
            .get_or_insert_with(|| checked_optimum(&walks[*scenario].steps[*step]))
            .clone();
        match expected {
            Ok(expected) if expected == *throughput => {}
            Ok(expected) => {
                out.fail(true, format!("served {throughput}, the checked optimum is {expected}"))
            }
            Err(failure) => out.fail(false, format!("reference solve: {failure}")),
        }
    }

    out.metrics.insert("setup_s", setup_s);
    for (metric, values) in &per_round {
        out.metrics.insert(metric, median(values));
    }
    out.metrics.insert("p99_us", quantile(&latencies, 0.99) / 1e3);
    out.metrics.insert("solve_p50_ms", solve_stage.quantile(0.5) as f64 / 1e6);
    if run.trace {
        deltas.write(&mut out.metrics, &records);
        out.metrics.insert("service.fingerprint_us", span_p50_us(&spans, "service.fingerprint"));
        out.metrics.insert(
            "service.structural_fingerprint_us",
            span_p50_us(&spans, "service.structural_fingerprint"),
        );
        let (traced_qps, untraced_qps) = (median(&per_round["qps"]), median(&reference_qps));
        out.report.push_str(&format!(
            "tracing overhead   : {:+.1}% qps ({traced_qps:.1} traced vs {untraced_qps:.1} untraced)\n",
            (untraced_qps / traced_qps - 1.0) * 100.0
        ));
        out.spans = spans;
    }
    out.report.insert_str(
        0,
        &format!(
            "workload           : drift-walk (seed {seed}), {} walks x {EPOCHS} epochs, \
             {rounds} rounds, {WORKERS} workers, ttl 0\n",
            walks.len()
        ),
    );
    out
}
