//! Cold certified solves: one collective instance through formulate →
//! certified LP solve → interpret → schedule, each call a span, followed by
//! checks made apart from the program.
//!
//! The `solve-small` and `solve-large` workloads are rounds over a fixed
//! instance list; the serving workloads use [`reference`] to compute the
//! checked cold optimum their served answers must equal.

use std::time::Instant;

use steady_baselines::{
    binomial_reduce, binomial_scatter, chain_reduce, direct_gather, direct_gossip, direct_scatter,
    flat_tree_reduce, measure_pipelined_throughput,
};
use steady_core::error::CoreError;
use steady_core::schedule::PeriodicSchedule;
use steady_core::{
    GatherProblem, GossipProblem, PrefixProblem, ReduceProblem, ScatterProblem, SteadyProblem,
};
use steady_lp::{
    Certificate, CertifiedSolution, NoopObserver, RecordingObserver, SolveEvent, SolveObserver,
    SolveRecording,
};
use steady_platform::generators::{
    clustered_reduce_instance, clustered_scatter_instance, figure2, figure6, figure9,
    random_connected, tiers_reduce_instance, tiers_scatter_instance, ClusteredConfig,
};
use steady_platform::{NodeId, Platform, RandomConfig, TiersConfig};
use steady_rational::{rat, Ratio};
use steady_sim::Dag;

use crate::check::check_optimal;
use crate::trace::SpanBuf;

/// A collective problem of any kind.
pub enum Problem {
    /// Scatter (`SSSP(G)`).
    Scatter(ScatterProblem),
    /// Gather.
    Gather(GatherProblem),
    /// Gossip (`SSPA2A(G)`).
    Gossip(GossipProblem),
    /// Reduce (`SSR(G)`).
    Reduce(ReduceProblem),
    /// Parallel prefix.
    Prefix(PrefixProblem),
}

/// One named instance of a workload's list.
pub struct Instance {
    /// Readable name, e.g. `clustered-reduce-n25-s3`.
    pub name: String,
    /// The problem.
    pub problem: Problem,
    /// The paper's published optimum, when the instance is a paper figure.
    pub expect: Option<Ratio>,
}

/// The per-collective calls the pipeline and the checks need beyond
/// [`SteadyProblem`].
trait Collective: SteadyProblem {
    fn platform(&self) -> &Platform;
    fn throughput(solution: &Self::Solution) -> Ratio;
    fn verify(solution: &Self::Solution, problem: &Self) -> Result<(), String>;
    fn schedule(solution: &Self::Solution, problem: &Self) -> Result<PeriodicSchedule, CoreError>;
    /// Baseline algorithms simulated for `ops` pipelined operations.
    fn baselines(&self, ops: usize) -> Vec<(&'static str, Dag)>;
}

macro_rules! collective {
    ($problem:ty, |$p:ident, $ops:ident| $baselines:expr) => {
        impl Collective for $problem {
            fn platform(&self) -> &Platform {
                <$problem>::platform(self)
            }
            fn throughput(solution: &Self::Solution) -> Ratio {
                solution.throughput().clone()
            }
            fn verify(solution: &Self::Solution, problem: &Self) -> Result<(), String> {
                solution.verify(problem)
            }
            fn schedule(
                solution: &Self::Solution,
                problem: &Self,
            ) -> Result<PeriodicSchedule, CoreError> {
                solution.build_schedule(problem)
            }
            fn baselines(&self, $ops: usize) -> Vec<(&'static str, Dag)> {
                let $p = self;
                $baselines
            }
        }
    };
}

collective!(ScatterProblem, |p, ops| vec![
    ("direct-scatter", direct_scatter(p, ops)),
    ("binomial-scatter", binomial_scatter(p, ops)),
]);
collective!(GatherProblem, |p, ops| vec![("direct-gather", direct_gather(p, ops))]);
collective!(GossipProblem, |p, ops| vec![("direct-gossip", direct_gossip(p, ops))]);
collective!(ReduceProblem, |p, ops| vec![
    ("flat-tree-reduce", flat_tree_reduce(p, ops)),
    ("binomial-reduce", binomial_reduce(p, ops)),
    ("chain-reduce", chain_reduce(p, ops)),
]);
collective!(PrefixProblem, |_p, _ops| Vec::new());

/// What one cold solve measured and produced.
pub struct Solved {
    /// Wall time from formulate to a certified answer plus its schedule.
    pub nanos: u64,
    /// The certified optimum.
    pub throughput: Ratio,
    /// How the solver certified it.
    pub certificate: Certificate,
    /// Pivots the solver reported.
    pub pivots: usize,
    /// Phase-1 pivots the solver reported.
    pub phase1_pivots: usize,
    /// The solver's event timeline (traced runs only).
    pub recording: Option<SolveRecording>,
}

/// How deep the checks go: the exact certificate, `verify` and the
/// schedule always; the simulated baselines only when asked (they depend
/// on the instance, not on the answer, so once per instance is enough).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Checks {
    /// Certificate, `verify`, schedule.
    Answer,
    /// Also the simulated baselines.
    WithBaselines,
}

/// Pipelined operations simulated per baseline.
const BASELINE_OPS: usize = 4;

fn pipeline<P: Collective, O: SolveObserver>(
    problem: &P,
    buf: &mut SpanBuf,
    obs: &mut O,
) -> Result<(steady_lp::LpProblem, CertifiedSolution, P::Solution, PeriodicSchedule, u64), String> {
    let started = Instant::now();
    let (lp, vars) = buf.span("core.formulate", |_| problem.formulate());
    let cert = buf
        .span("linprog.solve", |_| steady_lp::solve_exact_auto_observed(&lp, None, obs))
        .map_err(|e| format!("solve failed: {e}"))?;
    let solution = buf.span("core.interpret", |_| problem.interpret(&vars, &cert.values));
    let schedule = buf
        .span("core.schedule", |_| P::schedule(&solution, problem))
        .map_err(|e| format!("schedule construction failed: {e}"))?;
    let nanos = started.elapsed().as_nanos() as u64;
    Ok((lp, cert, solution, schedule, nanos))
}

/// Why a solve counts as a failed operation.
#[derive(Debug, Clone)]
pub enum Failure {
    /// The program returned an error or panicked.
    Error(String),
    /// The program returned an answer that failed a check.
    Wrong(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "error: {e}"),
            Failure::Wrong(e) => write!(f, "wrong answer: {e}"),
        }
    }
}

fn solve_one<P: Collective>(
    problem: &P,
    expect: Option<&Ratio>,
    buf: &mut SpanBuf,
    checks: Checks,
) -> Result<Solved, Failure> {
    let (lp, cert, solution, schedule, nanos, recording) = if buf.enabled() {
        let mut obs = RecordingObserver::unbounded();
        let (lp, cert, solution, schedule, nanos) =
            pipeline(problem, buf, &mut obs).map_err(Failure::Error)?;
        (lp, cert, solution, schedule, nanos, Some(obs.finish()))
    } else {
        let (lp, cert, solution, schedule, nanos) =
            pipeline(problem, buf, &mut NoopObserver).map_err(Failure::Error)?;
        (lp, cert, solution, schedule, nanos, None)
    };
    let throughput = P::throughput(&solution);
    buf.span("bench.check", |_| -> Result<(), String> {
        check_optimal(&lp, &cert.values, &cert.duals, &cert.objective)
            .map_err(|e| format!("exact certificate check failed: {e}"))?;
        if throughput != cert.objective {
            return Err(format!("throughput {throughput} differs from the LP optimum"));
        }
        P::verify(&solution, problem).map_err(|e| format!("verify failed: {e}"))?;
        if let Some(expect) = expect {
            if throughput != *expect {
                return Err(format!("throughput {throughput}, the paper gives {expect}"));
            }
        }
        schedule.validate(problem.platform()).map_err(|e| format!("invalid schedule: {e}"))?;
        if schedule.throughput() != throughput {
            return Err(format!(
                "schedule throughput {} differs from the LP throughput {throughput}",
                schedule.throughput()
            ));
        }
        if checks == Checks::WithBaselines {
            for (name, dag) in problem.baselines(BASELINE_OPS) {
                let report = measure_pipelined_throughput(problem.platform(), &dag, BASELINE_OPS)
                    .map_err(|e| format!("baseline {name} did not simulate: {e}"))?;
                if report.throughput > throughput {
                    return Err(format!(
                        "baseline {name} reaches {} above the optimum {throughput}",
                        report.throughput
                    ));
                }
            }
        }
        Ok(())
    })
    .map_err(Failure::Wrong)?;
    Ok(Solved {
        nanos,
        throughput,
        certificate: cert.certificate,
        pivots: cert.iterations,
        phase1_pivots: cert.phase1_iterations,
        recording,
    })
}

impl Instance {
    /// Solves the instance cold and checks the answer; `Err` is a failed
    /// operation (solver error or a check that did not pass).
    pub fn solve(&self, buf: &mut SpanBuf, checks: Checks) -> Result<Solved, Failure> {
        let expect = self.expect.as_ref();
        buf.span("bench.solve", |buf| {
            let depth = buf.depth();
            let run = std::panic::AssertUnwindSafe(|| match &self.problem {
                Problem::Scatter(p) => solve_one(p, expect, buf, checks),
                Problem::Gather(p) => solve_one(p, expect, buf, checks),
                Problem::Gossip(p) => solve_one(p, expect, buf, checks),
                Problem::Reduce(p) => solve_one(p, expect, buf, checks),
                Problem::Prefix(p) => solve_one(p, expect, buf, checks),
            });
            let outcome = std::panic::catch_unwind(run);
            buf.unwind_to(depth);
            outcome.unwrap_or_else(|_| Err(Failure::Error("the solve panicked".into())))
        })
        .map_err(|failure| match failure {
            Failure::Error(e) => Failure::Error(format!("{}: {e}", self.name)),
            Failure::Wrong(e) => Failure::Wrong(format!("{}: {e}", self.name)),
        })
    }
}

/// The checked cold optimum of a query (certificate, `verify`, schedule).
pub fn reference(problem: Problem, name: String) -> Result<Ratio, Failure> {
    let instance = Instance { name, problem, expect: None };
    let mut buf = SpanBuf::new(false, Instant::now(), 0);
    instance.solve(&mut buf, Checks::Answer).map(|solved| solved.throughput)
}

fn reduce(name: String, instance: steady_platform::ReduceInstance) -> Instance {
    let problem = ReduceProblem::from_instance(instance).expect("generated reduce is valid");
    Instance { name, problem: Problem::Reduce(problem), expect: None }
}

fn figure9_prefix(participants: usize) -> Instance {
    let mut instance = figure9();
    instance.participants.truncate(participants);
    assert!(instance.participants.contains(&instance.target), "the paper's target stays in");
    reduce(format!("figure9-reduce-p{participants}"), instance)
}

/// Platforms and node counts of the clustered reduce sweep, and its seeds.
/// The seeds are fixed: several of these LPs fail float certification
/// today and fall back to the exact simplex, and they stay in the list as
/// regression cases whatever `--seed` is.
pub const CLUSTERED_REDUCE_SIZES: [usize; 4] = [16, 20, 25, 30];
/// See [`CLUSTERED_REDUCE_SIZES`].
pub const CLUSTERED_REDUCE_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 42];
/// Participants of every clustered reduce.
pub const CLUSTERED_REDUCE_PARTICIPANTS: usize = 4;

/// The `solve-small` list: the paper's figures, seeded Tiers and random
/// platforms for every collective kind, and the fixed clustered reduce
/// sweep.  Every LP stays under the revised-route threshold.
pub fn small_instances(seed: u64) -> Vec<Instance> {
    let mut list = Vec::new();
    let fig2 = ScatterProblem::from_instance(figure2()).expect("figure 2 is valid");
    list.push(Instance {
        name: "figure2-scatter".into(),
        problem: Problem::Scatter(fig2),
        expect: Some(rat(1, 2)),
    });
    let fig6 = ReduceProblem::from_instance(figure6()).expect("figure 6 is valid");
    list.push(Instance {
        name: "figure6-reduce".into(),
        problem: Problem::Reduce(fig6),
        expect: Some(rat(1, 1)),
    });
    list.push(figure9_prefix(6));
    list.push(figure9_prefix(7));

    // The reduce LP grows with the square of the participant count (all
    // hosts participate), so the Tiers reduce keeps to 4 hosts; the scatter
    // uses the default 9-host hierarchy.
    let small_tiers =
        TiersConfig { wan_routers: 2, man_per_wan: 1, lan_per_man: 2, ..TiersConfig::default() };
    list.push(reduce(format!("tiers-reduce-s{seed}"), tiers_reduce_instance(&small_tiers, seed)));
    let scatter = tiers_scatter_instance(&TiersConfig::default(), seed);
    list.push(Instance {
        name: format!("tiers-scatter-s{seed}"),
        problem: Problem::Scatter(ScatterProblem::from_instance(scatter).expect("valid scatter")),
        expect: None,
    });

    let random = |nodes: usize, salt: u64| {
        let config = RandomConfig { nodes, ..RandomConfig::default() };
        random_connected(&config, &mut rand::SeedableRng::seed_from_u64(seed ^ salt))
    };
    let ids = |k: usize| (0..k).map(NodeId).collect::<Vec<_>>();
    let gather = GatherProblem::new(random(7, 0x6a7), ids(7)[1..].to_vec(), NodeId(0))
        .expect("random gather is valid");
    list.push(Instance {
        name: format!("random-gather-s{seed}"),
        problem: Problem::Gather(gather),
        expect: None,
    });
    let gossip = GossipProblem::new(random(6, 0x605), ids(3), ids(6)[3..].to_vec())
        .expect("random gossip is valid");
    list.push(Instance {
        name: format!("random-gossip-s{seed}"),
        problem: Problem::Gossip(gossip),
        expect: None,
    });
    let prefix = PrefixProblem::new(random(5, 0x9f1), ids(4), rat(1, 1), rat(1, 1))
        .expect("random prefix is valid");
    list.push(Instance {
        name: format!("random-prefix-s{seed}"),
        problem: Problem::Prefix(prefix),
        expect: None,
    });

    for &nodes in &CLUSTERED_REDUCE_SIZES {
        let config = ClusteredConfig::with_total_nodes(nodes);
        for &s in &CLUSTERED_REDUCE_SEEDS {
            let instance = clustered_reduce_instance(&config, CLUSTERED_REDUCE_PARTICIPANTS, s);
            list.push(reduce(format!("clustered-reduce-n{nodes}-s{s}"), instance));
        }
    }
    list
}

/// Node counts of the `solve-large` scatters.
pub const LARGE_SCATTER_SIZES: [usize; 4] = [200, 300, 400, 500];
/// Targets of every large scatter.
pub const LARGE_SCATTER_TARGETS: usize = 8;

/// Seed of the large platforms: `steady scaling-sweep`'s default, the
/// platforms ROADMAP's solver figures were measured on.  Fixed, whatever
/// `--seed` is: single-instance solve times differ by about 15% from one
/// generated platform to the next, which would swamp the run-to-run bounds
/// of a five-instance list.
pub const LARGE_SEED: u64 = 42;

/// The `solve-large` list: clustered scatters of 200–500 nodes plus one
/// 200-node clustered reduce, all above the revised-route threshold.
pub fn large_instances() -> Vec<Instance> {
    let mut list: Vec<Instance> = LARGE_SCATTER_SIZES
        .iter()
        .map(|&nodes| {
            let config = ClusteredConfig::with_total_nodes(nodes);
            let instance = clustered_scatter_instance(&config, LARGE_SCATTER_TARGETS, LARGE_SEED);
            Instance {
                name: format!("clustered-scatter-n{nodes}-s{LARGE_SEED}"),
                problem: Problem::Scatter(
                    ScatterProblem::from_instance(instance).expect("valid scatter"),
                ),
                expect: None,
            }
        })
        .collect();
    let config = ClusteredConfig::with_total_nodes(200);
    list.push(reduce(
        format!("clustered-reduce-n200-s{LARGE_SEED}"),
        clustered_reduce_instance(&config, CLUSTERED_REDUCE_PARTICIPANTS, LARGE_SEED),
    ));
    list
}

/// Solver-layer figures folded from one solve's event timeline.
#[derive(Debug, Clone, Default)]
pub struct SolverSplit {
    /// Phase-1 wall time, nanoseconds.
    pub phase1_nanos: u64,
    /// Phase-2 (and dual repair) wall time, nanoseconds.
    pub phase2_nanos: u64,
    /// LU refactorization time (inside the phases), nanoseconds.
    pub refactor_nanos: u64,
    /// From the float run's last event to the certification verdict.
    pub certify_nanos: u64,
    /// From the fallback decision to the end of the exact re-solve.
    pub fallback_nanos: u64,
    /// Pivots counted in the stream.
    pub pivots: u64,
    /// Degenerate pivots.
    pub degenerate_pivots: u64,
    /// Refactorizations.
    pub refactorizations: u64,
    /// 1 when the certified pipeline fell back.
    pub fallbacks: u64,
}

impl SolverSplit {
    /// Folds a recording.  `certified_route` says whether the solve ran the
    /// float-then-certify pipeline (only then is there a certify step).
    pub fn of(recording: &SolveRecording, certified_route: bool) -> SolverSplit {
        let breakdown = recording.breakdown();
        let fallback_at =
            recording.events.iter().position(|e| matches!(e.event, SolveEvent::Fallback { .. }));
        let (certify_nanos, fallback_nanos) = match fallback_at {
            Some(i) => {
                let at = recording.events[i].at_nanos;
                let before = i.checked_sub(1).map_or(at, |j| recording.events[j].at_nanos);
                (at - before, recording.total_nanos.saturating_sub(at))
            }
            None if certified_route => {
                let last = recording.events.last().map_or(0, |e| e.at_nanos);
                (recording.total_nanos.saturating_sub(last), 0)
            }
            None => (0, 0),
        };
        let health = &recording.health;
        SolverSplit {
            phase1_nanos: breakdown.phase1_nanos,
            phase2_nanos: breakdown.phase2_nanos + breakdown.dual_nanos,
            refactor_nanos: breakdown.refactor_nanos,
            certify_nanos,
            fallback_nanos,
            pivots: health.pivots as u64,
            degenerate_pivots: health.degenerate_pivots as u64,
            refactorizations: health.refactorizations as u64,
            fallbacks: u64::from(health.fell_back()),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SolverSplit) {
        self.phase1_nanos += other.phase1_nanos;
        self.phase2_nanos += other.phase2_nanos;
        self.refactor_nanos += other.refactor_nanos;
        self.certify_nanos += other.certify_nanos;
        self.fallback_nanos += other.fallback_nanos;
        self.pivots += other.pivots;
        self.degenerate_pivots += other.degenerate_pivots;
        self.refactorizations += other.refactorizations;
        self.fallbacks += other.fallbacks;
    }
}

/// `true` when the recording shows the float-then-certify pipeline (a
/// phase-1 or phase-2 run in `f64` followed by certification) rather than
/// the direct exact simplex used for the smallest LPs.
pub fn ran_certified_route(solved: &Solved) -> bool {
    solved.certificate == Certificate::Optimal
        || solved.recording.as_ref().is_some_and(|r| r.health.fell_back())
}
