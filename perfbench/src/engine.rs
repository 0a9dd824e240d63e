//! Pieces the two serving workloads share: the checked reference answer of
//! a query, relabeling, and the per-layer figures read from the engine's
//! public metrics snapshot and counters.

use std::collections::BTreeMap;

use steady_core::{GatherProblem, GossipProblem, PrefixProblem, ReduceProblem, ScatterProblem};
use steady_platform::NodeId;
use steady_rational::Ratio;
use steady_service::{
    permuted_platform, Collective, HistogramSnapshot, MetricsSnapshot, Query, ServiceStats,
    SolveRecord,
};

use crate::solve::{reference, Failure, Problem};

/// The checked cold optimum of `query`, computed by the benchmark apart
/// from the service (formulate, certified solve, exact certificate check,
/// `verify`, schedule).
pub fn checked_optimum(query: &Query) -> Result<Ratio, Failure> {
    let platform = query.platform.clone();
    let invalid = |e: steady_core::CoreError| Failure::Error(format!("invalid query: {e}"));
    let problem = match &query.collective {
        Collective::Scatter { source, targets } => Problem::Scatter(
            ScatterProblem::new(platform, *source, targets.clone()).map_err(invalid)?,
        ),
        Collective::Gather { sources, sink } => {
            Problem::Gather(GatherProblem::new(platform, sources.clone(), *sink).map_err(invalid)?)
        }
        Collective::Gossip { sources, targets } => Problem::Gossip(
            GossipProblem::new(platform, sources.clone(), targets.clone()).map_err(invalid)?,
        ),
        Collective::Reduce { participants, target, size, task_cost } => Problem::Reduce(
            ReduceProblem::new(
                platform,
                participants.clone(),
                *target,
                size.clone(),
                task_cost.clone(),
            )
            .map_err(invalid)?,
        ),
        Collective::Prefix { participants, size, task_cost } => Problem::Prefix(
            PrefixProblem::new(platform, participants.clone(), size.clone(), task_cost.clone())
                .map_err(invalid)?,
        ),
    };
    reference(problem, format!("{} query", query.collective.kind_name()))
}

/// `query` with node `i` renamed to `perm[i]`: the same question asked
/// about an isomorphic copy of the platform.
pub fn relabeled(query: &Query, perm: &[usize]) -> Query {
    let map = |n: &NodeId| NodeId(perm[n.index()]);
    let maps = |ns: &[NodeId]| ns.iter().map(map).collect::<Vec<_>>();
    let collective = match &query.collective {
        Collective::Scatter { source, targets } => {
            Collective::Scatter { source: map(source), targets: maps(targets) }
        }
        Collective::Gather { sources, sink } => {
            Collective::Gather { sources: maps(sources), sink: map(sink) }
        }
        Collective::Gossip { sources, targets } => {
            Collective::Gossip { sources: maps(sources), targets: maps(targets) }
        }
        Collective::Reduce { participants, target, size, task_cost } => Collective::Reduce {
            participants: maps(participants),
            target: map(target),
            size: size.clone(),
            task_cost: task_cost.clone(),
        },
        Collective::Prefix { participants, size, task_cost } => Collective::Prefix {
            participants: maps(participants),
            size: size.clone(),
            task_cost: task_cost.clone(),
        },
    };
    Query { platform: permuted_platform(&query.platform, perm), collective }
}

/// Sums the histogram increments of several traced rounds by name.
#[derive(Default)]
pub struct EngineDeltas {
    histograms: BTreeMap<String, HistogramSnapshot>,
    stats: ServiceStats,
    /// Traced rounds folded in.
    rounds: u64,
}

/// Histograms the per-layer figures read.
const HISTOGRAMS: [&str; 6] = [
    "stage_lookup_nanos",
    "stage_publish_nanos",
    "lane_demand_wait_nanos",
    "lane_revalidation_wait_nanos",
    "stage_solve_warm_nanos",
    "stage_solve_cold_nanos",
];

/// Solver histograms of the engine: per-solve sums.
const SOLVER_HISTOGRAMS: [(&str, &str); 3] = [
    ("linprog.pivots", "solver_pivots"),
    ("linprog.degenerate_pivots", "solver_degenerate_pivots"),
    ("linprog.refactorizations", "solver_refactorizations"),
];

impl EngineDeltas {
    /// Folds in one round's increments.
    pub fn add(&mut self, metrics: &MetricsSnapshot, stats: &ServiceStats) {
        for name in HISTOGRAMS.iter().chain(SOLVER_HISTOGRAMS.iter().map(|(_, h)| h)) {
            if let Some(h) = metrics.histogram(name) {
                self.histograms
                    .entry(name.to_string())
                    .or_insert_with(HistogramSnapshot::empty)
                    .merge(h);
            }
        }
        let s = &mut self.stats;
        s.hits += stats.hits;
        s.misses += stats.misses;
        s.coalesced += stats.coalesced;
        s.triaged += stats.triaged;
        s.in_range += stats.in_range;
        s.dual_repairs += stats.dual_repairs;
        self.rounds += 1;
    }

    fn p(&self, name: &str, q: f64) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| {
            if h.count() == 0 {
                0.0
            } else {
                h.quantile(q) as f64 / 1e3
            }
        })
    }

    /// Writes the service, sched, drift and engine-side solver metrics,
    /// counts per round.  `records` are the solver flight-recorder entries
    /// of the traced rounds (every solve that fell back is among them).
    pub fn write(&self, metrics: &mut BTreeMap<&'static str, f64>, records: &[SolveRecord]) {
        let rounds = self.rounds.max(1) as f64;
        let s = &self.stats;
        metrics.insert("service.lookup_p50_us", self.p("stage_lookup_nanos", 0.5));
        metrics.insert("service.publish_p50_us", self.p("stage_publish_nanos", 0.5));
        metrics.insert("service.hits", s.hits as f64 / rounds);
        metrics.insert("service.misses", s.misses as f64 / rounds);
        metrics.insert("service.coalesced", s.coalesced as f64 / rounds);
        metrics.insert("service.hit_ratio", s.hit_ratio());
        metrics.insert("sched.demand_wait_p50_us", self.p("lane_demand_wait_nanos", 0.5));
        metrics.insert("sched.demand_wait_p99_us", self.p("lane_demand_wait_nanos", 0.99));
        metrics
            .insert("sched.revalidation_wait_p50_us", self.p("lane_revalidation_wait_nanos", 0.5));
        metrics.insert("drift.in_range", s.in_range as f64 / rounds);
        metrics.insert("drift.dual_repairs", s.dual_repairs as f64 / rounds);
        let resolved = s.triaged.saturating_sub(s.in_range + s.dual_repairs);
        metrics.insert("drift.resolved", resolved as f64 / rounds);
        metrics.insert("drift.reuse_ratio", s.triage_reuse_fraction());
        metrics.insert("drift.warm_solve_p50_us", self.p("stage_solve_warm_nanos", 0.5));
        metrics.insert("drift.cold_solve_p50_us", self.p("stage_solve_cold_nanos", 0.5));
        let mut solves = 0u64;
        for (metric, histogram) in SOLVER_HISTOGRAMS {
            let h = self.histograms.get(histogram);
            solves = solves.max(h.map_or(0, HistogramSnapshot::count));
            metrics.insert(metric, h.map_or(0, HistogramSnapshot::sum) as f64 / rounds);
        }
        let fell_back: Vec<&SolveRecord> =
            records.iter().filter(|r| r.health.fell_back()).collect();
        let fallback_nanos: u64 = fell_back
            .iter()
            .map(|r| {
                let at = r.timeline.iter().find_map(|e| {
                    matches!(e.event, steady_lp::SolveEvent::Fallback { .. }).then_some(e.at_nanos)
                });
                at.map_or(0, |at| r.solve_nanos.saturating_sub(at))
            })
            .sum();
        metrics.insert("linprog.fallbacks", fell_back.len() as f64 / rounds);
        metrics.insert("linprog.fallback_ms", fallback_nanos as f64 / 1e6 / rounds);
        if solves > 0 {
            metrics.insert("linprog.certified_ratio", 1.0 - fell_back.len() as f64 / solves as f64);
        }
    }
}

/// The median duration, in microseconds, of the spans named `name`.
pub fn span_p50_us(spans: &[crate::trace::Span], name: &str) -> f64 {
    let durations: Vec<u64> =
        spans.iter().filter(|s| s.name == name).map(|s| s.end_nanos - s.start_nanos).collect();
    crate::stats::quantile(&durations, 0.5) / 1e3
}
