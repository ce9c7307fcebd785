//! Flow-space search: a budgeted front over [`EvalEngine::evaluate_batch`].
//!
//! A dataset-collection campaign (the paper labels 100,000 sample flows
//! across many designs) arrives as one job: many designs times many flows,
//! some already in the store, under a wall-clock or evaluation budget.
//! [`EvalEngine::search_flows`] takes the flow list as given (the engine
//! evaluates flows, it does not choose them: `flowgen::FlowSpace` defines and
//! samples the paper's space), answers what the persistent store already
//! knows, and hands each design's remaining flows to the batch path 64 at a
//! time (`CHUNK_FLOWS`), checking the budgets in between.  It owns no
//! threads, queues or caches: the chunks run on rayon at
//! [`SearchConfig::workers`] threads, on the engine's one graph and store.
//!
//! The batch path is deterministic at any thread count, so the labels, the
//! QoR bits **and every counter of the report** are the same for any
//! `workers`: those of per-design [`EvalEngine::evaluate_batch`] calls over
//! the same flows (when the cache budget evicts states between two chunks,
//! what is re-applied follows the cut, still not the threads).
//!
//! ```
//! use circuits::{Design, DesignScale};
//! use floweval::{EvalEngine, SearchConfig};
//! use flowgen::FlowSpace;
//! use rand::SeedableRng;
//!
//! let designs = vec![Design::Alu64.generate(DesignScale::Tiny)];
//! let engine = EvalEngine::default();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let flows = FlowSpace::paper().random_unique_flows(4, &mut rng);
//! let outcome = engine.search_flows(&designs, &flows, &SearchConfig::default());
//! assert_eq!(outcome.labels.len(), 4);
//! assert_eq!(outcome.report.evaluated, 4);
//! ```

use std::time::Instant;

use aig::Aig;
use flow_core::{CancelToken, Fingerprint, NEVER_FIRES};
use serde::Serialize;
use synth::{Qor, Transform};

use crate::engine::{fingerprint_design, EvalEngine};
use crate::stats::EvalStats;

/// Flows handed to the batch path at a time.  The budgets are checked
/// between chunks, so this bounds how far a search runs past its wall-clock
/// budget, and it is the sampling step of the completion trajectory.
const CHUNK_FLOWS: usize = 64;

/// Budgets and thread count of one [`EvalEngine::search_flows`] run.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Rayon threads the evaluation runs on.  Clamped to at least 1.
    pub workers: usize,
    /// Stop dispatching new chunks once this much wall clock has elapsed.
    pub max_wall_s: Option<f64>,
    /// Evaluate at most this many flows (store hits are free and do not
    /// count).
    pub max_evals: Option<usize>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            workers: 4,
            max_wall_s: None,
            max_evals: None,
        }
    }
}

/// One labelled evaluation produced by a search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SearchLabel {
    /// Index into the search's design list.
    pub design: usize,
    /// Index into the search's flow list.
    pub flow: usize,
    /// The flow's quality of result (bit-identical to `evaluate_batch`).
    pub qor: Qor,
    /// Whether the label was answered from the persistent store.
    pub from_store: bool,
}

/// One point of the completion trajectory: after `t_s` seconds, `completed`
/// flows had been evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TrajectoryPoint {
    /// Seconds since the search started.
    pub t_s: f64,
    /// Cumulative evaluated-flow count at that time.
    pub completed: usize,
}

/// Counters and throughput summary of one search run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SearchReport {
    /// Designs in the workload.
    pub designs: usize,
    /// Flows per design (the flow-list length).
    pub flows: usize,
    /// Total jobs (`designs × flows`).
    pub jobs: usize,
    /// Rayon threads used.
    pub workers: usize,
    /// Jobs answered from the persistent store without evaluation.
    pub store_hits: usize,
    /// Jobs handed to the batch path.
    pub evaluated: usize,
    /// What this run committed to the engine's cumulative statistics: the
    /// kernel's own counters summed over the chunks, plus the store hits
    /// above.  Deterministic at any `workers`.
    pub eval: EvalStats,
    /// Wall-clock seconds of the whole search.
    pub wall_s: f64,
    /// Labelled evaluations per hour (`evaluated / wall_s × 3600`).
    pub evals_per_hour: f64,
    /// Whether the wall-clock budget stopped the run early.
    pub deadline_hit: bool,
    /// Whether the evaluation budget stopped the run early.
    pub eval_budget_hit: bool,
    /// Completion trajectory, one point per chunk, downsampled to at most
    /// 120 points.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// The result of one [`EvalEngine::search_flows`]: the labels, sorted by
/// `(design, flow)`, plus the run report.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Labels in `(design, flow)` order.  Complete unless a wall-clock or
    /// evaluation budget stopped the run early, in which case undispatched
    /// jobs are absent.
    pub labels: Vec<SearchLabel>,
    /// Each design's [`fingerprint_design`], in `designs` order: the
    /// fingerprint its labels are stored under.
    pub fingerprints: Vec<Fingerprint>,
    /// Counters and throughput of the run.
    pub report: SearchReport,
}

impl EvalEngine {
    /// Labels `flows` on each of `designs` under `config`'s budgets
    /// (`docs/ARCHITECTURE.md`, "Flow-space search"), bit-identically to
    /// [`EvalEngine::evaluate_batch`] over `flows` per design.
    pub fn search_flows<F: AsRef<[Transform]>>(
        &self,
        designs: &[Aig],
        flows: &[F],
        config: &SearchConfig,
    ) -> SearchOutcome {
        let start = Instant::now();
        let mut report = SearchReport {
            designs: designs.len(),
            flows: flows.len(),
            jobs: designs.len() * flows.len(),
            workers: config.workers.max(1),
            ..SearchReport::default()
        };

        // Store prefilter: known labels are returned whatever the budgets.
        let mut labels: Vec<SearchLabel> = Vec::with_capacity(report.jobs);
        let mut misses: Vec<Vec<usize>> = Vec::with_capacity(designs.len());
        let fingerprints: Vec<Fingerprint> = designs.iter().map(fingerprint_design).collect();
        for (d, &design_fp) in fingerprints.iter().enumerate() {
            let keys = self.store_keys(design_fp, flows);
            let mut missing = Vec::new();
            for (f, cached) in self.store_lookup_batch(&keys).into_iter().enumerate() {
                match cached {
                    Some(qor) => {
                        report.eval.passes_requested += flows[f].as_ref().len();
                        labels.push(SearchLabel {
                            design: d,
                            flow: f,
                            qor,
                            from_store: true,
                        });
                    }
                    None => missing.push(f),
                }
            }
            misses.push(missing);
        }
        report.store_hits = labels.len();
        report.eval.flows_requested = report.store_hits;
        report.eval.store_hits = report.store_hits;
        self.commit_stats(&report.eval, None);

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(report.workers)
            .build()
            .expect("a thread-count context always builds");
        let mut trajectory: Vec<TrajectoryPoint> = Vec::new();
        let never = CancelToken::never();
        'search: for (d, missing) in misses.iter().enumerate() {
            let mut rest = missing.as_slice();
            while !rest.is_empty() {
                let budget = config
                    .max_evals
                    .map_or(usize::MAX, |max| max.saturating_sub(report.evaluated));
                report.eval_budget_hit = budget == 0;
                report.deadline_hit = config
                    .max_wall_s
                    .is_some_and(|max| start.elapsed().as_secs_f64() >= max);
                if report.eval_budget_hit || report.deadline_hit {
                    break 'search;
                }
                let (chunk, tail) = rest.split_at(rest.len().min(CHUNK_FLOWS).min(budget));
                rest = tail;
                let chunk_flows: Vec<&[Transform]> =
                    chunk.iter().map(|&f| flows[f].as_ref()).collect();
                let (qors, stats) = pool
                    .install(|| {
                        self.evaluate(&designs[d], fingerprints[d], &chunk_flows, None, &never)
                    })
                    .expect(NEVER_FIRES);
                report.eval.absorb(&stats);
                report.evaluated += chunk.len();
                labels.extend(chunk.iter().zip(qors).map(|(&flow, qor)| SearchLabel {
                    design: d,
                    flow,
                    qor,
                    from_store: false,
                }));
                trajectory.push(TrajectoryPoint {
                    t_s: start.elapsed().as_secs_f64(),
                    completed: report.evaluated,
                });
            }
        }
        labels.sort_unstable_by_key(|l| (l.design, l.flow));
        report.trajectory = downsample_trajectory(trajectory, 120);
        report.wall_s = start.elapsed().as_secs_f64();
        report.evals_per_hour = if report.wall_s > 0.0 {
            report.evaluated as f64 / report.wall_s * 3600.0
        } else {
            0.0
        };
        SearchOutcome {
            labels,
            fingerprints,
            report,
        }
    }
}

/// Thins a trajectory to at most `max_points` evenly strided samples,
/// counted from the end so that the last one is kept.
fn downsample_trajectory(points: Vec<TrajectoryPoint>, max_points: usize) -> Vec<TrajectoryPoint> {
    let stride = points.len().div_ceil(max_points).max(1);
    let mut thinned: Vec<_> = points.into_iter().rev().step_by(stride).collect();
    thinned.reverse();
    thinned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_downsampling_keeps_the_tail() {
        let points: Vec<TrajectoryPoint> = (1..=1000)
            .map(|i| TrajectoryPoint {
                t_s: i as f64 / 100.0,
                completed: i,
            })
            .collect();
        let thinned = downsample_trajectory(points.clone(), 120);
        assert!(thinned.len() <= 120);
        assert_eq!(thinned.last(), points.last());
        assert!(thinned.windows(2).all(|w| w[0].completed < w[1].completed));
        assert_eq!(
            downsample_trajectory(points[..7].to_vec(), 120),
            points[..7]
        );
        assert!(downsample_trajectory(Vec::new(), 120).is_empty());
    }
}
