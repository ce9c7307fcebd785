//! Flow-space search: a budgeted front over [`EvalEngine::evaluate_batch`].
//!
//! A dataset-collection campaign (the paper labels 100,000 sample flows
//! across many designs) arrives as one job: many designs times many flows,
//! some already in the store, under a wall-clock or evaluation budget.
//! [`EvalEngine::search_flows`] takes the flows (a [`FlowSource`] resolves
//! them), answers what the persistent store already knows, and hands each
//! design's remaining flows to the batch path 64 at a time (`CHUNK_FLOWS`),
//! checking the budgets in between.  It owns no threads, queues or caches:
//! the chunks run on rayon at [`SearchConfig::workers`] threads, on the
//! engine's one graph and store.
//!
//! The batch path is deterministic at any thread count, so the labels, the
//! QoR bits **and every counter of the report** are the same for any
//! `workers`: those of per-design [`EvalEngine::evaluate_batch`] calls over
//! the same flows (when the cache budget evicts states between two chunks,
//! what is re-applied follows the cut, still not the threads).
//!
//! ```
//! use circuits::{Design, DesignScale};
//! use floweval::{EvalEngine, FlowSource, SearchConfig};
//!
//! let designs = vec![Design::Alu64.generate(DesignScale::Tiny)];
//! let engine = EvalEngine::default();
//! let flows = FlowSource::Random { seed: 7, count: 4 }.resolve();
//! let outcome = engine.search_flows(&designs, &flows, &SearchConfig::default());
//! assert_eq!(outcome.labels.len(), 4);
//! assert_eq!(outcome.report.evaluated, 4);
//! ```

use std::collections::HashSet;
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

/// Flow length of the paper's search space (§2.1: `m · n` with `n = 6`
/// transformations repeated `m = 4` times each).
pub const PAPER_FLOW_LEN: usize = 4 * Transform::COUNT;

/// Where a search gets its flows from.
#[derive(Debug, Clone)]
pub enum FlowSource {
    /// An explicit list of flows, evaluated as given.
    Explicit(Vec<Vec<Transform>>),
    /// `count` distinct flows sampled uniformly from the paper's §2.1 space
    /// (length-24 permutations of the six-transform multiset, four copies
    /// each), deterministically from `seed`.
    Random {
        /// Seed of the sampler; equal seeds yield equal flow lists.
        seed: u64,
        /// Number of distinct flows to draw.
        count: usize,
    },
    /// Every extension of `prefix` by all `6^depth` transform suffixes, in
    /// [`Transform::ALL`] order — the exhaustive expansion of one sub-trie.
    PrefixExpansion {
        /// The shared prefix each generated flow starts with.
        prefix: Vec<Transform>,
        /// Suffix length; the source yields `6^depth` flows (`depth ≤ 8`).
        depth: usize,
    },
}

impl FlowSource {
    /// Materializes the concrete flow list this source denotes.  The list is
    /// deterministic, so callers can compare an [`EvalEngine::search_flows`]
    /// run against [`EvalEngine::evaluate_batch`] over `resolve()`'s output.
    pub fn resolve(&self) -> Vec<Vec<Transform>> {
        match self {
            FlowSource::Explicit(flows) => flows.clone(),
            FlowSource::Random { seed, count } => sample_paper_space(*seed, *count),
            FlowSource::PrefixExpansion { prefix, depth } => {
                assert!(*depth <= 8, "prefix expansion depth {depth} > 8");
                let mut flows = vec![prefix.clone()];
                for _ in 0..*depth {
                    let mut next = Vec::with_capacity(flows.len() * Transform::COUNT);
                    for flow in &flows {
                        for &t in &Transform::ALL {
                            let mut extended = flow.clone();
                            extended.push(t);
                            next.push(extended);
                        }
                    }
                    flows = next;
                }
                flows
            }
        }
    }
}

/// Draws `count` distinct flows from the paper's space with a local
/// xorshift64* generator (floweval has no runtime `rand` dependency).
fn sample_paper_space(seed: u64, count: usize) -> Vec<Vec<Transform>> {
    let mut state = splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let mut rng = move || {
        // xorshift64*: cheap, full-period, deterministic across platforms.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    let base: Vec<Transform> = Transform::ALL
        .iter()
        .flat_map(|&t| std::iter::repeat_n(t, PAPER_FLOW_LEN / Transform::COUNT))
        .collect();
    let mut flows: Vec<Vec<Transform>> = Vec::with_capacity(count);
    let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(count);
    // The space holds 24!/(4!)^6 ≈ 3.2e15 flows, so collisions are rare; the
    // attempt bound only guards degenerate requests (count near the space
    // size at tiny lengths).
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(64).saturating_add(1024);
    while flows.len() < count && attempts < max_attempts {
        attempts += 1;
        let mut flow = base.clone();
        for i in (1..flow.len()).rev() {
            let j = (rng() % (i as u64 + 1)) as usize;
            flow.swap(i, j);
        }
        let key: Vec<u8> = flow.iter().map(|t| t.index() as u8).collect();
        if seen.insert(key) {
            flows.push(flow);
        }
    }
    flows
}

/// SplitMix64 finalizer: a high-quality 64-bit mix for seeding.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

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
    /// Index into the search's resolved flow list.
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
    /// Flows per design (the resolved flow-list length).
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
    fn random_source_is_deterministic_and_in_space() {
        let source = FlowSource::Random { seed: 42, count: 8 };
        let a = source.resolve();
        let b = source.resolve();
        assert_eq!(a, b, "equal seeds yield equal lists");
        assert_eq!(a.len(), 8);
        for flow in &a {
            assert_eq!(flow.len(), PAPER_FLOW_LEN);
            for t in Transform::ALL {
                assert_eq!(
                    flow.iter().filter(|&&x| x == t).count(),
                    PAPER_FLOW_LEN / Transform::COUNT,
                    "each transform appears exactly m times"
                );
            }
        }
        let distinct: HashSet<Vec<u8>> = a
            .iter()
            .map(|f| f.iter().map(|t| t.index() as u8).collect())
            .collect();
        assert_eq!(distinct.len(), a.len(), "flows are distinct");
        let other = FlowSource::Random { seed: 43, count: 8 }.resolve();
        assert_ne!(a, other, "different seeds explore differently");
    }

    #[test]
    fn prefix_expansion_counts() {
        use Transform::*;
        let source = FlowSource::PrefixExpansion {
            prefix: vec![Balance],
            depth: 2,
        };
        let flows = source.resolve();
        assert_eq!(flows.len(), 36);
        assert!(flows.iter().all(|f| f.len() == 3 && f[0] == Balance));
        let distinct: HashSet<Vec<u8>> = flows
            .iter()
            .map(|f| f.iter().map(|t| t.index() as u8).collect())
            .collect();
        assert_eq!(distinct.len(), 36);
    }

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
