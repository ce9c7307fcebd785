//! Sharded flow-space search: a work-stealing exploration orchestrator.
//!
//! [`EvalEngine::evaluate_batch`] parallelizes *within* one design's batch,
//! but a dataset-collection campaign (the paper labels 100,000 sample flows
//! across many designs) is a different shape of workload: many designs times
//! many flows, arriving as one big exploration job.  This module adds
//! [`EvalEngine::search`], which partitions that workload into **shards by
//! shared-prefix affinity** and runs one worker thread per shard — each
//! owning a recycling [`PassContext`] and calling the engine's evaluation
//! kernel, one flow at a time, against the engine's **shared state graph** —
//! and merges everything into the engine's single process-wide QoR store
//! (whose inserts are idempotent, so duplicated work dedups for free).
//!
//! Scheduling is **budget-aware**: each worker keeps an EMA cost model per
//! transform, seeded from the engine's cumulative [`PassTimings`] and updated
//! from its own context after every job, and picks the next flow from a
//! bounded window of its queue by *expected reuse per millisecond* — how many
//! of the flow's leading passes the state graph can already answer, divided
//! by the predicted cost of the remaining ones.  Workers that drain their
//! shard **steal half of the largest remaining queue** (from the cold end,
//! preserving the victim's affinity ordering at the front).
//!
//! Every pass and the mapper are deterministic functions of the graph they
//! are given, so the label set and the QoR bits are **identical to a
//! single-process [`EvalEngine::evaluate_batch`]** run over the same designs
//! and flows, for any worker count and any steal schedule — the differential
//! tests pin this for 1/2/4/8 workers and under injected stragglers.
//!
//! ```
//! use circuits::{Design, DesignScale};
//! use floweval::{EvalEngine, FlowSource, SearchConfig};
//!
//! let designs = vec![Design::Alu64.generate(DesignScale::Tiny)];
//! let engine = EvalEngine::default();
//! let source = FlowSource::Random { seed: 7, count: 4 };
//! let outcome = engine.search(&designs, &source, &SearchConfig::default());
//! assert_eq!(outcome.labels.len(), 4);
//! assert_eq!(outcome.report.evaluated, 4);
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aig::Aig;
use serde::Serialize;
use synth::{PassTimings, Qor, Transform};

use crate::engine::{fingerprint_design, EvalEngine};
use crate::kernel::Contexts;
use crate::stats::EvalStats;
use crate::store::StoreKey;

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
    /// deterministic, so callers can compare a [`EvalEngine::search`] run
    /// against [`EvalEngine::evaluate_batch`] over `resolve()`'s output.
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

/// SplitMix64 finalizer: a high-quality 64-bit mix for seeding and for the
/// per-job straggler-injection hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic slowdown injection for scheduling tests: a seeded fraction
/// of jobs sleeps before evaluating, forcing queue imbalance and steals
/// without ever changing a result.
#[derive(Debug, Clone, Copy)]
pub struct StragglerInjection {
    /// Seed of the per-job selection hash.
    pub seed: u64,
    /// Percentage (0–100) of jobs delayed.
    pub pct: u8,
    /// Delay applied to a selected job, in milliseconds.
    pub delay_ms: u64,
}

impl StragglerInjection {
    /// Whether the job `(design, flow)` is selected for delay.
    fn hits(&self, design: u32, flow: u32) -> bool {
        let h = splitmix64(self.seed ^ (u64::from(design) << 32) ^ u64::from(flow));
        (h % 100) < u64::from(self.pct.min(100))
    }
}

/// Tuning knobs of one [`EvalEngine::search`] run.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Worker threads (= shards).  Clamped to at least 1.
    pub workers: usize,
    /// Jobs are grouped by design and by their first `shard_prefix_len`
    /// transforms before shard assignment, so flows sharing a prefix land on
    /// the same worker and are evaluated back to back.
    pub shard_prefix_len: usize,
    /// The budget-aware scheduler scans up to this many jobs at the front of
    /// the worker's queue and picks the best reuse-per-cost score.
    pub schedule_window: usize,
    /// Evaluated results are flushed to the persistent store in batches of
    /// this size (one lock acquisition per batch).
    pub commit_batch: usize,
    /// Stop dispatching new jobs once this much wall clock has elapsed.
    pub max_wall_s: Option<f64>,
    /// Stop dispatching new jobs once this many flows have been evaluated
    /// (store hits are free and do not count).
    pub max_evals: Option<usize>,
    /// Deterministic straggler injection (tests only; `None` in production).
    pub straggler: Option<StragglerInjection>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            workers: 4,
            shard_prefix_len: 2,
            schedule_window: 64,
            commit_batch: 64,
            max_wall_s: None,
            max_evals: None,
            straggler: None,
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

/// One point of the merged completion trajectory: after `t_s` seconds,
/// `completed` flows had been evaluated.
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
    /// Worker threads used.
    pub workers: usize,
    /// Jobs answered from the persistent store without evaluation.
    pub store_hits: usize,
    /// Flows evaluated by the workers.
    pub evaluated: usize,
    /// Transform passes actually applied (after state-graph reuse).
    pub passes_applied: usize,
    /// Transform passes the flow list requested.
    pub passes_requested: usize,
    /// Jobs that started below their design's root state.
    pub trie_hits: usize,
    /// Steal events (one per half-queue transfer).
    pub steals: u64,
    /// Jobs moved between shards by stealing.
    pub stolen_jobs: u64,
    /// Cross-context hits of the engine-wide shared ISOP memo during the run.
    pub shared_isop_hits: u64,
    /// Cross-context misses of the engine-wide shared ISOP memo during the run.
    pub shared_isop_misses: u64,
    /// Store append errors (results still served from memory).
    pub store_write_errors: usize,
    /// Wall-clock seconds of the whole search.
    pub wall_s: f64,
    /// Labelled evaluations per hour (`evaluated / wall_s × 3600`).
    pub evals_per_hour: f64,
    /// Whether the wall-clock budget stopped the run early.
    pub deadline_hit: bool,
    /// Whether the evaluation budget stopped the run early.
    pub eval_budget_hit: bool,
    /// Downsampled completion trajectory (≤ 120 points).
    pub trajectory: Vec<TrajectoryPoint>,
}

/// The result of one [`EvalEngine::search`]: the labels, sorted by
/// `(design, flow)`, plus the run report.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Labels in `(design, flow)` order.  Complete unless a wall-clock or
    /// evaluation budget stopped the run early, in which case undispatched
    /// jobs are absent.
    pub labels: Vec<SearchLabel>,
    /// Counters and throughput of the run.
    pub report: SearchReport,
}

/// A job is an index into the `(design, flow)` cross product.
type JobId = u32;

/// Per-worker EMA cost model over the six transforms plus mapping, seeded
/// from the engine's cumulative timings and updated after every job.
#[derive(Debug, Clone)]
struct CostModel {
    pass_ms: [f64; Transform::COUNT],
    map_ms: f64,
}

impl CostModel {
    const ALPHA: f64 = 0.3;
    const DEFAULT_PASS_MS: f64 = 1.0;
    const DEFAULT_MAP_MS: f64 = 2.0;

    fn seeded(timings: &PassTimings) -> Self {
        let mut model = CostModel {
            pass_ms: [Self::DEFAULT_PASS_MS; Transform::COUNT],
            map_ms: Self::DEFAULT_MAP_MS,
        };
        for (slot, stat) in model.pass_ms.iter_mut().zip(&timings.passes) {
            if stat.calls > 0 {
                *slot = stat.seconds * 1e3 / stat.calls as f64;
            }
        }
        if timings.mapping.calls > 0 {
            model.map_ms = timings.mapping.seconds * 1e3 / timings.mapping.calls as f64;
        }
        model
    }

    fn update(&mut self, timings: &PassTimings) {
        for (slot, stat) in self.pass_ms.iter_mut().zip(&timings.passes) {
            if stat.calls > 0 {
                let avg = stat.seconds * 1e3 / stat.calls as f64;
                *slot = (1.0 - Self::ALPHA) * *slot + Self::ALPHA * avg;
            }
        }
        if timings.mapping.calls > 0 {
            let avg = timings.mapping.seconds * 1e3 / timings.mapping.calls as f64;
            self.map_ms = (1.0 - Self::ALPHA) * self.map_ms + Self::ALPHA * avg;
        }
    }

    /// Predicted milliseconds to finish `flow` from an already-cached prefix
    /// of length `done` (remaining passes plus the terminal mapping).
    fn remaining_ms(&self, flow: &[Transform], done: usize) -> f64 {
        let passes: f64 = flow[done.min(flow.len())..]
            .iter()
            .map(|t| self.pass_ms[t.index()])
            .sum();
        passes + self.map_ms
    }
}

/// Read-only state shared by all workers of one search.
struct SearchShared<'a> {
    engine: &'a EvalEngine,
    designs: &'a [Aig],
    flows: &'a [Vec<Transform>],
    jobs: &'a [(u32, u32)],
    keys: &'a [StoreKey],
    queues: &'a [Mutex<VecDeque<JobId>>],
    config: &'a SearchConfig,
    start: Instant,
    stop: AtomicBool,
    deadline_hit: AtomicBool,
    eval_budget_hit: AtomicBool,
    completed: AtomicUsize,
    steal_events: AtomicU64,
    stolen_jobs: AtomicU64,
}

/// One worker's private output, merged after join.
#[derive(Debug, Default)]
struct WorkerOut {
    results: Vec<(JobId, Qor)>,
    completion_times: Vec<f64>,
    /// The kernel's counters over this worker's jobs.
    stats: EvalStats,
    timings: PassTimings,
}

impl EvalEngine {
    /// Searches `source`'s flow space over `designs` with a sharded
    /// work-stealing worker pool (see `docs/ARCHITECTURE.md`, "Exploration
    /// orchestrator"); results are bit-identical to evaluating
    /// `source.resolve()` through [`EvalEngine::evaluate_batch`] per design.
    pub fn search(
        &self,
        designs: &[Aig],
        source: &FlowSource,
        config: &SearchConfig,
    ) -> SearchOutcome {
        let flows = source.resolve();
        self.search_flows(designs, &flows, config)
    }

    /// [`search`](Self::search) over an already-materialized flow list.
    pub fn search_flows(
        &self,
        designs: &[Aig],
        flows: &[Vec<Transform>],
        config: &SearchConfig,
    ) -> SearchOutcome {
        let start = Instant::now();
        let workers = config.workers.max(1);
        let isop_before = self.shared_isop_stats();
        let mut report = SearchReport {
            designs: designs.len(),
            flows: flows.len(),
            jobs: designs.len() * flows.len(),
            workers,
            passes_requested: designs.len() * flows.iter().map(Vec::len).sum::<usize>(),
            ..SearchReport::default()
        };

        // The job list and its store keys, in canonical (design, flow) order.
        let design_fps: Vec<_> = designs.iter().map(fingerprint_design).collect();
        let config_fp = self.config_fingerprint();
        let mut jobs: Vec<(u32, u32)> = Vec::with_capacity(report.jobs);
        let mut keys: Vec<StoreKey> = Vec::with_capacity(report.jobs);
        for (d, fp) in design_fps.iter().enumerate() {
            for (f, flow) in flows.iter().enumerate() {
                jobs.push((d as u32, f as u32));
                keys.push(StoreKey {
                    design: *fp,
                    config: config_fp,
                    flow: crate::engine::flow_script(flow),
                });
            }
        }

        // Store prefilter under one lock: known labels never reach a shard.
        let label = |job: usize, qor: Qor, from_store: bool| SearchLabel {
            design: jobs[job].0 as usize,
            flow: jobs[job].1 as usize,
            qor,
            from_store,
        };
        let mut labels: Vec<SearchLabel> = Vec::with_capacity(jobs.len());
        let mut misses: Vec<JobId> = Vec::new();
        for (idx, cached) in self.store_lookup_batch(&keys).into_iter().enumerate() {
            match cached {
                Some(qor) => labels.push(label(idx, qor, true)),
                None => misses.push(idx as JobId),
            }
        }
        report.store_hits = labels.len();

        let queues = shard_jobs(&misses, &jobs, flows, workers, config.shard_prefix_len);
        let shared = SearchShared {
            engine: self,
            designs,
            flows,
            jobs: &jobs,
            keys: &keys,
            queues: &queues,
            config,
            start,
            stop: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            eval_budget_hit: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            steal_events: AtomicU64::new(0),
            stolen_jobs: AtomicU64::new(0),
        };
        let seed_timings = self.pass_timings();

        let mut outs: Vec<WorkerOut> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let shared = &shared;
            let seed_timings = &seed_timings;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || worker_loop(shared, w, seed_timings)))
                .collect();
            for handle in handles {
                outs.push(handle.join().expect("search worker panicked"));
            }
        });

        // Merge worker outputs into the label list, the stats commit and the
        // completion trajectory.
        let mut merged_timings = PassTimings::default();
        let mut merged = EvalStats::default();
        let mut times: Vec<f64> = Vec::new();
        for out in outs {
            let evaluated = out.results.into_iter();
            labels.extend(evaluated.map(|(job, qor)| label(job as usize, qor, false)));
            times.extend(out.completion_times);
            merged.absorb(&out.stats);
            merged_timings.merge(&out.timings);
        }
        report.evaluated = merged.flows_evaluated;
        report.passes_applied = merged.passes_applied;
        report.trie_hits = merged.trie_hits;
        report.store_write_errors = merged.store_write_errors;
        labels.sort_unstable_by_key(|l| (l.design, l.flow));
        times.sort_unstable_by(f64::total_cmp);
        report.trajectory = downsample_trajectory(&times, 120);
        report.steals = shared.steal_events.load(Ordering::Relaxed);
        report.stolen_jobs = shared.stolen_jobs.load(Ordering::Relaxed);
        report.deadline_hit = shared.deadline_hit.load(Ordering::Relaxed);
        report.eval_budget_hit = shared.eval_budget_hit.load(Ordering::Relaxed);
        let isop_after = self.shared_isop_stats();
        report.shared_isop_hits = isop_after.0 - isop_before.0;
        report.shared_isop_misses = isop_after.1 - isop_before.1;
        report.wall_s = start.elapsed().as_secs_f64();
        report.evals_per_hour = if report.wall_s > 0.0 {
            report.evaluated as f64 / report.wall_s * 3600.0
        } else {
            0.0
        };

        self.commit_stats(
            &EvalStats {
                flows_requested: report.jobs,
                store_hits: report.store_hits,
                passes_requested: report.passes_requested,
                wall_s: report.wall_s,
                ..merged
            },
            Some(&merged_timings),
        );
        SearchOutcome { labels, report }
    }
}

/// Groups miss jobs by `(design, first shard_prefix_len transforms)`, orders
/// each group lexicographically (consecutive jobs share the deepest
/// prefixes), and assigns whole groups to worker queues longest-processing-
/// time-first so predicted load balances.
fn shard_jobs(
    misses: &[JobId],
    jobs: &[(u32, u32)],
    flows: &[Vec<Transform>],
    workers: usize,
    prefix_len: usize,
) -> Vec<Mutex<VecDeque<JobId>>> {
    let mut groups: HashMap<(u32, u64), Vec<JobId>> = HashMap::new();
    for &job in misses {
        let (d, f) = jobs[job as usize];
        let flow = &flows[f as usize];
        let mut affinity = 0u64;
        for t in flow.iter().take(prefix_len) {
            affinity = affinity * (Transform::COUNT as u64 + 1) + t.index() as u64 + 1;
        }
        groups.entry((d, affinity)).or_default().push(job);
    }
    let mut ordered: Vec<((u32, u64), Vec<JobId>)> = groups.into_iter().collect();
    for (_, members) in ordered.iter_mut() {
        members.sort_unstable_by(|&a, &b| {
            let fa = &flows[jobs[a as usize].1 as usize];
            let fb = &flows[jobs[b as usize].1 as usize];
            fa.iter()
                .map(|t| t.index())
                .cmp(fb.iter().map(|t| t.index()))
                .then(a.cmp(&b))
        });
    }
    // LPT on predicted group cost: pass count plus one mapping per job.
    ordered.sort_unstable_by(|(ka, va), (kb, vb)| {
        let cost = |v: &Vec<JobId>| -> usize {
            v.iter()
                .map(|&j| flows[jobs[j as usize].1 as usize].len() + 1)
                .sum()
        };
        cost(vb).cmp(&cost(va)).then(ka.cmp(kb))
    });
    let mut queues: Vec<VecDeque<JobId>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut loads = vec![0usize; workers];
    for (_, members) in ordered {
        let cost: usize = members
            .iter()
            .map(|&j| flows[jobs[j as usize].1 as usize].len() + 1)
            .sum();
        let target = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, l)| *l)
            .map(|(i, _)| i)
            .unwrap_or(0);
        loads[target] += cost;
        queues[target].extend(members);
    }
    queues.into_iter().map(Mutex::new).collect()
}

/// The body of one search worker: drain the own shard with budget-aware
/// picks, then steal; evaluate each job through the engine's kernel against
/// the shared state graph; flush results to the store in batches.
fn worker_loop(shared: &SearchShared<'_>, me: usize, seed_timings: &PassTimings) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut pctx = shared.engine.pass_context();
    let mut model = CostModel::seeded(seed_timings);
    let mut pending: Vec<(StoreKey, Qor)> = Vec::new();
    let never = flow_core::CancelToken::never();

    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(max_wall_s) = shared.config.max_wall_s {
            if shared.start.elapsed().as_secs_f64() >= max_wall_s {
                shared.deadline_hit.store(true, Ordering::Relaxed);
                shared.stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        let job = match pick_job(shared, me, &model) {
            Some(job) => job,
            None => match steal(shared, me) {
                Some(()) => continue,
                None => break,
            },
        };

        let (d, f) = shared.jobs[job as usize];
        if let Some(straggler) = shared.config.straggler {
            if straggler.hits(d, f) {
                std::thread::sleep(std::time::Duration::from_millis(straggler.delay_ms));
            }
        }
        let key = &shared.keys[job as usize];
        let qor = shared.engine.drive(
            &shared.designs[d as usize],
            key.design,
            std::slice::from_ref(&shared.flows[f as usize]),
            Contexts::Lent(&mut pctx, &never),
            &mut out.stats,
        )[0];
        out.results.push((job, qor));
        out.stats.flows_evaluated += 1;
        out.completion_times
            .push(shared.start.elapsed().as_secs_f64());
        pending.push((key.clone(), qor));
        if pending.len() >= shared.config.commit_batch.max(1) {
            out.stats.store_write_errors += shared
                .engine
                .store_insert_batch(std::mem::take(&mut pending));
        }
        let job_timings = pctx.take_timings();
        model.update(&job_timings);
        out.timings.merge(&job_timings);

        let completed = shared.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max_evals) = shared.config.max_evals {
            if completed >= max_evals {
                shared.eval_budget_hit.store(true, Ordering::Relaxed);
                shared.stop.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
    if !pending.is_empty() {
        out.stats.store_write_errors += shared.engine.store_insert_batch(pending);
    }
    out
}

/// Budget-aware pick: scan up to `schedule_window` jobs at the front of the
/// own queue and take the one with the best known-depth (leading passes the
/// state graph already answers) per predicted remaining cost.  Ties break
/// toward the front (deterministic).
fn pick_job(shared: &SearchShared<'_>, me: usize, model: &CostModel) -> Option<JobId> {
    let mut queue = shared.queues[me].lock().expect("shard queue lock");
    if queue.is_empty() {
        return None;
    }
    let window = shared.config.schedule_window.max(1).min(queue.len());
    let mut best: (usize, f64) = (0, f64::NEG_INFINITY);
    for (i, &job) in queue.iter().take(window).enumerate() {
        let flow = &shared.flows[shared.jobs[job as usize].1 as usize];
        let depth = shared
            .engine
            .known_depth(shared.keys[job as usize].design, flow);
        let cost_ms = model.remaining_ms(flow, depth).max(1e-9);
        let score = (depth as f64 + 1.0) / cost_ms;
        if score > best.1 {
            best = (i, score);
        }
    }
    queue.remove(best.0)
}

/// Steals half of the most-loaded other queue (from the back — the cold end
/// of the victim's affinity order) into the own queue.  Returns `None` when
/// every queue is empty.
fn steal(shared: &SearchShared<'_>, me: usize) -> Option<()> {
    let mut victim: Option<(usize, usize)> = None;
    for (i, queue) in shared.queues.iter().enumerate() {
        if i == me {
            continue;
        }
        let len = queue.lock().expect("shard queue lock").len();
        let better = match victim {
            Some((_, best_len)) => len > best_len,
            None => len > 0,
        };
        if better {
            victim = Some((i, len));
        }
    }
    let (victim, _) = victim?;
    let mut batch: Vec<JobId> = Vec::new();
    {
        let mut queue = shared.queues[victim].lock().expect("shard queue lock");
        let take = queue.len().div_ceil(2);
        for _ in 0..take {
            match queue.pop_back() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
    }
    if batch.is_empty() {
        return None;
    }
    batch.reverse(); // restore the victim's affinity order
    shared.steal_events.fetch_add(1, Ordering::Relaxed);
    shared
        .stolen_jobs
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    let mut queue = shared.queues[me].lock().expect("shard queue lock");
    queue.extend(batch);
    Some(())
}

/// Turns sorted completion times into a cumulative trajectory of at most
/// `max_points` samples (always keeping the last).
fn downsample_trajectory(times: &[f64], max_points: usize) -> Vec<TrajectoryPoint> {
    if times.is_empty() {
        return Vec::new();
    }
    let stride = times.len().div_ceil(max_points.max(1));
    let mut points: Vec<TrajectoryPoint> = times
        .iter()
        .enumerate()
        .filter(|(i, _)| (i + 1) % stride == 0)
        .map(|(i, &t_s)| TrajectoryPoint {
            t_s,
            completed: i + 1,
        })
        .collect();
    let last = TrajectoryPoint {
        t_s: times[times.len() - 1],
        completed: times.len(),
    };
    if points.last().map(|p| p.completed) != Some(last.completed) {
        points.push(last);
    }
    points
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
    fn straggler_selection_is_deterministic_and_bounded() {
        let inj = StragglerInjection {
            seed: 9,
            pct: 25,
            delay_ms: 1,
        };
        let hits: Vec<bool> = (0..400).map(|f| inj.hits(0, f)).collect();
        let again: Vec<bool> = (0..400).map(|f| inj.hits(0, f)).collect();
        assert_eq!(hits, again);
        let count = hits.iter().filter(|&&h| h).count();
        assert!(count > 0 && count < 400, "roughly pct of jobs selected");
        let none = StragglerInjection {
            seed: 9,
            pct: 0,
            delay_ms: 1,
        };
        assert!((0..400).all(|f| !none.hits(0, f)));
    }

    #[test]
    fn shard_affinity_keeps_prefix_groups_together() {
        use Transform::*;
        let flows = vec![
            vec![Balance, Rewrite, Refactor],
            vec![Balance, Rewrite, Restructure],
            vec![Refactor, Balance, Rewrite],
            vec![Refactor, Balance, Restructure],
        ];
        let jobs: Vec<(u32, u32)> = (0..4).map(|f| (0, f)).collect();
        let misses: Vec<JobId> = (0..4).collect();
        let queues = shard_jobs(&misses, &jobs, &flows, 2, 2);
        assert_eq!(queues.len(), 2);
        for queue in &queues {
            let queue = queue.lock().unwrap();
            assert_eq!(queue.len(), 2, "LPT balances the two groups");
            let prefixes: HashSet<Vec<usize>> = queue
                .iter()
                .map(|&j| flows[j as usize][..2].iter().map(|t| t.index()).collect())
                .collect();
            assert_eq!(prefixes.len(), 1, "one shared prefix per shard");
        }
    }

    #[test]
    fn trajectory_downsampling_keeps_the_tail() {
        let times: Vec<f64> = (1..=1000).map(|i| i as f64 / 100.0).collect();
        let points = downsample_trajectory(&times, 120);
        assert!(points.len() <= 121);
        assert_eq!(points.last().unwrap().completed, 1000);
        assert!(points.windows(2).all(|w| w[0].completed < w[1].completed));
        assert!(downsample_trajectory(&[], 120).is_empty());
    }

    #[test]
    fn cost_model_prefers_cached_prefixes() {
        let model = CostModel::seeded(&PassTimings::default());
        use Transform::*;
        let flow = vec![Balance, Rewrite, Refactor, Restructure];
        assert!(model.remaining_ms(&flow, 3) < model.remaining_ms(&flow, 0));
    }
}
