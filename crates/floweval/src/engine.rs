//! The cache-aware evaluation engine.
//!
//! [`EvalEngine::evaluate_batch`] is the one batch driver (the framework's
//! hot path, dataset collection and search);
//! [`EvalEngine::evaluate_flow_with_ctx`] is the same thing for one flow on a
//! caller-owned context (the `flowd` request path).  Both are served in two layers:
//!
//! 1. **Persistent QoR store** — flows already evaluated for this design and
//!    configuration (in this process or a previous one) are answered without
//!    touching the synthesis passes at all.  Keyed by *flow*.
//! 2. **State graph** — the remaining flows go through the evaluation kernel
//!    (`kernel.rs`) against the engine's one content-addressed state graph
//!    (`state.rs`), keyed by *graph content*: each distinct
//!    `(graph, transform)` edge is applied once, passes known to change
//!    nothing are skipped, converging flows share everything downstream, and
//!    each distinct terminal graph is mapped once.
//!
//! Because every synthesis pass and the mapper are deterministic functions of
//! the graph they are given (the kernel asserts this whenever it recomputes a
//! known edge), the engine returns **bit-identical** QoR to `FlowRunner::run`
//! (the integration tests assert this), while applying far fewer passes.

use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

use aig::{Aig, CutParams, NodeKind};
use flow_core::{CancelToken, Cancelled, Fingerprint, Fnv64, NEVER_FIRES};
use synth::{CellLibrary, PassContext, PassTimings, Qor, Transform};

use crate::kernel::Contexts;
use crate::state::{CacheSummary, StateGraph, MAX_STATES};
use crate::stats::EvalStats;
use crate::store::{QorStore, StoreKey};

/// Tuning knobs of the evaluation engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Memory budget for resident intermediate AIGs, in total AIG nodes,
    /// **process-wide**: one least-recently-used budget over every design
    /// this engine evaluates.  What is evicted is recomputed on demand.
    pub cache_budget_aig_nodes: usize,
    /// Optional base path backing the persistent QoR store (the base of a v2
    /// segmented store; a plain JSON-lines file from before v2 is refused).
    pub store_path: Option<PathBuf>,
    /// Settings of the persistent store (its segment rotation size).
    pub store_options: crate::store::StoreOptions,
    /// Functionally verify evaluated flows by random simulation against the
    /// input design (the analogue of `FlowRunner::with_verification`): every
    /// distinct (design, final graph) pair is checked at least once.
    /// A verification failure panics: it means a synthesis pass is broken.
    pub verify: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_budget_aig_nodes: 4_000_000,
            store_path: None,
            store_options: crate::store::StoreOptions::default(),
            verify: false,
        }
    }
}

/// Cumulative statistics behind one (cheap, rarely contended) lock.
#[derive(Debug, Default)]
struct StatsState {
    stats: EvalStats,
    timings: PassTimings,
}

/// The cache-aware flow-evaluation engine.
///
/// ```
/// use circuits::{Design, DesignScale};
/// use floweval::EvalEngine;
/// use synth::Transform;
///
/// let design = Design::Alu64.generate(DesignScale::Tiny);
/// let engine = EvalEngine::default();
/// let flows = vec![
///     vec![Transform::Balance, Transform::Rewrite],
///     vec![Transform::Balance, Transform::Refactor],
/// ];
/// let first = engine.evaluate_batch(&design, &flows);
/// let second = engine.evaluate_batch(&design, &flows);
/// assert_eq!(first, second);
/// assert_eq!(engine.stats().store_hits, 2, "second batch is all store hits");
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    pub(crate) library: CellLibrary,
    config_fp: Fingerprint,
    pub(crate) config: EngineConfig,
    /// The persistent QoR store.  Lookups and appends are short critical
    /// sections; evaluation never runs under this lock.
    store: Mutex<QorStore>,
    /// The content-addressed state graph shared by every caller.  One lock:
    /// its critical sections are hash-map probes and `Arc` hand-offs, never
    /// a copy, a pass or a mapping.
    pub(crate) graph: Mutex<StateGraph>,
    /// Signalled whenever a caller releases claimed work in the graph.
    pub(crate) graph_changed: Condvar,
    /// Recycled evaluation contexts of the batch path's parallel waves.
    pub(crate) contexts: Mutex<Vec<PassContext>>,
    stats: Mutex<StatsState>,
    /// Engine-wide ISOP-cover memo handed to every context the engine
    /// creates, so covers computed by one worker (or one flow of a batch)
    /// serve every other.  Covers are pure functions of the truth table, so
    /// sharing is QoR-neutral.
    isop: synth::SharedIsopCache,
}

impl Default for EvalEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl EvalEngine {
    /// Creates an engine with the built-in library and default mapping.
    ///
    /// A store that fails to open is reported on stderr and replaced by an
    /// in-memory one, so nothing the engine evaluates persists; callers that
    /// must not lose results use [`open`](Self::open), which returns the
    /// error instead.
    pub fn new(config: EngineConfig) -> Self {
        let store = Self::open_store(&config).unwrap_or_else(|e| {
            eprintln!("floweval: {e}; continuing in memory");
            QorStore::in_memory()
        });
        Self::with_store(config, store)
    }

    /// Creates an engine over the store at `config.store_path` (in memory
    /// when there is none), or returns the error of a store that fails to
    /// open.
    pub fn open(config: EngineConfig) -> std::io::Result<Self> {
        let store = Self::open_store(&config)?;
        Ok(Self::with_store(config, store))
    }

    /// Opens the configured store; its error names the path.
    fn open_store(config: &EngineConfig) -> std::io::Result<QorStore> {
        let Some(path) = &config.store_path else {
            return Ok(QorStore::in_memory());
        };
        QorStore::open_with(path, config.store_options).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("cannot open QoR store at {}: {e}", path.display()),
            )
        })
    }

    fn with_store(config: EngineConfig, store: QorStore) -> Self {
        // The open is a scrub; seed the cumulative stats with its findings
        // so `/stats` surfaces damage found at startup.
        let mut stats = StatsState::default();
        let summary = store.summary();
        stats.stats.store_torn_tail = summary.torn_tail;
        stats.stats.store_corrupt = summary.corrupt_records;
        let library = CellLibrary::nangate14();
        let config_fp = fingerprint_config(&library);
        EvalEngine {
            library,
            config_fp,
            graph: Mutex::new(StateGraph::new(config.cache_budget_aig_nodes, MAX_STATES)),
            graph_changed: Condvar::new(),
            config,
            store: Mutex::new(store),
            contexts: Mutex::new(Vec::new()),
            stats: Mutex::new(stats),
            isop: synth::SharedIsopCache::new(),
        }
    }

    /// Cumulative statistics since engine creation.
    pub fn stats(&self) -> EvalStats {
        self.stats.lock().expect("stats lock").stats
    }

    /// Cumulative per-pass timing breakdown of every transform and mapping
    /// the engine executed (merged across the parallel workers' contexts).
    pub fn pass_timings(&self) -> PassTimings {
        self.stats.lock().expect("stats lock").timings
    }

    /// Merges externally recorded pass timings (e.g. from a service worker's
    /// own [`PassContext`] driving [`EvalEngine::evaluate_flow_with_ctx`])
    /// into the engine's cumulative breakdown.
    pub fn absorb_timings(&self, timings: &PassTimings) {
        self.stats
            .lock()
            .expect("stats lock")
            .timings
            .merge(timings);
    }

    /// Number of records in the persistent QoR store.
    pub fn store_len(&self) -> usize {
        self.store.lock().expect("store lock").len()
    }

    /// Current health of the persistent store.
    pub fn store_mode(&self) -> crate::store::StoreMode {
        self.store.lock().expect("store lock").mode()
    }

    /// A point-in-time summary of the persistent store.
    pub fn store_summary(&self) -> crate::store::StoreSummary {
        self.store.lock().expect("store lock").summary()
    }

    /// Drives one store probe (see [`QorStore::probe`]): drains parked
    /// records and recovers a degraded store when the disk is back.
    /// `flowd`'s watchdog thread calls this periodically.
    pub fn probe_store(&self) -> crate::store::StoreMode {
        self.store.lock().expect("store lock").probe()
    }

    /// The drain-time durability barrier: fsync the store's live segment
    /// (see [`QorStore::checkpoint`]).
    pub fn checkpoint_store(&self) -> std::io::Result<()> {
        self.store.lock().expect("store lock").checkpoint()
    }

    /// A point-in-time summary of the state graph.
    pub fn cache_summary(&self) -> CacheSummary {
        self.graph().summary()
    }

    /// Commits one batch's counters (and optional worker timings).
    pub(crate) fn commit_stats(&self, batch: &EvalStats, timings: Option<&PassTimings>) {
        let mut state = self.stats.lock().expect("stats lock");
        if let Some(t) = timings {
            state.timings.merge(t);
        }
        state.stats.absorb(batch);
    }

    /// Evaluates a batch of flows on `design`, returning QoR in input order.
    ///
    /// Results are bit-identical to `FlowRunner::run` with the same library
    /// and mapper parameters, and deterministic in every counter: each
    /// distinct unknown `(graph, transform)` edge of the batch is applied
    /// exactly once at any thread count.
    ///
    /// No engine lock is held while a pass or the mapper runs, so concurrent
    /// callers (e.g. `engine.stats()` from a monitoring thread) are never
    /// blocked behind a long batch.  Callers racing on the *same* design
    /// never run the same edge twice: the kernel claims each unit of work in
    /// the state graph, and whoever did not get the claim waits for the
    /// result.
    pub fn evaluate_batch<F: AsRef<[Transform]>>(&self, design: &Aig, flows: &[F]) -> Vec<Qor> {
        let design_fp = fingerprint_design(design);
        let (qors, _) = self
            .evaluate(design, design_fp, flows, None, &CancelToken::never())
            .expect(NEVER_FIRES);
        qors
    }

    /// Evaluates **one** flow with a caller-owned [`PassContext`], sharing
    /// the persistent store and the state graph with every other client of
    /// this engine.
    ///
    /// This is the request path of the `flowd` service: each worker thread
    /// owns one long-lived context (per PR 5's one-context-per-flow design)
    /// and drives it through here, so arena buffers and analysis caches are
    /// recycled across requests while QoR results and intermediate states
    /// are shared process-wide.  Results are bit-identical to
    /// [`EvalEngine::evaluate_batch`] and `FlowRunner::run`.  Pass timings
    /// stay in `pctx`; callers that want them aggregated call
    /// [`EvalEngine::absorb_timings`].
    pub fn evaluate_flow_with_ctx(
        &self,
        design: &Aig,
        flow: &[Transform],
        pctx: &mut PassContext,
    ) -> Qor {
        let design_fp = fingerprint_design(design);
        self.try_evaluate_flow_with_ctx(design, design_fp, flow, pctx, &CancelToken::never())
            .expect(NEVER_FIRES)
    }

    /// [`evaluate_flow_with_ctx`](Self::evaluate_flow_with_ctx) under a
    /// cancellation budget, on the design the caller already fingerprinted:
    /// `design_fp` must be [`fingerprint_design`]`(design)`, so a request
    /// that also reports the fingerprint hashes its design once.
    ///
    /// The evaluation (which runs outside every engine lock) runs its passes
    /// and mappings on `pctx` under `cancel`; they poll it and return `Err`
    /// once it fires.  On cancellation nothing half-built is published — the
    /// state graph keeps only the edges of passes that completed, which are
    /// pure facts — no store record is written, and the context stays
    /// recyclable for the next request.  Store hits still answer (even past
    /// the deadline, a lookup is cheaper than an error).
    pub fn try_evaluate_flow_with_ctx(
        &self,
        design: &Aig,
        design_fp: Fingerprint,
        flow: &[Transform],
        pctx: &mut PassContext,
        cancel: &CancelToken,
    ) -> Result<Qor, Cancelled> {
        self.evaluate(design, design_fp, &[flow], Some(pctx), cancel)
            .map(|(qors, _)| qors[0])
    }

    /// The stored QoR of `flow` on the design fingerprinted `design_fp`, with
    /// no graph at hand.  A hit is counted in [`stats`](Self::stats) exactly
    /// as a store hit of [`evaluate_batch`](Self::evaluate_batch) is; a miss
    /// counts nothing, so the caller can evaluate the flow through the
    /// design (`flowd` answers a design it has already read this way).
    pub fn stored_qor(&self, design_fp: Fingerprint, flow: &[Transform]) -> Option<Qor> {
        let start = std::time::Instant::now();
        let mut lookup = self.store_front(design_fp, &[flow]);
        let qor = lookup.results[0]?;
        lookup.batch.wall_s = start.elapsed().as_secs_f64();
        self.commit_stats(&lookup.batch, None);
        Some(qor)
    }

    /// The store-lookup front of every evaluation: the keys of `flows` on
    /// the design fingerprinted `design_fp`, what the store holds for them,
    /// and the request/hit counters of the lookup.
    fn store_front<F: AsRef<[Transform]>>(
        &self,
        design_fp: Fingerprint,
        flows: &[F],
    ) -> StoreFront {
        let keys = self.store_keys(design_fp, flows);
        let results = self.store_lookup_batch(&keys);
        let store_hits = results.iter().filter(|q| q.is_some()).count();
        let batch = EvalStats {
            flows_requested: flows.len(),
            passes_requested: flows.iter().map(|f| f.as_ref().len()).sum(),
            store_hits,
            flows_evaluated: flows.len() - store_hits,
            ..EvalStats::default()
        };
        StoreFront {
            keys,
            results,
            batch,
        }
    }

    /// Store lookup → kernel → store insert → statistics, for a batch on
    /// pooled contexts or one request on a `lent` context, under `cancel`
    /// (the only way this returns `Err`), on the design fingerprinted
    /// `design_fp`.  Returns the QoR in input order with the counters of
    /// this call alone — what it added to [`stats`](Self::stats), whoever
    /// else is using the engine.
    pub(crate) fn evaluate<F: AsRef<[Transform]>>(
        &self,
        design: &Aig,
        design_fp: Fingerprint,
        flows: &[F],
        lent: Option<&mut PassContext>,
        cancel: &CancelToken,
    ) -> Result<(Vec<Qor>, EvalStats), Cancelled> {
        debug_assert_eq!(
            design_fp,
            fingerprint_design(design),
            "caller's fingerprint"
        );
        let start = std::time::Instant::now();
        let StoreFront {
            keys,
            mut results,
            mut batch,
        } = self.store_front(design_fp, flows);
        let misses: Vec<usize> = (0..flows.len()).filter(|&i| results[i].is_none()).collect();

        let mut timings = PassTimings::default();
        let mut outcome = Ok(());
        if !misses.is_empty() {
            let miss_flows: Vec<&[Transform]> = misses.iter().map(|&i| flows[i].as_ref()).collect();
            let contexts = match lent {
                Some(pctx) => Contexts::Lent(pctx),
                None => Contexts::Pooled(&mut timings),
            };
            outcome = self
                .drive(design, design_fp, &miss_flows, contexts, cancel, &mut batch)
                .map(|qors| {
                    // Durability (fsync) happens at drain/compact time via
                    // `checkpoint_store`, not per batch.
                    let entries = misses
                        .iter()
                        .zip(&qors)
                        .map(|(&i, &q)| (keys[i].clone(), q));
                    batch.store_write_errors = self.store_insert_batch(entries.collect());
                    for (&i, qor) in misses.iter().zip(qors) {
                        results[i] = Some(qor);
                    }
                });
        }
        batch.wall_s = start.elapsed().as_secs_f64();
        self.commit_stats(&batch, Some(&timings));
        outcome?;
        let qors = results
            .into_iter()
            .map(|q| q.expect("every flow evaluated"));
        Ok((qors.collect(), batch))
    }

    /// A fresh evaluation context, backed by the engine-wide ISOP memo.  The
    /// kernel creates its pooled contexts through here, and `flowd` its
    /// workers', so every batch and every request shares one cover memo.
    pub fn pass_context(&self) -> PassContext {
        PassContext::default().share_isop_cache(self.isop.clone())
    }

    /// Cross-context hit/miss counters of the engine-wide ISOP memo.
    pub fn shared_isop_stats(&self) -> (u64, u64) {
        (self.isop.hits(), self.isop.misses())
    }

    /// The store keys of `flows` on the design fingerprinted `design_fp`.
    pub(crate) fn store_keys<F: AsRef<[Transform]>>(
        &self,
        design_fp: Fingerprint,
        flows: &[F],
    ) -> Vec<StoreKey> {
        let key = |flow: &F| StoreKey {
            design: design_fp,
            config: self.config_fp,
            flow: flow_script(flow.as_ref()),
        };
        flows.iter().map(key).collect()
    }

    /// Looks up many store keys under one lock acquisition.
    pub(crate) fn store_lookup_batch(&self, keys: &[StoreKey]) -> Vec<Option<Qor>> {
        let store = self.store.lock().expect("store lock");
        keys.iter().map(|key| store.get(key)).collect()
    }

    /// Inserts many evaluated results under one lock acquisition, returning
    /// the number of append errors (results are still served from memory).
    /// Inserts are idempotent: concurrent duplicate evaluations are
    /// bit-identical, so whichever lands first wins and the rest dedup.
    fn store_insert_batch(&self, entries: Vec<(StoreKey, Qor)>) -> usize {
        let mut store = self.store.lock().expect("store lock");
        let mut errors = 0;
        for (key, qor) in entries {
            if store.insert(key, qor).is_err() {
                errors += 1;
            }
        }
        errors
    }
}

/// What the store answered for one call's flows (see `EvalEngine::store_front`).
struct StoreFront {
    keys: Vec<StoreKey>,
    results: Vec<Option<Qor>>,
    batch: EvalStats,
}

/// Renders a transform sequence as the canonical ABC-style script (`cmd;
/// cmd; …`): the flow key of every store record, and what
/// `flowgen::Flow::to_script` returns.
pub fn flow_script(flow: &[Transform]) -> String {
    flow.iter()
        .map(|t| t.command())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Stable structural fingerprint of a design (name-independent).
pub fn fingerprint_design(aig: &Aig) -> Fingerprint {
    let mut h = Fnv64::new();
    h.write_usize(aig.len());
    h.write_usize(aig.num_inputs());
    h.write_usize(aig.num_outputs());
    for id in aig.node_ids() {
        match aig.node(id).kind() {
            NodeKind::Constant => h.write_u32(0),
            NodeKind::Input(index) => {
                h.write_u32(1);
                h.write_u32(index);
            }
            NodeKind::And(a, b) => {
                h.write_u32(2);
                h.write_u32(a.raw());
                h.write_u32(b.raw());
            }
        }
    }
    for &output in aig.outputs() {
        h.write_u32(output.raw());
    }
    Fingerprint::from_hasher(h)
}

/// Stable fingerprint of the evaluation configuration (synthesis revision,
/// library, mapper).
pub fn fingerprint_config(library: &CellLibrary) -> Fingerprint {
    let mut h = Fnv64::new();
    h.write_u32(synth::SYNTH_REV);
    h.write_str(library.name());
    h.write_usize(library.len());
    for cell in library.cells() {
        h.write_str(&cell.name);
        h.write_u64(cell.area.to_bits());
        h.write_u64(cell.delay_ps.to_bits());
        h.write_u64(cell.load_delay_ps.to_bits());
        h.write_usize(cell.num_inputs);
        h.write_usize(cell.function.num_vars());
        for &word in cell.function.words() {
            h.write_u64(word);
        }
    }
    // The mapper's cut enumeration: 4 leaves, 8 cuts per node.
    let cuts = CutParams::default();
    h.write_usize(cuts.max_cut_size);
    h.write_usize(cuts.max_cuts_per_node);
    // The word a mapping objective once took: kept, so stored keys hold.
    h.write_u32(0);
    Fingerprint::from_hasher(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.and(a, b);
        g.add_output("f", f);
        let mut h = g.clone();
        h.set_name("renamed");
        assert_eq!(
            fingerprint_design(&g),
            fingerprint_design(&h),
            "names do not matter"
        );
        let mut k = g.clone();
        let extra = k.and(a, !b);
        k.add_output("g", extra);
        assert_ne!(fingerprint_design(&g), fingerprint_design(&k));
    }

    /// Every stored QoR is keyed by this fingerprint: a change to the hashed
    /// words (or their order) orphans the whole store.
    #[test]
    fn config_fingerprint_is_pinned() {
        let config = fingerprint_config(&CellLibrary::nangate14());
        assert_eq!(config, Fingerprint(0xcf4e_08e6_a965_d029));
    }

    #[test]
    fn flow_script_matches_abc_style() {
        assert_eq!(flow_script(&[]), "");
        assert_eq!(
            flow_script(&[Transform::Balance, Transform::RewriteZ]),
            "balance; rewrite -z"
        );
    }
}
