//! # floweval — cache-aware flow-evaluation engine
//!
//! Dataset collection dominates the paper's runtime: labelling 10,000 training
//! flows and evaluating 100,000 sample flows takes 3–4 days on a 2 × 12-core
//! machine (Yu, Xiao, De Micheli — DAC 2018), yet flows drawn from the §2.1
//! search space keep reaching the same few intermediate AIGs — over half of
//! all sweeps change nothing, and different orders converge — which running
//! each flow on its own (`synth::FlowRunner::run`) recomputes from scratch.
//!
//! This crate is the evaluation layer the rest of the workspace goes through:
//!
//! * a content-addressed **state graph** (`state.rs`): a state is an AIG
//!   identified by a structural hash, an edge is `(state, transform) → state`,
//!   a terminal remembers its QoR, and resident AIGs live under one LRU
//!   budget — so evaluation costs one pass per **distinct
//!   `(graph, transform)` pair** instead of one per flow step, however the
//!   graph was reached;
//! * [`QorStore`] — a persistent, checksummed, segmented store of evaluation
//!   results (a plain JSON-lines file from before format v2 is refused),
//!   content-addressed by design fingerprint + configuration fingerprint +
//!   flow script, so repeated runs, benches and ablations never re-evaluate a
//!   known flow;
//! * [`EvalEngine`] — the store in front of one evaluation kernel
//!   (`kernel.rs`) that batches, single requests and searches all call;
//!   [`EvalEngine::evaluate_batch`] is the workspace's one batch path and
//!   [`EvalEngine::search_flows`] its budgeted front over many designs;
//! * [`EvalStats`] — hit/miss/passes-avoided counters surfaced through
//!   `flowgen::FrameworkReport`.
//!
//! The engine evaluates the flows its callers pass in (any
//! `&[F: AsRef<[Transform]>]`); it does not choose them.  The paper's §2.1
//! space is defined and sampled in one place, `flowgen::FlowSpace`.
//!
//! Evaluation is **bit-identical** to `synth::FlowRunner`: every pass and the
//! mapper are deterministic functions of the graph they are given (the kernel
//! asserts it whenever it recomputes a known edge), so a memoized state is
//! exactly the AIG the naive evaluator would have recomputed.
//!
//! ## Quick example
//!
//! ```
//! use circuits::{Design, DesignScale};
//! use floweval::{EvalEngine, EngineConfig};
//! use synth::Transform;
//!
//! let design = Design::Alu64.generate(DesignScale::Tiny);
//! let engine = EvalEngine::new(EngineConfig::default());
//! let flows = vec![
//!     vec![Transform::Balance, Transform::Rewrite, Transform::Refactor],
//!     vec![Transform::Balance, Transform::Rewrite, Transform::Restructure],
//! ];
//! let qors = engine.evaluate_batch(&design, &flows);
//! assert_eq!(qors.len(), 2);
//! // The shared `balance; rewrite` prefix was applied once, not twice.
//! assert!(engine.stats().passes_applied < 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod kernel;
mod orchestrator;
mod state;
mod stats;
mod store;

pub use engine::{fingerprint_config, fingerprint_design, flow_script, EngineConfig, EvalEngine};
pub use orchestrator::{SearchConfig, SearchLabel, SearchOutcome, SearchReport, TrajectoryPoint};
pub use state::CacheSummary;
pub use stats::EvalStats;
pub use store::{CompactionReport, QorStore, StoreKey, StoreMode, StoreOptions, StoreSummary};
