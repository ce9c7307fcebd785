//! The pass pipeline: a [`Pass`] trait over an arena-recycling [`PassContext`].
//!
//! This is the one production path of the crate: every public entry point
//! (`Transform::apply`, `apply_sequence`, `map`, [`crate::FlowRunner`]) runs
//! its passes on a [`PassContext`].  A naive pipeline rebuilds a brand-new
//! [`Aig`] — node vector, strash table, name lists — for every intermediate
//! graph of a flow and recomputes fanouts at the top of every pass; at
//! data-collection scale (the paper labels 100,000 flows per design) that
//! allocation churn dominates flow-evaluation cost.  The context removes it:
//!
//! * **Ping-pong graph buffers** — a small pool of recycled [`Aig`]s; every
//!   rebuild goes through [`Aig::cleanup_into_with`] / the sweep's
//!   decision-replay rebuild
//!   into a cleared buffer whose node vector, strash table and output lists
//!   keep their capacity across the whole flow.
//! * **Epoch-stamped analyses** — every pass output is a cleaned graph, and
//!   [`Aig`] now stamps that fact ([`Aig::is_clean`]) along with fanout
//!   freshness ([`Aig::fanouts_fresh`]); the redundant `cleanup()` +
//!   `compute_fanouts()` at the head of every pass collapse into epoch checks
//!   that invalidate on graph mutation instead of being recomputed.
//! * **Shared scratch** — cut-set vectors, the cut-truth cone-walk scratch,
//!   remap tables and the sweep's decision map are context-owned and reused
//!   by all passes of a flow.  The propose scratch is a small pool: a sweep
//!   on a graph of 32 Ki nodes or more proposes over node chunks on the
//!   `rayon` pool, one scratch per chunk running at once.
//!
//! Cancellation unwinds out of a pass with the graph unchanged because the
//! only code a checkpoint can interrupt — the per-node loops — only reads
//! it (the reasoning sits on the crate-private `CancelCell`).
//!
//! The seed implementation of every pass survives as the test-only oracle,
//! [`crate::reference`]; the differential suite
//! (`tests/reference_differential/`) pins this pipeline bit-identical to it.

use std::time::Instant;

use aig::{Aig, AigScratch, CutSet4, CutTruthScratch, EditScratch, Lit, MffcScratch, NodeId};
use flow_core::{fail_point, CancelToken, Cancelled};

use crate::passes::Transform;
use crate::reconv::ReconvScratch;
use crate::resyn::{DecisionTable, Proposal};
use crate::sop::{IsopCache, SharedIsopCache, SopCostScratch};

/// Maximum number of recycled graph buffers a context keeps around.
const POOL_CAPACITY: usize = 8;

/// A synthesis pass running through an arena-recycling [`PassContext`].
///
/// Implementations transform `g` **in place** (ping-ponging through the
/// context's buffers) and must be deterministic: the built-in passes are
/// bit-identical to their [`crate::reference`] oracles.
pub trait Pass {
    /// The ABC-style command name of the pass.
    fn name(&self) -> &'static str;
    /// Applies the pass to `g` using the context's recycled buffers.
    fn run(&self, g: &mut Aig, ctx: &mut PassContext);
}

/// Wall-clock statistics of one pass kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassStat {
    /// Number of invocations recorded.
    pub calls: u64,
    /// Total wall-clock seconds across those invocations.
    pub seconds: f64,
}

impl PassStat {
    fn absorb(&mut self, other: &PassStat) {
        self.calls += other.calls;
        self.seconds += other.seconds;
    }
}

/// Per-pass timing breakdown of everything a [`PassContext`] executed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassTimings {
    /// One slot per element of [`Transform::ALL`], indexed by
    /// [`Transform::index`].
    pub passes: [PassStat; Transform::COUNT],
    /// Technology mapping through [`map_with_ctx`](crate::mapper::map_with_ctx).
    pub mapping: PassStat,
}

impl PassTimings {
    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &PassTimings) {
        for (mine, theirs) in self.passes.iter_mut().zip(&other.passes) {
            mine.absorb(theirs);
        }
        self.mapping.absorb(&other.mapping);
    }

    /// Total seconds spent in transformation passes (mapping excluded).
    pub fn pass_seconds(&self) -> f64 {
        self.passes.iter().map(|s| s.seconds).sum()
    }

    /// Named `(pass, stat)` rows in [`Transform::ALL`] order, mapping last.
    pub fn entries(&self) -> Vec<(&'static str, PassStat)> {
        let mut rows: Vec<(&'static str, PassStat)> = Transform::ALL
            .iter()
            .map(|t| (t.command(), self.passes[t.index()]))
            .collect();
        rows.push(("map", self.mapping));
        rows
    }
}

/// The context's cooperative-cancellation checkpoint.
///
/// Holds the request's [`CancelToken`] (when one is armed) plus a countdown
/// that strides the actual clock/flag poll: inner per-node loops call
/// [`checkpoint`](Self::checkpoint) on every iteration, but only every
/// `STRIDE`-th call reads the token, so an unarmed or quiet token costs one
/// branch per node.  A fired token unwinds the current evaluation with a
/// typed [`Cancelled`] payload; the cancelling caller catches it with
/// `std::panic::catch_unwind`.
///
/// The unwind is safe for the context by construction: every pass mutates its
/// subject graph only at the very end (the `cleanup_into_with` /
/// rebuild step after the full sweep), and all sweep scratch is cleared at
/// the start of each use — so a cancelled context is immediately reusable and
/// its next run is bit-identical to a fresh context's (pinned by
/// `tests/cancellation.rs`).  For the resynthesis sweeps the first half is
/// enforced by the types: their propose phase, the only code a checkpoint
/// can interrupt, holds the graph as `&Aig` (the MFFC keeps its dereferenced
/// fanout counts in a side table), and the apply step that takes `&mut`
/// starts only after every propose chunk has returned.  A chunk that unwinds
/// drops the propose scratch it had checked out; the next sweep makes a new
/// one.
#[derive(Debug, Default)]
pub(crate) struct CancelCell {
    token: Option<CancelToken>,
    countdown: u32,
}

impl CancelCell {
    const STRIDE: u32 = 64;

    fn arm(&mut self, token: CancelToken) {
        flow_core::silence_cancel_unwinds();
        self.token = Some(token);
        self.countdown = 0;
    }

    fn disarm(&mut self) {
        self.token = None;
    }

    /// The same token on a countdown of its own, for one chunk of a
    /// parallel sweep (chunks on different threads cannot share one).
    pub(crate) fn for_chunk(&self) -> CancelCell {
        CancelCell {
            token: self.token.clone(),
            countdown: 0,
        }
    }

    /// Strided poll for inner per-node loops.
    #[inline]
    pub(crate) fn checkpoint(&mut self) {
        if self.token.is_none() {
            return;
        }
        if let Some(next) = self.countdown.checked_sub(1) {
            self.countdown = next;
            return;
        }
        self.countdown = Self::STRIDE - 1;
        self.poll();
    }

    /// Unstrided poll for pass boundaries.
    fn force_checkpoint(&mut self) {
        if self.token.is_some() {
            self.countdown = Self::STRIDE - 1;
            self.poll();
        }
    }

    #[cold]
    fn poll(&self) {
        if let Some(token) = &self.token {
            if let Err(cancelled) = token.check() {
                std::panic::panic_any(cancelled);
            }
        }
    }
}

/// Reusable buffers of the resynthesis sweep shared by `rewrite`, `refactor`
/// and `restructure`.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    pub(crate) decisions: DecisionTable,
    /// `(decisions, estimated touched nodes)` of each propose chunk.
    pub(crate) tallies: Vec<(usize, usize)>,
    pub(crate) rebuild_map: Vec<Lit>,
    pub(crate) leaf_lits: Vec<Lit>,
    pub(crate) out_lits: Vec<Lit>,
}

/// How the resynthesis sweeps applied their accepted decisions so far.  The
/// route is picked per sweep from the observed dirty fraction; tests and
/// benchmarks read this to see which one ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Sweeps applied by mutating the resident graph in place.
    pub in_place: u64,
    /// Sweeps applied through the ping-pong rebuild, because the estimated
    /// dirty fraction crossed the in-place threshold.
    pub rebuilt: u64,
    /// Sweeps that accepted no replacement and left the graph untouched.
    pub identity: u64,
}

/// Reusable buffers of the per-node proposal generators: the cut-truth cone
/// walk, the reconvergence-cut visited stamps, the MFFC side table, the SOP
/// cost dry-run and the memoizing ISOP cache all survive across every node of
/// every pass of a flow, as do the leaf and proposal staging buffers.  One
/// propose chunk uses one scratch at a time.
#[derive(Debug, Default)]
pub(crate) struct ProposeScratch {
    pub(crate) truth: CutTruthScratch,
    pub(crate) reconv: ReconvScratch,
    pub(crate) mffc: MffcScratch,
    pub(crate) cost: SopCostScratch,
    pub(crate) isop: IsopCache,
    pub(crate) leaf_lits: Vec<Lit>,
    pub(crate) cut_leaves: Vec<NodeId>,
    pub(crate) proposals: Vec<Proposal>,
}

impl ProposeScratch {
    /// A fresh scratch whose ISOP memo is backed by `shared`.
    pub(crate) fn with_shared_isop(shared: Option<SharedIsopCache>) -> Self {
        let mut ps = ProposeScratch::default();
        ps.isop.set_shared(shared);
        ps
    }
}

/// The arena-recycling execution context of a synthesis flow.
///
/// One context serves one flow at a time (it is not `Sync`); creating it per
/// flow already amortises every buffer across the flow's 10–25 passes.
///
/// ```
/// use circuits::{Design, DesignScale};
/// use synth::{PassContext, Transform};
///
/// let design = Design::Alu64.generate(DesignScale::Tiny);
/// let mut ctx = PassContext::default();
/// let optimized = ctx.run_flow(&design, &[Transform::Balance, Transform::Rewrite]);
/// // The free functions are fronts over a fresh context:
/// let again = synth::apply_sequence(&design, &[Transform::Balance, Transform::Rewrite]);
/// assert_eq!(optimized.num_ands(), again.num_ands());
/// assert_eq!(optimized.depth(), again.depth());
/// ```
#[derive(Debug, Default)]
pub struct PassContext {
    pub(crate) pool: Vec<Aig>,
    pub(crate) scratch: AigScratch,
    /// Idle propose scratch, one per chunk that ran at once: empty until the
    /// first sweep, then as many as the sweeps' thread count.
    pub(crate) propose: Vec<ProposeScratch>,
    /// The ISOP tier every propose scratch of this context is backed by.
    pub(crate) shared_isop: Option<SharedIsopCache>,
    pub(crate) cut4_sets: Vec<CutSet4>,
    pub(crate) balance_map: Vec<Option<Lit>>,
    pub(crate) sweep: SweepScratch,
    pub(crate) edit: EditScratch,
    pub(crate) apply_stats: ApplyStats,
    pub(crate) cancel: CancelCell,
    timings: PassTimings,
}

impl PassContext {
    /// Arms cooperative cancellation: until [`disarm_cancel`](Self::disarm_cancel),
    /// passes and the mapper poll `token` at pass boundaries and inside their
    /// per-node loops, unwinding with a [`Cancelled`] panic payload once it
    /// fires.  Callers pair this with `std::panic::catch_unwind` (or use
    /// [`run_flow_cancellable`](Self::run_flow_cancellable)).
    pub fn arm_cancel(&mut self, token: CancelToken) {
        self.cancel.arm(token);
    }

    /// Disarms cooperative cancellation (idempotent).
    pub fn disarm_cancel(&mut self) {
        self.cancel.disarm();
    }

    /// Backs this context's ISOP memo with a process-wide
    /// [`SharedIsopCache`] tier: local misses probe
    /// the shared map before computing and publish what they compute.
    ///
    /// Covers are pure functions of the truth table, so sharing never changes
    /// a result bit — concurrent workers just stop re-deriving each other's
    /// covers.  Returns `self` for builder-style chaining.
    pub fn share_isop_cache(mut self, shared: SharedIsopCache) -> Self {
        self.set_shared_isop_cache(Some(shared));
        self
    }

    /// [`share_isop_cache`](Self::share_isop_cache) on an existing context.
    pub fn set_shared_isop_cache(&mut self, shared: Option<SharedIsopCache>) {
        for ps in &mut self.propose {
            ps.isop.set_shared(shared.clone());
        }
        self.shared_isop = shared;
    }

    /// How the sweeps have applied their decisions so far (in-place vs
    /// rebuild vs free identity).
    pub fn apply_stats(&self) -> ApplyStats {
        self.apply_stats
    }

    /// Returns the recorded apply statistics and resets the accumulator.
    pub fn take_apply_stats(&mut self) -> ApplyStats {
        std::mem::take(&mut self.apply_stats)
    }

    /// The per-pass timing breakdown recorded so far.
    pub fn timings(&self) -> &PassTimings {
        &self.timings
    }

    /// Returns the recorded timings and resets the accumulator.
    pub fn take_timings(&mut self) -> PassTimings {
        std::mem::take(&mut self.timings)
    }

    pub(crate) fn record_mapping(&mut self, seconds: f64) {
        self.timings.mapping.calls += 1;
        self.timings.mapping.seconds += seconds;
    }

    /// Checks out a cleared graph buffer (recycled when available).
    pub fn take_buf(&mut self) -> Aig {
        pool_take(&mut self.pool)
    }

    /// Returns a graph buffer to the pool for later reuse.
    pub fn recycle(&mut self, g: Aig) {
        pool_give(&mut self.pool, g);
    }

    /// Makes `g` dangling-free in place: a no-op when the epoch stamp proves
    /// it already is, otherwise one [`Aig::cleanup_into_with`] ping-pong.
    pub fn ensure_clean(&mut self, g: &mut Aig) {
        if g.is_clean() {
            return;
        }
        let mut out = self.take_buf();
        g.cleanup_into_with(&mut out, &mut self.scratch);
        std::mem::swap(g, &mut out);
        self.recycle(out);
    }

    /// Applies one transformation to `g` in place, recording its wall time.
    pub fn apply(&mut self, t: Transform, g: &mut Aig) {
        self.cancel.force_checkpoint();
        fail_point!("pass.apply");
        let start = Instant::now();
        t.as_pass().run(g, self);
        let stat = &mut self.timings.passes[t.index()];
        stat.calls += 1;
        stat.seconds += start.elapsed().as_secs_f64();
    }

    /// Runs a whole flow on `design` and returns the optimized network.
    ///
    /// The design is cleaned first, then each transform applies in order.
    pub fn run_flow(&mut self, design: &Aig, flow: &[Transform]) -> Aig {
        let mut g = self.take_buf();
        g.copy_from(design);
        self.ensure_clean(&mut g);
        for &t in flow {
            self.apply(t, &mut g);
        }
        g
    }

    /// [`run_flow`](Self::run_flow) under a cancellation budget.
    ///
    /// Polls `cancel` at every pass boundary and inside the per-node loops;
    /// once it fires, the evaluation unwinds and `Err` is returned.  The
    /// context survives cancellation fully reusable: the next
    /// [`run_flow`](Self::run_flow) on it is bit-identical to one on a fresh
    /// context.  Non-cancellation panics are re-raised.
    pub fn run_flow_cancellable(
        &mut self,
        design: &Aig,
        flow: &[Transform],
        cancel: &CancelToken,
    ) -> Result<Aig, Cancelled> {
        self.arm_cancel(cancel.clone());
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_flow(design, flow)));
        self.disarm_cancel();
        match outcome {
            Ok(g) => Ok(g),
            Err(payload) => match payload.downcast::<Cancelled>() {
                Ok(cancelled) => Err(*cancelled),
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }
}

/// Pool primitives usable after destructuring a [`PassContext`] into disjoint
/// field borrows (the passes split the context between closure and sweep).
pub(crate) fn pool_take(pool: &mut Vec<Aig>) -> Aig {
    match pool.pop() {
        Some(mut g) => {
            g.clear_for_reuse();
            g
        }
        None => Aig::new(),
    }
}

pub(crate) fn pool_give(pool: &mut Vec<Aig>, g: Aig) {
    if pool.len() < POOL_CAPACITY {
        pool.push(g);
    }
}

/// `balance` through the context.
pub struct BalancePass;

impl Pass for BalancePass {
    fn name(&self) -> &'static str {
        "balance"
    }

    fn run(&self, g: &mut Aig, ctx: &mut PassContext) {
        crate::balance::balance_ctx(g, ctx);
    }
}

/// `restructure` through the context.
pub struct RestructurePass;

impl Pass for RestructurePass {
    fn name(&self) -> &'static str {
        "restructure"
    }

    fn run(&self, g: &mut Aig, ctx: &mut PassContext) {
        crate::restructure::restructure_ctx(
            g,
            crate::restructure::RestructureParams::default(),
            ctx,
        );
    }
}

/// `rewrite` / `rewrite -z` through the context.
pub struct RewritePass {
    /// Accept zero-gain replacements (the `-z` flavour).
    pub zero_cost: bool,
}

impl Pass for RewritePass {
    fn name(&self) -> &'static str {
        if self.zero_cost {
            "rewrite -z"
        } else {
            "rewrite"
        }
    }

    fn run(&self, g: &mut Aig, ctx: &mut PassContext) {
        crate::rewrite::rewrite_ctx(
            g,
            self.zero_cost,
            crate::rewrite::RewriteParams::default(),
            ctx,
        );
    }
}

/// `refactor` / `refactor -z` through the context.
pub struct RefactorPass {
    /// Accept zero-gain replacements (the `-z` flavour).
    pub zero_cost: bool,
}

impl Pass for RefactorPass {
    fn name(&self) -> &'static str {
        if self.zero_cost {
            "refactor -z"
        } else {
            "refactor"
        }
    }

    fn run(&self, g: &mut Aig, ctx: &mut PassContext) {
        crate::refactor::refactor_ctx(
            g,
            self.zero_cost,
            crate::refactor::RefactorParams::default(),
            ctx,
        );
    }
}

impl Transform {
    /// The context-path [`Pass`] implementing this transformation.
    pub fn as_pass(self) -> &'static dyn Pass {
        match self {
            Transform::Balance => &BalancePass,
            Transform::Restructure => &RestructurePass,
            Transform::Rewrite => &RewritePass { zero_cost: false },
            Transform::Refactor => &RefactorPass { zero_cost: false },
            Transform::RewriteZ => &RewritePass { zero_cost: true },
            Transform::RefactorZ => &RefactorPass { zero_cost: true },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{Design, DesignScale};

    #[test]
    fn pass_names_match_transform_commands() {
        for t in Transform::ALL {
            assert_eq!(t.as_pass().name(), t.command());
        }
    }

    #[test]
    fn every_pass_leaves_a_clean_graph_with_fresh_epochs() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let mut ctx = PassContext::default();
        let mut g = ctx.take_buf();
        g.copy_from(&design);
        ctx.ensure_clean(&mut g);
        for t in Transform::ALL {
            ctx.apply(t, &mut g);
            assert!(g.is_clean(), "{t} must end in a cleaned graph");
        }
        // The epoch caches make the head of a follow-up pass free: a cached
        // recompute after ensure_clean must not mutate the graph.
        ctx.ensure_clean(&mut g);
        g.compute_fanouts_cached();
        let generation = g.generation();
        ctx.ensure_clean(&mut g);
        g.compute_fanouts_cached();
        assert_eq!(g.generation(), generation);
    }

    #[test]
    fn timings_record_every_applied_pass() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let mut ctx = PassContext::default();
        let flow = [Transform::Balance, Transform::Rewrite, Transform::Balance];
        let _ = ctx.run_flow(&design, &flow);
        let timings = ctx.timings();
        assert_eq!(timings.passes[Transform::Balance.index()].calls, 2);
        assert_eq!(timings.passes[Transform::Rewrite.index()].calls, 1);
        assert_eq!(timings.passes[Transform::Refactor.index()].calls, 0);
        assert!(timings.pass_seconds() >= 0.0);
        let entries = ctx.take_timings().entries();
        assert_eq!(entries.len(), Transform::COUNT + 1);
        assert_eq!(entries.last().unwrap().0, "map");
        assert_eq!(ctx.timings().passes[0].calls, 0, "take_timings resets");
    }

    #[test]
    fn buffer_pool_recycles() {
        let mut ctx = PassContext::default();
        let design = Design::Montgomery64.generate(DesignScale::Tiny);
        let a = ctx.run_flow(&design, &[Transform::Balance]);
        ctx.recycle(a);
        assert!(!ctx.pool.is_empty());
        let b = ctx.take_buf();
        assert!(b.is_empty(), "recycled buffers come back cleared");
    }
}
