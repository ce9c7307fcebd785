//! The pass pipeline: an arena-recycling [`PassContext`].
//!
//! This is the one production path of the crate: every public entry point
//! (`Transform::apply`, `apply_sequence`, `map`, [`crate::FlowRunner`]) runs
//! its passes on a [`PassContext`], whose [`apply`](PassContext::apply)
//! dispatches each [`Transform`] to its pass.  A naive pipeline rebuilds a
//! brand-new [`Aig`] — node vector, strash table, name lists — for every
//! intermediate graph of a flow and recomputes fanouts at the top of every
//! pass; at data-collection scale (the paper labels 100,000 flows per
//! design) that allocation churn dominates flow-evaluation cost.  The
//! context removes it:
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
//! Cancellation is a return value.  The cancellable entry points
//! ([`PassContext::try_apply`], [`PassContext::run_flow_cancellable`],
//! `try_map_with_ctx`, `FlowRunner::try_run_with_ctx`) take the
//! [`CancelToken`] as an argument; once it fires, the per-node loops return
//! `Err(Cancelled)` and every layer passes it up with `?`.  The graph comes
//! back unchanged because the only code a checkpoint can interrupt — the
//! per-node loops — only reads it, and every early return hands the buffers
//! it checked out back to the context (the reasoning sits on the
//! crate-private `CancelCell`).  The plain entry points take no token and
//! cannot fail.
//!
//! The seed implementation of every pass survives as the test-only oracle,
//! [`crate::reference`]; the differential suite
//! (`tests/reference_differential/`) pins this pipeline bit-identical to it.

use std::time::Instant;

use aig::{Aig, AigScratch, CutSet4, CutTruthScratch, Lit, MffcScratch, NodeId};
use flow_core::{fail_point, CancelToken, Cancelled};

use crate::balance::balance_ctx;
use crate::passes::Transform;
use crate::reconv::ReconvScratch;
use crate::refactor::refactor_ctx;
use crate::restructure::restructure_ctx;
use crate::resyn::{CommitScratch, DecisionTable, GainFilter, Proposal};
use crate::rewrite::rewrite_ctx;
use crate::sop::{IsopCache, SharedIsopCache, SopCostScratch};

/// Maximum number of recycled graph buffers a context keeps around.
const POOL_CAPACITY: usize = 8;

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

/// A per-loop cooperative-cancellation checkpoint.
///
/// Borrows the call's [`CancelToken`] (`None` on the plain, token-less entry
/// points) plus a countdown that strides the actual clock/flag poll: inner
/// per-node loops call [`checkpoint`](Self::checkpoint) on every iteration,
/// but only every `STRIDE`-th call reads the token, so an absent or quiet
/// token costs one branch per node.  Once the token has fired the checkpoint
/// returns `Err(Cancelled)` and the loop returns it.  Each loop — and each
/// propose chunk of a parallel sweep — makes a cell of its own.
///
/// An early return is safe for the context by construction: every pass
/// mutates its subject graph only at the very end (the `cleanup_into_with` /
/// rebuild step after the full sweep), every buffer a pass checks out of the
/// context goes back to it on the `Err` path too, and all sweep scratch is
/// cleared at the start of each use — so a cancelled context is immediately
/// reusable and its next run is bit-identical to a fresh context's (pinned
/// by `tests/cancellation.rs`).  For the resynthesis sweeps the first half
/// is enforced by the types: their propose phase, the only code a
/// checkpoint can interrupt, holds the graph as `&Aig` (the MFFC keeps its
/// dereferenced fanout counts in a side table), and the apply step that
/// takes `&mut` starts only after every propose chunk has returned `Ok`.  A
/// cancelled chunk stops polling and pushes its propose scratch back to the
/// context's idle list before it reports.
#[derive(Debug)]
pub(crate) struct CancelCell<'a> {
    token: Option<&'a CancelToken>,
    countdown: u32,
}

impl<'a> CancelCell<'a> {
    const STRIDE: u32 = 64;

    /// A checkpoint over `token` whose first call polls.
    pub(crate) fn new(token: Option<&'a CancelToken>) -> Self {
        CancelCell {
            token,
            countdown: 0,
        }
    }

    /// Strided poll for inner per-node loops.
    #[inline]
    pub(crate) fn checkpoint(&mut self) -> Result<(), Cancelled> {
        let Some(token) = self.token else {
            return Ok(());
        };
        if let Some(next) = self.countdown.checked_sub(1) {
            self.countdown = next;
            return Ok(());
        }
        self.countdown = Self::STRIDE - 1;
        token.check()
    }
}

/// Reusable buffers of the resynthesis sweep shared by `rewrite`, `refactor`
/// and `restructure`.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    pub(crate) decisions: DecisionTable,
    /// Decisions taken by each propose chunk, or the cancellation that
    /// stopped it.
    pub(crate) tallies: Vec<Result<usize, Cancelled>>,
    pub(crate) rebuild_map: Vec<Lit>,
    /// The strict sweeps' signature filter.
    pub(crate) filter: GainFilter,
    /// The commit walk's marks and its cone and reuse buffers.
    pub(crate) commit: CommitScratch,
}

/// How the resynthesis sweeps applied their accepted decisions so far: a
/// sweep that accepted a decision rebuilds the graph, one that accepted none
/// leaves it as it is.  Tests and benchmarks read this to see which ran, and
/// what the committed decisions promised against what they removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Always 0: the in-place apply route is gone and every accepted
    /// decision is rebuilt.  Kept because flowbench reads it; drop it with
    /// the next change to the benchmark.
    pub in_place: u64,
    /// Every sweep that accepted a decision: applied through the ping-pong
    /// rebuild.
    pub rebuilt: u64,
    /// Sweeps that accepted no replacement and left the graph untouched.
    pub identity: u64,
    /// Summed estimated gain (MFFC size minus added nodes) of the decisions
    /// the rebuilt sweeps committed.
    pub gain_estimated: i64,
    /// AND nodes the rebuilt sweeps removed: each sweep's count before it
    /// minus its count after the cleanup.  Never below `gain_estimated`.
    pub gain_realised: i64,
    /// Decisions dropped by the commit walk because they were not
    /// compatible with an earlier committed decision.
    pub conflicts: u64,
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
    pub(crate) apply_stats: ApplyStats,
    timings: PassTimings,
}

impl PassContext {
    /// Backs this context's ISOP memo with a process-wide
    /// [`SharedIsopCache`] tier: local misses probe
    /// the shared map before computing and publish what they compute.
    ///
    /// Covers are pure functions of the truth table, so sharing never changes
    /// a result bit — concurrent workers just stop re-deriving each other's
    /// covers.  Returns `self` for builder-style chaining.
    pub fn share_isop_cache(mut self, shared: SharedIsopCache) -> Self {
        for ps in &mut self.propose {
            ps.isop.set_shared(Some(shared.clone()));
        }
        self.shared_isop = Some(shared);
        self
    }

    /// How the sweeps have applied their decisions so far (rebuild vs free
    /// identity).
    pub fn apply_stats(&self) -> ApplyStats {
        self.apply_stats
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
        self.apply_checked(t, g, None).expect(UNARMED);
    }

    /// [`apply`](Self::apply) under a cancellation budget: polls `cancel`
    /// before the pass and inside its per-node loops, and returns `Err` once
    /// it fires.  `g` is then exactly as it was on entry, and the context is
    /// as reusable as after a completed pass.
    pub fn try_apply(
        &mut self,
        t: Transform,
        g: &mut Aig,
        cancel: &CancelToken,
    ) -> Result<(), Cancelled> {
        self.apply_checked(t, g, Some(cancel))
    }

    fn apply_checked(
        &mut self,
        t: Transform,
        g: &mut Aig,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled> {
        if let Some(token) = cancel {
            token.check()?;
        }
        fail_point!("pass.apply");
        let start = Instant::now();
        match t {
            Transform::Balance => balance_ctx(g, self, cancel),
            Transform::Restructure => restructure_ctx(g, self, cancel),
            Transform::Rewrite => rewrite_ctx(g, false, self, cancel),
            Transform::RewriteZ => rewrite_ctx(g, true, self, cancel),
            Transform::Refactor => refactor_ctx(g, false, self, cancel),
            Transform::RefactorZ => refactor_ctx(g, true, self, cancel),
        }?;
        let stat = &mut self.timings.passes[t.index()];
        stat.calls += 1;
        stat.seconds += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Runs a whole flow on `design` and returns the optimized network.
    ///
    /// The design is cleaned first, then each transform applies in order.
    pub fn run_flow(&mut self, design: &Aig, flow: &[Transform]) -> Aig {
        self.run_flow_checked(design, flow, None).expect(UNARMED)
    }

    /// [`run_flow`](Self::run_flow) under a cancellation budget.
    ///
    /// Polls `cancel` at every pass boundary and inside the per-node loops,
    /// and returns `Err` once it fires.  The context survives cancellation
    /// fully reusable: the next [`run_flow`](Self::run_flow) on it is
    /// bit-identical to one on a fresh context.
    pub fn run_flow_cancellable(
        &mut self,
        design: &Aig,
        flow: &[Transform],
        cancel: &CancelToken,
    ) -> Result<Aig, Cancelled> {
        self.run_flow_checked(design, flow, Some(cancel))
    }

    fn run_flow_checked(
        &mut self,
        design: &Aig,
        flow: &[Transform],
        cancel: Option<&CancelToken>,
    ) -> Result<Aig, Cancelled> {
        let mut g = self.take_buf();
        g.copy_from(design);
        self.ensure_clean(&mut g);
        for &t in flow {
            if let Err(cancelled) = self.apply_checked(t, &mut g, cancel) {
                self.recycle(g);
                return Err(cancelled);
            }
        }
        Ok(g)
    }
}

/// The `expect` message of the token-less fronts, which poll nothing.
pub(crate) const UNARMED: &str = "a call without a token cannot cancel";

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

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{Design, DesignScale};

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
    fn cancelled_parallel_sweep_gives_its_propose_scratch_back() {
        // aes128@Full is above the parallel size gate, so at two threads the
        // refactor sweep proposes on the caller and a pool helper at once; a
        // deadline of half a warm run lands inside that propose phase.
        let design = Design::Aes128.generate(DesignScale::Full);
        let flow = [Transform::Refactor];
        let bits = |g: &Aig| aig::io::render_design(g, aig::io::Format::AigerAscii);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut ctx = PassContext::default();
            let mut whole = std::time::Duration::MAX;
            for _ in 0..2 {
                let start = Instant::now();
                let warm = ctx.run_flow(&design, &flow);
                whole = whole.min(start.elapsed());
                ctx.recycle(warm);
            }
            let idle = ctx.propose.len();
            // A warm run slowed by tests running beside it can take more
            // than twice as long as the next run; halve the deadline until
            // it lands inside the run.
            let mut deadline = whole / 2;
            let err = loop {
                let token = CancelToken::with_deadline(deadline);
                match ctx.run_flow_cancellable(&design, &flow, &token) {
                    Err(err) => break err,
                    Ok(done) => ctx.recycle(done),
                }
                deadline /= 2;
            };
            assert_eq!(err.reason, flow_core::CancelReason::DeadlineExceeded);
            assert!(
                ctx.propose.len() >= idle,
                "cancelled chunks must return their scratch ({} idle, was {idle})",
                ctx.propose.len()
            );

            let reused = ctx.run_flow(&design, &flow);
            let fresh = PassContext::default().run_flow(&design, &flow);
            assert_eq!(bits(&reused), bits(&fresh));
        });
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
