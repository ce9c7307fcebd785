//! Shared machinery of the resynthesis-style passes.
//!
//! `rewrite`, `refactor` and `restructure` all follow the same scheme:
//!
//! 1. sweep the live AND nodes,
//! 2. for each node pick a cut, compute the cut function, and propose a new
//!    implementation of that function over the cut leaves,
//! 3. accept the proposal when the estimated gain (MFFC nodes freed minus new
//!    nodes added) meets the pass's threshold,
//! 4. rebuild the network applying the accepted proposals.
//!
//! This module owns steps 1, 3 and 4; each pass provides step 2 as a
//! [`Proposal`] generator.
//!
//! Steps 1–3 only read the graph (`&Aig`; even the MFFC keeps its
//! dereferenced counts in a side table), so every node's decision depends on
//! the graph as the sweep found it and on nothing else: the sweep proposes
//! over chunks of nodes on the `rayon` pool, and step 4 is the one write.
//! That split is also why a cancellation — which can only fire inside steps
//! 1–3, and returns `Err` before step 4 starts — leaves the graph untouched,
//! as `CancelCell` promises.

use std::sync::{Mutex, PoisonError};

use aig::{Aig, CutSet4, Lit, NodeId, TruthTable};
use flow_core::{CancelToken, Cancelled};
use rayon::prelude::*;

use crate::decomp::build_shannon;
use crate::pass::{pool_give, pool_take, CancelCell, PassContext, ProposeScratch, SweepScratch};
use crate::sop::{build_sop, Sop};

/// How the new implementation of a node's cut function is expressed.
#[derive(Debug, Clone)]
pub enum Structure {
    /// Irredundant sum-of-products (used by `rewrite`/`refactor`).
    SumOfProducts(Sop),
    /// Shannon / mux-tree decomposition (used by `restructure`).
    Shannon(TruthTable),
}

/// A resynthesis decision for one node: re-express it over `leaves` using `structure`.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Cut leaves (node ids of the working graph), defining the variable order.
    pub leaves: Vec<NodeId>,
    /// The replacement structure.
    pub structure: Structure,
    /// Estimated gain in AND nodes (may be zero for zero-cost variants).
    pub gain: i64,
}

/// A candidate produced by a pass for one node, before gain thresholding.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Cut leaves defining the variable order of `structure`.
    pub leaves: Vec<NodeId>,
    /// The proposed replacement structure.
    pub structure: Structure,
    /// Estimated number of new AND nodes the structure would add.
    pub added: usize,
    /// Size of the node's MFFC bounded by `leaves` (nodes freed on acceptance).
    ///
    /// Every pass already computes the MFFC while costing the proposal (the
    /// cost estimator must not count MFFC nodes as free reuse), so the sweep
    /// reads the size from here instead of recomputing the cone.
    pub mffc_size: usize,
}

/// Dense decision table indexed by node id.  The apply step queries *every*
/// AND of the graph, so the flat slot vector makes each probe one
/// bounds-checked load; the propose chunks fill disjoint ranges of it, and
/// the slots recycle across sweeps through [`crate::pass::SweepScratch`].
#[derive(Debug, Default)]
pub(crate) struct DecisionTable {
    slots: Vec<Option<Decision>>,
}

impl DecisionTable {
    /// Clears the table and sizes it for a graph of `n` nodes.
    pub(crate) fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, None);
    }

    /// The decision recorded for `id`, if any.
    fn lookup(&self, id: NodeId) -> Option<&Decision> {
        self.slots.get(id).and_then(Option::as_ref)
    }
}

/// Graphs with fewer nodes than this are proposed as one chunk, inline on
/// the calling thread: below it a pool hand-off costs more than the second
/// core returns, and a helper woken for a small request competes with the
/// threads serving others.
const PARALLEL_MIN_NODES: usize = 32 * 1024;

/// Nodes per propose chunk on graphs of [`PARALLEL_MIN_NODES`] or more.
/// Fixed, so chunk boundaries never depend on the thread count.
const CHUNK_NODES: usize = 1024;

/// Acceptance policy of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acceptance {
    /// Minimum accepted gain: `1` for strict passes, `0` for the `-z` variants
    /// that also accept zero-gain (structure-changing) rewrites.
    pub min_gain: i64,
}

impl Acceptance {
    /// Strictly improving: only accept proposals that remove at least one node.
    pub fn strict() -> Self {
        Acceptance { min_gain: 1 }
    }

    /// Zero-cost accepting (the `-z` flavour of ABC's rewrite/refactor).
    pub fn zero_cost() -> Self {
        Acceptance { min_gain: 0 }
    }
}

/// Runs a resynthesis sweep over `g` and replaces it by the result, built in
/// the context's recycled buffers.  Same decisions and same resulting network
/// as the oracle, [`crate::reference::resynthesis_sweep`], at any thread
/// count: the apply step is the oracle's own rebuild.
///
/// `propose` is called for every live AND node (fanout counts are current)
/// and pushes any number of candidate implementations; the best accepted one
/// is recorded.  It reads the graph (reuse probes go to [`Aig::find_and`])
/// and the cut sets last enumerated into the context, and works on a
/// [`ProposeScratch`] no other call uses at the same time.  `g` is cleaned
/// first if its epoch stamp does not prove it clean; fanouts are refreshed
/// only when theirs says they are stale.
///
/// **Propose runs in parallel.**  It only reads `g`, so a node's decision
/// depends on the graph as the sweep found it, never on which nodes were
/// proposed before it.  The sweep splits the decision table into chunks of
/// [`CHUNK_NODES`] slots and hands them to the `rayon` pool, each chunk with
/// a scratch checked out of the context.  A graph under
/// [`PARALLEL_MIN_NODES`] nodes is one chunk, which the pool runs on the
/// caller without waking a helper.
///
/// Each chunk polls `cancel` on a countdown of its own and returns `Err`
/// once it fires, after putting its scratch back; the sweep then returns the
/// first `Err` in chunk order.  `g` is only mutated by the apply step,
/// *after* every chunk has returned `Ok`, so a cancelled sweep leaves it
/// exactly as it was on entry.
pub(crate) fn resynthesis_sweep_ctx<F>(
    g: &mut Aig,
    acceptance: Acceptance,
    ctx: &mut PassContext,
    cancel: Option<&CancelToken>,
    propose: F,
) -> Result<(), Cancelled>
where
    F: Fn(&Aig, NodeId, &mut ProposeScratch, &[CutSet4], &mut Vec<Proposal>) + Sync,
{
    ctx.ensure_clean(g);
    g.compute_fanouts_cached();
    // Disjoint borrows: the propose chunks read the cut sets and the token
    // and check scratch out of `idle`; the sweep owns the rest.
    let PassContext {
        pool,
        scratch,
        propose: idle,
        shared_isop,
        cut4_sets,
        sweep,
        apply_stats,
        ..
    } = ctx;
    let SweepScratch {
        decisions,
        tallies,
        rebuild_map,
    } = sweep;
    let n = g.len();
    decisions.reset(n);
    let chunk = if n < PARALLEL_MIN_NODES {
        n
    } else {
        CHUNK_NODES
    };
    tallies.clear();
    tallies.resize(n.div_ceil(chunk), Ok(0));

    let graph: &Aig = g;
    let (cut_sets, shared_isop) = (&cut4_sets[..], &*shared_isop);
    let idle = Mutex::new(idle);
    decisions
        .slots
        .par_chunks_mut(chunk)
        .zip(tallies.par_chunks_mut(1))
        .enumerate()
        .for_each(|(index, (slots, tally))| {
            let checked_out = idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
            let mut ps = checked_out
                .unwrap_or_else(|| ProposeScratch::with_shared_isop(shared_isop.clone()));
            let mut proposals = std::mem::take(&mut ps.proposals);
            let mut cancel = CancelCell::new(cancel);
            let mut decided = 0;
            let swept = (index * chunk..)
                .zip(slots.iter_mut())
                .try_for_each(|(id, slot)| {
                    if !graph.node(id).is_and() || graph.fanout_count(id) == 0 {
                        return Ok(());
                    }
                    cancel.checkpoint()?;
                    propose(graph, id, &mut ps, cut_sets, &mut proposals);
                    if let Some(decision) = best_decision(&mut proposals, acceptance) {
                        decided += 1;
                        *slot = Some(decision);
                    }
                    Ok(())
                });
            tally[0] = swept.map(|()| decided);
            ps.proposals = proposals;
            idle.lock().unwrap_or_else(PoisonError::into_inner).push(ps);
        });
    // Decisions taken; a cancelled chunk ends the sweep here.
    let decided = tallies
        .iter()
        .try_fold(0, |d, tally| tally.map(|cd| d + cd))?;

    if decided == 0 {
        // Identity sweep: a clean graph rebuilt with no decisions is the
        // graph itself, so skip the apply entirely.
        apply_stats.identity += 1;
        return Ok(());
    }
    // Apply the decisions exactly as the oracle does: replay the sweep into
    // a recycled buffer, then clean it back into `g`.
    let mut rebuilt = pool_take(pool);
    rebuild_with_decisions_into(g, |id| decisions.lookup(id), &mut rebuilt, rebuild_map);
    rebuilt.cleanup_into_with(g, scratch);
    pool_give(pool, rebuilt);
    apply_stats.rebuilt += 1;
    Ok(())
}

/// Drains `proposals` and returns the one to apply: the first with the
/// strictly largest gain at or above the pass's threshold.
fn best_decision(proposals: &mut Vec<Proposal>, acceptance: Acceptance) -> Option<Decision> {
    let mut best: Option<Decision> = None;
    for p in proposals.drain(..) {
        let gain = p.mffc_size as i64 - p.added as i64;
        if gain < acceptance.min_gain {
            continue;
        }
        if best.as_ref().is_none_or(|b| gain > b.gain) {
            best = Some(Decision {
                leaves: p.leaves,
                structure: p.structure,
                gain,
            });
        }
    }
    best
}

/// Rebuilds `src` into `out`, replacing each node `decision_for` answers by
/// its new structure over the mapped cut leaves and copying every other node
/// verbatim.  `out` and the remap table `map` are cleared and pre-sized here.
pub(crate) fn rebuild_with_decisions_into<'d>(
    src: &Aig,
    decision_for: impl Fn(NodeId) -> Option<&'d Decision>,
    out: &mut Aig,
    map: &mut Vec<Lit>,
) {
    out.clear_for_reuse();
    out.set_name(src.name().to_string());
    out.reserve_for(src.len(), src.num_ands());
    map.clear();
    map.resize(src.len(), Lit::FALSE);
    for (i, &id) in src.input_ids().iter().enumerate() {
        map[id] = out.add_input(src.input_name(i).to_string());
    }
    for id in src.node_ids() {
        let Some((a, b)) = src.node(id).fanins() else {
            continue;
        };
        if let Some(d) = decision_for(id) {
            let leaf_lits: Vec<Lit> = d.leaves.iter().map(|&l| map[l]).collect();
            map[id] = match &d.structure {
                Structure::SumOfProducts(sop) => build_sop(out, sop, &leaf_lits),
                Structure::Shannon(truth) => build_shannon(out, truth, &leaf_lits),
            };
        } else {
            let na = map[a.node()] ^ a.is_complemented();
            let nb = map[b.node()] ^ b.is_complemented();
            map[id] = out.and(na, nb);
        }
    }
    for (i, &l) in src.outputs().iter().enumerate() {
        out.add_output(
            src.output_name(i).to_string(),
            map[l.node()] ^ l.is_complemented(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::rebuild_with_decisions;
    use crate::sop::isop;
    use aig::{cut_truth, random_equivalence_check};
    use std::collections::HashMap;

    /// One production sweep over a copy of `g` on a fresh context.
    fn sweep(
        g: &Aig,
        acceptance: Acceptance,
        propose: impl Fn(&Aig, NodeId, &mut Vec<Proposal>) + Sync,
    ) -> Aig {
        let mut ctx = PassContext::default();
        let mut work = ctx.run_flow(g, &[]);
        resynthesis_sweep_ctx(
            &mut work,
            acceptance,
            &mut ctx,
            None,
            |graph, id, _, _, out| propose(graph, id, out),
        )
        .expect(crate::pass::UNARMED);
        work
    }

    /// f = (a & b) | (a & c) has a redundant two-node structure when written as
    /// a & (b | c); a sweep proposing the ISOP of the 3-leaf cut should shrink it.
    fn redundant_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let ac = g.and(a, c);
        let f = g.or(ab, ac);
        g.add_output("f", f);
        g
    }

    #[test]
    fn sweep_preserves_function_and_reduces_nodes() {
        let g = redundant_aig();
        let before = g.num_ands();
        let result = sweep(&g, Acceptance::strict(), |work, id, out| {
            let leaves: Vec<NodeId> = work.input_ids().to_vec();
            let Ok(truth) = cut_truth(work, id, &leaves) else {
                return;
            };
            let sop = isop(&truth);
            let leaf_lits: Vec<Lit> = leaves.iter().map(|&n| Lit::from_node(n, false)).collect();
            let mffc = aig::Mffc::compute(work, id, &leaves);
            let added = crate::sop::count_sop_nodes(work, &sop, &leaf_lits, |n| mffc.contains(n));
            out.push(Proposal {
                leaves,
                structure: Structure::SumOfProducts(sop),
                added,
                mffc_size: mffc.size(),
            });
        });
        assert!(
            random_equivalence_check(&g, &result, 8, 3),
            "function must be preserved"
        );
        assert!(
            result.num_ands() <= before,
            "strict sweep never grows the network: {} -> {}",
            before,
            result.num_ands()
        );
    }

    #[test]
    fn sweep_without_proposals_is_identity_up_to_cleanup() {
        let g = redundant_aig();
        let result = sweep(&g, Acceptance::strict(), |_, _, _| {});
        assert!(random_equivalence_check(&g, &result, 8, 5));
        assert_eq!(result.num_ands(), g.cleanup().num_ands());
    }

    #[test]
    fn rebuild_honours_decisions() {
        let g = redundant_aig();
        // Decide to replace the top OR node by the SOP over the primary inputs.
        let root = g.outputs()[0].node();
        let leaves: Vec<NodeId> = g.input_ids().to_vec();
        let truth = cut_truth(&g, root, &leaves).expect("covered");
        let mut decisions = HashMap::new();
        decisions.insert(
            root,
            Decision {
                leaves,
                structure: Structure::SumOfProducts(isop(&truth)),
                gain: 1,
            },
        );
        let rebuilt = rebuild_with_decisions(&g, &decisions).cleanup();
        assert!(random_equivalence_check(&g, &rebuilt, 8, 11));
        assert!(rebuilt.num_ands() <= g.num_ands());
    }

    #[test]
    fn zero_cost_acceptance_accepts_equal_size() {
        assert_eq!(Acceptance::zero_cost().min_gain, 0);
        assert_eq!(Acceptance::strict().min_gain, 1);
    }
}
