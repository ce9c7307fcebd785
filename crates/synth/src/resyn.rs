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
//!
//! # Nodes that cannot gain
//!
//! A strict sweep (`min_gain >= 1`) does not call the pass at node `n` when
//! both of these hold (`GainFilter`):
//!
//! * every fanin of `n` is a primary input, the constant, or has more than
//!   one fanout — so dereferencing `n` frees none of them, and `n`'s MFFC is
//!   `{n}` under every cut;
//! * `n`'s 64-pattern random-simulation signature, taken up to complement,
//!   is shared by no other node of the graph (constant and inputs included).
//!
//! The skip is exact.  With a one-node MFFC, a gain of at least 1 needs a
//! proposal that adds no node at all.  Both cost dry-runs (the SOP counter
//! and the Shannon `mux_cost`) then end on an existing literal that lies
//! outside the MFFC, so on a node other than `n` — a leaf, the constant, or
//! an AND found by a strash probe.  Over the same leaves that literal
//! computes `n`'s cut function, so its node computes `n`'s function or its
//! complement, and has `n`'s signature.  A unique signature rules that out.
//! Signature collisions only make a node look shared, which turns the skip
//! off; they never skip a node that could gain.  The signatures are taken
//! serially on the clean graph before the parallel propose, so the skips —
//! and with them decisions, graphs and QoR — are the same at any thread
//! count and bit-identical to the rule-free oracle,
//! `reference::resynthesis_sweep`.

use std::sync::{Mutex, PoisonError};

use aig::{random_patterns, Aig, CutSet4, Lit, NodeId, SimVector, Simulator, TruthTable};
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

/// Seed of the random patterns behind [`GainFilter`]'s node signatures.
const SIGNATURE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// An empty slot of [`GainFilter`]'s signature table.
const EMPTY_SLOT: u32 = u32::MAX;

/// The strict sweeps' skip rule (see the module docs): which nodes provably
/// cannot yield a decision at `min_gain >= 1`.  Its three buffers live in
/// [`SweepScratch`] and recycle across sweeps.
#[derive(Debug, Default)]
pub(crate) struct GainFilter {
    /// One 64-pattern simulation word per node, then made canonical up to
    /// complement (bit 0 clear).
    signatures: Vec<SimVector>,
    /// Open-addressed table of node ids keyed by canonical signature.
    table: Vec<u32>,
    /// Whether another node has the same canonical signature.
    shared: Vec<bool>,
}

impl GainFilter {
    /// Takes the signatures of every node of `g` and marks the shared ones.
    pub(crate) fn prepare(&mut self, g: &Aig) {
        let GainFilter {
            signatures,
            table,
            shared,
        } = self;
        Simulator::new(g).node_values_into(random_patterns(SIGNATURE_SEED), signatures);
        let n = g.len();
        shared.clear();
        shared.resize(n, false);
        let bits = (2 * n).next_power_of_two().trailing_zeros();
        table.clear();
        table.resize(1 << bits, EMPTY_SLOT);
        let mask = table.len() - 1;
        for id in 0..n {
            if signatures[id] & 1 == 1 {
                signatures[id] = !signatures[id];
            }
            let key = signatures[id];
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
            loop {
                let other = table[slot];
                if other == EMPTY_SLOT {
                    table[slot] = id as u32;
                    break;
                }
                if signatures[other as usize] == key {
                    shared[other as usize] = true;
                    shared[id] = true;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
    }

    /// `true` when no strict proposal at `id` can gain: its MFFC is `{id}`
    /// under every cut and no other node shares its signature.  Reads the
    /// marks of the last [`prepare`](Self::prepare) on this graph; fanout
    /// counts must be current.
    pub(crate) fn cannot_gain(&self, g: &Aig, id: NodeId) -> bool {
        let Some((a, b)) = g.node(id).fanins() else {
            return false;
        };
        let kept = |f: NodeId| !g.node(f).is_and() || g.fanout_count(f) > 1;
        !self.shared[id] && a.node() != b.node() && kept(a.node()) && kept(b.node())
    }
}

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
        filter,
    } = sweep;
    let strict = acceptance.min_gain >= 1;
    if strict {
        filter.prepare(g);
    }
    let filter = &*filter;
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
                    if !graph.node(id).is_and()
                        || graph.fanout_count(id) == 0
                        || (strict && filter.cannot_gain(graph, id))
                    {
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
    use crate::passes::Transform;
    use crate::reference::rebuild_with_decisions;
    use crate::sop::isop;
    use aig::{cut_truth, random_equivalence_check, Cut4Enumerator, CutParams, Mffc};
    use circuits::{Design, DesignScale};
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

    /// Proposes every node of `g` that the filter skips with all three
    /// strict passes and asserts that none yields a proposal.  Returns the
    /// skipped and the live AND counts.
    fn assert_skips_are_exact(g: &Aig) -> (usize, usize) {
        let mut g = g.clone();
        g.compute_fanouts();
        let mut filter = GainFilter::default();
        filter.prepare(&g);
        let mut cut_sets = Vec::new();
        Cut4Enumerator::new(CutParams::default()).enumerate_into(&g, &mut cut_sets);
        let mut ps = ProposeScratch::default();
        let mut out = Vec::new();
        let (mut skipped, mut live) = (0, 0);
        for id in g.and_ids() {
            if g.fanout_count(id) == 0 {
                continue;
            }
            live += 1;
            if !filter.cannot_gain(&g, id) {
                continue;
            }
            skipped += 1;
            crate::rewrite::propose_sweep(&g, id, &cut_sets, 1, &mut ps, &mut out);
            crate::refactor::propose_sweep(&g, id, 1, &mut ps, &mut out);
            crate::restructure::propose_sweep(&g, id, 1, &mut ps, &mut out);
            assert!(
                out.is_empty(),
                "{}: node {id} is skipped but has a strict proposal",
                g.name()
            );
        }
        (skipped, live)
    }

    #[test]
    fn skipped_nodes_have_no_strict_proposal() {
        use Transform::{Balance, RefactorZ, Rewrite, RewriteZ};
        let prefixes: [&[Transform]; 3] = [
            &[],
            &[Balance, RewriteZ],
            &[RefactorZ, Balance, Rewrite, RewriteZ],
        ];
        let mut ctx = PassContext::default();
        for design in Design::ALL {
            for scale in [DesignScale::Tiny, DesignScale::Small] {
                let g = design.generate(scale);
                for prefix in prefixes {
                    let work = ctx.run_flow(&g, prefix);
                    let (skipped, live) = assert_skips_are_exact(&work);
                    assert!(
                        0 < skipped && skipped < live,
                        "{design} {scale:?} after {prefix:?}: {skipped} of {live} skipped"
                    );
                    ctx.recycle(work);
                }
            }
        }
    }

    #[test]
    fn rule_skips_most_nodes_of_the_large_designs() {
        for design in [Design::Aes128, Design::Montgomery64] {
            let g = PassContext::default().run_flow(&design.generate(DesignScale::Small), &[]);
            let (skipped, live) = assert_skips_are_exact(&g);
            assert!(
                skipped * 100 >= live * 55,
                "{design}: {skipped} of {live} live ANDs skipped"
            );
        }
    }

    #[test]
    fn equal_nodes_are_not_skipped_and_one_is_refactored_away() {
        // (a & b) & c and a & (b & c), each with MFFC {node}: both partial
        // products also drive outputs.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 3);
        let ab = g.and(xs[0], xs[1]);
        let bc = g.and(xs[1], xs[2]);
        let left = g.and(ab, xs[2]);
        let right = g.and(xs[0], bc);
        for (name, lit) in [("ab", ab), ("bc", bc), ("left", left), ("right", right)] {
            g.add_output(name, lit);
        }
        g.compute_fanouts();
        let mut filter = GainFilter::default();
        filter.prepare(&g);
        for node in [left, right] {
            assert_eq!(Mffc::compute(&g, node.node(), &[]).size(), 1);
            assert!(!filter.cannot_gain(&g, node.node()));
        }
        let r = Transform::Refactor.apply(&g);
        assert_eq!(r.num_ands(), g.num_ands() - 1);
        assert!(random_equivalence_check(&g, &r, 8, 41));
    }

    #[test]
    fn node_equal_to_an_input_is_not_skipped_and_refactored_away() {
        // a & (a | b) == a, over a shared OR; b = c & d widens the cut past
        // refactor's three-leaf minimum.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 3);
        let (a, c, d) = (xs[0], xs[1], xs[2]);
        let b = g.and(c, d);
        let a_or_b = g.or(a, b);
        let f = g.and(a, a_or_b);
        g.add_output("or", a_or_b);
        g.add_output("f", f);
        g.compute_fanouts();
        let mut filter = GainFilter::default();
        filter.prepare(&g);
        assert!(g.fanout_count(a_or_b.node()) > 1);
        assert!(!filter.cannot_gain(&g, f.node()));
        let r = Transform::Refactor.apply(&g);
        assert_eq!(r.num_ands(), g.num_ands() - 1);
        assert_eq!(r.outputs()[1], r.input_lits()[0], "f is now the input a");
        assert!(random_equivalence_check(&g, &r, 8, 43));
    }

    #[test]
    fn zero_cost_acceptance_accepts_equal_size() {
        assert_eq!(Acceptance::zero_cost().min_gain, 0);
        assert_eq!(Acceptance::strict().min_gain, 1);
    }
}
