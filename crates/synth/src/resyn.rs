//! Shared machinery of the resynthesis-style passes.
//!
//! `rewrite`, `refactor` and `restructure` all follow the same scheme:
//!
//! 1. sweep the nodes in topological order,
//! 2. for each node pick a cut, compute the cut function, and propose a new
//!    implementation of that function over the cut leaves,
//! 3. accept the proposal when the estimated gain (MFFC nodes freed minus new
//!    nodes added) meets the pass's threshold,
//! 4. rebuild the network applying the accepted proposals.
//!
//! This module owns steps 1, 3 and 4; each pass provides step 2 as a
//! [`Proposal`] generator.

use aig::{Aig, CutSet4, EditScratch, InPlaceEditor, Lit, NodeId, TruthTable};

use crate::decomp::{build_shannon, build_shannon_edit};
use crate::pass::{pool_give, pool_take, PassContext, ProposeScratch, SweepScratch};
use crate::sop::{build_sop, build_sop_edit, Sop};

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
/// bounds-checked load; the slots recycle across sweeps through
/// [`crate::pass::SweepScratch`].
#[derive(Debug, Default)]
pub(crate) struct DecisionTable {
    slots: Vec<Option<Decision>>,
    len: usize,
}

impl DecisionTable {
    /// Clears the table and sizes it for a graph of `n` nodes.
    pub(crate) fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, None);
        self.len = 0;
    }

    /// Records (or replaces) the decision for `id`.
    pub(crate) fn insert(&mut self, id: NodeId, d: Decision) {
        if id >= self.slots.len() {
            self.slots.resize(id + 1, None);
        }
        if self.slots[id].replace(d).is_none() {
            self.len += 1;
        }
    }

    /// The decision recorded for `id`, if any.
    fn lookup(&self, id: NodeId) -> Option<&Decision> {
        self.slots.get(id).and_then(Option::as_ref)
    }

    /// Whether no decision was recorded at all.
    fn is_empty(&self) -> bool {
        self.len == 0
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

/// Runs a resynthesis sweep over `g`, transforming it **in place** through
/// the context's recycled buffers.  Same decisions and same resulting network
/// as the oracle, [`crate::reference::resynthesis_sweep`].
///
/// `propose` is called for every AND node (with up-to-date fanout counts) and
/// pushes any number of candidate implementations; the best accepted one is
/// recorded.  It is handed the context's [`ProposeScratch`], whose strash
/// snapshot is taken here, and the cut sets last enumerated into the context.
/// `g` is cleaned first if its epoch stamp does not prove it clean; fanouts
/// are refreshed only when theirs says they are stale.
///
/// The per-node loop polls `cancel` and may unwind; `g` is only mutated by
/// the apply step *after* the full sweep, so a cancelled sweep leaves it
/// exactly as it was on entry.
pub(crate) fn resynthesis_sweep_ctx<F>(
    g: &mut Aig,
    acceptance: Acceptance,
    ctx: &mut PassContext,
    mut propose: F,
) where
    F: FnMut(&mut Aig, NodeId, &mut ProposeScratch, &[CutSet4], &mut Vec<Proposal>),
{
    ctx.ensure_clean(g);
    g.compute_fanouts_cached();
    // Disjoint borrows: the propose callback works on its scratch and the
    // cut sets while the sweep owns the rest.
    let PassContext {
        pool,
        scratch,
        propose: ps,
        cut4_sets,
        sweep,
        edit,
        apply_stats,
        cancel,
        ..
    } = ctx;
    ps.strash.rebuild(g);
    let SweepScratch {
        ids,
        decisions,
        proposals,
        rebuild_map,
        leaf_lits,
        out_lits,
    } = sweep;
    ids.clear();
    ids.extend(g.and_ids());
    decisions.reset(g.len());
    // Estimated number of nodes the accepted decisions will structurally
    // change (freed MFFC + emitted replacement), driving the in-place /
    // rebuild crossover below.
    let mut estimated_touched = 0usize;

    for &id in ids.iter() {
        if g.fanout_count(id) == 0 {
            continue;
        }
        cancel.checkpoint();
        proposals.clear();
        propose(g, id, ps, cut4_sets, proposals);
        let mut best: Option<Decision> = None;
        let mut best_touch = 0usize;
        for p in proposals.drain(..) {
            let gain = p.mffc_size as i64 - p.added as i64;
            if gain < acceptance.min_gain {
                continue;
            }
            if best.as_ref().is_none_or(|b| gain > b.gain) {
                best_touch = p.mffc_size + p.added;
                best = Some(Decision {
                    leaves: p.leaves,
                    structure: p.structure,
                    gain,
                });
            }
        }
        if let Some(d) = best {
            estimated_touched += best_touch;
            decisions.insert(id, d);
        }
    }

    // Apply the decisions.  The routes are bit-identical (pinned by the
    // differential tests); the observed dirty fraction picks the cheapest.
    if decisions.is_empty() {
        // Identity sweep: a clean graph rebuilt with no decisions is the
        // graph itself, so skip the apply entirely.
        apply_stats.identity += 1;
        return;
    }
    // The editor's per-node bookkeeping only wins while the dirty region
    // is a minority of the graph; past that the plain rebuild is cheaper.
    if estimated_touched * 2 < g.num_ands() {
        apply_decisions_in_place(g, decisions, edit, rebuild_map, leaf_lits, out_lits);
        apply_stats.in_place += 1;
        return;
    }
    let mut rebuilt = pool_take(pool);
    rebuild_with_decisions_into(g, |id| decisions.lookup(id), &mut rebuilt, rebuild_map);
    rebuilt.cleanup_into_with(g, scratch);
    pool_give(pool, rebuilt);
    apply_stats.rebuilt += 1;
}

/// Applies the decisions by mutating `g` through an [`InPlaceEditor`]:
/// the same sweep order as [`rebuild_with_decisions_into`] followed by the
/// compacting `finish`, producing node-for-node identical bits (see the
/// `aig::edit` module docs for the argument).
fn apply_decisions_in_place(
    g: &mut Aig,
    decisions: &DecisionTable,
    edit: &mut EditScratch,
    map: &mut Vec<Lit>,
    leaf_lits: &mut Vec<Lit>,
    out_lits: &mut Vec<Lit>,
) {
    let n = g.len();
    map.clear();
    map.resize(n, Lit::FALSE);
    for &id in g.input_ids() {
        map[id] = Lit::from_node(id, false);
    }
    out_lits.clear();
    out_lits.extend_from_slice(g.outputs());

    let mut ed = InPlaceEditor::begin(g, edit);
    for id in 0..n {
        let Some((a, b)) = ed.graph().node(id).fanins() else {
            continue;
        };
        if let Some(d) = decisions.lookup(id) {
            leaf_lits.clear();
            leaf_lits.extend(d.leaves.iter().map(|&l| map[l]));
            map[id] = match &d.structure {
                Structure::SumOfProducts(sop) => build_sop_edit(&mut ed, sop, leaf_lits),
                Structure::Shannon(truth) => build_shannon_edit(&mut ed, truth, leaf_lits),
            };
        } else {
            let na = map[a.node()] ^ a.is_complemented();
            let nb = map[b.node()] ^ b.is_complemented();
            map[id] = ed.copy(id, na, nb);
        }
    }
    for l in out_lits.iter_mut() {
        *l = map[l.node()] ^ l.is_complemented();
    }
    ed.finish(out_lits);
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
    use aig::{cut_truth, random_equivalence_check, Cut};
    use std::collections::HashMap;

    /// One production sweep over a copy of `g` on a fresh context.
    fn sweep(
        g: &Aig,
        acceptance: Acceptance,
        mut propose: impl FnMut(&mut Aig, NodeId, &mut Vec<Proposal>),
    ) -> Aig {
        let mut ctx = PassContext::default();
        let mut work = ctx.run_flow(g, &[]);
        resynthesis_sweep_ctx(&mut work, acceptance, &mut ctx, |graph, id, _, _, out| {
            propose(graph, id, out)
        });
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
            let cut = Cut::from_leaves(leaves.clone());
            let Ok(truth) = cut_truth(work, id, &cut) else {
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
        let cut = Cut::from_leaves(leaves.clone());
        let truth = cut_truth(&g, root, &cut).expect("covered");
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
