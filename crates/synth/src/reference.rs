//! The oracle: the seed implementation of every pass and of the mapper.
//!
//! `synth` has exactly two implementations per concern.  The **production
//! path** is [`PassContext`](crate::PassContext): inline 4-cuts with fused
//! truths, the NPN4 table, the memoizing ISOP cache, the budget-capped cost
//! estimators probing the graph's own strash, and the sweep that applies
//! decisions in place or by rebuild depending on the dirty fraction.  Every
//! public entry point ([`Transform::apply`], [`crate::apply_sequence`],
//! [`crate::map`], [`crate::FlowRunner`]) runs it.
//!
//! This module is the other one: the slow, allocation-heavy, obviously
//! structured code the crate started from — [`aig::CutEnumerator`] plus one
//! [`aig::cut_truth`] cone walk per cut, [`isop`] on heap tables,
//! [`reconv_cut`] with linear scans, the uncapped cost estimators, exhaustive
//! NPN orbit search in [`CellLibrary::matches`], and a sweep that always
//! rebuilds.  It exists so the differential suite
//! (`tests/reference_differential/`) can hold production to it **bit for
//! bit**; nothing that ships calls it.  An optimisation *replaces* production
//! code and is checked against this module; it never adds a third
//! implementation or a switch between two.

use std::collections::HashMap;

use aig::{cut_truth, Aig, Cut, CutEnumerator, CutParams, Lit, Mffc, NodeId, TruthTable};

use crate::balance::build_balanced;
use crate::decomp::count_shannon_nodes;
use crate::library::CellLibrary;
use crate::mapper::{mapper_cut_params, MappedNetlist, MapperParams, Matcher};
use crate::passes::Transform;
use crate::reconv::{reconv_cut, ReconvParams};
use crate::refactor::RefactorParams;
use crate::restructure::RestructureParams;
use crate::resyn::{rebuild_with_decisions_into, Acceptance, Decision, Proposal, Structure};
use crate::rewrite::RewriteParams;
use crate::sop::{count_sop_nodes, isop};

/// Applies one transformation through the oracle.
pub fn apply(t: Transform, aig: &Aig) -> Aig {
    match t {
        Transform::Balance => balance(aig),
        Transform::Restructure => restructure(aig),
        Transform::Rewrite => rewrite(aig, Acceptance::strict()),
        Transform::Refactor => refactor(aig, Acceptance::strict()),
        Transform::RewriteZ => rewrite(aig, Acceptance::zero_cost()),
        Transform::RefactorZ => refactor(aig, Acceptance::zero_cost()),
    }
}

/// Applies a sequence of transformations through the oracle.
pub fn apply_sequence(aig: &Aig, transforms: &[Transform]) -> Aig {
    let mut current = aig.cleanup();
    for &t in transforms {
        current = apply(t, &current);
    }
    current
}

fn balance(aig: &Aig) -> Aig {
    let mut src = aig.cleanup();
    src.compute_fanouts();
    let mut out = Aig::with_name(src.name().to_string());
    let mut map: Vec<Option<Lit>> = vec![None; src.len()];
    map[0] = Some(Lit::FALSE);
    for (i, &id) in src.input_ids().iter().enumerate() {
        map[id] = Some(out.add_input(src.input_name(i).to_string()));
    }
    for id in src.node_ids() {
        if src.node(id).is_and() {
            build_balanced(&src, &mut out, &mut map, id);
        }
    }
    for (i, &l) in src.outputs().iter().enumerate() {
        let nl = map[l.node()].expect("output cone built") ^ l.is_complemented();
        out.add_output(src.output_name(i).to_string(), nl);
    }
    out.cleanup()
}

fn rewrite(aig: &Aig, acceptance: Acceptance) -> Aig {
    let params = RewriteParams::default();
    // Cuts are enumerated once on the cleaned-up working copy used by the
    // sweep (the sweep applies all decisions in one rebuild, so the graph the
    // cuts were enumerated on stays valid for the whole pass).
    let work = aig.cleanup();
    let cut_sets = CutEnumerator::new(CutParams {
        max_cut_size: params.cut_size,
        max_cuts_per_node: params.cuts_per_node,
        include_trivial: false,
    })
    .enumerate(&work);
    resynthesis_sweep(&work, acceptance, |graph, id| {
        let mut proposals = Vec::new();
        for cut in cut_sets[id].cuts() {
            if cut.size() < 2 {
                continue;
            }
            let Ok(truth) = cut_truth(graph, id, cut) else {
                continue;
            };
            // Very large covers cannot win at cut size 4.
            proposals.extend(sop_proposal(graph, id, cut.leaves().to_vec(), &truth, 16));
        }
        proposals
    })
}

fn refactor(aig: &Aig, acceptance: Acceptance) -> Aig {
    let params = RefactorParams::default();
    resynthesis_sweep(aig, acceptance, |graph, id| {
        let Some((leaves, truth)) = reconv_cut_function(graph, id, params.max_leaves) else {
            return Vec::new();
        };
        Vec::from_iter(sop_proposal(graph, id, leaves, &truth, params.max_cubes))
    })
}

fn restructure(aig: &Aig) -> Aig {
    let params = RestructureParams::default();
    resynthesis_sweep(aig, Acceptance::strict(), |graph, id| {
        let Some((leaves, truth)) = reconv_cut_function(graph, id, params.max_leaves) else {
            return Vec::new();
        };
        let leaf_lits: Vec<Lit> = leaves.iter().map(|&n| Lit::from_node(n, false)).collect();
        let mffc = Mffc::compute(graph, id, &leaves);
        let added = count_shannon_nodes(graph, &truth, &leaf_lits, |n| mffc.contains(n));
        vec![Proposal {
            leaves,
            structure: Structure::Shannon(truth),
            added,
            mffc_size: mffc.size(),
        }]
    })
}

/// The reconvergence-driven cut of `id` and its function, when usable.
fn reconv_cut_function(
    graph: &Aig,
    id: NodeId,
    max_leaves: usize,
) -> Option<(Vec<NodeId>, TruthTable)> {
    let leaves = reconv_cut(graph, id, ReconvParams { max_leaves });
    if leaves.len() < 3 || leaves.len() > aig::MAX_TRUTH_VARS {
        return None;
    }
    let truth = cut_truth(graph, id, &Cut::from_leaves(leaves.clone())).ok()?;
    Some((leaves, truth))
}

/// The ISOP re-expression of `truth` over `leaves`, costed against the graph.
fn sop_proposal(
    graph: &Aig,
    id: NodeId,
    leaves: Vec<NodeId>,
    truth: &TruthTable,
    max_cubes: usize,
) -> Option<Proposal> {
    let sop = isop(truth);
    if sop.num_cubes() > max_cubes {
        return None;
    }
    let leaf_lits: Vec<Lit> = leaves.iter().map(|&n| Lit::from_node(n, false)).collect();
    // Nodes inside the MFFC will be freed by the replacement, so reusing
    // them must not be counted as free.
    let mffc = Mffc::compute(graph, id, &leaves);
    let added = count_sop_nodes(graph, &sop, &leaf_lits, |n| mffc.contains(n));
    Some(Proposal {
        leaves,
        structure: Structure::SumOfProducts(sop),
        added,
        mffc_size: mffc.size(),
    })
}

/// Runs a resynthesis sweep over `aig`: the oracle of
/// `resyn::resynthesis_sweep_ctx`, and the harness `docs/pass-authoring.md`
/// prototypes a new pass on.
///
/// `propose` is called for every AND node (with up-to-date fanout counts) and
/// may return any number of candidate implementations; the best accepted one is
/// recorded.  The function returns the rebuilt, cleaned-up network.
pub fn resynthesis_sweep<F>(aig: &Aig, acceptance: Acceptance, mut propose: F) -> Aig
where
    F: FnMut(&Aig, NodeId) -> Vec<Proposal>,
{
    let mut work = aig.cleanup();
    work.compute_fanouts();
    let ids: Vec<NodeId> = work.and_ids().collect();
    let mut decisions: HashMap<NodeId, Decision> = HashMap::new();

    for id in ids {
        if work.fanout_count(id) == 0 {
            continue;
        }
        let proposals = propose(&work, id);
        let mut best: Option<Decision> = None;
        for p in proposals {
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
        if let Some(d) = best {
            decisions.insert(id, d);
        }
    }

    rebuild_with_decisions(&work, &decisions).cleanup()
}

/// Rebuilds `src` into a fresh graph, replacing each decided node by its new
/// structure over the mapped cut leaves and copying every other node verbatim.
pub fn rebuild_with_decisions(src: &Aig, decisions: &HashMap<NodeId, Decision>) -> Aig {
    let mut out = Aig::new();
    rebuild_with_decisions_into(src, |id| decisions.get(&id), &mut out, &mut Vec::new());
    out
}

/// Maps `aig` onto `library` through the oracle: one cone walk per cut,
/// support reduction on heap tables, NPN orbit search per match.
pub fn map(aig: &Aig, library: &CellLibrary, params: MapperParams) -> MappedNetlist {
    let mut subject = aig.cleanup();
    subject.compute_fanouts();
    let cut_sets = CutEnumerator::new(mapper_cut_params(params)).enumerate(&subject);
    let mut matcher = Matcher::new(&subject, library, params.mode);
    for id in subject.and_ids() {
        let mut best = None;
        for cut in cut_sets[id].cuts() {
            let Ok(truth) = cut_truth(&subject, id, cut) else {
                continue;
            };
            // Reduce to the true support so e.g. a 3-leaf cut computing a
            // 2-input function can match 2-input cells.
            let support = truth.support();
            if support.is_empty() {
                continue; // constant functions never reach the cover
            }
            let (reduced, leaves) = reduce_support(&truth, &support, cut.leaves());
            matcher.consider(&mut best, id, &leaves, library.matches(&reduced));
        }
        matcher.commit(id, best);
    }
    matcher.into_netlist()
}

/// Projects `truth` onto its support variables and returns the reduced table
/// together with the corresponding leaf nodes.
pub(crate) fn reduce_support(
    truth: &TruthTable,
    support: &[usize],
    leaves: &[NodeId],
) -> (TruthTable, Vec<NodeId>) {
    if support.len() == truth.num_vars() {
        return (truth.clone(), leaves.to_vec());
    }
    let mut reduced = TruthTable::zeros(support.len());
    for row in 0..reduced.num_rows() {
        // Build a full-width row where support variables take the bits of `row`
        // and non-support variables are zero.
        let mut full = 0usize;
        for (new_pos, &old_var) in support.iter().enumerate() {
            if row >> new_pos & 1 == 1 {
                full |= 1 << old_var;
            }
        }
        reduced.set(row, truth.get(full));
    }
    let new_leaves = support.iter().map(|&v| leaves[v]).collect();
    (reduced, new_leaves)
}
