//! The oracle: the seed implementation of every pass and of the mapper.
//!
//! `synth` has exactly two implementations per concern.  The **production
//! path** is [`PassContext`](crate::PassContext): inline 4-cuts with fused
//! truths, the NPN4 table, the memoizing ISOP cache, the budget-capped cost
//! estimators probing the graph's own strash, and the sweep that proposes
//! over node chunks in parallel.  Every
//! public entry point ([`Transform::apply`], [`crate::apply_sequence`],
//! [`crate::map`], [`crate::FlowRunner`]) runs it.
//!
//! This module is the other one: the slow, allocation-heavy, obviously
//! structured code the crate started from — [`aig::CutEnumerator`] plus one
//! [`aig::cut_truth`] cone walk per cut, [`isop`] on heap tables,
//! [`reconv_cut`] with linear scans, the uncapped cost estimators, exhaustive
//! NPN orbit search ([`npn_canonical`]) compared against every cell in
//! [`matching_cells`], and a sequential sweep.  Both
//! sweeps apply their decisions through the same rebuild
//! ([`rebuild_with_decisions`]).  It exists so the differential suite
//! (`tests/differential.rs`) can hold production to it **bit for
//! bit**; nothing that ships calls it.  An optimisation *replaces* production
//! code and is checked against this module; it never adds a third
//! implementation or a switch between two.

use std::collections::HashMap;

use aig::{cut_truth, Aig, Cut, CutEnumerator, CutParams, Lit, Mffc, NodeId, TruthTable};

use crate::balance::build_balanced;
use crate::decomp::count_shannon_nodes;
use crate::library::{CellId, CellLibrary};
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
    let classes = cell_classes(library);
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
            let cells = matching_cells(&classes, &reduced);
            matcher.consider(&mut best, id, &leaves, &cells);
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

/// The orbit-canonical form of every cell's function, in cell-id order (the
/// library side of [`matching_cells`]).
pub fn cell_classes(library: &CellLibrary) -> Vec<TruthTable> {
    let cells = library.cells().iter();
    cells
        .map(|c| npn_canonical(&c.function).canonical)
        .collect()
}

/// The ids, in cell-id order, of the library cells whose function has `f`'s
/// arity and `f`'s NPN class (`classes` from [`cell_classes`]; table equality
/// includes the arity): the oracle of [`CellLibrary::matches_npn4`].  A
/// dead-pin cell is compared too; its class never equals that of a
/// full-support query of its arity.
pub fn matching_cells(classes: &[TruthTable], f: &TruthTable) -> Vec<CellId> {
    let canon = npn_canonical(f).canonical;
    let ids = classes.iter().enumerate();
    ids.filter(|(_, class)| **class == canon)
        .map(|(id, _)| id)
        .collect()
}

/// Maximum function arity supported by the orbit search (library cells are
/// ≤ 4 inputs).
pub const MAX_NPN_VARS: usize = 4;

/// The canonical representative of an NPN class together with the
/// transformation that maps the original function onto it.
///
/// Two functions belong to the same NPN class when one can be obtained from
/// the other by Negating inputs, Permuting inputs and/or Negating the output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpnClass {
    /// Canonical truth table (lexicographically smallest over the orbit).
    pub canonical: TruthTable,
    /// Whether the output had to be complemented to reach the canonical form.
    pub output_negated: bool,
    /// Permutation applied to the inputs: `perm[i]` is the original variable
    /// placed at canonical position `i`.
    pub permutation: Vec<usize>,
    /// Input complementation mask (bit `i` set means canonical input `i` is the
    /// complement of the original variable `perm[i]`).
    pub input_negation: u32,
}

/// Computes the NPN canonical form of a function by exhaustive orbit search:
/// the oracle of [`crate::npn4`]'s table.
///
/// The orbit of an `n`-input function has at most `2 * n! * 2^n` members
/// (≤ 768 for `n = 4`), so exhaustive search is cheap and exact.
///
/// # Panics
///
/// Panics if the function has more than [`MAX_NPN_VARS`] variables.
pub fn npn_canonical(f: &TruthTable) -> NpnClass {
    let n = f.num_vars();
    assert!(
        n <= MAX_NPN_VARS,
        "NPN canonization supports at most {MAX_NPN_VARS} inputs"
    );
    let mut best: Option<NpnClass> = None;
    let perms = permutations(n);
    for out_neg in [false, true] {
        let base = if out_neg { f.not() } else { f.clone() };
        for perm in &perms {
            let permuted = apply_permutation(&base, perm);
            for neg_mask in 0u32..(1 << n) {
                let candidate = apply_negation(&permuted, neg_mask);
                let better = match &best {
                    None => true,
                    Some(b) => candidate.cmp_bits(&b.canonical) == std::cmp::Ordering::Less,
                };
                if better {
                    best = Some(NpnClass {
                        canonical: candidate,
                        output_negated: out_neg,
                        permutation: perm.clone(),
                        input_negation: neg_mask,
                    });
                }
            }
        }
    }
    best.expect("orbit is never empty")
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    permute_rec(&mut items, 0, &mut out);
    out
}

fn permute_rec(items: &mut Vec<usize>, start: usize, out: &mut Vec<Vec<usize>>) {
    if start == items.len() {
        out.push(items.clone());
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute_rec(items, start + 1, out);
        items.swap(start, i);
    }
}

/// Applies an input permutation: canonical variable `i` reads original variable `perm[i]`.
fn apply_permutation(f: &TruthTable, perm: &[usize]) -> TruthTable {
    let n = f.num_vars();
    let mut out = TruthTable::zeros(n);
    for row in 0..f.num_rows() {
        // Build the original-row index corresponding to canonical row `row`.
        let mut src = 0usize;
        for (canon_var, &orig_var) in perm.iter().enumerate() {
            if row >> canon_var & 1 == 1 {
                src |= 1 << orig_var;
            }
        }
        out.set(row, f.get(src));
    }
    out
}

fn apply_negation(f: &TruthTable, mask: u32) -> TruthTable {
    let mut out = f.clone();
    for v in 0..f.num_vars() {
        if mask >> v & 1 == 1 {
            out = out.flip_var(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npn_merges_and_family() {
        // AND, NAND, NOR, OR and all their input-phase variants form one class.
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let variants = [
            a.and(&b),
            a.and(&b).not(),
            a.not().and(&b.not()),
            a.or(&b),
            a.and(&b.not()),
        ];
        let canon: Vec<TruthTable> = variants
            .iter()
            .map(|f| npn_canonical(f).canonical)
            .collect();
        for c in &canon[1..] {
            assert_eq!(c, &canon[0]);
        }
    }

    #[test]
    fn npn_separates_and_from_xor() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let and_c = npn_canonical(&a.and(&b)).canonical;
        let xor_c = npn_canonical(&a.xor(&b)).canonical;
        assert_ne!(and_c, xor_c);
    }

    #[test]
    fn canonical_is_idempotent() {
        let f = TruthTable::var(0, 2).and(&TruthTable::var(1, 2));
        let c1 = npn_canonical(&f);
        let c2 = npn_canonical(&c1.canonical);
        assert_eq!(c1.canonical, c2.canonical);
    }

    #[test]
    fn three_input_majority_class() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let maj = a.and(&b).or(&a.and(&c)).or(&b.and(&c));
        let maj_neg_inputs = a
            .not()
            .and(&b.not())
            .or(&a.not().and(&c.not()))
            .or(&b.not().and(&c.not()));
        assert_eq!(
            npn_canonical(&maj).canonical,
            npn_canonical(&maj_neg_inputs).canonical,
            "majority is NPN-equivalent to its input-negated version"
        );
    }

    #[test]
    fn permutation_application_is_consistent() {
        // f = x0 & !x1; permuting [1, 0] must swap the roles of the variables.
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let f = a.and(&b.not());
        let swapped = apply_permutation(&f, &[1, 0]);
        assert_eq!(swapped, b.and(&a.not()));
    }

    #[test]
    fn constants_are_their_own_class() {
        let zero = TruthTable::zeros(2);
        let one = TruthTable::ones(2);
        // Output negation folds them into one class.
        assert_eq!(
            npn_canonical(&zero).canonical,
            npn_canonical(&one).canonical
        );
    }
}
