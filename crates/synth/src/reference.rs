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
//! structured code the crate started from — [`CutEnumerator`] over
//! heap-allocated [`Cut`]s plus one [`aig::cut_truth`] cone walk per cut,
//! [`isop`] on heap tables,
//! [`reconv_cut`] with linear scans, the uncapped cost estimators, exhaustive
//! NPN orbit search ([`npn_canonical`]) compared against every cell in
//! [`matching_cells`], and a sequential sweep.  Both
//! sweeps apply their decisions through the same rebuild
//! ([`rebuild_with_decisions`]).  It exists so the differential suite
//! (`tests/differential.rs`) can hold production to it **bit for
//! bit**; nothing that ships calls it.  An optimisation *replaces* production
//! code and is checked against this module; it never adds a third
//! implementation or a switch between two.

use std::collections::{HashMap, HashSet};

use aig::{cut_truth, Aig, CutParams, Lit, Mffc, NodeId, TruthTable};

use crate::balance::build_balanced;
use crate::decomp::{count_shannon_nodes, count_shannon_nodes_reusing};
use crate::library::{CellId, CellLibrary};
use crate::mapper::{MappedNetlist, MapperParams, Matcher};
use crate::passes::Transform;
use crate::reconv::reconv_cut;
use crate::resyn::{rebuild_with_decisions_into, Acceptance, Decision, Proposal, Structure};
use crate::sop::{count_sop_nodes, count_sop_nodes_reusing, isop};
use crate::{refactor, restructure, rewrite};

/// A cut of a node: its leaves, sorted by strictly increasing node id, plus a
/// 64-bit Bloom-style signature for fast dominance rejection.  The oracle of
/// [`aig::Cut4`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    leaves: Vec<NodeId>,
    signature: u64,
}

impl Cut {
    /// The unit cut `{node}`.
    pub fn trivial(node: NodeId) -> Self {
        Cut {
            leaves: vec![node],
            signature: Self::sig_of(node),
        }
    }

    /// A cut over `leaves` (sorted and de-duplicated here).
    pub fn from_leaves(mut leaves: Vec<NodeId>) -> Self {
        leaves.sort_unstable();
        leaves.dedup();
        let signature = leaves.iter().fold(0u64, |s, &l| s | Self::sig_of(l));
        Cut { leaves, signature }
    }

    fn sig_of(node: NodeId) -> u64 {
        1u64 << (node % 64)
    }

    /// The leaf nodes, sorted by id.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }

    /// `true` if `self`'s leaves are a subset of `other`'s: the dominated cut
    /// can never lead to a better implementation and is pruned.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.leaves.len() > other.leaves.len() {
            return false;
        }
        if self.signature & !other.signature != 0 {
            return false;
        }
        self.leaves
            .iter()
            .all(|l| other.leaves.binary_search(l).is_ok())
    }

    /// The union of two cuts, or `None` when it has more than `k` leaves.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        let union = Cut::from_leaves([self.leaves(), other.leaves()].concat());
        (union.size() <= k).then_some(union)
    }
}

/// The cuts enumerated for one node, in enumeration order.
#[derive(Debug, Clone, Default)]
pub struct CutSet {
    cuts: Vec<Cut>,
}

impl CutSet {
    /// The cuts, in enumeration order.
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Number of cuts stored for the node.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Returns `true` when no cut is stored.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    fn push_filtered(&mut self, cut: Cut, limit: usize) {
        if self.cuts.iter().any(|c| c.dominates(&cut)) {
            return;
        }
        self.cuts.retain(|c| !cut.dominates(c));
        if self.cuts.len() < limit {
            self.cuts.push(cut);
        }
    }
}

/// Enumerates k-feasible cuts for every node in one topological sweep: the
/// oracle of [`aig::Cut4Enumerator`], with the same merge order, dominance
/// filter, per-node limit and unit-cut rule.
#[derive(Debug, Clone)]
pub struct CutEnumerator {
    params: CutParams,
}

impl CutEnumerator {
    /// Creates an enumerator with the given parameters.
    pub fn new(params: CutParams) -> Self {
        CutEnumerator { params }
    }

    /// Enumerates cuts for every node; the result is indexed by node id.
    pub fn enumerate(&self, aig: &Aig) -> Vec<CutSet> {
        let mut sets: Vec<CutSet> = vec![CutSet::default(); aig.len()];
        sets[0].cuts.push(Cut::trivial(0));
        for &pi in aig.input_ids() {
            sets[pi].cuts.push(Cut::trivial(pi));
        }
        for id in aig.node_ids() {
            let Some((a, b)) = aig.node(id).fanins() else {
                continue;
            };
            let mut set = CutSet::default();
            let limit = self.params.max_cuts_per_node;
            for ca in &sets[a.node()].cuts {
                for cb in &sets[b.node()].cuts {
                    if let Some(m) = ca.merge(cb, self.params.max_cut_size) {
                        set.push_filtered(m, limit);
                    }
                }
            }
            if set.is_empty() {
                set.push_filtered(Cut::trivial(id), limit.max(1));
            }
            sets[id] = set;
        }
        sets
    }
}

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
    // Cuts are enumerated once on the cleaned-up working copy used by the
    // sweep (the sweep applies all decisions in one rebuild, so the graph the
    // cuts were enumerated on stays valid for the whole pass).
    let work = aig.cleanup();
    let cut_sets = CutEnumerator::new(CutParams::default()).enumerate(&work);
    resynthesis_sweep(&work, acceptance, |graph, id| {
        let mut proposals = Vec::new();
        for cut in cut_sets[id].cuts() {
            if cut.size() < 2 {
                continue;
            }
            let Ok(truth) = cut_truth(graph, id, cut.leaves()) else {
                continue;
            };
            proposals.extend(sop_proposal(
                graph,
                id,
                cut.leaves().to_vec(),
                &truth,
                rewrite::MAX_CUBES,
            ));
        }
        proposals
    })
}

fn refactor(aig: &Aig, acceptance: Acceptance) -> Aig {
    resynthesis_sweep(aig, acceptance, |graph, id| {
        let Some((leaves, truth)) = reconv_cut_function(graph, id, refactor::MAX_LEAVES) else {
            return Vec::new();
        };
        Vec::from_iter(sop_proposal(graph, id, leaves, &truth, refactor::MAX_CUBES))
    })
}

fn restructure(aig: &Aig) -> Aig {
    resynthesis_sweep(aig, Acceptance::strict(), |graph, id| {
        let Some((leaves, truth)) = reconv_cut_function(graph, id, restructure::MAX_LEAVES) else {
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
    let leaves = reconv_cut(graph, id, max_leaves);
    if leaves.len() < 3 {
        return None;
    }
    let truth = cut_truth(graph, id, &leaves).ok()?;
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
/// decided, and committed when it is compatible with the decisions committed
/// before it (the rule of `resyn`'s "Compatible commits").  The function
/// returns the rebuilt, cleaned-up network.
pub fn resynthesis_sweep<F>(aig: &Aig, acceptance: Acceptance, mut propose: F) -> Aig
where
    F: FnMut(&Aig, NodeId) -> Vec<Proposal>,
{
    let mut work = aig.cleanup();
    work.compute_fanouts();
    let ids: Vec<NodeId> = work.and_ids().collect();
    let mut decisions: HashMap<NodeId, Decision> = HashMap::new();
    let mut commits = Commits::default();

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
            if commits.admit(&work, id, &d) {
                decisions.insert(id, d);
            }
        }
    }

    rebuild_with_decisions(&work, &decisions).cleanup()
}

/// The nodes the decisions committed so far free, use and root.
#[derive(Default)]
struct Commits {
    freed: HashSet<NodeId>,
    used: HashSet<NodeId>,
    roots: HashSet<NodeId>,
}

impl Commits {
    /// Commits the decision at `root` when it is compatible with every
    /// decision committed before it: its freed cone (MFFC, root included)
    /// meets no node an earlier one freed or used, and every node it uses
    /// (its leaves and the strash hits of its cost dry-run) is either freed
    /// by none of them or is the root of the one that frees it.
    fn admit(&mut self, g: &Aig, root: NodeId, d: &Decision) -> bool {
        let mffc = Mffc::compute(g, root, &d.leaves);
        let leaf_lits: Vec<Lit> = d.leaves.iter().map(|&n| Lit::from_node(n, false)).collect();
        let mut used = d.leaves.clone();
        let excluded = |n| mffc.contains(n);
        match &d.structure {
            Structure::SumOfProducts(sop) => {
                count_sop_nodes_reusing(g, sop, &leaf_lits, excluded, &mut used)
            }
            Structure::Shannon(truth) => {
                count_shannon_nodes_reusing(g, truth, &leaf_lits, excluded, &mut used)
            }
        };
        let freed = mffc.nodes();
        let compatible = !freed
            .iter()
            .any(|n| self.freed.contains(n) || self.used.contains(n))
            && used
                .iter()
                .all(|n| !self.freed.contains(n) || self.roots.contains(n));
        if compatible {
            self.freed.extend(freed);
            self.used.extend(used);
            self.roots.insert(root);
        }
        compatible
    }
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
    let cut_sets = CutEnumerator::new(CutParams::default()).enumerate(&subject);
    let classes = cell_classes(library);
    let mut matcher = Matcher::new(&subject, library, params.mode);
    for id in subject.and_ids() {
        let mut best = None;
        for cut in cut_sets[id].cuts() {
            let Ok(truth) = cut_truth(&subject, id, cut.leaves()) else {
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
        return (*truth, leaves.to_vec());
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
        let base = if out_neg { f.not() } else { *f };
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
    let mut out = *f;
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

    /// `f = (a & b) & (c & d)` over four inputs.
    fn and4() -> (Aig, Lit) {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 4);
        let ab = g.and(xs[0], xs[1]);
        let cd = g.and(xs[2], xs[3]);
        let f = g.and(ab, cd);
        g.add_output("f", f);
        (g, f)
    }

    #[test]
    fn cut_merge_respects_limit() {
        let c1 = Cut::from_leaves(vec![1, 2]);
        let c2 = Cut::from_leaves(vec![3, 4]);
        assert!(c1.merge(&c2, 4).is_some());
        assert!(c1.merge(&c2, 3).is_none());
        let shared = Cut::from_leaves(vec![2, 3]);
        let m = c1.merge(&shared, 3).expect("merge fits");
        assert_eq!(m.leaves(), &[1, 2, 3]);
    }

    #[test]
    fn dominance() {
        let small = Cut::from_leaves(vec![1, 2]);
        let big = Cut::from_leaves(vec![1, 2, 3]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small.clone()));
        // 65 collides with 1 in the signature; the subset check decides.
        let collide = Cut::from_leaves(vec![2, 65]);
        assert!(!small.dominates(&collide));
    }

    #[test]
    fn enumeration_produces_pi_cut() {
        let (g, f) = and4();
        let sets = CutEnumerator::new(CutParams::default()).enumerate(&g);
        let root_cuts = &sets[f.node()];
        // The full-support cut {a,b,c,d} must be found with k = 4.
        assert!(
            root_cuts
                .cuts()
                .iter()
                .any(|cut| cut.leaves() == g.input_ids()),
            "expected PI cut in {root_cuts:?}"
        );
        // A node with a surviving merged cut gets no unit cut.
        assert!(root_cuts.cuts().iter().all(|c| c.leaves() != [f.node()]));
    }

    #[test]
    fn cuts_bounded_by_limit() {
        let params = CutParams {
            max_cut_size: 4,
            max_cuts_per_node: 3,
        };
        let (g, _) = and4();
        let sets = CutEnumerator::new(params).enumerate(&g);
        for s in &sets {
            assert!(!s.is_empty() && s.len() <= 3, "1..=limit cuts per node");
        }
    }

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
