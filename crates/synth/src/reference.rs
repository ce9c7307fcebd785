//! The oracle of the mapping half: the seed implementation of cut
//! enumeration, of cell matching and of the mapper.
//!
//! The **production path** is [`PassContext`](crate::PassContext): inline
//! 4-cuts with fused truths ([`aig::Cut4Enumerator`]), the NPN4 table
//! ([`CellLibrary::matches_npn4`]) and the mapper that reads both; every
//! public entry point ([`crate::map`], [`crate::FlowRunner`]) runs it.
//!
//! This module is the slow, allocation-heavy, obviously structured code
//! those replaced — [`CutEnumerator`] over heap-allocated [`Cut`]s plus one
//! [`aig::cut_truth`] cone walk per cut, support reduction on heap tables,
//! and exhaustive NPN orbit search ([`npn_canonical`]) compared against
//! every cell in [`matching_cells`] — and [`map`] covers a graph through
//! them.  It exists so the differential suite (`tests/differential.rs`) can
//! hold production to it **bit for bit**; nothing that ships calls it.
//!
//! The passes have no second copy here.  The suite pins their bits and
//! checks every result's function by simulation, over all input patterns on
//! graphs of at most 20 inputs; the kernels they share are held to oracles
//! that compute the same thing another way, beside each kernel
//! ([`crate::sop::isop`], [`crate::reconv::reconv_cut`],
//! [`crate::decomp::count_shannon_nodes`]).

use aig::{cut_truth, Aig, CutParams, NodeId, TruthTable};

use crate::library::{CellId, CellLibrary};
use crate::mapper::{MappedNetlist, MapperParams, Matcher};

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

/// Maps `aig` onto `library` through the oracle: one cone walk per cut,
/// support reduction on heap tables, NPN orbit search per match.
pub fn map(aig: &Aig, library: &CellLibrary, _params: MapperParams) -> MappedNetlist {
    let mut subject = aig.cleanup();
    subject.compute_fanouts();
    let cut_sets = CutEnumerator::new(CutParams::default()).enumerate(&subject);
    let classes = cell_classes(library);
    let mut matcher = Matcher::new(&subject, library);
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
    use aig::Lit;

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
