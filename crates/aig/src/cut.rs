//! Cut parameters and cut functions.
//!
//! A *cut* of a node is a set of leaf nodes such that every path from the
//! primary inputs to the node passes through a leaf.  Cuts are passed around
//! as their leaves, sorted by strictly increasing node id; the production
//! 4-cut enumerator is [`Cut4Enumerator`](crate::Cut4Enumerator).

use std::collections::HashMap;

use crate::{Aig, Lit, NodeId, TruthTable};

/// Parameters of cut enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutParams {
    /// Maximum number of leaves per cut (`k`).
    pub max_cut_size: usize,
    /// Maximum number of cuts kept per node.
    pub max_cuts_per_node: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        CutParams {
            max_cut_size: 4,
            max_cuts_per_node: 8,
        }
    }
}

/// Computes the truth table of `root` expressed over the cut `leaves`.
///
/// `leaves` must be sorted by strictly increasing node id; that order defines
/// the variable order of the table (leaf `i` is variable `i`).  This is the
/// memoised recursive walk kept as the oracle of [`cut_truth_with`].
///
/// # Errors
///
/// Returns [`crate::AigError::CutTooWide`] when the cut has more than
/// [`crate::MAX_TRUTH_VARS`] leaves, and
/// [`crate::AigError::InvalidLiteral`] if the cone of `root` reaches a primary
/// input that is not covered by the cut.
pub fn cut_truth(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> crate::Result<TruthTable> {
    check_cut(leaves)?;
    let nv = leaves.len();
    let mut memo: HashMap<NodeId, TruthTable> = HashMap::new();
    for (i, &leaf) in leaves.iter().enumerate() {
        memo.insert(leaf, TruthTable::var(i, nv));
    }
    eval_node(aig, root, nv, &mut memo)
}

/// The checks both cut-function walks share: sorted leaves (debug builds)
/// and a width a [`TruthTable`] can hold.
#[inline]
fn check_cut(leaves: &[NodeId]) -> crate::Result<()> {
    debug_assert!(
        leaves.windows(2).all(|w| w[0] < w[1]),
        "cut leaves must strictly increase: {leaves:?}"
    );
    if leaves.len() > crate::MAX_TRUTH_VARS {
        return Err(crate::AigError::CutTooWide(leaves.len()));
    }
    Ok(())
}

/// Reusable buffers for allocation-free cut-function computation.
///
/// The resynthesis passes compute one cut function per node per sweep; with a
/// scratch carried across calls, [`cut_truth_with`] performs the cone walk
/// iteratively over a dense, stamped table buffer instead of rebuilding a
/// `HashMap<NodeId, TruthTable>` on every call.
#[derive(Debug, Default)]
pub struct CutTruthScratch {
    tables: Vec<TruthTable>,
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl CutTruthScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
            self.tables.resize(len, TruthTable::zeros(0));
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    fn stamped(&self, id: NodeId) -> bool {
        self.stamp[id] == self.epoch
    }

    #[inline]
    fn set(&mut self, id: NodeId, t: TruthTable) {
        self.tables[id] = t;
        self.stamp[id] = self.epoch;
    }
}

/// Computes the truth table of `root` over the cut `leaves`, reusing the
/// buffers of `scratch` so the cone walk itself performs no heap allocation.
///
/// Produces exactly the same result as [`cut_truth`].
///
/// # Errors
///
/// Same conditions as [`cut_truth`].
pub fn cut_truth_with(
    aig: &Aig,
    root: NodeId,
    leaves: &[NodeId],
    scratch: &mut CutTruthScratch,
) -> crate::Result<TruthTable> {
    check_cut(leaves)?;
    let nv = leaves.len();
    scratch.begin(aig.len());
    for (i, &leaf) in leaves.iter().enumerate() {
        scratch.set(leaf, TruthTable::var(i, nv));
    }
    let mut stack = std::mem::take(&mut scratch.stack);
    stack.clear();
    stack.push(root);
    while let Some(&id) = stack.last() {
        if scratch.stamped(id) {
            stack.pop();
            continue;
        }
        if id == 0 {
            scratch.set(0, TruthTable::zeros(nv));
            stack.pop();
            continue;
        }
        let Some((a, b)) = aig.node(id).fanins() else {
            // A primary input not covered by the cut.
            scratch.stack = stack;
            return Err(crate::AigError::InvalidLiteral(Lit::from_node(id, false)));
        };
        let (an, bn) = (a.node(), b.node());
        let mut ready = true;
        // Push `b` first so `a`'s subtree is evaluated first, mirroring the
        // recursive reference (relevant for which uncovered input errors).
        if !scratch.stamped(bn) {
            stack.push(bn);
            ready = false;
        }
        if !scratch.stamped(an) {
            stack.push(an);
            ready = false;
        }
        if !ready {
            continue;
        }
        let (ta, tb) = (scratch.tables[an], scratch.tables[bn]);
        let ta = if a.is_complemented() { ta.not() } else { ta };
        let tb = if b.is_complemented() { tb.not() } else { tb };
        scratch.set(id, ta.and(&tb));
        stack.pop();
    }
    scratch.stack = stack;
    Ok(scratch.tables[root])
}

fn eval_node(
    aig: &Aig,
    id: NodeId,
    nv: usize,
    memo: &mut HashMap<NodeId, TruthTable>,
) -> crate::Result<TruthTable> {
    if let Some(&t) = memo.get(&id) {
        return Ok(t);
    }
    if id == 0 {
        let t = TruthTable::zeros(nv);
        memo.insert(id, t);
        return Ok(t);
    }
    let Some((a, b)) = aig.node(id).fanins() else {
        // A primary input that is not a cut leaf: the cut does not cover the cone.
        return Err(crate::AigError::InvalidLiteral(Lit::from_node(id, false)));
    };
    let ta = eval_node(aig, a.node(), nv, memo)?;
    let tb = eval_node(aig, b.node(), nv, memo)?;
    let ta = if a.is_complemented() { ta.not() } else { ta };
    let tb = if b.is_complemented() { tb.not() } else { tb };
    let t = ta.and(&tb);
    memo.insert(id, t);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> (Aig, Lit, Lit, Lit, Lit, Lit) {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let ab = g.and(a, b);
        let cd = g.and(c, d);
        let f = g.and(ab, cd);
        g.add_output("f", f);
        (g, a, b, c, f, ab)
    }

    #[test]
    fn cut_truth_matches_function() {
        let (g, a, b, c, f, _) = sample_aig();
        let d = g.input_ids()[3];
        let leaves = [a.node(), b.node(), c.node(), d];
        let t = cut_truth(&g, f.node(), &leaves).expect("cut covers cone");
        // f = a & b & c & d: exactly one satisfying row.
        assert_eq!(t.count_ones(), 1);
        assert!(t.get(0b1111));
    }

    #[test]
    fn cut_truth_intermediate_leaf() {
        let (g, _, _, c, f, ab) = sample_aig();
        let d = g.input_ids()[3];
        let leaves = [c.node(), d, ab.node()];
        let t = cut_truth(&g, f.node(), &leaves).expect("cut covers cone");
        assert_eq!(t.num_vars(), 3);
        assert_eq!(t.count_ones(), 1);
        assert!(t.get(0b111));
    }

    #[test]
    fn cut_truth_rejects_uncovered_cone() {
        let (g, a, b, _, f, _) = sample_aig();
        assert!(cut_truth(&g, f.node(), &[a.node(), b.node()]).is_err());
    }

    #[test]
    fn trivial_cut_truth_is_projection() {
        let (g, _, _, _, f, _) = sample_aig();
        let t = cut_truth(&g, f.node(), &[f.node()]).expect("trivial cut");
        assert_eq!(t, TruthTable::var(0, 1));
    }

    #[test]
    fn scratch_truth_matches_reference() {
        let (g, a, b, c, f, ab) = sample_aig();
        let d = g.input_ids()[3];
        let mut scratch = CutTruthScratch::new();
        let cuts: [&[NodeId]; 3] = [
            &[a.node(), b.node(), c.node(), d],
            &[c.node(), d, ab.node()],
            &[f.node()],
        ];
        for leaves in cuts {
            let want = cut_truth(&g, f.node(), leaves).expect("covered");
            let got = cut_truth_with(&g, f.node(), leaves, &mut scratch).expect("covered");
            assert_eq!(want, got, "cut {leaves:?}");
        }
        // Uncovered cones error identically.
        let bad = [a.node(), b.node()];
        assert_eq!(
            cut_truth(&g, f.node(), &bad),
            cut_truth_with(&g, f.node(), &bad, &mut scratch)
        );
    }

    /// Nine leaves is one past what a `TruthTable` holds: both walks refuse
    /// the cut with the same error.
    #[test]
    fn nine_leaf_cut_is_too_wide_for_both_walks() {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 9);
        let low = g.and_many(&xs[..8]);
        let f = g.and(low, xs[8]);
        g.add_output("f", f);
        let leaves: Vec<NodeId> = xs.iter().map(|l| l.node()).collect();
        let want = Err(crate::AigError::CutTooWide(9));
        assert_eq!(cut_truth(&g, f.node(), &leaves), want);
        let mut scratch = CutTruthScratch::new();
        assert_eq!(cut_truth_with(&g, f.node(), &leaves, &mut scratch), want);
        // Eight leaves still fit.
        let t = cut_truth_with(&g, low.node(), &leaves[..8], &mut scratch);
        assert_eq!(t, cut_truth(&g, low.node(), &leaves[..8]));
        assert_eq!(t.map(|t| t.count_ones()), Ok(1));
    }
}
