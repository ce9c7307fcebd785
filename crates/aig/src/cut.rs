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
/// the variable order of the table (leaf `i` is variable `i`).
///
/// # Errors
///
/// Returns [`crate::AigError::CutTooWide`] when the cut has more than
/// [`crate::truth::MAX_TRUTH_VARS`] leaves, and
/// [`crate::AigError::InvalidLiteral`] if the cone of `root` reaches a primary
/// input that is not covered by the cut.
pub fn cut_truth(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> crate::Result<TruthTable> {
    debug_assert_sorted(leaves);
    let nv = leaves.len();
    if nv > crate::truth::MAX_TRUTH_VARS {
        return Err(crate::AigError::CutTooWide(nv));
    }
    let mut memo: HashMap<NodeId, TruthTable> = HashMap::new();
    for (i, &leaf) in leaves.iter().enumerate() {
        memo.insert(leaf, TruthTable::var(i, nv));
    }
    eval_node(aig, root, nv, &mut memo)
}

#[inline]
fn debug_assert_sorted(leaves: &[NodeId]) {
    debug_assert!(
        leaves.windows(2).all(|w| w[0] < w[1]),
        "cut leaves must strictly increase: {leaves:?}"
    );
}

/// Maximum cut width supported by the scratch-based fast path of
/// [`cut_truth_with`] (wider cuts fall back to [`cut_truth`]).
pub const MAX_SCRATCH_TRUTH_VARS: usize = 8;

/// Reusable buffers for allocation-free cut-function computation.
///
/// The resynthesis passes compute one cut function per node per sweep; with a
/// scratch carried across calls, [`cut_truth_with`] performs the cone walk
/// iteratively over dense, stamped word buffers instead of rebuilding a
/// `HashMap<NodeId, TruthTable>` (and one heap allocation per cone node) on
/// every call.
#[derive(Debug, Default)]
pub struct CutTruthScratch {
    words: Vec<[u64; 4]>,
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
            self.words.resize(len, [0; 4]);
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
    fn set(&mut self, id: NodeId, w: [u64; 4]) {
        self.words[id] = w;
        self.stamp[id] = self.epoch;
    }
}

/// Truth-table words of variable `v` over the full 8-variable scratch domain.
#[inline]
fn var_words8(v: usize) -> [u64; 4] {
    match v {
        0..=5 => [crate::truth::VAR_MASKS[v]; 4],
        6 => [0, u64::MAX, 0, u64::MAX],
        _ => [0, 0, u64::MAX, u64::MAX],
    }
}

/// Computes the truth table of `root` over the cut `leaves`, reusing the
/// buffers of `scratch` so the cone walk itself performs no heap allocation.
///
/// Produces exactly the same result as [`cut_truth`]; cuts wider than
/// [`MAX_SCRATCH_TRUTH_VARS`] fall back to it.
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
    let nv = leaves.len();
    if nv > MAX_SCRATCH_TRUTH_VARS {
        return cut_truth(aig, root, leaves);
    }
    debug_assert_sorted(leaves);
    scratch.begin(aig.len());
    for (i, &leaf) in leaves.iter().enumerate() {
        scratch.set(leaf, var_words8(i));
    }
    if !scratch.stamped(root) {
        // The computation runs over the full 8-variable domain (leaf patterns
        // replicate), so complement and AND are plain word operations; the
        // result is truncated to `nv` variables at the end.
        let mut stack = std::mem::take(&mut scratch.stack);
        stack.clear();
        stack.push(root);
        while let Some(&id) = stack.last() {
            if scratch.stamped(id) {
                stack.pop();
                continue;
            }
            if id == 0 {
                scratch.set(0, [0; 4]);
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
            let wa = scratch.words[an];
            let wb = scratch.words[bn];
            let mut w = [0u64; 4];
            for (i, slot) in w.iter_mut().enumerate() {
                let x = if a.is_complemented() { !wa[i] } else { wa[i] };
                let y = if b.is_complemented() { !wb[i] } else { wb[i] };
                *slot = x & y;
            }
            scratch.set(id, w);
            stack.pop();
        }
        scratch.stack = stack;
    }
    let result = scratch.words[root];
    let word_count = if nv <= 6 { 1 } else { 1 << (nv - 6) };
    Ok(TruthTable::from_words(nv, result[..word_count].to_vec()))
}

fn eval_node(
    aig: &Aig,
    id: NodeId,
    nv: usize,
    memo: &mut HashMap<NodeId, TruthTable>,
) -> crate::Result<TruthTable> {
    if let Some(t) = memo.get(&id) {
        return Ok(t.clone());
    }
    if id == 0 {
        let t = TruthTable::zeros(nv);
        memo.insert(id, t.clone());
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
    memo.insert(id, t.clone());
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
}
