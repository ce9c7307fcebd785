//! Reconvergence-driven cut computation.
//!
//! `refactor` and `restructure` operate on one large cut per node instead of the
//! enumerated 4-feasible cuts used by `rewrite`.  The cut is grown greedily from
//! the node's fanins, preferring expansions that do not increase the leaf count
//! (reconvergent paths), exactly in the spirit of ABC's reconvergence-driven
//! cut computation.

use aig::{Aig, NodeId};

/// Computes a reconvergence-driven cut of `root` with at most `max_leaves`
/// leaves, returning the sorted leaf set.
///
/// The cut always covers the cone of `root`: every path from a primary input to
/// `root` goes through a leaf.  Primary inputs and the constant node are never
/// expanded.
pub fn reconv_cut(aig: &Aig, root: NodeId, max_leaves: usize) -> Vec<NodeId> {
    let mut leaves: Vec<NodeId> = Vec::new();
    let mut visited: Vec<NodeId> = vec![root];
    match aig.node(root).fanins() {
        Some((a, b)) => {
            push_unique(&mut leaves, a.node());
            push_unique(&mut leaves, b.node());
        }
        None => return vec![root],
    }

    loop {
        // Find the best leaf to expand: an AND node whose expansion increases
        // the leaf count the least (negative cost = reconvergence).
        let mut best: Option<(usize, i32)> = None;
        for (i, &leaf) in leaves.iter().enumerate() {
            if !aig.node(leaf).is_and() {
                continue;
            }
            let (a, b) = aig.node(leaf).fanins().expect("AND node");
            let mut cost = -1i32; // removing the leaf itself
            for f in [a.node(), b.node()] {
                if !leaves.contains(&f) && !visited.contains(&f) {
                    cost += 1;
                }
            }
            if leaves.len() as i32 + cost > max_leaves as i32 {
                continue;
            }
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
            if cost <= 0 {
                break; // cannot do better than free
            }
        }
        let Some((idx, _)) = best else { break };
        let leaf = leaves.swap_remove(idx);
        visited.push(leaf);
        let (a, b) = aig.node(leaf).fanins().expect("AND node");
        for f in [a.node(), b.node()] {
            if !visited.contains(&f) {
                push_unique(&mut leaves, f);
            }
        }
    }
    leaves.sort_unstable();
    leaves
}

/// Reusable state of `reconv_cut_sweep`: one epoch-stamped membership set
/// for the cut's leaves and the nodes it has expanded, replacing
/// [`reconv_cut`]'s linear `visited.contains` / `leaves.contains` scans.
#[derive(Debug, Default)]
pub struct ReconvScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl ReconvScratch {
    fn begin(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Adds `id` to the leaves ∪ visited set.
    #[inline]
    fn insert(&mut self, id: NodeId) {
        self.stamp[id] = self.epoch;
    }

    #[inline]
    fn contains(&self, id: NodeId) -> bool {
        self.stamp[id] == self.epoch
    }
}

/// [`reconv_cut`] on recycled scratch, growing the leaf set into the
/// caller-recycled `leaves` buffer — what the passes run.
///
/// The growth loop's cost check and its expansion ask, for every candidate
/// fanin, "is it a leaf or already expanded?" — only the union, never either
/// half.  The oracle answers with two linear scans, this variant with one
/// epoch stamp: a node enters the set when it becomes a leaf and stays when
/// it is expanded.  Iteration order, growth decisions, tie-breaks and the
/// produced leaf set are identical (pinned by
/// `sweep_cut_is_identical_to_reference`).
pub(crate) fn reconv_cut_sweep(
    aig: &Aig,
    root: NodeId,
    max_leaves: usize,
    scratch: &mut ReconvScratch,
    leaves: &mut Vec<NodeId>,
) {
    scratch.begin(aig.len());
    leaves.clear();
    scratch.insert(root);
    match aig.node(root).fanins() {
        Some((a, b)) => {
            for f in [a.node(), b.node()] {
                if !scratch.contains(f) {
                    scratch.insert(f);
                    leaves.push(f);
                }
            }
        }
        None => {
            leaves.push(root);
            return;
        }
    }

    loop {
        let mut best: Option<(usize, i32)> = None;
        for (i, &leaf) in leaves.iter().enumerate() {
            if !aig.node(leaf).is_and() {
                continue;
            }
            let (a, b) = aig.node(leaf).fanins().expect("AND node");
            let mut cost = -1i32; // removing the leaf itself
            for f in [a.node(), b.node()] {
                if !scratch.contains(f) {
                    cost += 1;
                }
            }
            if leaves.len() as i32 + cost > max_leaves as i32 {
                continue;
            }
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
            if cost <= 0 {
                break; // cannot do better than free
            }
        }
        let Some((idx, _)) = best else { break };
        // The expanded leaf stays in the set, now as a visited node.
        let leaf = leaves.swap_remove(idx);
        let (a, b) = aig.node(leaf).fanins().expect("AND node");
        for f in [a.node(), b.node()] {
            if !scratch.contains(f) {
                scratch.insert(f);
                leaves.push(f);
            }
        }
    }
    leaves.sort_unstable();
}

fn push_unique(v: &mut Vec<NodeId>, x: NodeId) {
    if !v.contains(&x) {
        v.push(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::cut_truth;

    #[test]
    fn cut_of_input_is_trivial() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let cut = reconv_cut(&g, a.node(), 8);
        assert_eq!(cut, vec![a.node()]);
    }

    #[test]
    fn cut_covers_cone_and_respects_limit() {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            let t = g.xor(acc, x);
            acc = t;
        }
        g.add_output("f", acc);
        for max_leaves in [4usize, 6, 8] {
            let leaves = reconv_cut(&g, acc.node(), max_leaves);
            assert!(leaves.len() <= max_leaves, "limit {max_leaves}");
            // The leaf set must be a valid cut: truth computation succeeds.
            assert!(cut_truth(&g, acc.node(), &leaves).is_ok());
        }
    }

    #[test]
    fn wide_limit_reaches_primary_inputs() {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 4);
        let ab = g.and(xs[0], xs[1]);
        let cd = g.and(xs[2], xs[3]);
        let f = g.and(ab, cd);
        g.add_output("f", f);
        let leaves = reconv_cut(&g, f.node(), 8);
        let mut want: Vec<NodeId> = xs.iter().map(|l| l.node()).collect();
        want.sort_unstable();
        assert_eq!(leaves, want);
    }

    #[test]
    fn scratch_cut_is_identical_to_reference() {
        // The stamps survive an epoch wrap-around: start the scratch a few
        // cuts short of `u32::MAX` and keep matching the oracle across it.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = g.xor(acc, x);
        }
        g.add_output("f", acc);
        let mut scratch = ReconvScratch::default();
        scratch.begin(g.len());
        scratch.epoch = u32::MAX - 3;
        let mut fast = Vec::new();
        for round in 0..3 {
            for id in 0..g.len() {
                reconv_cut_sweep(&g, id, 6, &mut scratch, &mut fast);
                assert_eq!(reconv_cut(&g, id, 6), fast, "round {round} node {id}");
            }
        }
        assert!(scratch.epoch < 1000, "the epoch wrapped and restarted");
    }

    #[test]
    fn sweep_cut_is_identical_to_reference() {
        // Random graphs: every node's cut must match the oracle exactly,
        // with one scratch reused across all nodes (and stale stamps).
        let mut state = 0xABCD_1234u64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut scratch = ReconvScratch::default();
        for _ in 0..5 {
            let mut g = Aig::new();
            let mut lits: Vec<aig::Lit> = g.add_inputs("x", 6);
            for _ in 0..60 {
                let a = lits[(rng() % lits.len() as u64) as usize];
                let b = lits[(rng() % lits.len() as u64) as usize];
                let a = if rng() & 1 == 1 { !a } else { a };
                let b = if rng() & 1 == 1 { !b } else { b };
                let l = g.and(a, b);
                if !l.is_const() {
                    lits.push(l);
                }
            }
            for max_leaves in [4usize, 6, 8] {
                for id in 0..g.len() {
                    let reference = reconv_cut(&g, id, max_leaves);
                    let mut fast = Vec::new();
                    reconv_cut_sweep(&g, id, max_leaves, &mut scratch, &mut fast);
                    assert_eq!(reference, fast, "node {id} max_leaves {max_leaves}");
                }
            }
        }
    }

    #[test]
    fn reconvergence_is_preferred() {
        // f = (a & b) & (a & c): expanding either fanin re-uses `a`.
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let ac = g.and(a, c);
        let f = g.and(ab, ac);
        g.add_output("f", f);
        let leaves = reconv_cut(&g, f.node(), 3);
        let mut want = vec![a.node(), b.node(), c.node()];
        want.sort_unstable();
        assert_eq!(leaves, want);
    }
}
