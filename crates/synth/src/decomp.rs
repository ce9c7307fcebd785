//! Shannon (mux-tree) decomposition of cut functions.
//!
//! The `restructure` pass re-expresses a cut function as a tree of 2-to-1
//! multiplexers obtained by recursive Shannon expansion, which produces a
//! structurally different network than the sum-of-products form used by
//! `rewrite`/`refactor`.

use aig::{Aig, Lit, NodeId, TruthTable, VAR_MASKS};

/// Builds the Shannon decomposition of `f` into `aig` over the leaf literals.
///
/// Leaf `i` of the function corresponds to `leaves[i]`.  Returns the root literal.
pub fn build_shannon(aig: &mut Aig, f: &TruthTable, leaves: &[Lit]) -> Lit {
    if f.is_zero() {
        return Lit::FALSE;
    }
    if f.is_one() {
        return Lit::TRUE;
    }
    let support = f.support();
    if support.len() == 1 {
        let v = support[0];
        let leaf = leaves[v];
        return if f == &TruthTable::var(v, f.num_vars()) {
            leaf
        } else {
            !leaf
        };
    }
    let v = pick_split_var(f, &support);
    let s0 = build_shannon(aig, &f.cofactor0(v), leaves);
    let s1 = build_shannon(aig, &f.cofactor1(v), leaves);
    aig.mux(leaves[v], s1, s0)
}

/// Estimates how many new AND nodes [`build_shannon`] would add to `aig`,
/// reusing already-present structure except nodes for which `excluded` is true.
///
/// The estimate is conservative (an upper bound): it assumes the recursion
/// creates fresh nodes whenever either mux operand is itself fresh.  This is
/// the oracle; `restructure` runs `count_shannon_nodes_sweep`, which returns
/// the identical count (or `None` past its budget) without allocating during
/// the recursion.
pub fn count_shannon_nodes(
    aig: &Aig,
    f: &TruthTable,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool + Copy,
) -> usize {
    count_rec(aig, f, leaves, excluded, &mut Vec::new()).1
}

/// [`count_shannon_nodes`] that also pushes every existing AND node the
/// count reuses (each strash hit outside `excluded`) onto `reused`: the
/// nodes the built structure would keep alive.
pub fn count_shannon_nodes_reusing(
    aig: &Aig,
    f: &TruthTable,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool + Copy,
    reused: &mut Vec<NodeId>,
) -> usize {
    count_rec(aig, f, leaves, excluded, reused).1
}

/// [`count_shannon_nodes`] capped at `budget` — the passes' estimator.
///
/// Returns `None` as soon as the count provably exceeds `budget`, `Some(n)`
/// with the exact count otherwise.  The cap is lossless for the sweep's
/// accept loop: a proposal is only viable when `added <= mffc_size -
/// min_gain`, so callers pass that bound as the budget — capped cones are
/// exactly the ones the accept loop would reject, and surviving counts are
/// bit-identical to the uncapped recursion (same split variables, same
/// reuse probes).  `restructure`'s cuts have at most six leaves, so the
/// whole table is one word and the recursion bails as soon as the budget is
/// spent.
pub(crate) fn count_shannon_nodes_sweep(
    aig: &Aig,
    f: &TruthTable,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool + Copy,
    budget: usize,
) -> Option<usize> {
    debug_assert!(f.num_vars() <= 6, "one-word tables only");
    let word = f.words()[0];
    count_rec_budget_u64(aig, word, f.num_vars(), leaves, excluded, budget).map(|(_, n)| n)
}

/// Budget-capped [`count_rec`] on functions of at most six variables, whose
/// whole table is one `u64` word: cofactors, constancy and ones-counts are
/// single bitwise operations on the word, and each support variable's
/// cofactor pair is computed once and shared by the support test, the split
/// scoring and the recursion.  Split choices, probes and counts are the
/// oracle's (pinned by `budgeted_sweep_count_matches_reference`); the
/// recursion returns `None` the moment its count exceeds `budget`.
fn count_rec_budget_u64(
    aig: &Aig,
    f: u64,
    nv: usize,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool + Copy,
    budget: usize,
) -> Option<(Option<Lit>, usize)> {
    let tail = TruthTable::tail_mask(nv);
    if f == 0 {
        return Some((Some(Lit::FALSE), 0));
    }
    if f == tail {
        return Some((Some(Lit::TRUE), 0));
    }
    let mut cof = [(0u64, 0u64); 6];
    let mut support = [0usize; 6];
    let mut num_support = 0usize;
    for (v, slot) in cof.iter_mut().enumerate().take(nv) {
        let shift = 1u32 << v;
        let low = f & !VAR_MASKS[v];
        let c0 = low | (low << shift);
        let high = f & VAR_MASKS[v];
        let c1 = high | (high >> shift);
        if c0 != c1 {
            *slot = (c0, c1);
            support[num_support] = v;
            num_support += 1;
        }
    }
    let support = &support[..num_support];
    if support.len() == 1 {
        let v = support[0];
        let leaf = leaves[v];
        let lit = if f == VAR_MASKS[v] & tail {
            leaf
        } else {
            !leaf
        };
        return Some((Some(lit), 0));
    }
    // `pick_split_var` over the cached pairs: same scores, same tie-breaks.
    let half = (1i64 << nv) / 2;
    let mut v = support[0];
    let mut best_score = -1i64;
    for &cand in support {
        let (c0, c1) = cof[cand];
        let score =
            (i64::from(c0.count_ones()) - half).abs() + (i64::from(c1.count_ones()) - half).abs();
        if score > best_score {
            best_score = score;
            v = cand;
        }
    }
    let (f0, f1) = cof[v];
    let (l0, c0) = count_rec_budget_u64(aig, f0, nv, leaves, excluded, budget)?;
    let (l1, c1) = count_rec_budget_u64(aig, f1, nv, leaves, excluded, budget - c0)?;
    let (lit, mux) = mux_cost(aig, excluded, leaves[v], l1, l0, None);
    let added = c0 + c1 + mux;
    if added > budget {
        return None;
    }
    Some((lit, added))
}

/// Returns `(existing_literal_if_free, added_nodes)` and pushes the AND nodes
/// it reuses onto `reused`.
fn count_rec(
    aig: &Aig,
    f: &TruthTable,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool + Copy,
    reused: &mut Vec<NodeId>,
) -> (Option<Lit>, usize) {
    if f.is_zero() {
        return (Some(Lit::FALSE), 0);
    }
    if f.is_one() {
        return (Some(Lit::TRUE), 0);
    }
    let mut support = [0usize; aig::MAX_TRUTH_VARS];
    let mut num_support = 0usize;
    for v in 0..f.num_vars() {
        if f.depends_on(v) {
            support[num_support] = v;
            num_support += 1;
        }
    }
    let support = &support[..num_support];
    if support.len() == 1 {
        let v = support[0];
        let leaf = leaves[v];
        let lit = if f == &TruthTable::var(v, f.num_vars()) {
            leaf
        } else {
            !leaf
        };
        return (Some(lit), 0);
    }
    let v = pick_split_var(f, support);
    let (l0, c0) = count_rec(aig, &f.cofactor0(v), leaves, excluded, reused);
    let (l1, c1) = count_rec(aig, &f.cofactor1(v), leaves, excluded, reused);
    let (lit, mux) = mux_cost(aig, excluded, leaves[v], l1, l0, Some(reused));
    (lit, c0 + c1 + mux)
}

/// The estimators' combine step: the mux `sel ? t : e` over the cofactors'
/// existing literals `l1`, `l0` (`None` = would be fresh) needs `sel & t`,
/// `!sel & e` and their OR, each free only when `aig` already holds it
/// outside `excluded`.  Returns the mux's literal when it is free, and the
/// number of nodes it adds; pushes the AND nodes it reuses onto `reused`
/// when one is given.
fn mux_cost(
    aig: &Aig,
    excluded: impl Fn(NodeId) -> bool,
    sel: Lit,
    l1: Option<Lit>,
    l0: Option<Lit>,
    mut reused: Option<&mut Vec<NodeId>>,
) -> (Option<Lit>, usize) {
    let mut reuse = |x: Lit, y: Lit| {
        let found = aig
            .find_and(x, y)
            .filter(|l| l.is_const() || !excluded(l.node()));
        if let (Some(l), Some(reused)) = (found, reused.as_deref_mut()) {
            if !l.is_const() {
                reused.push(l.node());
            }
        }
        found
    };
    let (Some(t), Some(e)) = (l1, l0) else {
        return (None, 3);
    };
    match (reuse(sel, t), reuse(!sel, e)) {
        (Some(x), Some(y)) => match reuse(!x, !y) {
            Some(o) => (Some(!o), 0),
            None => (None, 1),
        },
        (a, b) => (None, 1 + a.is_none() as usize + b.is_none() as usize),
    }
}

/// Picks the splitting variable: the support variable whose cofactors are most
/// unbalanced in ones-count, which tends to expose constant branches early.
fn pick_split_var(f: &TruthTable, support: &[usize]) -> usize {
    let mut best = support[0];
    let mut best_score = -1i64;
    for &v in support {
        let c0 = f.cofactor0(v).count_ones() as i64;
        let c1 = f.cofactor1(v).count_ones() as i64;
        let half = (1i64 << f.num_vars()) / 2;
        // Distance of each cofactor from "constant": prefer splits that make a
        // cofactor nearly constant 0 or constant 1.
        let score = (c0 - half).abs() + (c1 - half).abs();
        if score > best_score {
            best_score = score;
            best = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Simulator;

    fn random_truth(num_vars: usize, seed: u64) -> TruthTable {
        let mut t = TruthTable::zeros(num_vars);
        let mut state = seed | 1;
        for row in 0..t.num_rows() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            if state.wrapping_mul(0x2545_F491_4F6C_DD1D) & 1 == 1 {
                t.set(row, true);
            }
        }
        t
    }

    #[test]
    fn shannon_realises_the_function() {
        for seed in 1..=8u64 {
            let mut g = Aig::new();
            let inputs = g.add_inputs("x", 5);
            let f = random_truth(5, seed);
            let root = build_shannon(&mut g, &f, &inputs);
            g.add_output("f", root);
            let sim = Simulator::new(&g);
            for row in 0..32 {
                let bits: Vec<bool> = (0..5).map(|i| row >> i & 1 == 1).collect();
                assert_eq!(sim.evaluate(&bits)[0], f.get(row), "seed={seed} row={row}");
            }
        }
    }

    #[test]
    fn shannon_handles_constants_and_literals() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 3);
        assert_eq!(
            build_shannon(&mut g, &TruthTable::zeros(3), &inputs),
            Lit::FALSE
        );
        assert_eq!(
            build_shannon(&mut g, &TruthTable::ones(3), &inputs),
            Lit::TRUE
        );
        assert_eq!(
            build_shannon(&mut g, &TruthTable::var(1, 3), &inputs),
            inputs[1]
        );
        assert_eq!(
            build_shannon(&mut g, &TruthTable::var(2, 3).not(), &inputs),
            !inputs[2]
        );
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn count_is_an_upper_bound_on_build() {
        for seed in 10..=14u64 {
            let mut g = Aig::new();
            let inputs = g.add_inputs("x", 4);
            let f = random_truth(4, seed);
            let estimated = count_shannon_nodes(&g, &f, &inputs, |_| false);
            let before = g.num_ands();
            build_shannon(&mut g, &f, &inputs);
            let actual = g.num_ands() - before;
            assert!(
                actual <= estimated,
                "seed={seed}: actual {actual} > estimated {estimated}"
            );
        }
    }

    #[test]
    fn fast_count_is_identical_to_reference() {
        // Unlimited budget, every width the estimator accepts (one `u64`
        // word: at most six variables).
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 6);
        let pre0 = g.and(inputs[0], inputs[1]);
        let pre1 = g.mux(inputs[2], pre0, inputs[3]);
        g.add_output("keep", pre1);
        for nv in 2..=6usize {
            for seed in 1..=10u64 {
                let f = random_truth(nv, seed * 31 + nv as u64);
                let leaves = &inputs[..nv];
                let reference = count_shannon_nodes(&g, &f, leaves, |_| false);
                let fast = count_shannon_nodes_sweep(&g, &f, leaves, |_| false, usize::MAX);
                assert_eq!(Some(reference), fast, "nv={nv} seed={seed}");
            }
        }
    }

    #[test]
    fn budgeted_sweep_count_matches_reference() {
        // Random graphs + random truths: the budget-capped
        // counter must return Some(exact reference count) whenever the
        // reference count fits the budget and None otherwise.
        let mut state = 0x5EEDu64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = g.add_inputs("x", 9);
        for _ in 0..80 {
            let a = lits[(rng() % lits.len() as u64) as usize];
            let b = lits[(rng() % lits.len() as u64) as usize];
            let a = if rng() & 1 == 1 { !a } else { a };
            let b = if rng() & 1 == 1 { !b } else { b };
            let l = g.and(a, b);
            if !l.is_const() {
                lits.push(l);
            }
        }
        let inputs: Vec<Lit> = g
            .input_ids()
            .iter()
            .map(|&n| Lit::from_node(n, false))
            .collect();
        for nv in 3..=6usize {
            for seed in 1..=12u64 {
                let f = random_truth(nv, seed * 13 + nv as u64);
                let leaves = &inputs[..nv];
                let excluded = |n: aig::NodeId| n % 7 == 3;
                let reference = count_shannon_nodes(&g, &f, leaves, excluded);
                for budget in [
                    0usize,
                    1,
                    2,
                    reference.saturating_sub(1),
                    reference,
                    reference + 5,
                ] {
                    let got = count_shannon_nodes_sweep(&g, &f, leaves, excluded, budget);
                    if reference <= budget {
                        assert_eq!(got, Some(reference), "nv={nv} seed={seed} budget={budget}");
                    } else {
                        assert_eq!(got, None, "nv={nv} seed={seed} budget={budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn count_reuses_existing_structure() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let existing = g.and(a, b);
        g.add_output("keep", existing);
        // f = a & b is already present, so zero new nodes are needed.
        let f = TruthTable::var(0, 2).and(&TruthTable::var(1, 2));
        let added = count_shannon_nodes(&g, &f, &[a, b], |_| false);
        assert_eq!(added, 0);
    }
}
