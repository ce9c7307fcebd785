//! The `balance` pass: AND-tree balancing for depth reduction.
//!
//! Analogue of ABC's `balance` command.  Maximal single-fanout AND trees are
//! collected and rebuilt as depth-balanced trees: the two lowest-arriving
//! operands are combined first, which minimises the depth of the tree for the
//! given leaf levels (a Huffman-style construction).

use aig::{Aig, Lit};
use flow_core::{CancelToken, Cancelled};

use crate::pass::{pool_give, CancelCell, PassContext};

/// `balance` on a [`PassContext`]: transforms `g` in place through the
/// context's recycled buffers, polling `cancel` between trees.
pub(crate) fn balance_ctx(
    g: &mut Aig,
    ctx: &mut PassContext,
    cancel: &CancelToken,
) -> Result<(), Cancelled> {
    ctx.ensure_clean(g);
    g.compute_fanouts_cached();
    let mut out = ctx.take_buf();
    out.set_name(g.name().to_string());
    out.reserve_for(g.len(), g.num_ands());
    // Disjoint borrows: the remap table feeds the build loop, and the pool
    // takes `out` back on both exits.  `g` is only overwritten by the final
    // `cleanup_into_with`, so a cancelled build leaves it untouched.
    let PassContext {
        pool,
        scratch,
        balance_map: map,
        ..
    } = ctx;
    let mut cancel = CancelCell::new(cancel);
    map.clear();
    map.resize(g.len(), None);
    map[0] = Some(Lit::FALSE);
    for (i, &id) in g.input_ids().iter().enumerate() {
        map[id] = Some(out.add_input(g.input_name(i).to_string()));
    }
    for id in g.node_ids() {
        if g.node(id).is_and() {
            if let Err(cancelled) = cancel.checkpoint() {
                pool_give(pool, out);
                return Err(cancelled);
            }
            build_balanced(g, &mut out, map, id);
        }
    }
    for (i, &l) in g.outputs().iter().enumerate() {
        let nl = map[l.node()].expect("output cone built") ^ l.is_complemented();
        out.add_output(g.output_name(i).to_string(), nl);
    }
    out.cleanup_into_with(g, scratch);
    pool_give(pool, out);
    Ok(())
}

/// Builds the balanced implementation of node `id` into `out`, memoising in `map`.
fn build_balanced(src: &Aig, out: &mut Aig, map: &mut Vec<Option<Lit>>, id: usize) -> Lit {
    if let Some(l) = map[id] {
        return l;
    }
    // Collect the leaves of the maximal AND tree rooted at `id`: follow
    // non-complemented fanin edges into single-fanout AND nodes.
    let mut leaves: Vec<Lit> = Vec::new();
    collect_conjuncts(src, Lit::from_node(id, false), id, &mut leaves);
    // Map every leaf into the new graph first.
    let mut operands: Vec<Lit> = Vec::with_capacity(leaves.len());
    for leaf in leaves {
        let mapped = if src.node(leaf.node()).is_and() {
            build_balanced(src, out, map, leaf.node())
        } else {
            map[leaf.node()].expect("inputs and constants are pre-mapped")
        };
        operands.push(mapped ^ leaf.is_complemented());
    }
    // Combine the two shallowest operands repeatedly.
    let result = balanced_and(out, operands);
    map[id] = Some(result);
    result
}

/// Collects the conjunction leaves of the AND tree rooted at `lit`.
///
/// Expansion continues through non-complemented edges into AND nodes that have
/// a single fanout (so no shared logic is duplicated), except for the root
/// itself which is always expanded.
fn collect_conjuncts(src: &Aig, lit: Lit, root: usize, leaves: &mut Vec<Lit>) {
    let id = lit.node();
    let expandable = !lit.is_complemented()
        && src.node(id).is_and()
        && (id == root || src.fanout_count(id) == 1);
    if expandable {
        let (a, b) = src.node(id).fanins().expect("AND node");
        collect_conjuncts(src, a, root, leaves);
        collect_conjuncts(src, b, root, leaves);
    } else {
        leaves.push(lit);
    }
}

/// ANDs the operands pairing the lowest-level literals first.
fn balanced_and(out: &mut Aig, mut operands: Vec<Lit>) -> Lit {
    if operands.is_empty() {
        return Lit::TRUE;
    }
    while operands.len() > 1 {
        // Sort descending by level so the two cheapest are at the tail.
        operands.sort_by_key(|l| std::cmp::Reverse(out.level(*l)));
        let a = operands.pop().expect("len > 1");
        let b = operands.pop().expect("len > 1");
        operands.push(out.and(a, b));
    }
    operands[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Transform;
    use aig::random_equivalence_check;

    /// A deliberately skewed AND chain: depth = n - 1 before balancing.
    fn and_chain(n: usize) -> Aig {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", n);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = g.and(acc, x);
        }
        g.add_output("f", acc);
        g
    }

    #[test]
    fn balancing_reduces_chain_depth_to_logarithmic() {
        let g = and_chain(16);
        assert_eq!(g.depth(), 15);
        let b = Transform::Balance.apply(&g);
        assert_eq!(b.depth(), 4, "16-input AND balances to depth log2(16)");
        assert!(random_equivalence_check(&g, &b, 8, 42));
        assert_eq!(b.num_ands(), 15, "AND count is unchanged for a pure tree");
    }

    #[test]
    fn balancing_preserves_arbitrary_logic() {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 6);
        let a = g.xor(xs[0], xs[1]);
        let b = g.and(xs[2], xs[3]);
        let c = g.or(xs[4], xs[5]);
        let d = g.and(a, b);
        let e = g.and(d, c);
        let f = g.mux(xs[0], e, b);
        g.add_output("f", f);
        g.add_output("e", e);
        let bal = Transform::Balance.apply(&g);
        assert!(random_equivalence_check(&g, &bal, 16, 7));
        assert!(bal.depth() <= g.depth());
    }

    #[test]
    fn balancing_is_idempotent_on_depth() {
        let g = and_chain(13);
        let once = Transform::Balance.apply(&g);
        let twice = Transform::Balance.apply(&once);
        assert_eq!(once.depth(), twice.depth());
        assert!(random_equivalence_check(&once, &twice, 8, 9));
    }

    #[test]
    fn shared_nodes_are_not_duplicated() {
        // A 5-input AND whose internal node feeds a second output.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 5);
        let ab = g.and(xs[0], xs[1]);
        let abc = g.and(ab, xs[2]);
        let abcd = g.and(abc, xs[3]);
        let abcde = g.and(abcd, xs[4]);
        g.add_output("f", abcde);
        g.add_output("mid", abc);
        let b = Transform::Balance.apply(&g);
        assert!(random_equivalence_check(&g, &b, 8, 21));
        // The shared node `abc` is a tree boundary, so node count cannot grow.
        assert!(b.num_ands() <= g.num_ands());
    }

    #[test]
    fn balances_complemented_operands() {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 4);
        let n0 = g.and(!xs[0], xs[1]);
        let n1 = g.and(n0, !xs[2]);
        let n2 = g.and(n1, xs[3]);
        g.add_output("f", !n2);
        let b = Transform::Balance.apply(&g);
        assert!(random_equivalence_check(&g, &b, 8, 77));
    }
}
