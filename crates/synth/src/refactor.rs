//! The `refactor` pass: large-cut resynthesis.
//!
//! Analogue of ABC's `refactor` (`rf`) and `refactor -z` (`rfz`) commands: a
//! single reconvergence-driven cut (up to eight leaves) is computed
//! per node, the cut function is collapsed to a truth table, re-expressed as an
//! irredundant SOP and rebuilt.  Because the cut is much larger than rewrite's
//! 4-feasible cuts, refactoring restructures whole fanin cones at once.

use aig::{cut_truth_with, Aig, NodeId};

use flow_core::{CancelToken, Cancelled};

use crate::pass::{PassContext, ProposeScratch};
use crate::reconv::reconv_cut_sweep;
use crate::resyn::{resynthesis_sweep_ctx, Acceptance, Candidate};

/// Maximum number of leaves of the reconvergence-driven cut.
const MAX_LEAVES: usize = 8;

/// Covers with more cubes than this are not considered (keeps the pass fast).
const MAX_CUBES: usize = 24;

/// `refactor` on a [`PassContext`]: transforms `g` in place, reusing the
/// context's cut-truth scratch and sweep buffers.
pub(crate) fn refactor_ctx(
    g: &mut Aig,
    zero_cost: bool,
    ctx: &mut PassContext,
    cancel: &CancelToken,
) -> Result<(), Cancelled> {
    let acceptance = if zero_cost {
        Acceptance::zero_cost()
    } else {
        Acceptance::strict()
    };
    resynthesis_sweep_ctx(g, acceptance, ctx, cancel, |graph, id, ps, _| {
        propose_sweep(graph, id, ps)
    })
}

/// The proposal generator: offers the ISOP re-expression of `id`'s
/// reconvergence-driven cut function to the sweep's pricer.  The cut grows
/// on stamped scratch, the cut function comes from the scratch-based cone
/// walk ([`cut_truth_with`]) and the cover is borrowed from the ISOP cache.
pub(crate) fn propose_sweep(graph: &Aig, id: NodeId, ps: &mut ProposeScratch) {
    reconv_cut_sweep(graph, id, MAX_LEAVES, &mut ps.reconv, &mut ps.cut_leaves);
    let leaves = &ps.cut_leaves;
    if leaves.len() < 3 {
        return;
    }
    let Ok(truth) = cut_truth_with(graph, id, leaves, &mut ps.truth) else {
        return;
    };
    let cover = ps.isop.isop_ref(&truth);
    if cover.num_cubes() > MAX_CUBES {
        return;
    }
    let candidate = Candidate::Sop {
        truth: &truth,
        cover,
    };
    ps.pricer.offer(graph, leaves, candidate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Transform;
    use crate::reconv::reconv_cut;
    use aig::{random_equivalence_check, Lit};
    use circuits::{Design, DesignScale};

    /// A cone that is smaller when collapsed: a chain of ORs that a flat SOP
    /// plus sharing expresses more compactly after intermediate XOR detours.
    fn bloated_cone() -> Aig {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 5);
        // f = (x0 | x1 | x2) computed wastefully via muxes.
        let t0 = g.mux(xs[0], Lit::TRUE, xs[1]);
        let t1 = g.mux(t0, Lit::TRUE, xs[2]);
        let dup0 = g.or(xs[0], xs[1]);
        let dup1 = g.or(dup0, xs[2]);
        let f = g.and(t1, dup1); // equals dup1
        let out = g.and(f, xs[3]);
        let out2 = g.or(out, xs[4]);
        g.add_output("o", out2);
        g
    }

    #[test]
    fn refactor_preserves_function() {
        let g = bloated_cone();
        let r = Transform::Refactor.apply(&g);
        assert!(random_equivalence_check(&g, &r, 16, 3));
    }

    #[test]
    fn refactor_collapses_redundant_cone() {
        let g = bloated_cone();
        let r = Transform::Refactor.apply(&g);
        assert!(
            r.num_ands() < g.num_ands(),
            "refactor should simplify: {} -> {}",
            g.num_ands(),
            r.num_ands()
        );
    }

    #[test]
    fn refactor_on_designs_preserves_function_and_size_bound() {
        for design in [Design::Montgomery64, Design::Alu64] {
            let g = design.generate(DesignScale::Tiny);
            let r = Transform::Refactor.apply(&g);
            assert!(random_equivalence_check(&g, &r, 4, 11), "{design}");
            assert!(
                r.num_ands() <= g.cleanup().num_ands() + g.cleanup().num_ands() / 20,
                "{design}: {} -> {}",
                g.num_ands(),
                r.num_ands()
            );
        }
    }

    #[test]
    fn zero_cost_refactor_preserves_function() {
        let g = bloated_cone();
        let r = Transform::RefactorZ.apply(&g);
        assert!(random_equivalence_check(&g, &r, 16, 19));
    }

    #[test]
    fn default_params_are_sane() {
        // The leaf limit binds on a real design.
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let widest = g.and_ids().map(|id| reconv_cut(&g, id, MAX_LEAVES).len());
        assert_eq!(widest.max(), Some(MAX_LEAVES));
    }
}
