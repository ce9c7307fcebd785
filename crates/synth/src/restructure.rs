//! The `restructure` pass: cut-based re-decomposition via Shannon expansion.
//!
//! Analogue of the restructuring command in the paper's transformation set: a
//! reconvergence-driven cut is computed per node and the cut function is
//! re-decomposed as a mux (Shannon) tree, a structurally different shape than
//! the SOP form produced by `rewrite`/`refactor`.  Replacements are accepted
//! only when they strictly reduce the node count, but because the resulting
//! structure differs, running `restructure` between other passes opens up
//! optimisation opportunities they cannot reach on their own — which is exactly
//! why the ordering of transformations matters (Section 1 of the paper).

use aig::{cut_truth_with, Aig, NodeId};
use flow_core::{CancelToken, Cancelled};

use crate::pass::{PassContext, ProposeScratch};
use crate::reconv::reconv_cut_sweep;
use crate::resyn::{resynthesis_sweep_ctx, Acceptance, Candidate};

/// Maximum number of leaves of the reconvergence-driven cut.
const MAX_LEAVES: usize = 6;

/// `restructure` on a [`PassContext`]: transforms `g` in place, reusing the
/// context's cut-truth scratch and sweep buffers.
pub(crate) fn restructure_ctx(
    g: &mut Aig,
    ctx: &mut PassContext,
    cancel: &CancelToken,
) -> Result<(), Cancelled> {
    resynthesis_sweep_ctx(g, Acceptance::strict(), ctx, cancel, |graph, id, ps, _| {
        propose_sweep(graph, id, ps)
    })
}

/// The proposal generator: offers the Shannon re-decomposition of `id`'s
/// reconvergence-driven cut function to the sweep's pricer.  The cut grows
/// on stamped scratch and the cut function comes from the scratch-based cone
/// walk.
pub(crate) fn propose_sweep(graph: &Aig, id: NodeId, ps: &mut ProposeScratch) {
    reconv_cut_sweep(graph, id, MAX_LEAVES, &mut ps.reconv, &mut ps.cut_leaves);
    let leaves = &ps.cut_leaves;
    if leaves.len() < 3 {
        return;
    }
    let Ok(truth) = cut_truth_with(graph, id, leaves, &mut ps.truth) else {
        return;
    };
    ps.pricer.offer(graph, leaves, Candidate::Shannon(&truth));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Transform;
    use crate::reconv::reconv_cut;
    use aig::random_equivalence_check;
    use circuits::{Design, DesignScale};

    /// A wasteful SOP-shaped cone that a mux decomposition expresses more cheaply:
    /// f = (s & a) | (!s & b) written as four products over (s, a, b, c).
    fn mux_as_sop() -> Aig {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 4);
        let (s, a, b, c) = (xs[0], xs[1], xs[2], xs[3]);
        let p1 = g.and_many(&[s, a, c]);
        let p2 = g.and_many(&[s, a, !c]);
        let p3 = g.and_many(&[!s, b, c]);
        let p4 = g.and_many(&[!s, b, !c]);
        let f = g.or_many(&[p1, p2, p3, p4]);
        g.add_output("f", f);
        g
    }

    #[test]
    fn restructure_preserves_function() {
        let g = mux_as_sop();
        let r = Transform::Restructure.apply(&g);
        assert!(random_equivalence_check(&g, &r, 16, 3));
    }

    #[test]
    fn restructure_simplifies_mux_shaped_logic() {
        let g = mux_as_sop();
        let r = Transform::Restructure.apply(&g);
        assert!(
            r.num_ands() < g.num_ands(),
            "restructure should shrink: {} -> {}",
            g.num_ands(),
            r.num_ands()
        );
    }

    #[test]
    fn restructure_on_designs_preserves_function() {
        for design in Design::ALL {
            let g = design.generate(DesignScale::Tiny);
            let r = Transform::Restructure.apply(&g);
            assert!(random_equivalence_check(&g, &r, 4, 13), "{design}");
        }
    }

    #[test]
    fn restructure_produces_different_structure_than_refactor() {
        // Both preserve function, but the node counts / depths generally differ,
        // demonstrating that the passes are not redundant with each other.
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let rs = Transform::Restructure.apply(&g);
        let rf = Transform::Refactor.apply(&g);
        assert!(random_equivalence_check(&rs, &rf, 4, 29));
        let same_size = rs.num_ands() == rf.num_ands() && rs.depth() == rf.depth();
        assert!(
            !same_size,
            "restructure and refactor should not be identical in effect"
        );
    }

    #[test]
    fn default_params_are_sane() {
        // The leaf limit binds on a real design.
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let widest = g.and_ids().map(|id| reconv_cut(&g, id, MAX_LEAVES).len());
        assert_eq!(widest.max(), Some(MAX_LEAVES));
    }
}
