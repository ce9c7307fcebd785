//! The `rewrite` pass: cut-based local rewriting.
//!
//! Analogue of ABC's `rewrite` (`rw`) and `rewrite -z` (`rwz`) commands: every
//! node's 4-feasible cuts are enumerated, the cut function is re-expressed as an
//! irredundant SOP, and the replacement is accepted when it frees more nodes
//! (the node's MFFC bounded by the cut) than it adds.  The `-z` variant also
//! accepts zero-gain replacements, which changes structure and can enable later
//! passes — the reason the paper's flows interleave it with the other passes.

use aig::{Aig, Cut4Enumerator, CutParams, NodeId};

use flow_core::{CancelToken, Cancelled};

use crate::pass::{PassContext, ProposeScratch};
use crate::resyn::{resynthesis_sweep_ctx, Acceptance, Candidate};

/// Covers with more cubes than this are not considered: very large covers
/// cannot win at cut size 4.
const MAX_CUBES: usize = 16;

/// `rewrite` on a [`PassContext`]: transforms `g` in place, recycling the
/// context's cut-set vector and sweep buffers.  Cuts are
/// [`CutParams::default`] (4 leaves, as in ABC; 8 cuts per node), the same
/// cuts the mapper enumerates.
pub(crate) fn rewrite_ctx(
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
    ctx.ensure_clean(g);
    // Cuts are enumerated once: the sweep applies all decisions after the
    // last propose call, so they stay valid for the whole pass.
    Cut4Enumerator::new(CutParams::default()).enumerate_into(g, &mut ctx.cut4_sets);
    resynthesis_sweep_ctx(g, acceptance, ctx, cancel, |graph, id, ps, cut_sets| {
        propose_sweep(graph, id, cut_sets, ps)
    })
}

/// The proposal generator: offers the ISOP re-expression of every 4-cut of
/// `id` to the sweep's pricer (the fused truth makes the per-cut cone walk
/// unnecessary).  Covers are borrowed from the ISOP cache, so a cut that is
/// not kept allocates nothing.
pub(crate) fn propose_sweep(
    graph: &Aig,
    id: NodeId,
    cut_sets: &[aig::CutSet4],
    ps: &mut ProposeScratch,
) {
    let Some(cut_set) = cut_sets.get(id) else {
        return;
    };
    for cut in cut_set.cuts() {
        if cut.size() < 2 {
            continue;
        }
        let truth = cut.truth_table();
        let cover = ps.isop.isop_ref(&truth);
        if cover.num_cubes() > MAX_CUBES {
            continue;
        }
        let mut leaf_buf = [0 as NodeId; aig::CUT4_MAX_LEAVES];
        for (slot, &l) in leaf_buf.iter_mut().zip(cut.leaves()) {
            *slot = l as NodeId;
        }
        let leaves = &leaf_buf[..cut.size()];
        let candidate = Candidate::Sop {
            truth: &truth,
            cover,
        };
        ps.pricer.offer(graph, leaves, candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Transform;
    use aig::random_equivalence_check;
    use circuits::{Design, DesignScale};

    /// A network with obvious local redundancy: (a&b)|(a&c) plus duplicated cones.
    fn redundant_network() -> Aig {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 5);
        let ab = g.and(xs[0], xs[1]);
        let ac = g.and(xs[0], xs[2]);
        let f1 = g.or(ab, ac);
        // (a|b) & (a|c) = a | (b&c)
        let a_or_b = g.or(xs[0], xs[1]);
        let a_or_c = g.or(xs[0], xs[2]);
        let f2 = g.and(a_or_b, a_or_c);
        let f3 = g.xor(f1, xs[3]);
        let f4 = g.and(f2, xs[4]);
        g.add_output("f3", f3);
        g.add_output("f4", f4);
        g
    }

    #[test]
    fn rewrite_preserves_function() {
        let g = redundant_network();
        let r = Transform::Rewrite.apply(&g);
        assert!(random_equivalence_check(&g, &r, 16, 3));
    }

    #[test]
    fn rewrite_reduces_redundant_logic() {
        let g = redundant_network();
        let r = Transform::Rewrite.apply(&g);
        assert!(
            r.num_ands() < g.num_ands(),
            "rewrite should shrink the redundant network: {} -> {}",
            g.num_ands(),
            r.num_ands()
        );
    }

    #[test]
    fn strict_rewrite_never_grows() {
        for design in [Design::Alu64, Design::Montgomery64] {
            let g = design.generate(DesignScale::Tiny);
            let r = Transform::Rewrite.apply(&g);
            assert!(
                r.num_ands() <= g.cleanup().num_ands(),
                "{design}: {} -> {}",
                g.num_ands(),
                r.num_ands()
            );
            assert!(
                random_equivalence_check(&g, &r, 4, 5),
                "{design} function changed"
            );
        }
    }

    #[test]
    fn zero_cost_rewrite_preserves_function() {
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let r = Transform::RewriteZ.apply(&g);
        assert!(random_equivalence_check(&g, &r, 4, 17));
    }

    #[test]
    fn rewrite_is_stable_after_convergence() {
        let g = redundant_network();
        let once = Transform::Rewrite.apply(&g);
        let twice = Transform::Rewrite.apply(&once);
        assert!(twice.num_ands() <= once.num_ands());
        assert!(random_equivalence_check(&once, &twice, 8, 23));
    }

    #[test]
    fn params_default_matches_abc_convention() {
        // Rewrite enumerates `CutParams::default()`.
        let p = CutParams::default();
        assert_eq!(p.max_cut_size, 4);
        assert!(p.max_cuts_per_node >= 4);
    }
}
