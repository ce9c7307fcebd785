//! Prototyping a custom resynthesis pass on the oracle's sweep harness.
//!
//! ```text
//! cargo run --release --example custom_pass
//! ```
//!
//! This is the compiling companion of `docs/pass-authoring.md`: a complete
//! pass — "restructure, but only through 4-leaf cuts" — written from scratch
//! on top of `synth::reference::resynthesis_sweep` (the first rung of the
//! ladder in the doc: prototype on the oracle, then write the production
//! propose against it).  A pass only has to answer
//! one question per node ("how else could this node's cut function be
//! implemented?"); the sweep owns everything else: fanout-aware node
//! iteration, pricing each proposal (the nodes it frees minus the nodes it
//! adds), gain thresholding, conflict-free decision replay and the final
//! cleanup.  Conflict-free means the sweep commits a decision only when no
//! earlier committed decision frees a node it uses or uses a node it frees,
//! so the committed decisions together remove at least the gain they were
//! priced at ("The commit contract" in the doc).

use aig::{cut_truth, random_equivalence_check, Aig};
use circuits::{Design, DesignScale};
use synth::reconv::reconv_cut;
use synth::reference::resynthesis_sweep;
use synth::resyn::{Acceptance, Proposal, Structure};

/// The propose callback: called once per live AND node, returns any number
/// of candidate re-implementations of that node's function.
///
/// The contract (see `docs/pass-authoring.md` for the full statement):
/// express the node over a cut (`leaves` fixes the variable order of the
/// structure's truth table / SOP) and name the structure.  The sweep prices
/// it; a pass never counts nodes.
fn propose_small_shannon(graph: &Aig, id: aig::NodeId, proposals: &mut Vec<Proposal>) {
    // 1. Grow a reconvergence-driven cut.  Tighter than the built-in
    //    restructure pass (4 leaves instead of 6): this is what makes the
    //    example pass behave differently.
    let leaves = reconv_cut(graph, id, 4);
    if leaves.len() < 3 {
        return;
    }

    // 2. Compute the cut function over the sorted leaves.
    let Ok(truth) = cut_truth(graph, id, &leaves) else {
        return; // the cone escaped the cut; not a usable candidate
    };

    // 3. Emit the proposal.  The sweep prices it, accepts it only if its
    //    gain reaches `min_gain`, then materializes the structure itself
    //    during decision replay.
    proposals.push(Proposal {
        leaves,
        structure: Structure::Shannon(truth),
    });
}

/// The pass itself: a one-liner over the sweep harness.
fn restructure_small(aig: &Aig) -> Aig {
    resynthesis_sweep(aig, Acceptance::strict(), |graph, id| {
        let mut proposals = Vec::new();
        propose_small_shannon(graph, id, &mut proposals);
        proposals
    })
}

fn main() {
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    println!(
        "design: {} ({} AND nodes, depth {})",
        design.name(),
        design.num_ands(),
        design.depth()
    );

    let result = restructure_small(&design);
    println!(
        "after restructure_small: {} AND nodes, depth {}",
        result.num_ands(),
        result.depth()
    );

    // Every pass must preserve the function.  Random simulation is the cheap
    // always-on check; the repo's test suite additionally pins every
    // production pass bit-identical to its oracle in `synth::reference`.
    assert!(
        random_equivalence_check(&design, &result, 8, 0xC0FFEE),
        "a pass must never change the network's function"
    );
    println!("functional check: ok");
}
