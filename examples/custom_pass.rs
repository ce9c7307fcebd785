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
//! implemented, and at what cost?"); the sweep owns everything else:
//! fanout-aware node iteration, gain thresholding, conflict-free decision
//! replay and the final cleanup.  Conflict-free means the sweep commits a
//! decision only when no earlier committed decision frees a node it uses or
//! uses a node it frees, so the committed decisions together remove at least
//! the gain they were priced at ("The commit contract" in the doc).

use aig::{cut_truth, random_equivalence_check, Aig, Lit, Mffc};
use circuits::{Design, DesignScale};
use synth::decomp::count_shannon_nodes;
use synth::reconv::reconv_cut;
use synth::reference::resynthesis_sweep;
use synth::resyn::{Acceptance, Proposal, Structure};

/// The propose callback: called once per live AND node, returns any number
/// of candidate re-implementations of that node's function.
///
/// The contract (see `docs/pass-authoring.md` for the full statement):
///
/// * express the node over a cut (`leaves` fixes the variable order of the
///   structure's truth table / SOP),
/// * report `added` = new AND nodes the structure would create, counting
///   reuse of existing graph nodes as free **except** nodes inside the
///   node's MFFC (they die when the proposal is accepted),
/// * report `mffc_size` so the sweep can score `gain = mffc_size - added`.
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

    // 3. Cost the replacement without building it.  The MFFC is the set of
    //    nodes only this cone uses — they are freed on acceptance, so the
    //    dry-run cost estimator must not count them as reusable.
    let leaf_lits: Vec<Lit> = leaves.iter().map(|&n| Lit::from_node(n, false)).collect();
    let mffc = Mffc::compute(graph, id, &leaves);
    let added = count_shannon_nodes(graph, &truth, &leaf_lits, |n| mffc.contains(n));

    // 4. Emit the proposal.  The sweep accepts it only if
    //    `mffc_size - added >= min_gain`, then materializes the structure
    //    itself during decision replay.
    proposals.push(Proposal {
        leaves,
        structure: Structure::Shannon(truth),
        added,
        mffc_size: mffc.size(),
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
