//! Differential suite, part 1: the production engine (inline 4-cuts with
//! fused truths, NPN4 matching, budget-capped estimators) against the oracle
//! — cut enumeration, every pass alone, the preset flows on every design, and
//! the mapper.  Harness and conventions: `reference_differential/mod.rs`.

mod reference_differential;

use aig::{cut_truth, Cut4Enumerator, CutEnumerator, CutParams};
use circuits::{Design, DesignScale};
use reference_differential::*;
use synth::{reference, PassContext, Transform};

/// The fused-truth enumeration must match the oracle's cut enumeration plus
/// per-cut cone walks on random graphs, cut for cut.
#[test]
fn cut4_enumeration_matches_reference_on_random_aigs() {
    for seed in 1..=10u64 {
        let g = random_aig(seed * 0x9E37, 8, 60);
        for include_trivial in [false, true] {
            let params = CutParams {
                max_cut_size: 4,
                max_cuts_per_node: 8,
                include_trivial,
            };
            let oracle = CutEnumerator::new(params).enumerate(&g);
            let fast = Cut4Enumerator::new(params).enumerate(&g);
            assert_eq!(oracle.len(), fast.len());
            for id in 0..g.len() {
                assert_eq!(
                    oracle[id].len(),
                    fast[id].len(),
                    "seed={seed} node={id}: cut count"
                );
                for (rc, fc) in oracle[id].cuts().iter().zip(fast[id].cuts()) {
                    assert_eq!(
                        rc.leaves(),
                        fc.leaf_ids().as_slice(),
                        "seed={seed} node={id}: leaves"
                    );
                    if g.node(id).is_and() {
                        let walked = cut_truth(&g, id, rc).expect("enumerated cuts cover");
                        assert_eq!(
                            walked,
                            fc.truth_table(),
                            "seed={seed} node={id}: fused truth"
                        );
                    }
                }
            }
        }
    }
}

/// Every pass alone, on random graphs: node for node, function preserved.
#[test]
fn passes_are_bit_identical_across_engines_on_random_aigs() {
    for seed in [3u64, 17, 99] {
        let g = random_aig(seed * 0xBEEF, 10, 80);
        for t in Transform::ALL {
            let oracle = reference::apply(t, &g);
            let production = t.apply(&g);
            assert_identical(&oracle, &production, &format!("seed={seed} {t}"));
            assert!(
                aig::random_equivalence_check(&g, &production, 8, seed ^ 0x51),
                "seed={seed} {t}: the pass changed the function"
            );
        }
    }
}

/// Every design × every preset: optimized graph node for node, then the
/// mapped netlist gate for gate in both modes.
#[test]
fn flow_evaluation_qor_is_bit_identical() {
    // Largest first: aes128 is an order of magnitude bigger than the others.
    let designs = [Design::Aes128, Design::Montgomery64, Design::Alu64];
    let designs = designs.map(|d| d.generate(DesignScale::Tiny));
    let flows = presets();
    let jobs: Vec<_> = designs
        .iter()
        .flat_map(|g| flows.iter().map(move |f| (g, f)))
        .collect();
    assert_every_route_taken(check_jobs(&jobs));
}

/// Mapping alone, on the untouched designs, in both modes.
#[test]
fn mapping_is_bit_identical_in_both_modes() {
    for design in Design::ALL {
        let mut g = design.generate(DesignScale::Tiny);
        assert_mapping_identical(&mut g, &mut PassContext::default(), design.name());
    }
}
