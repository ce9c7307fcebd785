//! Differential suite, part 2: whole flows through `PassContext` (and the
//! free functions in front of it) against the oracle — seeded random
//! paper-length flows on every design, the checked-in fixture corpus, and
//! one context reused across flows and designs.  Harness and conventions:
//! `reference_differential/mod.rs`.

mod reference_differential;

use std::path::PathBuf;

use aig::Aig;
use circuits::{Design, DesignScale};
use reference_differential::*;
use synth::{map_with_ctx, CellLibrary, MapperParams, PassContext, Transform};

/// Every design × seeded random 24-pass flows.
#[test]
fn seeded_random_paper_flows_are_bit_identical() {
    let aes = Design::Aes128.generate(DesignScale::Tiny);
    let mont = Design::Montgomery64.generate(DesignScale::Tiny);
    let alu = Design::Alu64.generate(DesignScale::Tiny);
    let flows = [0xA5A5, 0x1CEB00DA, 0x7E57].map(random_flow);
    // aes128 is an order of magnitude larger and the oracle is slow: one flow.
    let mut jobs = vec![(&aes, &flows[0])];
    jobs.extend(flows.iter().map(|f| (&mont, f)));
    jobs.extend(flows.iter().map(|f| (&alu, f)));
    assert_every_route_taken(check_jobs(&jobs));
}

/// The checked-in fixture corpus (designs read from `.aag`, so names and
/// node order come from the file, not from the generators).
#[test]
fn fixture_corpus_is_bit_identical_across_paths() {
    use Transform::*;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/tiny");
    let flows = [
        (
            "mixed".to_string(),
            vec![Restructure, RefactorZ, Balance, Rewrite],
        ),
        ("empty".to_string(), vec![]),
    ];
    let read = |file: &str| {
        let path = dir.join(file);
        aig::io::read_design(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
    };
    let (alu, mont) = (read("alu64.aag"), read("montgomery64.aag"));
    let jobs: Vec<_> = [&mont, &alu]
        .into_iter()
        .flat_map(|g| flows.iter().map(move |f| (g, f)))
        .collect();
    check_jobs(&jobs);
}

/// Buffer recycling must not leak state between flows or designs: ONE
/// context serves graphs of different sizes in turn (stale stamps, buffers
/// longer and shorter than the next graph), each compared against a fresh
/// oracle run.
#[test]
fn one_context_reused_across_many_flows_stays_identical() {
    let alu = Design::Alu64.generate(DesignScale::Tiny);
    let mont = Design::Montgomery64.generate(DesignScale::Tiny);
    let small = random_aig(0x5EED, 10, 80);
    let resyn2 = presets().swap_remove(3).1;
    let mut ctx = PassContext::default();
    let rounds: [(&Aig, Vec<Transform>); 5] = [
        (&alu, random_flow(1).1),
        (&mont, resyn2.clone()),
        (&small, random_flow(2).1),
        (&alu, resyn2),
        (&small, random_flow(3).1),
    ];
    for (round, (design, flow)) in rounds.iter().enumerate() {
        assert_flow_identical(design, flow, &mut ctx, &format!("shared-ctx/round-{round}"));
    }
}

/// The public free functions are fronts over a fresh context: same bits.
#[test]
fn free_functions_are_the_context_path() {
    let lib = CellLibrary::nangate14();
    let g = Design::Alu64.generate(DesignScale::Tiny);
    let flow = presets().swap_remove(3).1;
    let mut ctx = PassContext::default();
    let mut via_ctx = ctx.run_flow(&g, &flow);
    assert_identical(
        &synth::apply_sequence(&g, &flow),
        &via_ctx,
        "apply_sequence",
    );
    let mut step = g.cleanup();
    for &t in &flow {
        step = t.apply(&step);
    }
    assert_identical(&step, &via_ctx, "Transform::apply chain");
    let params = MapperParams::default();
    let front = synth::map(&via_ctx, &lib, params);
    let direct = map_with_ctx(&mut via_ctx, &lib, params, &mut ctx);
    assert_netlists_identical(&front, &direct, "map");
    assert_eq!(synth::map_qor(&via_ctx, &lib, params), direct.qor());
}
