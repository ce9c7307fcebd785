//! Differential suite, part 3: how a sweep applies its decisions.  The route
//! — identity, in place through `aig::InPlaceEditor`, or rebuild — is picked
//! per sweep from the observed dirty fraction; every route must produce the
//! oracle's bits (the oracle always rebuilds) and leave honest epoch stamps.
//! Harness and conventions: `reference_differential/mod.rs`.

mod reference_differential;

use aig::Aig;
use circuits::{Design, DesignScale};
use reference_differential::*;
use synth::{reference, PassContext, Transform};

/// Every pass alone on the two smaller designs: whichever route the sweep
/// took, the result is the oracle's rebuild.
#[test]
fn in_place_matches_rebuild_and_reference_per_transform() {
    for design in [Design::Alu64, Design::Montgomery64] {
        let g = design.generate(DesignScale::Tiny);
        for t in Transform::ALL {
            assert_identical(
                &reference::apply(t, &g),
                &t.apply(&g),
                &format!("{design} {t}"),
            );
        }
    }
}

/// Random 24-pass flows on small graphs, where one decision is most of the
/// graph, and on alu64: between them every route is taken and matches.
#[test]
fn seeded_random_paper_flows_are_mode_identical() {
    let alu = Design::Alu64.generate(DesignScale::Tiny);
    let small = [3u64, 17, 99].map(|seed| random_aig(seed * 0xBEEF, 10, 80));
    let flows = [0xBEEF, 0xFACADE, 0x5EED].map(random_flow);
    let mut jobs: Vec<_> = flows.iter().map(|f| (&alu, f)).collect();
    jobs.extend(small.iter().zip(&flows));
    assert_every_route_taken(check_jobs(&jobs));
}

#[test]
fn in_place_mode_actually_takes_the_in_place_path() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let flow = [Transform::Balance, Transform::Rewrite, Transform::Refactor];
    let mut ctx = PassContext::default();
    let _ = ctx.run_flow(&design, &flow);
    let stats = ctx.apply_stats();
    assert!(
        stats.in_place > 0,
        "a realistic flow must route sweeps through the in-place editor: {stats:?}"
    );
}

#[test]
fn identity_sweeps_are_free_in_in_place_mode() {
    // A minimal optimal graph: strict rewrite can free no nodes, so the
    // sweep accepts nothing and the apply is skipped entirely.
    let mut g = Aig::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let ab = g.and(a, b);
    let f = g.and(ab, c);
    g.add_output("f", f);

    let mut ctx = PassContext::default();
    let mut work = ctx.take_buf();
    work.copy_from(&g);
    ctx.ensure_clean(&mut work);
    let generation = work.generation();
    ctx.apply(Transform::Rewrite, &mut work);
    let stats = ctx.apply_stats();
    assert_eq!(
        stats.identity, 1,
        "an empty decision set must be a free identity: {stats:?}"
    );
    assert_eq!(
        work.generation(),
        generation,
        "the identity route must not touch the graph at all"
    );
    // The untouched graph keeps its fresh epoch caches.
    assert!(work.is_clean());
    assert!(work.fanouts_fresh());
    assert_identical(&reference::apply(Transform::Rewrite, &g), &work, "identity");
}

#[test]
fn dirty_threshold_crossover_falls_back_to_rebuild() {
    // A tiny redundant graph where one accepted decision touches most of the
    // AND nodes: the estimated dirty fraction crosses 50%, so the sweep must
    // route the apply through the rebuild.
    let mut g = Aig::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let ab = g.and(a, b);
    let ac = g.and(a, c);
    let f = g.or(ab, ac);
    g.add_output("f", f);

    let mut ctx = PassContext::default();
    let mut work = ctx.take_buf();
    work.copy_from(&g);
    ctx.ensure_clean(&mut work);
    ctx.apply(Transform::Refactor, &mut work);
    let stats = ctx.apply_stats();
    assert_eq!(
        stats.rebuilt, 1,
        "a whole-graph decision must cross the dirty threshold: {stats:?}"
    );
    assert_eq!(stats.in_place, 0);
    assert!(work.is_clean(), "the rebuild route must end clean");
    assert_identical(
        &reference::apply(Transform::Refactor, &g),
        &work,
        "threshold-crossover result",
    );
}

#[test]
fn in_place_passes_leave_fresh_epochs() {
    // After an in-place applied pass the graph must certify clean + fresh
    // fanouts without any recompute — that is the "analyses survive the
    // edit" contract the next pass relies on.
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    let mut ctx = PassContext::default();
    let mut g = ctx.take_buf();
    g.copy_from(&design);
    ctx.ensure_clean(&mut g);
    for t in Transform::ALL {
        let before = ctx.apply_stats().in_place;
        ctx.apply(t, &mut g);
        assert!(g.is_clean(), "{t}: must end clean");
        if ctx.apply_stats().in_place > before {
            assert!(g.fanouts_fresh(), "{t}: the editor patches fanouts");
        }
    }
    assert!(ctx.apply_stats().in_place > 0);
}
