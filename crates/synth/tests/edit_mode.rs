//! Differential suite, part 3: how a sweep applies its decisions.  A sweep
//! that accepted nothing is an identity and leaves the graph alone; any other
//! rebuilds it, as the oracle does.  Both must produce the oracle's bits and
//! leave honest epoch stamps.  Harness and conventions:
//! `reference_differential/mod.rs`.

mod reference_differential;

use aig::Aig;
use circuits::{Design, DesignScale};
use reference_differential::*;
use synth::{reference, PassContext, Transform};

/// Every pass alone on the two smaller designs: the result is the oracle's
/// rebuild.
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
/// graph, and on alu64: between them both routes are taken and match.
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
fn whole_graph_decision_is_rebuilt_and_matches_the_oracle() {
    // A tiny redundant graph where one accepted decision replaces most of
    // the AND nodes: the sweep rebuilds it, and the result is the oracle's.
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
        "a sweep that accepted a decision must rebuild: {stats:?}"
    );
    assert_eq!(stats.in_place, 0);
    assert!(work.is_clean(), "the rebuild route must end clean");
    assert_identical(
        &reference::apply(Transform::Refactor, &g),
        &work,
        "whole-graph rebuild",
    );
}

#[test]
fn rebuilt_passes_leave_clean_graphs_and_honest_fanouts() {
    // Every pass must hand the next one a graph that certifies clean without
    // a recompute, and whose cached fanout counts, once refreshed, are the
    // ones a from-scratch count gives.
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    let mut ctx = PassContext::default();
    let mut g = ctx.take_buf();
    g.copy_from(&design);
    ctx.ensure_clean(&mut g);
    for t in Transform::ALL {
        ctx.apply(t, &mut g);
        assert!(g.is_clean(), "{t}: must end clean");
        g.compute_fanouts_cached();
        let mut fresh = g.clone();
        fresh.compute_fanouts();
        for id in g.node_ids() {
            assert_eq!(
                g.fanout_count(id),
                fresh.fanout_count(id),
                "{t}: fanout count of node {id}"
            );
        }
    }
    assert!(ctx.apply_stats().rebuilt > 0);
}
