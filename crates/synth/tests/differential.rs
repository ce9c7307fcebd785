//! The differential suite: production (`PassContext`, and the public fronts
//! over it) against the oracle (`synth::reference`) — cut enumeration, cell
//! matching, every pass alone, the preset flows and seeded random flows on
//! every design, the checked-in fixture corpus, one context reused across
//! flows, the mapper, and how a sweep applies its decisions.  Harness and
//! conventions: `reference_differential/mod.rs`.

mod reference_differential;

use std::path::PathBuf;

use aig::{cut_truth, Aig, Cut4Enumerator, CutParams, TruthTable};
use circuits::{Design, DesignScale};
use reference_differential::*;
use synth::npn4::canonical4_padded;
use synth::{map_with_ctx, reference, CellLibrary, MapperParams, PassContext, Transform};

/// The fused-truth enumeration must match the oracle's cut enumeration plus
/// per-cut cone walks, cut for cut, and `Cut4::dominates` must agree with the
/// oracle's on every pair of enumerated cuts — random graphs of ~70 nodes
/// hold leaves 64 ids apart, whose signatures collide.
#[test]
fn cut4_enumeration_matches_reference_on_random_aigs() {
    let params = CutParams::default();
    let graphs = (1..=10u64).map(|seed| (seed, random_aig(seed * 0x9E37, 8, 60)));
    for (seed, g) in graphs.chain([(0, xor_mux_aig())]) {
        let oracle = reference::CutEnumerator::new(params).enumerate(&g);
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
                    let walked = cut_truth(&g, id, rc.leaves()).expect("enumerated cuts cover");
                    assert_eq!(
                        walked,
                        fc.truth_table(),
                        "seed={seed} node={id}: fused truth"
                    );
                }
            }
        }
        let pairs: Vec<_> = oracle
            .iter()
            .zip(&fast)
            .flat_map(|(r, f)| r.cuts().iter().zip(f.cuts()))
            .collect();
        for (ra, fa) in &pairs {
            for (rb, fb) in &pairs {
                assert_eq!(
                    ra.dominates(rb),
                    fa.dominates(fb),
                    "seed={seed}: {:?} vs {:?}",
                    ra.leaves(),
                    rb.leaves()
                );
            }
        }
    }
}

/// Five inputs feeding an AND tree, an XOR and a mux that reuses a fanin.
fn xor_mux_aig() -> Aig {
    let mut g = Aig::new();
    let xs = g.add_inputs("x", 5);
    let ab = g.and(xs[0], xs[1]);
    let cd = g.and(xs[2], xs[3]);
    let f = g.and(ab, cd);
    let x = g.xor(f, xs[4]);
    let m = g.mux(xs[0], x, cd);
    g.add_output("x", x);
    g.add_output("m", m);
    g
}

/// The mapper's one index, `matches_npn4`, returns the orbit oracle's cell
/// list — same cells, same order — for every library cell's own function
/// and for random full-support functions of every arity (the mapper reduces
/// to the support before matching, so these are the only queries it makes).
#[test]
fn cell_matching_agrees_with_the_orbit_oracle() {
    let lib = CellLibrary::nangate14();
    let classes = reference::cell_classes(&lib);
    let check = |f: &TruthTable, what: &str| {
        let oracle = reference::matching_cells(&classes, f);
        assert_eq!(oracle, lib.matches_npn4(canonical4_padded(f)), "{what}");
    };
    for cell in lib.cells() {
        check(&cell.function, &cell.name);
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for nv in 1..=4usize {
        let mut checked = 0;
        while checked < 25 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut f = TruthTable::zeros(nv);
            for row in 0..f.num_rows() {
                if bits >> row & 1 == 1 {
                    f.set(row, true);
                }
            }
            if f.support().len() != nv {
                continue;
            }
            checked += 1;
            check(&f, &format!("nv={nv} f={f}"));
        }
    }
}

/// Every pass alone, on random graphs: node for node, function preserved.
#[test]
fn single_passes_match_the_oracle_on_random_aigs() {
    for seed in [3u64, 17, 99] {
        let g = random_aig(seed * 0xBEEF, 10, 80);
        for t in Transform::ALL {
            let production = t.apply(&g);
            assert_identical(
                &reference::apply(t, &g),
                &production,
                &format!("seed={seed} {t}"),
            );
            assert!(
                aig::random_equivalence_check(&g, &production, 8, seed ^ 0x51),
                "seed={seed} {t}: the pass changed the function"
            );
        }
    }
}

/// Every pass alone on the two smaller designs: node for node.
#[test]
fn single_passes_match_the_oracle_on_designs() {
    for design in [Design::Alu64, Design::Montgomery64] {
        let g = design.generate(DesignScale::Tiny);
        for t in Transform::ALL {
            let what = format!("{design} {t}");
            assert_identical(&reference::apply(t, &g), &t.apply(&g), &what);
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

/// Seeded random 24-pass flows on small random graphs, where one decision is
/// most of the graph, and on alu64: between them a sweep both rebuilds and
/// stays an identity, and every result is the oracle's.
#[test]
fn seeded_random_flows_on_small_graphs_are_bit_identical() {
    let alu = Design::Alu64.generate(DesignScale::Tiny);
    let small = [3u64, 17, 99].map(|seed| random_aig(seed * 0xBEEF, 10, 80));
    let flows = [0xBEEF, 0xFACADE, 0x5EED].map(random_flow);
    let mut jobs: Vec<_> = flows.iter().map(|f| (&alu, f)).collect();
    jobs.extend(small.iter().zip(&flows));
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

/// Mapping alone, on the untouched designs, in both modes.
#[test]
fn mapping_is_bit_identical_in_both_modes() {
    for design in Design::ALL {
        let mut g = design.generate(DesignScale::Tiny);
        assert_mapping_identical(&mut g, &mut PassContext::default(), design.name());
    }
}

#[test]
fn identity_sweep_leaves_the_graph_untouched() {
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
