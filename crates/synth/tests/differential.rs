//! The differential suite.  Kernels are held to oracles that compute the
//! same thing by a different method (cut enumeration, cell matching, the
//! mapper); passes and flows — every pass alone, the preset flows and seeded
//! random flows on every design, the checked-in fixture corpus — are held to
//! pinned bits and to their input's function, each result's mapping to the
//! mapping oracle; context reuse, the free-function fronts and the apply
//! routes of a sweep are checked on their own terms.  Harness and
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

/// Every pass alone on the random graphs of `seed_graphs`: the function is
/// kept on all 1 Ki input patterns, and the result is the pinned one.
#[test]
fn single_passes_match_their_pins_on_random_aigs() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("random-0x23ccd/balance", 30, 6, 0x419fa2c291a20473),
        ("random-0x23ccd/restructure", 19, 6, 0x75cf70bbb3a0eb01),
        ("random-0x23ccd/rewrite", 28, 8, 0xa6e470afbbb6ee2d),
        ("random-0x23ccd/refactor", 19, 6, 0x75cf70bbb3a0eb01),
        ("random-0x23ccd/rewrite -z", 28, 8, 0xa6e470afbbb6ee2d),
        ("random-0x23ccd/refactor -z", 18, 5, 0x0a4811512dff66bb),
        ("random-0xcaddf/balance", 27, 10, 0x757bf38c3ecfbe3c),
        ("random-0xcaddf/restructure", 22, 8, 0xb93bb8ebccba6936),
        ("random-0xcaddf/rewrite", 21, 7, 0x1a3f2de6ae2d2095),
        ("random-0xcaddf/refactor", 14, 6, 0x4ce0dbe42583ca0c),
        ("random-0xcaddf/rewrite -z", 22, 8, 0xb152d327ec889b74),
        ("random-0xcaddf/refactor -z", 14, 6, 0xb343b8e851bdab8e),
        ("random-0x49d66d/balance", 30, 5, 0xf2c28d7af4d59964),
        ("random-0x49d66d/restructure", 17, 4, 0x3baf67bd3486cd36),
        ("random-0x49d66d/rewrite", 26, 8, 0xa20d39e1d5a3536d),
        ("random-0x49d66d/refactor", 15, 4, 0xfbd73946a36c071b),
        ("random-0x49d66d/rewrite -z", 28, 9, 0x49aad47449e94c02),
        ("random-0x49d66d/refactor -z", 15, 4, 0xfbd73946a36c071b),
    ];
    check_single_passes(&seed_graphs(), PINS);
}

/// Every pass alone on the two smaller designs: the pinned result, with
/// alu64's 19 inputs simulated exhaustively.
#[test]
fn single_passes_match_their_pins_on_designs() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("alu8/balance", 425, 36, 0x7d932d788500168f),
        ("alu8/restructure", 439, 37, 0x28216ceac6b821bd),
        ("alu8/rewrite", 422, 36, 0x03ba249fed2538f6),
        ("alu8/refactor", 437, 37, 0x7bb23de7d9ce606e),
        ("alu8/rewrite -z", 429, 36, 0xd91335d4d5a16809),
        ("alu8/refactor -z", 437, 36, 0xe03acca9fb377230),
        ("montgomery8/balance", 1503, 108, 0xd39b3e40b254d2cd),
        ("montgomery8/restructure", 1502, 109, 0xc586bbeea4d5c554),
        ("montgomery8/rewrite", 1483, 106, 0xe543c7b87518ed40),
        ("montgomery8/refactor", 1501, 108, 0x8afe4d9e899f2e1b),
        ("montgomery8/rewrite -z", 1484, 107, 0xd7dc926c85d9d77c),
        ("montgomery8/refactor -z", 1502, 108, 0x4ca8ac04cfec6aea),
    ];
    let designs = [Design::Alu64, Design::Montgomery64].map(|d| d.generate(DesignScale::Tiny));
    check_single_passes(&designs, PINS);
}

/// The three random graphs the single-pass and small-graph checks share.
fn seed_graphs() -> [Aig; 3] {
    [3u64, 17, 99].map(|seed| random_aig(seed * 0xBEEF, 10, 80))
}

/// Applies every pass alone to every graph through its public front:
/// function kept ([`assert_equivalent`]) and bits pinned, graph-major.
fn check_single_passes(graphs: &[Aig], pins: &[Pin]) {
    let mut rows = Vec::new();
    for g in graphs {
        for t in Transform::ALL {
            let what = format!("{}/{t}", g.name());
            let optimized = t.apply(g);
            assert_equivalent(g, &optimized, &what);
            rows.push(pin_of(what, &optimized));
        }
    }
    assert_pins(&rows, pins);
}

/// Every design × every preset: the pinned optimized graph, its function,
/// and its mapping gate for gate against the oracle.
#[test]
fn flow_evaluation_qor_is_bit_identical() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("aes32x1/compress", 9000, 124, 0x6ee9a2cb3cc527c0),
        ("aes32x1/compress2", 9012, 124, 0x9bc89945704388bc),
        ("aes32x1/resyn", 9012, 124, 0x20d07a12f2e680e0),
        ("aes32x1/resyn2", 9012, 124, 0x9bc89945704388bc),
        ("aes32x1/resyn3", 9012, 124, 0x9bc89945704388bc),
        ("montgomery8/compress", 1484, 107, 0x47142b0b5c797f97),
        ("montgomery8/compress2", 1484, 106, 0x581e17d2d0d40679),
        ("montgomery8/resyn", 1484, 107, 0x47142b0b5c797f97),
        ("montgomery8/resyn2", 1484, 106, 0x7f8dc4f1c1dce24d),
        ("montgomery8/resyn3", 1489, 107, 0x8687e3880ce01e7d),
        ("alu8/compress", 407, 35, 0xf88147fc1c72421b),
        ("alu8/compress2", 404, 35, 0x72088957bbb34c1b),
        ("alu8/resyn", 407, 35, 0x2933f056ed84acfa),
        ("alu8/resyn2", 405, 35, 0xa4d0e1fa44bc5c5c),
        ("alu8/resyn3", 415, 35, 0x24b08ab756f04678),
    ];
    // Largest first: aes128 is an order of magnitude bigger than the others.
    let designs = [Design::Aes128, Design::Montgomery64, Design::Alu64];
    let designs = designs.map(|d| d.generate(DesignScale::Tiny));
    let flows = presets();
    let jobs: Vec<_> = designs
        .iter()
        .flat_map(|g| flows.iter().map(move |f| (g, f)))
        .collect();
    assert_every_route_taken(check_jobs(&jobs, PINS));
}

/// Every design × seeded random 24-pass flows.
#[test]
fn seeded_random_paper_flows_are_bit_identical() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("aes32x1/random-0xa5a5", 9000, 124, 0x6ee9a2cb3cc527c0),
        ("montgomery8/random-0xa5a5", 1484, 106, 0x581e17d2d0d40679),
        ("montgomery8/random-0x1ceb00da", 1481, 105, 0x7b82a64085a9200a),
        ("montgomery8/random-0x7e57", 1483, 105, 0x26800f1d87658d80),
        ("alu8/random-0xa5a5", 404, 35, 0xa27fba7298d228eb),
        ("alu8/random-0x1ceb00da", 405, 35, 0x5dc2bafb6b5212d9),
        ("alu8/random-0x7e57", 404, 35, 0x9a0d3356a47f6511),
    ];
    let aes = Design::Aes128.generate(DesignScale::Tiny);
    let mont = Design::Montgomery64.generate(DesignScale::Tiny);
    let alu = Design::Alu64.generate(DesignScale::Tiny);
    let flows = [0xA5A5, 0x1CEB00DA, 0x7E57].map(random_flow);
    // aes128 is an order of magnitude larger than the others: one flow.
    let mut jobs = vec![(&aes, &flows[0])];
    jobs.extend(flows.iter().map(|f| (&mont, f)));
    jobs.extend(flows.iter().map(|f| (&alu, f)));
    assert_every_route_taken(check_jobs(&jobs, PINS));
}

/// Seeded random 24-pass flows on small random graphs, where one decision is
/// most of the graph, and on alu64: between them a sweep both rebuilds and
/// stays an identity, and every result is the pinned one.
#[test]
fn seeded_random_flows_on_small_graphs_are_bit_identical() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("alu8/random-0xbeef", 403, 35, 0x3338514d182acedc),
        ("alu8/random-0xfacade", 403, 35, 0x3338514d182acedc),
        ("alu8/random-0x5eed", 404, 35, 0x23f8930bab719b33),
        ("random-0x23ccd/random-0xbeef", 18, 5, 0x20d9bc38fe25c0cb),
        ("random-0xcaddf/random-0xfacade", 6, 3, 0x2e648789d8f22c63),
        ("random-0x49d66d/random-0x5eed", 10, 4, 0x5bcd3c7843548295),
    ];
    let alu = Design::Alu64.generate(DesignScale::Tiny);
    let small = seed_graphs();
    let flows = [0xBEEF, 0xFACADE, 0x5EED].map(random_flow);
    let mut jobs: Vec<_> = flows.iter().map(|f| (&alu, f)).collect();
    jobs.extend(small.iter().zip(&flows));
    assert_every_route_taken(check_jobs(&jobs, PINS));
}

/// The checked-in fixture corpus (designs read from `.aag`, so names and
/// node order come from the file, not from the generators).
#[test]
fn fixture_corpus_is_bit_identical_across_paths() {
    use Transform::*;
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("montgomery64_tiny/mixed", 1484, 106, 0x2830d55e9acf4b21),
        ("montgomery64_tiny/empty", 1504, 109, 0x34bc25eb9ae10494),
        ("alu64_tiny/mixed", 407, 35, 0x5698363e536d5072),
        ("alu64_tiny/empty", 439, 37, 0x28216ceac6b821bd),
    ];
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
    check_jobs(&jobs, PINS);
}

/// Buffer recycling must not leak state between flows or designs: ONE
/// context serves graphs of different sizes in turn (stale stamps, buffers
/// longer and shorter than the next graph), and each round's graph and
/// mapping are those of a fresh context.
#[test]
fn one_context_reused_across_many_flows_stays_identical() {
    let lib = CellLibrary::nangate14();
    let params = MapperParams::default();
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
        let what = format!("shared-ctx/round-{round}");
        let mut fresh_ctx = PassContext::default();
        let mut fresh = fresh_ctx.run_flow(design, flow);
        let mut shared = ctx.run_flow(design, flow);
        assert_identical(&fresh, &shared, &what);
        let expected = map_with_ctx(&mut fresh, &lib, params, &mut fresh_ctx);
        let got = map_with_ctx(&mut shared, &lib, params, &mut ctx);
        assert_netlists_identical(&expected, &got, &what);
        ctx.recycle(shared);
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

/// Mapping alone, on the untouched designs.
#[test]
fn mapping_is_bit_identical_to_the_oracle() {
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
    assert_identical(&g, &work, "identity");
}

#[test]
fn whole_graph_decision_is_rebuilt_and_keeps_the_function() {
    // A tiny redundant graph where one accepted decision replaces most of
    // the AND nodes: the sweep rebuilds it into the pinned graph, which
    // computes the same function.
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("whole-graph/refactor", 2, 2, 0x412cf051da1004d0),
    ];
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
    assert_equivalent(&g, &work, "whole-graph rebuild");
    assert_pins(&[pin_of("whole-graph/refactor".into(), &work)], PINS);
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
