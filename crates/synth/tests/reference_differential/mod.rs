//! The harness of the one differential suite: production (`PassContext`, and
//! the public free functions in front of it) against the oracle
//! (`synth::reference`).
//!
//! Graphs are compared **node for node** and mapped netlists **gate for
//! gate** with `to_bits()` area and delay — "equivalent" is not enough.  The
//! suite's tests live in the three test files beside this directory, which
//! `mod` it in; they keep the file and test names the tier-1 floor knows them
//! by (part 1: cuts, single passes, the presets, the mapper; part 2: random
//! flows, fixtures, context reuse; part 3: the apply routes of a sweep and
//! the epochs they leave).  `parallel_sweep.rs` borrows the node-for-node
//! comparison to hold the chunked sweep to itself across thread counts.

#![allow(dead_code)] // each test binary uses its own subset

use std::sync::atomic::{AtomicUsize, Ordering};

use aig::{Aig, Lit};
use synth::{
    map_with_ctx, reference, ApplyStats, CellLibrary, MapMode, MappedNetlist, MapperParams,
    PassContext, Transform,
};

/// A named flow.
pub type NamedFlow = (String, Vec<Transform>);

/// `flowgen::Flow::presets()`, which this crate cannot depend on.
pub fn presets() -> Vec<NamedFlow> {
    use Transform::*;
    let presets: [(&str, &[Transform]); 5] = [
        ("compress", &[Balance, Rewrite, RewriteZ, Balance, Rewrite]),
        (
            "compress2",
            &[
                Balance, Rewrite, Refactor, Balance, Rewrite, RewriteZ, Balance, RefactorZ,
                RewriteZ, Balance,
            ],
        ),
        ("resyn", &[Balance, Rewrite, Rewrite, Balance, Rewrite]),
        (
            "resyn2",
            &[Balance, Rewrite, Refactor, Balance, RewriteZ, RefactorZ],
        ),
        (
            "resyn3",
            &[
                Balance,
                Restructure,
                RewriteZ,
                Balance,
                RefactorZ,
                Restructure,
            ],
        ),
    ];
    let named = presets.iter();
    named.map(|(n, f)| (n.to_string(), f.to_vec())).collect()
}

/// Deterministic xorshift generator for structure-only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random flow of the paper's length (24 passes over the 6 transforms).
pub fn random_flow(seed: u64) -> NamedFlow {
    let mut rng = Rng(seed | 1);
    let flow = (0..24).map(|_| Transform::from_index(rng.below(Transform::COUNT)));
    (format!("random-{seed:#x}"), flow.collect())
}

/// Builds a random AIG with `num_inputs` inputs and roughly `num_ands` ANDs.
pub fn random_aig(seed: u64, num_inputs: usize, num_ands: usize) -> Aig {
    let mut rng = Rng(seed | 1);
    let mut g = Aig::new();
    let mut lits: Vec<Lit> = g.add_inputs("x", num_inputs);
    for _ in 0..num_ands {
        let a = lits[rng.below(lits.len())];
        let b = lits[rng.below(lits.len())];
        let a = if rng.next() & 1 == 1 { !a } else { a };
        let b = if rng.next() & 1 == 1 { !b } else { b };
        let l = g.and(a, b);
        if !l.is_const() {
            lits.push(l);
        }
    }
    // Make the last few signals outputs so most of the graph stays reachable.
    for (i, &l) in lits.iter().rev().take(4).enumerate() {
        g.add_output(format!("o{i}"), l);
    }
    g
}

/// Node-for-node structural identity: ids, kinds, levels, interface, names.
pub fn assert_identical(oracle: &Aig, production: &Aig, what: &str) {
    assert_eq!(oracle.len(), production.len(), "{what}: node count");
    for id in 0..oracle.len() {
        let (o, p) = (oracle.node(id), production.node(id));
        assert_eq!(o.kind(), p.kind(), "{what}: node {id} kind");
        assert_eq!(o.level(), p.level(), "{what}: node {id} level");
    }
    assert_eq!(oracle.outputs(), production.outputs(), "{what}: outputs");
    assert_eq!(oracle.input_ids(), production.input_ids(), "{what}: inputs");
    for i in 0..oracle.num_inputs() {
        let (o, p) = (oracle.input_name(i), production.input_name(i));
        assert_eq!(o, p, "{what}: input name {i}");
    }
    for i in 0..oracle.num_outputs() {
        let (o, p) = (oracle.output_name(i), production.output_name(i));
        assert_eq!(o, p, "{what}: output name {i}");
    }
    assert_eq!(oracle.name(), production.name(), "{what}: design name");
}

/// Gate-for-gate identity of two mapped netlists, floats by their bits.
pub fn assert_netlists_identical(oracle: &MappedNetlist, production: &MappedNetlist, what: &str) {
    let (og, pg) = (&oracle.gates, &production.gates);
    assert_eq!(og.len(), pg.len(), "{what}: gate count");
    for (o, p) in og.iter().zip(pg) {
        assert_eq!(o.root, p.root, "{what}: gate root");
        assert_eq!(o.cell, p.cell, "{what}: cell of gate {}", o.root);
        assert_eq!(o.leaves, p.leaves, "{what}: leaves of gate {}", o.root);
        let (oa, pa) = (o.arrival_ps.to_bits(), p.arrival_ps.to_bits());
        assert_eq!(oa, pa, "{what}: arrival of gate {}", o.root);
    }
    let bits = |n: &MappedNetlist| (n.area.to_bits(), n.delay_ps.to_bits());
    assert_eq!(bits(oracle), bits(production), "{what}: area, delay");
    assert_eq!(oracle.qor(), production.qor(), "{what}: QoR");
}

/// Maps `g` through both paths in both modes and compares gate for gate.
pub fn assert_mapping_identical(g: &mut Aig, ctx: &mut PassContext, what: &str) {
    let lib = CellLibrary::nangate14();
    for mode in [MapMode::Delay, MapMode::Area] {
        let params = MapperParams {
            mode,
            ..Default::default()
        };
        let oracle = reference::map(g, &lib, params);
        let production = map_with_ctx(g, &lib, params, ctx);
        assert_netlists_identical(&oracle, &production, &format!("{what} {mode:?}"));
    }
}

/// Runs `flow` through `ctx` and through the oracle; compares the optimized
/// graph node for node and its mapping gate for gate.
pub fn assert_flow_identical(design: &Aig, flow: &[Transform], ctx: &mut PassContext, what: &str) {
    let oracle = reference::apply_sequence(design, flow);
    let mut production = ctx.run_flow(design, flow);
    assert_identical(&oracle, &production, what);
    assert_mapping_identical(&mut production, ctx, what);
    ctx.recycle(production);
}

fn add(total: &mut ApplyStats, stats: ApplyStats) {
    total.in_place += stats.in_place;
    total.rebuilt += stats.rebuilt;
    total.identity += stats.identity;
}

/// [`assert_flow_identical`] over every `(design, flow)` job, each on a fresh
/// context, on two threads (the oracle is slow; list big designs first).
/// Returns the apply routes the production sweeps took.
pub fn check_jobs(jobs: &[(&Aig, &NamedFlow)]) -> ApplyStats {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut routes = ApplyStats::default();
        while let Some((design, (name, flow))) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let mut ctx = PassContext::default();
            assert_flow_identical(design, flow, &mut ctx, &format!("{}/{name}", design.name()));
            add(&mut routes, ctx.apply_stats());
        }
        routes
    };
    std::thread::scope(|scope| {
        let other = scope.spawn(worker);
        let mut routes = worker();
        add(&mut routes, other.join().expect("differential worker"));
        routes
    })
}

/// Both apply routes — the rebuild and the free identity — must have been
/// held to the oracle, and nothing may report the retired in-place route.
pub fn assert_every_route_taken(routes: ApplyStats) {
    assert!(routes.rebuilt > 0, "no sweep rebuilt: {routes:?}");
    assert!(routes.identity > 0, "no sweep was an identity: {routes:?}");
    assert_eq!(routes.in_place, 0, "a sweep applied in place: {routes:?}");
}
