//! The harness of the one differential suite (`differential.rs` beside this
//! directory, which `mod`s it in).
//!
//! Production (`PassContext`, and the public free functions in front of it)
//! is held three ways, none of which runs a second copy of a pass:
//!
//! * **pins** — each optimized graph's AND count, depth and structural
//!   [`fingerprint`], written out as literals ([`Pin`]); a change that moves
//!   them on purpose re-captures them from the table [`assert_pins`] prints;
//! * **function** — each optimized graph computes its input's outputs, over
//!   every input pattern when there are at most
//!   [`EXHAUSTIVE_MAX_INPUTS`] inputs ([`assert_equivalent`]);
//! * **the mapping oracle** — mapped netlists are compared **gate for gate**
//!   with `to_bits()` area and delay against `synth::reference::map`.
//!
//! `parallel_sweep.rs` borrows the node-for-node comparison to hold the
//! chunked sweep to itself across thread counts.

#![allow(dead_code)] // each test binary uses its own subset

use std::sync::atomic::{AtomicUsize, Ordering};

use aig::{random_equivalence_check, Aig, Lit, NodeKind, Simulator, VAR_MASKS};
use flow_core::Fnv64;
use synth::{
    map_with_ctx, reference, ApplyStats, CellLibrary, MappedNetlist, MapperParams, PassContext,
    Transform,
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

/// Builds a random AIG named `random-<seed>` with `num_inputs` inputs and
/// roughly `num_ands` ANDs.
pub fn random_aig(seed: u64, num_inputs: usize, num_ands: usize) -> Aig {
    let mut rng = Rng(seed | 1);
    let mut g = Aig::with_name(format!("random-{seed:#x}"));
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
pub fn assert_identical(expected: &Aig, got: &Aig, what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: node count");
    for id in 0..expected.len() {
        let (e, g) = (expected.node(id), got.node(id));
        assert_eq!(e.kind(), g.kind(), "{what}: node {id} kind");
        assert_eq!(e.level(), g.level(), "{what}: node {id} level");
    }
    assert_eq!(expected.outputs(), got.outputs(), "{what}: outputs");
    assert_eq!(expected.input_ids(), got.input_ids(), "{what}: inputs");
    for i in 0..expected.num_inputs() {
        let (e, g) = (expected.input_name(i), got.input_name(i));
        assert_eq!(e, g, "{what}: input name {i}");
    }
    for i in 0..expected.num_outputs() {
        let (e, g) = (expected.output_name(i), got.output_name(i));
        assert_eq!(e, g, "{what}: output name {i}");
    }
    assert_eq!(expected.name(), got.name(), "{what}: design name");
}

/// FNV-1a over the node count, the interface, every node's kind and fanin
/// literals, and the output literals (the hash `floweval::fingerprint_design`
/// keys stored QoR by).
pub fn fingerprint(g: &Aig) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(g.len());
    h.write_usize(g.num_inputs());
    h.write_usize(g.num_outputs());
    for id in g.node_ids() {
        match g.node(id).kind() {
            NodeKind::Constant => h.write_u32(0),
            NodeKind::Input(index) => {
                h.write_u32(1);
                h.write_u32(index);
            }
            NodeKind::And(a, b) => {
                h.write_u32(2);
                h.write_u32(a.raw());
                h.write_u32(b.raw());
            }
        }
    }
    for &output in g.outputs() {
        h.write_u32(output.raw());
    }
    h.finish()
}

/// One optimized graph as pinned: `("<graph>/<flow>", num_ands, depth,
/// fingerprint)`.
pub type Pin = (&'static str, usize, u32, u64);

/// The pinned facts of `g`, the result of the job `what`.
pub fn pin_of(what: String, g: &Aig) -> (String, usize, u32, u64) {
    (what, g.num_ands(), g.depth(), fingerprint(g))
}

/// Holds `got` to `pins` row for row.  A mismatch panics with the whole of
/// `got` written as `Pin` literals, ready to paste when a change moves the
/// bits on purpose.
pub fn assert_pins(got: &[(String, usize, u32, u64)], pins: &[Pin]) {
    let same = |(g, p): (&(String, usize, u32, u64), &Pin)| {
        g.0 == p.0 && (g.1, g.2, g.3) == (p.1, p.2, p.3)
    };
    if got.len() == pins.len() && got.iter().zip(pins).all(same) {
        return;
    }
    let first = got.iter().zip(pins).position(|row| !same(row));
    let table: String = got
        .iter()
        .map(|(what, ands, depth, fp)| format!("    ({what:?}, {ands}, {depth}, {fp:#018x}),\n"))
        .collect();
    panic!(
        "pinned graphs differ (first at row {first:?}, {} rows vs {} pinned); got:\n{table}",
        got.len(),
        pins.len()
    );
}

/// The largest input count [`assert_equivalent`] simulates exhaustively:
/// 2^20 patterns are 16 Ki simulation words.
pub const EXHAUSTIVE_MAX_INPUTS: usize = 20;

/// `got` computes `expected`'s outputs: checked on all 2^n input patterns
/// when `expected` has n ≤ [`EXHAUSTIVE_MAX_INPUTS`] inputs, and on 8 × 64
/// random ones otherwise.  Simulation shares no code with the passes.
pub fn assert_equivalent(expected: &Aig, got: &Aig, what: &str) {
    let n = expected.num_inputs();
    let interface = |g: &Aig| (g.num_inputs(), g.num_outputs());
    assert_eq!(interface(expected), interface(got), "{what}: interface");
    if n > EXHAUSTIVE_MAX_INPUTS {
        let same = random_equivalence_check(expected, got, 8, 0x51);
        assert!(same, "{what}: the function changed (random patterns)");
        return;
    }
    let (sim_e, sim_g) = (Simulator::new(expected), Simulator::new(got));
    let mut patterns = vec![0u64; n];
    // Word `block` holds rows `64 * block ..`: input `i` reads bit `i` of
    // the row number, so inputs 0..6 vary within a word, the rest by block.
    for block in 0..1u64 << n.saturating_sub(6) {
        for (i, p) in patterns.iter_mut().enumerate() {
            *p = match VAR_MASKS.get(i) {
                Some(&bits) => bits,
                None => 0u64.wrapping_sub(block >> (i - 6) & 1),
            };
        }
        let (e, g) = (sim_e.run(&patterns), sim_g.run(&patterns));
        assert_eq!(
            e,
            g,
            "{what}: the function changed in rows {}..",
            64 * block
        );
    }
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

/// Maps `g` through production and through the oracle and compares gate
/// for gate.
pub fn assert_mapping_identical(g: &mut Aig, ctx: &mut PassContext, what: &str) {
    let lib = CellLibrary::nangate14();
    let params = MapperParams::default();
    let oracle = reference::map(g, &lib, params);
    let production = map_with_ctx(g, &lib, params, ctx);
    assert_netlists_identical(&oracle, &production, what);
}

fn add(total: &mut ApplyStats, stats: ApplyStats) {
    total.in_place += stats.in_place;
    total.rebuilt += stats.rebuilt;
    total.identity += stats.identity;
}

/// Runs every `(design, flow)` job on a fresh context, on two threads (list
/// big designs first): each optimized graph must compute its design's
/// function ([`assert_equivalent`]), map gate for gate as the oracle does,
/// and match `pins` in job order.  Returns the apply routes the sweeps took.
pub fn check_jobs(jobs: &[(&Aig, &NamedFlow)], pins: &[Pin]) -> ApplyStats {
    let next = AtomicUsize::new(0);
    let worker = || {
        let (mut routes, mut rows) = (ApplyStats::default(), Vec::new());
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some((design, (name, flow))) = jobs.get(index) else {
                return (routes, rows);
            };
            let what = format!("{}/{name}", design.name());
            let mut ctx = PassContext::default();
            let mut optimized = ctx.run_flow(design, flow);
            assert_equivalent(design, &optimized, &what);
            assert_mapping_identical(&mut optimized, &mut ctx, &what);
            rows.push((index, pin_of(what, &optimized)));
            add(&mut routes, ctx.apply_stats());
        }
    };
    let (routes, mut rows) = std::thread::scope(|scope| {
        let other = scope.spawn(worker);
        let (mut routes, mut rows) = worker();
        let (theirs, their_rows) = other.join().expect("differential worker");
        add(&mut routes, theirs);
        rows.extend(their_rows);
        (routes, rows)
    });
    rows.sort_unstable_by_key(|&(index, _)| index);
    let rows: Vec<_> = rows.into_iter().map(|(_, row)| row).collect();
    assert_pins(&rows, pins);
    routes
}

/// Both apply routes — the rebuild and the free identity — must have been
/// taken, and nothing may report the retired in-place route.
pub fn assert_every_route_taken(routes: ApplyStats) {
    assert!(routes.rebuilt > 0, "no sweep rebuilt: {routes:?}");
    assert!(routes.identity > 0, "no sweep was an identity: {routes:?}");
    assert_eq!(routes.in_place, 0, "a sweep applied in place: {routes:?}");
}
