//! Pieces every synthesis workload shares: flow drawing, the pass-by-pass
//! replay the traced runs and probes use, and the sampled correctness check.

use std::time::Instant;

use aig::io::Format;
use aig::Aig;
use synth::{map_with_ctx, CellLibrary, MapperParams, PassContext, Qor, Transform};

use crate::oracle;
use crate::rng::Rng64;
use crate::trace::Tracer;

/// Passes per flow in the paper's space (n = 6 transforms, m = 4 each).
pub const PAPER_FLOW_LEN: usize = 24;

/// Span names of the six transforms, indexed by [`Transform::index`].
pub const PASS_SPANS: [&str; 6] = [
    "synth.balance",
    "synth.restructure",
    "synth.rewrite",
    "synth.refactor",
    "synth.rewrite_z",
    "synth.refactor_z",
];

/// A paper-space flow (each transform exactly four times) made of four
/// blocks, each a seeded permutation of the six transforms; the first block
/// starts with `prefix` (distinct transforms).  Every transform then meets
/// the graph once per quarter of the flow, which keeps the cost of a flow
/// nearly independent of the draw.
pub fn paper_flow(rng: &mut Rng64, prefix: &[Transform]) -> Vec<Transform> {
    let mut flow = Vec::with_capacity(PAPER_FLOW_LEN);
    for block in 0..4 {
        let head = if block == 0 { prefix } else { &[] };
        let mut rest: Vec<Transform> = Transform::ALL
            .iter()
            .copied()
            .filter(|t| !head.contains(t))
            .collect();
        rng.shuffle(&mut rest);
        flow.extend_from_slice(head);
        flow.extend(rest);
    }
    flow
}

/// A flow of `len` transforms drawn independently.
pub fn short_flow(rng: &mut Rng64, len: usize) -> Vec<Transform> {
    (0..len).map(|_| Transform::ALL[rng.below(6)]).collect()
}

/// Per-transform totals of a pass-by-pass replay; slot 6 is the mapper.
#[derive(Debug, Clone, Default)]
pub struct PassTotals {
    /// Seconds spent.
    pub seconds: [f64; 7],
    /// AND nodes entering (the size the time is normalised by).
    pub ands_in: [u64; 7],
    /// AND nodes leaving (passes only).
    pub ands_out: [u64; 7],
}

impl PassTotals {
    /// Writes `synth.<pass>_ns_per_and`, `synth.<pass>_and_ratio` and
    /// `synth.map_ns_per_and` into `out`.
    pub fn report(&self, out: &mut crate::report::Outcome) {
        for (i, span) in PASS_SPANS.iter().enumerate() {
            // `synth.rewrite_z` -> `synth.rewrite_z_ns_per_and`.
            if self.ands_in[i] > 0 {
                let ands = self.ands_in[i] as f64;
                out.layer(&format!("{span}_ns_per_and"), self.seconds[i] * 1e9 / ands);
                out.layer(&format!("{span}_and_ratio"), self.ands_out[i] as f64 / ands);
            }
        }
        if self.ands_in[6] > 0 {
            out.layer(
                "synth.map_ns_per_and",
                self.seconds[6] * 1e9 / self.ands_in[6] as f64,
            );
        }
    }
}

/// Applies `flow` to `design` one public `PassContext::apply` at a time and
/// maps the result like the engine does, with a span per call.  Returns the
/// optimized network and its QoR.
pub fn replay_flow(
    tracer: &mut Tracer,
    op: u64,
    ctx: &mut PassContext,
    library: &CellLibrary,
    design: &Aig,
    flow: &[Transform],
    totals: &mut PassTotals,
) -> (Aig, Qor) {
    let mut g = ctx.take_buf();
    tracer.span("aig.copy", op, |_| {
        g.copy_from(design);
        ctx.ensure_clean(&mut g);
    });
    for &t in flow {
        let i = t.index();
        totals.ands_in[i] += g.num_ands() as u64;
        let start = Instant::now();
        tracer.span(PASS_SPANS[i], op, |_| ctx.apply(t, &mut g));
        totals.seconds[i] += start.elapsed().as_secs_f64();
        totals.ands_out[i] += g.num_ands() as u64;
    }
    let mut subject = ctx.take_buf();
    tracer.span("aig.copy", op, |_| subject.copy_from(&g));
    totals.ands_in[6] += subject.num_ands() as u64;
    let start = Instant::now();
    let qor = tracer.span("synth.map", op, |_| {
        map_with_ctx(&mut subject, library, MapperParams::default(), ctx).qor()
    });
    totals.seconds[6] += start.elapsed().as_secs_f64();
    ctx.recycle(subject);
    (g, qor)
}

/// One sampled result to check: the design, the flow and the QoR the program
/// reported for it.
#[derive(Debug)]
pub struct Sample<'a> {
    /// The input design.
    pub design: &'a Aig,
    /// The flow that was evaluated.
    pub flow: Vec<Transform>,
    /// The QoR the system under test answered.
    pub reported: Qor,
}

/// Checks sampled results without trusting the evaluation engine: each flow
/// is re-run through a fresh `PassContext` (no trie, no store), its exported
/// `aag` must match the input design on the oracle's random patterns, and
/// the reference mapper's QoR of it must equal what was reported.  Runs on
/// two threads; returns `(checks, failures)`.
pub fn verify_samples(samples: &[Sample<'_>], seed: u64) -> (u64, u64) {
    let library = CellLibrary::nangate14();
    let check = |sample: &Sample<'_>| -> bool {
        let mut ctx = PassContext::default();
        let optimized = ctx.run_flow(sample.design, &sample.flow);
        let qor = synth::map_qor(&optimized, &library, MapperParams::default());
        qor == sample.reported && oracle_accepts(sample.design, &optimized, seed)
    };
    let (left, right) = samples.split_at(samples.len() / 2);
    let failures = std::thread::scope(|scope| {
        let other = scope.spawn(|| right.iter().filter(|s| !check(s)).count());
        let mine = left.iter().filter(|s| !check(s)).count();
        mine + other.join().expect("verification thread")
    });
    (samples.len() as u64, failures as u64)
}

/// Renders both networks as ASCII AIGER and asks the harness's own evaluator
/// whether they agree.
pub fn oracle_accepts(design: &Aig, optimized: &Aig, seed: u64) -> bool {
    let reference = aag(design);
    let candidate = aag(optimized);
    oracle::equivalent(&reference, &candidate, seed).is_ok()
}

/// ASCII-AIGER text of a network.
pub fn aag(g: &Aig) -> String {
    String::from_utf8(aig::io::render_design(g, Format::AigerAscii)).expect("aag is ASCII")
}

/// Records the engine's deterministic counters of a timed section; a store
/// write error is a failed operation.
pub fn eval_counters(
    eval: &floweval::EvalStats,
    out: &mut crate::report::Outcome,
    section: &mut crate::report::Section,
) {
    for (name, value) in [
        ("floweval.flows_requested", eval.flows_requested),
        ("floweval.store_hits", eval.store_hits),
        ("floweval.passes_requested", eval.passes_requested),
        ("floweval.passes_applied", eval.passes_applied),
        ("floweval.trie_hits", eval.trie_hits),
        ("floweval.mappings_run", eval.mappings_run),
        ("floweval.store_write_errors", eval.store_write_errors),
    ] {
        out.counters.insert(name.to_string(), value as f64);
    }
    section.failed += eval.store_write_errors as u64;
}

/// `qor_area_ratio`: the geomean, over `designs` × the five preset flows
/// users run (`flowgen::Flow::presets`: compress, compress2, resyn, resyn2,
/// resyn3 — together every transform), of mapped area after the flow ÷ mapped
/// area of the untouched design.  The flows do not depend on the seed, so the
/// value repeats exactly on every run of a workload and a later PR moves it
/// only by changing what the passes or the mapper generate.  Evaluated outside
/// the timed section through a fresh `PassContext` per flow (no trie, no
/// store), on two threads.
pub fn qor_panel(designs: &[Aig]) -> f64 {
    let library = CellLibrary::nangate14();
    let area = |g: &Aig| synth::map_qor(g, &library, MapperParams::default()).area_um2;
    let base: Vec<f64> = designs.iter().map(area).collect();
    let jobs: Vec<(usize, &[Transform])> = (0..designs.len())
        .flat_map(|d| {
            let presets = flowgen::Flow::presets().iter();
            presets.map(move |(_, flow)| (d, *flow))
        })
        .collect();
    // Every other job per thread: designs differ in size by an order of
    // magnitude, presets far less.
    let ratios_of = |parity: usize| -> Vec<f64> {
        let mine = jobs.iter().skip(parity).step_by(2);
        mine.map(|&(d, flow)| area(&PassContext::default().run_flow(&designs[d], flow)) / base[d])
            .collect()
    };
    let ratios = std::thread::scope(|scope| {
        let other = scope.spawn(|| ratios_of(1));
        let mut ratios = ratios_of(0);
        ratios.extend(other.join().expect("panel thread"));
        ratios
    });
    crate::stats::geomean(&ratios)
}
