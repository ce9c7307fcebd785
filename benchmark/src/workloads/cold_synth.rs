//! `cold_synth` — paper-scale designs, one thread, nothing to reuse.
//!
//! aes128@Full and montgomery64@Full flows go one by one through
//! `EvalEngine::evaluate_flow_with_ctx` on one recycled `PassContext` with
//! an in-memory store.  No two flows of a design share their first two
//! passes, so the prefix trie only pays: it caches prefixes nobody asks for
//! again.  `aig` and `synth` do all the work; `nn`, `flowd` and the wire do
//! none.  This is the workload on which a cache or wire optimisation must
//! show no change.

use std::time::Instant;

use aig::Aig;
use circuits::{Design, DesignScale};
use floweval::EvalEngine;
use synth::{CellLibrary, PassContext, Qor, SharedIsopCache, Transform};

use super::SetupTimes;
use crate::common::{
    eval_counters, oracle_accepts, paper_flow, qor_panel, replay_flow, verify_samples, PassTotals,
    Sample,
};
use crate::report::{Outcome, Section};
use crate::rng::Rng64;
use crate::runner::{measure_setup, RunArgs, Scratch};
use crate::trace::Tracer;
use crate::{host, probes};

/// Flows per nominal section: aes128@Full (~0.45 s each) and
/// montgomery64@Full (~1.25 s each).
const AES_FLOWS: f64 = 24.0;
const MONT_FLOWS: f64 = 7.0;
/// Results re-derived and checked by the oracle in an untraced run.
const SAMPLES: usize = 16;

/// What a set-up leaves ready for the timed section.
pub struct Ready {
    /// Stage times.
    pub times: SetupTimes,
    designs: Vec<Aig>,
    /// `(design index, flow)` in evaluation order.
    jobs: Vec<(usize, Vec<Transform>)>,
    engine: EvalEngine,
    ctx: PassContext,
}

/// One cold set-up: NPN table, cell library, the two designs, the engine and
/// the seeded job list.
pub fn setup(args: &RunArgs) -> Ready {
    let start = Instant::now();
    let _ = synth::npn4::npn4();
    let npn4_ms = start.elapsed().as_secs_f64() * 1e3;
    let generate = Instant::now();
    let designs = vec![
        Design::Aes128.generate(DesignScale::Full),
        Design::Montgomery64.generate(DesignScale::Full),
    ];
    let generate_ms = generate.elapsed().as_secs_f64() * 1e3;
    let engine = EvalEngine::default();
    let ctx = PassContext::default();
    // A design has 30 two-pass prefixes of distinct transforms; `MAX_SECONDS`
    // keeps the aes128 count at or below that.
    let counts = [args.scaled(AES_FLOWS, 2), args.scaled(MONT_FLOWS, 1)];
    let jobs = draw_jobs(args.seed, counts);
    Ready {
        times: SetupTimes {
            ready_s: start.elapsed().as_secs_f64(),
            npn4_ms,
            generate_ms,
        },
        designs,
        jobs,
        engine,
        ctx,
    }
}

/// `counts[d]` paper-space flows per design, no two of a design sharing
/// their first two passes; first passes rotate through the six transforms so
/// every seed does the same amount of first-pass (full-size graph) work.
fn draw_jobs(seed: u64, counts: [usize; 2]) -> Vec<(usize, Vec<Transform>)> {
    let mut rng = Rng64::stream(seed, 0xC01D);
    let mut jobs = Vec::new();
    for (design, &count) in counts.iter().enumerate() {
        assert!(
            count <= 30,
            "only 30 two-pass prefixes of distinct transforms exist"
        );
        let offset = rng.below(6);
        let seconds: Vec<Vec<Transform>> = Transform::ALL
            .iter()
            .map(|first| {
                let mut others: Vec<Transform> = Transform::ALL
                    .iter()
                    .copied()
                    .filter(|t| t != first)
                    .collect();
                rng.shuffle(&mut others);
                others
            })
            .collect();
        for k in 0..count {
            let first = (k + offset) % 6;
            let prefix = [Transform::ALL[first], seconds[first][k / 6]];
            jobs.push((design, paper_flow(&mut rng, &prefix)));
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let Ready {
        times,
        designs,
        jobs,
        engine,
        mut ctx,
    } = setup(args);
    let mut out = Outcome {
        setup_s: measure_setup(args, |_| None),
        ..Outcome::default()
    };

    // Warm-up, excluded: one flow on the small ALU pages the passes in.
    let alu = Design::Alu64.generate(DesignScale::Small);
    let _ = EvalEngine::default().evaluate_flow_with_ctx(&alu, &jobs[0].1, &mut ctx);
    let _ = ctx.take_timings();

    // The timed section: fixed work, one operation per flow.
    let mut section = Section::default();
    let mut qors: Vec<Qor> = Vec::with_capacity(jobs.len());
    let (cpu0, wall0) = (host::cpu_seconds(), Instant::now());
    for (design, flow) in &jobs {
        let start = Instant::now();
        qors.push(engine.evaluate_flow_with_ctx(&designs[*design], flow, &mut ctx));
        section
            .latencies_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
    }
    section.close(cpu0, wall0);
    section.evals = jobs.len() as u64;

    let eval = engine.stats();
    eval_counters(&eval, &mut out, &mut section);

    if args.trace {
        traced_replay(args, tracer, &designs, &jobs, &qors, &section, &mut out);
        let timings = ctx.take_timings();
        let self_s = (eval.wall_s - timings.pass_seconds() - timings.mapping.seconds).max(0.0);
        out.layer("floweval.self_s", self_s);
        out.layer("floweval.self_ratio", self_s / eval.wall_s);
        out.layer("floweval.pass_savings_ratio", eval.pass_savings_rate());
        let cache = engine.cache_summary();
        out.layer("floweval.trie_cached_nodes", cache.cached_aig_nodes as f64);
        out.layer(
            "floweval.trie_cached_prefixes",
            cache.cached_prefixes as f64,
        );
        for (name, value) in out.counters.clone() {
            out.layer(&name, value);
        }
        out.layer("synth.npn4_table_build_ms", times.npn4_ms);
        out.layer("circuits.generate_ms", times.generate_ms);
        let refs: Vec<&Aig> = designs.iter().collect();
        probes::aig_layer(&refs, &mut out);
        let scratch = Scratch::new("cold");
        probes::store_layer(scratch.path(), 5000, &mut out);
    } else {
        // Sampled results, re-derived without the engine and judged by the
        // oracle; the cheaper design is sampled more often (jobs are already
        // in seeded order).
        let jobs_ref = &jobs;
        let of_design = |d: usize, n: usize| {
            (0..jobs_ref.len())
                .filter(move |&i| jobs_ref[i].0 == d)
                .take(n)
        };
        let samples: Vec<Sample<'_>> = of_design(0, SAMPLES - 2)
            .chain(of_design(1, 2))
            .map(|i| Sample {
                design: &designs[jobs[i].0],
                flow: jobs[i].1.clone(),
                reported: qors[i],
            })
            .collect();
        let (checks, failed) = verify_samples(&samples, args.seed);
        out.checks += checks;
        out.failed_checks += failed;
        out.qor_area_ratio = qor_panel(&designs);
    }
    out.section = section;
    out
}

/// The traced section: the same jobs replayed through public
/// `PassContext::apply` calls and `map_with_ctx`, a span per call.  Every
/// replayed QoR must equal the engine's, and the replayed networks feed the
/// oracle for free.
fn traced_replay(
    args: &RunArgs,
    tracer: &mut Tracer,
    designs: &[Aig],
    jobs: &[(usize, Vec<Transform>)],
    engine_qors: &[Qor],
    reference: &Section,
    out: &mut Outcome,
) {
    let library = CellLibrary::nangate14();
    let isop = SharedIsopCache::new();
    let mut ctx = PassContext::default().share_isop_cache(isop.clone());
    let mut totals = PassTotals::default();
    let mut results: Vec<(usize, Aig)> = Vec::new();
    let wall = Instant::now();
    tracer.span("harness.section", 0, |tracer| {
        for (op, (design, flow)) in jobs.iter().enumerate() {
            let (g, qor) = replay_flow(
                tracer,
                op as u64 + 1,
                &mut ctx,
                &library,
                &designs[*design],
                flow,
                &mut totals,
            );
            out.checks += 1;
            out.failed_checks += u64::from(qor != engine_qors[op]);
            if results.len() < SAMPLES {
                results.push((*design, g));
            } else {
                ctx.recycle(g);
            }
        }
    });
    let traced_wall = wall.elapsed().as_secs_f64();
    out.layer("trace.overhead_ratio", traced_wall / reference.wall_s - 1.0);
    for (design, g) in &results {
        out.checks += 1;
        out.failed_checks += u64::from(!oracle_accepts(&designs[*design], g, args.seed));
    }
    totals.report(out);
    probes::apply_and_isop(&ctx, &isop, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn jobs_are_paper_space_flows_with_distinct_two_pass_prefixes() {
        for seed in 1..=5 {
            let jobs = draw_jobs(seed, [24, 7]);
            assert_eq!(jobs.len(), 31);
            let mut prefixes = BTreeSet::new();
            let mut first_passes = [0usize; 6];
            for (design, flow) in &jobs {
                assert_eq!(flow.len(), crate::common::PAPER_FLOW_LEN);
                for t in Transform::ALL {
                    assert_eq!(
                        flow.iter().filter(|&&x| x == t).count(),
                        4,
                        "m = 4 repetitions"
                    );
                }
                assert!(
                    prefixes.insert((*design, flow[0], flow[1])),
                    "seed {seed}: shared prefix"
                );
                if *design == 0 {
                    first_passes[flow[0].index()] += 1;
                }
            }
            assert_eq!(first_passes, [4; 6], "first passes rotate evenly");
        }
        // The longest accepted run still finds a prefix for every aes128 flow.
        let longest = RunArgs {
            workload: "cold_synth".into(),
            seed: 1,
            seconds: crate::runner::MAX_SECONDS,
            trace: false,
        };
        assert!(longest.scaled(AES_FLOWS, 2) <= 30);
        assert_ne!(draw_jobs(1, [24, 7]), draw_jobs(2, [24, 7]));
        assert_eq!(draw_jobs(1, [24, 7]), draw_jobs(1, [24, 7]));
    }
}
