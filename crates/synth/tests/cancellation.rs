//! Cancellation unwinding leaves the arena-recycling context reusable.
//!
//! The contract pinned here backs the daemon's deadline path: a request past
//! its budget unwinds out of the pass pipeline, and the worker's long-lived
//! [`PassContext`] serves the next request with bit-identical results — no
//! context rebuild, no residue from the cancelled evaluation.

use std::time::{Duration, Instant};

use aig::io::{render_design, Format};
use circuits::{Design, DesignScale};
use flow_core::{CancelReason, CancelToken};
use synth::{
    map_with_ctx, try_map_with_ctx, verify_equivalence, CellLibrary, FlowRunner, MapperParams,
    PassContext, Transform,
};

const FLOW: [Transform; 6] = [
    Transform::Balance,
    Transform::Rewrite,
    Transform::RefactorZ,
    Transform::Restructure,
    Transform::RewriteZ,
    Transform::Balance,
];

fn bits(g: &aig::Aig) -> Vec<u8> {
    render_design(g, Format::AigerAscii)
}

#[test]
fn expired_deadline_cancels_at_the_first_pass_boundary() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let mut ctx = PassContext::default();
    let token = CancelToken::with_deadline(Duration::ZERO);
    let err = ctx
        .run_flow_cancellable(&design, &FLOW, &token)
        .expect_err("zero budget must cancel");
    assert_eq!(err.reason, CancelReason::DeadlineExceeded);
}

#[test]
fn explicitly_cancelled_token_reports_cancelled() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let mut ctx = PassContext::default();
    let token = CancelToken::never();
    token.cancel();
    let err = ctx
        .run_flow_cancellable(&design, &FLOW, &token)
        .expect_err("cancelled token must cancel");
    assert_eq!(err.reason, CancelReason::Cancelled);
}

#[test]
fn cancelled_context_reruns_bit_identical_to_a_fresh_one() {
    let design = Design::Aes128.generate(DesignScale::Tiny);
    let mut ctx = PassContext::default();

    // Warm the context (pool, caches, scratch) with a real evaluation first,
    // then cancel one mid-stream: interrupt budgets from instant to a few
    // milliseconds land the unwind in different passes and loops.
    let warm = ctx.run_flow(&design, &FLOW);
    ctx.recycle(warm);
    for budget_us in [0, 200, 500, 1_000, 2_000, 5_000] {
        let token = CancelToken::with_deadline(Duration::from_micros(budget_us));
        let _ = ctx.run_flow_cancellable(&design, &FLOW, &token);
    }

    // The survivor context must now behave exactly like a fresh one.
    let reused = ctx.run_flow(&design, &FLOW);
    let fresh = PassContext::default().run_flow(&design, &FLOW);
    assert_eq!(
        bits(&reused),
        bits(&fresh),
        "a cancelled context must not leak state into later runs"
    );

    // The resident design is untouched: passes mutate their working copy
    // only after the full sweep, never the input graph.
    let original = Design::Aes128.generate(DesignScale::Tiny);
    assert_eq!(bits(&design), bits(&original));
}

#[test]
fn cancellation_inside_a_parallel_sweep_reaches_the_caller_typed() {
    // aes128@Full is above the size gate, so at two threads its sweep
    // proposes on the caller and a pool helper at once, each chunk polling
    // the token on its own countdown; whichever participant sees it fire
    // first, the caller gets the typed error.
    let design = Design::Aes128.generate(DesignScale::Full);
    let flow = [Transform::Refactor];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    pool.install(|| {
        let mut ctx = PassContext::default();
        // Time whole runs, then give the next half of the faster one: the
        // propose phase is nearly all of a refactor pass, so the deadline
        // passes inside it.
        let mut whole = Duration::MAX;
        for _ in 0..2 {
            let start = Instant::now();
            let warm = ctx.run_flow(&design, &flow);
            whole = whole.min(start.elapsed());
            ctx.recycle(warm);
        }
        let token = CancelToken::with_deadline(whole / 2);
        let err = ctx
            .run_flow_cancellable(&design, &flow, &token)
            .expect_err("half the time of a run must cancel it");
        assert_eq!(err.reason, CancelReason::DeadlineExceeded);

        let reused = ctx.run_flow(&design, &flow);
        let fresh = PassContext::default().run_flow(&design, &flow);
        assert_eq!(
            bits(&reused),
            bits(&fresh),
            "a context cancelled mid-sweep must rerun like a fresh one"
        );
    });
}

#[test]
fn flow_runner_cancellation_keeps_qor_reproducible() {
    // A mapping cancelled on a context leaves the subject graph and the
    // context as they were: mapping the same graph again on that context
    // answers what a fresh `FlowRunner` run does.
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    let library = CellLibrary::nangate14();
    let params = MapperParams::default();
    let mut ctx = PassContext::default();
    let mut optimized = ctx.run_flow(&design, &FLOW);

    let token = CancelToken::with_deadline(Duration::ZERO);
    let err = try_map_with_ctx(&mut optimized, &library, params, &mut ctx, &token)
        .expect_err("zero budget must cancel the mapping");
    assert_eq!(err.reason, CancelReason::DeadlineExceeded);
    assert_eq!(
        ctx.timings().mapping.calls,
        0,
        "a cancelled mapping records nothing"
    );

    let reused = map_with_ctx(&mut optimized, &library, params, &mut ctx).qor();
    let fresh = FlowRunner::new()
        .with_verification(true)
        .run(&design, &FLOW);
    assert_eq!(reused, fresh.qor, "bit-identical QoR after cancellation");
    assert!(fresh.verified);
    assert!(
        verify_equivalence(&design, &optimized),
        "verification still passes on the graph the cancelled mapping saw"
    );
}

#[test]
fn never_token_changes_nothing() {
    // The plain entry points run under `CancelToken::never`; a live deadline
    // polls the clock at every checkpoint and must not perturb results.
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let mut ctx = PassContext::default();
    let hour = CancelToken::with_deadline(Duration::from_secs(3600));
    let armed = ctx
        .run_flow_cancellable(&design, &FLOW, &hour)
        .expect("an hour is enough");
    let plain = PassContext::default().run_flow(&design, &FLOW);
    assert_eq!(
        bits(&armed),
        bits(&plain),
        "an armed-but-quiet token must not perturb results"
    );
}
