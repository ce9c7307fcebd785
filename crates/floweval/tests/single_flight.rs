//! A caller that waits for work another caller has claimed in the state
//! graph stays cancellable: its deadline fires while the claimer is stalled
//! (by a failpoint) inside the pass, nothing is left claimed, and both
//! contexts and the engine keep working.
//!
//! Compiled only with `--features failpoints`; one test, because the
//! failpoint registry is process-global.
#![cfg(feature = "failpoints")]

use std::time::{Duration, Instant};

use circuits::{Design, DesignScale};
use flow_core::{fail, CancelReason, CancelToken};
use floweval::EvalEngine;
use synth::{FlowRunner, PassContext, Transform};

#[test]
fn a_caller_waiting_on_claimed_work_honours_its_deadline() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    // Same root state, different store key: the second caller cannot be
    // answered by the store and needs exactly the edge the first one holds.
    let mut twin = design.clone();
    let inputs = twin.input_lits();
    twin.and(inputs[0], !inputs[1]);
    let flow = [Transform::Balance, Transform::Rewrite];
    let engine = EvalEngine::default();

    fail::teardown();
    fail::cfg("pass.apply", "1*delay(1500)").unwrap();
    std::thread::scope(|scope| {
        let claimer = scope.spawn(|| {
            let mut pctx = PassContext::default();
            engine.evaluate_flow_with_ctx(&design, &flow, &mut pctx)
        });
        // The claimer is inside its (stalled) first pass once the point fired.
        while fail::triggers("pass.apply") == 0 {
            std::thread::yield_now();
        }
        let mut pctx = PassContext::default();
        let start = Instant::now();
        let cancel = CancelToken::with_deadline(Duration::from_millis(100));
        let twin_fp = floweval::fingerprint_design(&twin);
        let waited = engine.try_evaluate_flow_with_ctx(&twin, twin_fp, &flow, &mut pctx, &cancel);
        let cancelled = waited.expect_err("the claimer is stalled for 1.5 s");
        assert_eq!(cancelled.reason, CancelReason::DeadlineExceeded);
        assert!(
            start.elapsed() < Duration::from_millis(1000),
            "the waiter outlived its deadline by the claimer's stall"
        );
        assert_eq!(engine.stats().passes_applied, 0, "the waiter ran nothing");

        let expected = FlowRunner::new().run(&design, &flow).qor;
        assert_eq!(claimer.join().expect("claimer"), expected);
        // Nothing stays claimed and the cancelled context is reusable: the
        // same request now finds everything in the graph.
        let again = engine.evaluate_flow_with_ctx(&twin, &flow, &mut pctx);
        assert_eq!(again, expected);
        assert_eq!(engine.stats().passes_applied, flow.len());
    });
    fail::teardown();
}
