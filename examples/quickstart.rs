//! Quickstart: run one synthesis flow on a benchmark design and print its QoR.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use circuits::{Design, DesignScale};
use flowgen::Flow;
use synth::{FlowRunner, Transform};

fn main() {
    // 1. Generate a benchmark design (the 64-bit ALU at a laptop-friendly size).
    let design = Design::Alu64.generate(DesignScale::Tiny);
    println!(
        "design: {} ({} AND nodes, depth {})",
        design.name(),
        design.num_ands(),
        design.depth()
    );

    // 2. Describe a synthesis flow — the classic "resyn"-style ordering.
    let flow = Flow::new(vec![
        Transform::Balance,
        Transform::Rewrite,
        Transform::Refactor,
        Transform::Balance,
        Transform::RewriteZ,
        Transform::RefactorZ,
    ]);
    println!("flow:   {flow}");

    // 3. Run it: apply every pass, map to the 14nm-like cell library, report QoR.
    let runner = FlowRunner::new().with_verification(true);
    let outcome = runner.run(&design, flow.transforms());
    println!("result: {}", outcome.qor);
    println!("optimized network: {}", outcome.optimized);
    println!("functionally verified: {}", outcome.verified);
    assert!(outcome.verified, "the flow changed the design's function");
}
