//! Exploring the flow search space: counting (Remark 3) and QoR spread.
//!
//! Shows why exhaustive search is impossible (the space grows super-
//! exponentially) and why it matters (different orderings of the *same*
//! transformations give very different QoR).
//!
//! ```text
//! cargo run --release --example space_exploration
//! ```

use circuits::{Design, DesignScale};
use floweval::EvalEngine;
use flowgen::FlowSpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // Search-space sizes (Remark 3).
    println!("size of the m-repetition flow space f(n, L, m):");
    for m in 1..=4usize {
        let space = FlowSpace::new(6, m);
        println!(
            "  n = 6, m = {m}, L = {:>2}: {:>22} flows",
            space.flow_length(),
            space.num_complete_flows()
        );
    }

    // QoR spread of a handful of random flows on one design.
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let space = FlowSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let flows = space.random_unique_flows(8, &mut rng);
    let engine = EvalEngine::default();
    let qors = engine.evaluate_batch(&design, &flows);
    println!("\nQoR of 8 random 24-step flows on {}:", design.name());
    for (flow, qor) in flows.iter().zip(&qors) {
        println!(
            "  area {:>8.2} um^2  delay {:>7.1} ps   {}",
            qor.area_um2, qor.delay_ps, flow
        );
    }
    println!("\nengine: {}", engine.stats());
    println!("Same transformations, different order, different QoR — the paper's motivation.");
}
