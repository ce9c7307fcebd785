//! Persistent QoR store demo: evaluate a batch, restart, evaluate again.
//!
//! ```text
//! cargo run --release --example qor_store -- /tmp/qor-store
//! ```
//!
//! The first run evaluates 16 random flows on the tiny ALU and appends them
//! to the store — a checksummed, segmented log under the given base path
//! (segment files `<base>.NNNNNN.seg`); running the same command again
//! answers every flow from the store without applying a single synthesis
//! pass.

use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine};
use flowgen::FlowSpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let store_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/qor-store".to_string());
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let engine = EvalEngine::new(EngineConfig {
        store_path: Some(store_path.clone().into()),
        ..EngineConfig::default()
    });

    let space = FlowSpace::new(6, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5708E);
    let flows = space.random_unique_flows(16, &mut rng);

    println!(
        "store: {store_path} ({} records loaded)",
        engine.store_len()
    );
    let qors = engine.evaluate_batch(&design, &flows);
    let best = qors
        .iter()
        .min_by(|a, b| a.area_um2.total_cmp(&b.area_um2))
        .expect("non-empty batch");
    println!(
        "evaluated {} flows on {}; best area {:.2} um^2",
        qors.len(),
        design.name(),
        best.area_um2
    );
    println!("engine: {}", engine.stats());
    if engine.stats().store_hits == flows.len() {
        println!("all flows served from the persistent store — zero passes applied");
    }
}
