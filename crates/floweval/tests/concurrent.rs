//! Multi-threaded integration tests: many threads hammering one shared
//! engine — the state graph and the persistent QoR store — must produce
//! bit-identical results to a single-threaded reference run, and a store
//! written under contention must not lose a single record.

use std::sync::Arc;

use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{PassContext, Qor, Transform};

/// Samples `count` distinct shuffled 1-repetition flows over the full
/// transform set (6 steps each).
fn random_flows(count: usize, seed: u64) -> Vec<Vec<Transform>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut flows = Vec::with_capacity(count);
    while flows.len() < count {
        let mut flow: Vec<Transform> = Transform::ALL.to_vec();
        flow.shuffle(&mut rng);
        if seen.insert(flow.clone()) {
            flows.push(flow);
        }
    }
    flows
}

/// Room for a handful of Tiny-design states only: forces mid-flight
/// eviction (and with it recomputation of known edges) on top of the lock
/// contention, the two races worth having.
const TIGHT_BUDGET: usize = 4_000;

fn contended_config(store: Option<std::path::PathBuf>) -> EngineConfig {
    EngineConfig {
        store_path: store,
        cache_budget_aig_nodes: TIGHT_BUDGET,
        ..EngineConfig::default()
    }
}

#[test]
fn hammered_engine_is_bit_identical_to_single_threaded_reference() {
    let designs: Vec<aig::Aig> = [Design::Alu64, Design::Montgomery64]
        .iter()
        .map(|d| d.generate(DesignScale::Tiny))
        .collect();
    let flows = random_flows(6, 0xC0C0);

    // Single-threaded reference, fresh engine per design: the ground truth.
    let mut expected: Vec<Vec<Qor>> = Vec::new();
    for design in &designs {
        let reference = EvalEngine::new(EngineConfig::default());
        expected.push(reference.evaluate_batch(design, &flows));
    }

    let engine = Arc::new(EvalEngine::new(contended_config(None)));
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..6 {
            let engine = Arc::clone(&engine);
            let designs = &designs;
            let flows = &flows;
            handles.push(scope.spawn(move || {
                // Even workers batch, odd workers walk flow-by-flow through
                // the service path; both interleave across all designs.
                let mut got: Vec<(usize, Vec<Qor>)> = Vec::new();
                for (d, design) in designs.iter().enumerate() {
                    let qors = if worker % 2 == 0 {
                        engine.evaluate_batch(design, flows)
                    } else {
                        let mut pctx = PassContext::default();
                        flows
                            .iter()
                            .map(|flow| engine.evaluate_flow_with_ctx(design, flow, &mut pctx))
                            .collect()
                    };
                    got.push((d, qors));
                }
                got
            }));
        }
        for handle in handles {
            for (d, qors) in handle.join().expect("worker thread panicked") {
                assert_eq!(
                    qors, expected[d],
                    "concurrent results diverged from reference on design {d}"
                );
            }
        }
    });

    let stats = engine.stats();
    assert_eq!(
        stats.flows_requested,
        6 * designs.len() * flows.len(),
        "every request must be accounted for"
    );
    // The one budget held while states were published from every thread.
    assert!(engine.cache_summary().cached_aig_nodes <= TIGHT_BUDGET);
}

#[test]
fn contended_store_writes_are_never_lost() {
    let dir = std::env::temp_dir().join(format!("floweval-concurrent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let store_path = dir.join("qor.jsonl");
    let _ = std::fs::remove_file(&store_path);

    let designs: Vec<aig::Aig> = [Design::Alu64, Design::Aes128]
        .iter()
        .map(|d| d.generate(DesignScale::Tiny))
        .collect();
    let flows = random_flows(6, 0xD0D0);

    {
        let engine = Arc::new(EvalEngine::new(contended_config(Some(store_path.clone()))));
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let engine = Arc::clone(&engine);
                let designs = &designs;
                let flows = &flows;
                scope.spawn(move || {
                    let mut pctx = PassContext::default();
                    // Each worker walks the flows in a rotated order so
                    // store inserts for the same record race across threads.
                    for (d, design) in designs.iter().enumerate() {
                        for i in 0..flows.len() {
                            let flow = &flows[(i + worker + d) % flows.len()];
                            engine.evaluate_flow_with_ctx(design, flow, &mut pctx);
                        }
                    }
                });
            }
        });
        engine.checkpoint_store().expect("checkpoint");
    }

    // Reopen the store cold: every (design, flow) record must be present and
    // answer without a single pass being applied.
    let engine = EvalEngine::new(contended_config(Some(store_path.clone())));
    assert_eq!(
        engine.store_len(),
        designs.len() * flows.len(),
        "records lost or duplicated under write contention"
    );
    for design in &designs {
        engine.evaluate_batch(design, &flows);
    }
    let stats = engine.stats();
    assert_eq!(
        stats.store_hits,
        designs.len() * flows.len(),
        "warm store must answer every flow"
    );
    assert_eq!(stats.passes_applied, 0, "no re-evaluation on a warm store");

    std::fs::remove_dir_all(&dir).ok();
}
