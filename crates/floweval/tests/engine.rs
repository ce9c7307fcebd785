//! Engine-level integration tests: cached and uncached evaluation must be
//! bit-identical, repeated batches must hit the caches, and state-graph
//! evaluation must apply strictly fewer passes than running each flow alone.

use std::time::Duration;

use circuits::{Design, DesignScale};
use flow_core::{CancelReason, CancelToken};
use floweval::{fingerprint_design, EngineConfig, EvalEngine};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{FlowRunner, PassContext, Qor, Transform};

/// Builds a compact but non-trivial design (a few hundred AND nodes) so the
/// heavy cache tests measure engine behaviour, not pass runtime.
fn small_design() -> aig::Aig {
    let mut g = aig::Aig::with_name("small_mix");
    let inputs: Vec<aig::Lit> = (0..12).map(|i| g.add_input(format!("x{i}"))).collect();
    let mut layer = inputs.clone();
    let mut state = 0x2468_ACE0_1357_9BDFu64;
    for _ in 0..6 {
        let mut next = Vec::with_capacity(layer.len());
        for w in 0..layer.len() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = layer[w];
            let b = layer[(w + 1 + (state >> 32) as usize % (layer.len() - 1)) % layer.len()];
            let c = inputs[(state >> 8) as usize % inputs.len()];
            next.push(match state % 4 {
                0 => g.xor(a, b),
                1 => g.mux(c, a, b),
                2 => g.and(a, !b),
                _ => {
                    let ab = g.and(a, b);
                    g.or(ab, c)
                }
            });
        }
        layer = next;
    }
    g.add_outputs("y", &layer[..8]);
    g
}

/// Samples `count` distinct random m-repetition flows (n = 6, m = `reps`),
/// mirroring the paper's search space without depending on `flowgen`.
fn random_flows(count: usize, reps: usize, seed: u64) -> Vec<Vec<Transform>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut flows = Vec::with_capacity(count);
    while flows.len() < count {
        let mut flow: Vec<Transform> = Transform::ALL
            .iter()
            .flat_map(|&t| std::iter::repeat_n(t, reps))
            .collect();
        flow.shuffle(&mut rng);
        if seen.insert(flow.clone()) {
            flows.push(flow);
        }
    }
    flows
}

#[test]
fn engine_matches_flow_runner_bit_for_bit() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let runner = FlowRunner::new();
    let engine = EvalEngine::default();
    let flows = random_flows(12, 1, 0xBEEF);
    let naive: Vec<Qor> = flows.iter().map(|f| runner.run(&design, f).qor).collect();
    let cached: Vec<Qor> = engine.evaluate_batch(&design, &flows);
    assert_eq!(naive.len(), cached.len());
    for (i, (a, b)) in naive.iter().zip(&cached).enumerate() {
        assert_eq!(
            a, b,
            "flow {i} diverged between naive and engine evaluation"
        );
    }
}

#[test]
fn second_pass_is_at_least_90_percent_cache_hits() {
    let design = small_design();
    let engine = EvalEngine::default();
    let flows = random_flows(25, 1, 0xCAFE);

    let first = engine.evaluate_batch(&design, &flows);
    let after_first = engine.stats();
    assert_eq!(after_first.store_hits, 0, "fresh engine cannot hit");

    let second = engine.evaluate_batch(&design, &flows);
    assert_eq!(first, second, "identical QoR vectors across passes");

    let delta_hits = engine.stats().store_hits - after_first.store_hits;
    let hit_rate = delta_hits as f64 / flows.len() as f64;
    assert!(hit_rate >= 0.9, "second pass hit rate {hit_rate} < 0.9");
    assert_eq!(
        engine.stats().passes_applied,
        after_first.passes_applied,
        "second pass must apply zero passes"
    );
}

#[test]
fn trie_applies_strictly_fewer_passes_than_naive_on_200_flows() {
    let design = small_design();
    let engine = EvalEngine::default();
    // m-repetition flows over the full transform set: 6 × 2 = 12 steps each.
    let flows = random_flows(200, 2, 0xF10);
    let naive_passes: usize = flows.iter().map(Vec::len).sum();
    assert_eq!(naive_passes, 200 * 12);

    let qors = engine.evaluate_batch(&design, &flows);
    assert_eq!(qors.len(), 200);
    let stats = engine.stats();
    assert_eq!(stats.passes_requested, naive_passes);
    assert!(
        stats.passes_applied < naive_passes,
        "trie evaluation applied {} passes, naive would apply {naive_passes}",
        stats.passes_applied
    );
    assert_eq!(stats.passes_avoided(), naive_passes - stats.passes_applied);
}

#[test]
fn persistent_store_survives_engine_restarts() {
    let dir = std::env::temp_dir().join(format!("floweval-engine-{}", std::process::id()));
    let store_path = dir.join("qor.jsonl");
    let _ = std::fs::remove_file(&store_path);
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let flows = random_flows(8, 1, 0xD15C);

    let config = EngineConfig {
        store_path: Some(store_path),
        ..EngineConfig::default()
    };
    let first = {
        let engine = EvalEngine::new(config.clone());
        engine.evaluate_batch(&design, &flows)
    };
    let engine = EvalEngine::new(config);
    let second = engine.evaluate_batch(&design, &flows);
    assert_eq!(
        first, second,
        "restarted engine reproduces results from disk"
    );
    let stats = engine.stats();
    assert_eq!(
        stats.store_hits,
        flows.len(),
        "all answered from the persistent store"
    );
    assert_eq!(stats.passes_applied, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_budget_keeps_results_correct() {
    let design = small_design();
    // A budget too small to cache anything beyond the root still evaluates
    // correctly — it only loses speed.
    let tight = EvalEngine::new(EngineConfig {
        cache_budget_aig_nodes: 1,
        ..EngineConfig::default()
    });
    let roomy = EvalEngine::default();
    let flows = random_flows(20, 1, 0xB0B);
    assert_eq!(
        tight.evaluate_batch(&design, &flows),
        roomy.evaluate_batch(&design, &flows)
    );
    // With nothing resident, the tight engine re-ran edges it already knew —
    // each re-run is where the purity guard compares the recomputed state
    // with the recorded one.
    assert_eq!(tight.cache_summary().cached_aig_nodes, 0);
    assert!(tight.stats().passes_applied > roomy.stats().passes_applied);
}

#[test]
fn verification_mode_keeps_qor_bit_identical() {
    let design = small_design();
    let engine = EvalEngine::new(EngineConfig {
        verify: true,
        ..EngineConfig::default()
    });
    let flows = random_flows(6, 1, 0xFACE);
    // Correct passes must verify cleanly (a failure panics) and still give
    // bit-identical QoR to an unverified engine.
    let verified = engine.evaluate_batch(&design, &flows);
    let plain = EvalEngine::default().evaluate_batch(&design, &flows);
    assert_eq!(verified, plain);
}

#[test]
fn duplicate_and_empty_flows_are_handled() {
    let design = small_design();
    let engine = EvalEngine::default();
    let runner = FlowRunner::new();
    let flows = vec![
        vec![],
        vec![Transform::Balance],
        vec![],
        vec![Transform::Balance],
    ];
    let qors = engine.evaluate_batch(&design, &flows);
    assert_eq!(qors[0], qors[2]);
    assert_eq!(qors[1], qors[3]);
    assert_eq!(qors[0], runner.run(&design, &[]).qor);
    assert_eq!(qors[1], runner.run(&design, &[Transform::Balance]).qor);
}

#[test]
fn cancelled_request_stores_nothing_and_its_context_answers_next() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let flow = [Transform::Balance, Transform::Rewrite, Transform::RefactorZ];
    let engine = EvalEngine::default();
    let mut pctx = PassContext::default();
    let stored = engine.store_len();

    let expired = CancelToken::with_deadline(Duration::ZERO);
    let design_fp = fingerprint_design(&design);
    let err = engine
        .try_evaluate_flow_with_ctx(&design, design_fp, &flow, &mut pctx, &expired)
        .expect_err("an expired token must cancel the request");
    assert_eq!(err.reason, CancelReason::DeadlineExceeded);
    assert_eq!(
        engine.store_len(),
        stored,
        "a cancelled request stores nothing"
    );

    let qor = engine.evaluate_flow_with_ctx(&design, &flow, &mut pctx);
    assert_eq!(qor, FlowRunner::new().run(&design, &flow).qor);
    assert_eq!(engine.store_len(), stored + 1);
}
