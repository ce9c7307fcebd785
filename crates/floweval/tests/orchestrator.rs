//! `EvalEngine::search_flows` contract tests: the label set, the QoR bits
//! and the counters equal per-design `evaluate_batch` over the same flow
//! list at every worker count, and the budgets stop exactly where they say.

use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine, EvalStats, SearchConfig, SearchLabel};
use flowgen::{Flow, FlowSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{Qor, Transform};

fn designs() -> Vec<aig::Aig> {
    vec![
        Design::Alu64.generate(DesignScale::Tiny),
        Design::Montgomery64.generate(DesignScale::Tiny),
        Design::Aes128.generate(DesignScale::Tiny),
    ]
}

/// `count` distinct flows of the paper's space, drawn from `seed`.
fn paper_flows(seed: u64, count: usize) -> Vec<Flow> {
    FlowSpace::paper().random_unique_flows(count, &mut ChaCha8Rng::seed_from_u64(seed))
}

fn qor_bits(q: &Qor) -> (u64, u64, usize, usize, u32) {
    (
        q.area_um2.to_bits(),
        q.delay_ps.to_bits(),
        q.gates,
        q.and_nodes,
        q.depth,
    )
}

/// Reference labels: one fresh engine, per-design `evaluate_batch`.
fn reference_labels<F: AsRef<[Transform]>>(designs: &[aig::Aig], flows: &[F]) -> Vec<Vec<Qor>> {
    let engine = EvalEngine::new(EngineConfig::default());
    designs
        .iter()
        .map(|d| engine.evaluate_batch(d, flows))
        .collect()
}

fn with_workers(workers: usize) -> SearchConfig {
    SearchConfig {
        workers,
        ..SearchConfig::default()
    }
}

/// Every label carries the reference's QoR bits for its `(design, flow)`.
fn assert_labels_match(labels: &[SearchLabel], reference: &[Vec<Qor>]) {
    for l in labels {
        assert_eq!(
            qor_bits(&l.qor),
            qor_bits(&reference[l.design][l.flow]),
            "design={} flow={}: QoR bits diverge",
            l.design,
            l.flow
        );
    }
}

#[test]
fn search_is_bit_identical_across_worker_counts() {
    let designs = designs();
    let flows = paper_flows(0xD5, 12);
    let reference = reference_labels(&designs, &flows);
    for workers in [1, 2, 4, 8] {
        let engine = EvalEngine::new(EngineConfig::default());
        let outcome = engine.search_flows(&designs, &flows, &with_workers(workers));
        let order: Vec<_> = outcome.labels.iter().map(|l| (l.design, l.flow)).collect();
        let canonical = (0..designs.len()).flat_map(|d| (0..flows.len()).map(move |f| (d, f)));
        assert_eq!(order, canonical.collect::<Vec<_>>(), "complete, in order");
        assert_labels_match(&outcome.labels, &reference);
    }
}

#[test]
fn search_serves_repeats_from_the_store() {
    let designs = designs();
    let flows = paper_flows(3, 6);
    let engine = EvalEngine::new(EngineConfig::default());
    let first = engine.search_flows(&designs, &flows, &SearchConfig::default());
    assert_eq!(first.report.store_hits, 0);
    assert_eq!(first.report.evaluated, designs.len() * flows.len());
    let second = engine.search_flows(&designs, &flows, &SearchConfig::default());
    assert_eq!(second.report.evaluated, 0, "all jobs answered by the store");
    assert_eq!(second.report.store_hits, designs.len() * flows.len());
    assert!(second.labels.iter().all(|l| l.from_store));
    for (a, b) in first.labels.iter().zip(&second.labels) {
        assert_eq!(qor_bits(&a.qor), qor_bits(&b.qor));
    }
}

#[test]
fn search_respects_the_eval_budget() {
    let designs = designs();
    let flows = paper_flows(11, 8);
    let reference = reference_labels(&designs, &flows);
    for workers in [1, 2, 4] {
        let engine = EvalEngine::new(EngineConfig::default());
        let config = SearchConfig {
            max_evals: Some(5),
            ..with_workers(workers)
        };
        let outcome = engine.search_flows(&designs, &flows, &config);
        assert!(outcome.report.eval_budget_hit);
        assert_eq!(outcome.report.evaluated, 5, "exactly the budget");
        assert_eq!(outcome.report.eval.flows_evaluated, 5);
        assert_eq!(outcome.labels.len(), 5);
        assert_labels_match(&outcome.labels, &reference);
    }
}

/// A spent budget — no evaluations, or no time — still returns what the
/// store knows, evaluates nothing and says which budget stopped the run.
#[test]
fn spent_budgets_still_return_store_hits() {
    let designs = designs();
    let flows = paper_flows(11, 8);
    let engine = EvalEngine::new(EngineConfig::default());
    let known = vec![engine.evaluate_batch(&designs[0], &flows[..3])];
    for (max_evals, max_wall_s) in [(Some(0), None), (None, Some(0.0))] {
        let config = SearchConfig {
            max_evals,
            max_wall_s,
            ..SearchConfig::default()
        };
        let before = engine.stats();
        let outcome = engine.search_flows(&designs, &flows, &config);
        let report = &outcome.report;
        assert_eq!(report.eval_budget_hit, max_evals.is_some());
        assert_eq!(report.deadline_hit, max_wall_s.is_some());
        assert_eq!((report.store_hits, report.evaluated), (3, 0));
        assert_eq!(engine.stats().since(&before).flows_evaluated, 0);
        assert!(report.trajectory.is_empty());
        assert_eq!(outcome.labels.len(), 3);
        assert!(outcome.labels.iter().all(|l| l.from_store));
        assert_labels_match(&outcome.labels, &known);
    }
}

#[test]
fn search_with_verification_passes() {
    let designs = vec![Design::Alu64.generate(DesignScale::Tiny)];
    let flows = paper_flows(21, 4);
    let engine = EvalEngine::new(EngineConfig {
        verify: true,
        ..EngineConfig::default()
    });
    let outcome = engine.search_flows(&designs, &flows, &SearchConfig::default());
    assert_eq!(outcome.report.evaluated, 4);
}

#[test]
fn search_reports_prefix_reuse() {
    // A prefix expansion shares its prefix maximally: the search must apply
    // far fewer passes than requested.
    let designs = vec![Design::Alu64.generate(DesignScale::Tiny)];
    let flows: Vec<Vec<Transform>> = Transform::ALL
        .iter()
        .flat_map(|&a| Transform::ALL.map(|b| vec![Transform::Balance, Transform::Rewrite, a, b]))
        .collect();
    assert_eq!(flows.len(), 36);
    let engine = EvalEngine::new(EngineConfig::default());
    let outcome = engine.search_flows(&designs, &flows, &with_workers(2));
    assert_eq!(outcome.report.evaluated, 36);
    let eval = outcome.report.eval;
    assert!(
        eval.passes_applied < eval.passes_requested,
        "prefix reuse must avoid passes: applied {} of {}",
        eval.passes_applied,
        eval.passes_requested
    );
    assert!(eval.passes_memoized > 0);
    assert_eq!(
        eval.passes_applied + eval.passes_memoized,
        eval.passes_requested
    );
    // And it is still bit-identical to the batch engine.
    assert_labels_match(&outcome.labels, &reference_labels(&designs, &flows));
}

/// What a run is compared on: every counter but wall time and `trie_hits`,
/// which depends on how a flow list is cut into calls.
fn counters(stats: EvalStats) -> EvalStats {
    EvalStats {
        wall_s: 0.0,
        trie_hits: 0,
        ..stats
    }
}

/// A cache budget of a few graphs: most states are evicted and re-applied,
/// so the counts depend on the order work is committed in — which must not
/// depend on the thread count.
fn tight_budget(designs: &[aig::Aig]) -> EngineConfig {
    EngineConfig {
        cache_budget_aig_nodes: 4 * designs.iter().map(aig::Aig::len).max().unwrap(),
        ..EngineConfig::default()
    }
}

#[test]
fn search_counters_equal_the_batch_path_at_any_worker_count() {
    // 40 flows go to the batch path in one call per design, exactly as the
    // reference makes them.  Some labels are known beforehand, so store hits
    // are counted too.
    let designs = designs();
    let flows = paper_flows(5, 40);
    let tight = tight_budget(&designs);
    let primed = |config: &EngineConfig| {
        let engine = EvalEngine::new(config.clone());
        engine.evaluate_batch(&designs[1], &flows[..7]);
        engine
    };
    let batch_counters = |config: &EngineConfig| {
        let engine = primed(config);
        let before = engine.stats();
        for design in &designs {
            engine.evaluate_batch(design, &flows);
        }
        engine.stats().since(&before)
    };
    let expected = batch_counters(&tight);
    assert_eq!(expected.store_hits, 7);
    assert!(
        expected.passes_applied > batch_counters(&EngineConfig::default()).passes_applied,
        "the budget must force re-application"
    );
    for workers in [1, 2, 4, 1] {
        let engine = primed(&tight);
        let before = engine.stats();
        let report = engine
            .search_flows(&designs, &flows, &with_workers(workers))
            .report;
        assert_eq!(report.jobs, report.eval.flows_requested);
        assert_eq!(
            counters(report.eval),
            counters(expected),
            "workers={workers}: the report's counters"
        );
        assert_eq!(
            counters(engine.stats().since(&before)),
            counters(expected),
            "workers={workers}: what the engine accumulated"
        );
    }
}

#[test]
fn search_over_several_chunks_is_deterministic_and_tracks_progress() {
    // A list long enough to be cut into several calls to the batch path:
    // under eviction what is re-applied then also depends on the cut, but
    // still not on the threads.  Each call is one trajectory point.
    let designs = [Design::Aes128.generate(DesignScale::Tiny)];
    let flows = paper_flows(6, 100);
    let runs = [1, 2, 4].map(|workers| {
        let engine = EvalEngine::new(tight_budget(&designs));
        let report = engine
            .search_flows(&designs, &flows, &with_workers(workers))
            .report;
        let trajectory = &report.trajectory;
        assert!(trajectory.len() > 1 && trajectory.len() <= 120);
        assert!(trajectory.windows(2).all(|w| w[0].t_s <= w[1].t_s));
        assert!(trajectory
            .windows(2)
            .all(|w| w[0].completed < w[1].completed));
        assert_eq!(trajectory.last().unwrap().completed, report.evaluated);
        assert_eq!(report.evaluated, 100);
        counters(report.eval)
    });
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}
