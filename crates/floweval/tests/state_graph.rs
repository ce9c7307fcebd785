//! State-graph behaviour of the evaluation engine: content-addressed sharing
//! must never change a QoR bit, must apply each distinct `(graph, transform)`
//! edge exactly once with counters that do not depend on the thread count,
//! must serve every caller (single flow, batch, search) from one shared
//! graph, and must keep residency inside the one configured budget.

use std::collections::{HashMap, HashSet};

use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine, EvalStats, SearchConfig};
use flowgen::FlowSpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{CellLibrary, FlowRunner, MapperParams, PassContext, Qor, Transform};

fn qor_bits(q: &Qor) -> (u64, u64, usize, usize, u32) {
    (
        q.area_um2.to_bits(),
        q.delay_ps.to_bits(),
        q.gates,
        q.and_nodes,
        q.depth,
    )
}

/// Everything in `EvalStats` that must repeat exactly (no wall time).
fn counters(s: &EvalStats) -> [usize; 9] {
    [
        s.flows_requested,
        s.store_hits,
        s.flows_evaluated,
        s.passes_requested,
        s.passes_applied,
        s.passes_memoized,
        s.trie_hits,
        s.mappings_run,
        s.mappings_memoized,
    ]
}

/// `count` distinct flows of the paper's space, drawn from `seed`.
fn sample(seed: u64, count: usize) -> Vec<Vec<Transform>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let flows = FlowSpace::paper().random_unique_flows(count, &mut rng);
    flows.iter().map(|f| f.transforms().to_vec()).collect()
}

/// `count` paper-space flows with, mixed in, the empty flow, a duplicate
/// next to its original and another one at the far end.
fn paper_flows(seed: u64, count: usize) -> Vec<Vec<Transform>> {
    let mut flows = sample(seed, count - 3);
    flows.insert(1, Vec::new());
    flows.insert(3, flows[0].clone());
    flows.push(flows[2].clone());
    flows
}

/// `base` plus `k` AND gates nothing reads: a different design fingerprint
/// (so the flow-keyed store cannot answer) whose cleaned form — the root
/// state — is `base`'s.
fn with_dangling(base: &aig::Aig, k: usize) -> aig::Aig {
    let mut g = base.clone();
    let inputs = g.input_lits();
    for i in 0..k {
        g.and(inputs[i], !inputs[i + 1]);
    }
    g
}

/// `base` with one more output, the AND of the `k`-th input pair: a design
/// the engine has never seen, with a root state of its own (the shape of
/// `flowbench`'s `fresh` requests).
fn fresh_variant(base: &aig::Aig, k: usize) -> aig::Aig {
    let mut g = base.clone();
    let inputs = g.input_lits();
    let pairs: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|i| (i + 1..inputs.len()).map(move |j| (i, j)))
        .collect();
    let (i, j) = pairs[k / 4];
    let a = inputs[i].with_complement(k % 2 == 1);
    let b = inputs[j].with_complement(k % 4 >= 2);
    let extra = g.and(a, b);
    g.add_output(format!("fresh{k}"), extra);
    g
}

fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(op)
}

/// Evaluates `flows` in two batches (like the framework's labelling rounds:
/// the second meets the states the first left behind) on a fresh engine.
fn two_batches(
    design: &aig::Aig,
    flows: &[Vec<Transform>],
    threads: usize,
) -> (Vec<Qor>, EvalEngine) {
    let engine = EvalEngine::default();
    let (first, second) = flows.split_at(flows.len() * 2 / 3);
    let mut qors = with_threads(threads, || engine.evaluate_batch(design, first));
    qors.extend(with_threads(threads, || {
        engine.evaluate_batch(design, second)
    }));
    (qors, engine)
}

/// The differential contract on one design: one and two threads give the
/// same QoR bits *and* the same counters, the counters add up, and the
/// sampled flows match the slow oracle.  Returns the one-thread run.
fn assert_thread_count_invariant(
    design: &aig::Aig,
    flows: &[Vec<Transform>],
    oracle_samples: &[usize],
) -> (Vec<Qor>, EvalEngine) {
    let (one, engine) = two_batches(design, flows, 1);
    let (two, other) = two_batches(design, flows, 2);
    let (stats_one, stats_two) = (engine.stats(), other.stats());
    assert_eq!(
        one.iter().map(qor_bits).collect::<Vec<_>>(),
        two.iter().map(qor_bits).collect::<Vec<_>>(),
        "QoR depends on the thread count"
    );
    assert_eq!(
        counters(&stats_one),
        counters(&stats_two),
        "counters depend on the thread count"
    );
    // The far duplicate arrives in the second batch: a store hit.
    assert_eq!(stats_one.store_hits, 1);
    let last = flows.last().expect("flows");
    assert_eq!(
        stats_one.passes_applied + stats_one.passes_memoized,
        stats_one.passes_requested - last.len(),
        "every pass of an evaluated flow is applied or memoized"
    );
    assert_eq!(
        stats_one.mappings_run + stats_one.mappings_memoized,
        stats_one.flows_evaluated
    );
    let runner = FlowRunner::new();
    for &i in oracle_samples {
        assert_eq!(
            qor_bits(&one[i]),
            qor_bits(&runner.run(design, &flows[i]).qor),
            "flow {i} diverged from FlowRunner::run"
        );
    }
    (one, engine)
}

// `FlowRunner::run` unoptimised costs 0.1–2 s per flow on these designs, so
// the oracle is sampled: the empty flow (1), a duplicate (3) and a spread.

#[test]
fn diverging_flows_match_the_oracle_at_any_thread_count() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let flows = paper_flows(0x5A, 60);
    let samples: Vec<usize> = (0..flows.len()).step_by(6).chain([1, 3]).collect();
    assert_thread_count_invariant(&design, &flows, &samples);
}

#[test]
fn partly_converging_flows_match_the_oracle_at_any_thread_count() {
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    assert_thread_count_invariant(&design, &paper_flows(0x5B, 18), &[1, 3, 10]);
}

#[test]
fn each_distinct_edge_is_applied_once_and_known_graphs_cost_nothing() {
    let design = Design::Aes128.generate(DesignScale::Tiny);
    // Half-length flows: unoptimised, one pass on these 9 228 ANDs is 75 ms.
    let mut flows = paper_flows(9, 6);
    flows.iter_mut().for_each(|flow| flow.truncate(12));

    // Independent count: apply every pass of every distinct flow for real,
    // keyed by the full graph content, and collect the (graph, transform)s.
    let content = |g: &aig::Aig| -> Vec<u32> {
        let mut words = vec![g.len() as u32, g.num_inputs() as u32];
        for id in g.node_ids() {
            match g.node(id).fanins() {
                Some((a, b)) => words.extend([a.raw(), b.raw()]),
                None => words.push(u32::MAX),
            }
        }
        words.extend(g.outputs().iter().map(|o| o.raw()));
        words
    };
    let mut pctx = PassContext::default();
    let mut edges: HashSet<(Vec<u32>, Transform)> = HashSet::new();
    let mut terminals: HashSet<Vec<u32>> = HashSet::new();
    let mut oracle: HashMap<&[Transform], Qor> = HashMap::new();
    for flow in &flows {
        if oracle.contains_key(flow.as_slice()) {
            continue;
        }
        // What `FlowRunner::run` does, one observable step at a time.
        let mut g = design.cleanup();
        for &t in flow {
            edges.insert((content(&g), t));
            pctx.apply(t, &mut g);
        }
        terminals.insert(content(&g));
        let qor = synth::map_qor(&g, &CellLibrary::nangate14(), MapperParams::default());
        oracle.insert(flow, qor);
    }

    let (first, engine) = assert_thread_count_invariant(&design, &flows, &[]);
    for (flow, qor) in flows.iter().zip(&first) {
        assert_eq!(qor_bits(qor), qor_bits(&oracle[flow.as_slice()]));
    }
    let stats = engine.stats();
    assert_eq!(stats.passes_applied, edges.len(), "one pass per edge");
    assert_eq!(stats.mappings_run, terminals.len(), "one mapping per graph");
    assert!(
        stats.passes_applied * 2 < stats.passes_requested,
        "flows converge: applied {} of {}",
        stats.passes_applied,
        stats.passes_requested
    );

    // The same flows on a design the store has never seen but whose cleaned
    // form is the same graph: the state graph answers everything.
    let twin = with_dangling(&design, 1);
    assert_ne!(
        floweval::fingerprint_design(&twin),
        floweval::fingerprint_design(&design)
    );
    assert_eq!(engine.evaluate_batch(&twin, &flows), first);
    let delta = engine.stats().since(&stats);
    assert_eq!(delta.store_hits, 0, "the flow-keyed store cannot help");
    assert_eq!((delta.passes_applied, delta.mappings_run), (0, 0));
    assert_eq!(delta.passes_memoized, delta.passes_requested);
    assert_eq!(delta.mappings_memoized, flows.len());
    // Every flow but the empty one starts below the root.
    assert_eq!(delta.trie_hits, flows.len() - 1);
}

#[test]
fn single_flow_batch_and_search_share_one_graph() {
    let base = Design::Montgomery64.generate(DesignScale::Tiny);
    let flows = sample(4, 6);
    let engine = EvalEngine::default();

    // First caller: the request path, one flow at a time.
    let mut pctx = PassContext::default();
    let reference: Vec<Qor> = flows
        .iter()
        .map(|flow| engine.evaluate_flow_with_ctx(&base, flow, &mut pctx))
        .collect();
    let paid = engine.stats();
    assert!(paid.passes_applied > 0 && paid.mappings_run > 0);

    // Later callers bring designs with new fingerprints (store misses) that
    // clean up to the same root: they must agree bit for bit and reuse the
    // first caller's states instead of running anything.
    let fingerprints: HashSet<String> = (0..5)
        .map(|k| floweval::fingerprint_design(&with_dangling(&base, k)).to_string())
        .collect();
    assert_eq!(
        fingerprints.len(),
        5,
        "five designs as far as the store knows"
    );
    let batch = engine.evaluate_batch(&with_dangling(&base, 1), &flows);
    assert_eq!(batch, reference);
    for (k, workers) in [1, 2, 4].into_iter().enumerate() {
        let config = SearchConfig {
            workers,
            ..SearchConfig::default()
        };
        let outcome = engine.search_flows(&[with_dangling(&base, 2 + k)], &flows, &config);
        let labels: Vec<Qor> = outcome.labels.iter().map(|l| l.qor).collect();
        assert_eq!(labels, reference, "search with {workers} workers diverged");
        assert_eq!(outcome.report.evaluated, flows.len());
        assert_eq!(outcome.report.eval.passes_applied, 0);
    }
    let total = engine.stats();
    assert_eq!(total.store_hits, 0);
    assert_eq!(total.passes_applied, paid.passes_applied);
    assert_eq!(total.mappings_run, paid.mappings_run);
    assert_eq!(
        total.mappings_memoized - paid.mappings_memoized,
        4 * flows.len()
    );
}

#[test]
fn fresh_designs_do_not_accumulate_past_the_budget() {
    // PR 14's first finding: the request path kept every design it had ever
    // seen.  300 never-seen designs must leave the engine inside its one
    // budget, with bounded metadata.
    const BUDGET: usize = 6_000;
    let base = Design::Alu64.generate(DesignScale::Tiny);
    assert!(base.len() * 4 < BUDGET, "a few states fit");
    let engine = EvalEngine::new(EngineConfig {
        cache_budget_aig_nodes: BUDGET,
        ..EngineConfig::default()
    });
    let flow = [Transform::Balance, Transform::Rewrite];
    let mut pctx = PassContext::default();
    let mut peak = 0;
    for k in 0..300 {
        engine.evaluate_flow_with_ctx(&fresh_variant(&base, k), &flow, &mut pctx);
        peak = peak.max(engine.cache_summary().cached_aig_nodes);
    }
    let summary = engine.cache_summary();
    assert_eq!(engine.stats().flows_evaluated, 300, "all designs distinct");
    assert!(peak <= BUDGET, "resident AIG nodes peaked at {peak}");
    assert!(summary.cached_aig_nodes > 0 && summary.cached_prefixes > 0);
    assert!(
        summary.cached_prefixes * base.len() <= BUDGET + base.len(),
        "resident states are what the budget holds, not one per design"
    );
    assert!(
        summary.states_known <= 300 * (flow.len() + 1),
        "metadata is bounded by the work done (and capped, see state.rs)"
    );
}

#[test]
fn concurrent_callers_never_apply_an_edge_twice() {
    let base = Design::Alu64.generate(DesignScale::Tiny);
    let flows = sample(8, 4);
    let alone = EvalEngine::default();
    let expected = alone.evaluate_batch(&base, &flows);

    // Four callers ask for the same walks at the same moment, each on a
    // design the store tells apart: whoever claims an edge first runs it,
    // the others wait for its result instead of racing it.
    let engine = EvalEngine::default();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for k in 0..4 {
            let (engine, start, flows, expected) = (&engine, &start, &flows, &expected);
            let design = with_dangling(&base, k);
            scope.spawn(move || {
                let mut pctx = PassContext::default();
                start.wait();
                for (flow, qor) in flows.iter().zip(expected) {
                    assert_eq!(
                        engine.evaluate_flow_with_ctx(&design, flow, &mut pctx),
                        *qor
                    );
                }
            });
        }
    });
    let (shared, single) = (engine.stats(), alone.stats());
    assert_eq!(shared.store_hits, 0);
    assert_eq!(shared.flows_evaluated, 4 * flows.len());
    assert_eq!(shared.passes_applied, single.passes_applied);
    assert_eq!(shared.mappings_run, single.mappings_run);
}
