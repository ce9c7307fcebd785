//! The parallel propose path of the resynthesis sweep.
//!
//! A graph of 32 Ki nodes or more is proposed in fixed 1 Ki-node chunks on
//! the `rayon` pool; a smaller one is a single chunk that runs on the caller.
//! Decisions depend only on the graph, so the result must be node-for-node
//! the same at any thread count, and so must the commit walk's counters
//! (`ApplyStats::{gain_estimated, gain_realised, conflicts}`), whose sets
//! the chunks record while they price.  aes128@Full is the smallest generated
//! design above the gate.
//!
//! Everything is one `#[test]`: the gate check reads the process-wide count
//! of pool helpers, which a concurrently running test would disturb.

mod reference_differential;

use aig::Aig;
use circuits::{Design, DesignScale};
use reference_differential::{assert_identical, random_flow};
use synth::{ApplyStats, PassContext, Transform};

/// The node count from which a sweep fans out.
const GATE: usize = 32 * 1024;

/// Runs `flow` on `design` through a fresh context at `threads` threads.
fn run(design: &Aig, flow: &[Transform], threads: usize) -> (Aig, ApplyStats) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        let mut ctx = PassContext::default();
        let g = ctx.run_flow(design, flow);
        (g, ctx.apply_stats())
    })
}

#[test]
fn parallel_sweeps_are_identical_at_any_thread_count_and_gated_by_size() {
    use Transform::*;

    // Below the gate nothing fans out, even at two threads: no helper has
    // been started in this process yet, and none is.
    let small = Design::Aes128.generate(DesignScale::Small);
    assert!(small.len() < GATE, "aes128@Small has {} nodes", small.len());
    let _ = run(&small, &[Rewrite, Refactor, Restructure], 2);
    assert_eq!(
        rayon::started_threads(),
        0,
        "a sweep below the gate posted work to the pool"
    );

    let full = Design::Aes128.generate(DesignScale::Full);
    assert!(full.len() >= GATE, "aes128@Full has {} nodes", full.len());
    let (name, mut flow) = random_flow(0x8A55);
    flow.truncate(8);
    let jobs = [
        ("rewrite".to_string(), vec![Rewrite]),
        ("refactor".to_string(), vec![Refactor]),
        ("restructure".to_string(), vec![Restructure]),
        ("rewrite -z".to_string(), vec![RewriteZ]),
        (format!("{name}[..8]"), flow),
    ];
    let mut compared = Vec::new();
    for (name, flow) in &jobs {
        let (one, one_stats) = run(&full, flow, 1);
        for threads in [2, 4] {
            let (many, many_stats) = run(&full, flow, threads);
            let what = format!("{name} at {threads} threads");
            assert_identical(&one, &many, &what);
            assert_eq!(one_stats, many_stats, "{what}: apply routes");
            // The pricer records the commit walk's sets inside the chunks.
            let counters = |s: ApplyStats| (s.gain_estimated, s.gain_realised, s.conflicts);
            assert_eq!(
                counters(one_stats),
                counters(many_stats),
                "{what}: estimated, realised and dropped"
            );
        }
        compared.push((name, one_stats));
    }
    assert!(
        compared
            .iter()
            .any(|(_, s)| s.gain_estimated > 0 && s.conflicts > 0),
        "the commit walks had nothing to compare: {compared:?}"
    );
    assert!(
        rayon::started_threads() > 0,
        "the sweeps above the gate never fanned out"
    );
}
