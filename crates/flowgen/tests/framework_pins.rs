//! `Framework::run` reports the same bits at every thread count: an FNV hash
//! of everything a quick run reports except its wall-clock fields — per
//! round the labelled-flow count, loss, hold-out accuracy and majority; the
//! selected indices and confidences; the sample QoRs and labels; the
//! dataset labels; and the engine counters — is pinned to a literal on
//! alu64 and montgomery64 Tiny, at one and at two threads.
//!
//! The loop labels the next chunk of flows while the classifier trains, so
//! the pins also hold it to the results of running those two steps one
//! after the other.  A one-thread run must start no pool helper.
//!
//! This file holds a single `#[test]` (its own process) because the helper
//! count is process-global.

use circuits::{Design, DesignScale};
use flow_core::Fnv64;
use flowgen::{ClassifierConfig, Framework, FrameworkConfig, FrameworkReport, SelectedFlow};
use synth::{Qor, QorMetric};

/// `framework::tests`' quick configuration: rounds at 12, 18 and 24
/// labelled flows, then a pool of 30 samples.
fn quick_config() -> FrameworkConfig {
    FrameworkConfig {
        training_flows: 24,
        initial_flows: 12,
        retrain_interval: 6,
        steps_per_round: 20,
        sample_flows: 30,
        output_flows: 5,
        classifier: ClassifierConfig {
            num_kernels: 2,
            dense_units: 8,
            num_classes: 5,
            ..ClassifierConfig::default()
        },
        ..FrameworkConfig::laptop(QorMetric::Area)
    }
}

fn hash_qor(h: &mut Fnv64, q: &Qor) {
    h.write_u64(q.area_um2.to_bits());
    h.write_u64(q.delay_ps.to_bits());
    h.write_usize(q.gates);
    h.write_usize(q.and_nodes);
    h.write_u32(q.depth);
}

fn hash_selected(h: &mut Fnv64, flows: &[SelectedFlow]) {
    h.write_usize(flows.len());
    for f in flows {
        h.write_usize(f.index);
        h.write_u32(f.confidence.to_bits());
    }
}

/// Everything the report holds but its wall-clock fields (`elapsed_s`,
/// `runtime_s`, `eval_stats.wall_s`).
fn report_hash(report: &FrameworkReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(report.rounds.len());
    for round in &report.rounds {
        h.write_usize(round.labelled_flows);
        h.write_u32(round.training_loss.to_bits());
        h.write_u64(round.holdout_accuracy.to_bits());
        h.write_u64(round.holdout_majority.to_bits());
    }
    hash_selected(&mut h, &report.selection.angel_flows);
    hash_selected(&mut h, &report.selection.devil_flows);
    h.write_usize(report.sample_qors.len());
    for q in &report.sample_qors {
        hash_qor(&mut h, q);
    }
    for &label in &report.sample_labels {
        h.write_usize(label);
    }
    h.write_u64(report.selection_accuracy.map_or(u64::MAX, f64::to_bits));
    h.write_usize(report.dataset.len());
    for example in report.dataset.examples() {
        h.write_usize(example.label);
    }
    let s = &report.eval_stats;
    for counter in [
        s.flows_requested,
        s.store_hits,
        s.flows_evaluated,
        s.passes_requested,
        s.passes_applied,
        s.passes_memoized,
        s.trie_hits,
        s.mappings_run,
        s.mappings_memoized,
        s.store_write_errors,
        s.store_torn_tail,
        s.store_corrupt,
    ] {
        h.write_usize(counter);
    }
    h.finish()
}

/// Hashes of a fresh quick run on each design, with `threads` participants.
fn run_hashes(threads: usize) -> Vec<(Design, u64)> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        [Design::Alu64, Design::Montgomery64]
            .into_iter()
            .map(|design| {
                let aig = design.generate(DesignScale::Tiny);
                let report = Framework::new(quick_config()).run(&aig);
                (design, report_hash(&report))
            })
            .collect()
    })
}

#[test]
fn reports_are_pinned_at_one_and_two_threads() {
    let pinned = [
        (Design::Alu64, 0xe40f_b692_c289_cfba),
        (Design::Montgomery64, 0xf498_d87b_1923_5ad1),
    ];
    let one = run_hashes(1);
    assert_eq!(
        rayon::started_threads(),
        0,
        "a one-thread run needs no pool helper"
    );
    let two = run_hashes(2);
    for (threads, hashes) in [(1, &one), (2, &two)] {
        for ((design, got), (_, want)) in hashes.iter().zip(&pinned) {
            assert_eq!(
                *got, *want,
                "{design:?} at {threads} thread(s): report hash {got:#018x}"
            );
        }
    }
}
