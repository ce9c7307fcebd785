//! End-to-end training determinism of the flow classifier: a seeded training
//! run must produce bit-identical losses and predictions regardless of the
//! worker-thread count (extending the `runner_determinism` pattern from flow
//! evaluation to classifier training).  Agreement with the scalar oracle is
//! `nn`'s concern: `crates/nn/tests/backend_differential.rs` trains this
//! classifier's layer stack against `nn::reference`.

use flowgen::{ClassifierConfig, Dataset, FlowClassifier};

/// All thread-count variations run inside this single `#[test]` because the
/// pool size is process-global state.
#[test]
fn seeded_training_is_bit_identical_across_thread_counts() {
    let (dataset, eval_flows) = Dataset::synthetic_balance(60, 3);
    let config = ClassifierConfig {
        num_kernels: 6,
        dense_units: 16,
        num_classes: 3,
        ..ClassifierConfig::default()
    };

    let run = |threads: usize| -> (Vec<f32>, Vec<usize>) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut clf = FlowClassifier::for_paper_space(config.clone());
            // Several mean-loss observations along the run, not just the last,
            // so divergence at any step is caught.
            let losses: Vec<f32> = (0..4).map(|_| clf.train(&dataset, 10)).collect();
            let preds = clf.predict(&eval_flows);
            (losses, preds)
        })
    };

    let (losses_1, preds_1) = run(1);
    for threads in [2usize, 4] {
        let (losses_n, preds_n) = run(threads);
        assert_eq!(
            losses_1.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            losses_n.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "{threads} threads changed seeded training losses bitwise"
        );
        assert_eq!(
            preds_1, preds_n,
            "{threads} threads changed post-training predictions"
        );
    }
}
