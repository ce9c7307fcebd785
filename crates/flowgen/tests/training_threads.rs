//! The paper's incremental retraining makes thousands of small training
//! steps, each a couple of dozen parallel calls.  A second thread must cost
//! those calls no OS thread of their own: the default classifier trains to
//! the same bits on one and on two threads, and the whole two-thread run
//! starts at most one pool helper.
//!
//! This file holds a single `#[test]` (its own process) because the helper
//! count is process-global.  No wall-clock assertion: the host runs at two
//! speeds.

use flowgen::{ClassifierConfig, Dataset, FlowClassifier};

#[test]
fn two_thread_training_reuses_one_helper() {
    let (dataset, _) = Dataset::synthetic_balance(60, 7);
    let losses = |threads: usize| -> Vec<u32> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut clf = FlowClassifier::for_paper_space(ClassifierConfig::default());
            (0..50).map(|_| clf.train(&dataset, 1).to_bits()).collect()
        })
    };

    let one = losses(1);
    assert_eq!(rayon::started_threads(), 0, "one thread needs no helper");
    let two = losses(2);
    assert_eq!(one, two, "two threads changed seeded training losses");
    assert!(
        rayon::started_threads() <= 1,
        "50 two-thread steps started {} helper threads",
        rayon::started_threads()
    );
}
