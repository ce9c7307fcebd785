//! Determinism of parallel batch evaluation: `EvalEngine::evaluate_batch`,
//! the one batch driver, must return the same values in the same order
//! regardless of the worker-thread count — and the values `FlowRunner::run`
//! gives for each flow alone.

use circuits::{Design, DesignScale};
use floweval::EvalEngine;
use flowgen::FlowSpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{FlowRunner, Qor};

/// Property test over several seeds and thread counts.  All thread-count
/// variations run inside this single `#[test]` because `RAYON_NUM_THREADS`
/// is process-global state and the default test harness runs tests
/// concurrently.
#[test]
fn evaluate_batch_is_independent_of_thread_count() {
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let runner = FlowRunner::new();
    let space = FlowSpace::new(6, 1);

    for seed in [1u64, 7, 42] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flows = space.random_unique_flows(10, &mut rng);

        // Each flow alone, on the caller's thread, is the reference.
        let reference: Vec<Qor> = flows
            .iter()
            .map(|f| runner.run(&design, f.transforms()).qor)
            .collect();

        // Pin the thread count through the pool API: the vendored rayon
        // stand-in, like upstream rayon, reads RAYON_NUM_THREADS only once
        // (at the first parallel call), so the variable cannot vary it here.
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let engine = EvalEngine::default();
            assert_eq!(
                pool.install(|| engine.evaluate_batch(&design, &flows)),
                reference,
                "seed {seed}: {threads} threads changed order or values"
            );
        }
    }
}
