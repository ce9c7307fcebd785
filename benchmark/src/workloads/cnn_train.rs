//! `cnn_train` — the paper-scale classifier, nothing but `nn`.
//!
//! `FlowClassifier` at `ClassifierConfig::paper_scale()` (2 × 200 kernels of
//! 6 × 12, 3.27 M parameters) trains on `Dataset::synthetic_balance` in
//! mini-batches of 5 and then classifies a seeded pool of flows.  GEMM,
//! im2col, the optimiser sweeps and the vendored rayon shim's thread spawning
//! do all the work; `synth` and `floweval` do none.

use std::time::Instant;

use flowgen::{ClassifierConfig, Dataset, Flow, FlowClassifier, FlowEncoder, FlowSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::SetupTimes;
use crate::report::{Outcome, Section, UNTRAINED_LOSS};
use crate::rng::Rng64;
use crate::runner::{measure_setup, RunArgs};
use crate::trace::Tracer;
use crate::{host, probes};

/// Training steps (batch 5) and pool flows classified per nominal section.
const STEPS: f64 = 180.0;
const POOL_FLOWS: f64 = 1400.0;
/// Flows per `predict_proba` call.
const CHUNK: usize = 50;
/// Steps whose mean loss is the reported training loss.
const LOSS_WINDOW: usize = 20;

/// What a set-up leaves ready for the timed section.
pub struct Ready {
    /// Stage times.
    pub times: SetupTimes,
    dataset: Dataset,
    classifier: FlowClassifier,
    pool: Vec<Flow>,
    steps: usize,
}

fn classifier(args: &RunArgs) -> FlowClassifier {
    FlowClassifier::for_paper_space(ClassifierConfig {
        seed: Rng64::stream(args.seed, 0xC22).next_u64(),
        ..ClassifierConfig::paper_scale()
    })
}

/// One cold set-up: the labelled dataset, the 3.27 M-parameter classifier
/// and the seeded pool.
pub fn setup(args: &RunArgs) -> Ready {
    let start = Instant::now();
    let (dataset, _) = Dataset::synthetic_balance(300, 7);
    let classifier = classifier(args);
    let mut rng = ChaCha8Rng::seed_from_u64(Rng64::stream(args.seed, 0x9001).next_u64());
    let pool = FlowSpace::paper().random_unique_flows(args.scaled(POOL_FLOWS, CHUNK), &mut rng);
    Ready {
        times: SetupTimes {
            ready_s: start.elapsed().as_secs_f64(),
            ..SetupTimes::default()
        },
        dataset,
        classifier,
        pool,
        steps: args.scaled(STEPS, 3 * LOSS_WINDOW),
    }
}

/// Trains `steps` single steps and classifies the pool; one span and one
/// latency sample per step.  Returns the per-step losses and whether every
/// probability row was a distribution.
fn section(tracer: &mut Tracer, ready: &mut Ready, section: &mut Section) -> (Vec<f32>, bool) {
    let mut losses = Vec::with_capacity(ready.steps);
    let mut normalised = true;
    let (cpu0, wall0) = (host::cpu_seconds(), Instant::now());
    for step in 0..ready.steps {
        let start = Instant::now();
        let loss = tracer.span("nn.train_step", step as u64 + 1, |_| {
            ready.classifier.train(&ready.dataset, 1)
        });
        section
            .latencies_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        losses.push(loss);
    }
    for (chunk_index, chunk) in ready.pool.chunks(CHUNK).enumerate() {
        let op = (ready.steps + chunk_index) as u64 + 1;
        let probabilities = tracer.span("nn.predict_proba", op, |_| {
            ready.classifier.predict_proba(chunk)
        });
        for row in 0..chunk.len() {
            let sum: f32 = (0..7).map(|class| probabilities.at2(row, class)).sum();
            normalised &= (sum - 1.0).abs() < 1e-4;
        }
    }
    section.close(cpu0, wall0);
    section.evals = (ready.steps * 5 + ready.pool.len()) as u64;
    (losses, normalised)
}

fn mean(losses: &[f32]) -> f64 {
    losses.iter().map(|&l| f64::from(l)).sum::<f64>() / losses.len() as f64
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut ready = setup(args);
    let mut out = Outcome {
        setup_s: measure_setup(args, |_| None),
        qor_area_ratio: 1.0,
        ..Outcome::default()
    };

    // Warm-up, excluded: two steps on a throw-away classifier size the
    // packing buffers' allocator arenas and page the kernels in.
    let mut scratch = classifier(args);
    let _ = scratch.train(&ready.dataset, 2);
    drop(scratch);

    let mut timed = Section::default();
    let (losses, normalised) = section(
        &mut Tracer::new(false, Instant::now()),
        &mut ready,
        &mut timed,
    );
    out.train_loss = mean(&losses[losses.len() - LOSS_WINDOW..]);
    out.counters
        .insert("nn.training_steps".to_string(), ready.steps as f64);
    out.counters
        .insert("nn.pool_flows".to_string(), ready.pool.len() as f64);
    out.counters
        .insert("nn.final_loss".to_string(), out.train_loss);

    // The classifier must have learnt something — end below the untrained
    // loss ln 7; a section too short for that (quick mode) must at least end
    // below where it started — and must emit distributions.
    let learnt = if ready.steps >= 100 {
        out.train_loss < UNTRAINED_LOSS
    } else {
        out.train_loss < mean(&losses[..LOSS_WINDOW])
    };
    out.checks += 2;
    out.failed_checks += u64::from(!learnt) + u64::from(!normalised);

    if args.trace {
        // The traced section: the same seeds on a fresh classifier; training
        // is deterministic, so the losses must repeat bit for bit.
        let mut again = setup(args);
        let mut traced = Section::default();
        let (traced_losses, _) = tracer.span("harness.section", 0, |tracer| {
            section(tracer, &mut again, &mut traced)
        });
        out.checks += 1;
        out.failed_checks += u64::from(traced_losses != losses);
        out.layer("trace.overhead_ratio", traced.wall_s / timed.wall_s - 1.0);
        let times = tracer.self_times();
        let step_s = times["nn.train_step"].0 / again.steps as f64;
        out.layer("nn.train_step_ms", step_s * 1e3);
        out.layer(
            "nn.predict_us_per_flow",
            times["nn.predict_proba"].0 * 1e6 / again.pool.len() as f64,
        );
        out.layer("nn.params", again.classifier.num_parameters() as f64);

        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("thread-count scope");
        let start = Instant::now();
        one.install(|| again.classifier.train(&again.dataset, 5));
        out.layer(
            "nn.threads_speedup",
            start.elapsed().as_secs_f64() / 5.0 / step_s,
        );
        probes::gemm_layer(200, 5, &mut out);

        let encoder = FlowEncoder::paper();
        let start = Instant::now();
        std::hint::black_box(encoder.encode_owned(&again.pool));
        out.layer(
            "flowgen.encode_us_per_flow",
            start.elapsed().as_secs_f64() * 1e6 / again.pool.len() as f64,
        );
    }
    out.section = timed;
    out
}
