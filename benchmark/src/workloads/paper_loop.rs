//! `paper_loop` — the paper's Figure 2, end to end.
//!
//! `flowgen::Framework::run` (the call users make) on montgomery64, aes128
//! and alu64 at `DesignScale::Small`: sample paper-space flows, label them
//! through `floweval::EvalEngine::evaluate_batch`, train the CNN
//! incrementally, classify a sample pool, select angel/devil flows and
//! evaluate the samples against ground truth.  Every layer works; `synth`
//! and `floweval` do ~80 %, `nn` ~20 %, and the store is write-mostly (every
//! flow is a miss that is appended).

use std::sync::Arc;
use std::time::Instant;

use aig::Aig;
use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine, SearchConfig};
use flowgen::{
    angel_devil_accuracy, select_angel_devil_flows, Dataset, Flow, FlowClassifier, FlowEncoder,
    FlowSpace, Framework, FrameworkConfig, FrameworkReport, Labeler, PAPER_PERCENTILES,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{Qor, QorMetric, Transform};

use super::SetupTimes;
use crate::common::{eval_counters, qor_panel, verify_samples, Sample};
use crate::report::{Outcome, Section};
use crate::rng::Rng64;
use crate::runner::{measure_setup, RunArgs, Scratch};
use crate::trace::Tracer;
use crate::{host, probes};

/// Labelled training flows and classified-and-evaluated sample flows per
/// design in a nominal section (`FrameworkConfig::laptop` shape, cut down).
const TRAINING_FLOWS: f64 = 40.0;
const SAMPLE_FLOWS: f64 = 60.0;
/// Mini-batch steps per (re-)training round, three rounds per design.
const STEPS_PER_ROUND: f64 = 150.0;
const DESIGNS: [Design; 3] = [Design::Montgomery64, Design::Aes128, Design::Alu64];
/// Results re-derived and checked by the oracle.
const SAMPLES: usize = 16;

/// What a set-up leaves ready for the timed section.
pub struct Ready {
    /// Stage times.
    pub times: SetupTimes,
    designs: Vec<Aig>,
    frameworks: Vec<Framework>,
}

/// The framework configuration of design `index` for this run.
fn config(args: &RunArgs, index: usize) -> FrameworkConfig {
    let training = args.scaled(TRAINING_FLOWS, 8) / 4 * 4;
    let sample = args.scaled(SAMPLE_FLOWS, 10);
    FrameworkConfig {
        training_flows: training,
        initial_flows: training / 2,
        retrain_interval: training / 4,
        steps_per_round: args.scaled(STEPS_PER_ROUND, 10),
        sample_flows: sample,
        output_flows: (sample / 10).max(1),
        seed: Rng64::stream(args.seed, 0x9A9E + index as u64).next_u64(),
        ..FrameworkConfig::laptop(QorMetric::Area)
    }
}

/// One cold set-up: NPN table, the three designs, one framework (engine,
/// cell library, in-memory store) per design.
pub fn setup(args: &RunArgs) -> Ready {
    let start = Instant::now();
    let _ = synth::npn4::npn4();
    let npn4_ms = start.elapsed().as_secs_f64() * 1e3;
    let generate = Instant::now();
    let designs: Vec<Aig> = DESIGNS
        .iter()
        .map(|d| d.generate(DesignScale::Small))
        .collect();
    let generate_ms = generate.elapsed().as_secs_f64() * 1e3;
    let frameworks = (0..designs.len())
        .map(|i| Framework::new(config(args, i)))
        .collect();
    Ready {
        times: SetupTimes {
            ready_s: start.elapsed().as_secs_f64(),
            npn4_ms,
            generate_ms,
        },
        designs,
        frameworks,
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let Ready {
        times,
        designs,
        frameworks,
    } = setup(args);
    let mut out = Outcome {
        setup_s: measure_setup(args, |_| None),
        ..Outcome::default()
    };

    // Warm-up, excluded: a miniature loop on the tiny ALU.
    let tiny = Design::Alu64.generate(DesignScale::Tiny);
    let _ = Framework::new(FrameworkConfig {
        training_flows: 8,
        initial_flows: 4,
        retrain_interval: 4,
        steps_per_round: 10,
        sample_flows: 8,
        output_flows: 2,
        ..FrameworkConfig::laptop(QorMetric::Area)
    })
    .run(&tiny);

    // The timed section: one operation per design.
    let mut section = Section::default();
    let mut reports: Vec<FrameworkReport> = Vec::new();
    let (cpu0, wall0) = (host::cpu_seconds(), Instant::now());
    for (framework, design) in frameworks.iter().zip(&designs) {
        let start = Instant::now();
        reports.push(framework.run(design));
        section
            .latencies_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
    }
    section.close(cpu0, wall0);

    let mut eval = floweval::EvalStats::default();
    for report in &reports {
        section.evals += (report.dataset.examples().len() + report.sample_qors.len()) as u64;
        eval.absorb(&report.eval_stats);
    }
    let last_losses: Vec<f64> = reports
        .iter()
        .map(|r| f64::from(r.rounds.last().expect("at least one round").training_loss))
        .collect();
    out.train_loss = last_losses.iter().sum::<f64>() / last_losses.len() as f64;
    out.counters
        .insert("nn.final_loss".to_string(), out.train_loss);
    eval_counters(&eval, &mut out, &mut section);
    let rounds: usize = reports.iter().map(|r| r.rounds.len()).sum();
    out.counters
        .insert("flowgen.training_rounds".to_string(), rounds as f64);

    // Sampled labels, re-derived without the engine and judged by the oracle.
    let mut rng = Rng64::stream(args.seed, 0x5A3B);
    let samples: Vec<Sample<'_>> = (0..SAMPLES)
        .map(|k| {
            let d = k % designs.len();
            let examples = reports[d].dataset.examples();
            let e = &examples[rng.below(examples.len())];
            Sample {
                design: &designs[d],
                flow: e.flow.transforms().to_vec(),
                reported: e.qor,
            }
        })
        .collect();
    let (checks, failed) = verify_samples(&samples, args.seed);
    out.checks += checks;
    out.failed_checks += failed;

    if args.trace {
        traced_replay(args, tracer, &designs, &reports, &section, &mut out);
        out.layer("floweval.pass_savings_ratio", eval.pass_savings_rate());
        let mut cache = floweval::CacheSummary::default();
        let (mut hits, mut misses) = (0, 0);
        for framework in &frameworks {
            let c = framework.engine().cache_summary();
            cache.cached_aig_nodes += c.cached_aig_nodes;
            cache.cached_prefixes += c.cached_prefixes;
            let (h, m) = framework.engine().shared_isop_stats();
            hits += h;
            misses += m;
        }
        out.layer("floweval.trie_cached_nodes", cache.cached_aig_nodes as f64);
        out.layer(
            "floweval.trie_cached_prefixes",
            cache.cached_prefixes as f64,
        );
        for (name, value) in out.counters.clone() {
            if name.starts_with("floweval.") {
                out.layer(&name, value);
            }
        }
        out.layer("synth.npn4_table_build_ms", times.npn4_ms);
        out.layer("circuits.generate_ms", times.generate_ms);
        let refs: Vec<&Aig> = designs.iter().collect();
        probes::aig_layer(&refs, &mut out);
        probes::synth_layer(
            &refs,
            2,
            args.seed,
            |rng| crate::common::paper_flow(rng, &[]),
            &mut out,
        );
        if hits + misses > 0 {
            // The loop's own engines, not the probe's context.
            out.layer("synth.isop_hit_ratio", hits as f64 / (hits + misses) as f64);
        }
        let scratch = Scratch::new("loop");
        probes::store_layer(scratch.path(), 5000, &mut out);
        search_vs_batch(args, &designs[2], &mut out);
    } else {
        out.qor_area_ratio = qor_panel(&designs);
    }
    out.section = section;
    out
}

/// The traced section: the loop of `Framework::run` replayed stage by stage
/// through the public functions it is made of, a span per call, with the same
/// seeds.  It must select exactly the flows `Framework::run` selected.
fn traced_replay(
    args: &RunArgs,
    tracer: &mut Tracer,
    designs: &[Aig],
    reports: &[FrameworkReport],
    reference: &Section,
    out: &mut Outcome,
) {
    let mut flows_labelled = 0usize;
    let mut flows_sampled = 0usize;
    let mut flows_classified = 0usize;
    let mut steps = 0usize;
    let mut cpu_label = 0.0;
    let mut engines: Vec<Arc<EvalEngine>> = Vec::new();
    let mut holdout_accuracy = Vec::new();
    let mut select_accuracy = Vec::new();
    let wall = Instant::now();
    tracer.span("harness.section", 0, |tracer| {
        for (index, design) in designs.iter().enumerate() {
            let op = index as u64 + 1;
            let cfg = config(args, index);
            let engine = Arc::new(EvalEngine::new(EngineConfig::default()));
            engines.push(Arc::clone(&engine));
            let mut label = |tracer: &mut Tracer, flows: &[Flow]| -> Vec<Qor> {
                let scripts: Vec<Vec<Transform>> =
                    flows.iter().map(|f| f.transforms().to_vec()).collect();
                let cpu = host::cpu_seconds();
                let qors = tracer.span("floweval.evaluate_batch", op, |_| {
                    engine.evaluate_batch(design, &scripts)
                });
                cpu_label += host::cpu_seconds() - cpu;
                flows_labelled += flows.len();
                qors
            };
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
            let training = tracer.span("flowgen.sample", op, |_| {
                cfg.space.random_unique_flows(cfg.training_flows, &mut rng)
            });
            flows_sampled += training.len();
            let encoder =
                FlowEncoder::new(cfg.space.num_transforms(), cfg.space.flow_length(), true);
            let mut classifier_config = cfg.classifier.clone();
            classifier_config.seed = cfg.seed ^ 0xC1A55;
            let mut classifier = tracer.span("flowgen.classifier_new", op, |_| {
                FlowClassifier::new(encoder, classifier_config)
            });
            let mut flows: Vec<Flow> = Vec::new();
            let mut qors: Vec<Qor> = Vec::new();
            let mut next_train_at = cfg.initial_flows;
            let mut cursor = 0;
            while cursor < training.len() {
                let end = next_train_at.min(training.len());
                qors.extend(label(tracer, &training[cursor..end]));
                flows.extend_from_slice(&training[cursor..end]);
                cursor = end;
                let dataset = tracer.span("flowgen.label", op, |_| {
                    let values: Vec<f64> = qors.iter().map(|q| q.metric(cfg.metric)).collect();
                    let labeler =
                        Labeler::from_percentiles(cfg.metric, &values, &PAPER_PERCENTILES);
                    Dataset::from_evaluations(flows.clone(), qors.clone(), &labeler)
                });
                let (train, holdout) =
                    tracer.span("flowgen.split", op, |_| dataset.split(0.2, &mut rng));
                tracer.span("nn.train", op, |_| {
                    classifier.train(&train, cfg.steps_per_round)
                });
                steps += cfg.steps_per_round;
                let accuracy = tracer.span("nn.accuracy", op, |_| classifier.accuracy(&holdout));
                if cursor == training.len() {
                    holdout_accuracy.push(accuracy);
                }
                next_train_at = (next_train_at + cfg.retrain_interval).min(cfg.training_flows);
            }
            let pool = tracer.span("flowgen.sample", op, |_| {
                cfg.space.random_unique_flows(cfg.sample_flows, &mut rng)
            });
            flows_sampled += pool.len();
            let probabilities =
                tracer.span("nn.predict_proba", op, |_| classifier.predict_proba(&pool));
            flows_classified += pool.len();
            let selection = tracer.span("flowgen.select", op, |_| {
                select_angel_devil_flows(&pool, &probabilities, cfg.output_flows)
            });
            let sample_qors = label(tracer, &pool);
            let accuracy = tracer.span("flowgen.label", op, |_| {
                let values: Vec<f64> = sample_qors.iter().map(|q| q.metric(cfg.metric)).collect();
                let labeler = Labeler::from_percentiles(cfg.metric, &values, &PAPER_PERCENTILES);
                let labels: Vec<usize> = sample_qors.iter().map(|q| labeler.classify(q)).collect();
                angel_devil_accuracy(&selection, &labels, cfg.classifier.num_classes)
            });
            select_accuracy.push(accuracy);

            // The replay is only worth reading if it is the same loop.
            let indices = |s: &flowgen::Selection| -> Vec<usize> {
                s.angel_flows
                    .iter()
                    .chain(&s.devil_flows)
                    .map(|f| f.index)
                    .collect()
            };
            let same = indices(&selection) == indices(&reports[index].selection)
                && sample_qors == reports[index].sample_qors
                && Some(accuracy) == reports[index].selection_accuracy;
            out.checks += 1;
            out.failed_checks += u64::from(!same);
        }
    });
    let traced_wall = wall.elapsed().as_secs_f64();
    out.layer("trace.overhead_ratio", traced_wall / reference.wall_s - 1.0);

    let times = tracer.self_times();
    let seconds = |name: &str| times.get(name).map_or(0.0, |t| t.0);
    let label_s = seconds("floweval.evaluate_batch");
    let train_s = seconds("nn.train") + seconds("nn.accuracy");
    let predict_s = seconds("nn.predict_proba");
    let select_s = seconds("flowgen.select");
    out.layer("flowgen.stage_label_s", label_s);
    out.layer("flowgen.stage_train_s", train_s);
    out.layer("flowgen.stage_predict_s", predict_s);
    out.layer("flowgen.stage_select_s", select_s);
    out.layer(
        "flowgen.stage_other_s",
        traced_wall - label_s - train_s - predict_s - select_s,
    );
    out.layer(
        "flowgen.sample_us_per_flow",
        seconds("flowgen.sample") * 1e6 / flows_sampled as f64,
    );
    out.layer(
        "flowgen.label_us_per_flow",
        seconds("flowgen.label") * 1e6 / flows_labelled as f64,
    );
    out.layer(
        "flowgen.select_us_per_flow",
        select_s * 1e6 / flows_classified as f64,
    );
    out.layer(
        "flowgen.holdout_accuracy",
        holdout_accuracy.iter().sum::<f64>() / holdout_accuracy.len() as f64,
    );
    out.layer(
        "flowgen.select_accuracy",
        select_accuracy.iter().sum::<f64>() / select_accuracy.len() as f64,
    );
    out.layer("nn.train_step_ms", seconds("nn.train") * 1e3 / steps as f64);
    out.layer(
        "nn.predict_us_per_flow",
        predict_s * 1e6 / flows_classified as f64,
    );

    // Encoding is inside `train`/`predict_proba`; probe it on the last pool.
    let pool =
        FlowSpace::paper().random_unique_flows(200, &mut ChaCha8Rng::seed_from_u64(args.seed));
    let encoder = FlowEncoder::paper();
    let start = Instant::now();
    std::hint::black_box(encoder.encode_owned(&pool));
    out.layer(
        "flowgen.encode_us_per_flow",
        start.elapsed().as_secs_f64() * 1e6 / pool.len() as f64,
    );
    let mut params = FlowClassifier::for_paper_space(config(args, 0).classifier);
    out.layer("nn.params", params.num_parameters() as f64);

    // Engine self time: CPU inside `evaluate_batch` that is neither a pass
    // nor the mapper (copies, locks, store appends, thread spawns).  CPU, not
    // wall: two subtree threads run at once.
    let mut pass_s = 0.0;
    for engine in &engines {
        let t = engine.pass_timings();
        pass_s += t.pass_seconds() + t.mapping.seconds;
    }
    let self_s = (cpu_label - pass_s).max(0.0);
    out.layer("floweval.self_s", self_s);
    out.layer("floweval.self_ratio", self_s / cpu_label);
}

/// `floweval.search_vs_batch_ratio`: evals/s of `search_flows` with two
/// workers ÷ evals/s of `evaluate_batch` on the same label set (fresh
/// engines, the ALU, same flows).
fn search_vs_batch(args: &RunArgs, design: &Aig, out: &mut Outcome) {
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x5EA2C4);
    let flows: Vec<Vec<Transform>> = FlowSpace::paper()
        .random_unique_flows(24, &mut rng)
        .iter()
        .map(|f| f.transforms().to_vec())
        .collect();
    let start = Instant::now();
    let batch = EvalEngine::default().evaluate_batch(design, &flows);
    let batch_s = start.elapsed().as_secs_f64();
    let config = SearchConfig {
        workers: 2,
        ..SearchConfig::default()
    };
    let start = Instant::now();
    let outcome = EvalEngine::default().search_flows(std::slice::from_ref(design), &flows, &config);
    let search_s = start.elapsed().as_secs_f64();
    let same = outcome.labels.iter().map(|l| l.qor).collect::<Vec<_>>() == batch;
    out.checks += 1;
    out.failed_checks += u64::from(!same);
    out.layer("floweval.search_vs_batch_ratio", batch_s / search_s);
}
