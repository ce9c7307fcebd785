//! The fully autonomous flow-generation framework (Figure 2 of the paper).
//!
//! The framework ties the pieces together:
//!
//! 1. **Generate training data** — sample random m-repetition flows, run them
//!    through the synthesis tool ([`synth::FlowRunner`]) and label the results
//!    by QoR percentile ([`Labeler`]).  Collection is incremental: the CNN is
//!    first trained once `initial_flows` labelled flows exist and re-trained
//!    after every `retrain_interval` new flows (the paper uses 1000 / 500).
//! 2. **Train the CNN classifier** ([`FlowClassifier`]).
//! 3. **Output angel-flows and devil-flows** — predict a large pool of sample
//!    flows and keep the most confident class-0 / class-n predictions
//!    ([`select_angel_devil_flows`]).
//!
//! **Labelling overlaps training.**  The rounds' chunk boundaries depend only
//! on the configuration, so they are fixed before anything is labelled.  The
//! first chunk is labelled alone; from then on one [`rayon::join`] labels the
//! next chunk (after the last round: the sample pool) on the calling thread
//! while the classifier trains on the other operand, and a pool helper that
//! finishes training joins the labelling waves.  Neither side reads what the
//! other writes: training reads the split made before the join, labelling
//! touches only the engine, and the sample pool is drawn right after the
//! last split, where a sequential loop would draw it too (training never
//! touches the run's RNG).  Every draw, label batch, split and training step
//! therefore happens in the same order on the same data as when the two run
//! one after the other — as they do at one thread, where `join` runs its
//! operands in turn — and the report is bit-identical at any thread count,
//! apart from its wall-clock fields.

use std::sync::Arc;

use aig::Aig;
use floweval::{EngineConfig, EvalEngine, EvalStats};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use synth::{Qor, QorMetric};

use crate::classifier::{ClassifierConfig, FlowClassifier};
use crate::dataset::Dataset;
use crate::encode::FlowEncoder;
use crate::flow::Flow;
use crate::label::{Labeler, PAPER_PERCENTILES};
use crate::select::{angel_devil_accuracy, select_angel_devil_flows, Selection};
use crate::space::FlowSpace;

/// Configuration of one framework run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkConfig {
    /// The flow search space (n, m).
    pub space: FlowSpace,
    /// The QoR metric to optimise (area- or delay-driven flows).
    pub metric: QorMetric,
    /// Total number of labelled training flows to collect (paper: 10,000);
    /// at least one.
    pub training_flows: usize,
    /// Number of labelled flows required before the first training round (paper: 1000).
    pub initial_flows: usize,
    /// Re-train after this many newly labelled flows (paper: 500).  Zero
    /// means no intermediate rounds: the flows left after the first round
    /// form one final round.
    pub retrain_interval: usize,
    /// Mini-batch steps per (re-)training round.
    pub steps_per_round: usize,
    /// Number of unlabeled sample flows to classify at the end (paper: 100,000).
    pub sample_flows: usize,
    /// Number of angel- and devil-flows to output (paper: 200 each).
    pub output_flows: usize,
    /// CNN configuration.
    pub classifier: ClassifierConfig,
    /// Master RNG seed.
    pub seed: u64,
}

impl FrameworkConfig {
    /// A laptop-scale configuration suitable for tests and for
    /// `flowc reproduce`: the same pipeline with reduced counts.
    pub fn laptop(metric: QorMetric) -> Self {
        FrameworkConfig {
            space: FlowSpace::paper(),
            metric,
            training_flows: 120,
            initial_flows: 60,
            retrain_interval: 30,
            steps_per_round: 150,
            sample_flows: 200,
            output_flows: 20,
            classifier: ClassifierConfig::default(),
            seed: 0xF10,
        }
    }

    /// The paper-scale configuration (3–4 days of compute in the original work).
    pub fn paper(metric: QorMetric) -> Self {
        FrameworkConfig {
            space: FlowSpace::paper(),
            metric,
            training_flows: 10_000,
            initial_flows: 1_000,
            retrain_interval: 500,
            steps_per_round: 5_000,
            sample_flows: 100_000,
            output_flows: 200,
            classifier: ClassifierConfig::paper_scale(),
            seed: 0xF10,
        }
    }
}

/// Progress of one incremental training round, for reporting/plotting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingRound {
    /// Number of labelled flows available when the round started.
    pub labelled_flows: usize,
    /// Mean training loss of the round.
    pub training_loss: f32,
    /// Accuracy on the held-out labelled flows after the round.
    pub holdout_accuracy: f64,
    /// Share of the round's held-out flows in their most common class: the
    /// accuracy of always answering that class, `holdout_accuracy`'s
    /// baseline (0 for an empty hold-out set).
    pub holdout_majority: f64,
    /// Wall-clock seconds from the start of the run to the end of this
    /// round.  The round's training overlaps the labelling of the next chunk
    /// (after the last round, of the sample pool), so this includes that
    /// labelling and is not a sum of per-stage times.
    pub elapsed_s: f64,
}

/// The result of a full framework run.
#[derive(Debug, Clone)]
pub struct FrameworkReport {
    /// Design name.
    pub design: String,
    /// Metric the flows were optimised for.
    pub metric: QorMetric,
    /// The selected angel- and devil-flows.
    pub selection: Selection,
    /// Per-round training progress.
    pub rounds: Vec<TrainingRound>,
    /// QoR of every sample flow: the framework evaluates the whole sample
    /// pool, as the paper does for its evaluation (Section 4); it dominates
    /// runtime.
    pub sample_qors: Vec<Qor>,
    /// True labels of the sample flows.
    pub sample_labels: Vec<usize>,
    /// The paper's accuracy metric over the selected flows (Section 4.1).
    /// Always `Some`: the sample pool is always evaluated; the `Option`
    /// stays only because callers compare it as one.
    pub selection_accuracy: Option<f64>,
    /// The labelled training dataset (released publicly by the paper).
    pub dataset: Dataset,
    /// Evaluation-engine statistics for this run: store hits, passes and
    /// mappings the state graph answered, and transform passes avoided
    /// relative to naive batch evaluation.
    pub eval_stats: EvalStats,
    /// Total wall-clock runtime in seconds (elapsed, not CPU time: labelling
    /// and training overlap).
    pub runtime_s: f64,
}

impl FrameworkReport {
    /// QoR records of the selected angel flows.
    pub fn angel_qors(&self) -> Vec<Qor> {
        self.selection
            .angel_flows
            .iter()
            .map(|s| self.sample_qors[s.index])
            .collect()
    }

    /// QoR records of the selected devil flows.
    pub fn devil_qors(&self) -> Vec<Qor> {
        self.selection
            .devil_flows
            .iter()
            .map(|s| self.sample_qors[s.index])
            .collect()
    }
}

/// The autonomous framework: design in, angel-/devil-flows out.
///
/// All QoR evaluation goes through a [`floweval::EvalEngine`], so a batch
/// costs one pass application per distinct `(graph, transform)` pair its
/// flows reach, and flows already known to the engine's persistent store are
/// never re-evaluated.
#[derive(Debug)]
pub struct Framework {
    config: FrameworkConfig,
    engine: Arc<EvalEngine>,
}

impl Framework {
    /// Creates a framework with the default synthesis-tool configuration.
    pub fn new(config: FrameworkConfig) -> Self {
        Framework {
            config,
            engine: Arc::new(EvalEngine::new(EngineConfig::default())),
        }
    }

    /// Creates a framework around a (possibly shared) evaluation engine —
    /// e.g. one backed by a persistent QoR store, reused across sweep points
    /// of an ablation so repeated flows are never re-evaluated.
    pub fn with_engine(config: FrameworkConfig, engine: Arc<EvalEngine>) -> Self {
        Framework { config, engine }
    }

    /// The evaluation engine in use.
    pub fn engine(&self) -> &EvalEngine {
        &self.engine
    }

    /// Runs the complete pipeline on `design` (the "HDL input" of Figure 2).
    pub fn run(&self, design: &Aig) -> FrameworkReport {
        let start = std::time::Instant::now();
        let stats_before = self.engine.stats();
        let cfg = &self.config;
        let ends = round_ends(cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let label = |flows: &[Flow]| self.engine.evaluate_batch(design, flows);

        // ------------------------------------------------------------------
        // 1. Incremental training-data collection + (re-)training.
        // ------------------------------------------------------------------
        let all_training_flows = cfg.space.random_unique_flows(cfg.training_flows, &mut rng);
        let encoder = FlowEncoder::new(cfg.space.num_transforms(), cfg.space.flow_length(), true);
        let mut classifier_config = cfg.classifier.clone();
        classifier_config.seed = cfg.seed ^ 0xC1A55;
        let mut classifier = FlowClassifier::new(encoder, classifier_config);
        let percentiles = class_percentiles(cfg.classifier.num_classes);

        let mut collected_flows: Vec<Flow> = Vec::new();
        let mut collected_qors: Vec<Qor> = Vec::new();
        let mut rounds: Vec<TrainingRound> = Vec::with_capacity(ends.len());
        let mut sample_flows: Vec<Flow> = Vec::new();
        // The labels of the chunk the next round trains on; after the last
        // round, of the sample pool.
        let mut labelled = label(&all_training_flows[..ends[0]]);
        for (k, &end) in ends.iter().enumerate() {
            let begin = collected_flows.len();
            collected_flows.extend_from_slice(&all_training_flows[begin..end]);
            collected_qors.append(&mut labelled);

            // Re-fit the determinators on everything collected so far
            // ("the definitions of classes may change dynamically").
            let values: Vec<f64> = collected_qors
                .iter()
                .map(|q| q.metric(cfg.metric))
                .collect();
            let labeler = Labeler::from_percentiles(cfg.metric, &values, &percentiles);
            let dataset = Dataset::from_evaluations(
                collected_flows.clone(),
                collected_qors.clone(),
                &labeler,
            );
            let (train, holdout) = dataset.split(0.2, &mut rng);
            let next: &[Flow] = match ends.get(k + 1) {
                Some(&next_end) => &all_training_flows[end..next_end],
                None => {
                    sample_flows = cfg.space.random_unique_flows(cfg.sample_flows, &mut rng);
                    &sample_flows
                }
            };
            // Label ahead on this thread while the classifier trains on the
            // other operand; neither reads what the other writes.
            let (qors, (loss, holdout_accuracy)) = rayon::join(
                || label(next),
                || {
                    let loss = classifier.train(&train, cfg.steps_per_round);
                    (loss, classifier.accuracy(&holdout))
                },
            );
            labelled = qors;
            let hist = holdout.class_histogram(cfg.classifier.num_classes);
            let top = hist.into_iter().max().unwrap_or(0);
            rounds.push(TrainingRound {
                labelled_flows: collected_qors.len(),
                training_loss: loss,
                holdout_accuracy,
                holdout_majority: top as f64 / holdout.len().max(1) as f64,
                elapsed_s: start.elapsed().as_secs_f64(),
            });
        }
        let sample_qors = labelled;

        // Final labeler / dataset over all training flows.
        let values: Vec<f64> = collected_qors
            .iter()
            .map(|q| q.metric(cfg.metric))
            .collect();
        let labeler = Labeler::from_percentiles(cfg.metric, &values, &percentiles);
        let dataset = Dataset::from_evaluations(collected_flows, collected_qors, &labeler);

        // ------------------------------------------------------------------
        // 2. Classify the unlabeled sample pool and select angel/devil flows.
        // ------------------------------------------------------------------
        let probabilities = classifier.predict_proba(&sample_flows);
        let selection = select_angel_devil_flows(&sample_flows, &probabilities, cfg.output_flows);

        // ------------------------------------------------------------------
        // 3. Evaluation against ground truth (Section 4).
        // ------------------------------------------------------------------
        let sample_values: Vec<f64> = sample_qors.iter().map(|q| q.metric(cfg.metric)).collect();
        let sample_labeler = Labeler::from_percentiles(cfg.metric, &sample_values, &percentiles);
        let sample_labels: Vec<usize> = sample_qors
            .iter()
            .map(|q| sample_labeler.classify(q))
            .collect();
        let accuracy = angel_devil_accuracy(&selection, &sample_labels, cfg.classifier.num_classes);

        FrameworkReport {
            design: design.name().to_string(),
            metric: cfg.metric,
            selection,
            rounds,
            sample_qors,
            sample_labels,
            selection_accuracy: Some(accuracy),
            dataset,
            eval_stats: self.engine.stats().since(&stats_before),
            runtime_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// How many labelled flows each training round trains on: `initial_flows`
/// (at least one), then every `retrain_interval` more (a zero interval goes
/// straight to the end), and `training_flows` last.
fn round_ends(cfg: &FrameworkConfig) -> Vec<usize> {
    let total = cfg.training_flows;
    assert!(total > 0, "the framework needs at least one training flow");
    let step = if cfg.retrain_interval == 0 {
        total
    } else {
        cfg.retrain_interval
    };
    let mut end = cfg.initial_flows.clamp(1, total);
    let mut ends = vec![end];
    while end < total {
        end = (end + step).min(total);
        ends.push(end);
    }
    ends
}

/// Determinator percentiles for a `num_classes`-class model: the paper's six
/// percentiles for 7 classes, otherwise evenly spread with pinched tails.
fn class_percentiles(num_classes: usize) -> Vec<f64> {
    if num_classes == 7 {
        return PAPER_PERCENTILES.to_vec();
    }
    let n = num_classes - 1;
    (1..=n).map(|i| i as f64 / (n + 1) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{Design, DesignScale};

    fn quick_config(metric: QorMetric) -> FrameworkConfig {
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
            ..FrameworkConfig::laptop(metric)
        }
    }

    #[test]
    fn paper_config_matches_published_numbers() {
        let c = FrameworkConfig::paper(QorMetric::Area);
        assert_eq!(c.training_flows, 10_000);
        assert_eq!(c.initial_flows, 1_000);
        assert_eq!(c.retrain_interval, 500);
        assert_eq!(c.sample_flows, 100_000);
        assert_eq!(c.output_flows, 200);
        assert_eq!(c.classifier.num_classes, 7);
    }

    #[test]
    fn class_percentiles_match_table_1() {
        assert_eq!(class_percentiles(7), PAPER_PERCENTILES.to_vec());
        let p5 = class_percentiles(5);
        assert_eq!(p5.len(), 4);
        assert!(p5.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn end_to_end_run_produces_flows_and_rounds() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let framework = Framework::new(quick_config(QorMetric::Area));
        let report = framework.run(&design);
        assert_eq!(report.design, design.name());
        assert!(
            !report.rounds.is_empty(),
            "incremental training must happen"
        );
        assert!(report.rounds.len() >= 2, "re-training after the interval");
        assert!(report.dataset.len() == 24);
        assert!(
            !report.selection.angel_flows.is_empty() || !report.selection.devil_flows.is_empty()
        );
        assert_eq!(report.sample_qors.len(), 30);
        assert_eq!(report.sample_labels.len(), 30);
        assert!(report.selection_accuracy.is_some());
        let acc = report.selection_accuracy.unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(report.runtime_s > 0.0);
        // Angel/devil QoR vectors are consistent with the selection sizes.
        assert_eq!(
            report.angel_qors().len(),
            report.selection.angel_flows.len()
        );
        assert_eq!(
            report.devil_qors().len(),
            report.selection.devil_flows.len()
        );
        // Rounds record monotonically increasing labelled-flow counts.
        assert!(report
            .rounds
            .windows(2)
            .all(|w| w[0].labelled_flows < w[1].labelled_flows));
    }

    #[test]
    fn holdout_majority_is_taken_over_each_rounds_own_split() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let report = Framework::new(quick_config(QorMetric::Area)).run(&design);
        // Hold-out sets of 2, 4 and 5 flows (a fifth of 12, 18 and 24).
        let majorities: Vec<f64> = report.rounds.iter().map(|r| r.holdout_majority).collect();
        assert_eq!(majorities, vec![1.0, 0.75, 1.0]);
    }

    #[test]
    fn report_surfaces_engine_statistics() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let framework = Framework::new(quick_config(QorMetric::Area));
        let report = framework.run(&design);
        let stats = report.eval_stats;
        // Training flows + evaluated samples all went through the engine.
        assert_eq!(stats.flows_requested, 24 + 30);
        assert_eq!(
            stats.store_hits + stats.flows_evaluated,
            stats.flows_requested
        );
        // Full-length m-repetition flows keep reaching the same graphs, so
        // the state graph must save passes relative to naive evaluation.
        assert!(stats.passes_applied < stats.passes_requested);
        assert!(stats.mappings_run > 0);
        // Running the identical configuration again is answered from the
        // engine's store without a single new transform pass.
        let again = framework.run(&design);
        assert_eq!(
            again.eval_stats.store_hits,
            again.eval_stats.flows_requested
        );
        assert_eq!(again.eval_stats.passes_applied, 0);
        assert_eq!(again.sample_qors, report.sample_qors);
    }

    #[test]
    fn rounds_end_at_the_initial_flows_then_every_interval() {
        let ends = |training_flows, initial_flows, retrain_interval| {
            round_ends(&FrameworkConfig {
                training_flows,
                initial_flows,
                retrain_interval,
                ..quick_config(QorMetric::Area)
            })
        };
        assert_eq!(ends(24, 12, 6), vec![12, 18, 24]);
        assert_eq!(ends(25, 12, 6), vec![12, 18, 24, 25]);
        assert_eq!(ends(8, 20, 3), vec![8]);
        assert_eq!(ends(8, 0, 3), vec![1, 4, 7, 8]);
        assert_eq!(ends(8, 4, 0), vec![4, 8]);
        assert_eq!(ends(8, 8, 0), vec![8]);
    }

    #[test]
    fn zero_retrain_interval_trains_the_rest_in_one_round() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let report = Framework::new(FrameworkConfig {
            training_flows: 8,
            initial_flows: 4,
            retrain_interval: 0,
            ..quick_config(QorMetric::Area)
        })
        .run(&design);
        let labelled: Vec<usize> = report.rounds.iter().map(|r| r.labelled_flows).collect();
        assert_eq!(labelled, vec![4, 8]);
        assert_eq!(report.dataset.len(), 8);
    }

    #[test]
    fn laptop_config_is_smaller_than_paper() {
        let l = FrameworkConfig::laptop(QorMetric::Delay);
        let p = FrameworkConfig::paper(QorMetric::Delay);
        assert!(l.training_flows < p.training_flows);
        assert!(l.sample_flows < p.sample_flows);
        assert_eq!(l.metric, QorMetric::Delay);
    }
}
