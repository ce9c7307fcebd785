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
    /// Total number of labelled training flows to collect (paper: 10,000).
    pub training_flows: usize,
    /// Number of labelled flows required before the first training round (paper: 1000).
    pub initial_flows: usize,
    /// Re-train after this many newly labelled flows (paper: 500).
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
    /// Cumulative wall-clock seconds spent (data collection + training).
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
    /// Total wall-clock runtime in seconds.
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
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // ------------------------------------------------------------------
        // 1. Incremental training-data collection + (re-)training.
        // ------------------------------------------------------------------
        let all_training_flows = cfg.space.random_unique_flows(cfg.training_flows, &mut rng);
        let encoder = FlowEncoder::new(cfg.space.num_transforms(), cfg.space.flow_length(), true);
        let mut classifier_config = cfg.classifier.clone();
        classifier_config.seed = cfg.seed ^ 0xC1A55;
        let mut classifier = FlowClassifier::new(encoder, classifier_config);

        let mut collected_flows: Vec<Flow> = Vec::new();
        let mut collected_qors: Vec<Qor> = Vec::new();
        let mut rounds: Vec<TrainingRound> = Vec::new();
        let mut next_train_at = cfg.initial_flows.min(cfg.training_flows).max(1);

        let mut cursor = 0usize;
        while cursor < all_training_flows.len() {
            let end = next_train_at.min(all_training_flows.len());
            let chunk = &all_training_flows[cursor..end];
            let qors = self.engine.evaluate_batch(design, chunk);
            collected_flows.extend_from_slice(chunk);
            collected_qors.extend_from_slice(&qors);
            cursor = end;

            // Re-fit the determinators on everything collected so far
            // ("the definitions of classes may change dynamically").
            let values: Vec<f64> = collected_qors
                .iter()
                .map(|q| q.metric(cfg.metric))
                .collect();
            let percentiles = class_percentiles(cfg.classifier.num_classes);
            let labeler = Labeler::from_percentiles(cfg.metric, &values, &percentiles);
            let dataset = Dataset::from_evaluations(
                collected_flows.clone(),
                collected_qors.clone(),
                &labeler,
            );
            let (train, holdout) = dataset.split(0.2, &mut rng);
            let loss = classifier.train(&train, cfg.steps_per_round);
            let holdout_accuracy = classifier.accuracy(&holdout);
            let hist = holdout.class_histogram(cfg.classifier.num_classes);
            let top = hist.into_iter().max().unwrap_or(0);
            rounds.push(TrainingRound {
                labelled_flows: collected_qors.len(),
                training_loss: loss,
                holdout_accuracy,
                holdout_majority: top as f64 / holdout.len().max(1) as f64,
                elapsed_s: start.elapsed().as_secs_f64(),
            });
            next_train_at = (next_train_at + cfg.retrain_interval).min(cfg.training_flows);
        }

        // Final labeler / dataset over all training flows.
        let values: Vec<f64> = collected_qors
            .iter()
            .map(|q| q.metric(cfg.metric))
            .collect();
        let percentiles = class_percentiles(cfg.classifier.num_classes);
        let labeler = Labeler::from_percentiles(cfg.metric, &values, &percentiles);
        let dataset = Dataset::from_evaluations(collected_flows, collected_qors, &labeler);

        // ------------------------------------------------------------------
        // 2. Classify the unlabeled sample pool and select angel/devil flows.
        // ------------------------------------------------------------------
        let sample_flows = cfg.space.random_unique_flows(cfg.sample_flows, &mut rng);
        let probabilities = classifier.predict_proba(&sample_flows);
        let selection = select_angel_devil_flows(&sample_flows, &probabilities, cfg.output_flows);

        // ------------------------------------------------------------------
        // 3. Evaluation against ground truth (Section 4).
        // ------------------------------------------------------------------
        let sample_qors = self.engine.evaluate_batch(design, &sample_flows);
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
    fn laptop_config_is_smaller_than_paper() {
        let l = FrameworkConfig::laptop(QorMetric::Delay);
        let p = FrameworkConfig::paper(QorMetric::Delay);
        assert!(l.training_flows < p.training_flows);
        assert!(l.sample_flows < p.sample_flows);
        assert_eq!(l.metric, QorMetric::Delay);
    }
}
