//! `flowc reproduce`: the paper's experiments as one JSON document.
//!
//! Eleven studies — Remark 3's space counts, Figures 1 and 4–8, Table 2 and
//! three ablations — run on one [`EvalEngine`], so a flow two studies share
//! is evaluated once (and, with a persistent store, once across runs).  Each
//! study has a fixed seed: a scale and a design list determine every number
//! of the report except the wall times.
//!
//! Every accuracy is reported beside the majority class's share of the labels
//! it was measured on, the accuracy a classifier reaches by always answering
//! that class.

use std::sync::Arc;
use std::time::Instant;

use aig::Aig;
use circuits::{Design, DesignScale};
use floweval::EvalEngine;
use flowgen::{
    select_angel_devil_flows, Activation, ClassifierConfig, Dataset, Flow, FlowClassifier,
    FlowEncoder, FlowSpace, Framework, FrameworkConfig, GradientDescent, Labeler, SelectedFlow,
    Selection, Tensor,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use synth::{Qor, QorMetric, Transform};

use crate::object;

/// Flow and step counts of the studies at one scale.
#[derive(Clone, Copy)]
pub(crate) struct Counts {
    /// Labelled training flows a study collects.
    training_flows: usize,
    /// Unlabelled sample flows the classifier ranks.
    sample_flows: usize,
    /// Random flows per design in Figure 1.
    distribution_flows: usize,
    /// Angel- and devil-flows a selection keeps.
    output_flows: usize,
    /// Mini-batch training steps.
    training_steps: usize,
}

/// The counts at each scale: `Tiny` runs in seconds, `Full` approaches the
/// paper's setup and takes hours.
const fn counts(scale: DesignScale) -> Counts {
    match scale {
        DesignScale::Tiny => Counts {
            training_flows: 120,
            sample_flows: 200,
            distribution_flows: 200,
            output_flows: 20,
            training_steps: 300,
        },
        DesignScale::Small => Counts {
            training_flows: 600,
            sample_flows: 2_000,
            distribution_flows: 1_000,
            output_flows: 50,
            training_steps: 1_500,
        },
        DesignScale::Full => Counts {
            training_flows: 10_000,
            sample_flows: 100_000,
            distribution_flows: 50_000,
            output_flows: 200,
            training_steps: 100_000,
        },
    }
}

/// Runs all eleven studies and returns them as one JSON object keyed by
/// study; each study is `{"paper": <the paper's claim>, "results": …}`.
///
/// `designs` feeds the studies that run over a design list (Figures 4, 5
/// and 8); the others use fixed paper designs at `scale`.
pub(crate) fn run(engine: Arc<EvalEngine>, scale: DesignScale, designs: &[(String, Aig)]) -> Value {
    let s = Studies::new(engine, scale);
    object! {
        "space_counts" => object! {
            "paper" => "Remark 3: more than 10^16 flows (n = 6, m = 4; the exact count is 3.2e15).",
            "results" => space_counts(),
        },
        "fig1_qor_distribution" => object! {
            "paper" => "AES delay spread up to ~40% and area spread up to ~90% across flows.",
            "results" => s.fig1(),
        },
        "fig4_optimizers_area" => object! {
            "paper" => "RMSProp outperforms the other algorithms and reaches ~95% accuracy.",
            "results" => s.optimizers(QorMetric::Area, designs),
        },
        "fig5_optimizers_delay" => object! {
            "paper" => "RMSProp outperforms the other algorithms and reaches ~95% accuracy.",
            "results" => s.optimizers(QorMetric::Delay, designs),
        },
        "fig6_kernel_size" => object! {
            "paper" => "n x 2n kernels (3x6, 6x12) beat the square 6x6 kernel.",
            "results" => s.fig6(),
        },
        "fig7_activations" => object! {
            "paper" => "ELU/SELU/Softsign/Tanh outperform the others; SELU is the most reliable.",
            "results" => s.fig7(),
        },
        "fig8_flow_quality" => object! {
            "paper" => "Angel-flows sit at the best edge of the sample cloud, devils at the worst.",
            "results" => s.fig8(designs),
        },
        "tab2_selection" => object! {
            "paper" => "Example 4: F1 (0.51) and F0 (0.47) are Table 2's angel-flows.",
            "results" => s.tab2(),
        },
        "ablation_num_classes" => object! {
            "paper" => "No counterpart: the paper fixes 7 classes (Table 1).",
            "results" => s.ablation_num_classes(),
        },
        "ablation_retrain_interval" => object! {
            "paper" => "No counterpart: the paper re-trains every 500 new flows.",
            "results" => s.ablation_retrain_interval(),
        },
        "ablation_selection_confidence" => object! {
            "paper" => "No counterpart: Section 3.3 ranks class 0 by confidence.",
            "results" => s.ablation_selection_confidence(),
        },
    }
}

/// Remark 3: the number of m-repetition flows, `f(n, L, m)`.
fn space_counts() -> Value {
    let count = |n: usize, m: usize, length: usize| {
        let flows = u64::try_from(FlowSpace::new(n, m).num_partial_flows(length))
            .expect("Remark 3's counts fit in 64 bits");
        object! { "n" => n, "m" => m, "length" => length, "flows" => flows }
    };
    let complete: Vec<Value> = (2..=6)
        .flat_map(|n| (1..=4).map(move |m| count(n, m, n * m)))
        .collect();
    let partial: Vec<Value> = [1, 4, 8, 12, 16, 20, 24]
        .into_iter()
        .map(|length| count(6, 4, length))
        .collect();
    let paper = u64::try_from(FlowSpace::paper().num_complete_flows()).expect("fits in 64 bits");
    object! { "complete" => complete, "partial" => partial, "paper_flows" => paper }
}

/// Table 2 of the paper: five flows' class probabilities.
const TABLE_2: [f32; 35] = [
    0.47, 0.13, 0.22, 0.02, 0.03, 0.12, 0.01, //
    0.51, 0.12, 0.01, 0.09, 0.17, 0.08, 0.02, //
    0.02, 0.45, 0.14, 0.12, 0.11, 0.10, 0.06, //
    0.12, 0.03, 0.17, 0.62, 0.01, 0.02, 0.03, //
    0.35, 0.23, 0.09, 0.02, 0.13, 0.17, 0.01, //
];

/// Example 4: the selection rule applied to Table 2 (flow `i` is `F<i>`).
fn table_2_selection() -> Selection {
    let flows: Vec<Flow> = (0..5)
        .map(|i| Flow::new(vec![Transform::from_index(i % Transform::COUNT)]))
        .collect();
    select_angel_devil_flows(&flows, &Tensor::from_vec(&[5, 7], TABLE_2.to_vec()), 2)
}

/// Minimum, maximum, mean and relative spread of a sample.
#[derive(Serialize)]
struct Summary {
    min: f64,
    max: f64,
    mean: f64,
    /// `(max - min) / min` in percent (0 when `min` is not positive).
    spread_pct: f64,
}

/// Summarizes `values`; `None` when there are none.
fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    Some(Summary {
        min,
        max,
        mean: values.iter().sum::<f64>() / values.len() as f64,
        spread_pct: if min > 0.0 {
            (max - min) / min * 100.0
        } else {
            0.0
        },
    })
}

/// Counts of `values` in `bins` equal-width bins from their minimum to their
/// maximum; empty when all values are equal.
fn histogram(values: &[f64], bins: usize) -> Vec<usize> {
    let Some(s) = summarize(values).filter(|s| s.max > s.min) else {
        return Vec::new();
    };
    let width = (s.max - s.min) / bins as f64;
    let mut counts = vec![0; bins];
    for &v in values {
        counts[(((v - s.min) / width) as usize).min(bins - 1)] += 1;
    }
    counts
}

/// The share of the most frequent label; `None` for no labels.
fn majority_share(labels: impl IntoIterator<Item = usize>) -> Option<f64> {
    let mut counts: Vec<usize> = Vec::new();
    for label in labels {
        if label >= counts.len() {
            counts.resize(label + 1, 0);
        }
        counts[label] += 1;
    }
    let total: usize = counts.iter().sum();
    counts.iter().max().map(|&top| top as f64 / total as f64)
}

/// The count and mean true QoR of selected flows (`selected` indexes
/// `qors`); the mean is `null` when nothing was selected.
fn selection_qor(selected: &[SelectedFlow], qors: &[Qor], metric: QorMetric) -> Value {
    let values: Vec<f64> = selected
        .iter()
        .map(|s| qors[s.index].metric(metric))
        .collect();
    object! { "count" => selected.len(), "mean" => summarize(&values).map(|s| s.mean) }
}

/// One hold-out accuracy measurement of a training curve.
#[derive(Serialize)]
struct CurvePoint {
    /// Mini-batch steps completed.
    steps: usize,
    /// Seconds since data collection started (collection included).
    elapsed_s: f64,
    accuracy: f64,
}

/// Hold-out accuracy over training time of one classifier configuration.
#[derive(Serialize)]
struct Curve {
    design: String,
    /// The configuration: optimiser, kernel or activation.
    label: String,
    /// Majority-class share of the hold-out labels.
    majority: Option<f64>,
    points: Vec<CurvePoint>,
}

/// Random flows evaluated on one design and labelled by the paper's model.
pub(crate) struct Collected {
    design: String,
    pub(crate) flows: Vec<Flow>,
    pub(crate) qors: Vec<Qor>,
    pub(crate) dataset: Dataset,
    pub(crate) seconds: f64,
}

pub(crate) struct Studies {
    engine: Arc<EvalEngine>,
    scale: DesignScale,
    counts: Counts,
}

impl Studies {
    /// The studies at `scale`, evaluating on `engine`.
    pub(crate) fn new(engine: Arc<EvalEngine>, scale: DesignScale) -> Self {
        Studies {
            engine,
            scale,
            counts: counts(scale),
        }
    }

    /// Evaluates `count` random paper-space flows drawn from `seed` on a
    /// named design.
    pub(crate) fn collect(
        &self,
        (name, aig): &(String, Aig),
        metric: QorMetric,
        count: usize,
        seed: u64,
    ) -> Collected {
        let start = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flows = FlowSpace::paper().random_unique_flows(count, &mut rng);
        let qors = self.engine.evaluate_batch(aig, &flows);
        let labeler = Labeler::paper_model(metric, &qors);
        Collected {
            design: name.clone(),
            dataset: Dataset::from_evaluations(flows.clone(), qors.clone(), &labeler),
            flows,
            qors,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// A paper design at this scale, with its name.
    pub(crate) fn design(&self, design: Design) -> (String, Aig) {
        (design.name().to_string(), design.generate(self.scale))
    }

    /// A classifier of the default configuration trained on `data`.
    fn trained_classifier(&self, data: &Collected) -> FlowClassifier {
        let mut classifier = FlowClassifier::new(FlowEncoder::paper(), ClassifierConfig::default());
        classifier.train(&data.dataset, self.counts.training_steps);
        classifier
    }

    /// Trains `config` on three quarters of `data`, measuring the hold-out
    /// accuracy at `checkpoints` evenly spaced points of the training steps
    /// (the accuracy-over-time axes of Figures 4–6).
    fn curve(
        &self,
        data: &Collected,
        label: &str,
        config: ClassifierConfig,
        checkpoints: usize,
        seed: u64,
    ) -> Curve {
        let (train, holdout) = data
            .dataset
            .split(0.25, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut classifier = FlowClassifier::new(FlowEncoder::paper(), config);
        let start = Instant::now();
        let total = self.counts.training_steps;
        let chunk = (total / checkpoints.max(1)).max(1);
        let mut points = Vec::new();
        let mut steps = 0;
        while steps < total {
            classifier.train(&train, chunk);
            steps += chunk;
            points.push(CurvePoint {
                steps,
                elapsed_s: data.seconds + start.elapsed().as_secs_f64(),
                accuracy: classifier.accuracy(&holdout),
            });
        }
        Curve {
            design: data.design.clone(),
            label: label.to_string(),
            majority: majority_share(holdout.examples().iter().map(|e| e.label)),
            points,
        }
    }

    /// The framework set-up Figure 8 and the ablations start from.
    fn framework_config(&self, metric: QorMetric) -> FrameworkConfig {
        let c = self.counts;
        FrameworkConfig {
            training_flows: c.training_flows,
            initial_flows: (c.training_flows / 2).max(1),
            retrain_interval: (c.training_flows / 4).max(1),
            steps_per_round: c.training_steps / 2,
            sample_flows: c.sample_flows,
            output_flows: c.output_flows,
            ..FrameworkConfig::laptop(metric)
        }
    }

    /// One framework run (Figure 8 and the first two ablations).  The
    /// hold-out majority is the last round's, taken over the same hold-out
    /// split as `holdout_accuracy`; the selection majority over the sample
    /// flows' true labels.
    fn framework_run(&self, (name, aig): &(String, Aig), config: FrameworkConfig) -> Value {
        let report = Framework::with_engine(config.clone(), Arc::clone(&self.engine)).run(aig);
        let metric = config.metric;
        let sample: Vec<f64> = report
            .sample_qors
            .iter()
            .map(|q| q.metric(metric))
            .collect();
        let selected = |flows| selection_qor(flows, &report.sample_qors, metric);
        object! {
            "design" => name,
            "metric" => metric.to_string(),
            "classes" => config.classifier.num_classes,
            "retrain_interval" => config.retrain_interval,
            "rounds" => report.rounds.len(),
            "holdout_accuracy" => report.rounds.last().map(|r| r.holdout_accuracy),
            "holdout_majority" => report.rounds.last().map(|r| r.holdout_majority),
            "selection_accuracy" => report.selection_accuracy,
            "selection_majority" => majority_share(report.sample_labels.iter().copied()),
            "sample" => summarize(&sample),
            "angels" => selected(&report.selection.angel_flows),
            "devils" => selected(&report.selection.devil_flows),
        }
    }

    /// Figure 1: the QoR spread of random flows on the AES core and the ALU.
    fn fig1(&self) -> Vec<Value> {
        [Design::Aes128, Design::Alu64]
            .into_iter()
            .map(|design| {
                let flows = self.counts.distribution_flows;
                let data = self.collect(&self.design(design), QorMetric::Area, flows, 0xF161);
                let areas: Vec<f64> = data.qors.iter().map(|q| q.area_um2).collect();
                let delays: Vec<f64> = data.qors.iter().map(|q| q.delay_ps).collect();
                object! {
                    "design" => data.design,
                    "flows" => data.qors.len(),
                    "area_um2" => summarize(&areas),
                    "delay_ps" => summarize(&delays),
                    "area_histogram" => histogram(&areas, 10),
                    "delay_histogram" => histogram(&delays, 10),
                }
            })
            .collect()
    }

    /// Figures 4 (area-driven) and 5 (delay-driven): one curve per optimiser
    /// and design.
    fn optimizers(&self, metric: QorMetric, designs: &[(String, Aig)]) -> Vec<Curve> {
        let mut curves = Vec::new();
        for design in designs {
            let data = self.collect(design, metric, self.counts.training_flows, 0xF164);
            for optimizer in GradientDescent::PAPER_SET {
                let config = ClassifierConfig {
                    optimizer,
                    ..ClassifierConfig::default()
                };
                curves.push(self.curve(&data, optimizer.name(), config, 4, 0x0F7));
            }
        }
        curves
    }

    /// Figure 6: kernel sizes on the AES core, delay-driven.
    fn fig6(&self) -> Vec<Curve> {
        let aes = self.design(Design::Aes128);
        let data = self.collect(&aes, QorMetric::Delay, self.counts.training_flows, 0xF166);
        [(3, 6), (6, 6), (6, 12)]
            .into_iter()
            .map(|kernel| {
                let config = ClassifierConfig {
                    kernel,
                    ..ClassifierConfig::default()
                };
                let label = format!("{}x{}", kernel.0, kernel.1);
                self.curve(&data, &label, config, 4, 0x0F8)
            })
            .collect()
    }

    /// Figure 7: activation functions on the AES core, delay-driven; one
    /// accuracy per activation, after all training steps.
    fn fig7(&self) -> Vec<Curve> {
        let aes = self.design(Design::Aes128);
        let data = self.collect(&aes, QorMetric::Delay, self.counts.training_flows, 0xF167);
        Activation::PAPER_SET
            .into_iter()
            .map(|activation| {
                let config = ClassifierConfig {
                    activation,
                    ..ClassifierConfig::default()
                };
                self.curve(&data, activation.name(), config, 1, 0x0F9)
            })
            .collect()
    }

    /// Figure 8: the framework, area- and delay-driven, on each design.
    fn fig8(&self, designs: &[(String, Aig)]) -> Vec<Value> {
        designs
            .iter()
            .flat_map(|design| {
                QorMetric::ALL
                    .map(|metric| self.framework_run(design, self.framework_config(metric)))
            })
            .collect()
    }

    /// Table 2: the literal example, then the top five angel candidates of a
    /// trained classifier (ALU, area-driven).
    fn tab2(&self) -> Value {
        let pick = |flow: String, p: f32| object! { "flow" => flow, "confidence" => p };
        let literal: Vec<Value> = table_2_selection()
            .angel_flows
            .iter()
            .map(|s| pick(format!("F{}", s.index), s.confidence))
            .collect();
        let flows = self.counts.training_flows;
        let data = self.collect(&self.design(Design::Alu64), QorMetric::Area, flows, 0x7AB2);
        let mut classifier = self.trained_classifier(&data);
        let mut rng = ChaCha8Rng::seed_from_u64(0x7AB2);
        let samples = FlowSpace::paper().random_unique_flows(self.counts.sample_flows, &mut rng);
        let probabilities = classifier.predict_proba(&samples);
        let trained: Vec<Value> = select_angel_devil_flows(&samples, &probabilities, 5)
            .angel_flows
            .iter()
            .map(|s| pick(s.flow.to_script(), s.confidence))
            .collect();
        object! { "literal" => literal, "trained" => trained }
    }

    /// Varies the number of QoR classes (ALU, area-driven).
    fn ablation_num_classes(&self) -> Vec<Value> {
        let alu = self.design(Design::Alu64);
        [3, 5, 7, 9]
            .into_iter()
            .map(|classes| {
                let mut config = self.framework_config(QorMetric::Area);
                config.classifier.num_classes = classes;
                self.framework_run(&alu, config)
            })
            .collect()
    }

    /// Varies the re-training interval at a constant training budget (ALU,
    /// area-driven).
    fn ablation_retrain_interval(&self) -> Vec<Value> {
        let alu = self.design(Design::Alu64);
        [2, 4, 8]
            .into_iter()
            .map(|divisor| {
                let interval = (self.counts.training_flows / divisor).max(1);
                let config = FrameworkConfig {
                    initial_flows: interval,
                    retrain_interval: interval,
                    steps_per_round: self.counts.training_steps / divisor,
                    ..self.framework_config(QorMetric::Area)
                };
                self.framework_run(&alu, config)
            })
            .collect()
    }

    /// Confidence-ranked selection against random flows among all predicted
    /// in class 0 (ALU, area-driven): the mean area of each.
    fn ablation_selection_confidence(&self) -> Value {
        let (alu, metric) = (self.design(Design::Alu64), QorMetric::Area);
        let train = self.collect(&alu, metric, self.counts.training_flows, 0xAB1A);
        let mut classifier = self.trained_classifier(&train);
        let sample = self.collect(&alu, metric, self.counts.sample_flows.min(400), 0xAB1B);
        let probabilities = classifier.predict_proba(&sample.flows);
        let k = self.counts.output_flows;
        let confident = select_angel_devil_flows(&sample.flows, &probabilities, k);
        let mut random_pool =
            select_angel_devil_flows(&sample.flows, &probabilities, usize::MAX).angel_flows;
        random_pool.shuffle(&mut ChaCha8Rng::seed_from_u64(0xAB1C));
        random_pool.truncate(k);
        let areas: Vec<f64> = sample.qors.iter().map(|q| q.area_um2).collect();
        object! {
            "sample_mean_area" => summarize(&areas).map(|s| s.mean),
            "random_class0" => selection_qor(&random_pool, &sample.qors, metric),
            "confident" => selection_qor(&confident.angel_flows, &sample.qors, metric),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remark_3_paper_space_count() {
        let counts = space_counts();
        let paper = counts.get("paper_flows").cloned();
        assert_eq!(paper, Some(Value::U64(3_246_670_537_110_000)));
        let partial = counts.get("partial").and_then(Value::as_array).unwrap();
        assert_eq!(partial.last().unwrap().get("flows").cloned(), paper);
    }

    #[test]
    fn table_2_selects_f1_then_f0() {
        let selection = table_2_selection();
        let picks: Vec<(usize, f32)> = selection
            .angel_flows
            .iter()
            .map(|s| (s.index, s.confidence))
            .collect();
        assert_eq!(picks, [(1, 0.51), (0, 0.47)]);
    }

    #[test]
    fn flow_counts_grow_with_scale() {
        let scales = [DesignScale::Tiny, DesignScale::Small, DesignScale::Full].map(counts);
        for pair in scales.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(a.training_flows < b.training_flows && a.sample_flows < b.sample_flows);
            assert!(a.distribution_flows < b.distribution_flows);
            assert!(a.output_flows < b.output_flows && a.training_steps < b.training_steps);
        }
        assert_eq!(scales[2].training_flows, 10_000);
        assert_eq!(scales[2].sample_flows, 100_000);
    }

    #[test]
    fn empty_selection_has_a_null_mean() {
        let empty = Selection::default();
        let qor = selection_qor(&empty.devil_flows, &[], QorMetric::Area);
        assert_eq!(
            serde_json::to_string(&qor).unwrap(),
            r#"{"count":0,"mean":null}"#
        );
    }

    #[test]
    fn summary_histogram_and_majority() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let s = summarize(&values).unwrap();
        assert_eq!((s.min, s.max, s.mean, s.spread_pct), (1.0, 4.0, 2.5, 300.0));
        assert_eq!(histogram(&values, 3), [1, 1, 2]);
        assert!(histogram(&[2.0, 2.0], 3).is_empty());
        assert!(summarize(&[]).is_none());
        assert_eq!(majority_share([0, 3, 3, 1]), Some(0.5));
        assert_eq!(majority_share([]), None);
    }

    #[test]
    fn training_curve_has_requested_checkpoints() {
        let studies = Studies {
            engine: Arc::new(EvalEngine::new(floweval::EngineConfig::default())),
            scale: DesignScale::Tiny,
            counts: Counts {
                training_steps: 40,
                ..counts(DesignScale::Tiny)
            },
        };
        let data = studies.collect(&studies.design(Design::Alu64), QorMetric::Area, 20, 5);
        let sizes = (data.flows.len(), data.qors.len(), data.dataset.len());
        assert_eq!(sizes, (20, 20, 20));
        let config = ClassifierConfig {
            num_kernels: 2,
            dense_units: 8,
            ..ClassifierConfig::default()
        };
        let curve = studies.curve(&data, "small", config, 4, 1);
        assert_eq!(curve.points.len(), 4);
        assert!(curve.points.windows(2).all(|w| w[0].steps < w[1].steps));
        let in_range = |p: &CurvePoint| (0.0..=1.0).contains(&p.accuracy);
        assert!(curve.points.iter().all(in_range));
        assert!(curve.points.iter().all(|p| p.elapsed_s >= data.seconds));
        assert!(curve.majority.is_some_and(|m| m > 0.0 && m <= 1.0));
    }
}
