//! Labelled flow datasets.
//!
//! Component 1 of the framework (Figure 2) produces "training flows": random
//! flows together with the QoR obtained by actually running them through the
//! synthesis tool.  This module stores those records, derives labels with a
//! [`Labeler`](crate::Labeler), splits train/test sets and serves mini-batches.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use synth::{Qor, QorMetric};

use crate::flow::Flow;
use crate::label::Labeler;

/// One labelled training example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledFlow {
    /// The synthesis flow.
    pub flow: Flow,
    /// The QoR measured by running the flow.
    pub qor: Qor,
    /// The class assigned by the labelling model.
    pub label: usize,
}

/// A set of labelled flows for one design and one optimisation metric.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    examples: Vec<LabeledFlow>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset {
            examples: Vec::new(),
        }
    }

    /// Builds a seeded synthetic dataset over the paper's flow space whose
    /// label depends on an easily-learnable feature (the position of the
    /// first `Balance` transform), plus the flows it was built from.
    ///
    /// Used by the classifier tests and `flowbench`'s `cnn_train` workload:
    /// it gives every harness the exact same learnable workload without
    /// evaluating real designs.
    pub fn synthetic_balance(count: usize, num_classes: usize) -> (Dataset, Vec<Flow>) {
        use rand::SeedableRng;
        let space = crate::space::FlowSpace::paper();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let flows = space.random_unique_flows(count, &mut rng);
        let qors: Vec<Qor> = flows
            .iter()
            .map(|f| {
                let pos = f
                    .transforms()
                    .iter()
                    .position(|&t| t == synth::Transform::Balance)
                    .unwrap_or(f.len());
                Qor {
                    area_um2: pos as f64 + 1.0,
                    delay_ps: pos as f64 + 1.0,
                    gates: 0,
                    and_nodes: 0,
                    depth: 0,
                }
            })
            .collect();
        let percentiles: Vec<f64> = (1..num_classes)
            .map(|i| i as f64 / num_classes as f64)
            .collect();
        let values: Vec<f64> = qors.iter().map(|q| q.area_um2).collect();
        let labeler = Labeler::from_percentiles(QorMetric::Area, &values, &percentiles);
        let eval_flows = flows.clone();
        (Dataset::from_evaluations(flows, qors, &labeler), eval_flows)
    }

    /// Builds a dataset by labelling `(flow, qor)` pairs with `labeler`.
    pub fn from_evaluations(flows: Vec<Flow>, qors: Vec<Qor>, labeler: &Labeler) -> Self {
        assert_eq!(flows.len(), qors.len(), "one QoR per flow required");
        let examples = flows
            .into_iter()
            .zip(qors)
            .map(|(flow, qor)| LabeledFlow {
                label: labeler.classify(&qor),
                flow,
                qor,
            })
            .collect();
        Dataset { examples }
    }

    /// Adds one labelled example.
    pub fn push(&mut self, example: LabeledFlow) {
        self.examples.push(example);
    }

    /// The labelled examples.
    pub fn examples(&self) -> &[LabeledFlow] {
        &self.examples
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Returns `true` when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Count of examples per class.
    pub fn class_histogram(&self, num_classes: usize) -> Vec<usize> {
        let mut hist = vec![0usize; num_classes];
        for e in &self.examples {
            if e.label < num_classes {
                hist[e.label] += 1;
            }
        }
        hist
    }

    /// Splits into `(train, test)` with `test_fraction` of examples held out,
    /// shuffling with the provided RNG.
    pub fn split(&self, test_fraction: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&test_fraction),
            "fraction must be in [0, 1)"
        );
        let mut shuffled = self.examples.clone();
        shuffled.shuffle(rng);
        let test_len = (shuffled.len() as f64 * test_fraction).round() as usize;
        let test = shuffled.split_off(shuffled.len() - test_len.min(shuffled.len()));
        (Dataset { examples: shuffled }, Dataset { examples: test })
    }

    /// Draws a random mini-batch of `batch_size` examples (with replacement if
    /// the dataset is smaller than the batch).
    pub fn sample_batch<'a>(
        &'a self,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Vec<&'a LabeledFlow> {
        assert!(!self.is_empty(), "cannot sample from an empty dataset");
        (0..batch_size)
            .map(|_| &self.examples[rng.gen_range(0..self.examples.len())])
            .collect()
    }

    /// Serialises the dataset to JSON (the paper releases its datasets publicly;
    /// this is the equivalent artefact).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(&self.examples)
    }

    /// Restores a dataset from its JSON form.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        Ok(Dataset {
            examples: serde_json::from_str(json)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use synth::Transform;

    fn toy_dataset(n: usize) -> Dataset {
        let flows: Vec<Flow> = (0..n)
            .map(|i| Flow::new(vec![Transform::from_index(i % Transform::COUNT)]))
            .collect();
        let qors: Vec<Qor> = (0..n)
            .map(|i| Qor {
                area_um2: (i + 1) as f64,
                delay_ps: (n - i) as f64,
                gates: i,
                and_nodes: i,
                depth: 1,
            })
            .collect();
        let labeler = Labeler::paper_model(QorMetric::Area, &qors);
        Dataset::from_evaluations(flows, qors, &labeler)
    }

    #[test]
    fn labels_follow_the_metric_ordering() {
        let ds = toy_dataset(200);
        assert_eq!(ds.len(), 200);
        assert!(!ds.is_empty());
        // The first example has the smallest area, so it is in class 0.
        assert_eq!(ds.examples()[0].label, 0);
        assert_eq!(ds.examples()[199].label, 6);
        let hist = ds.class_histogram(7);
        assert_eq!(hist.iter().sum::<usize>(), 200);
        assert!(hist[0] > 0 && hist[6] > 0);
    }

    #[test]
    fn relabeling_with_delay_flips_the_order() {
        let (flows, qors): (Vec<Flow>, Vec<Qor>) = toy_dataset(100)
            .examples()
            .iter()
            .map(|e| (e.flow.clone(), e.qor))
            .unzip();
        let delay_labeler = Labeler::paper_model(QorMetric::Delay, &qors);
        let ds = Dataset::from_evaluations(flows, qors, &delay_labeler);
        assert_eq!(
            ds.examples()[0].label,
            6,
            "smallest area has the largest delay"
        );
        assert_eq!(ds.examples()[99].label, 0);
    }

    #[test]
    fn split_partitions_examples() {
        let ds = toy_dataset(100);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (train, test) = ds.split(0.2, &mut rng);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert_eq!(train.len() + test.len(), ds.len());
    }

    #[test]
    fn batches_have_requested_size() {
        let ds = toy_dataset(10);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch = ds.sample_batch(5, &mut rng);
        assert_eq!(batch.len(), 5);
    }

    #[test]
    fn json_roundtrip() {
        let ds = toy_dataset(10);
        let json = ds.to_json().expect("serialise");
        let back = Dataset::from_json(&json).expect("deserialise");
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.examples()[3], ds.examples()[3]);
    }
}
