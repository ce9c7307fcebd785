//! The CNN flow classifier (Section 3.2 / Figure 3 of the paper).
//!
//! Architecture (Figure 3): two convolution + max-pool stages, a
//! locally-connected layer, a dense layer, dropout (rate 0.4) and a softmax
//! output, trained with sparse softmax cross-entropy and mini-batches of 5.
//! Kernel shape, kernel count, activation function and optimiser are all
//! configurable because the paper studies each of them (Figures 4–7).

use nn::{
    Activation, ActivationLayer, Conv2d, Dense, Dropout, Flatten, GradientDescent,
    LocallyConnected2d, MaxPool2d, Network, Optimizer, Tensor,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dataset::Dataset;
use crate::encode::FlowEncoder;
use crate::flow::Flow;

/// Configuration of the CNN classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierConfig {
    /// Convolution kernel `(height, width)`; the paper recommends `n × 2n`.
    pub kernel: (usize, usize),
    /// Number of kernels (filters) per convolution layer (the paper uses 200).
    pub num_kernels: usize,
    /// Activation function used throughout the network.
    pub activation: Activation,
    /// Number of QoR classes (the paper uses 7).
    pub num_classes: usize,
    /// Dropout rate of the dropout layer (the paper uses 0.4).
    pub dropout: f32,
    /// Width of the dense layer before the softmax output.
    pub dense_units: usize,
    /// Gradient-descent algorithm.
    pub optimizer: GradientDescent,
    /// Learning rate (the paper uses 1e-4).
    pub learning_rate: f32,
    /// Mini-batch size (the paper uses 5).
    pub batch_size: usize,
    /// RNG seed for weight initialisation, dropout and batch sampling.
    pub seed: u64,
}

impl Default for ClassifierConfig {
    /// A small configuration for quick experiments and unit tests: the
    /// paper's architecture with fewer kernels.  The full-size network is no
    /// longer off-limits on a CPU — `nn`'s GEMM and tiled-convolution layers
    /// train it in minutes, not hours (the `cnn_train` workload of
    /// `flowbench` measures it); select it with
    /// [`ClassifierConfig::paper_scale`].
    fn default() -> Self {
        ClassifierConfig {
            kernel: (3, 6),
            num_kernels: 12,
            activation: Activation::Selu,
            num_classes: 7,
            dropout: 0.4,
            dense_units: 32,
            optimizer: GradientDescent::RmsProp { decay: 0.9 },
            learning_rate: 1e-3,
            batch_size: 5,
            seed: 0xDAC18,
        }
    }
}

impl ClassifierConfig {
    /// The paper's full-size configuration (two conv stages of 200 kernels
    /// each, rectangular 6×12 `n × 2n` kernel, SELU, RMSProp, learning rate
    /// 1e-4, batch size 5).
    pub fn paper_scale() -> Self {
        ClassifierConfig {
            kernel: (6, 12),
            num_kernels: 200,
            activation: Activation::Selu,
            num_classes: 7,
            dropout: 0.4,
            dense_units: 128,
            optimizer: GradientDescent::RmsProp { decay: 0.9 },
            learning_rate: 1e-4,
            batch_size: 5,
            seed: 0xDAC18,
        }
    }
}

/// The CNN flow classifier: encoder + network + optimiser.
#[derive(Debug)]
pub struct FlowClassifier {
    config: ClassifierConfig,
    encoder: FlowEncoder,
    network: Network,
    optimizer: Optimizer,
    rng: ChaCha8Rng,
}

impl FlowClassifier {
    /// Builds the classifier for a given flow encoder.
    pub fn new(encoder: FlowEncoder, config: ClassifierConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let (h, w) = encoder.sample_shape();
        let k = config.num_kernels;
        let mut network = Network::new();
        // Stage 1: conv + activation + pool.
        network.push(Conv2d::new(config.kernel, 1, k, &mut rng));
        network.push(ActivationLayer::new(config.activation));
        network.push(MaxPool2d::new((2, 2)));
        let (h1, w1) = ((h / 2).max(1), (w / 2).max(1));
        // Stage 2: conv + activation + pool.
        network.push(Conv2d::new(config.kernel, k, k, &mut rng));
        network.push(ActivationLayer::new(config.activation));
        network.push(MaxPool2d::new((2, 2)));
        let (h2, w2) = ((h1 / 2).max(1), (w1 / 2).max(1));
        // Locally-connected layer over the remaining spatial map.
        let local_kernel = (2.min(h2), 2.min(w2));
        let local_out = (k / 2).max(1);
        network.push(LocallyConnected2d::new(
            (h2, w2, k),
            local_kernel,
            local_out,
            &mut rng,
        ));
        network.push(ActivationLayer::new(config.activation));
        network.push(Flatten::new());
        let local_h = h2 - local_kernel.0 + 1;
        let local_w = w2 - local_kernel.1 + 1;
        let flat = local_h * local_w * local_out;
        // Dense head with dropout and softmax output.
        network.push(Dense::new(flat, config.dense_units, &mut rng));
        network.push(ActivationLayer::new(config.activation));
        network.push(Dropout::new(config.dropout, config.seed ^ 0x5EED));
        network.push(Dense::new(config.dense_units, config.num_classes, &mut rng));

        let optimizer = Optimizer::new(config.optimizer, config.learning_rate);
        FlowClassifier {
            config,
            encoder,
            network,
            optimizer,
            rng,
        }
    }

    /// Builds the classifier for the paper's flow space (24-step flows over six
    /// transformations, reshaped to 12×12).
    pub fn for_paper_space(config: ClassifierConfig) -> Self {
        FlowClassifier::new(FlowEncoder::paper(), config)
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&mut self) -> usize {
        self.network.num_parameters()
    }

    /// A human-readable summary of the network architecture.
    pub fn summary(&self) -> String {
        self.network.summary()
    }

    /// Trains for `steps` mini-batches sampled from `dataset`; returns the mean
    /// training loss over those steps.
    pub fn train(&mut self, dataset: &Dataset, steps: usize) -> f32 {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let mut total = 0.0f32;
        for _ in 0..steps {
            let batch = dataset.sample_batch(self.config.batch_size, &mut self.rng);
            let flows: Vec<&Flow> = batch.iter().map(|e| &e.flow).collect();
            let labels: Vec<usize> = batch.iter().map(|e| e.label).collect();
            let x = self.encoder.encode_batch(&flows);
            let out = self.network.train_step(&x, &labels, &mut self.optimizer);
            total += out.loss;
        }
        total / steps.max(1) as f32
    }

    /// Predicts class probabilities for a batch of flows (`[batch, classes]`).
    pub fn predict_proba(&mut self, flows: &[Flow]) -> Tensor {
        let refs: Vec<&Flow> = flows.iter().collect();
        let x = self.encoder.encode_batch(&refs);
        self.network.predict_proba(&x)
    }

    /// Predicts the class of each flow.
    pub fn predict(&mut self, flows: &[Flow]) -> Vec<usize> {
        let refs: Vec<&Flow> = flows.iter().collect();
        let x = self.encoder.encode_batch(&refs);
        self.network.predict(&x)
    }

    /// Classification accuracy over a labelled dataset.
    pub fn accuracy(&mut self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let flows: Vec<&Flow> = dataset.examples().iter().map(|e| &e.flow).collect();
        let labels: Vec<usize> = dataset.examples().iter().map(|e| e.label).collect();
        let predictions = self.network.predict(&self.encoder.encode_batch(&flows));
        nn::accuracy(&predictions, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::FlowSpace;

    fn tiny_config() -> ClassifierConfig {
        ClassifierConfig {
            kernel: (3, 6),
            num_kernels: 4,
            dense_units: 16,
            num_classes: 3,
            learning_rate: 2e-3,
            ..ClassifierConfig::default()
        }
    }

    #[test]
    fn builds_the_figure_3_stack() {
        let mut clf = FlowClassifier::for_paper_space(tiny_config());
        let s = clf.summary();
        assert!(s.contains("Conv2d"), "{s}");
        assert!(
            s.matches("Conv2d").count() == 2,
            "two convolution stages: {s}"
        );
        assert!(s.contains("MaxPool2d"));
        assert!(s.contains("LocallyConnected2d"));
        assert!(s.contains("Dropout"));
        assert!(s.contains("Dense"));
        assert!(clf.num_parameters() > 500);
    }

    #[test]
    fn paper_config_matches_published_hyperparameters() {
        let c = ClassifierConfig::paper_scale();
        assert_eq!(c.num_kernels, 200);
        assert_eq!(c.kernel, (6, 12));
        assert_eq!(c.num_classes, 7);
        assert!((c.dropout - 0.4).abs() < 1e-6);
        assert!((c.learning_rate - 1e-4).abs() < 1e-9);
        assert_eq!(c.batch_size, 5);
        assert_eq!(c.activation, Activation::Selu);
        assert_eq!(c.optimizer, GradientDescent::RmsProp { decay: 0.9 });
    }

    #[test]
    fn training_improves_over_chance_on_learnable_labels() {
        let (dataset, _) = Dataset::synthetic_balance(150, 3);
        let mut clf = FlowClassifier::for_paper_space(tiny_config());
        let before = clf.accuracy(&dataset);
        let first_loss = clf.train(&dataset, 30);
        let _ = clf.train(&dataset, 270);
        let last_loss = clf.train(&dataset, 30);
        let after = clf.accuracy(&dataset);
        assert!(
            last_loss < first_loss || after > before + 0.1 || after > 0.5,
            "training made no progress: loss {first_loss} -> {last_loss}, acc {before} -> {after}"
        );
    }

    #[test]
    fn probabilities_are_normalised() {
        let space = FlowSpace::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let flows = space.random_unique_flows(4, &mut rng);
        let mut clf = FlowClassifier::for_paper_space(tiny_config());
        let probs = clf.predict_proba(&flows);
        assert_eq!(probs.shape(), &[4, 3]);
        for b in 0..4 {
            let s: f32 = (0..3).map(|c| probs.at2(b, c)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        let preds = clf.predict(&flows);
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 3));
    }
}
