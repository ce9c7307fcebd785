//! Sequential network container and mini-batch training.

use crate::layers::Layer;
use crate::loss::{sparse_softmax_cross_entropy, LossOutput};
use crate::optim::Optimizer;
use crate::tensor::Tensor;

/// A feed-forward network: an ordered stack of [`Layer`]s trained with
/// mini-batch gradient descent on the sparse softmax cross-entropy loss.
///
/// ```
/// use nn::{Activation, Dense, ActivationLayer, Network, Optimizer, GradientDescent, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut net = Network::new();
/// net.push(Dense::new(2, 8, &mut rng));
/// net.push(ActivationLayer::new(Activation::Tanh));
/// net.push(Dense::new(8, 2, &mut rng));
///
/// let x = Tensor::from_vec(&[1, 2], vec![0.3, -0.7]);
/// let probs = net.predict_proba(&x);
/// assert_eq!(probs.shape(), &[1, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer to the network.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Total number of trainable scalar parameters.
    pub fn num_parameters(&mut self) -> usize {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|p| p.len())
            .sum()
    }

    /// A human-readable summary of the layer stack.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Runs the forward pass.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, training);
        }
        x
    }

    /// Returns softmax class probabilities for a batch (inference mode).
    pub fn predict_proba(&mut self, input: &Tensor) -> Tensor {
        let logits = self.forward(input, false);
        crate::loss::softmax(&logits)
    }

    /// Returns the predicted class index for every row of the batch.
    pub fn predict(&mut self, input: &Tensor) -> Vec<usize> {
        let probs = self.predict_proba(input);
        let classes = probs.shape()[1];
        (0..probs.shape()[0])
            .map(|b| {
                let row = &probs.data()[b * classes..(b + 1) * classes];
                row.iter()
                    .enumerate()
                    .max_by(|a, c| a.1.partial_cmp(c.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Performs one mini-batch training step and returns the loss output.
    pub fn train_step(
        &mut self,
        input: &Tensor,
        labels: &[usize],
        optimizer: &mut Optimizer,
    ) -> LossOutput {
        let logits = self.forward(input, true);
        let loss = sparse_softmax_cross_entropy(&logits, labels);
        if let Some((first, rest)) = self.layers.split_first_mut() {
            let mut grad = loss.grad_logits.clone();
            for layer in rest.iter_mut().rev() {
                grad = layer.backward(&grad);
            }
            first.backward_params(&grad);
        }
        let mut key = 0usize;
        for layer in &mut self.layers {
            for param in layer.params_mut() {
                optimizer.update(key, param);
                key += 1;
            }
        }
        loss
    }

    /// Classification accuracy over a labelled batch.
    pub fn accuracy(&mut self, input: &Tensor, labels: &[usize]) -> f64 {
        let predictions = self.predict(input);
        crate::metrics::accuracy(&predictions, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layers::{ActivationLayer, Dense};
    use crate::optim::GradientDescent;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A linearly-separable toy problem: class = (x0 + x1 > 0).
    fn toy_batch(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            data.push(a);
            data.push(b);
            labels.push(usize::from(a + b > 0.0));
        }
        (Tensor::from_vec(&[n, 2], data), labels)
    }

    fn small_net(seed: u64) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Network::new();
        net.push(Dense::new(2, 16, &mut rng));
        net.push(ActivationLayer::new(Activation::Tanh));
        net.push(Dense::new(16, 2, &mut rng));
        net
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let mut net = small_net(1);
        let mut opt = Optimizer::new(GradientDescent::RmsProp { decay: 0.9 }, 0.005);
        let (x, y) = toy_batch(128, 2);
        let first_loss = net.train_step(&x, &y, &mut opt).loss;
        let mut last_loss = first_loss;
        for _ in 0..200 {
            last_loss = net.train_step(&x, &y, &mut opt).loss;
        }
        assert!(
            last_loss < first_loss * 0.5,
            "loss {first_loss} -> {last_loss}"
        );
        let (xt, yt) = toy_batch(256, 9);
        assert!(
            net.accuracy(&xt, &yt) > 0.9,
            "accuracy {}",
            net.accuracy(&xt, &yt)
        );
    }

    #[test]
    fn predictions_are_argmax_of_probabilities() {
        let mut net = small_net(4);
        let (x, _) = toy_batch(16, 5);
        let probs = net.predict_proba(&x);
        let preds = net.predict(&x);
        for (b, &p) in preds.iter().enumerate() {
            assert!(probs.at2(b, p) >= probs.at2(b, 1 - p) - 1e-6);
        }
    }

    #[test]
    fn summary_and_parameter_count() {
        let mut net = small_net(6);
        assert_eq!(net.num_parameters(), 2 * 16 + 16 + 16 * 2 + 2);
        let s = net.summary();
        assert!(s.contains("Dense(2 -> 16)"));
        assert!(s.contains("Tanh"));
    }
}
