//! Activation applied as its own layer.

use crate::activation::Activation;
use crate::layers::Layer;
use crate::tensor::Tensor;

/// Applies an [`Activation`] element-wise.
///
/// Keeping the non-linearity as a separate layer makes it trivial to swap
/// activation functions for the Figure 7 study without touching the rest of the
/// architecture.
#[derive(Debug)]
pub struct ActivationLayer {
    activation: Activation,
    /// The derivative at each input of the last training forward.
    derivatives: Option<Vec<f32>>,
}

impl ActivationLayer {
    /// Creates an activation layer.
    pub fn new(activation: Activation) -> Self {
        ActivationLayer {
            activation,
            derivatives: None,
        }
    }

    /// The wrapped activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        // Only a training pass is followed by `backward`: it keeps the
        // derivatives, computed with the outputs; inference keeps nothing.
        if !training {
            self.derivatives = None;
            return input.map(|x| self.activation.apply(x));
        }
        let mut derivatives = self.derivatives.take().unwrap_or_default();
        derivatives.resize(input.len(), 0.0);
        let mut out = Tensor::zeros(input.shape());
        let outs = out.data_mut().iter_mut().zip(derivatives.iter_mut());
        for ((y, d), &x) in outs.zip(input.data()) {
            (*y, *d) = self.activation.apply_with_derivative(x);
        }
        self.derivatives = Some(derivatives);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let derivatives = self
            .derivatives
            .as_ref()
            .expect("training forward before backward");
        assert_eq!(grad_output.len(), derivatives.len(), "shape mismatch");
        let data = grad_output
            .data()
            .iter()
            .zip(derivatives)
            .map(|(&g, &d)| g * d)
            .collect();
        Tensor::from_vec(grad_output.shape(), data)
    }

    fn name(&self) -> String {
        format!("Activation({})", self.activation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_apply_chain_rule() {
        let mut layer = ActivationLayer::new(Activation::Relu);
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.5, 2.0, -3.0]);
        let y = layer.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0, 0.0]);
        let g = layer.backward(&Tensor::full(&[1, 4], 2.0));
        assert_eq!(g.data(), &[0.0, 2.0, 2.0, 0.0]);
        assert_eq!(layer.activation(), Activation::Relu);
        assert!(layer.name().contains("ReLU"));
    }
}
