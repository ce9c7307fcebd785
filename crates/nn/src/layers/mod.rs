//! Neural-network layers.
//!
//! The layer set matches the architecture of Figure 3 in the paper: two
//! convolution + max-pool stages, a locally-connected layer, a dense layer and
//! dropout, with the activation function applied as its own layer so different
//! activations can be swapped in (Figure 7).

mod activation_layer;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod local;
mod pool;

pub use activation_layer::ActivationLayer;
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use local::LocallyConnected2d;
pub use pool::MaxPool2d;

use crate::init::Param;
use crate::tensor::Tensor;

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward`] so that
/// [`Layer::backward`] can compute input gradients and accumulate parameter
/// gradients.  Calling `backward` before `forward` is a programming error and
/// panics.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output.  `training` enables behaviour that differs
    /// between training and inference (e.g. dropout); only a training
    /// forward keeps what [`Layer::backward`] needs.
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor;

    /// Back-propagates `grad_output` (gradient of the loss w.r.t. this layer's
    /// output) and returns the gradient w.r.t. the layer's input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Accumulates the parameter gradients [`Layer::backward`] would, without
    /// the input gradient: the network asks its first layer for this, since
    /// nothing reads the gradient of the network's input.
    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward(grad_output);
    }

    /// The layer's trainable parameters (empty for parameter-free layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Human-readable layer name for summaries.
    fn name(&self) -> String;
}
