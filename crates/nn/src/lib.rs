//! # nn — a from-scratch CPU neural-network library
//!
//! The paper implements its flow classifier with TensorFlow r1.3 (C++ API) and
//! trains on GPUs; this crate provides the equivalent building blocks as a
//! dependency-free Rust library so the whole reproduction is self-contained:
//!
//! * [`Tensor`] — dense NHWC tensors,
//! * layers — [`Conv2d`], [`MaxPool2d`], [`LocallyConnected2d`], [`Dense`],
//!   [`Dropout`], [`Flatten`] and [`ActivationLayer`] (the Figure 3 stack),
//! * all eight [`Activation`] functions compared in Figure 7,
//! * the sparse softmax cross-entropy loss of Section 3.2.2,
//! * the five [`GradientDescent`] algorithms compared in Figures 4–5, and
//! * a sequential [`Network`] with mini-batch training.
//!
//! The trainable layers compute one way: blocked, cache-tiled, parallel GEMMs
//! (the [`gemm`] module) for the dense and locally-connected layers, and for
//! [`Conv2d`] one register-tiled micro-kernel — 5 × 8 sums kept in registers,
//! the same at every channel count — that runs its forward, weight gradient
//! and input gradient over the valid window only, skipping the zero padding
//! and the zero gradients max-pooling leaves.  That is
//! what makes the paper's full-size 2×200-kernel classifier trainable in
//! minutes on a CPU.  The path is bit-deterministic across thread counts.  The
//! scalar loop nests the crate started from are kept only as a test oracle
//! (`nn::reference`, hidden from the docs), which the differential tests hold
//! the production path to.
//!
//! ## Quick example
//!
//! ```
//! use nn::{Activation, ActivationLayer, Dense, GradientDescent, Network, Optimizer, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut net = Network::new();
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(ActivationLayer::new(Activation::Selu));
//! net.push(Dense::new(8, 3, &mut rng));
//!
//! let x = Tensor::from_vec(&[2, 4], vec![0.0, 1.0, 0.5, -0.5, 1.0, 0.0, -1.0, 0.25]);
//! let mut opt = Optimizer::new(GradientDescent::RmsProp { decay: 0.9 }, 1e-3);
//! let loss = net.train_step(&x, &[0, 2], &mut opt);
//! assert!(loss.loss > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
pub mod gemm;
mod init;
mod layers;
mod loss;
mod metrics;
mod network;
mod optim;
#[doc(hidden)]
pub mod reference;
mod tensor;

pub use activation::Activation;
pub use init::Param;
pub use layers::{
    ActivationLayer, Conv2d, Dense, Dropout, Flatten, Layer, LocallyConnected2d, MaxPool2d,
};
pub use loss::{softmax, sparse_softmax_cross_entropy, LossOutput};
pub use metrics::accuracy;
pub use network::Network;
pub use optim::{GradientDescent, Optimizer};
pub use tensor::Tensor;
