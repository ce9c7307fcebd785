//! Fully-connected layer.

use rand::Rng;

use crate::gemm;
use crate::init::Param;
use crate::layers::Layer;
use crate::tensor::Tensor;

/// A fully-connected (dense) layer: `y = x W + b`.
///
/// Accepts input of shape `[batch, features]` (flatten beforehand if needed).
/// Forward and backward are single blocked GEMM calls.
#[derive(Debug)]
pub struct Dense {
    pub(crate) in_features: usize,
    pub(crate) out_features: usize,
    /// Weights laid out `[in_features, out_features]`.
    pub(crate) weights: Param,
    pub(crate) bias: Param,
    cached_input: Option<Tensor>,
    /// Transposed-input scratch (`in_features × batch`), reused across steps.
    x_t: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with Glorot-initialised weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Dense {
            in_features,
            out_features,
            weights: Param::glorot(in_features * out_features, in_features, out_features, rng),
            bias: Param::zeros(out_features),
            cached_input: None,
            x_t: Vec::new(),
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output units.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Dense expects [batch, features]");
        let batch = input.shape()[0];
        assert_eq!(input.shape()[1], self.in_features, "feature mismatch");
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        gemm::matmul(
            batch,
            self.in_features,
            self.out_features,
            input.data(),
            &self.weights.value,
            out.data_mut(),
        );
        gemm::add_bias_rows(batch, self.out_features, &self.bias.value, out.data_mut());
        // Only a training pass is followed by `backward`; inference keeps
        // no copy of its input.
        self.cached_input = training.then(|| input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("training forward before backward");
        let batch = input.shape()[0];
        let dy = grad_output.data();
        // db += column sums of dY.
        gemm::col_sums_acc(batch, self.out_features, dy, &mut self.bias.grad);
        // dW += xᵀ · dY.
        gemm::transpose(batch, self.in_features, input.data(), &mut self.x_t);
        gemm::matmul_acc(
            self.in_features,
            batch,
            self.out_features,
            &self.x_t,
            dy,
            &mut self.weights.grad,
        );
        // dX = dY · Wᵀ (rows of W are contiguous, no transpose needed).
        let mut grad_input = Tensor::zeros(input.shape());
        gemm::matmul_nt(
            batch,
            self.out_features,
            self.in_features,
            dy,
            &self.weights.value,
            grad_input.data_mut(),
        );
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn name(&self) -> String {
        format!("Dense({} -> {})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Scalar;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The production layer and its scalar oracle, built from one seeded RNG
    /// (so with identical weights), each with a label for messages.
    fn both(in_f: usize, out_f: usize, seed: u64) -> [(&'static str, Box<dyn Layer>); 2] {
        let rng = || ChaCha8Rng::seed_from_u64(seed);
        [
            ("production", Box::new(Dense::new(in_f, out_f, &mut rng()))),
            (
                "reference",
                Box::new(Scalar::new(Dense::new(in_f, out_f, &mut rng()))),
            ),
        ]
    }

    #[test]
    fn forward_computes_affine_map() {
        for (label, mut layer) in both(2, 2, 3) {
            layer.params_mut()[0].value = vec![1.0, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
            layer.params_mut()[1].value = vec![0.5, -0.5];
            let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
            let y = layer.forward(&x, false);
            assert_eq!(y.data(), &[4.5, 5.5], "{label}");
        }
        let layer = Dense::new(2, 2, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(layer.in_features(), 2);
        assert_eq!(layer.out_features(), 2);
    }

    #[test]
    fn fast_matches_reference_forward_and_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let x = {
            use rand::Rng;
            let data = (0..6 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Tensor::from_vec(&[6, 5], data)
        };
        let grad_out = {
            use rand::Rng;
            let data = (0..6 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Tensor::from_vec(&[6, 4], data)
        };
        let [(_, mut b), (_, mut a)] = both(5, 4, 5);
        let ya = a.forward(&x, true);
        let yb = b.forward(&x, true);
        for (p, q) in ya.data().iter().zip(yb.data()) {
            assert!((p - q).abs() <= 1e-5 * p.abs().max(1.0));
        }
        let ga = a.backward(&grad_out);
        let gb = b.backward(&grad_out);
        for (p, q) in ga.data().iter().zip(gb.data()) {
            assert!((p - q).abs() <= 1e-5 * p.abs().max(1.0), "dX {p} vs {q}");
        }
        let (pa, pb) = (a.params_mut(), b.params_mut());
        for (p, q) in pa[0].grad.iter().zip(&pb[0].grad) {
            assert!((p - q).abs() <= 1e-5 * p.abs().max(1.0), "dW {p} vs {q}");
        }
        for (p, q) in pa[1].grad.iter().zip(&pb[1].grad) {
            assert!((p - q).abs() <= 1e-5 * p.abs().max(1.0), "db {p} vs {q}");
        }
    }

    #[test]
    fn gradient_check() {
        for (label, mut layer) in both(3, 2, 5) {
            let x = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 1.0, 0.0, -0.5]);
            let out = layer.forward(&x, true);
            let grad_out = Tensor::full(out.shape(), 1.0);
            let grad_in = layer.backward(&grad_out);
            let eps = 1e-2f32;
            for wi in 0..layer.params_mut()[0].len() {
                let analytic = layer.params_mut()[0].grad[wi];
                let orig = layer.params_mut()[0].value[wi];
                layer.params_mut()[0].value[wi] = orig + eps;
                let up = layer.forward(&x, true).sum();
                layer.params_mut()[0].value[wi] = orig - eps;
                let down = layer.forward(&x, true).sum();
                layer.params_mut()[0].value[wi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{label} w{wi}: {analytic} vs {numeric}"
                );
            }
            // Input gradient: every input contributes through out_features weights.
            assert_eq!(grad_in.shape(), x.shape());
        }
    }
}
