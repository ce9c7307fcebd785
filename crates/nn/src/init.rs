//! Weight initialisation and the parameter container.

use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A trainable parameter tensor (flat storage) together with its gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current parameter values.
    pub value: Vec<f32>,
    /// Gradient accumulated by the last backward pass.
    pub grad: Vec<f32>,
}

impl Param {
    /// Creates a parameter of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Param {
            value: vec![0.0; len],
            grad: vec![0.0; len],
        }
    }

    /// Creates a parameter initialised with Glorot/Xavier uniform values.
    ///
    /// `fan_in`/`fan_out` control the scale: `limit = sqrt(6 / (fan_in + fan_out))`.
    pub fn glorot(len: usize, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
        let dist = rand::distributions::Uniform::new_inclusive(-limit, limit);
        Param {
            value: (0..len).map(|_| dist.sample(rng)).collect(),
            grad: vec![0.0; len],
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn glorot_is_bounded_and_seeded() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let p = Param::glorot(1000, 50, 50, &mut rng);
        let limit = (6.0f32 / 100.0).sqrt();
        assert!(p.value.iter().all(|&v| v.abs() <= limit + 1e-6));
        assert!(p.value.iter().any(|&v| v.abs() > 1e-4), "not all zero");
        // Deterministic for a fixed seed.
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let q = Param::glorot(1000, 50, 50, &mut rng2);
        assert_eq!(p.value, q.value);
    }

    #[test]
    fn zeros_are_sized_and_zero() {
        let p = Param::zeros(4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert!(p.value.iter().chain(&p.grad).all(|&x| x == 0.0));
        assert!(Param::zeros(0).is_empty());
    }
}
