//! Activation functions.
//!
//! Section 3.2.2 of the paper compares eight activation functions for the flow
//! classifier: ReLU, ReLU6, ELU, SELU, Softplus, Softsign, Sigmoid and Tanh,
//! and finds the smooth non-linear ones (SELU, Tanh, ELU, Softsign) to perform
//! best.  All eight are provided here so Figure 7 can be regenerated.

use serde::{Deserialize, Serialize};

/// SELU scale constant (Klambauer et al., 2017).
const SELU_LAMBDA: f32 = 1.050_700_9;
/// SELU alpha constant.
const SELU_ALPHA: f32 = 1.673_263_2;

/// The activation functions evaluated by the paper (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// ReLU clipped at six: `min(max(0, x), 6)`.
    Relu6,
    /// Exponential linear unit.
    Elu,
    /// Scaled exponential linear unit (self-normalising networks).
    Selu,
    /// `ln(1 + e^x)`.
    Softplus,
    /// `x / (1 + |x|)`.
    Softsign,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no non-linearity); not part of the paper's comparison but
    /// useful for ablations and linear output layers.
    Linear,
}

impl Activation {
    /// The eight activations compared in Figure 7 of the paper, in plot order.
    pub const PAPER_SET: [Activation; 8] = [
        Activation::Relu,
        Activation::Relu6,
        Activation::Elu,
        Activation::Selu,
        Activation::Softplus,
        Activation::Softsign,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::Elu => {
                if x >= 0.0 {
                    x
                } else {
                    x.exp() - 1.0
                }
            }
            Activation::Selu => {
                if x >= 0.0 {
                    SELU_LAMBDA * x
                } else {
                    SELU_LAMBDA * SELU_ALPHA * (x.exp() - 1.0)
                }
            }
            Activation::Softplus => {
                // Numerically stable ln(1 + e^x).
                if x > 20.0 {
                    x
                } else if x < -20.0 {
                    x.exp()
                } else {
                    (1.0 + x.exp()).ln()
                }
            }
            Activation::Softsign => x / (1.0 + x.abs()),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative of the activation with respect to its input.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Relu6 => {
                if x > 0.0 && x < 6.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Elu => {
                if x >= 0.0 {
                    1.0
                } else {
                    x.exp()
                }
            }
            Activation::Selu => {
                if x >= 0.0 {
                    SELU_LAMBDA
                } else {
                    SELU_LAMBDA * SELU_ALPHA * x.exp()
                }
            }
            Activation::Softplus => 1.0 / (1.0 + (-x).exp()),
            Activation::Softsign => {
                let d = 1.0 + x.abs();
                1.0 / (d * d)
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Linear => 1.0,
        }
    }

    /// `(apply(x), derivative(x))`, with one exponential where both need
    /// it.
    pub(crate) fn apply_with_derivative(self, x: f32) -> (f32, f32) {
        match self {
            Activation::Elu if x < 0.0 => {
                let e = x.exp();
                (e - 1.0, e)
            }
            Activation::Selu if x < 0.0 => {
                let e = x.exp();
                (
                    SELU_LAMBDA * SELU_ALPHA * (e - 1.0),
                    SELU_LAMBDA * SELU_ALPHA * e,
                )
            }
            _ => (self.apply(x), self.derivative(x)),
        }
    }

    /// Short name used in reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "ReLU",
            Activation::Relu6 => "ReLU6",
            Activation::Elu => "ELU",
            Activation::Selu => "SELU",
            Activation::Softplus => "Softplus",
            Activation::Softsign => "Softsign",
            Activation::Sigmoid => "Sigmoid",
            Activation::Tanh => "Tanh",
            Activation::Linear => "Linear",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_derivative(a: Activation, x: f32) -> f32 {
        let h = 1e-3;
        (a.apply(x + h) - a.apply(x - h)) / (2.0 * h)
    }

    #[test]
    fn forward_values_are_correct() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu6.apply(9.0), 6.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-6);
        assert!((Activation::Softsign.apply(1.0) - 0.5).abs() < 1e-6);
        assert!((Activation::Softplus.apply(0.0) - std::f32::consts::LN_2).abs() < 1e-5);
        assert!(Activation::Elu.apply(-30.0) > -1.01);
        assert!(Activation::Selu.apply(-30.0) > -(SELU_LAMBDA * SELU_ALPHA) - 0.01);
        assert_eq!(Activation::Linear.apply(1.25), 1.25);
    }

    #[test]
    fn derivatives_match_numeric_gradient() {
        for a in Activation::PAPER_SET {
            for &x in &[-2.5f32, -0.7, -0.1, 0.1, 0.9, 2.3, 5.5] {
                let analytic = a.derivative(x);
                let numeric = numeric_derivative(a, x);
                assert!(
                    (analytic - numeric).abs() < 2e-2,
                    "{a} at {x}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    /// The fused pair is the two separate calls, bit for bit (the training
    /// forward caches the derivative it returns).
    #[test]
    fn apply_with_derivative_is_apply_and_derivative() {
        for a in Activation::PAPER_SET
            .into_iter()
            .chain([Activation::Linear])
        {
            for x in [
                -25.0f32,
                -2.5,
                -0.7,
                -1e-30,
                -0.0,
                0.0,
                1e-30,
                0.9,
                6.0,
                25.0,
                f32::NAN,
            ] {
                let (y, d) = a.apply_with_derivative(x);
                assert_eq!(y.to_bits(), a.apply(x).to_bits(), "{a} apply at {x}");
                assert_eq!(
                    d.to_bits(),
                    a.derivative(x).to_bits(),
                    "{a} derivative at {x}"
                );
            }
        }
    }

    #[test]
    fn selu_has_self_normalising_constants() {
        // The SELU fixed point maps a unit-variance input distribution to
        // roughly unit variance; spot-check the published constants.
        assert!((SELU_LAMBDA - 1.0507).abs() < 1e-3);
        assert!((SELU_ALPHA - 1.6733).abs() < 1e-3);
        assert!((Activation::Selu.apply(1.0) - SELU_LAMBDA).abs() < 1e-5);
    }

    #[test]
    fn paper_set_has_eight_functions() {
        assert_eq!(Activation::PAPER_SET.len(), 8);
        let names: Vec<&str> = Activation::PAPER_SET.iter().map(|a| a.name()).collect();
        assert!(names.contains(&"SELU"));
        assert!(names.contains(&"Softsign"));
    }
}
