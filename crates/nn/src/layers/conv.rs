//! 2-D convolution with "same" padding and stride 1.

use rand::Rng;

use crate::gemm::{self, ConvGeom};
use crate::init::Param;
use crate::layers::Layer;
use crate::tensor::Tensor;

/// A 2-D convolution layer (NHWC layout, stride 1, zero "same" padding).
///
/// The paper's classifier uses two of these with 200 kernels each and a
/// rectangular `n × 2n` kernel (3×6 or 6×12 for the 6-transformation flow
/// encoding), which is why arbitrary rectangular kernels are supported.
///
/// # "Same" padding for even kernel sizes
///
/// Output spatial dimensions always equal the input's (stride 1).  Along each
/// axis the window for output position `o` covers input positions
/// `o - pad_before .. o - pad_before + k` with `pad_before = (k - 1) / 2`
/// (integer division) and zeros outside the input.  For odd `k` this is the
/// usual symmetric padding; for **even** `k` it is asymmetric — one less cell
/// of padding *before* than after (e.g. `k = 6` pads 2 left/top and 3
/// right/bottom).  This matches TensorFlow's `SAME` convention
/// (`pad_before = ⌊(k - 1) / 2⌋`, remainder after), which the paper's r1.3
/// implementation used for its even-width `n × 2n` kernels (3×6, 6×12).
/// Regression tests below pin the window alignment for even kernels on this
/// layer and on its scalar oracle.
///
/// # Computation
///
/// Forward lowers the convolution to a patch matrix with
/// [`gemm::im2col_same`] and runs one blocked parallel GEMM; backward reuses
/// that patch matrix for `dW` and scatters `dY · Wᵀ` back with
/// [`gemm::col2im_same`].  The packing buffers are owned by the layer and
/// reused across steps.
#[derive(Debug)]
pub struct Conv2d {
    pub(crate) kernel_h: usize,
    pub(crate) kernel_w: usize,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    /// Weights laid out as `[kh, kw, in_c, out_c]`.
    pub(crate) weights: Param,
    pub(crate) bias: Param,
    /// Geometry of the last forward, whose patches `cols` holds.
    cached_geom: Option<ConvGeom>,
    /// im2col patch matrix of the last forward (`rows × patch`).
    cols: Vec<f32>,
    /// Transposed patch matrix scratch (`patch × rows`), reused across steps.
    cols_t: Vec<f32>,
    /// Transposed weight scratch (`out_c × patch`), reused across steps.
    w_t: Vec<f32>,
    /// Patch-gradient scratch (`rows × patch`), reused across steps.
    dcols: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution layer with Glorot-initialised weights.
    pub fn new(
        kernel: (usize, usize),
        in_channels: usize,
        out_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let (kernel_h, kernel_w) = kernel;
        let fan_in = kernel_h * kernel_w * in_channels;
        let fan_out = kernel_h * kernel_w * out_channels;
        let weights = Param::glorot(
            kernel_h * kernel_w * in_channels * out_channels,
            fan_in,
            fan_out,
            rng,
        );
        Conv2d {
            kernel_h,
            kernel_w,
            in_channels,
            out_channels,
            weights,
            bias: Param::zeros(out_channels),
            cached_geom: None,
            cols: Vec::new(),
            cols_t: Vec::new(),
            w_t: Vec::new(),
            dcols: Vec::new(),
        }
    }

    /// The kernel size `(height, width)`.
    pub fn kernel(&self) -> (usize, usize) {
        (self.kernel_h, self.kernel_w)
    }

    /// Number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 4, "Conv2d expects NHWC input");
        assert_eq!(input.shape()[3], self.in_channels, "channel mismatch");
        let shape = input.shape();
        let geom = ConvGeom {
            n: shape[0],
            h: shape[1],
            w: shape[2],
            c: shape[3],
            kh: self.kernel_h,
            kw: self.kernel_w,
        };
        gemm::im2col_same(geom, input.data(), &mut self.cols);
        let (rows, patch) = (geom.rows(), geom.patch());
        let mut out = Tensor::zeros(&[geom.n, geom.h, geom.w, self.out_channels]);
        gemm::matmul(
            rows,
            patch,
            self.out_channels,
            &self.cols,
            &self.weights.value,
            out.data_mut(),
        );
        gemm::add_bias_rows(rows, self.out_channels, &self.bias.value, out.data_mut());
        self.cached_geom = Some(geom);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let geom = self.cached_geom.expect("forward before backward");
        let (rows, patch) = (geom.rows(), geom.patch());
        let dy = grad_output.data();
        // db += column sums of dY.
        gemm::col_sums_acc(rows, self.out_channels, dy, &mut self.bias.grad);
        // The two GEMM operands that need repacking — colsᵀ (for dW) and Wᵀ
        // (for dX, so the multiply runs on the streaming-axpy kernel rather
        // than strided dot products) — are independent: pack them on two
        // threads when a pool is available.
        rayon::join(
            || gemm::transpose(rows, patch, &self.cols, &mut self.cols_t),
            || gemm::transpose(patch, self.out_channels, &self.weights.value, &mut self.w_t),
        );
        // dW += colsᵀ · dY.
        gemm::matmul_acc(
            patch,
            rows,
            self.out_channels,
            &self.cols_t,
            dy,
            &mut self.weights.grad,
        );
        // dX = col2im(dY · Wᵀ).  `matmul` overwrites every element of its
        // output block, so the scratch only needs sizing, not zeroing.
        if self.dcols.len() != rows * patch {
            self.dcols.resize(rows * patch, 0.0);
        }
        gemm::matmul(
            rows,
            self.out_channels,
            patch,
            dy,
            &self.w_t,
            &mut self.dcols,
        );
        let mut grad_input = Tensor::zeros(&[geom.n, geom.h, geom.w, geom.c]);
        gemm::col2im_same(geom, &self.dcols, grad_input.data_mut());
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn name(&self) -> String {
        format!(
            "Conv2d({}x{}, {} -> {})",
            self.kernel_h, self.kernel_w, self.in_channels, self.out_channels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Scalar;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    /// The production layer and its scalar oracle, built from one seeded RNG
    /// (so with identical weights), each with a label for messages.
    fn both(
        kernel: (usize, usize),
        in_c: usize,
        out_c: usize,
    ) -> [(&'static str, Box<dyn Layer>); 2] {
        [
            (
                "production",
                Box::new(Conv2d::new(kernel, in_c, out_c, &mut rng())),
            ),
            (
                "reference",
                Box::new(Scalar::new(Conv2d::new(kernel, in_c, out_c, &mut rng()))),
            ),
        ]
    }

    fn seeded_input(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let data = (0..shape.iter().product::<usize>())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and zero bias is the identity map.
        for (label, mut conv) in both((1, 1), 1, 1) {
            conv.params_mut()[0].value[0] = 1.0;
            conv.params_mut()[1].value[0] = 0.0;
            let input = Tensor::from_vec(&[1, 2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]);
            let out = conv.forward(&input, false);
            assert_eq!(out.data(), input.data(), "{label}");
        }
    }

    #[test]
    fn output_shape_preserves_spatial_dims() {
        for (label, mut conv) in both((3, 6), 1, 4) {
            let input = Tensor::zeros(&[2, 12, 6, 1]);
            let out = conv.forward(&input, false);
            assert_eq!(out.shape(), &[2, 12, 6, 4], "{label}");
        }
        let conv = Conv2d::new((3, 6), 1, 4, &mut rng());
        assert_eq!(conv.kernel(), (3, 6));
        assert_eq!(conv.out_channels(), 4);
    }

    /// Even-kernel "same" padding: output shape equals input shape for the
    /// paper's even-width kernels, on the layer and on its oracle.
    #[test]
    fn even_kernels_preserve_shape_on_both_backends() {
        for kernel in [(3, 6), (6, 12), (2, 2), (4, 4)] {
            for (label, mut conv) in both(kernel, 2, 3) {
                let input = seeded_input(&[2, 12, 12, 2], 5);
                let out = conv.forward(&input, false);
                assert_eq!(out.shape(), &[2, 12, 12, 3], "kernel {kernel:?} on {label}");
            }
        }
    }

    /// Window alignment for even kernels: `pad_before = (k - 1) / 2`, so a
    /// `1×2` kernel's window at output `o` is `[x_o, x_{o+1}]` (no padding
    /// before, one zero after).  Pinned on the layer and on its oracle.
    #[test]
    fn even_kernel_window_alignment() {
        for (label, mut conv) in both((1, 2), 1, 1) {
            // w = [w0, w1] over the window [x_o, x_{o+1}].
            conv.params_mut()[0].value = vec![10.0, 1.0];
            conv.params_mut()[1].value[0] = 0.0;
            let input = Tensor::from_vec(&[1, 1, 3, 1], vec![1.0, 2.0, 3.0]);
            let out = conv.forward(&input, false);
            // o=0: 10*1 + 1*2 = 12; o=1: 10*2 + 1*3 = 23; o=2: 10*3 + 0 = 30.
            assert_eq!(out.data(), &[12.0, 23.0, 30.0], "{label}");
        }
    }

    /// The 6-wide kernel must pad 2 before and 3 after: probe with a weight
    /// vector that selects the first window cell.
    #[test]
    fn six_wide_kernel_pads_two_before() {
        for (label, mut conv) in both((1, 6), 1, 1) {
            conv.params_mut()[0].value = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
            conv.params_mut()[1].value[0] = 0.0;
            let input = Tensor::from_vec(&[1, 1, 6, 1], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
            let out = conv.forward(&input, false);
            // Window at o starts at input index o - 2 ((6-1)/2 = 2).
            assert_eq!(out.data(), &[0.0, 0.0, 1.0, 2.0, 3.0, 4.0], "{label}");
        }
    }

    #[test]
    fn fast_forward_matches_reference() {
        for (kernel, in_c, out_c, shape) in [
            ((3, 3), 1, 2, [2, 5, 5, 1]),
            ((3, 6), 2, 4, [1, 12, 12, 2]),
            ((6, 12), 1, 3, [2, 12, 12, 1]),
            ((2, 2), 3, 2, [1, 4, 4, 3]),
        ] {
            let input = seeded_input(&shape, 21);
            let [(_, mut conv_fast), (_, mut conv_ref)] = both(kernel, in_c, out_c);
            let a = conv_ref.forward(&input, true);
            let b = conv_fast.forward(&input, true);
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!(
                    (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                    "kernel {kernel:?}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn fast_backward_matches_reference() {
        let input = seeded_input(&[2, 6, 6, 2], 33);
        let [(_, mut conv_fast), (_, mut conv_ref)] = both((3, 6), 2, 3);
        // Same seed ⇒ same weights.
        assert_eq!(
            conv_ref.params_mut()[0].value,
            conv_fast.params_mut()[0].value
        );

        let out_ref = conv_ref.forward(&input, true);
        let _ = conv_fast.forward(&input, true);
        let grad_out = seeded_input(out_ref.shape(), 34);
        let gi_ref = conv_ref.backward(&grad_out);
        let gi_fast = conv_fast.backward(&grad_out);
        for (x, y) in gi_ref.data().iter().zip(gi_fast.data()) {
            assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "dX: {x} vs {y}");
        }
        let (p_ref, p_fast) = (conv_ref.params_mut(), conv_fast.params_mut());
        for (x, y) in p_ref[0].grad.iter().zip(&p_fast[0].grad) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "dW: {x} vs {y}");
        }
        for (x, y) in p_ref[1].grad.iter().zip(&p_fast[1].grad) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "db: {x} vs {y}");
        }
    }

    #[test]
    fn gradient_check_small_conv() {
        // Numeric gradient check of dLoss/dW for a tiny convolution where the
        // loss is the sum of outputs, on the layer and on its oracle.
        for (label, mut conv) in both((3, 3), 1, 2) {
            let input = Tensor::from_vec(
                &[1, 3, 3, 1],
                vec![0.5, -1.0, 2.0, 0.0, 1.5, -0.5, 1.0, 0.25, -2.0],
            );
            let out = conv.forward(&input, true);
            let grad_out = Tensor::full(out.shape(), 1.0);
            let grad_in = conv.backward(&grad_out);
            assert_eq!(grad_in.shape(), input.shape());

            let eps = 1e-2f32;
            for &wi in &[0usize, 3, 7, 11] {
                let analytic = conv.params_mut()[0].grad[wi];
                let orig = conv.params_mut()[0].value[wi];
                conv.params_mut()[0].value[wi] = orig + eps;
                let up = conv.forward(&input, true).sum();
                conv.params_mut()[0].value[wi] = orig - eps;
                let down = conv.forward(&input, true).sum();
                conv.params_mut()[0].value[wi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{label} weight {wi}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_check() {
        for (label, mut conv) in both((3, 3), 1, 1) {
            let mut input = Tensor::from_vec(
                &[1, 3, 3, 1],
                vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            );
            let out = conv.forward(&input, true);
            let grad_out = Tensor::full(out.shape(), 1.0);
            let grad_in = conv.backward(&grad_out);
            let eps = 1e-2f32;
            for idx in [0usize, 4, 8] {
                let orig = input.data()[idx];
                input.data_mut()[idx] = orig + eps;
                let up = conv.forward(&input, true).sum();
                input.data_mut()[idx] = orig - eps;
                let down = conv.forward(&input, true).sum();
                input.data_mut()[idx] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (grad_in.data()[idx] - numeric).abs() < 1e-2,
                    "{label} input {idx}: analytic {} vs numeric {numeric}",
                    grad_in.data()[idx]
                );
            }
        }
    }
}
