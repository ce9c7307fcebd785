//! Locally-connected layer (convolution without weight sharing).

use rand::Rng;
use rayon::prelude::*;

use crate::gemm;
use crate::init::Param;
use crate::layers::Layer;
use crate::tensor::Tensor;

/// A locally-connected 2-D layer: like a convolution, every output position
/// looks at a small input patch, but each position has its *own* weights.
///
/// Figure 3 of the paper places a "Local" layer between the convolutional
/// feature extractor and the dense classifier head; this is its implementation.
/// The layer uses valid padding and stride 1.
///
/// The layer packs every position's input patches into a position-major
/// buffer and runs one small matmul per position against that position's
/// contiguous weight block — positions are processed in parallel and all
/// packing buffers are reused across steps.
#[derive(Debug)]
pub struct LocallyConnected2d {
    pub(crate) kernel_h: usize,
    pub(crate) kernel_w: usize,
    pub(crate) in_h: usize,
    pub(crate) in_w: usize,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    /// Weights laid out `[oh, ow, kh, kw, ic, oc]` — one contiguous
    /// `[kh*kw*ic, oc]` matrix per output position.
    pub(crate) weights: Param,
    /// Bias laid out `[oh, ow, oc]`.
    pub(crate) bias: Param,
    /// Batch size of the last forward, whose patches `pack` holds.
    cached_batch: Option<usize>,
    /// Position-major packed patches `[positions][batch][kh*kw*ic]`.
    pack: Vec<f32>,
    /// Position-major outputs `[positions][batch][oc]`, reused across steps.
    out_scratch: Vec<f32>,
    /// Position-major output gradients, reused across steps.
    dy_pack: Vec<f32>,
    /// Position-major patch gradients, reused across steps.
    dpatch: Vec<f32>,
}

impl LocallyConnected2d {
    /// Creates a locally-connected layer for a fixed input geometry.
    pub fn new(
        input_shape: (usize, usize, usize),
        kernel: (usize, usize),
        out_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let (in_h, in_w, in_channels) = input_shape;
        let (kernel_h, kernel_w) = kernel;
        assert!(
            kernel_h <= in_h && kernel_w <= in_w,
            "kernel larger than input"
        );
        let (oh, ow) = (in_h - kernel_h + 1, in_w - kernel_w + 1);
        let fan_in = kernel_h * kernel_w * in_channels;
        let weights = Param::glorot(
            oh * ow * kernel_h * kernel_w * in_channels * out_channels,
            fan_in,
            out_channels,
            rng,
        );
        LocallyConnected2d {
            kernel_h,
            kernel_w,
            in_h,
            in_w,
            in_channels,
            out_channels,
            weights,
            bias: Param::zeros(oh * ow * out_channels),
            cached_batch: None,
            pack: Vec::new(),
            out_scratch: Vec::new(),
            dy_pack: Vec::new(),
            dpatch: Vec::new(),
        }
    }

    pub(crate) fn out_dims(&self) -> (usize, usize) {
        (self.in_h - self.kernel_h + 1, self.in_w - self.kernel_w + 1)
    }

    /// Patch length: `kh * kw * ic`.
    fn patch(&self) -> usize {
        self.kernel_h * self.kernel_w * self.in_channels
    }

    /// Rebuilds the position-major patch pack from `input`.
    fn build_pack(&mut self, input: &Tensor) {
        let n = input.shape()[0];
        let (oh_total, ow_total) = self.out_dims();
        let positions = oh_total * ow_total;
        let patch = self.patch();
        let (h, w, c) = (self.in_h, self.in_w, self.in_channels);
        let (kh, kw) = (self.kernel_h, self.kernel_w);
        // Every element is overwritten below; reuse a same-size buffer as is.
        if self.pack.len() != positions * n * patch {
            self.pack.resize(positions * n * patch, 0.0);
        }
        let data = input.data();
        self.pack
            .par_chunks_mut(n * patch)
            .enumerate()
            .for_each(|(pos, chunk)| {
                let (oh, ow_) = (pos / ow_total, pos % ow_total);
                for b in 0..n {
                    let row = &mut chunk[b * patch..(b + 1) * patch];
                    for dkh in 0..kh {
                        let src0 = ((b * h + oh + dkh) * w + ow_) * c;
                        row[dkh * kw * c..(dkh + 1) * kw * c]
                            .copy_from_slice(&data[src0..src0 + kw * c]);
                    }
                }
            });
    }
}

impl Layer for LocallyConnected2d {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert_eq!(
            input.shape().len(),
            4,
            "LocallyConnected2d expects NHWC input"
        );
        assert_eq!(input.shape()[1], self.in_h, "height mismatch");
        assert_eq!(input.shape()[2], self.in_w, "width mismatch");
        assert_eq!(input.shape()[3], self.in_channels, "channel mismatch");
        let n = input.shape()[0];
        let (oh_total, ow_total) = self.out_dims();
        let positions = oh_total * ow_total;
        let patch = self.patch();
        let oc = self.out_channels;
        self.build_pack(input);
        if self.out_scratch.len() != positions * n * oc {
            self.out_scratch.resize(positions * n * oc, 0.0);
        }
        {
            let pack = &self.pack;
            let weights = &self.weights.value;
            let bias = &self.bias.value;
            self.out_scratch
                .par_chunks_mut(n * oc)
                .enumerate()
                .for_each(|(pos, chunk)| {
                    gemm::matmul_seq(
                        n,
                        patch,
                        oc,
                        &pack[pos * n * patch..(pos + 1) * n * patch],
                        &weights[pos * patch * oc..(pos + 1) * patch * oc],
                        chunk,
                    );
                    let b_pos = &bias[pos * oc..(pos + 1) * oc];
                    for row in chunk.chunks_mut(oc) {
                        for (cv, &bv) in row.iter_mut().zip(b_pos) {
                            *cv += bv;
                        }
                    }
                });
        }
        // Scatter the position-major scratch into NHWC output order.
        let mut out = Tensor::zeros(&[n, oh_total, ow_total, oc]);
        let scratch = &self.out_scratch;
        out.data_mut()
            .par_chunks_mut(positions * oc)
            .enumerate()
            .for_each(|(b, image)| {
                for pos in 0..positions {
                    image[pos * oc..(pos + 1) * oc]
                        .copy_from_slice(&scratch[(pos * n + b) * oc..(pos * n + b + 1) * oc]);
                }
            });
        self.cached_batch = Some(n);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let n = self.cached_batch.expect("forward before backward");
        let (oh_total, ow_total) = self.out_dims();
        let positions = oh_total * ow_total;
        let patch = self.patch();
        let oc = self.out_channels;
        // Gather dY into position-major order.
        if self.dy_pack.len() != positions * n * oc {
            self.dy_pack.resize(positions * n * oc, 0.0);
        }
        let dy = grad_output.data();
        self.dy_pack
            .par_chunks_mut(n * oc)
            .enumerate()
            .for_each(|(pos, chunk)| {
                for b in 0..n {
                    chunk[b * oc..(b + 1) * oc].copy_from_slice(
                        &dy[(b * positions + pos) * oc..(b * positions + pos + 1) * oc],
                    );
                }
            });
        // dW per position: each position's weight block is contiguous, so the
        // parallel chunks line up exactly with the per-position matmuls.
        {
            let pack = &self.pack;
            let dy_pack = &self.dy_pack;
            self.weights
                .grad
                .par_chunks_mut(patch * oc)
                .enumerate()
                .for_each(|(pos, dw)| {
                    gemm::matmul_tn_acc_seq(
                        n,
                        patch,
                        oc,
                        &pack[pos * n * patch..(pos + 1) * n * patch],
                        &dy_pack[pos * n * oc..(pos + 1) * n * oc],
                        dw,
                    );
                });
        }
        // db per position (cheap; fixed sequential order).
        for pos in 0..positions {
            gemm::col_sums_acc(
                n,
                oc,
                &self.dy_pack[pos * n * oc..(pos + 1) * n * oc],
                &mut self.bias.grad[pos * oc..(pos + 1) * oc],
            );
        }
        // dPatch per position: dP = dY_pos · W_posᵀ.
        if self.dpatch.len() != positions * n * patch {
            self.dpatch.resize(positions * n * patch, 0.0);
        }
        {
            let weights = &self.weights.value;
            let dy_pack = &self.dy_pack;
            self.dpatch
                .par_chunks_mut(n * patch)
                .enumerate()
                .for_each(|(pos, dp)| {
                    gemm::matmul_nt_seq(
                        n,
                        oc,
                        patch,
                        &dy_pack[pos * n * oc..(pos + 1) * n * oc],
                        &weights[pos * patch * oc..(pos + 1) * patch * oc],
                        dp,
                    );
                });
        }
        // Scatter-add patch gradients back onto the input (parallel over batch
        // images — the only overlapping writes are within one image).
        let mut grad_input = Tensor::zeros(&[n, self.in_h, self.in_w, self.in_channels]);
        let (h, w, c) = (self.in_h, self.in_w, self.in_channels);
        let (kh, kw) = (self.kernel_h, self.kernel_w);
        let dpatch = &self.dpatch;
        grad_input
            .data_mut()
            .par_chunks_mut(h * w * c)
            .enumerate()
            .for_each(|(b, dimage)| {
                for pos in 0..positions {
                    let (oh, ow_) = (pos / ow_total, pos % ow_total);
                    let row = &dpatch[(pos * n + b) * patch..(pos * n + b + 1) * patch];
                    for dkh in 0..kh {
                        let dst0 = ((oh + dkh) * w + ow_) * c;
                        let dst = &mut dimage[dst0..dst0 + kw * c];
                        let src = &row[dkh * kw * c..(dkh + 1) * kw * c];
                        for (dv, &sv) in dst.iter_mut().zip(src) {
                            *dv += sv;
                        }
                    }
                }
            });
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn name(&self) -> String {
        format!(
            "LocallyConnected2d({}x{} kernel, {} -> {})",
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

    /// The production layer and its scalar oracle, built from one seeded RNG
    /// (so with identical weights), each with a label for messages.
    fn both(
        input_shape: (usize, usize, usize),
        kernel: (usize, usize),
        out_c: usize,
        seed: u64,
    ) -> [(&'static str, Box<dyn Layer>); 2] {
        let rng = || ChaCha8Rng::seed_from_u64(seed);
        [
            (
                "production",
                Box::new(LocallyConnected2d::new(
                    input_shape,
                    kernel,
                    out_c,
                    &mut rng(),
                )),
            ),
            (
                "reference",
                Box::new(Scalar::new(LocallyConnected2d::new(
                    input_shape,
                    kernel,
                    out_c,
                    &mut rng(),
                ))),
            ),
        ]
    }

    #[test]
    fn output_shape_is_valid_convolution_shape() {
        for (label, mut layer) in both((4, 4, 2), (2, 2), 3, 11) {
            let input = Tensor::zeros(&[2, 4, 4, 2]);
            let out = layer.forward(&input, false);
            assert_eq!(out.shape(), &[2, 3, 3, 3], "{label}");
            assert!(layer.name().contains("LocallyConnected2d"));
        }
    }

    #[test]
    fn positions_have_independent_weights() {
        for (label, mut layer) in both((2, 2, 1), (1, 1), 1, 13) {
            // Set each position's weight differently; a shared-weight conv could not do this.
            for (i, w) in layer.params_mut()[0].value.iter_mut().enumerate() {
                *w = (i + 1) as f32;
            }
            layer.params_mut()[1]
                .value
                .iter_mut()
                .for_each(|b| *b = 0.0);
            let input = Tensor::full(&[1, 2, 2, 1], 1.0);
            let out = layer.forward(&input, false);
            assert_eq!(out.data(), &[1.0, 2.0, 3.0, 4.0], "{label}");
        }
    }

    #[test]
    fn fast_matches_reference_forward_and_backward() {
        let mut drng = ChaCha8Rng::seed_from_u64(23);
        use rand::Rng;
        let input = Tensor::from_vec(
            &[3, 5, 4, 2],
            (0..3 * 5 * 4 * 2)
                .map(|_| drng.gen_range(-1.0..1.0))
                .collect(),
        );
        let [(_, mut b), (_, mut a)] = both((5, 4, 2), (2, 3), 3, 2);
        let ya = a.forward(&input, true);
        let yb = b.forward(&input, true);
        assert_eq!(ya.shape(), yb.shape());
        for (p, q) in ya.data().iter().zip(yb.data()) {
            assert!((p - q).abs() <= 1e-4 * p.abs().max(1.0), "fwd {p} vs {q}");
        }
        let grad_out = Tensor::from_vec(
            ya.shape(),
            (0..ya.len()).map(|_| drng.gen_range(-1.0..1.0)).collect(),
        );
        let ga = a.backward(&grad_out);
        let gb = b.backward(&grad_out);
        for (p, q) in ga.data().iter().zip(gb.data()) {
            assert!((p - q).abs() <= 1e-4 * p.abs().max(1.0), "dX {p} vs {q}");
        }
        let (pa, pb) = (a.params_mut(), b.params_mut());
        for (p, q) in pa[0].grad.iter().zip(&pb[0].grad) {
            assert!((p - q).abs() <= 1e-4 * p.abs().max(1.0), "dW {p} vs {q}");
        }
        for (p, q) in pa[1].grad.iter().zip(&pb[1].grad) {
            assert!((p - q).abs() <= 1e-4 * p.abs().max(1.0), "db {p} vs {q}");
        }
    }

    #[test]
    fn gradient_check() {
        for (label, mut layer) in both((3, 3, 1), (2, 2), 2, 17) {
            let input = Tensor::from_vec(
                &[1, 3, 3, 1],
                vec![0.2, -0.4, 0.6, 1.0, -1.2, 0.3, 0.7, 0.1, -0.9],
            );
            let out = layer.forward(&input, true);
            let grad_out = Tensor::full(out.shape(), 1.0);
            let grad_in = layer.backward(&grad_out);
            assert_eq!(grad_in.shape(), input.shape());
            let eps = 1e-2f32;
            for wi in (0..layer.params_mut()[0].len()).step_by(7) {
                let analytic = layer.params_mut()[0].grad[wi];
                let orig = layer.params_mut()[0].value[wi];
                layer.params_mut()[0].value[wi] = orig + eps;
                let up = layer.forward(&input, true).sum();
                layer.params_mut()[0].value[wi] = orig - eps;
                let down = layer.forward(&input, true).sum();
                layer.params_mut()[0].value[wi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{label} w{wi}: {analytic} vs {numeric}"
                );
            }
        }
    }
}
