//! 2-D convolution with "same" padding and stride 1.

use std::ops::Range;

use rand::Rng;
use rayon::prelude::*;

use crate::gemm;
use crate::init::Param;
use crate::layers::Layer;
use crate::tensor::Tensor;

/// Channels per parallel block of the output (forward) or of the input
/// gradient (backward).  Fixed, so the split never depends on the thread
/// count.
const BLOCK: usize = 32;

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
/// The convolution runs tap by tap over the valid window: for kernel tap `(dkh, dkw)` only the output positions whose
/// shifted input lies inside the map contribute, so the zero padding is
/// never read (the paper's 6×12 kernel on a 6×6 map covers 37.5 % of its
/// window on average).
///
/// * **Forward** adds `x[in] · W[tap]` into each output row, the tap's
///   `in_c × out_c` weight block used in place; every output element sums in
///   `(kh, kw, in_c)` order.  Parallel over blocks of output channels.
/// * **`dW`** sums each tap's `x[in] ⊗ dY[out]` over its output positions in
///   ascending order, from the non-zero `dY` entries only (2×2 max-pooling
///   leaves three in four at exactly zero), into a transposed copy of the
///   tap's gradient block.  Parallel over taps.
/// * **`dX`**: each `(position, tap)` partial sums the non-zero `dY` entries
///   of the position in `out_c` order and is added in output scan order.
///   Parallel over blocks of input channels.
///
/// With one input channel (the one-hot first layer) a tap holds too little
/// work to split, so forward runs each image over all output channels,
/// `dW` takes whole `dY` rows and `dX` whole kernel rows at once.
///
/// These are the per-element operation orders of a GEMM over the zero-padded
/// patch matrix, and skipping exact-zero terms cannot change a finite sum,
/// so the results are bit-identical to that formulation at any thread
/// count (`tests/backend_differential.rs` pins training-loss bits).
#[derive(Debug)]
pub struct Conv2d {
    pub(crate) kernel_h: usize,
    pub(crate) kernel_w: usize,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    /// Weights laid out as `[kh, kw, in_c, out_c]`.
    pub(crate) weights: Param,
    pub(crate) bias: Param,
    /// Input of the last training forward, which `dW` needs.
    cached_input: Option<Tensor>,
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
            cached_input: None,
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

    /// "Same" padding before the window along each axis.
    fn pads(&self) -> (usize, usize) {
        ((self.kernel_h - 1) / 2, (self.kernel_w - 1) / 2)
    }
}

/// Output positions `o` along an axis of length `n` whose tap `d` reads an
/// input inside the map: `0 <= o + d - pad < n`.
fn valid(n: usize, pad: usize, d: usize) -> Range<usize> {
    pad.saturating_sub(d)..(n + pad).saturating_sub(d).min(n)
}

/// The `(output, input)` position pairs of `images` (each `h × w`) where
/// tap `tap` of a `kh × kw` kernel reads inside the map, in ascending output
/// order.
fn tap_pairs(
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    tap: usize,
    images: Range<usize>,
) -> impl Iterator<Item = (usize, usize)> {
    let (dkh, dkw) = (tap / kw, tap % kw);
    let (ph, pw) = ((kh - 1) / 2, (kw - 1) / 2);
    images.flat_map(move |b| {
        valid(h, ph, dkh).flat_map(move |oh| {
            let (out, inp) = ((b * h + oh) * w, (b * h + oh + dkh - ph) * w);
            valid(w, pw, dkw).map(move |ow| (out + ow, inp + ow + dkw - pw))
        })
    })
}

/// `acc += Σ a · b[offset..][..acc.len()]` over the `(a, offset)` terms, in
/// order, skipping `a == 0`.  A full [`BLOCK`] keeps its sums in registers.
#[inline]
fn accumulate(acc: &mut [f32], terms: impl Iterator<Item = (f32, usize)>, b: &[f32]) {
    if let Ok(acc) = <&mut [f32; BLOCK]>::try_from(&mut *acc) {
        let mut sums = *acc;
        for (a, offset) in terms {
            if a != 0.0 {
                let row: &[f32; BLOCK] = b[offset..offset + BLOCK]
                    .try_into()
                    .expect("a slice of BLOCK elements");
                for (s, &bv) in sums.iter_mut().zip(row) {
                    *s += a * bv;
                }
            }
        }
        *acc = sums;
    } else {
        let width = acc.len();
        for (a, offset) in terms {
            if a != 0.0 {
                axpy(acc, a, &b[offset..offset + width]);
            }
        }
    }
}

/// Runs `job(channels, images, out)` over blocks of up to `block` of the
/// `channels` channels of an NHWC tensor with `n` images of `hw` positions,
/// writing into `out`.  The `out` slice a job gets holds its images'
/// positions, each with its block's channels contiguous
/// (`[position][channels.len()]`, starting at zero).
///
/// A single block runs per image straight in `out`; wider tensors run one
/// job per block over all images and are interleaved afterwards.
fn for_channel_blocks(
    n: usize,
    hw: usize,
    (channels, block): (usize, usize),
    out: &mut [f32],
    job: impl Fn(Range<usize>, Range<usize>, &mut [f32]) + Sync,
) {
    if channels <= block {
        out.par_chunks_mut(hw * channels)
            .enumerate()
            .for_each(|(b, image)| job(0..channels, b..b + 1, image));
        return;
    }
    let rows = n * hw;
    let mut blocks = vec![0.0f32; channels.div_ceil(block) * rows * block];
    blocks
        .par_chunks_mut(rows * block)
        .enumerate()
        .for_each(|(k, buf)| {
            let range = k * block..channels.min((k + 1) * block);
            let width = range.len();
            job(range, 0..n, &mut buf[..rows * width]);
        });
    for (k, buf) in blocks.chunks(rows * block).enumerate() {
        let c0 = k * block;
        let width = channels.min(c0 + block) - c0;
        for (dst, src) in out.chunks_mut(channels).zip(buf.chunks(width)) {
            dst[c0..c0 + width].copy_from_slice(src);
        }
    }
}

/// `acc += a · x`, element-wise.
#[inline]
fn axpy(acc: &mut [f32], a: f32, x: &[f32]) {
    for (v, &xv) in acc.iter_mut().zip(x) {
        *v += a * xv;
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let [n, h, w, c]: [usize; 4] = input.shape().try_into().expect("Conv2d expects NHWC input");
        assert_eq!(c, self.in_channels, "channel mismatch");
        let oc = self.out_channels;
        let (x, weights) = (input.data(), &self.weights.value);
        let mut out = Tensor::zeros(&[n, h, w, oc]);
        // One input channel (the one-hot first layer) has one term per tap:
        // run each image over all output channels at once.
        let block = if c == 1 { oc } else { BLOCK };
        let kernel = self.kernel();
        for_channel_blocks(
            n,
            h * w,
            (oc, block),
            out.data_mut(),
            |outs, images, acc| {
                let (nb, first) = (outs.len(), images.start * h * w);
                for (tap, wt) in weights.chunks(c * oc).enumerate() {
                    for (o, i) in tap_pairs((h, w), kernel, tap, images.clone()) {
                        let xr = &x[i * c..(i + 1) * c];
                        if xr.iter().all(|&xv| xv == 0.0) {
                            continue;
                        }
                        let terms = xr.iter().enumerate().map(|(ci, &xv)| (xv, ci * oc));
                        accumulate(&mut acc[(o - first) * nb..][..nb], terms, &wt[outs.start..]);
                    }
                }
            },
        );
        gemm::add_bias_rows(n * h * w, oc, &self.bias.value, out.data_mut());
        self.cached_input = training.then(|| input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("training forward before backward");
        let [n, h, w, c]: [usize; 4] = input.shape().try_into().expect("NHWC input");
        let (kw, oc) = (self.kernel_w, self.out_channels);
        let (ph, pw) = self.pads();
        let (x, dy) = (input.data(), grad_output.data());
        assert_eq!(dy.len(), n * h * w * oc, "gradient shape mismatch");
        // db += column sums of dY.
        gemm::col_sums_acc(n * h * w, oc, dy, &mut self.bias.grad);

        // The non-zero entries of each dY row, as `(channel, value)` runs
        // (gathered branch-free: max-pooling scatters them at random).
        let mut nz = Vec::new();
        let mut nz_start = Vec::with_capacity(n * h * w + 1);
        nz_start.push(0);
        let mut row_nz = vec![(0usize, 0.0f32); oc];
        for row in dy.chunks(oc) {
            let mut len = 0;
            for (o, &v) in row.iter().enumerate() {
                row_nz[len] = (o, v);
                len += usize::from(v != 0.0);
            }
            nz.extend_from_slice(&row_nz[..len]);
            nz_start.push(nz.len());
        }
        let nz_row = |r: usize| &nz[nz_start[r]..nz_start[r + 1]];

        // dW[tap] += Σ x[in] ⊗ dY[out] over the tap's output positions in
        // ascending order.  The tap's block is accumulated transposed,
        // `[out_c][in_c]`, so each non-zero dY entry is one contiguous axpy
        // over x[in]; one input channel needs no transpose and takes the dY
        // row whole.
        let kernel = self.kernel();
        self.weights
            .grad
            .par_chunks_mut(c * oc)
            .enumerate()
            .for_each(|(tap, gw)| {
                let pairs = tap_pairs((h, w), kernel, tap, 0..n);
                if c == 1 {
                    for (o, i) in pairs {
                        if x[i] != 0.0 {
                            axpy(gw, x[i], &dy[o * oc..(o + 1) * oc]);
                        }
                    }
                    return;
                }
                let mut gt = vec![0.0f32; oc * c];
                for (ci, g) in gw.chunks(oc).enumerate() {
                    for (o, &gv) in g.iter().enumerate() {
                        gt[o * c + ci] = gv;
                    }
                }
                for (o, i) in pairs {
                    let xr = &x[i * c..(i + 1) * c];
                    if xr.iter().all(|&xv| xv == 0.0) {
                        continue;
                    }
                    for &(j, v) in nz_row(o) {
                        axpy(&mut gt[j * c..(j + 1) * c], v, xr);
                    }
                }
                for (ci, g) in gw.chunks_mut(oc).enumerate() {
                    for (o, gv) in g.iter_mut().enumerate() {
                        *gv = gt[o * c + ci];
                    }
                }
            });

        // dX: per input-channel block, output positions in scan order, each
        // position's partials for all its valid taps; the block's weights
        // are repacked as `[out_c][kh][kw][block]` so a partial is a
        // contiguous axpy per non-zero dY entry.  With one input channel a
        // kernel row holds too few lanes, so whole kernel rows go at once.
        let (kh, weights) = (self.kernel_h, &self.weights.value);
        let mut grad_input = Tensor::zeros(input.shape());
        for_channel_blocks(
            n,
            h * w,
            (c, BLOCK),
            grad_input.data_mut(),
            |ins, images, dx| {
                let (nc, taps) = (ins.len(), kh * kw);
                let mut tile = vec![0.0f32; oc * taps * nc];
                for tap in 0..taps {
                    for (l, ci) in ins.clone().enumerate() {
                        let wr = &weights[(tap * c + ci) * oc..][..oc];
                        for (o, &wv) in wr.iter().enumerate() {
                            tile[(o * taps + tap) * nc + l] = wv;
                        }
                    }
                }
                let mut partial = vec![0.0f32; taps * nc];
                for (bi, b) in images.enumerate() {
                    for (oh, ow) in (0..h).flat_map(|oh| (0..w).map(move |ow| (oh, ow))) {
                        let entries = nz_row((b * h + oh) * w + ow);
                        // The kernel rows and columns that read inside the map.
                        let rows = ph.saturating_sub(oh)..(h + ph - oh).min(kh);
                        let cols = pw.saturating_sub(ow)..(w + pw - ow).min(kw);
                        if entries.is_empty() || rows.is_empty() || cols.is_empty() {
                            continue;
                        }
                        if nc == 1 {
                            let lanes = rows.start * kw..rows.end * kw;
                            let p = &mut partial[lanes.clone()];
                            p.fill(0.0);
                            for &(o, v) in entries {
                                axpy(p, v, &tile[o * taps..][lanes.clone()]);
                            }
                        } else {
                            for dkh in rows.clone() {
                                for tap in dkh * kw + cols.start..dkh * kw + cols.end {
                                    let p = &mut partial[tap * nc..(tap + 1) * nc];
                                    p.fill(0.0);
                                    let terms =
                                        entries.iter().map(|&(o, v)| (v, (o * taps + tap) * nc));
                                    accumulate(p, terms, &tile);
                                }
                            }
                        }
                        for dkh in rows {
                            let first = (bi * h + oh + dkh - ph) * w + ow + cols.start - pw;
                            let dst = &mut dx[first * nc..][..cols.len() * nc];
                            let src = &partial[(dkh * kw + cols.start) * nc..];
                            for (d, &pv) in dst.iter_mut().zip(src) {
                                *d += pv;
                            }
                        }
                    }
                }
            },
        );
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

    /// A one-hot flow encoding: one set cell per row of the `h × w` map.
    fn one_hot_input(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Tensor::zeros(&[n, h, w, 1]);
        for b in 0..n {
            for row in 0..h {
                *x.at4_mut(b, row, rng.gen_range(0..w), 0) = 1.0;
            }
        }
        x
    }

    /// The gradient 2×2 max-pooling routes back: in each window every channel
    /// keeps one position (75 % exact zeros), and two positions get none at
    /// all (all-zero rows).
    fn pooled_gradient(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, h, w, c) = (shape[0], shape[1], shape[2], shape[3]);
        let mut g = Tensor::zeros(shape);
        for b in 0..n {
            for (wh, ww) in (0..h / 2).flat_map(|wh| (0..w / 2).map(move |ww| (wh, ww))) {
                for ch in 0..c {
                    let k = rng.gen_range(0..4usize);
                    *g.at4_mut(b, 2 * wh + k / 2, 2 * ww + k % 2, ch) = rng.gen_range(-1.0..1.0);
                }
            }
        }
        for ch in 0..c {
            *g.at4_mut(0, 0, 0, ch) = 0.0;
            *g.at4_mut(n - 1, h - 1, w - 1, ch) = 0.0;
        }
        g
    }

    #[test]
    fn fast_forward_matches_reference() {
        for (kernel, in_c, out_c, shape, one_hot) in [
            ((3, 3), 1, 2, [2, 5, 5, 1], false),
            ((3, 6), 2, 4, [1, 12, 12, 2], false),
            ((6, 12), 1, 3, [2, 12, 12, 1], false),
            ((2, 2), 3, 2, [1, 4, 4, 3], false),
            // The second stage of the paper's classifier: a 6×12 kernel on a
            // 6×6 map, where kernel column 11 never lands inside the input;
            // 40 → 36 channels splits both channel counts into blocks.
            ((6, 12), 8, 8, [2, 6, 6, 8], false),
            ((6, 12), 40, 36, [2, 6, 6, 40], false),
            // The first stage: one channel of one-hot input.
            ((6, 12), 1, 40, [2, 12, 12, 1], true),
        ] {
            let input = if one_hot {
                one_hot_input(shape[0], shape[1], shape[2], 21)
            } else {
                seeded_input(&shape, 21)
            };
            let [(_, mut conv_fast), (_, mut conv_ref)] = both(kernel, in_c, out_c);
            let a = conv_ref.forward(&input, true);
            let b = conv_fast.forward(&input, true);
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!(
                    (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                    "kernel {kernel:?}, {in_c} -> {out_c}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn fast_backward_matches_reference() {
        for (kernel, in_c, out_c, shape, sparse) in [
            ((3, 6), 2, 3, [2, 6, 6, 2], false),
            ((6, 12), 8, 8, [2, 6, 6, 8], true),
            ((6, 12), 40, 36, [2, 6, 6, 40], true),
            ((6, 12), 1, 40, [2, 12, 12, 1], true),
        ] {
            let label = format!("kernel {kernel:?}, {in_c} -> {out_c}");
            let input = if in_c == 1 && sparse {
                one_hot_input(shape[0], shape[1], shape[2], 33)
            } else {
                seeded_input(&shape, 33)
            };
            let [(_, mut conv_fast), (_, mut conv_ref)] = both(kernel, in_c, out_c);
            // Same seed ⇒ same weights.
            assert_eq!(
                conv_ref.params_mut()[0].value,
                conv_fast.params_mut()[0].value
            );

            let out_ref = conv_ref.forward(&input, true);
            let _ = conv_fast.forward(&input, true);
            let grad_out = if sparse {
                let g = pooled_gradient(out_ref.shape(), 34);
                let zeros = g.data().iter().filter(|&&v| v == 0.0).count();
                assert!(4 * zeros >= 3 * g.len(), "{label}: dY not pool-sparse");
                g
            } else {
                seeded_input(out_ref.shape(), 34)
            };
            let gi_ref = conv_ref.backward(&grad_out);
            let gi_fast = conv_fast.backward(&grad_out);
            assert_eq!(gi_ref.shape(), gi_fast.shape());
            for (x, y) in gi_ref.data().iter().zip(gi_fast.data()) {
                assert!(
                    (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                    "{label} dX: {x} vs {y}"
                );
            }
            let (p_ref, p_fast) = (conv_ref.params_mut(), conv_fast.params_mut());
            for (x, y) in p_ref[0].grad.iter().zip(&p_fast[0].grad) {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                    "{label} dW: {x} vs {y}"
                );
            }
            for (x, y) in p_ref[1].grad.iter().zip(&p_fast[1].grad) {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                    "{label} db: {x} vs {y}"
                );
            }
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
