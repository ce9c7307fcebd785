//! 2-D max pooling.

use rayon::prelude::*;

use crate::layers::Layer;
use crate::tensor::Tensor;

/// Max pooling over non-overlapping windows (the paper uses 2×2 windows with
/// stride 1×1 specified for conv layers; pooling stride equals the window here,
/// the conventional reading of the architecture in Figure 3).
///
/// The batch images are pooled in parallel, one image per task; within an
/// image every window is scanned in the same fixed order, so outputs and
/// argmax routing do not depend on the thread count.
#[derive(Debug)]
pub struct MaxPool2d {
    window_h: usize,
    window_w: usize,
    /// Flat indices (into the input) of each output element's maximum.
    cached_argmax: Vec<usize>,
    cached_input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window.
    pub fn new(window: (usize, usize)) -> Self {
        MaxPool2d {
            window_h: window.0,
            window_w: window.1,
            cached_argmax: Vec::new(),
            cached_input_shape: Vec::new(),
        }
    }

    /// Pools one batch image; `data` is the full NHWC input.  Free of `self`
    /// so it can run inside parallel regions that mutably borrow other fields.
    #[allow(clippy::too_many_arguments)]
    fn pool_image(
        window: (usize, usize),
        data: &[f32],
        b: usize,
        h: usize,
        w: usize,
        c: usize,
        oh: usize,
        ow: usize,
        out_image: &mut [f32],
        argmax_image: &mut [usize],
    ) {
        let (window_h, window_w) = window;
        for y in 0..oh {
            for x in 0..ow {
                for ch in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..window_h {
                        let iy = y * window_h + dy;
                        if iy >= h {
                            continue;
                        }
                        for dx in 0..window_w {
                            let ix = x * window_w + dx;
                            if ix >= w {
                                continue;
                            }
                            let idx = ((b * h + iy) * w + ix) * c + ch;
                            let v = data[idx];
                            if v > best {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    let local = (y * ow + x) * c + ch;
                    out_image[local] = best;
                    argmax_image[local] = best_idx;
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert_eq!(input.shape().len(), 4, "MaxPool2d expects NHWC input");
        let (n, h, w, c) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let oh = (h / self.window_h).max(1);
        let ow = (w / self.window_w).max(1);
        let mut out = Tensor::zeros(&[n, oh, ow, c]);
        // Every entry is written below: the buffers are only resized.
        self.cached_argmax.resize(out.len(), 0);
        self.cached_input_shape.clear();
        self.cached_input_shape.extend_from_slice(input.shape());
        // Values and argmax routing are written straight into disjoint
        // per-image chunks of the output and the cache (no temporaries).
        let data = input.data();
        let window = (self.window_h, self.window_w);
        out.data_mut()
            .par_chunks_mut(oh * ow * c)
            .zip(self.cached_argmax.par_chunks_mut(oh * ow * c))
            .enumerate()
            .for_each(|(b, (vals, idxs))| {
                Self::pool_image(window, data, b, h, w, c, oh, ow, vals, idxs);
            });
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_input_shape.is_empty(),
            "forward before backward"
        );
        let mut grad_input = Tensor::zeros(&self.cached_input_shape);
        for (out_idx, &in_idx) in self.cached_argmax.iter().enumerate() {
            grad_input.data_mut()[in_idx] += grad_output.data()[out_idx];
        }
        grad_input
    }

    fn name(&self) -> String {
        format!("MaxPool2d({}x{})", self.window_h, self.window_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maxima() {
        let mut pool = MaxPool2d::new((2, 2));
        let input = Tensor::from_vec(&[1, 2, 4, 1], vec![1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 4.0, 9.0]);
        let out = pool.forward(&input, false);
        assert_eq!(out.shape(), &[1, 1, 2, 1]);
        assert_eq!(out.data(), &[5.0, 9.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new((2, 2));
        let input = Tensor::from_vec(&[1, 2, 2, 1], vec![1.0, 5.0, 2.0, 0.0]);
        let _ = pool.forward(&input, true);
        let grad = pool.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![3.0]));
        assert_eq!(grad.data(), &[0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn odd_sizes_are_truncated() {
        let mut pool = MaxPool2d::new((2, 2));
        let input = Tensor::zeros(&[1, 5, 3, 2]);
        let out = pool.forward(&input, false);
        assert_eq!(out.shape(), &[1, 2, 1, 2]);
        assert!(pool.name().contains("MaxPool2d"));
    }
}
