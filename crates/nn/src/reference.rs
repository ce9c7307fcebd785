//! The oracle: the scalar loop nests the trainable layers started from.
//!
//! `nn` has one compute path: the dense and locally-connected layers run the
//! blocked GEMMs of [`crate::gemm`], the convolution one register-tiled
//! micro-kernel over the valid window.  This module is the other
//! implementation — the seed's obviously structured loop nests for
//! [`crate::Conv2d`], [`crate::Dense`] and [`crate::LocallyConnected2d`].
//! [`Scalar`] wraps a production layer and runs those loops over its
//! parameters, so a network of `Scalar::new(Conv2d::new(.., rng))` layers and
//! one of plain production layers, built from one seeded RNG, start from
//! identical weights.  It exists so the layer unit tests and
//! `tests/backend_differential.rs` can hold the production path to it;
//! nothing that ships calls it.
//!
//! `MaxPool2d` has no oracle: its batch-parallel scan visits each window in
//! the serial order, and `backend_differential.rs` pins the whole stack
//! bit-identical across thread counts.

use crate::init::Param;
use crate::layers::{self, Layer};
use crate::tensor::Tensor;

/// A production layer — [`crate::Conv2d`], [`crate::Dense`] or
/// [`crate::LocallyConnected2d`] — computed by the seed's scalar loop nest
/// instead of its GEMMs; the parameters (and their gradients) are the wrapped
/// layer's own.
#[derive(Debug)]
pub struct Scalar<L> {
    layer: L,
    cached_input: Option<Tensor>,
}

impl<L> Scalar<L> {
    /// Wraps `layer`.
    pub fn new(layer: L) -> Self {
        Scalar {
            layer,
            cached_input: None,
        }
    }
}

/// Index of weight `(kh, kw, ic, oc)` in the production layout
/// `[kh, kw, in_c, out_c]`.
fn conv_w_index(l: &layers::Conv2d, kh: usize, kw: usize, ic: usize, oc: usize) -> usize {
    ((kh * l.kernel_w + kw) * l.in_channels + ic) * l.out_channels + oc
}

impl Layer for Scalar<layers::Conv2d> {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let l = &self.layer;
        assert_eq!(input.shape().len(), 4, "Conv2d expects NHWC input");
        assert_eq!(input.shape()[3], l.in_channels, "channel mismatch");
        let (n, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let pad_h = (l.kernel_h - 1) / 2;
        let pad_w = (l.kernel_w - 1) / 2;
        let mut out = Tensor::zeros(&[n, h, w, l.out_channels]);
        for b in 0..n {
            for oh in 0..h {
                for ow in 0..w {
                    for oc in 0..l.out_channels {
                        let mut acc = l.bias.value[oc];
                        for kh in 0..l.kernel_h {
                            let ih = oh as isize + kh as isize - pad_h as isize;
                            if ih < 0 || ih >= h as isize {
                                continue;
                            }
                            for kw in 0..l.kernel_w {
                                let iw = ow as isize + kw as isize - pad_w as isize;
                                if iw < 0 || iw >= w as isize {
                                    continue;
                                }
                                for ic in 0..l.in_channels {
                                    acc += input.at4(b, ih as usize, iw as usize, ic)
                                        * l.weights.value[conv_w_index(l, kh, kw, ic, oc)];
                                }
                            }
                        }
                        *out.at4_mut(b, oh, ow, oc) = acc;
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("forward before backward");
        let l = &mut self.layer;
        let (n, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let pad_h = (l.kernel_h - 1) / 2;
        let pad_w = (l.kernel_w - 1) / 2;
        let mut grad_input = Tensor::zeros(input.shape());
        for b in 0..n {
            for oh in 0..h {
                for ow in 0..w {
                    for oc in 0..l.out_channels {
                        let go = grad_output.at4(b, oh, ow, oc);
                        if go == 0.0 {
                            continue;
                        }
                        l.bias.grad[oc] += go;
                        for kh in 0..l.kernel_h {
                            let ih = oh as isize + kh as isize - pad_h as isize;
                            if ih < 0 || ih >= h as isize {
                                continue;
                            }
                            for kw in 0..l.kernel_w {
                                let iw = ow as isize + kw as isize - pad_w as isize;
                                if iw < 0 || iw >= w as isize {
                                    continue;
                                }
                                for ic in 0..l.in_channels {
                                    let wi = conv_w_index(l, kh, kw, ic, oc);
                                    let x = input.at4(b, ih as usize, iw as usize, ic);
                                    l.weights.grad[wi] += go * x;
                                    *grad_input.at4_mut(b, ih as usize, iw as usize, ic) +=
                                        go * l.weights.value[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layer.params_mut()
    }

    fn name(&self) -> String {
        self.layer.name()
    }
}

impl Layer for Scalar<layers::Dense> {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let l = &self.layer;
        assert_eq!(input.shape().len(), 2, "Dense expects [batch, features]");
        let batch = input.shape()[0];
        assert_eq!(input.shape()[1], l.in_features, "feature mismatch");
        let mut out = Tensor::zeros(&[batch, l.out_features]);
        for b in 0..batch {
            for o in 0..l.out_features {
                let mut acc = l.bias.value[o];
                for i in 0..l.in_features {
                    acc += input.at2(b, i) * l.weights.value[i * l.out_features + o];
                }
                out.data_mut()[b * l.out_features + o] = acc;
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("forward before backward");
        let l = &mut self.layer;
        let mut grad_input = Tensor::zeros(input.shape());
        for b in 0..input.shape()[0] {
            for o in 0..l.out_features {
                let go = grad_output.at2(b, o);
                if go == 0.0 {
                    continue;
                }
                l.bias.grad[o] += go;
                for i in 0..l.in_features {
                    l.weights.grad[i * l.out_features + o] += go * input.at2(b, i);
                    grad_input.data_mut()[b * l.in_features + i] +=
                        go * l.weights.value[i * l.out_features + o];
                }
            }
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layer.params_mut()
    }

    fn name(&self) -> String {
        self.layer.name()
    }
}

/// Index of weight `(oh, ow, kh, kw, ic, oc)` in the production layout
/// `[oh, ow, kh, kw, ic, oc]`.
#[allow(clippy::too_many_arguments)]
fn local_w_index(
    l: &layers::LocallyConnected2d,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    ic: usize,
    oc: usize,
) -> usize {
    let (_, ow_total) = l.out_dims();
    ((((oh * ow_total + ow) * l.kernel_h + kh) * l.kernel_w + kw) * l.in_channels + ic)
        * l.out_channels
        + oc
}

impl Layer for Scalar<layers::LocallyConnected2d> {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let l = &self.layer;
        assert_eq!(
            input.shape().len(),
            4,
            "LocallyConnected2d expects NHWC input"
        );
        assert_eq!(input.shape()[1], l.in_h, "height mismatch");
        assert_eq!(input.shape()[2], l.in_w, "width mismatch");
        assert_eq!(input.shape()[3], l.in_channels, "channel mismatch");
        let n = input.shape()[0];
        let (oh_total, ow_total) = l.out_dims();
        let mut out = Tensor::zeros(&[n, oh_total, ow_total, l.out_channels]);
        for b in 0..n {
            for oh in 0..oh_total {
                for ow in 0..ow_total {
                    for oc in 0..l.out_channels {
                        let mut acc = l.bias.value[(oh * ow_total + ow) * l.out_channels + oc];
                        for kh in 0..l.kernel_h {
                            for kw in 0..l.kernel_w {
                                for ic in 0..l.in_channels {
                                    acc += input.at4(b, oh + kh, ow + kw, ic)
                                        * l.weights.value[local_w_index(l, oh, ow, kh, kw, ic, oc)];
                                }
                            }
                        }
                        *out.at4_mut(b, oh, ow, oc) = acc;
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("forward before backward");
        let l = &mut self.layer;
        let (oh_total, ow_total) = l.out_dims();
        let mut grad_input = Tensor::zeros(input.shape());
        for b in 0..input.shape()[0] {
            for oh in 0..oh_total {
                for ow in 0..ow_total {
                    for oc in 0..l.out_channels {
                        let go = grad_output.at4(b, oh, ow, oc);
                        if go == 0.0 {
                            continue;
                        }
                        l.bias.grad[(oh * ow_total + ow) * l.out_channels + oc] += go;
                        for kh in 0..l.kernel_h {
                            for kw in 0..l.kernel_w {
                                for ic in 0..l.in_channels {
                                    let wi = local_w_index(l, oh, ow, kh, kw, ic, oc);
                                    l.weights.grad[wi] += go * input.at4(b, oh + kh, ow + kw, ic);
                                    *grad_input.at4_mut(b, oh + kh, ow + kw, ic) +=
                                        go * l.weights.value[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layer.params_mut()
    }

    fn name(&self) -> String {
        self.layer.name()
    }
}
