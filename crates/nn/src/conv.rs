//! 2-D convolution with padding and rectangular stride.
//!
//! The paper's extractor uses 3×3 kernels with a stride of 1×2 (stride 1
//! across axes, 2 across time), so stride and padding are independent per
//! dimension here.

use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::SeedableRng;

use crate::gemm::gemm_acc;
use crate::infer::{InferCtx, Shape};
use crate::init::kaiming_normal;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// A 2-D convolution layer.
///
/// Input shape `[N, in_channels, H, W]`, output shape
/// `[N, out_channels, H_out, W_out]` with
/// `H_out = (H + 2·pad_h − kh) / stride_h + 1` (and likewise for `W`).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    weight: Tensor, // [out_c, in_c, kh, kw]
    bias: Tensor,   // [out_c]
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-normal weights and zero
    /// bias, deterministically initialised from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any kernel or stride dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        seed: u64,
    ) -> Self {
        assert!(
            kernel.0 > 0 && kernel.1 > 0,
            "kernel dimensions must be positive"
        );
        assert!(
            stride.0 > 0 && stride.1 > 0,
            "stride dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = in_channels * kernel.0 * kernel.1;
        let len = out_channels * fan_in;
        let weight = Tensor::from_vec(
            vec![out_channels, in_channels, kernel.0, kernel.1],
            kaiming_normal(&mut rng, fan_in, len),
        )
        .expect("weight shape matches generated data");
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias: Tensor::zeros(vec![out_channels]),
            grad_weight: Tensor::zeros(vec![out_channels, in_channels, kernel.0, kernel.1]),
            grad_bias: Tensor::zeros(vec![out_channels]),
            cached_input: None,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding.0).saturating_sub(self.kernel.0) / self.stride.0 + 1;
        let ow = (w + 2 * self.padding.1).saturating_sub(self.kernel.1) / self.stride.1 + 1;
        (oh, ow)
    }

    /// The number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// `(N, H, W)` of an `[N, in_channels, H, W]` input.
    fn check_input(&self, dims: &[usize]) -> (usize, usize, usize) {
        assert_eq!(dims.len(), 4, "conv2d expects [N, C, H, W] input");
        assert_eq!(dims[1], self.in_channels, "input channel mismatch");
        (dims[0], dims[2], dims[3])
    }
}

/// Packs one `[in_c, h, w]` image into the im2col matrix
/// `col: [in_c·kh·kw, oh·ow]`, row `((ic·kh)+ky)·kw+kx`, column
/// `oy·ow+ox`. Padding taps become explicit zeros, which keeps the
/// following GEMM's accumulation order identical to the naive kernel's
/// skip-out-of-bounds loop (`x + ±0.0` only ever flips a `-0.0` to
/// `+0.0`, invisible to `f32` equality).
#[allow(clippy::too_many_arguments)]
fn im2col(
    x: &[f32],
    (in_c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ph, pw): (usize, usize),
    (oh, ow): (usize, usize),
    col: &mut [f32],
) {
    let out_plane = oh * ow;
    let mut row = 0usize;
    for ic in 0..in_c {
        let x_plane = &x[ic * h * w..(ic + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let dst = &mut col[row * out_plane..(row + 1) * out_plane];
                row += 1;
                // Valid ox range: 0 <= ox·sw + kx − pw < w, hoisted out
                // of the inner loop so the copies run branch-free.
                let lo = if kx >= pw {
                    0
                } else {
                    (pw - kx).div_ceil(sw).min(ow)
                };
                let hi = if w + pw > kx {
                    ((w - 1 + pw - kx) / sw + 1).min(ow)
                } else {
                    0
                }
                .max(lo);
                for oy in 0..oh {
                    let iy = oy * sh + ky;
                    let d = &mut dst[oy * ow..(oy + 1) * ow];
                    if iy < ph || iy >= h + ph {
                        d.fill(0.0);
                        continue;
                    }
                    let src_row = &x_plane[(iy - ph) * w..(iy - ph + 1) * w];
                    d[..lo].fill(0.0);
                    d[hi..].fill(0.0);
                    if hi == lo {
                        continue;
                    }
                    if sw == 1 {
                        let start = lo + kx - pw;
                        d[lo..hi].copy_from_slice(&src_row[start..start + (hi - lo)]);
                    } else {
                        let mut ix = lo * sw + kx - pw;
                        for v in &mut d[lo..hi] {
                            *v = src_row[ix];
                            ix += sw;
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    /// The naive loop nest: the training kernel, and in evaluation mode
    /// the parity oracle of the im2col + GEMM [`Layer::infer`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (n, h, w) = self.check_input(input.shape());
        let (kh, kw) = self.kernel;
        let (sh, sw) = self.stride;
        let (ph, pw) = self.padding;
        let (oh, ow) = self.output_size(h, w);
        let mut out = Tensor::zeros(vec![n, self.out_channels, oh, ow]);
        let x = input.data();
        let wt = self.weight.data();
        let b = self.bias.data();
        let y = out.data_mut();

        let in_plane = h * w;
        let out_plane = oh * ow;
        for img in 0..n {
            for (oc, &bias_oc) in b.iter().enumerate() {
                let y_base = (img * self.out_channels + oc) * out_plane;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias_oc;
                        // Top-left corner of the receptive field in padded coords.
                        let iy0 = oy * sh;
                        let ix0 = ox * sw;
                        for ic in 0..self.in_channels {
                            let x_base = (img * self.in_channels + ic) * in_plane;
                            let w_base = ((oc * self.in_channels + ic) * kh) * kw;
                            for ky in 0..kh {
                                let iy = iy0 + ky;
                                if iy < ph || iy >= h + ph {
                                    continue;
                                }
                                let row = x_base + (iy - ph) * w;
                                let w_row = w_base + ky * kw;
                                for kx in 0..kw {
                                    let ix = ix0 + kx;
                                    if ix < pw || ix >= w + pw {
                                        continue;
                                    }
                                    acc += x[row + (ix - pw)] * wt[w_row + kx];
                                }
                            }
                        }
                        y[y_base + oy * ow + ox] = acc;
                    }
                }
            }
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn infer(&self, input: Vec<f32>, shape: Shape, ctx: &mut InferCtx) -> (Vec<f32>, Shape) {
        let (n, h, w) = self.check_input(shape.dims());
        let (oh, ow) = self.output_size(h, w);
        let out_plane = oh * ow;
        let k = self.in_channels * self.kernel.0 * self.kernel.1;
        let mut out = ctx.acquire(n * self.out_channels * out_plane);
        let mut col = ctx.acquire(k * out_plane);
        let in_plane = h * w;
        let wt = self.weight.data();
        let b = self.bias.data();
        for img in 0..n {
            let x_img = &input[img * self.in_channels * in_plane..];
            let y_img = &mut out
                [img * self.out_channels * out_plane..(img + 1) * self.out_channels * out_plane];
            {
                let _span = mandipass_telemetry::span("im2col");
                im2col(
                    x_img,
                    (self.in_channels, h, w),
                    self.kernel,
                    self.stride,
                    self.padding,
                    (oh, ow),
                    &mut col,
                );
            }
            {
                let _span = mandipass_telemetry::span("bias_act");
                for (oc, &bias_oc) in b.iter().enumerate() {
                    y_img[oc * out_plane..(oc + 1) * out_plane].fill(bias_oc);
                }
            }
            {
                let _span = mandipass_telemetry::span("gemm");
                gemm_acc(self.out_channels, k, out_plane, wt, &col, y_img);
            }
        }
        ctx.release(col);
        ctx.release(input);
        (out, Shape::d4(n, self.out_channels, oh, ow))
    }

    fn absorb_affine(&mut self, scale: &[f32], shift: &[f32]) -> bool {
        if scale.len() != self.out_channels || shift.len() != self.out_channels {
            return false;
        }
        let per_oc = self.in_channels * self.kernel.0 * self.kernel.1;
        let wt = self.weight.data_mut();
        for (oc, &s) in scale.iter().enumerate() {
            for v in &mut wt[oc * per_oc..(oc + 1) * per_oc] {
                *v *= s;
            }
        }
        for ((bv, &s), &t) in self.bias.data_mut().iter_mut().zip(scale).zip(shift) {
            *bv = *bv * s + t;
        }
        true
    }

    fn training_cache_active(&self) -> bool {
        self.cached_input.is_some()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward requires a preceding training-mode forward");
        let (n, h, w) = self.check_input(input.shape());
        let (kh, kw) = self.kernel;
        let (sh, sw) = self.stride;
        let (ph, pw) = self.padding;
        let (oh, ow) = self.output_size(h, w);
        assert_eq!(grad_output.shape(), &[n, self.out_channels, oh, ow]);

        let x = input.data();
        let wt = self.weight.data();
        let go = grad_output.data();
        let mut grad_input = Tensor::zeros(vec![n, self.in_channels, h, w]);
        let gx = grad_input.data_mut();
        let gw = self.grad_weight.data_mut();
        let gb = self.grad_bias.data_mut();

        let in_plane = h * w;
        let out_plane = oh * ow;
        for img in 0..n {
            for (oc, gb_oc) in gb.iter_mut().enumerate() {
                let go_base = (img * self.out_channels + oc) * out_plane;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[go_base + oy * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        *gb_oc += g;
                        let iy0 = oy * sh;
                        let ix0 = ox * sw;
                        for ic in 0..self.in_channels {
                            let x_base = (img * self.in_channels + ic) * in_plane;
                            let w_base = ((oc * self.in_channels + ic) * kh) * kw;
                            for ky in 0..kh {
                                let iy = iy0 + ky;
                                if iy < ph || iy >= h + ph {
                                    continue;
                                }
                                let row = x_base + (iy - ph) * w;
                                let w_row = w_base + ky * kw;
                                for kx in 0..kw {
                                    let ix = ix0 + kx;
                                    if ix < pw || ix >= w + pw {
                                        continue;
                                    }
                                    let xi = row + (ix - pw);
                                    gw[w_row + kx] += g * x[xi];
                                    gx[xi] += g * wt[w_row + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.weight,
                grad: &mut self.grad_weight,
                name: "weight".into(),
            },
            Param {
                value: &mut self.bias,
                grad: &mut self.grad_bias,
                name: "bias".into(),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;

    #[test]
    fn output_size_matches_formula() {
        let conv = Conv2d::new(1, 1, (3, 3), (1, 2), (1, 1), 0);
        // The paper's first layer on a (6, 30) direction plane.
        assert_eq!(conv.output_size(6, 30), (6, 15));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut conv = Conv2d::new(1, 1, (1, 1), (1, 1), (0, 0), 0);
        conv.weight = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 3]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_kernel_sums_receptive_field() {
        let mut conv = Conv2d::new(1, 1, (2, 2), (1, 1), (0, 0), 0);
        conv.weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0; 4]).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[10.0]);
    }

    #[test]
    fn padding_extends_with_zeros() {
        let mut conv = Conv2d::new(1, 1, (3, 3), (1, 1), (1, 1), 0);
        conv.weight = Tensor::from_vec(vec![1, 1, 3, 3], vec![1.0; 9]).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]).unwrap();
        let y = conv.forward(&x, false);
        // Single pixel, full padding: sum over receptive field is just 5.
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[5.0]);
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let mut conv = Conv2d::new(1, 2, (1, 1), (1, 1), (0, 0), 0);
        conv.weight = Tensor::from_vec(vec![2, 1, 1, 1], vec![0.0, 0.0]).unwrap();
        conv.bias = Tensor::from_vec(vec![2], vec![1.5, -2.5]).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 1, 2], vec![9.0, 9.0]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[1.5, 1.5, -2.5, -2.5]);
    }

    #[test]
    fn stride_subsamples_output() {
        let mut conv = Conv2d::new(1, 1, (1, 1), (1, 2), (0, 0), 0);
        conv.weight = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 1, 6], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 3]);
        assert_eq!(y.data(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Small conv + flatten-as-logits so we can reuse cross_entropy.
        let mut conv = Conv2d::new(2, 2, (2, 2), (1, 1), (1, 1), 7);
        let x_data: Vec<f32> = (0..2 * 2 * 3 * 3)
            .map(|i| ((i * 13 % 17) as f32 - 8.0) / 10.0)
            .collect();
        let x = Tensor::from_vec(vec![2, 2, 3, 3], x_data).unwrap();
        let labels = [3usize, 11usize];

        let flatten_logits = |t: Tensor| {
            let n = t.shape()[0];
            let f = t.len() / n;
            t.reshape(vec![n, f]).unwrap()
        };

        conv.zero_grad();
        let out = conv.forward(&x, true);
        let n_feats = out.len() / 2;
        let logits = flatten_logits(out);
        let (_, grad) = cross_entropy(&logits, &labels);
        let grad4 = grad.reshape(vec![2, 2, 4, n_feats / 8]).unwrap();
        let grad_input = conv.backward(&grad4);

        let eps = 1e-2f32;
        let analytic_gw = conv.grad_weight.clone();
        for idx in (0..conv.weight.len()).step_by(3) {
            let orig = conv.weight.data()[idx];
            conv.weight.data_mut()[idx] = orig + eps;
            let (lp, _) = cross_entropy(&flatten_logits(conv.forward(&x, false)), &labels);
            conv.weight.data_mut()[idx] = orig - eps;
            let (lm, _) = cross_entropy(&flatten_logits(conv.forward(&x, false)), &labels);
            conv.weight.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic_gw.data()[idx]).abs() < 5e-3,
                "weight[{idx}]: fd {fd} vs analytic {}",
                analytic_gw.data()[idx]
            );
        }

        let mut x_var = x.clone();
        for idx in (0..x.len()).step_by(5) {
            let orig = x_var.data()[idx];
            x_var.data_mut()[idx] = orig + eps;
            let (lp, _) = cross_entropy(&flatten_logits(conv.forward(&x_var, false)), &labels);
            x_var.data_mut()[idx] = orig - eps;
            let (lm, _) = cross_entropy(&flatten_logits(conv.forward(&x_var, false)), &labels);
            x_var.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad_input.data()[idx]).abs() < 5e-3,
                "input[{idx}]: fd {fd} vs analytic {}",
                grad_input.data()[idx]
            );
        }
    }

    #[test]
    fn multi_channel_forward_sums_channels() {
        let mut conv = Conv2d::new(2, 1, (1, 1), (1, 1), (0, 0), 0);
        conv.weight = Tensor::from_vec(vec![1, 2, 1, 1], vec![1.0, 10.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[31.0, 42.0]);
    }

    #[test]
    fn param_count_matches_design() {
        let mut conv = Conv2d::new(8, 16, (3, 3), (1, 2), (1, 1), 0);
        assert_eq!(conv.param_count(), 16 * 8 * 9 + 16);
    }

    #[test]
    fn eval_forward_never_clones_into_the_cache() {
        // Regression: eval-shaped calls must not pay the training-cache
        // clone of the input.
        let mut conv = Conv2d::new(1, 2, (3, 3), (1, 2), (1, 1), 3);
        let x = Tensor::from_vec(vec![1, 1, 4, 6], (0..24).map(|i| i as f32).collect()).unwrap();
        let _ = conv.forward(&x, false);
        assert!(
            !conv.training_cache_active(),
            "eval-mode forward cloned the input into the cache"
        );
        let _ = conv.forward(&x, true);
        assert!(conv.training_cache_active(), "training forward must cache");
        let g = Tensor::zeros(vec![1, 2, 4, 3]);
        let _ = conv.backward(&g);
        assert!(!conv.training_cache_active(), "backward consumes the cache");
    }

    #[test]
    fn absorb_affine_rejects_channel_mismatch() {
        let mut conv = Conv2d::new(1, 2, (1, 1), (1, 1), (0, 0), 0);
        assert!(!conv.absorb_affine(&[1.0; 3], &[0.0; 3]));
        assert!(conv.absorb_affine(&[2.0, 3.0], &[0.5, -0.5]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::layer::infer_tensor;
    use mandipass_util::proptest::prelude::*;

    proptest! {
        // The im2col+GEMM fast path matches the naive oracle bit for bit
        // across randomized shapes, rectangular strides and asymmetric
        // padding — including kernels larger than the padded input edge
        // (where `output_size` saturates and the sums are partial).
        #[test]
        fn im2col_gemm_matches_naive_oracle(
            n in 1usize..3,
            in_c in 1usize..4,
            out_c in 1usize..4,
            h in 1usize..7,
            w in 1usize..9,
            kh in 1usize..5,
            kw in 1usize..5,
            sh in 1usize..4,
            sw in 1usize..4,
            ph in 0usize..3,
            pw in 0usize..3,
            seed in 0u64..64,
        ) {
            let mut conv = Conv2d::new(in_c, out_c, (kh, kw), (sh, sw), (ph, pw), seed);
            let len = n * in_c * h * w;
            let x = Tensor::from_vec(
                vec![n, in_c, h, w],
                (0..len).map(|i| ((i as f32) + seed as f32).sin() * 2.0 - 0.5).collect(),
            ).unwrap();
            let fast = infer_tensor(&conv, &x);
            let reference = conv.forward(&x, false);
            prop_assert_eq!(fast.shape(), reference.shape());
            prop_assert_eq!(fast.data(), reference.data());
        }
    }
}
