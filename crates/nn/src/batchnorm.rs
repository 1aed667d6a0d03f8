//! Batch normalisation over the channel dimension of 4-D activations.
//!
//! The paper follows every convolution with a batch-norm "to prevent data
//! distribution from offset". Training mode normalises with batch
//! statistics and maintains exponential running statistics; evaluation mode
//! uses the running statistics, so single probes verify deterministically.

use crate::infer::{InferCtx, Shape};
use crate::layer::{infer_tensor, Layer, Param};
use crate::tensor::Tensor;

/// Batch normalisation for `[N, C, H, W]` activations, per channel.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor, // scale, [C]
    beta: Tensor,  // shift, [C]
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    // Dummy gradient buffers so the running statistics can be exposed as
    // serialisable state without ever being optimised (their gradients
    // stay zero).
    grad_running_mean: Tensor,
    grad_running_var: Tensor,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    normalized: Tensor,
    batch_var: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels with the usual
    /// defaults (`eps = 1e-5`, `momentum = 0.1`, γ = 1, β = 0).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::full(vec![channels], 1.0),
            beta: Tensor::zeros(vec![channels]),
            grad_gamma: Tensor::zeros(vec![channels]),
            grad_beta: Tensor::zeros(vec![channels]),
            running_mean: Tensor::zeros(vec![channels]),
            running_var: Tensor::full(vec![channels], 1.0),
            grad_running_mean: Tensor::zeros(vec![channels]),
            grad_running_var: Tensor::zeros(vec![channels]),
            cache: None,
        }
    }

    /// The running per-channel means used in evaluation mode.
    pub fn running_mean(&self) -> &[f32] {
        self.running_mean.data()
    }

    /// The running per-channel variances used in evaluation mode.
    pub fn running_var(&self) -> &[f32] {
        self.running_var.data()
    }

    /// `(N, H·W)` of an `[N, C, H, W]` input.
    fn check_input(&self, dims: &[usize]) -> (usize, usize) {
        assert_eq!(dims.len(), 4, "batchnorm2d expects [N, C, H, W] input");
        assert_eq!(dims[1], self.channels, "channel count mismatch");
        (dims[0], dims[2] * dims[3])
    }
}

impl Layer for BatchNorm2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            return infer_tensor(self, input);
        }
        let (n, plane) = self.check_input(input.shape());
        let x = input.data();
        let mut out = input.clone();
        let count = (n * plane) as f32;

        let mut mean = vec![0.0f32; self.channels];
        let mut var = vec![0.0f32; self.channels];
        for img in 0..n {
            for (c, mean_c) in mean.iter_mut().enumerate() {
                let base = (img * self.channels + c) * plane;
                for i in 0..plane {
                    *mean_c += x[base + i];
                }
            }
        }
        for m in &mut mean {
            *m /= count;
        }
        for img in 0..n {
            for c in 0..self.channels {
                let base = (img * self.channels + c) * plane;
                for i in 0..plane {
                    let d = x[base + i] - mean[c];
                    var[c] += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= count;
        }
        {
            let rm = self.running_mean.data_mut();
            let rv = self.running_var.data_mut();
            for c in 0..self.channels {
                rm[c] = (1.0 - self.momentum) * rm[c] + self.momentum * mean[c];
                rv[c] = (1.0 - self.momentum) * rv[c] + self.momentum * var[c];
            }
        }

        let gamma = self.gamma.data();
        let beta = self.beta.data();
        let y = out.data_mut();
        let mut normalized = vec![0.0f32; x.len()];
        for img in 0..n {
            for c in 0..self.channels {
                let base = (img * self.channels + c) * plane;
                let inv_std = 1.0 / (var[c] + self.eps).sqrt();
                for i in 0..plane {
                    let xh = (x[base + i] - mean[c]) * inv_std;
                    normalized[base + i] = xh;
                    y[base + i] = gamma[c] * xh + beta[c];
                }
            }
        }
        self.cache = Some(BnCache {
            normalized: Tensor::from_vec(input.shape().to_vec(), normalized)
                .expect("normalized matches input shape"),
            batch_var: var,
            shape: input.shape().to_vec(),
        });
        out
    }

    fn infer(&self, mut input: Vec<f32>, shape: Shape, _: &mut InferCtx) -> (Vec<f32>, Shape) {
        let (n, plane) = self.check_input(shape.dims());
        let mean = self.running_mean.data();
        let var = self.running_var.data();
        let gamma = self.gamma.data();
        let beta = self.beta.data();
        for img in 0..n {
            for c in 0..self.channels {
                let base = (img * self.channels + c) * plane;
                let inv_std = 1.0 / (var[c] + self.eps).sqrt();
                for v in &mut input[base..base + plane] {
                    *v = gamma[c] * ((*v - mean[c]) * inv_std) + beta[c];
                }
            }
        }
        (input, shape)
    }

    fn fold_affine(&self) -> Option<(Vec<f32>, Vec<f32>)> {
        // y = γ·(x − μ)/√(σ² + ε) + β  ≡  scale·x + shift with
        // scale = γ/√(σ² + ε), shift = β − μ·scale.
        let mean = self.running_mean.data();
        let var = self.running_var.data();
        let gamma = self.gamma.data();
        let beta = self.beta.data();
        let mut scale = Vec::with_capacity(self.channels);
        let mut shift = Vec::with_capacity(self.channels);
        for c in 0..self.channels {
            let s = gamma[c] / (var[c] + self.eps).sqrt();
            scale.push(s);
            shift.push(beta[c] - mean[c] * s);
        }
        Some((scale, shift))
    }

    fn training_cache_active(&self) -> bool {
        self.cache.is_some()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("backward requires a preceding training-mode forward");
        assert_eq!(grad_output.shape(), cache.shape.as_slice());
        let n = cache.shape[0];
        let plane = cache.shape[2] * cache.shape[3];
        let count = (n * plane) as f32;
        let go = grad_output.data();
        let xh = cache.normalized.data();
        let gamma = self.gamma.data();

        // Per-channel sums needed by the batch-norm gradient formula.
        let mut sum_go = vec![0.0f32; self.channels];
        let mut sum_go_xh = vec![0.0f32; self.channels];
        for img in 0..n {
            for c in 0..self.channels {
                let base = (img * self.channels + c) * plane;
                for i in 0..plane {
                    sum_go[c] += go[base + i];
                    sum_go_xh[c] += go[base + i] * xh[base + i];
                }
            }
        }
        {
            let gg = self.grad_gamma.data_mut();
            let gb = self.grad_beta.data_mut();
            for c in 0..self.channels {
                gg[c] += sum_go_xh[c];
                gb[c] += sum_go[c];
            }
        }

        let mut grad_input = Tensor::zeros(cache.shape.clone());
        let gx = grad_input.data_mut();
        for img in 0..n {
            for c in 0..self.channels {
                let base = (img * self.channels + c) * plane;
                let inv_std = 1.0 / (cache.batch_var[c] + self.eps).sqrt();
                let k1 = gamma[c] * inv_std;
                for i in 0..plane {
                    gx[base + i] = k1
                        * (go[base + i] - sum_go[c] / count - xh[base + i] * sum_go_xh[c] / count);
                }
            }
        }
        grad_input
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.gamma,
                grad: &mut self.grad_gamma,
                name: "gamma".into(),
            },
            Param {
                value: &mut self.beta,
                grad: &mut self.grad_beta,
                name: "beta".into(),
            },
        ]
    }

    fn state_params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.gamma,
                grad: &mut self.grad_gamma,
                name: "gamma".into(),
            },
            Param {
                value: &mut self.beta,
                grad: &mut self.grad_beta,
                name: "beta".into(),
            },
            Param {
                value: &mut self.running_mean,
                grad: &mut self.grad_running_mean,
                name: "running_mean".into(),
            },
            Param {
                value: &mut self.running_var,
                grad: &mut self.grad_running_var,
                name: "running_var".into(),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> Tensor {
        let data: Vec<f32> = (0..2 * 2 * 2 * 3)
            .map(|i| ((i * 7 % 13) as f32) - 6.0)
            .collect();
        Tensor::from_vec(vec![2, 2, 2, 3], data).unwrap()
    }

    #[test]
    fn training_output_is_standardised_per_channel() {
        let mut bn = BatchNorm2d::new(2);
        let x = sample_input();
        let y = bn.forward(&x, true);
        // Each channel of the output should have ~zero mean and ~unit variance.
        for c in 0..2 {
            let mut vals = Vec::new();
            for img in 0..2 {
                for i in 0..6 {
                    vals.push(y.data()[(img * 2 + c) * 6 + i] as f64);
                }
            }
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-5, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {c} var {var}");
        }
    }

    #[test]
    fn running_stats_converge_to_batch_stats() {
        let mut bn = BatchNorm2d::new(2);
        let x = sample_input();
        for _ in 0..200 {
            bn.forward(&x, true);
        }
        // After many identical batches the running stats equal batch stats.
        let y_eval = bn.forward(&x, false);
        let y_train = bn.forward(&x, true);
        for (a, b) in y_eval.data().iter().zip(y_train.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn eval_mode_is_deterministic_and_cache_free() {
        let mut bn = BatchNorm2d::new(2);
        let x = sample_input();
        let a = bn.forward(&x, false);
        let b = bn.forward(&x, false);
        assert_eq!(a, b);
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma = Tensor::from_vec(vec![1], vec![2.0]).unwrap();
        bn.beta = Tensor::from_vec(vec![1], vec![1.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 1, 4], vec![-1.0, 0.0, 1.0, 2.0]).unwrap();
        let y = bn.forward(&x, true);
        // Standardised values scaled by 2 and shifted by 1: mean must be 1.
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut bn = BatchNorm2d::new(2);
        let x = sample_input();
        // Loss = weighted sum of outputs, weights fixed.
        let w: Vec<f32> = (0..x.len()).map(|i| ((i % 5) as f32 - 2.0) / 5.0).collect();
        let loss = |y: &Tensor| -> f32 { y.data().iter().zip(&w).map(|(a, b)| a * b).sum() };

        bn.zero_grad();
        let y = bn.forward(&x, true);
        let _ = y;
        let grad_out = Tensor::from_vec(x.shape().to_vec(), w.clone()).unwrap();
        let grad_input = bn.backward(&grad_out);

        let eps = 1e-2f32;
        for idx in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = loss(&bn.forward(&xp, true));
            bn.cache = None;
            let lm = loss(&bn.forward(&xm, true));
            bn.cache = None;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad_input.data()[idx]).abs() < 2e-3,
                "input[{idx}]: fd {fd} vs analytic {}",
                grad_input.data()[idx]
            );
        }
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let mut bn = BatchNorm2d::new(16);
        assert_eq!(bn.param_count(), 32);
    }
}
