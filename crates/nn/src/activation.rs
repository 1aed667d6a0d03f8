//! Activation layers: ReLU and Sigmoid.

use crate::infer::{InferCtx, Shape};
use crate::layer::{infer_tensor, Layer, Param};
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)` elementwise.
///
/// The paper places a ReLU after every batch-norm in the convolutional
/// branches to "decrease the inter-neuronal dependence".
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU { mask: None }
    }
}

impl Layer for ReLU {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
        }
        infer_tensor(self, input)
    }

    fn infer(&self, mut input: Vec<f32>, shape: Shape, _: &mut InferCtx) -> (Vec<f32>, Shape) {
        for v in &mut input {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        (input, shape)
    }

    fn training_cache_active(&self) -> bool {
        self.mask.is_some()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("backward requires a preceding training-mode forward");
        assert_eq!(mask.len(), grad_output.len(), "gradient shape mismatch");
        let mut grad = grad_output.clone();
        for (g, pass) in grad.data_mut().iter_mut().zip(&mask) {
            if !pass {
                *g = 0.0;
            }
        }
        grad
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^{−x})` elementwise.
///
/// The paper's MandiblePrint is the output of a sigmoid, so every
/// component of the biometric vector lies in `(0, 1)`.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid {
            cached_output: None,
        }
    }
}

impl Layer for Sigmoid {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = infer_tensor(self, input);
        if train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn infer(&self, mut input: Vec<f32>, shape: Shape, _: &mut InferCtx) -> (Vec<f32>, Shape) {
        for v in &mut input {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        (input, shape)
    }

    fn training_cache_active(&self) -> bool {
        self.cached_output.is_some()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("backward requires a preceding training-mode forward");
        assert_eq!(y.len(), grad_output.len(), "gradient shape mismatch");
        let mut grad = grad_output.clone();
        for (g, &yv) in grad.data_mut().iter_mut().zip(y.data()) {
            *g *= yv * (1.0 - yv);
        }
        grad
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        let y = relu.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        relu.forward(&x, true);
        let g = Tensor::from_vec(vec![4], vec![1.0; 4]).unwrap();
        let gx = relu.backward(&g);
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_maps_into_unit_interval() {
        let mut sig = Sigmoid::new();
        let x = Tensor::from_vec(vec![3], vec![-10.0, 0.0, 10.0]).unwrap();
        let y = sig.forward(&x, false);
        assert!(y.data()[0] < 1e-4);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-4);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        let mut sig = Sigmoid::new();
        let x = Tensor::from_vec(vec![3], vec![-0.7, 0.3, 1.2]).unwrap();
        sig.forward(&x, true);
        let g = Tensor::from_vec(vec![3], vec![1.0; 3]).unwrap();
        let gx = sig.backward(&g);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp: f32 = sig.forward(&xp, false).data()[i];
            let ym: f32 = sig.forward(&xm, false).data()[i];
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-4,
                "i={i}: fd {fd} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(ReLU::new().param_count(), 0);
        assert_eq!(Sigmoid::new().param_count(), 0);
    }
}
