//! Flattening of 4-D activations into 2-D feature matrices.

use crate::infer::{InferCtx, Shape};
use crate::layer::{infer_tensor, Layer, Param};
use crate::tensor::Tensor;

/// Flattens `[N, C, H, W]` (or any rank from 2 to 4) into `[N, C·H·W]`.
///
/// The paper flattens each convolutional branch's output before
/// concatenating the two branches into one feature vector.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_shape = Some(input.shape().to_vec());
        }
        infer_tensor(self, input)
    }

    fn infer(&self, input: Vec<f32>, shape: Shape, _: &mut InferCtx) -> (Vec<f32>, Shape) {
        let dims = shape.dims();
        assert!(dims.len() >= 2, "flatten expects rank >= 2 input");
        let features: usize = dims[1..].iter().product();
        // Row-major data is already in flattened order: only the shape
        // changes, no copy.
        (input, Shape::d2(dims[0], features))
    }

    fn training_cache_active(&self) -> bool {
        self.cached_shape.is_some()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .take()
            .expect("backward requires a preceding training-mode forward");
        grad_output
            .clone()
            .reshape(shape)
            .expect("gradient has the flattened element count")
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_to_batch_by_features() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 5]);
        let y = fl.forward(&x, false);
        assert_eq!(y.shape(), &[2, 60]);
    }

    #[test]
    fn backward_restores_shape() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 2, 2]);
        let _ = fl.forward(&x, true);
        let g = Tensor::full(vec![2, 12], 1.0);
        let gx = fl.backward(&g);
        assert_eq!(gx.shape(), &[2, 3, 2, 2]);
    }

    #[test]
    fn data_order_is_preserved() {
        let mut fl = Flatten::new();
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = fl.forward(&x, false);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn has_no_params() {
        assert_eq!(Flatten::new().param_count(), 0);
    }
}
