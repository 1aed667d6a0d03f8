//! A sequential container of layers.

use crate::error::NnError;
use crate::infer::{InferCtx, Shape};
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// A stack of layers applied in order; itself a [`Layer`], so sequentials
/// compose (the two-branch extractor uses one sequential per branch plus a
/// sequential head).
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential model from layers applied front to back.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Deployment-time fusion: folds every affine layer that follows an
    /// absorbing layer (in practice, each `BatchNorm2d`'s running
    /// statistics into the preceding `Conv2d`'s weights and bias) and
    /// removes the folded layer, so the deployed network runs fewer
    /// layers. Returns the number of layers folded away; idempotent (a
    /// second call finds nothing left to fold).
    ///
    /// Fusion uses the batch norms' *running* statistics, so it is an
    /// evaluation-mode transform: a fused network no longer updates
    /// those statistics in training mode. Outputs match the unfused
    /// network to floating-point reassociation tolerance (≈1e-6), not
    /// bit for bit — callers that need bit-exact parity with the
    /// training-time graph keep the unfused network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::FusePendingBackward`] when any layer still
    /// holds a training-mode forward cache (a backward pass is owed):
    /// rewriting weights mid-step would corrupt the gradients.
    pub fn fuse(&mut self) -> Result<usize, NnError> {
        if self.training_cache_active() {
            return Err(NnError::FusePendingBackward);
        }
        let mut fused = 0usize;
        let mut i = 0;
        while i < self.layers.len() {
            if i + 1 < self.layers.len() {
                if let Some((scale, shift)) = self.layers[i + 1].fold_affine() {
                    if self.layers[i].absorb_affine(&scale, &shift) {
                        self.layers.remove(i + 1);
                        fused += 1;
                        continue; // the next affine may fold into i too
                    }
                }
            }
            i += 1;
        }
        Ok(fused)
    }
}

impl Layer for Sequential {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut cur = input.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn infer(&self, input: Vec<f32>, shape: Shape, ctx: &mut InferCtx) -> (Vec<f32>, Shape) {
        let mut cur = (input, shape);
        for layer in &self.layers {
            let _span = mandipass_telemetry::span(layer.name());
            cur = layer.infer(cur.0, cur.1, ctx);
        }
        cur
    }

    fn training_cache_active(&self) -> bool {
        self.layers.iter().any(|l| l.training_cache_active())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut cur = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for mut p in layer.params() {
                p.name = format!("{i}.{}", p.name);
                out.push(p);
            }
        }
        out
    }

    fn state_params(&mut self) -> Vec<Param<'_>> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for mut p in layer.state_params() {
                p.name = format!("{i}.{}", p.name);
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ReLU;
    use crate::layer::infer_tensor;
    use crate::linear::Linear;
    use crate::loss::cross_entropy;
    use crate::optim::{Adam, Optimizer};

    fn xor_data() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn params_are_uniquely_named() {
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(2, 4, 0)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(4, 2, 1)),
        ]);
        let names: Vec<String> = net.params().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["0.weight", "0.bias", "2.weight", "2.bias"]);
    }

    #[test]
    fn learns_xor() {
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(2, 16, 10)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(16, 2, 11)),
        ]);
        let (x, labels) = xor_data();
        let mut adam = Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..300 {
            net.zero_grad();
            let logits = net.forward(&x, true);
            let (loss, grad) = cross_entropy(&logits, &labels);
            final_loss = loss;
            net.backward(&grad);
            adam.step(&mut net.params());
        }
        assert!(final_loss < 0.05, "loss {final_loss}");
        let logits = net.forward(&x, false);
        assert!((crate::loss::accuracy(&logits, &labels) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new(vec![]);
        assert!(net.is_empty());
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = net.forward(&x, true);
        assert_eq!(x, y);
        let g = net.backward(&y);
        assert_eq!(g, x);
    }

    #[test]
    fn len_reports_layer_count() {
        let net = Sequential::new(vec![Box::new(ReLU::new()), Box::new(ReLU::new())]);
        assert_eq!(net.len(), 2);
    }

    /// One layer of every kind: conv → BN → ReLU twice, then
    /// flatten → linear (packed lazily on first `infer`) → sigmoid.
    fn conv_bn_stack() -> (Sequential, Tensor) {
        use crate::activation::Sigmoid;
        use crate::batchnorm::BatchNorm2d;
        use crate::conv::Conv2d;
        use crate::flatten::Flatten;
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(1, 3, (3, 3), (1, 2), (1, 1), 40)),
            Box::new(BatchNorm2d::new(3)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(3, 2, (3, 3), (1, 1), (1, 1), 41)),
            Box::new(BatchNorm2d::new(2)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 4 * 5, 6, 42)),
            Box::new(Sigmoid::new()),
        ]);
        let x = Tensor::from_vec(
            vec![2, 1, 4, 10],
            (0..80).map(|i| ((i as f32) * 0.43).sin()).collect(),
        )
        .unwrap();
        // A few training passes move the running statistics off their
        // init values, so fusion actually has something to fold.
        for _ in 0..5 {
            let y = net.forward(&x, true);
            let g = Tensor::full(y.shape().to_vec(), 0.1);
            net.backward(&g);
        }
        (net, x)
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
        }
    }

    #[test]
    fn fuse_matches_unfused_within_tolerance() {
        let (mut net, x) = conv_bn_stack();
        let reference = infer_tensor(&net, &x);
        let folded = net.fuse().expect("no pending training cache");
        assert_eq!(folded, 2, "both batch norms fold into their convs");
        assert_eq!(net.len(), 7);
        let fused = infer_tensor(&net, &x);
        assert_eq!(fused.shape(), reference.shape());
        for (a, b) in fused.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-6, "fused {a} vs unfused {b}");
        }
    }

    #[test]
    fn fuse_is_idempotent() {
        let (mut net, x) = conv_bn_stack();
        net.fuse().expect("first fuse succeeds");
        let before = infer_tensor(&net, &x);
        let folded_again = net.fuse().expect("second fuse succeeds");
        assert_eq!(folded_again, 0, "nothing left to fold");
        assert_eq!(infer_tensor(&net, &x), before);
    }

    #[test]
    fn fuse_refuses_with_pending_training_cache() {
        let (mut net, x) = conv_bn_stack();
        let _ = net.forward(&x, true); // forward without backward: cache pending
        assert_eq!(net.fuse(), Err(NnError::FusePendingBackward));
    }

    #[test]
    fn fast_path_traverses_all_layers() {
        // Every layer kind's arena `infer` against its `forward(x, false)`
        // oracle, layer by layer, then the whole stack at once.
        let (mut net, x) = conv_bn_stack();
        let mut cur = x.clone();
        for layer in &mut net.layers {
            let fast = infer_tensor(layer.as_ref(), &cur);
            cur = layer.forward(&cur, false);
            assert_bitwise(&fast, &cur, layer.name());
        }
        let fast = infer_tensor(&net, &x);
        assert_bitwise(&fast, &net.forward(&x, false), "sequential");
    }
}
