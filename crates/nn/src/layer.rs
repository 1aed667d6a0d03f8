//! The [`Layer`] trait and parameter access for optimisers.

use crate::infer::{InferCtx, Shape};
use crate::tensor::Tensor;

/// A mutable view of one learnable parameter tensor and its gradient
/// accumulator, handed to optimisers.
#[derive(Debug)]
pub struct Param<'a> {
    /// The parameter values.
    pub value: &'a mut Tensor,
    /// The accumulated gradient of the loss with respect to `value`.
    pub grad: &'a mut Tensor,
    /// Stable name for serialisation, unique within a model
    /// (e.g. `"conv1.weight"`).
    pub name: String,
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward`] and consume
/// that cache in [`Layer::backward`]. Gradients accumulate into the layer's
/// grad buffers; call [`Layer::zero_grad`] between optimiser steps.
///
/// Layers are `Send + Sync`: the deployed inference path
/// ([`Layer::infer`]) takes `&self` and a trained model is shared
/// read-only across verify-server worker threads, so every layer must be
/// thread-safe (no `Rc`/`RefCell`; derived inference data such as
/// `Linear`'s packed weights lives in a `OnceLock`).
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// A short stable kind label (e.g. `"conv2d"`), used as the
    /// telemetry span name for per-layer inference timing.
    fn name(&self) -> &'static str {
        "layer"
    }

    /// Computes the layer output. `train` selects training behaviour
    /// (e.g. batch statistics in batch norm) and enables caching for the
    /// backward pass. `forward(input, false)` is the evaluation-mode
    /// reference that [`Layer::infer`] matches bit for bit; for
    /// convolution and linear layers its naive loop nest is the parity
    /// oracle of the GEMM kernels.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Evaluation-mode forward on the scratch arena — the one eval path,
    /// deployed for verification. Consumes a ctx-owned input buffer of
    /// `shape` and returns a ctx-owned output buffer (possibly the input
    /// itself, for in-place layers) with its shape. Touches no training
    /// state (no backward cache, no running-statistic updates) and
    /// allocates nothing once `ctx` is warm.
    fn infer(&self, input: Vec<f32>, shape: Shape, ctx: &mut InferCtx) -> (Vec<f32>, Shape);

    /// Backpropagates `grad_output` (gradient of the loss with respect to
    /// this layer's output), accumulating parameter gradients and returning
    /// the gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called without a preceding
    /// training-mode `forward` (no cache).
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to all learnable parameters, in a stable order.
    fn params(&mut self) -> Vec<Param<'_>>;

    /// Mutable access to everything that must persist across
    /// serialisation: the learnable parameters plus any non-learnable
    /// buffers (e.g. batch-norm running statistics). Optimisers use
    /// [`Layer::params`]; (de)serialisation uses this.
    fn state_params(&mut self) -> Vec<Param<'_>> {
        self.params()
    }

    /// Clears all accumulated gradients.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.grad.zero();
        }
    }

    /// Number of learnable scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Clones this layer into a fresh boxed trait object, duplicating
    /// parameters, buffers and caches. Makes `Box<dyn Layer>` (and thus
    /// whole models) cloneable, so one trained network can be handed to
    /// several consumers without retraining.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Per-channel `(scale, shift)` of an evaluation-mode affine layer
    /// (batch norm running statistics) that a preceding convolution can
    /// absorb: `y[c] = scale[c] · x[c] + shift[c]`. `None` for layers
    /// that are not foldable affines.
    fn fold_affine(&self) -> Option<(Vec<f32>, Vec<f32>)> {
        None
    }

    /// Absorbs a following affine layer's per-channel `(scale, shift)`
    /// into this layer's weights and bias. Returns `false` when this
    /// layer cannot absorb (not a convolution, or channel mismatch),
    /// leaving it unchanged.
    fn absorb_affine(&mut self, scale: &[f32], shift: &[f32]) -> bool {
        let _ = (scale, shift);
        false
    }

    /// Whether a training-mode forward cache is pending (a backward
    /// pass is still owed). Deployment-time transforms such as
    /// [`Sequential::fuse`](crate::sequential::Sequential::fuse) refuse
    /// to run in this state.
    fn training_cache_active(&self) -> bool {
        false
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Runs [`Layer::infer`] on a copy of `input` through a throwaway arena.
/// Layers without a separate training kernel (activations, eval-mode
/// batch norm, flatten) run `forward` through here, so their formula is
/// written once, in `infer`.
pub(crate) fn infer_tensor(layer: &dyn Layer, input: &Tensor) -> Tensor {
    let shape = Shape::from_dims(input.shape());
    let (out, shape) = layer.infer(input.data().to_vec(), shape, &mut InferCtx::new());
    Tensor::from_vec(shape.to_vec(), out).expect("infer output matches its shape")
}
