//! The [`Layer`] trait: forward/backward building blocks.

use crate::serving::ServingStage;
use pde_tensor::Tensor4;

/// One learnable parameter group of a layer, paired with its gradient.
///
/// Optimizers receive the groups of a whole network in a stable order and
/// keep their per-parameter state (momenta etc.) keyed by that order.
pub struct ParamGroup<'a> {
    /// Flat view of the parameter values.
    pub param: &'a mut [f64],
    /// Flat view of the accumulated gradient (same length).
    pub grad: &'a [f64],
    /// Human-readable name, e.g. `"conv1.weight"` (used in diagnostics and
    /// the serialization format).
    pub name: &'a str,
}

/// What a [`Layer::backward_chain`] call leaves in the activation it was
/// handed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InputGrad {
    /// Nothing: nobody reads the gradient w.r.t. this input (the network
    /// input during training). The tensor's contents are unspecified after.
    Skip,
    /// `∂L/∂input`.
    Plain,
    /// The input is the stored output of a LeakyReLU with this negative-side
    /// slope (an upstream layer's [`Layer::fused_slope`]): leave the gradient
    /// w.r.t. that layer's *pre-activation* — `∂L/∂input`, times the slope
    /// where the stored activation is `< 0.0`.
    Leaky(f64),
}

impl InputGrad {
    /// Overwrites `act` with what `self` asks for, given the plain
    /// `∂L/∂input` in `grad` (same shape).
    pub fn store(self, act: &mut Tensor4, grad: &Tensor4) {
        match self {
            InputGrad::Skip => {}
            InputGrad::Plain => act.copy_from(grad),
            InputGrad::Leaky(slope) => crate::activation::leaky_backward_in_place(act, grad, slope),
        }
    }
}

/// A differentiable network building block with explicit backprop.
///
/// The contract has two forms. **Standalone** — the layer keeps what its
/// backward pass needs:
/// * `forward` consumes a batch, caches whatever `backward` will need, and
///   returns the output batch;
/// * `backward` consumes `dL/d(output)` for the *most recent* forward call
///   and returns `dL/d(input)`, accumulating parameter gradients internally;
/// * `zero_grad` clears the accumulated parameter gradients.
///
/// **In a chain** — a [`crate::Sequential`] in training owns every
/// activation once and lends them out: [`Layer::forward_chain`] caches
/// nothing because the stack keeps `input` alive, and
/// [`Layer::backward_chain`] gets that input back as `&mut` and writes the
/// gradient over it. Both have defaults built on the standalone methods, so
/// a layer that overrides neither still works in a stack; the layers on the
/// hot path override both, and their standalone methods are thin wrappers
/// around the same kernels.
///
/// Calling `backward` without a preceding `forward` panics.
pub trait Layer: Send {
    /// Forward pass. `train` enables gradient caching; inference-only calls
    /// may pass `false` to skip it.
    fn forward(&mut self, input: &Tensor4, train: bool) -> Tensor4;

    /// Backward pass; returns the gradient w.r.t. the layer input.
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4;

    /// [`Layer::forward`] writing into a caller-owned output tensor, which is
    /// resized in place — the allocation-free path used by the training
    /// loop. `out` must not alias `input`. The default falls back to the
    /// allocating `forward`; layers on the hot path override it.
    fn forward_into(&mut self, input: &Tensor4, train: bool, out: &mut Tensor4) {
        *out = self.forward(input, train);
    }

    /// [`Layer::backward`] writing into a caller-owned gradient tensor,
    /// resized in place. `grad_in` must not alias `grad_out`. The default
    /// falls back to the allocating `backward`.
    fn backward_into(&mut self, grad_out: &Tensor4, grad_in: &mut Tensor4) {
        *grad_in = self.backward(grad_out);
    }

    /// The slope of a LeakyReLU this layer applies to its own output inside
    /// its forward pass, when that activation's backward is left to whoever
    /// computes the gradient w.r.t. the output (see [`InputGrad::Leaky`]):
    /// [`Layer::backward_chain`] then takes the gradient w.r.t. the
    /// *pre-activation*.
    fn fused_slope(&self) -> Option<f64> {
        None
    }

    /// Training forward inside a chain: the caller keeps `input` unchanged
    /// until the matching [`Layer::backward_chain`] and hands it back there,
    /// so the layer need not copy it.
    fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4) {
        self.forward_into(input, true, out);
    }

    /// Backward inside a chain. `act` holds the input the matching
    /// [`Layer::forward_chain`] read and is overwritten with what `want`
    /// names; `grad_out` is `∂L/∂output` — w.r.t. the pre-activation when
    /// [`Layer::fused_slope`] is `Some`. Parameter gradients accumulate as in
    /// `backward`. One call per `forward_chain`: the input is gone after.
    fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad) {
        match want {
            // `backward_into` reads the layer's own cache, never `act`.
            InputGrad::Skip | InputGrad::Plain => self.backward_into(grad_out, act),
            InputGrad::Leaky(_) => want.store(act, &self.backward(grad_out)),
        }
    }

    /// Clears accumulated parameter gradients.
    fn zero_grad(&mut self);

    /// Multiplies every accumulated parameter gradient by `factor` — the
    /// primitive behind global-norm gradient clipping. Stateless layers
    /// keep the default no-op.
    fn scale_gradients(&mut self, factor: f64) {
        let _ = factor;
    }

    /// Parameter/gradient groups in a stable order (empty for stateless
    /// layers such as activations).
    fn param_groups(&mut self) -> Vec<ParamGroup<'_>>;

    /// Visits every parameter group in the same stable order as
    /// [`Layer::param_groups`], without allocating the intermediate `Vec` —
    /// the optimizer's per-step path. The default delegates to
    /// `param_groups`; layers with parameters override it.
    fn visit_param_groups(&mut self, f: &mut dyn FnMut(ParamGroup<'_>)) {
        for g in self.param_groups() {
            f(g);
        }
    }

    /// Total number of learnable scalars.
    fn param_count(&self) -> usize;

    /// Output spatial dims for a given input spatial size (identity for
    /// shape-preserving layers).
    fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        (h, w)
    }

    /// Short human-readable description used in model summaries.
    fn describe(&self) -> String;

    /// Appends this layer's serving form — its forward pass in `f32`, from
    /// its current weights — to a [`crate::ServingNet`]'s stages.
    ///
    /// # Panics
    /// By default: a layer type that serves says how.
    fn serving_stages(&self, stages: &mut Vec<ServingStage>) {
        let _ = stages;
        panic!("{} has no serving form", self.describe());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::LeakyReLu;

    #[test]
    fn stateless_layer_has_no_params() {
        let mut l = LeakyReLu::new(0.01);
        assert_eq!(l.param_count(), 0);
        assert!(l.param_groups().is_empty());
    }
}
