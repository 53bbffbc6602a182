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
/// A layer keeps no activation: whoever runs it — a [`crate::Sequential`],
/// which owns every activation of a training step once — lends it its
/// input for both passes. [`Layer::forward_chain`] reads the input in place
/// and copies nothing; [`Layer::backward_chain`] gets that same input back
/// as `&mut`, accumulates the parameter gradients and writes the gradient
/// w.r.t. the input over it. `zero_grad` clears the accumulated parameter
/// gradients. Only the stack offers standalone `forward` / `backward`
/// passes, which keep the copy of the input a backward needs.
pub trait Layer: Send {
    /// The slope of a LeakyReLU this layer applies to its own output inside
    /// its forward pass, when that activation's backward is left to whoever
    /// computes the gradient w.r.t. the output (see [`InputGrad::Leaky`]):
    /// [`Layer::backward_chain`] then takes the gradient w.r.t. the
    /// *pre-activation*.
    fn fused_slope(&self) -> Option<f64> {
        None
    }

    /// Forward pass into `out`, resized in place (it must not alias
    /// `input`). In training the caller keeps `input` unchanged until the
    /// matching [`Layer::backward_chain`] and hands it back there, so the
    /// layer need not copy it; inference just drops it.
    fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4);

    /// Backward pass. `act` holds the input the matching
    /// [`Layer::forward_chain`] read and is overwritten with what `want`
    /// names; `grad_out` is `∂L/∂output` — w.r.t. the pre-activation when
    /// [`Layer::fused_slope`] is `Some`. Parameter gradients accumulate
    /// until [`Layer::zero_grad`]. One call per `forward_chain`: the input
    /// is gone after.
    fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad);

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
