//! The 2-D convolution layer (cross-correlation + bias, optionally with a
//! LeakyReLU folded into its write-back), the paper's only parameterized
//! layer type (Table I uses four of them).
//!
//! The layer holds no activation at all: the stack lends it its input for
//! both passes ([`Layer::forward_chain`] / [`Layer::backward_chain`]) and
//! the input gradient is written over that input.

use crate::layer::{InputGrad, Layer, ParamGroup};
use crate::serving::ServingStage;
use pde_tensor::conv::{
    conv2d_backward_input_into, conv2d_backward_input_leaky, conv2d_backward_weight,
    conv2d_forward_into, ConvForward, ConvScratch,
};
use pde_tensor::{Conv2dSpec, Tensor4};

/// A learnable 2-D convolution with per-output-channel bias and, after
/// [`Conv2d::leaky`], a fused LeakyReLU: `y = act(bias + W ⋆ x)` leaves the
/// kernel's registers once, activated — the pre-activation is never stored.
///
/// A fused layer's backward therefore reads the activation's sign off the
/// *stored output*: `y < 0.0 ⇔ z < 0.0` for every slope in `(0, 1)`, with
/// one documented exception — a negative subnormal pre-activation `z` with
/// `|z| < 2⁻¹⁰⁷⁵ / slope` (for the paper's 0.01, `|z| ≲ 2.5e-322`) rounds to
/// `y = −0.0`, which is "not negative", so that element's gradient gets slope
/// 1 where the unfused `Conv2d` + `LeakyReLu` pair gives `slope`. Everything
/// else, ±0.0 and NaN included, is bit-for-bit the unfused pair. Slope 0
/// (plain ReLU) is not offered fused: its output has no sign to recover.
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Tensor4,
    bias: Vec<f64>,
    grad_weight: Tensor4,
    grad_bias: Vec<f64>,
    leak: Option<f64>,
    scratch: ConvScratch,
    name: String,
}

impl Conv2d {
    /// Creates the layer with all weights zero (callers normally follow up
    /// with [`crate::init`]).
    pub fn new(spec: Conv2dSpec) -> Self {
        let (oc, ic, kh, kw) = spec.weight_shape();
        Self {
            spec,
            weight: Tensor4::zeros(oc, ic, kh, kw),
            bias: vec![0.0; oc],
            grad_weight: Tensor4::zeros(oc, ic, kh, kw),
            grad_bias: vec![0.0; oc],
            leak: None,
            scratch: ConvScratch::new(),
            name: "conv".to_string(),
        }
    }

    /// Creates a "same" (shape-preserving) convolution, the Table-I setup.
    pub fn same(in_c: usize, out_c: usize, k: usize) -> Self {
        Self::new(Conv2dSpec::same(in_c, out_c, k))
    }

    /// Sets the diagnostic name (e.g. `"conv1"`); returns `self` for chaining.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Fuses a LeakyReLU with negative-side slope `slope` into the layer
    /// (see the type's docs); returns `self` for chaining.
    ///
    /// # Panics
    /// Unless `0 < slope < 1`: at slope 0 the stored output loses the sign
    /// the backward pass needs — follow the layer with a
    /// [`crate::LeakyReLu`] instead.
    pub fn leaky(mut self, slope: f64) -> Self {
        assert!(
            slope > 0.0 && slope < 1.0,
            "Conv2d::leaky: slope must be in (0, 1), got {slope}"
        );
        self.leak = Some(slope);
        self
    }

    /// The layer's convolution spec.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Immutable weight view, shape `(out_c, in_c, kh, kw)`.
    pub fn weight(&self) -> &Tensor4 {
        &self.weight
    }

    /// Mutable weight view (used by initializers and tests).
    pub fn weight_mut(&mut self) -> &mut Tensor4 {
        &mut self.weight
    }

    /// Immutable bias view.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Mutable bias view.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// Accumulated weight gradient (for inspection in tests).
    pub fn grad_weight(&self) -> &Tensor4 {
        &self.grad_weight
    }

    /// Accumulated bias gradient.
    pub fn grad_bias(&self) -> &[f64] {
        &self.grad_bias
    }
}

impl Layer for Conv2d {
    fn fused_slope(&self) -> Option<f64> {
        self.leak
    }

    fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4) {
        conv2d_forward_into(
            input,
            &self.weight,
            &self.bias,
            &self.spec,
            self.leak,
            &mut self.scratch,
            out,
        );
    }

    fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad) {
        // The weight gradient first: it reads the input the input gradient
        // is about to overwrite.
        conv2d_backward_weight(
            act,
            grad_out,
            &self.spec,
            &mut self.grad_weight,
            &mut self.grad_bias,
            &mut self.scratch,
        );
        let (weight, spec, scratch) = (&self.weight, &self.spec, &mut self.scratch);
        match want {
            InputGrad::Skip => {}
            InputGrad::Plain => {
                let (h, w) = (act.h(), act.w());
                conv2d_backward_input_into(grad_out, weight, spec, h, w, scratch, act);
            }
            InputGrad::Leaky(slope) => {
                conv2d_backward_input_leaky(grad_out, weight, spec, slope, scratch, act);
            }
        }
    }

    fn zero_grad(&mut self) {
        self.grad_weight.as_mut_slice().fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn scale_gradients(&mut self, factor: f64) {
        self.grad_weight.scale(factor);
        for g in &mut self.grad_bias {
            *g *= factor;
        }
    }

    fn param_groups(&mut self) -> Vec<ParamGroup<'_>> {
        vec![
            ParamGroup {
                param: self.weight.as_mut_slice(),
                grad: self.grad_weight.as_slice(),
                name: "weight",
            },
            ParamGroup {
                param: &mut self.bias,
                grad: &self.grad_bias,
                name: "bias",
            },
        ]
    }

    fn visit_param_groups(&mut self, f: &mut dyn FnMut(ParamGroup<'_>)) {
        f(ParamGroup {
            param: self.weight.as_mut_slice(),
            grad: self.grad_weight.as_slice(),
            name: "weight",
        });
        f(ParamGroup {
            param: &mut self.bias,
            grad: &self.grad_bias,
            name: "bias",
        });
    }

    fn param_count(&self) -> usize {
        self.spec.weight_count() + self.bias.len()
    }

    fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        self.spec.out_dims(h, w)
    }

    fn describe(&self) -> String {
        let act = self
            .leak
            .map_or(String::new(), |slope| format!(" + LeakyReLU(eps={slope})"));
        format!(
            "{}: Conv2d({}→{}, {}x{}, pad={}){act} [{} params]",
            self.name,
            self.spec.in_c,
            self.spec.out_c,
            self.spec.kh,
            self.spec.kw,
            self.spec.pad,
            self.param_count()
        )
    }

    fn serving_stages(&self, stages: &mut Vec<ServingStage>) {
        let conv = ConvForward::new(self.spec, &self.weight, &self.bias, self.leak);
        stages.push(ServingStage::conv(conv));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequential;

    fn det_fill(t: &mut Tensor4, seed: u64) {
        let mut x = seed | 1;
        for v in t.as_mut_slice() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x % 1000) as f64 / 500.0 - 1.0;
        }
    }

    #[test]
    fn param_count_matches_table1_layer1() {
        // Table I layer 1: 4→6 channels, 5×5 kernel → 600 weights + 6 biases.
        let l = Conv2d::same(4, 6, 5);
        assert_eq!(l.param_count(), 606);
    }

    #[test]
    fn same_conv_preserves_dims() {
        let mut net = Sequential::new().push(Conv2d::same(2, 3, 5));
        let x = Tensor4::zeros(2, 2, 10, 12);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (2, 3, 10, 12));
        assert_eq!(net.out_dims(10, 12), (10, 12));
    }

    #[test]
    fn backward_accumulates_until_zero_grad() {
        let mut l = Conv2d::same(1, 1, 3);
        let mut x = Tensor4::zeros(1, 1, 4, 4);
        det_fill(&mut x, 5);
        det_fill(l.weight_mut(), 9);
        let mut y = Tensor4::zeros(0, 0, 0, 0);
        let mut step = |l: &mut Conv2d| {
            l.forward_chain(&x, &mut y);
            l.backward_chain(&mut x.clone(), &y, InputGrad::Plain);
        };
        step(&mut l);
        let g1 = l.grad_weight().clone();
        step(&mut l);
        // Second backward doubled the accumulation.
        for (a, b) in l.grad_weight().as_slice().iter().zip(g1.as_slice()) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        l.zero_grad();
        assert_eq!(l.grad_weight().max_abs(), 0.0);
        assert!(l.grad_bias().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_groups_expose_weight_and_bias() {
        let mut l = Conv2d::same(2, 2, 3).named("c1");
        let groups = l.param_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].param.len(), 2 * 2 * 3 * 3);
        assert_eq!(groups[1].param.len(), 2);
        assert_eq!(groups[0].name, "weight");
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward_cache() {
        let mut net = Sequential::new().push(Conv2d::same(1, 1, 3));
        let x = Tensor4::zeros(1, 1, 4, 4);
        let y = net.forward(&x, false); // train=false → no input copy
        let _ = net.backward(&y);
    }
}
