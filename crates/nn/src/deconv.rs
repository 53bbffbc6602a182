//! Transposed convolution ("de-convolution") — the paper's §III approach 4,
//! listed as "currently under investigation"; implemented here as a
//! first-class layer so the `Deconv` padding strategy can restore the
//! spatial extent an unpadded conv stack removed.
//!
//! A transposed convolution is *literally* the adjoint of a convolution:
//! if a conv with weight `W` maps `u → v = A·u`, the transpose maps
//! `x → y = Aᵀ·x`. That lets this layer reuse the three convolution kernels
//! of `pde-tensor` with their roles swapped:
//!
//! | transpose-conv pass | implemented by |
//! |---|---|
//! | forward             | `conv2d_backward_input` |
//! | input gradient      | `conv2d` (forward) |
//! | weight gradient     | `conv2d_backward_weight` with input/grad swapped |
//!
//! With stride 1 and no padding, a `k × k` transpose conv *grows* the
//! spatial extent by `k − 1` in each direction.

use crate::layer::{InputGrad, Layer, ParamGroup};
use crate::serving::ServingStage;
use pde_tensor::conv::{
    conv2d_backward_input_into, conv2d_backward_weight, conv2d_im2col_into, ConvScratch,
};
use pde_tensor::{Conv2dSpec, Tensor4};

/// A learnable stride-1, unpadded 2-D transposed convolution with
/// per-output-channel bias.
pub struct ConvTranspose2d {
    /// The convolution this layer is the transpose of: its `in_c` is this
    /// layer's *output* channel count and vice versa.
    conv_spec: Conv2dSpec,
    /// Weight in the conv convention `(t_in, t_out, k, k)` — i.e. the
    /// forward-conv layout of the adjoint pair.
    weight: Tensor4,
    bias: Vec<f64>,
    grad_weight: Tensor4,
    grad_bias: Vec<f64>,
    /// The input gradient before an upstream fused activation's mask is
    /// applied ([`InputGrad::Leaky`] only).
    unmasked: Tensor4,
    scratch: ConvScratch,
    name: String,
}

impl ConvTranspose2d {
    /// New transpose conv mapping `in_c → out_c` channels with a square
    /// `k × k` kernel, weights zeroed (initialize via [`crate::init`] by
    /// treating it as a conv with fan-in `in_c · k²`).
    pub fn new(in_c: usize, out_c: usize, k: usize) -> Self {
        // The adjoint conv maps out_c → in_c.
        let conv_spec = Conv2dSpec::square(out_c, in_c, k, 0);
        let (oc, ic, kh, kw) = conv_spec.weight_shape();
        Self {
            conv_spec,
            weight: Tensor4::zeros(oc, ic, kh, kw),
            bias: vec![0.0; out_c],
            grad_weight: Tensor4::zeros(oc, ic, kh, kw),
            grad_bias: vec![0.0; out_c],
            unmasked: Tensor4::zeros(0, 0, 0, 0),
            scratch: ConvScratch::new(),
            name: "deconv".to_string(),
        }
    }

    /// Sets the diagnostic name; returns `self` for chaining.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// This layer's input channel count.
    pub fn in_channels(&self) -> usize {
        self.conv_spec.out_c
    }

    /// This layer's output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv_spec.in_c
    }

    /// Kernel edge.
    pub fn kernel(&self) -> usize {
        self.conv_spec.kh
    }

    /// Mutable weight view (for initializers/tests), conv layout
    /// `(in_c, out_c, k, k)`.
    pub fn weight_mut(&mut self) -> &mut Tensor4 {
        &mut self.weight
    }

    /// Immutable weight view.
    pub fn weight(&self) -> &Tensor4 {
        &self.weight
    }

    /// Mutable bias view.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }
}

impl Layer for ConvTranspose2d {
    fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4) {
        assert_eq!(
            input.c(),
            self.in_channels(),
            "ConvTranspose2d: input has {} channels, expected {}",
            input.c(),
            self.in_channels()
        );
        let (oh, ow) = self.out_dims(input.h(), input.w());
        // y = Aᵀ x: the conv's input-gradient pass with x in the grad slot.
        conv2d_backward_input_into(
            input,
            &self.weight,
            &self.conv_spec,
            oh,
            ow,
            &mut self.scratch,
            out,
        );
        if self.bias.iter().any(|&b| b != 0.0) {
            let (n, c, h, w) = out.shape();
            for s in 0..n {
                let sample = out.sample_mut(s);
                for ch in 0..c {
                    let b = self.bias[ch];
                    for v in &mut sample[ch * h * w..(ch + 1) * h * w] {
                        *v += b;
                    }
                }
            }
        }
    }

    fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad) {
        // Weight gradient first, while `act` still holds the input: the
        // adjoint conv's weight pass with roles swapped — "input" = grad_out
        // (C_out planes), "grad_out" = x.
        conv2d_backward_weight(
            grad_out,
            act,
            &self.conv_spec,
            &mut self.grad_weight,
            &mut [],
            &mut self.scratch,
        );
        // Bias gradient: plain per-channel sum of grad_out.
        let (n, c, h, w) = grad_out.shape();
        for s in 0..n {
            let sample = grad_out.sample(s);
            for ch in 0..c {
                self.grad_bias[ch] += sample[ch * h * w..(ch + 1) * h * w].iter().sum::<f64>();
            }
        }
        // Input gradient: d(Aᵀx)/dx pairs with A — a forward conv.
        let (weight, spec, scratch) = (&self.weight, &self.conv_spec, &mut self.scratch);
        match want {
            InputGrad::Skip => {}
            InputGrad::Plain => conv2d_im2col_into(grad_out, weight, &[], spec, scratch, act),
            InputGrad::Leaky(_) => {
                conv2d_im2col_into(grad_out, weight, &[], spec, scratch, &mut self.unmasked);
                want.store(act, &self.unmasked);
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
        self.conv_spec.weight_count() + self.bias.len()
    }

    fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        (h + self.conv_spec.kh - 1, w + self.conv_spec.kw - 1)
    }

    fn describe(&self) -> String {
        format!(
            "{}: ConvTranspose2d({}→{}, {}x{}) [{} params]",
            self.name,
            self.in_channels(),
            self.out_channels(),
            self.conv_spec.kh,
            self.conv_spec.kw,
            self.param_count()
        )
    }

    /// Served in `f64` on the widened activation: the Deconv strategy is an
    /// ablation, and this is its only layer without an `f32` kernel.
    fn serving_stages(&self, stages: &mut Vec<ServingStage>) {
        let mut copy = Self::new(self.in_channels(), self.out_channels(), self.kernel());
        copy.weight.copy_from(&self.weight);
        copy.bias.clone_from(&self.bias);
        copy.name.clone_from(&self.name);
        stages.push(ServingStage::widened(Box::new(copy)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::gradcheck::check_network_gradients;
    use crate::loss::Mse;
    use crate::sequential::Sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn det_fill(t: &mut Tensor4, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for v in t.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
    }

    #[test]
    fn output_grows_by_kernel_minus_one() {
        let mut net = Sequential::new().push(ConvTranspose2d::new(3, 2, 5));
        let x = Tensor4::zeros(2, 3, 8, 6);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (2, 2, 12, 10));
        assert_eq!(net.out_dims(8, 6), (12, 10));
        assert_eq!(net.param_count(), 3 * 2 * 25 + 2);
    }

    #[test]
    fn forward_is_adjoint_of_conv() {
        // <conv(u), x> == <u, convT(x)> for shared weights.
        let k = 3;
        let (c1, c2) = (2, 3);
        let (h, w) = (6, 5);
        let mut conv = Conv2d::new(Conv2dSpec::square(c1, c2, k, 0));
        det_fill(conv.weight_mut(), 11);
        let mut tconv = ConvTranspose2d::new(c2, c1, k);
        tconv
            .weight_mut()
            .as_mut_slice()
            .copy_from_slice(conv.weight().as_slice());

        let mut u = Tensor4::zeros(1, c1, h, w);
        det_fill(&mut u, 5);
        let (oh, ow) = (h - k + 1, w - k + 1);
        let mut x = Tensor4::zeros(1, c2, oh, ow);
        det_fill(&mut x, 6);

        let v = Sequential::new().push(conv).forward(&u, false);
        let y = Sequential::new().push(tconv).forward(&x, false);
        let lhs: f64 = v
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f64 = u
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-10,
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn known_values_single_tap() {
        // 1→1 channels, 2×2 kernel of ones, 1×1 input of value 3:
        // output is a 2×2 block of 3s (plus bias).
        let mut l = ConvTranspose2d::new(1, 1, 2);
        l.weight_mut().as_mut_slice().fill(1.0);
        l.bias_mut()[0] = 0.5;
        let x = Tensor4::full(1, 1, 1, 1, 3.0);
        let y = Sequential::new().push(l).forward(&x, false);
        assert_eq!(y.shape(), (1, 1, 2, 2));
        for &v in y.as_slice() {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tconv = ConvTranspose2d::new(2, 3, 3);
        for v in tconv.weight_mut().as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5);
        }
        for b in tconv.bias_mut() {
            *b = rng.gen_range(-0.1..0.1);
        }
        let mut net = Sequential::new().push(tconv);
        let x = Tensor4::from_fn(1, 2, 4, 4, |_, c, i, j| {
            ((c + i * 4 + j) as f64 * 0.37).sin()
        });
        let t = Tensor4::full(1, 3, 6, 6, 0.25);
        let r = check_network_gradients(&mut net, &Mse, &x, &t, 1e-5, 5);
        assert!(
            r.passes(1e-6),
            "max rel err {} at {}",
            r.max_rel_err,
            r.worst_index
        );
    }

    #[test]
    fn conv_then_deconv_restores_dims() {
        // The §III approach-4 pipeline: unpadded convs shrink, one transpose
        // conv restores.
        let mut net = Sequential::new()
            .push(Conv2d::new(Conv2dSpec::square(4, 6, 3, 0)))
            .push(crate::activation::LeakyReLu::paper_default())
            .push(Conv2d::new(Conv2dSpec::square(6, 4, 3, 0)))
            .push(ConvTranspose2d::new(4, 4, 5));
        let x = Tensor4::zeros(1, 4, 16, 16);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (1, 4, 16, 16));
        assert_eq!(net.out_dims(16, 16), (16, 16));
    }
}
