//! Elementwise activation layers.
//!
//! The paper uses leaky ReLU with ε = 0.01 (its Eq. (2)); plain ReLU and
//! tanh are provided for the activation ablation.

use crate::layer::{InputGrad, Layer, ParamGroup};
use pde_tensor::conv::{leaky_relu, leaky_relu_grad};
use pde_tensor::Tensor4;

/// LeakyReLU's backward, in place: `x_to_grad` holds the layer's input `x`
/// (or, for a slope `> 0`, its output — same sign) and is overwritten with
/// [`leaky_relu_grad`] of it and `grad_out`.
pub(crate) fn leaky_backward_in_place(x_to_grad: &mut Tensor4, grad_out: &Tensor4, slope: f64) {
    assert_eq!(
        x_to_grad.shape(),
        grad_out.shape(),
        "LeakyReLu::backward: shape mismatch"
    );
    for (x, &go) in x_to_grad.as_mut_slice().iter_mut().zip(grad_out.as_slice()) {
        *x = leaky_relu_grad(slope, *x, go);
    }
}

/// Leaky rectified linear unit: `x` for `x ≥ 0`, `ε·x` otherwise.
///
/// As a layer of its own it is one more pass over the activation in each
/// direction; `Conv2d::leaky` folds the same function into the convolution's
/// write-back instead, which is how `ArchSpec::build` builds the paper's
/// network. This layer remains for `ε = 0` (whose sign cannot be read back
/// from the output) and for stacks assembled by hand.
pub struct LeakyReLu {
    epsilon: f64,
    cached_input: Option<Tensor4>,
}

impl LeakyReLu {
    /// New leaky ReLU with negative-side slope `epsilon`.
    ///
    /// # Panics
    /// If `epsilon` is negative or ≥ 1 (that would not be a *leaky* ReLU).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&epsilon),
            "LeakyReLu: epsilon must be in [0, 1)"
        );
        Self {
            epsilon,
            cached_input: None,
        }
    }

    /// The paper's default (ε = 0.01).
    pub fn paper_default() -> Self {
        Self::new(0.01)
    }

    /// The configured negative-side slope.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Layer for LeakyReLu {
    fn forward(&mut self, input: &Tensor4, train: bool) -> Tensor4 {
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        self.forward_into(input, train, &mut out);
        out
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let mut grad_in = Tensor4::zeros(0, 0, 0, 0);
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    fn forward_into(&mut self, input: &Tensor4, train: bool, out: &mut Tensor4) {
        if train {
            self.cached_input
                .get_or_insert_with(|| Tensor4::zeros(0, 0, 0, 0))
                .copy_from(input);
        }
        self.forward_chain(input, out);
    }

    fn backward_into(&mut self, grad_out: &Tensor4, grad_in: &mut Tensor4) {
        let input = self
            .cached_input
            .as_ref()
            .expect("LeakyReLu::backward before forward (or forward with train=false)");
        grad_in.copy_from(input);
        leaky_backward_in_place(grad_in, grad_out, self.epsilon);
    }

    fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4) {
        let eps = self.epsilon;
        let (n, c, h, w) = input.shape();
        out.resize(n, c, h, w);
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = leaky_relu(eps, x);
        }
    }

    fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad) {
        let slope = match want {
            InputGrad::Skip => return,
            InputGrad::Plain => self.epsilon,
            // Two LeakyReLUs on one value share its sign.
            InputGrad::Leaky(upstream) => upstream * self.epsilon,
        };
        leaky_backward_in_place(act, grad_out, slope);
    }

    fn zero_grad(&mut self) {}

    fn param_groups(&mut self) -> Vec<ParamGroup<'_>> {
        Vec::new()
    }

    fn param_count(&self) -> usize {
        0
    }

    fn describe(&self) -> String {
        format!("LeakyReLU(eps={})", self.epsilon)
    }
}

/// Plain rectified linear unit (ε = 0 special case).
pub struct ReLu(LeakyReLu);

impl ReLu {
    /// New ReLU.
    pub fn new() -> Self {
        Self(LeakyReLu {
            epsilon: 0.0,
            cached_input: None,
        })
    }
}

impl Default for ReLu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for ReLu {
    fn forward(&mut self, input: &Tensor4, train: bool) -> Tensor4 {
        self.0.forward(input, train)
    }
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        self.0.backward(grad_out)
    }
    fn forward_into(&mut self, input: &Tensor4, train: bool, out: &mut Tensor4) {
        self.0.forward_into(input, train, out);
    }
    fn backward_into(&mut self, grad_out: &Tensor4, grad_in: &mut Tensor4) {
        self.0.backward_into(grad_out, grad_in);
    }
    fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4) {
        self.0.forward_chain(input, out);
    }
    fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad) {
        self.0.backward_chain(act, grad_out, want);
    }
    fn zero_grad(&mut self) {}
    fn param_groups(&mut self) -> Vec<ParamGroup<'_>> {
        Vec::new()
    }
    fn param_count(&self) -> usize {
        0
    }
    fn describe(&self) -> String {
        "ReLU".into()
    }
}

/// Hyperbolic tangent activation.
pub struct Tanh {
    cached_output: Option<Tensor4>,
}

impl Tanh {
    /// New tanh layer.
    pub fn new() -> Self {
        Self {
            cached_output: None,
        }
    }
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor4, train: bool) -> Tensor4 {
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        self.forward_into(input, train, &mut out);
        out
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let mut grad_in = Tensor4::zeros(0, 0, 0, 0);
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    fn forward_into(&mut self, input: &Tensor4, train: bool, out: &mut Tensor4) {
        let (n, c, h, w) = input.shape();
        out.resize(n, c, h, w);
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = x.tanh();
        }
        if train {
            match &mut self.cached_output {
                Some(t) => t.copy_from(out),
                None => self.cached_output = Some(out.clone()),
            }
        }
    }

    fn backward_into(&mut self, grad_out: &Tensor4, grad_in: &mut Tensor4) {
        let out = self
            .cached_output
            .as_ref()
            .expect("Tanh::backward before forward");
        assert_eq!(
            out.shape(),
            grad_out.shape(),
            "Tanh::backward: shape mismatch"
        );
        let (n, c, h, w) = grad_out.shape();
        grad_in.resize(n, c, h, w);
        for ((gi, &go), &yv) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(out.as_slice())
        {
            *gi = go * (1.0 - yv * yv);
        }
    }

    fn zero_grad(&mut self) {}
    fn param_groups(&mut self) -> Vec<ParamGroup<'_>> {
        Vec::new()
    }
    fn param_count(&self) -> usize {
        0
    }
    fn describe(&self) -> String {
        "Tanh".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[f64]) -> Tensor4 {
        Tensor4::from_vec(1, 1, 1, vals.len(), vals.to_vec())
    }

    #[test]
    fn leaky_relu_forward_values() {
        let mut l = LeakyReLu::new(0.1);
        let y = l.forward(&t(&[-2.0, -0.5, 0.0, 0.5, 2.0]), false);
        assert_eq!(y.as_slice(), &[-0.2, -0.05, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn leaky_relu_backward_mask() {
        let mut l = LeakyReLu::new(0.01);
        let _ = l.forward(&t(&[-1.0, 0.0, 3.0]), true);
        let g = l.backward(&t(&[1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.01, 1.0, 1.0]);
    }

    #[test]
    fn relu_zeros_negatives() {
        let mut l = ReLu::new();
        let y = l.forward(&t(&[-3.0, 4.0]), true);
        assert_eq!(y.as_slice(), &[0.0, 4.0]);
        let g = l.backward(&t(&[5.0, 5.0]));
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let mut l = Tanh::new();
        let x = t(&[-0.7, 0.0, 0.3, 1.2]);
        let _ = l.forward(&x, true);
        let g = l.backward(&t(&[1.0, 1.0, 1.0, 1.0]));
        let eps = 1e-6;
        for k in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[k] -= eps;
            let fd = (xp.as_slice()[k].tanh() - xm.as_slice()[k].tanh()) / (2.0 * eps);
            assert!((fd - g.as_slice()[k]).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut l = LeakyReLu::paper_default();
        let _ = l.backward(&t(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn rejects_bad_epsilon() {
        let _ = LeakyReLu::new(1.5);
    }
}
