//! Layer composition, and the one owner of a training step's activations.

use crate::activation::leaky_backward_in_place;
use crate::layer::{InputGrad, Layer, ParamGroup};
use crate::serving::ServingStage;
use pde_tensor::Tensor4;

fn empty() -> Tensor4 {
    Tensor4::zeros(0, 0, 0, 0)
}

/// A straight-line stack of layers executed in order.
///
/// This is the only composition the paper's architecture needs. The struct
/// itself implements [`Layer`], so stacks nest.
///
/// **Who owns an activation.** The stack does, each exactly once:
/// `acts[i]` is layer `i`'s output and layer `i + 1`'s input, written by
/// one [`Layer::forward_chain`] and lent to the next; no layer keeps a
/// copy. The backward pass walks the same buffers the other way and reuses
/// them: layer `i + 1`'s [`Layer::backward_chain`] overwrites `acts[i]` with
/// the gradient w.r.t. layer `i`'s output — already multiplied by layer
/// `i`'s fused LeakyReLU mask when it has one ([`InputGrad::Leaky`]) — which
/// is then layer `i`'s `grad_out`. So a step holds one buffer per layer
/// boundary and no gradient buffers, and one backward consumes one forward.
/// The network input is the caller's: [`Layer::forward_chain`] reads it in
/// place and [`Layer::backward_chain`] gets it back (a training loop passes
/// [`InputGrad::Skip`], as nothing reads the gradient w.r.t. the batch);
/// only the standalone [`Sequential::forward_into`] with `train` copies it,
/// for [`Sequential::backward_into`]. Everything grows once and is then
/// reused, so both passes are allocation-free after warm-up.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// `acts[i]`: layer `i`'s output. The last layer writes to the caller's
    /// tensor — unless it has a fused activation, whose backward the stack
    /// then resolves itself on a kept copy `acts[len − 1]`.
    acts: Vec<Tensor4>,
    /// Copy of the last standalone training input, for `backward_into`.
    input: Tensor4,
    /// Whether the activations of a training forward are waiting for their
    /// backward.
    live: bool,
}

impl Sequential {
    /// Empty stack.
    pub fn new() -> Self {
        Self {
            layers: Vec::new(),
            acts: Vec::new(),
            input: empty(),
            live: false,
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow of the layer list (for inspection).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable borrow of the layer list (for initialization).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Multi-line human-readable summary of the stack.
    pub fn summary(&self) -> String {
        let mut s = String::from("Sequential [\n");
        for l in &self.layers {
            s.push_str("  ");
            s.push_str(&l.describe());
            s.push('\n');
        }
        s.push_str(&format!("] total params: {}\n", self.param_count()));
        s
    }

    /// Standalone forward pass: `out` (resized in place) is the stack
    /// applied to `input`. With `train` the input is copied, so that one
    /// [`Sequential::backward_into`] may follow.
    pub fn forward_into(&mut self, input: &Tensor4, train: bool, out: &mut Tensor4) {
        if train {
            self.input.copy_from(input);
        }
        self.run_forward(input, train, out);
    }

    /// Standalone backward pass of the last training
    /// [`Sequential::forward_into`]: accumulates the parameter gradients and
    /// writes `∂L/∂input` into `grad_in` (resized in place).
    ///
    /// # Panics
    /// Without a training forward since the last backward.
    pub fn backward_into(&mut self, grad_out: &Tensor4, grad_in: &mut Tensor4) {
        grad_in.copy_from(&self.input);
        self.backward_chain(grad_in, grad_out, InputGrad::Plain);
    }

    /// [`Sequential::forward_into`] into a new tensor.
    pub fn forward(&mut self, input: &Tensor4, train: bool) -> Tensor4 {
        let mut out = empty();
        self.forward_into(input, train, &mut out);
        out
    }

    /// [`Sequential::backward_into`] into a new tensor.
    pub fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let mut grad_in = empty();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// The forward pass: layer `i` reads `input` or slot `i − 1` and writes
    /// slot `i` or `out`. `train` only says whether a backward may follow.
    fn run_forward(&mut self, input: &Tensor4, train: bool, out: &mut Tensor4) {
        self.live = train;
        let n = self.layers.len();
        if n == 0 {
            out.copy_from(input);
            return;
        }
        let keep_last = self.layers[n - 1].fused_slope().is_some();
        self.acts.resize_with(n - 1 + usize::from(keep_last), empty);
        for (i, l) in self.layers.iter_mut().enumerate() {
            // One span per layer; a0 is the layer index (names allocate, and
            // this path must stay allocation-free), a1 whether it carries a
            // fused activation.
            let _span = pde_trace::span_args(
                pde_trace::Category::Nn,
                pde_trace::names::FWD,
                i as u64,
                l.fused_slope().is_some() as u64,
            );
            let (done, rest) = self.acts.split_at_mut(i);
            let src = done.last().unwrap_or(input);
            l.forward_chain(src, rest.first_mut().unwrap_or(&mut *out));
        }
        if keep_last {
            out.copy_from(&self.acts[n - 1]);
        }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4) {
        self.run_forward(input, true, out);
    }

    fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad) {
        assert!(
            std::mem::take(&mut self.live),
            "Sequential::backward before forward (or forward with train=false)"
        );
        let n = self.layers.len();
        if n == 0 {
            want.store(act, grad_out);
            return;
        }
        // The last layer's own activation has nobody downstream to resolve
        // it: its kept output becomes the pre-activation gradient here.
        let last_slope = self.layers[n - 1].fused_slope();
        if let Some(slope) = last_slope {
            leaky_backward_in_place(&mut self.acts[n - 1], grad_out, slope);
        }
        for i in (0..n).rev() {
            let (upstream, layers) = self.layers.split_at_mut(i);
            let l = &mut layers[0];
            let _span = pde_trace::span_args(
                pde_trace::Category::Nn,
                pde_trace::names::BWD,
                i as u64,
                l.fused_slope().is_some() as u64,
            );
            // Layer i's input is slot i − 1 (the caller's tensor for i = 0),
            // its output gradient slot i (the caller's for the last layer).
            let (inputs, grads) = self.acts.split_at_mut(i);
            let grad = if i == n - 1 && last_slope.is_none() {
                grad_out
            } else {
                &grads[0]
            };
            match (inputs.last_mut(), upstream.last()) {
                (Some(input), Some(up)) => {
                    let want = up.fused_slope().map_or(InputGrad::Plain, InputGrad::Leaky);
                    l.backward_chain(input, grad, want);
                }
                _ => l.backward_chain(act, grad, want),
            }
        }
    }

    fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    fn scale_gradients(&mut self, factor: f64) {
        for l in &mut self.layers {
            l.scale_gradients(factor);
        }
    }

    fn param_groups(&mut self) -> Vec<ParamGroup<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.param_groups())
            .collect()
    }

    fn visit_param_groups(&mut self, f: &mut dyn FnMut(ParamGroup<'_>)) {
        for l in &mut self.layers {
            l.visit_param_groups(f);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        self.layers
            .iter()
            .fold((h, w), |(h, w), l| l.out_dims(h, w))
    }

    fn describe(&self) -> String {
        format!(
            "Sequential({} layers, {} params)",
            self.layers.len(),
            self.param_count()
        )
    }

    fn serving_stages(&self, stages: &mut Vec<ServingStage>) {
        for l in &self.layers {
            l.serving_stages(stages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::LeakyReLu;
    use crate::conv::Conv2d;

    fn tiny_net() -> Sequential {
        Sequential::new()
            .push(Conv2d::same(1, 2, 3).named("c1"))
            .push(LeakyReLu::paper_default())
            .push(Conv2d::same(2, 1, 3).named("c2"))
    }

    #[test]
    fn forward_through_stack_preserves_same_dims() {
        let mut net = tiny_net();
        let x = Tensor4::zeros(2, 1, 6, 6);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (2, 1, 6, 6));
        assert_eq!(net.out_dims(6, 6), (6, 6));
    }

    #[test]
    fn param_groups_cover_all_layers() {
        let mut net = tiny_net();
        let count = net.param_count();
        let total: usize = net.param_groups().iter().map(|g| g.param.len()).sum();
        assert_eq!(total, count);
        assert_eq!(net.param_groups().len(), 4); // two convs × (weight, bias)
    }

    #[test]
    fn unpadded_stack_shrinks_dims() {
        let net = Sequential::new()
            .push(Conv2d::new(pde_tensor::Conv2dSpec::square(1, 1, 3, 0)))
            .push(Conv2d::new(pde_tensor::Conv2dSpec::square(1, 1, 3, 0)));
        // Two unpadded 3×3 convs: each removes k-1 = 2 rows/cols.
        assert_eq!(net.out_dims(10, 10), (6, 6));
    }

    #[test]
    fn summary_mentions_layers() {
        let net = tiny_net();
        let s = net.summary();
        assert!(s.contains("c1"));
        assert!(s.contains("LeakyReLU"));
        assert!(s.contains("total params"));
    }
}
