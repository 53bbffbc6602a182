//! The serving form of a network: its forward pass in `f32`.
//!
//! Training runs in `f64` ([`crate::Sequential`]); serving runs the same
//! weights through [`ServingNet`], which converts them to `f32` once, packs
//! them for the kernel once, and keeps two resident `f32` activation
//! buffers. Its [`ServingNet::forward_into`] takes and returns `f64`
//! tensors: the input is rounded to `f32` once on the way in (a finite value
//! past `f32::MAX` becomes ±∞) and the output widened back exactly, so every
//! caller's state, halo and response stay `f64`.
//!
//! Inside, each convolution is `pde-tensor`'s [`ConvForward`] at `f32` —
//! the training kernel's body and order contract at the other precision —
//! so a serving net gives the same bits on every kernel path, thread budget
//! and block decomposition, just as the `f64` net does.

use crate::layer::Layer;
use pde_tensor::conv::{leaky_relu, ConvForward};
use pde_tensor::Tensor4;

/// One stage of a [`ServingNet`], made by [`Layer::serving_stages`].
pub struct ServingStage(Stage);

enum Stage {
    /// A convolution (with its fused activation, if any) at f32.
    Conv(ConvForward<f32>),
    /// A LeakyReLU layer of its own with this slope (0 for ReLU).
    Act(f32),
    /// A layer with no f32 kernel — the Deconv strategy's up-sampling
    /// transpose convolution: its input is widened to f64, run through the
    /// layer's own forward pass and narrowed back.
    Wide(Box<dyn Layer>),
}

impl ServingStage {
    /// A convolution stage.
    pub(crate) fn conv(conv: ConvForward<f32>) -> Self {
        Self(Stage::Conv(conv))
    }

    /// An elementwise LeakyReLU stage with negative-side slope `slope`.
    pub(crate) fn activation(slope: f64) -> Self {
        Self(Stage::Act(slope as f32))
    }

    /// A stage that runs `layer`'s own `f64` forward pass
    /// ([`Layer::forward_chain`]) on the widened activation.
    pub(crate) fn widened(layer: Box<dyn Layer>) -> Self {
        Self(Stage::Wide(layer))
    }

    fn fused(&self) -> bool {
        matches!(&self.0, Stage::Conv(c) if c.leak().is_some())
    }
}

/// An inference-only network in `f32`, built from a trained network's
/// current weights (see the module docs). Everything it touches grows once
/// and is reused, so a warm forward pass does not allocate.
pub struct ServingNet {
    stages: Vec<ServingStage>,
    /// The ping-pong activations: `acts[0]` holds the current stage's input.
    acts: [Vec<f32>; 2],
    /// Staging for [`ServingStage::widened`] stages.
    wide: [Tensor4; 2],
}

impl ServingNet {
    /// The serving form of `net`, converted from its weights as they are
    /// now (later training does not reach it).
    ///
    /// # Panics
    /// If a layer of `net` has no serving form ([`Layer::serving_stages`]).
    pub fn new(net: &dyn Layer) -> Self {
        let mut stages = Vec::new();
        net.serving_stages(&mut stages);
        Self {
            stages,
            acts: [Vec::new(), Vec::new()],
            wide: [Tensor4::zeros(0, 0, 0, 0), Tensor4::zeros(0, 0, 0, 0)],
        }
    }

    /// The forward pass: `out` (resized in place) is the network applied to
    /// `input`, computed in `f32` from `input` rounded to `f32`.
    pub fn forward_into(&mut self, input: &Tensor4, out: &mut Tensor4) {
        let (n, mut c, mut h, mut w) = input.shape();
        let [src, dst] = &mut self.acts;
        narrow_into(input.as_slice(), src);
        for (i, stage) in self.stages.iter_mut().enumerate() {
            // One span per stage, as the training stack records them.
            let _span = pde_trace::span_args(
                pde_trace::Category::Nn,
                pde_trace::names::FWD,
                i as u64,
                stage.fused() as u64,
            );
            let len = n * c * h * w;
            match &mut stage.0 {
                Stage::Conv(conv) => {
                    (h, w) = conv.forward(&src[..len], (n, h, w), dst);
                    c = conv.spec().out_c;
                    std::mem::swap(src, dst);
                }
                Stage::Act(slope) => {
                    for v in &mut src[..len] {
                        *v = leaky_relu(*slope, *v);
                    }
                }
                Stage::Wide(layer) => {
                    let [wide_in, wide_out] = &mut self.wide;
                    wide_in.resize(n, c, h, w);
                    widen_into(&src[..len], wide_in.as_mut_slice());
                    layer.forward_chain(wide_in, wide_out);
                    (_, c, h, w) = wide_out.shape();
                    narrow_into(wide_out.as_slice(), src);
                }
            }
        }
        out.resize(n, c, h, w);
        widen_into(&src[..n * c * h * w], out.as_mut_slice());
    }
}

/// Overwrites `dst` with `src` rounded to `f32` (its capacity only grows).
fn narrow_into(src: &[f64], dst: &mut Vec<f32>) {
    dst.clear();
    dst.extend(src.iter().map(|&v| v as f32));
}

/// Writes `src` widened to `f64` (exact) into `dst`, of the same length.
fn widen_into(src: &[f32], dst: &mut [f64]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = f64::from(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{LeakyReLu, ReLu};
    use crate::conv::Conv2d;
    use crate::deconv::ConvTranspose2d;
    use crate::init::init_conv;
    use crate::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input(c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_fn(1, c, h, w, |_, ch, i, j| {
            ((ch * 31 + i * 7 + j * 3) % 17) as f64 / 8.0 - 1.0
        })
    }

    fn net_with(extra: impl FnOnce(Sequential) -> Sequential) -> Sequential {
        let mut rng = StdRng::seed_from_u64(7);
        let mut c1 = Conv2d::new(pde_tensor::Conv2dSpec::square(2, 3, 3, 0)).leaky(0.01);
        init_conv(&mut c1, 0.01, &mut rng);
        let mut c2 = Conv2d::same(3, 2, 3);
        init_conv(&mut c2, 0.01, &mut rng);
        extra(Sequential::new().push(c1).push(c2))
    }

    /// The f32 net stays within f32 rounding of the f64 net it was built
    /// from, through every stage kind: fused and plain convolutions,
    /// standalone activations and a widened transpose convolution.
    #[test]
    fn serving_net_tracks_the_f64_net_through_every_stage_kind() {
        let mut net = net_with(|net| {
            let mut up = ConvTranspose2d::new(2, 2, 3);
            for (k, v) in up.weight_mut().as_mut_slice().iter_mut().enumerate() {
                *v = (k % 5) as f64 / 10.0 - 0.2;
            }
            up.bias_mut()[1] = 0.25;
            net.push(LeakyReLu::new(0.1)).push(up).push(ReLu::new())
        });
        let x = input(2, 9, 11);
        let want = net.forward(&x, false);
        let mut serving = ServingNet::new(&net);
        let mut got = Tensor4::zeros(0, 0, 0, 0);
        serving.forward_into(&x, &mut got);
        assert_eq!(got.shape(), want.shape());
        let scale = want.max_abs().max(1.0);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() <= 1e-5 * scale, "{a} vs {b}");
            assert_eq!(*a, f64::from(*a as f32), "output is not an f32 value");
        }
        // Warm and cold give the same bits.
        let mut again = Tensor4::zeros(0, 0, 0, 0);
        serving.forward_into(&x, &mut again);
        assert_eq!(again, got);
    }

    /// A finite input value past `f32::MAX` cannot be served: it narrows to
    /// infinity and the output it reaches is not finite.
    #[test]
    fn an_input_past_the_f32_range_gives_a_non_finite_output() {
        let net = net_with(|net| net);
        let mut x = input(2, 6, 6);
        x.as_mut_slice()[20] = 1e39;
        let mut y = Tensor4::zeros(0, 0, 0, 0);
        ServingNet::new(&net).forward_into(&x, &mut y);
        assert!(y.as_slice().iter().any(|v| !v.is_finite()));
    }
}
