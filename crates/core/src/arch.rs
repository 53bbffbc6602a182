//! The paper's CNN architecture (Table I), parameterized.
//!
//! Table I specifies four convolution layers with channel widths
//! 4 → 6 → 16 → 6 → 4, 5×5 kernels and padding; leaky ReLU (ε = 0.01)
//! activations. [`ArchSpec::paper`] reproduces that exactly;
//! [`ArchSpec::tiny`] is a shrunken variant for fast tests at small grids.

use crate::padding::PaddingStrategy;
use pde_nn::init::{init_conv, Init};
use pde_nn::{Conv2d, ConvTranspose2d, ReLu, Sequential};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A conv-stack architecture: channel widths, square kernel, activation
/// slope.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchSpec {
    /// Channel widths, input first: `[c_in, h1, …, c_out]`. One conv layer
    /// per adjacent pair.
    pub channels: Vec<usize>,
    /// Square kernel edge (odd).
    pub kernel: usize,
    /// Leaky-ReLU negative slope (paper: 0.01).
    pub leak: f64,
}

/// One row of the Table-I summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerRow {
    /// 1-based layer number.
    pub layer: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel shape as `(in, out, kh, kw)` like the paper's column.
    pub kernel: (usize, usize, usize, usize),
    /// Whether the layer zero-pads to preserve dims in the `ZeroPad`
    /// strategy.
    pub padding: bool,
    /// Learnable parameters (weights + biases).
    pub params: usize,
}

impl ArchSpec {
    /// Table I of the paper: 4 layers, channels 4→6→16→6→4, 5×5 kernels.
    pub fn paper() -> Self {
        Self {
            channels: vec![4, 6, 16, 6, 4],
            kernel: 5,
            leak: 0.01,
        }
    }

    /// A two-layer 3×3 variant (halo 2) for fast tests on small grids.
    pub fn tiny() -> Self {
        Self {
            channels: vec![4, 6, 4],
            kernel: 3,
            leak: 0.01,
        }
    }

    /// Number of conv layers.
    pub fn n_layers(&self) -> usize {
        self.channels.len() - 1
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.channels[0]
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        *self.channels.last().unwrap()
    }

    /// Total one-sided spatial shrink of the unpadded stack:
    /// `n_layers * (kernel-1) / 2`. This is the input-halo width the
    /// neighbor-padding strategy needs.
    pub fn halo(&self) -> usize {
        self.n_layers() * (self.kernel - 1) / 2
    }

    /// Total learnable parameter count.
    pub fn param_count(&self) -> usize {
        self.layer_rows().iter().map(|r| r.params).sum()
    }

    /// The Table-I rows for reporting.
    pub fn layer_rows(&self) -> Vec<LayerRow> {
        self.channels
            .windows(2)
            .enumerate()
            .map(|(l, io)| LayerRow {
                layer: l + 1,
                in_channels: io[0],
                out_channels: io[1],
                kernel: (io[0], io[1], self.kernel, self.kernel),
                padding: true,
                params: io[0] * io[1] * self.kernel * self.kernel + io[1],
            })
            .collect()
    }

    /// Validates the spec (≥1 layer, odd kernel, sane leak).
    pub fn validate(&self) {
        assert!(
            self.channels.len() >= 2,
            "ArchSpec: need at least one layer"
        );
        assert!(
            self.kernel % 2 == 1 && self.kernel >= 1,
            "ArchSpec: kernel must be odd"
        );
        assert!((0.0..1.0).contains(&self.leak), "ArchSpec: leak in [0, 1)");
        assert!(
            self.channels.iter().all(|&c| c > 0),
            "ArchSpec: zero-width layer"
        );
    }

    /// Builds the network with Kaiming-initialized weights.
    ///
    /// `internally_padded` selects between "same" convolutions (the
    /// zero-padding strategy — every layer preserves spatial dims) and
    /// unpadded convolutions (the neighbor-padding / inner-crop strategies —
    /// each layer shrinks by `kernel − 1`).
    ///
    /// The final layer has no activation (linear regression head); every
    /// earlier stage is one [`Conv2d`] with the leaky ReLU fused into its
    /// write-back ([`Conv2d::leaky`]) — except at `leak == 0`, whose stages
    /// stay a `Conv2d` followed by a [`ReLu`] layer (a ReLU's output does
    /// not carry the sign its backward needs).
    pub fn build(&self, internally_padded: bool, seed: u64) -> Sequential {
        self.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        let n = self.n_layers();
        for (l, io) in self.channels.windows(2).enumerate() {
            let mut conv = if internally_padded {
                Conv2d::same(io[0], io[1], self.kernel)
            } else {
                Conv2d::new(pde_tensor::Conv2dSpec::square(io[0], io[1], self.kernel, 0))
            }
            .named(&format!("conv{}", l + 1));
            init_conv(
                &mut conv,
                Init::KaimingUniform {
                    neg_slope: self.leak,
                },
                &mut rng,
            );
            let hidden = l + 1 < n;
            if hidden && self.leak > 0.0 {
                conv = conv.leaky(self.leak);
            }
            net.push_boxed(Box::new(conv));
            if hidden && self.leak == 0.0 {
                net.push_boxed(Box::new(ReLu::new()));
            }
        }
        net
    }

    /// Builds the network a padding strategy requires:
    /// * `ZeroPad` — internally padded ("same") convolutions;
    /// * `NeighborPad` / `InnerCrop` — unpadded convolutions;
    /// * `Deconv` — unpadded convolutions plus a final
    ///   [`ConvTranspose2d`] with kernel `2·halo + 1` that restores the
    ///   spatial extent (paper §III approach 4).
    pub fn build_for(&self, strategy: PaddingStrategy, seed: u64) -> Sequential {
        let mut net = self.build(
            !matches!(
                strategy,
                PaddingStrategy::NeighborPad | PaddingStrategy::InnerCrop | PaddingStrategy::Deconv
            ),
            seed,
        );
        if strategy == PaddingStrategy::Deconv {
            let k = 2 * self.halo() + 1;
            let c = self.out_channels();
            let mut up = ConvTranspose2d::new(c, c, k).named("deconv");
            // Kaiming-uniform on the transpose kernel (fan_in = c·k²),
            // derived from the same seed stream position the convs left off.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xDE_C0_11);
            let fan_in = (c * k * k) as f64;
            let gain = (2.0f64 / (1.0 + self.leak * self.leak)).sqrt();
            let bound = gain * (3.0 / fan_in).sqrt();
            for w in up.weight_mut().as_mut_slice() {
                *w = rng.gen_range(-bound..bound);
            }
            net.push_boxed(Box::new(up));
        }
        net
    }

    /// Total learnable parameters of the network [`ArchSpec::build_for`]
    /// produces (the Deconv strategy adds its up-sampling layer).
    pub fn param_count_for(&self, strategy: PaddingStrategy) -> usize {
        let base = self.param_count();
        if strategy == PaddingStrategy::Deconv {
            let k = 2 * self.halo() + 1;
            let c = self.out_channels();
            base + c * c * k * k + c
        } else {
            base
        }
    }

    /// Renders the Table-I summary as fixed-width text (one line per layer),
    /// matching the paper's columns.
    pub fn table(&self) -> String {
        let mut s = String::from(
            "layer | input    | output   | kernel            | padding\n\
             number| channels | channels | size              |\n",
        );
        for r in self.layer_rows() {
            s.push_str(&format!(
                "{:<6}| {:<9}| {:<9}| {}x{}x{}x{}          | {}\n",
                r.layer,
                r.in_channels,
                r.out_channels,
                r.kernel.0,
                r.kernel.1,
                r.kernel.2,
                r.kernel.3,
                if r.padding { "Yes" } else { "No" }
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_nn::Layer;
    use pde_tensor::Tensor4;

    #[test]
    fn paper_spec_matches_table1() {
        let a = ArchSpec::paper();
        assert_eq!(a.n_layers(), 4);
        assert_eq!(a.in_channels(), 4);
        assert_eq!(a.out_channels(), 4);
        let rows = a.layer_rows();
        assert_eq!(rows[0].kernel, (4, 6, 5, 5));
        assert_eq!(rows[1].kernel, (6, 16, 5, 5));
        assert_eq!(rows[2].kernel, (16, 6, 5, 5));
        assert_eq!(rows[3].kernel, (6, 4, 5, 5));
        assert!(rows.iter().all(|r| r.padding));
        // Parameter count: 4·6·25+6 + 6·16·25+16 + 16·6·25+6 + 6·4·25+4.
        assert_eq!(a.param_count(), 606 + 2416 + 2406 + 604);
    }

    #[test]
    fn halo_is_total_one_sided_shrink() {
        assert_eq!(ArchSpec::paper().halo(), 8); // 4 layers × 2
        assert_eq!(ArchSpec::tiny().halo(), 2); // 2 layers × 1
    }

    #[test]
    fn padded_build_preserves_dims() {
        let mut net = ArchSpec::paper().build(true, 1);
        let x = Tensor4::zeros(1, 4, 12, 12);
        assert_eq!(net.forward(&x, false).shape(), (1, 4, 12, 12));
        assert_eq!(net.param_count(), ArchSpec::paper().param_count());
    }

    #[test]
    fn unpadded_build_shrinks_by_twice_the_halo() {
        let a = ArchSpec::tiny();
        let mut net = a.build(false, 1);
        let x = Tensor4::zeros(1, 4, 12, 10);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (1, 4, 12 - 2 * a.halo(), 10 - 2 * a.halo()));
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let a = ArchSpec::tiny();
        let mut n1 = a.build(true, 42);
        let mut n2 = a.build(true, 42);
        let x = Tensor4::from_fn(1, 4, 8, 8, |_, c, i, j| (c + i + j) as f64 * 0.1);
        assert_eq!(n1.forward(&x, false), n2.forward(&x, false));
        let mut n3 = a.build(true, 43);
        assert_ne!(n1.forward(&x, false), n3.forward(&x, false));
    }

    #[test]
    fn activation_count_is_layers_minus_one() {
        // 4 convs, the 3 hidden ones carrying their activation.
        let net = ArchSpec::paper().build(true, 0);
        assert_eq!(net.len(), 4);
        assert_eq!(net.summary().matches("+ LeakyReLU(eps=0.01)").count(), 3);
        assert!(net.summary().contains("conv2: Conv2d(6→16, 5x5"));
        // Plain ReLU cannot be fused: 4 convs + 3 activation layers.
        let relu = ArchSpec {
            leak: 0.0,
            ..ArchSpec::paper()
        };
        let net = relu.build(true, 0);
        assert_eq!(net.len(), 7);
        assert_eq!(net.summary().matches("ReLU").count(), 3);
    }

    #[test]
    fn table_renders_all_layers() {
        let t = ArchSpec::paper().table();
        assert!(t.contains("4x6x5x5"));
        assert!(t.contains("6x16x5x5"));
        assert!(t.contains("16x6x5x5"));
        assert!(t.contains("6x4x5x5"));
    }

    #[test]
    #[should_panic(expected = "kernel must be odd")]
    fn rejects_even_kernel() {
        let a = ArchSpec {
            channels: vec![4, 4],
            kernel: 4,
            leak: 0.01,
        };
        a.validate();
    }
}
