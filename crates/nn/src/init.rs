//! Weight initialization.
//!
//! Kaiming-uniform initialization (He et al.) is the scheme for
//! (leaky-)ReLU networks like the paper's. It is deterministic given a
//! seeded RNG, which is what makes the "parallel == sequential
//! per-subdomain" equivalence tests of `pde-ml-core` possible.

use crate::conv::Conv2d;
use rand::rngs::StdRng;
use rand::Rng;

/// Initializes one convolution layer in place with He-uniform weights for
/// a following leaky ReLU of slope `neg_slope`: `U(-b, b)` with
/// `b = gain * sqrt(3 / fan_in)`, `gain = sqrt(2/(1+a²))`. Biases are
/// zeroed.
pub fn init_conv(layer: &mut Conv2d, neg_slope: f64, rng: &mut StdRng) {
    let spec = *layer.spec();
    let fan_in = spec.in_c * spec.kh * spec.kw;
    let gain = (2.0 / (1.0 + neg_slope * neg_slope)).sqrt();
    let bound = gain * (3.0 / fan_in as f64).sqrt();
    for w in layer.weight_mut().as_mut_slice() {
        *w = rng.gen_range(-bound..bound);
    }
    layer.bias_mut().fill(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seeded() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn kaiming_uniform_respects_bound() {
        let mut l = Conv2d::same(4, 6, 5);
        init_conv(&mut l, 0.01, &mut seeded());
        let fan_in = 4 * 5 * 5;
        let gain = (2.0f64 / (1.0 + 0.0001)).sqrt();
        let bound = gain * (3.0 / fan_in as f64).sqrt();
        for &w in l.weight().as_slice() {
            assert!(w.abs() <= bound, "weight {w} exceeds bound {bound}");
        }
        assert!(l.bias().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Conv2d::same(2, 3, 3);
        let mut b = Conv2d::same(2, 3, 3);
        init_conv(&mut a, 0.01, &mut seeded());
        init_conv(&mut b, 0.01, &mut seeded());
        assert_eq!(a.weight(), b.weight());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Conv2d::same(2, 3, 3);
        let mut b = Conv2d::same(2, 3, 3);
        init_conv(&mut a, 0.01, &mut StdRng::seed_from_u64(1));
        init_conv(&mut b, 0.01, &mut StdRng::seed_from_u64(2));
        assert_ne!(a.weight(), b.weight());
    }
}
