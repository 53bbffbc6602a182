//! Per-channel normalization.
//!
//! The linearized-Euler perturbation fields live on wildly different
//! scales: with the paper's §IV-A setup, `p' ~ 1e-1`, `u', v' ~ 1e-4` and
//! `ρ' ~ 1e-7`. A CNN with shared-kernel arithmetic cannot express such a
//! dynamic range from a standard initialization, and no loss (MAPE
//! included) fixes that representational issue — so the pipeline maps each
//! channel to O(1) before training and inverts the map after inference.
//! The scales are fitted on *training* data only and are part of the
//! trained model (stored in `TrainOutcome`).
//!
//! This is standard surrogate-modelling practice; the paper does not
//! discuss it, and EXPERIMENTS.md records it as a necessary deviation.

use pde_euler::dataset::DataSetView;
use pde_tensor::{Tensor3, Tensor4};

/// Per-channel linear scaling `x ↦ x / scale[c]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelNorm {
    scales: Vec<f64>,
}

impl ChannelNorm {
    /// The identity map for `c` channels (normalization disabled).
    pub fn identity(c: usize) -> Self {
        Self {
            scales: vec![1.0; c],
        }
    }

    /// Builds from explicit per-channel scales.
    ///
    /// # Panics
    /// If any scale is not strictly positive and finite.
    pub fn from_scales(scales: Vec<f64>) -> Self {
        assert!(
            scales.iter().all(|s| s.is_finite() && *s > 0.0),
            "ChannelNorm: scales must be positive and finite, got {scales:?}"
        );
        Self { scales }
    }

    /// Fits per-channel scales as the maximum absolute value over all
    /// snapshots touched by the training view (inputs and targets), floored
    /// at `1e-12` so an identically zero channel maps through unchanged.
    ///
    /// Each snapshot is scanned once, although all but the first and last
    /// are both an input and a target: a maximum of absolute values is
    /// exact and independent of order, so the scales are those of a
    /// per-pair scan.
    pub fn fit(view: &DataSetView<'_>) -> Self {
        assert!(!view.is_empty(), "ChannelNorm::fit: empty view");
        let start = view.start();
        let snapshots = &view.dataset().snapshots()[start..=start + view.len()];
        let mut scales = vec![0.0f64; snapshots[0].c()];
        for snap in snapshots {
            for (ch, s) in scales.iter_mut().enumerate() {
                *s = snap.channel(ch).iter().fold(*s, |m, v| m.max(v.abs()));
            }
        }
        for s in &mut scales {
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { scales }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.scales.len()
    }

    /// The fitted scales.
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// True when every scale is exactly 1 (no-op).
    pub fn is_identity(&self) -> bool {
        self.scales.iter().all(|&s| s == 1.0)
    }

    fn check(&self, c: usize) {
        assert_eq!(c, self.scales.len(), "ChannelNorm: channel count mismatch");
    }

    /// Maps a snapshot into normalized space.
    pub fn normalize3(&self, t: &Tensor3) -> Tensor3 {
        self.check(t.c());
        let mut out = t.clone();
        for ch in 0..t.c() {
            let inv = 1.0 / self.scales[ch];
            for v in out.channel_mut(ch) {
                *v *= inv;
            }
        }
        out
    }

    /// Inverts [`ChannelNorm::normalize3`].
    pub fn denormalize3(&self, t: &Tensor3) -> Tensor3 {
        self.check(t.c());
        let mut out = t.clone();
        for ch in 0..t.c() {
            let s = self.scales[ch];
            for v in out.channel_mut(ch) {
                *v *= s;
            }
        }
        out
    }

    /// Maps a batch into normalized space.
    pub fn normalize4(&self, t: &Tensor4) -> Tensor4 {
        self.check(t.c());
        let (n, c, h, w) = t.shape();
        let mut out = t.clone();
        for s in 0..n {
            let sample = out.sample_mut(s);
            for ch in 0..c {
                let inv = 1.0 / self.scales[ch];
                for v in &mut sample[ch * h * w..(ch + 1) * h * w] {
                    *v *= inv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_euler::dataset::paper_dataset;

    #[test]
    fn identity_is_noop() {
        let n = ChannelNorm::identity(4);
        assert!(n.is_identity());
        let t = Tensor3::from_fn(4, 3, 3, |c, i, j| (c * 9 + i * 3 + j) as f64);
        assert_eq!(n.normalize3(&t), t);
        assert_eq!(n.denormalize3(&t), t);
    }

    #[test]
    fn normalize_denormalize_roundtrip() {
        let n = ChannelNorm::from_scales(vec![0.5, 2.0, 1e-6]);
        let t = Tensor3::from_fn(3, 4, 4, |c, i, j| (c + i + j) as f64 * 0.1 - 0.3);
        let back = n.denormalize3(&n.normalize3(&t));
        for (a, b) in back.as_slice().iter().zip(t.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_captures_field_scales() {
        let data = paper_dataset(16, 6);
        let view = data.view(0, data.pair_count());
        let n = ChannelNorm::fit(&view);
        // Pressure is O(0.5), density O(1e-6): the fitted scales must keep
        // that ordering and both normalized fields must be within [-1, 1].
        assert!(
            n.scales()[0] > 100.0 * n.scales()[1],
            "scales {:?}",
            n.scales()
        );
        let normed = n.normalize3(data.snapshot(3));
        assert!(normed.max_abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn fit_scans_each_snapshot_once_with_the_scales_of_a_per_pair_scan() {
        let data = paper_dataset(16, 10);
        for (start, count) in [(0, 9), (2, 5), (4, 1)] {
            let view = data.view(start, count);
            // The per-pair reference: every interior snapshot is read twice.
            let mut want = [0.0f64; 4];
            for k in 0..view.len() {
                let (x, y) = view.pair(k);
                for (ch, s) in want.iter_mut().enumerate() {
                    let mx = x.channel(ch).iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let my = y.channel(ch).iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    *s = s.max(mx).max(my);
                }
            }
            let got = ChannelNorm::fit(&view);
            for (ch, (g, w)) in got.scales().iter().zip(want).enumerate() {
                let w = if w < 1e-12 { 1.0 } else { w };
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "view {start}+{count}, channel {ch}"
                );
            }
        }
    }

    #[test]
    fn fit_handles_zero_channels() {
        // The initial snapshot alone: ρ', u', v' are identically zero.
        let data = paper_dataset(16, 2);
        let view = data.view(0, 1);
        let n = ChannelNorm::fit(&view);
        assert!(n.scales().iter().all(|s| *s > 0.0));
    }

    #[test]
    fn normalize4_matches_per_sample_normalize3() {
        let data = paper_dataset(16, 4);
        let view = data.view(0, 3);
        let n = ChannelNorm::fit(&view);
        let batch = Tensor4::stack(&[data.snapshot(0).clone(), data.snapshot(2).clone()]);
        let normed = n.normalize4(&batch);
        assert_eq!(normed.sample_tensor(0), n.normalize3(data.snapshot(0)));
        assert_eq!(normed.sample_tensor(1), n.normalize3(data.snapshot(2)));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_scale() {
        let _ = ChannelNorm::from_scales(vec![1.0, 0.0]);
    }
}
