//! Percentiles, quartiles, the output digest and the seeded generator —
//! everything numeric the benchmark owns itself.

/// Percentile rungs a tail may be reported at, lowest first. The ladder
/// stops at p90: measured over ten runs on this host, a p99 spread by more
/// than a third of its median on `rollout_toy` and `serve_http`, which no
/// bound the benchmark may declare covers.
const LADDER: [f64; 3] = [50.0, 75.0, 90.0];
/// A tail percentile is only reported with this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest rung of the ladder that still has at least ten samples
/// beyond it among `n`; the median when none has.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(nearest_rank(n.max(1), p)) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Windows a run's latencies are cut into, and how many of them — those with
/// the lowest medians — are kept.
pub const WINDOWS: usize = 20;
pub const QUIET_WINDOWS: usize = 8;

/// Latency statistics over the quiet part of a run.
///
/// The sandbox shares its host: for seconds at a time, several times a
/// minute, the same code runs 20–40 % slower (most likely because the two
/// virtual CPUs then share one physical core). That only ever adds time, so
/// the windows with the lowest medians are the ones that show the program.
/// Over ten identical runs the median of all requests spread by a quarter of
/// its value; the 8 quietest of 20 windows spread by a fifth of that.
pub struct Quiet {
    pub p50: f64,
    pub tail: f64,
    /// Percentile the tail was taken at (rule: ≥ 10 samples beyond it).
    pub tail_pct: f64,
    /// Mean of the kept samples (for a closed loop, 1 / throughput).
    pub mean: f64,
    /// Samples kept.
    pub kept: usize,
}

/// Cuts `latencies` (any unit) into [`WINDOWS`] consecutive windows, keeps
/// the [`QUIET_WINDOWS`] with the lowest medians and pools their samples.
pub fn quiet(latencies: &[f64]) -> Quiet {
    assert!(!latencies.is_empty(), "no latencies to summarise");
    // A run cut short may have fewer samples than windows: one each, then.
    let count = WINDOWS.min(latencies.len());
    let size = latencies.len() / count;
    let mut windows: Vec<&[f64]> = latencies.chunks_exact(size).take(count).collect();
    windows.sort_by(|a, b| p50(a).total_cmp(&p50(b)));
    let kept = sorted(&windows[..(count * QUIET_WINDOWS).div_ceil(WINDOWS)].concat());
    let tail_pct = tail_percentile(kept.len());
    Quiet {
        p50: percentile(&kept, 50.0),
        tail: percentile(&kept, tail_pct),
        tail_pct,
        mean: kept.iter().sum::<f64>() / kept.len() as f64,
        kept: kept.len(),
    }
}

/// The values in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted samples (the p50 of a probe loop).
pub fn p50(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// FNV-1a over the bits of every result a workload checked.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (1.0 - self.unit())
    }

    /// Exponential with mean 1.
    pub fn exp(&mut self) -> f64 {
        -self.unit().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten beyond it.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        // The ISSUE's fixed choices follow from the rule.
        assert_eq!(tail_percentile(110), 90.0);
        assert_eq!(tail_percentile(10_000), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        // p50 of 20 is rank 10, ten beyond; below that nothing qualifies.
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(1), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn quiet_keeps_the_windows_with_the_lowest_medians() {
        // Twenty windows of two: window k holds the value k, except that
        // windows 4 to 15 were disturbed and took 100 longer.
        let lat: Vec<f64> = (0..40)
            .map(|i| {
                let k = i / 2;
                let disturbed = (4..16).contains(&k);
                k as f64 + if disturbed { 100.0 } else { 0.0 }
            })
            .collect();
        let q = quiet(&lat);
        assert_eq!((q.kept, q.tail_pct), (16, 50.0));
        // Kept: windows 0..4 and 16..20, two samples each.
        assert_eq!(q.p50, 3.0);
        assert_eq!(q.mean, (1 + 2 + 3 + 16 + 17 + 18 + 19) as f64 / 8.0);
        // 100 samples keep 40: p75 has ten beyond it, p90 only four.
        assert_eq!(quiet(&[1.0; 100]).tail_pct, 75.0);
        // A run cut short to fewer samples than windows keeps 40 % of them.
        assert_eq!(quiet(&[3.0, 1.0, 2.0, 9.0, 8.0]).p50, 1.0);
    }

    #[test]
    fn digest_is_fnv1a_and_sees_every_bit() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f64s(&[0.0]);
        b.f64s(&[-0.0]);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| {
            let u = r.unit();
            u > 0.0 && u <= 1.0
        }));
    }
}
