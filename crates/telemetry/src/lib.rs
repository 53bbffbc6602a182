//! Live, lock-free metrics for the serving stack.
//!
//! Offline tracing (`pde-trace`) answers "what happened during that run?";
//! this crate answers "what is the engine doing *right now*?". Every metric
//! is a process-global, registration-once object whose hot path is a
//! handful of relaxed atomic operations and **zero allocations after
//! registration** (asserted by `tests/trace_overhead.rs`-style tests):
//!
//! * [`Counter`] / [`Gauge`] — sharded per rank ([`RANK_SHARDS`] padded
//!   cache lines plus one driver cell), so concurrent rank threads never
//!   contend on one cache line;
//! * [`Histogram`] — log-linear (HDR-style) buckets: power-of-two ranges
//!   split into `2^k` linear sub-buckets, giving quantile queries
//!   (p50/p99/p99.9) with relative error bounded by `1/2^(k+1)`; snapshots
//!   are plain vectors that merge by elementwise addition, and
//!   `merge(a, b)` is *exactly* the histogram of the union of the samples;
//! * labeled counter families ([`counter_with_label`]), one series per
//!   label value under a single header.
//!
//! The registry renders the Prometheus text exposition format
//! ([`render_prometheus`]); [`http`] is the workspace's one std-only HTTP
//! server, which [`exporter`] runs on a background thread to serve the
//! registry together with `/healthz` + `/readyz` driven by the explicit
//! [`health`] model. No dependencies, by design: the exporter must keep
//! working when everything else is on fire.

pub mod exporter;
pub mod health;
pub mod http;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Rank shards per metric (power of two). Ranks hash in with `rank & 31`;
/// worlds beyond 32 ranks share shards (totals stay exact, labels coarsen).
pub const RANK_SHARDS: usize = 32;

/// Sentinel "rank" for driver-thread recordings; rendered as the unlabeled
/// base series instead of a `rank="N"` one.
pub const DRIVER: usize = usize::MAX;

/// Default sub-bucket bits for [`histogram`]: 32 linear sub-buckets per
/// power of two, i.e. quantile relative error ≤ 1/64 (~1.6%).
pub const DEFAULT_SUB_BITS: u32 = 5;

/// The nearest-rank index rule shared by every percentile in the stack:
/// for `count` sorted samples, quantile `q` (in `[0, 1]`) is the sample at
/// index `round((count - 1) * q)`. [`HistogramSnapshot::quantile`] and the
/// scheduler's exact-window p99.9 both call this, so a latency reported
/// from a sorted vector and one reported from a histogram agree on which
/// sample they mean (the histogram then coarsens it to its bucket's
/// midpoint).
pub fn nearest_rank(count: u64, q: f64) -> u64 {
    (count.saturating_sub(1) as f64 * q.clamp(0.0, 1.0)).round() as u64
}

fn shard_of(rank: usize) -> usize {
    if rank == DRIVER {
        RANK_SHARDS
    } else {
        rank & (RANK_SHARDS - 1)
    }
}

/// A cache-line-padded atomic cell, so per-rank shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PadU64(AtomicU64);

#[repr(align(64))]
#[derive(Default)]
struct PadI64(AtomicI64);

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonic counter sharded per rank. `inc`/`add` are one relaxed
/// `fetch_add` on the caller's shard.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    cells: Box<[PadU64]>,
}

impl Counter {
    fn new(name: &'static str, help: &'static str) -> Self {
        let cells = (0..=RANK_SHARDS).map(|_| PadU64::default()).collect();
        Counter { name, help, cells }
    }

    /// Metric name as rendered.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds 1 on `rank`'s shard (use [`DRIVER`] off the rank threads).
    #[inline]
    pub fn inc(&self, rank: usize) {
        self.add(rank, 1);
    }

    /// Adds `n` on `rank`'s shard.
    #[inline]
    pub fn add(&self, rank: usize, n: u64) {
        self.cells[shard_of(rank)].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `rank`'s shard.
    pub fn get(&self, rank: usize) -> u64 {
        self.cells[shard_of(rank)].0.load(Ordering::Relaxed)
    }

    /// Sum over all shards (ranks + driver).
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Plain-value snapshot of every shard (`RANK_SHARDS` rank cells then
    /// the driver cell). Two snapshots merge by elementwise addition.
    pub fn values(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A signed instantaneous value sharded per rank (queue depths, aliveness).
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    cells: Box<[PadI64]>,
}

impl Gauge {
    fn new(name: &'static str, help: &'static str) -> Self {
        let cells = (0..=RANK_SHARDS).map(|_| PadI64::default()).collect();
        Gauge { name, help, cells }
    }

    /// Metric name as rendered.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets `rank`'s shard to `v`.
    #[inline]
    pub fn set(&self, rank: usize, v: i64) {
        self.cells[shard_of(rank)].0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative) to `rank`'s shard.
    #[inline]
    pub fn add(&self, rank: usize, d: i64) {
        self.cells[shard_of(rank)].0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value of `rank`'s shard.
    pub fn get(&self, rank: usize) -> i64 {
        self.cells[shard_of(rank)].0.load(Ordering::Relaxed)
    }

    /// Sum over all shards.
    pub fn total(&self) -> i64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Buckets for sub-bucket bits `k`: `2^k` exact unit buckets below `2^k`,
/// then `2^k` linear sub-buckets per power-of-two range up to `u64::MAX`.
fn bucket_count(k: u32) -> usize {
    (65 - k as usize) << k
}

/// Maps a value to its bucket. Values below `2^k` are exact; above, the
/// bucket width at value `v` is `2^(floor(log2 v) - k)`, i.e. width/value
/// ≤ `1/2^k`.
fn bucket_index(v: u64, k: u32) -> usize {
    let m = 1u64 << k;
    if v < m {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - k)) - m;
    (((exp - k + 1) as usize) << k) + sub as usize
}

/// The midpoint of bucket `idx` — the reported representative. Any sample
/// in the bucket is within half a bucket width, so the relative error of a
/// quantile answer is ≤ `1/2^(k+1)`.
fn bucket_mid(idx: usize, k: u32) -> u64 {
    let m = 1usize << k;
    if idx < m {
        return idx as u64;
    }
    let exp = (idx >> k) as u32 + k - 1;
    let sub = (idx & (m - 1)) as u64;
    let width = 1u64 << (exp - k);
    (1u64 << exp) + sub * width + width / 2
}

/// A lock-free log-linear histogram: `record` is three relaxed `fetch_add`s
/// (bucket, count, sum) into preallocated atomics — no locks, no allocation.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    k: u32,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(name: &'static str, help: &'static str, k: u32) -> Self {
        assert!(
            (1..=10).contains(&k),
            "histogram sub-bucket bits {k} outside 1..=10"
        );
        let buckets = (0..bucket_count(k)).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            name,
            help,
            k,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Metric name as rendered.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v, self.k)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The bound on `|reported_quantile - exact_quantile| / exact_quantile`.
    pub fn max_relative_error(&self) -> f64 {
        1.0 / (1u64 << (self.k + 1)) as f64
    }

    /// A plain-value snapshot for quantile queries and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            k: self.k,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value histogram state. Merging two snapshots (elementwise bucket
/// addition) yields exactly the snapshot of recording the union of their
/// samples — the property the proptest suite pins down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    k: u32,
    buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Empty snapshot with sub-bucket bits `k` (for accumulation).
    pub fn empty(k: u32) -> Self {
        HistogramSnapshot {
            k,
            buckets: vec![0; bucket_count(k)],
            count: 0,
            sum: 0,
        }
    }

    /// Folds `other` in. Panics if the two histograms used different
    /// sub-bucket resolutions (their buckets would not line up).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.k, other.k,
            "merging histograms of different resolution"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// See [`Histogram::max_relative_error`].
    pub fn max_relative_error(&self) -> f64 {
        1.0 / (1u64 << (self.k + 1)) as f64
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), by [`nearest_rank`]: the
    /// sample at sorted index
    /// `round((count-1) * q)`, reported as its bucket's midpoint. `None`
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(self.count, q);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Some(bucket_mid(i, self.k));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    /// One series of a labeled counter family (`family{key="value"}`).
    /// Several entries share a family name; the renderer emits the
    /// HELP/TYPE header once per family and every series under it.
    CounterSeries {
        family: &'static str,
        help: &'static str,
        label_key: &'static str,
        label_value: &'static str,
        counter: &'static Counter,
    },
}

impl Metric {
    fn name(&self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Gauge(g) => g.name,
            Metric::Histogram(h) => h.name,
            Metric::CounterSeries { family, .. } => family,
        }
    }

    fn kind_str(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "summary",
            Metric::CounterSeries { .. } => "labeled counter",
        }
    }
}

fn registry() -> &'static Mutex<Vec<Metric>> {
    static REGISTRY: OnceLock<Mutex<Vec<Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

// The only panic under the registry lock is the kind-mismatch check, which
// fires before any mutation — so a poisoned lock still guards a valid Vec
// and every lock site recovers with `unwrap_or_else(|e| e.into_inner())`.

/// Defines a cached accessor for one live metric:
///
/// ```
/// pde_telemetry::live_metric!(
///     /// Requests seen.
///     pub counter requests_seen, "doc_requests_seen_total", "Requests seen"
/// );
/// requests_seen().inc(pde_telemetry::DRIVER);
/// ```
///
/// The first call registers the metric (registry lock + allocation, once
/// per process) and caches the `&'static` handle in a `OnceLock`; every
/// later call — the hot path — is one atomic load, so instrumented code
/// stays on the zero-allocation request path. The kind is `counter`,
/// `gauge` or `histogram`.
#[macro_export]
macro_rules! live_metric {
    (@accessor $(#[$meta:meta])* $vis:vis $fn_name:ident, $kind:ty, $register:path,
     $metric:literal, $help:literal) => {
        $(#[$meta])*
        $vis fn $fn_name() -> &'static $kind {
            static HANDLE: ::std::sync::OnceLock<&'static $kind> = ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $register($metric, $help))
        }
    };
    ($(#[$meta:meta])* $vis:vis counter $fn_name:ident, $metric:literal, $help:literal) => {
        $crate::live_metric!(@accessor $(#[$meta])* $vis $fn_name,
            $crate::Counter, $crate::counter, $metric, $help);
    };
    ($(#[$meta:meta])* $vis:vis gauge $fn_name:ident, $metric:literal, $help:literal) => {
        $crate::live_metric!(@accessor $(#[$meta])* $vis $fn_name,
            $crate::Gauge, $crate::gauge, $metric, $help);
    };
    ($(#[$meta:meta])* $vis:vis histogram $fn_name:ident, $metric:literal, $help:literal) => {
        $crate::live_metric!(@accessor $(#[$meta])* $vis $fn_name,
            $crate::Histogram, $crate::histogram, $metric, $help);
    };
}

/// Registers (or finds) the counter `name`. Registration takes the registry
/// lock and allocates; later calls for the same name return the same
/// `&'static` handle, so instrumentation sites cache it in a `OnceLock` and
/// the hot path never touches the lock again.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = reg.iter().find(|m| m.name() == name) {
        match m {
            Metric::Counter(c) => return c,
            other => panic!(
                "metric '{name}' already registered as a {}",
                other.kind_str()
            ),
        }
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new(name, help)));
    reg.push(Metric::Counter(c));
    c
}

/// Registers (or finds) the gauge `name`. See [`counter`].
pub fn gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = reg.iter().find(|m| m.name() == name) {
        match m {
            Metric::Gauge(g) => return g,
            other => panic!(
                "metric '{name}' already registered as a {}",
                other.kind_str()
            ),
        }
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new(name, help)));
    reg.push(Metric::Gauge(g));
    g
}

/// Registers (or finds) the histogram `name` with the default resolution
/// ([`DEFAULT_SUB_BITS`]). See [`counter`].
pub fn histogram(name: &'static str, help: &'static str) -> &'static Histogram {
    histogram_with_bits(name, help, DEFAULT_SUB_BITS)
}

/// Registers (or finds) the histogram `name` with `2^k` sub-buckets per
/// power-of-two range (quantile relative error ≤ `1/2^(k+1)`).
pub fn histogram_with_bits(name: &'static str, help: &'static str, k: u32) -> &'static Histogram {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = reg.iter().find(|m| m.name() == name) {
        match m {
            Metric::Histogram(h) => return h,
            other => panic!(
                "metric '{name}' already registered as a {}",
                other.kind_str()
            ),
        }
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new(name, help, k)));
    reg.push(Metric::Histogram(h));
    h
}

/// Registers (or finds) one series of the labeled counter family `name`:
/// rendered as `name{label_key="label_value"} <total>`, with the family's
/// `# HELP`/`# TYPE` header emitted exactly once however many series it
/// grows. Idempotent by `(name, label_value)`; the whole family must not
/// collide with an unlabeled metric of the same name.
///
/// # Panics
/// If `name` is already registered as an unlabeled metric, or an existing
/// series of the family uses a different `label_key`.
pub fn counter_with_label(
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
    label_value: &'static str,
) -> &'static Counter {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for m in reg.iter() {
        match m {
            Metric::CounterSeries {
                family,
                label_key: key,
                label_value: value,
                counter,
                ..
            } if *family == name => {
                assert_eq!(
                    *key, label_key,
                    "labeled counter '{name}' already uses label key '{key}'"
                );
                if *value == label_value {
                    return counter;
                }
            }
            other if other.name() == name => panic!(
                "metric '{name}' already registered as a {}",
                other.kind_str()
            ),
            _ => {}
        }
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new(name, help)));
    reg.push(Metric::CounterSeries {
        family: name,
        help,
        label_key,
        label_value,
        counter: c,
    });
    c
}

/// Renders every registered metric in the Prometheus text exposition
/// format (v0.0.4): `# HELP` + `# TYPE` per family, the driver shard as the
/// unlabeled base series, and one `{rank="N"}` series per rank shard that
/// has recorded anything. Histograms render as summaries with
/// p50/p99/p99.9 quantiles plus `_sum`/`_count`.
pub fn render_prometheus() -> String {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::with_capacity(4096);
    let mut families_done: Vec<&str> = Vec::new();
    for m in reg.iter() {
        match m {
            Metric::CounterSeries { family, help, .. } => {
                // All series of a family render together under one header,
                // when the renderer reaches the family's first series.
                if families_done.contains(family) {
                    continue;
                }
                families_done.push(family);
                header(&mut out, family, help, "counter");
                for series in reg.iter() {
                    if let Metric::CounterSeries {
                        family: f,
                        label_key,
                        label_value,
                        counter,
                        ..
                    } = series
                    {
                        if f == family {
                            out.push_str(&format!(
                                "{family}{{{label_key}=\"{label_value}\"}} {}\n",
                                counter.total()
                            ));
                        }
                    }
                }
            }
            Metric::Counter(c) => {
                header(&mut out, c.name, c.help, "counter");
                out.push_str(&format!("{} {}\n", c.name, c.get(DRIVER)));
                for rank in 0..RANK_SHARDS {
                    let v = c.get(rank);
                    if v != 0 {
                        out.push_str(&format!("{}{{rank=\"{rank}\"}} {v}\n", c.name));
                    }
                }
            }
            Metric::Gauge(g) => {
                header(&mut out, g.name, g.help, "gauge");
                out.push_str(&format!("{} {}\n", g.name, g.get(DRIVER)));
                for rank in 0..RANK_SHARDS {
                    let v = g.get(rank);
                    if v != 0 {
                        out.push_str(&format!("{}{{rank=\"{rank}\"}} {v}\n", g.name));
                    }
                }
            }
            Metric::Histogram(h) => {
                header(&mut out, h.name, h.help, "summary");
                let snap = h.snapshot();
                for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                    match snap.quantile(q) {
                        Some(v) => {
                            out.push_str(&format!("{}{{quantile=\"{label}\"}} {v}\n", h.name))
                        }
                        None => out.push_str(&format!("{}{{quantile=\"{label}\"}} NaN\n", h.name)),
                    }
                }
                out.push_str(&format!("{}_sum {}\n", h.name, snap.sum));
                out.push_str(&format!("{}_count {}\n", h.name, snap.count));
            }
        }
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_exact_below_m() {
        let k = DEFAULT_SUB_BITS;
        for v in 0..(1u64 << k) {
            assert_eq!(bucket_index(v, k), v as usize, "exact region");
            assert_eq!(bucket_mid(v as usize, k), v);
        }
        let mut last = 0usize;
        for shift in 0..60 {
            let v = 1u64 << shift;
            let idx = bucket_index(v, k);
            assert!(idx >= last, "indices grow with value");
            last = idx;
        }
        assert!(bucket_index(u64::MAX, k) < bucket_count(k));
    }

    #[test]
    fn bucket_mid_is_within_relative_error_of_any_member() {
        let k = DEFAULT_SUB_BITS;
        let bound = 1.0 / (1u64 << (k + 1)) as f64;
        for v in [33u64, 100, 1023, 1024, 1025, 987_654, u32::MAX as u64 * 7] {
            let mid = bucket_mid(bucket_index(v, k), k);
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            assert!(rel <= bound, "v={v} mid={mid} rel={rel} > {bound}");
        }
    }

    #[test]
    fn quantiles_match_oracle_on_a_small_set() {
        let h = Histogram::new("t_q", "", DEFAULT_SUB_BITS);
        let mut samples: Vec<u64> = (1..=100).map(|i| i * 37).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let oracle = samples[((samples.len() - 1) as f64 * q).round() as usize];
            let got = snap.quantile(q).unwrap();
            let rel = (got as f64 - oracle as f64).abs() / oracle as f64;
            assert!(rel <= snap.max_relative_error(), "q={q}: {got} vs {oracle}");
        }
    }

    #[test]
    fn counter_shards_by_rank_and_driver_is_unlabeled() {
        let c = Counter::new("t_c", "");
        c.inc(3);
        c.add(3, 4);
        c.inc(DRIVER);
        assert_eq!(c.get(3), 5);
        assert_eq!(c.get(DRIVER), 1);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let a = counter("pdeml_test_idempotent_total", "h");
        let b = counter("pdeml_test_idempotent_total", "h");
        assert!(std::ptr::eq(a, b), "same name returns the same handle");
        let caught = std::panic::catch_unwind(|| {
            let _ = gauge("pdeml_test_idempotent_total", "h");
        });
        assert!(caught.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn nearest_rank_pins_the_shared_rule() {
        assert_eq!(nearest_rank(0, 0.5), 0);
        assert_eq!(nearest_rank(1, 0.999), 0);
        assert_eq!(nearest_rank(4, 0.0), 0);
        assert_eq!(nearest_rank(4, 0.5), 2); // round(1.5) = 2
        assert_eq!(nearest_rank(4, 1.0), 3);
        assert_eq!(nearest_rank(1000, 0.999), 998); // round(999 * 0.999)
        assert_eq!(nearest_rank(4, -3.0), 0, "q clamps into [0, 1]");
        assert_eq!(nearest_rank(4, 7.0), 3);
    }

    #[test]
    fn percentile_and_histogram_quantile_share_one_rule() {
        // The sorted-list percentile (`sorted[nearest_rank(n, q)]`) and the
        // histogram quantile route through one rule. Samples stay below
        // 2^k = 32, the histogram's exact-bucket region, so the two must
        // agree EXACTLY on every quantile — any drift in either breaks this.
        let hist = histogram(
            "pdeml_test_percentile_dedup_us",
            "percentile dedup regression fixture",
        );
        let sorted: Vec<u64> = vec![1, 2, 3, 5, 8, 13, 21, 21, 30, 31];
        assert!(sorted.iter().all(|&s| s < 1 << DEFAULT_SUB_BITS));
        for &s in &sorted {
            hist.record(s);
        }
        let snap = hist.snapshot();
        let n = sorted.len() as u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                snap.quantile(q),
                Some(sorted[nearest_rank(n, q) as usize]),
                "q {q}: list percentile and histogram quantile diverged"
            );
        }
    }

    #[test]
    fn labeled_counter_family_renders_one_header_many_series() {
        let a = counter_with_label("pdeml_test_labeled_total", "by reason", "reason", "full");
        let b = counter_with_label("pdeml_test_labeled_total", "by reason", "reason", "slo");
        let a2 = counter_with_label("pdeml_test_labeled_total", "by reason", "reason", "full");
        assert!(std::ptr::eq(a, a2), "same (name, value) → same handle");
        assert!(!std::ptr::eq(a, b), "different label values are distinct");
        a.add(DRIVER, 3);
        b.inc(DRIVER);
        let text = render_prometheus();
        assert_eq!(
            text.matches("# TYPE pdeml_test_labeled_total counter")
                .count(),
            1,
            "one TYPE header per family:\n{text}"
        );
        assert!(text.contains("pdeml_test_labeled_total{reason=\"full\"} 3"));
        assert!(text.contains("pdeml_test_labeled_total{reason=\"slo\"} 1"));
        // The family name is reserved: an unlabeled registration collides.
        let caught = std::panic::catch_unwind(|| {
            let _ = counter("pdeml_test_labeled_total", "x");
        });
        assert!(caught.is_err(), "family vs unlabeled collision must panic");
        let caught = std::panic::catch_unwind(|| {
            let _ = counter_with_label("pdeml_test_labeled_total", "x", "cause", "full");
        });
        assert!(caught.is_err(), "label-key mismatch must panic");
    }

    #[test]
    fn render_emits_help_type_and_rank_labels() {
        let c = counter("pdeml_test_render_total", "rendered");
        c.add(2, 7);
        c.add(DRIVER, 1);
        let h = histogram("pdeml_test_render_us", "latency");
        h.record(500);
        let text = render_prometheus();
        assert!(text.contains("# HELP pdeml_test_render_total rendered"));
        assert!(text.contains("# TYPE pdeml_test_render_total counter"));
        assert!(text.contains("pdeml_test_render_total 1\n"));
        assert!(text.contains("pdeml_test_render_total{rank=\"2\"} 7"));
        assert!(text.contains("# TYPE pdeml_test_render_us summary"));
        assert!(text.contains("pdeml_test_render_us{quantile=\"0.99\"}"));
        assert!(text.contains("pdeml_test_render_us_count 1"));
    }
}
