//! Thread-local performance counters for the dense-kernel hot path, plus a
//! heap-allocation probe.
//!
//! Training in this workspace is one OS thread per rank
//! ([`pde-commsim`]'s `World`), so thread-local counters give exact
//! *per-rank* attribution with no synchronization on the hot path. The
//! convolution passes and the reference products in [`crate::gemm`] record
//! FLOPs, call counts and packing traffic here; the global allocator is wrapped by [`CountingAlloc`] so the
//! training loop can *prove* it performs zero steady-state allocations.
//!
//! Typical use:
//!
//! ```
//! use pde_tensor::perf;
//! let before = perf::snapshot();
//! // ... run kernels ...
//! let spent = perf::snapshot().since(&before);
//! println!("{} GEMM calls, {} FLOPs", spent.gemm_calls, spent.flops);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static FLOPS: Cell<u64> = const { Cell::new(0) };
    static GEMM_CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES_PACKED: Cell<u64> = const { Cell::new(0) };
    static KERNEL_NS: Cell<u64> = const { Cell::new(0) };
    static SIMD_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Records one product — a plain GEMM call, or a convolution pass booked as
/// the product it replaced: its FLOP count, the bytes it copied into kernel
/// layout, wall-clock nanoseconds, and whether an explicit-SIMD kernel path
/// ran.
#[inline]
pub(crate) fn record_gemm(flops: u64, bytes_packed: u64, ns: u64, simd: bool) {
    FLOPS.with(|c| c.set(c.get() + flops));
    GEMM_CALLS.with(|c| c.set(c.get() + 1));
    BYTES_PACKED.with(|c| c.set(c.get() + bytes_packed));
    KERNEL_NS.with(|c| c.set(c.get() + ns));
    if simd {
        SIMD_CALLS.with(|c| c.set(c.get() + 1));
    }
    crate::live::record_kernel(flops, ns);
    // One instant per product; when no trace session is active this is
    // a single thread-local read (see `pde_trace::instant`).
    pde_trace::instant(
        pde_trace::Category::Kernel,
        pde_trace::names::GEMM,
        flops,
        bytes_packed,
    );
}

/// A point-in-time (or difference of) reading of this thread's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Floating-point operations issued by the GEMM kernels (2·m·k·n each).
    pub flops: u64,
    /// Number of products: plain GEMM calls, plus one per convolution
    /// forward / input-gradient pass (the whole mini-batch) and one per
    /// sample of a weight-gradient pass.
    pub gemm_calls: u64,
    /// Bytes copied into kernel layout: a convolution pass's re-laid-out
    /// weights — the passes read activations in place, so no lowered or
    /// transposed copy of them is counted (or made). The reference GEMM
    /// packs nothing.
    pub bytes_packed: u64,
    /// Wall-clock nanoseconds spent inside those products — for a
    /// convolution pass the weight re-layout, the zero-bordered sample copy
    /// of a padded layer and the kernels — with time on pool worker threads
    /// the pass fanned out to counted once (it blocks until every chunk
    /// completes).
    pub kernel_ns: u64,
    /// Products that ran an explicit-SIMD kernel path.
    pub simd_calls: u64,
    /// Heap allocations observed on this thread (alloc + realloc +
    /// alloc_zeroed), counted by [`CountingAlloc`].
    pub allocs: u64,
}

impl PerfCounters {
    /// Counter increments since an `earlier` snapshot on the same thread.
    pub fn since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            flops: self.flops - earlier.flops,
            gemm_calls: self.gemm_calls - earlier.gemm_calls,
            bytes_packed: self.bytes_packed - earlier.bytes_packed,
            kernel_ns: self.kernel_ns - earlier.kernel_ns,
            simd_calls: self.simd_calls - earlier.simd_calls,
            allocs: self.allocs - earlier.allocs,
        }
    }

    /// Sustained GFLOP/s given a wall-clock duration in seconds.
    pub fn gflops(&self, seconds: f64) -> f64 {
        if seconds > 0.0 {
            self.flops as f64 / seconds / 1e9
        } else {
            0.0
        }
    }

    /// GFLOP/s over the nanoseconds actually spent inside the products
    /// (excludes everything the caller did between kernel calls).
    pub fn kernel_gflops(&self) -> f64 {
        if self.kernel_ns > 0 {
            self.flops as f64 / self.kernel_ns as f64
        } else {
            0.0
        }
    }
}

/// Reads this thread's counters.
pub fn snapshot() -> PerfCounters {
    PerfCounters {
        flops: FLOPS.with(Cell::get),
        gemm_calls: GEMM_CALLS.with(Cell::get),
        bytes_packed: BYTES_PACKED.with(Cell::get),
        kernel_ns: KERNEL_NS.with(Cell::get),
        simd_calls: SIMD_CALLS.with(Cell::get),
        allocs: ALLOCS.with(Cell::get),
    }
}

/// A [`System`]-backed global allocator that counts allocations per thread.
///
/// Installed as the workspace's `#[global_allocator]` by this crate, so every
/// binary that links `pde-tensor` gets allocation accounting for free. The
/// probe is a single thread-local counter increment per allocation — cheap
/// enough to leave on unconditionally.
pub struct CountingAlloc;

#[inline]
fn note_alloc() {
    // `try_with` guards the TLS-teardown window at thread exit; allocations
    // there are unobservable to the counters, which is fine.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers all allocation to `System`; the counter increment has no
// effect on allocator behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_probe_counts() {
        let before = snapshot();
        let v: Vec<u64> = (0..1024).collect();
        std::hint::black_box(&v);
        let after = snapshot();
        assert!(
            after.allocs > before.allocs,
            "Vec allocation should be counted"
        );
    }

    #[test]
    fn since_subtracts_fields() {
        let a = PerfCounters {
            flops: 10,
            gemm_calls: 2,
            bytes_packed: 100,
            kernel_ns: 50,
            simd_calls: 1,
            allocs: 5,
        };
        let b = PerfCounters {
            flops: 25,
            gemm_calls: 3,
            bytes_packed: 140,
            kernel_ns: 80,
            simd_calls: 3,
            allocs: 9,
        };
        let d = b.since(&a);
        assert_eq!(
            d,
            PerfCounters {
                flops: 15,
                gemm_calls: 1,
                bytes_packed: 40,
                kernel_ns: 30,
                simd_calls: 2,
                allocs: 4
            }
        );
    }

    #[test]
    fn kernel_gflops_uses_driver_time() {
        let c = PerfCounters {
            flops: 3_000_000_000,
            kernel_ns: 1_000_000_000,
            ..Default::default()
        };
        assert!((c.kernel_gflops() - 3.0).abs() < 1e-12);
        assert_eq!(PerfCounters::default().kernel_gflops(), 0.0);
    }

    #[test]
    fn gflops_handles_zero_time() {
        let c = PerfCounters {
            flops: 1_000_000_000,
            ..Default::default()
        };
        assert_eq!(c.gflops(0.0), 0.0);
        assert!((c.gflops(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters_are_thread_local() {
        let before = snapshot();
        record_gemm(100, 8, 10, true);
        let main_thread = snapshot().since(&before);
        let other = std::thread::spawn(|| snapshot().flops).join().unwrap();
        assert_eq!(main_thread.flops, 100);
        assert_eq!(other, 0, "a fresh thread starts with zeroed counters");
    }
}
