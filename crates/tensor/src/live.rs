//! Kernel-layer live telemetry: per-rank throughput and thread-budget
//! gauges in the shared [`pde_telemetry`] registry (scraped at `/metrics`).
//!
//! Attribution follows the rank tag each worker thread carries in
//! [`pde_trace`] (`set_thread_rank`), falling back to the driver shard on
//! untagged threads. Updates are one sharded atomic store per GEMM driver
//! call — cheap enough to leave on unconditionally, matching the policy of
//! the other `live` modules in the workspace.

use pde_telemetry::live_metric;

/// Telemetry shard for the current thread's rank tag.
fn rank() -> usize {
    let r = pde_trace::thread_rank();
    if r == pde_trace::DRIVER_RANK {
        pde_telemetry::DRIVER
    } else {
        r as usize
    }
}

live_metric!(
    gauge gflops_gauge,
    "pdeml_kernel_gflops",
    "Most recent GEMM driver throughput per rank (GFLOP/s)"
);
live_metric!(
    gauge threads_gauge,
    "pdeml_kernel_threads_active",
    "Configured intra-rank kernel thread budget per rank"
);

/// Publishes one GEMM driver invocation. The gauge stores whole GFLOP/s:
/// `flops / ns` is exact in those units (1e9 cancels).
pub(crate) fn record_kernel(flops: u64, ns: u64) {
    if let Some(gflops) = flops.checked_div(ns) {
        gflops_gauge().set(rank(), gflops as i64);
    }
}

/// Publishes the kernel thread budget installed on this rank.
pub(crate) fn set_threads_active(n: usize) {
    threads_gauge().set(rank(), n as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_gauges_register_and_accumulate() {
        record_kernel(2_000_000_000, 1_000_000_000);
        set_threads_active(3);
        let text = pde_telemetry::render_prometheus();
        assert!(
            text.contains("pdeml_kernel_gflops"),
            "gauge missing:\n{text}"
        );
        assert!(
            text.contains("pdeml_kernel_threads_active"),
            "thread gauge missing:\n{text}"
        );
    }
}
