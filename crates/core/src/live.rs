//! Live-metric handles for the serving layer.
//!
//! Same pattern as commsim's: each accessor registers once (lock +
//! allocation) and caches the `&'static` handle, so the hot path — the
//! per-request latency and phase recording, the admission rejections — is
//! relaxed atomics only and stays on the zero-alloc request path.

use crate::infer::RejectReason;
use pde_telemetry::{live_metric, Counter};
use std::sync::OnceLock;

live_metric!(
    pub(crate) counter requests,
    "pdeml_requests_total",
    "Rollout requests served by the warm engine"
);

/// Requests the scheduler refused, one series per admission gate:
/// `pdeml_requests_rejected_total{reason="queue_full"|"unhealthy"|"slo"}`.
pub(crate) fn requests_rejected(reason: RejectReason) -> &'static Counter {
    const HELP: &str = "Requests shed by scheduler admission control, by reason";
    static QUEUE_FULL: OnceLock<&'static Counter> = OnceLock::new();
    static UNHEALTHY: OnceLock<&'static Counter> = OnceLock::new();
    static SLO: OnceLock<&'static Counter> = OnceLock::new();
    let (cell, label) = match reason {
        RejectReason::QueueFull => (&QUEUE_FULL, RejectReason::QueueFull.as_str()),
        RejectReason::Unhealthy => (&UNHEALTHY, RejectReason::Unhealthy.as_str()),
        RejectReason::SloBreach => (&SLO, RejectReason::SloBreach.as_str()),
    };
    cell.get_or_init(|| {
        pde_telemetry::counter_with_label("pdeml_requests_rejected_total", HELP, "reason", label)
    })
}

live_metric!(
    /// Warm-engine per-request latency in microseconds. Driver-recorded, so a
    /// single shared bucket array (not rank shards) is the right shape.
    pub(crate) histogram request_latency_us,
    "pdeml_request_latency_us",
    "Warm rollout request latency in microseconds"
);

// Phase breakdown of the total request latency (DESIGN.md §4k): the time a
// request spent admitted-but-waiting, the driver-side scatter/stitch around
// the rank jobs, and the rank jobs themselves. queue_wait is recorded by
// the scheduler's dispatcher, the other two by the engine — so direct
// engine callers still populate dispatch/rollout.

live_metric!(
    /// Time from admission to a dispatcher picking the request up (µs).
    pub(crate) histogram request_queue_wait_us,
    "pdeml_request_queue_wait_us",
    "Admitted-request queue wait before dispatch, microseconds"
);

live_metric!(
    /// Driver-side request handling outside the rank jobs: history validation,
    /// scatter, generation allocation, stitch/transpose (µs).
    pub(crate) histogram request_dispatch_us,
    "pdeml_request_dispatch_us",
    "Driver-side dispatch work around the rank jobs, microseconds"
);

live_metric!(
    /// Rank-job wall time of the request: reset + steps + quiesce (µs).
    pub(crate) histogram request_rollout_us,
    "pdeml_request_rollout_us",
    "Rank-side rollout wall time per request, microseconds"
);
