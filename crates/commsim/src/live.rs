//! Live-metric handles for the communication layer.
//!
//! Each accessor registers its metric on first call (lock + allocation,
//! once per process) and caches the `&'static` handle in a `OnceLock`, so
//! every later call — the hot path — is one atomic load plus the metric's
//! own relaxed `fetch_add`s. Zero allocations after registration, which is
//! what lets `Comm::send` stay on the zero-alloc request path.

use pde_telemetry::live_metric;

live_metric!(
    pub(crate) counter send_bytes,
    "pdeml_comm_send_bytes_total",
    "Payload bytes sent (8 per f64 value), per rank"
);
live_metric!(
    pub(crate) counter rank_panics,
    "pdeml_rank_panics_total",
    "Rank jobs that panicked (world poisons), per rank"
);
live_metric!(
    pub(crate) counter respawns,
    "pdeml_rank_respawns_total",
    "Dead ranks brought back by a supervisor, per rank"
);

live_metric!(
    pub(crate) histogram recovery_ms,
    "pdeml_recovery_ms",
    "Wall-clock milliseconds from dead-rank detection to a rebuilt world"
);
