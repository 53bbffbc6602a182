//! Live-metric handles for the communication layer.
//!
//! Each accessor registers its metric on first call (lock + allocation,
//! once per process) and caches the `&'static` handle in a `OnceLock`, so
//! every later call — the hot path — is one atomic load plus the metric's
//! own relaxed `fetch_add`s. Zero allocations after registration, which is
//! what lets `Comm::send`/`recv` stay on the zero-alloc request path.

use pde_telemetry::live_metric;

live_metric!(
    pub(crate) counter sends,
    "pdeml_comm_sends_total",
    "Point-to-point messages sent, per rank"
);
live_metric!(
    pub(crate) counter send_bytes,
    "pdeml_comm_send_bytes_total",
    "Payload bytes sent (8 per f64 value), per rank"
);
live_metric!(
    pub(crate) counter recvs,
    "pdeml_comm_recvs_total",
    "Point-to-point messages matched by a receive, per rank"
);
live_metric!(
    pub(crate) counter barriers,
    "pdeml_comm_barriers_total",
    "Barrier entries, per rank"
);
live_metric!(
    pub(crate) counter halos_lost,
    "pdeml_halos_lost_total",
    "Halo receives that timed out (strip presumed lost), per rank"
);
live_metric!(
    pub(crate) counter halo_recv_attempts,
    "pdeml_halo_recv_attempts_total",
    "Timed halo receives attempted, per rank"
);
live_metric!(
    pub(crate) counter rank_panics,
    "pdeml_rank_panics_total",
    "Rank jobs that panicked (world poisons), per rank"
);
live_metric!(
    pub(crate) counter generations,
    "pdeml_generations_total",
    "Job generations allocated on persistent worlds"
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
live_metric!(
    pub(crate) gauge mailbox_depth,
    "pdeml_mailbox_depth",
    "Jobs enqueued but not yet completed, per rank mailbox"
);
