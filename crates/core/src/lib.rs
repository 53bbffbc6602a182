//! # pde-ml-core
//!
//! The paper's contribution: **domain-decomposed parallel training and
//! inference of CNN surrogates for PDEs** (Totounferoush et al., PDSEC/IPDPS
//! 2021), assembled from the workspace substrates:
//!
//! * [`arch`] — the Table-I four-layer CNN (4→6→16→6→4 channels, 5×5
//!   kernels, leaky ReLU) as a parameterized [`arch::ArchSpec`];
//! * [`padding`] — the §III strategies for reconciling conv-output and
//!   target dimensions (zero padding, neighbor-data padding, inner crop);
//! * [`data`] — per-subdomain supervised datasets with overlapping input
//!   halos, built from solver snapshots;
//! * [`train`] — the communication-free parallel trainer (one rank = one
//!   network = one subdomain), the single-network sequential reference, and
//!   instrumentation proving the zero-communication property;
//! * [`infer`] — parallel rollout with fully point-to-point halo exchange
//!   (two-phase, corners included) over `pde-commsim`;
//! * [`baseline`] — the Viviani-style data-parallel weight-averaging
//!   trainer the paper contrasts against (global allreduce every step);
//! * [`metrics`] — per-field accuracy reports (MAPE, RMSE, L∞, Pearson);
//! * [`report`] — tiny CSV emission for the experiment harnesses.
//!
//! ## Quickstart
//!
//! ```
//! use pde_ml_core::prelude::*;
//!
//! // 1. Generate data with the Euler solver (tiny sizes for the doctest).
//! let data = pde_euler::dataset::paper_dataset(16, 6);
//! // 2. Decompose the 16×16 domain over 4 ranks and train in parallel.
//! let arch = ArchSpec::tiny();
//! let cfg = TrainConfig::quick_test();
//! let outcome = ParallelTrainer::new(arch, PaddingStrategy::NeighborPad, cfg)
//!     .train(&data, 4)
//!     .unwrap();
//! assert_eq!(outcome.rank_results.len(), 4);
//! // Training is communication-free: no rank sent a single byte.
//! assert!(outcome.rank_results.iter().all(|r| r.bytes_sent == 0));
//! ```

pub mod arch;
pub mod baseline;
pub mod data;
pub mod engine;
pub mod infer;
mod live;
pub mod metrics;
pub mod norm;
#[cfg(test)]
mod observe;
pub mod padding;
mod placement;
pub mod report;
pub mod schedule;
pub mod train;

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::arch::ArchSpec;
    pub use crate::baseline::{BaselineOutcome, DataParallelTrainer};
    pub use crate::data::SubdomainDataset;
    pub use crate::engine::{EngineConfig, EngineError, EnginePhases, InferEngine};
    pub use crate::infer::{
        HaloFallback, HaloPolicy, InferError, ParallelInference, RankRolloutState, RejectReason,
        RolloutResult,
    };
    pub use crate::metrics::FieldErrors;
    pub use crate::norm::ChannelNorm;
    pub use crate::padding::PaddingStrategy;
    pub use crate::schedule::{RequestId, RequestPhases, Scheduler, SchedulerConfig, Ticket};
    pub use crate::train::{ParallelTrainer, SequentialTrainer, TrainConfig, TrainOutcome};
    pub use pde_commsim::{FaultPlan, TrafficReport};
    pub use pde_domain::GridPartition;
}
