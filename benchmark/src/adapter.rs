//! The one place the benchmark touches `crates/*`.
//!
//! Every public item of the workspace the benchmark calls is imported here
//! and nowhere else, so this file *is* the pinned API list of
//! `benchmark/README.md`: a refactor that renames or merges one of these
//! entry points re-points this module and nothing more.

pub use pde_commsim::{CartComm, TransportKind, World};
pub use pde_domain::{gather, pack_cols, scatter, GridPartition};
pub use pde_euler::DataSet;
pub use pde_ml_core::arch::ArchSpec;
pub use pde_ml_core::data::SubdomainDataset;
pub use pde_ml_core::engine::{EngineConfig, InferEngine};
pub use pde_ml_core::infer::{assemble_halo_input, ParallelInference};
pub use pde_ml_core::padding::PaddingStrategy;
pub use pde_ml_core::schedule::{Scheduler, SchedulerConfig};
pub use pde_ml_core::train::{fit_norm, ParallelTrainer, TrainConfig, TrainOutcome};
pub use pde_nn::serialize::snapshot as snapshot_weights;
pub use pde_nn::Layer;
pub use pde_perfmodel::network::NetworkModel;
pub use pde_tensor::conv::{
    conv2d_backward_input_into, conv2d_backward_weight, conv2d_im2col_into, ConvScratch,
};
pub use pde_tensor::gemm::gemm;
pub use pde_tensor::im2col::im2col;
pub use pde_tensor::perf::snapshot as perf_snapshot;
pub use pde_tensor::pool::set_thread_budget;
pub use pde_tensor::{Conv2dSpec, Tensor3, Tensor4};
pub use pde_trace::begin as begin_program_trace;

use crate::stats::Rng;
use pde_euler::bc::Boundary;
use pde_euler::config::SolverConfig;
use pde_euler::dataset::SnapshotRecorder;
use pde_euler::ic::InitialCondition;

/// Rank threads of every in-process workload: one per core of the 2-core
/// host, in a 1×2 partition, each with a single kernel thread.
pub const RANKS: usize = 2;
/// Prediction steps of every rollout request.
pub const STEPS: usize = 2;
/// The halo-exchanging strategy all workloads use, so strips really move.
pub const STRATEGY: PaddingStrategy = PaddingStrategy::NeighborPad;

/// The two problem shapes the workloads come in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 16×16 grid, two 3×3 layers: kernels are a few per cent of a request.
    Toy,
    /// The paper's 256×256 grid and Table-I network.
    Paper,
}

impl Shape {
    pub fn grid(self) -> usize {
        match self {
            Shape::Toy => 16,
            Shape::Paper => 256,
        }
    }

    pub fn arch(self) -> ArchSpec {
        match self {
            Shape::Toy => ArchSpec::tiny(),
            Shape::Paper => ArchSpec::paper(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Shape::Toy => "toy",
            Shape::Paper => "paper",
        }
    }
}

/// A seeded simulation: the paper's solver set-up with the Gaussian pulse
/// moved, resized and rescaled by `seed`, recorded for `snapshots` steps.
pub fn seeded_dataset(shape: Shape, snapshots: usize, seed: u64) -> DataSet {
    let mut rng = Rng::new(seed);
    let pulse = InitialCondition::GaussianPulse {
        x0: rng.range(-0.25, 0.25),
        y0: rng.range(-0.25, 0.25),
        half_width: rng.range(0.25, 0.35),
        amplitude: rng.range(0.4, 0.6),
    };
    let n = shape.grid();
    SnapshotRecorder::new(SolverConfig::paper(n, n), Boundary::Outflow, &pulse, 1).record(snapshots)
}

/// The paper's residual training configuration with the benchmark's sizes:
/// one kernel thread per rank, weights and shuffle seeded from `seed`.
pub fn train_config(batch: usize, epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        batch_size: batch,
        epochs,
        threads_per_rank: Some(1),
        seed: 0x5EED ^ seed.wrapping_mul(0x9e37_79b9),
        ..TrainConfig::paper_residual()
    }
}

/// Trains one network per rank on the first `pairs` pairs of `data`.
pub fn train_fleet(
    shape: Shape,
    cfg: &TrainConfig,
    data: &DataSet,
    pairs: usize,
    ranks: usize,
) -> TrainOutcome {
    ParallelTrainer::new(shape.arch(), STRATEGY, cfg.clone())
        .train_view(data, pairs, ranks)
        .expect("the benchmark's shapes fit their partitions")
}

/// The rollout blueprint of a trained fleet.
pub fn inference(shape: Shape, outcome: &TrainOutcome) -> ParallelInference {
    ParallelInference::from_outcome(shape.arch(), STRATEGY, outcome)
}

/// A warm engine over `RANKS` resident rank threads, one kernel thread each.
pub fn engine(transport: TransportKind) -> InferEngine {
    InferEngine::with_config(EngineConfig {
        threads_per_rank: Some(1),
        ..EngineConfig::new(RANKS).with_transport(transport)
    })
}
