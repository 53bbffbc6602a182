//! Training: the paper's communication-free parallel scheme plus the
//! single-network sequential reference.
//!
//! §III, training: "decompose each individual training data set into
//! smaller sections and feed each subsection into an independent neural
//! network … assigning an MPI rank to each network … an individual cost
//! function and optimization process for each network … there is no need
//! for data exchange between processes."
//!
//! [`ParallelTrainer`] realizes exactly that on `pde-commsim`: one rank per
//! subdomain, each builds its own network, dataset shard, loss and
//! optimizer, and never communicates. The per-rank traffic counters are
//! returned so harnesses (and tests) can *prove* the zero-communication
//! property rather than assert it rhetorically.

use crate::arch::ArchSpec;
use crate::data::SubdomainDataset;
use crate::norm::ChannelNorm;
use crate::padding::PaddingStrategy;
use pde_commsim::World;
use pde_domain::GridPartition;
use pde_euler::dataset::{DataSet, DataSetView};
use pde_nn::loss::{Huber, Loss, Mae, Mape, Mse};
use pde_nn::optim::{Adam, Optimizer, RmsProp, Sgd};
use pde_nn::serialize::snapshot;
use pde_nn::{Layer, LrSchedule, Sequential};
use pde_tensor::{perf, PerfCounters, Tensor4};
use std::time::Instant;

/// Which optimizer a trainer builds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// ADAM with default moments — the paper's choice.
    Adam,
    /// Plain SGD.
    Sgd,
    /// SGD with classical momentum.
    SgdMomentum(f64),
    /// RMSProp.
    RmsProp,
}

impl OptimizerKind {
    /// Builds the optimizer at learning rate `lr`.
    pub fn build(&self, lr: f64) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Adam => Box::new(Adam::new(lr)),
            OptimizerKind::Sgd => Box::new(Sgd::new(lr)),
            OptimizerKind::SgdMomentum(mu) => Box::new(Sgd::with_momentum(lr, mu)),
            OptimizerKind::RmsProp => Box::new(RmsProp::new(lr)),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerKind::Adam => "Adam",
            OptimizerKind::Sgd => "SGD",
            OptimizerKind::SgdMomentum(_) => "SGD+momentum",
            OptimizerKind::RmsProp => "RMSProp",
        }
    }
}

/// What the network's output represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictionMode {
    /// The network predicts the next state directly: `q̂(t+1) = f(q(t))` —
    /// the paper's formulation.
    Absolute,
    /// The network predicts the increment: `q̂(t+1) = q(t) + f(q(t))`
    /// (delta learning). An extension (ablation X5 in DESIGN.md): since one
    /// CFL-limited solver step changes the state only slightly, learning
    /// the increment starts from the persistence baseline instead of having
    /// to reconstruct the full field, which markedly improves both
    /// single-step accuracy and rollout stability at small training
    /// budgets.
    Residual,
}

impl PredictionMode {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PredictionMode::Absolute => "absolute",
            PredictionMode::Residual => "residual",
        }
    }
}

/// Which loss a trainer builds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossKind {
    /// Mean absolute percentage error (the paper's choice) with a
    /// denominator floor.
    Mape {
        /// Minimum denominator magnitude.
        floor: f64,
    },
    /// Mean squared error.
    Mse,
    /// Mean absolute error.
    Mae,
    /// Huber loss.
    Huber {
        /// Quadratic/linear transition point.
        delta: f64,
    },
}

impl LossKind {
    /// Builds the loss.
    pub fn build(&self) -> Box<dyn Loss> {
        match *self {
            LossKind::Mape { floor } => Box::new(Mape::new(floor)),
            LossKind::Mse => Box::new(Mse),
            LossKind::Mae => Box::new(Mae),
            LossKind::Huber { delta } => Box::new(Huber::new(delta)),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            LossKind::Mape { .. } => "MAPE",
            LossKind::Mse => "MSE",
            LossKind::Mae => "MAE",
            LossKind::Huber { .. } => "Huber",
        }
    }
}

/// Hyperparameters of one training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the shard.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub lr: f64,
    /// Optional schedule overriding `lr` per epoch.
    pub schedule: Option<LrSchedule>,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Loss function.
    pub loss: LossKind,
    /// Shuffle the shard every epoch (seeded, deterministic).
    pub shuffle: bool,
    /// Map every channel to O(1) with [`ChannelNorm`] fitted on the
    /// training view (strongly recommended: the Euler fields span ~6 orders
    /// of magnitude; see `norm` module docs).
    pub normalize: bool,
    /// Whether the network predicts the next state or its increment.
    pub prediction: PredictionMode,
    /// Clip the global gradient L2 norm to this value before each optimizer
    /// step (None = no clipping). MAPE's sign-gradients occasionally spike
    /// on near-floor denominators; clipping tames the resulting steps.
    pub grad_clip: Option<f64>,
    /// Time-window width: how many consecutive snapshots form the input
    /// (1 = the paper's single-state formulation). The architecture's
    /// `in_channels` must equal `N_FIELDS · window`.
    pub window: usize,
    /// Master seed: rank `r` derives its init/shuffle seed as `seed + r`.
    pub seed: u64,
    /// Intra-rank kernel thread budget (None = `PDEML_THREADS_PER_RANK`
    /// env, else `max(1, cores / n_ranks)`). Validated against the
    /// machine's core count — oversubscription must be explicit via the
    /// env var, never silent.
    pub threads_per_rank: Option<usize>,
}

impl TrainConfig {
    /// A configuration close to the paper's: ADAM, MAPE loss, constant
    /// learning rate. (The paper quotes ADAM's suggested `η = 0.01`; with
    /// MAPE's large gradients a slightly smaller 1e-3 is the stable choice
    /// on our substrate and is noted in EXPERIMENTS.md.)
    pub fn paper() -> Self {
        Self {
            epochs: 50,
            batch_size: 16,
            lr: 1e-3,
            schedule: None,
            optimizer: OptimizerKind::Adam,
            loss: LossKind::Mape { floor: 1e-3 },
            shuffle: true,
            normalize: true,
            prediction: PredictionMode::Absolute,
            grad_clip: None,
            window: 1,
            seed: 0x5EED,
            threads_per_rank: None,
        }
    }

    /// The paper configuration with residual (delta) prediction — the
    /// recommended mode for actually deploying the surrogate (see
    /// [`PredictionMode::Residual`]).
    pub fn paper_residual() -> Self {
        Self {
            prediction: PredictionMode::Residual,
            ..Self::paper()
        }
    }

    /// A minimal configuration for unit tests (2 epochs).
    pub fn quick_test() -> Self {
        Self {
            epochs: 2,
            batch_size: 4,
            ..Self::paper()
        }
    }

    /// Effective learning rate for an epoch.
    pub fn rate(&self, epoch: usize) -> f64 {
        self.schedule.as_ref().map_or(self.lr, |s| s.rate(epoch))
    }

    /// Sanity checks. 0 epochs is legal — a smoke run that returns the
    /// initial weights and an empty loss history (its
    /// [`TrainOutcome::mean_final_loss`] is NaN).
    pub fn validate(&self) {
        assert!(self.batch_size >= 1, "TrainConfig: batch_size must be >= 1");
        assert!(self.lr > 0.0, "TrainConfig: lr must be > 0");
        assert!(self.window >= 1, "TrainConfig: window must be >= 1");
        if let Some(t) = self.threads_per_rank {
            assert!(
                t >= 1,
                "TrainConfig: threads_per_rank must be >= 1 (use None to \
                 auto-size as cores / ranks)"
            );
            let cores = pde_tensor::pool::available_cores();
            assert!(
                t <= cores,
                "TrainConfig: threads_per_rank = {t} exceeds the {cores} \
                 available core(s); oversubscription must be explicit via \
                 PDEML_THREADS_PER_RANK, not the config"
            );
        }
    }
}

/// Errors surfaced before any thread is spawned.
#[derive(Debug, PartialEq, Eq)]
pub enum TrainError {
    /// The partition cannot host this architecture/strategy combination.
    Geometry(String),
    /// The dataset has no training pairs.
    EmptyData,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Geometry(s) => write!(f, "geometry error: {s}"),
            TrainError::EmptyData => write!(f, "no training pairs"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Everything one rank produced.
#[derive(Clone, Debug)]
pub struct RankResult {
    /// Rank id.
    pub rank: usize,
    /// Trained parameters (flat snapshot; restore with
    /// `pde_nn::serialize::restore` into `arch.build(...)`).
    pub weights: Vec<f64>,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds this rank spent training.
    pub train_seconds: f64,
    /// Messages this rank sent during training (must be 0).
    pub msgs_sent: u64,
    /// Bytes this rank sent during training (must be 0).
    pub bytes_sent: u64,
    /// Kernel FLOP / GEMM-call / allocation counters for this rank's
    /// training thread (exact per-rank attribution: one OS thread per rank).
    pub perf: PerfCounters,
}

/// Result of a parallel training run.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Per-rank results, rank order.
    pub rank_results: Vec<RankResult>,
    /// End-to-end wall-clock seconds (slowest rank + harness overhead).
    pub wall_seconds: f64,
    /// The partition used.
    pub partition: GridPartition,
    /// The channel normalization the networks were trained in (identity
    /// when `TrainConfig::normalize` was off). Inference must reuse it.
    pub norm: ChannelNorm,
    /// The prediction mode the networks were trained for. Inference must
    /// reuse it.
    pub prediction: PredictionMode,
    /// The input time-window width the networks were trained with.
    pub window: usize,
}

impl TrainOutcome {
    /// Mean final-epoch loss across ranks, or NaN when no epochs ran (a
    /// 0-epoch config is a legal smoke configuration, not a panic).
    pub fn mean_final_loss(&self) -> f64 {
        let finals: Vec<f64> = self
            .rank_results
            .iter()
            .filter_map(|r| r.epoch_losses.last().copied())
            .collect();
        if finals.len() != self.rank_results.len() {
            return f64::NAN;
        }
        finals.iter().sum::<f64>() / finals.len() as f64
    }

    /// Total bytes sent by all ranks during training.
    pub fn total_bytes_sent(&self) -> u64 {
        self.rank_results.iter().map(|r| r.bytes_sent).sum()
    }
}

/// Reusable state of the training hot loop: the optimizer, the loss, and
/// every buffer a per-batch step touches (epoch order, the two mini-batch
/// tensors, prediction, loss gradient).
///
/// All buffers grow monotonically: after the first epoch has warmed them —
/// together with the network's own workspace and the optimizer's moment
/// state — a full epoch performs **zero heap allocations** (asserted by
/// `zero_alloc.rs` in the bench crate against the allocation probe in
/// [`pde_tensor::perf`]).
pub struct TrainSession {
    opt: Box<dyn Optimizer>,
    loss: Box<dyn Loss>,
    order: Vec<usize>,
    x: Tensor4,
    y: Tensor4,
    pred: Tensor4,
    grad: Tensor4,
}

impl TrainSession {
    /// Builds the optimizer/loss from `cfg` and empty (capacity-0) buffers.
    pub fn new(cfg: &TrainConfig) -> Self {
        cfg.validate();
        Self {
            opt: cfg.optimizer.build(cfg.lr),
            loss: cfg.loss.build(),
            order: Vec::new(),
            x: Tensor4::zeros(0, 0, 0, 0),
            y: Tensor4::zeros(0, 0, 0, 0),
            pred: Tensor4::zeros(0, 0, 0, 0),
            grad: Tensor4::zeros(0, 0, 0, 0),
        }
    }

    /// One pass over the shard; returns the mean per-batch loss.
    ///
    /// The session must be used with the same network and dataset across
    /// epochs (the optimizer's moment state is keyed to the parameter-group
    /// structure).
    pub fn run_epoch(
        &mut self,
        net: &mut Sequential,
        ds: &SubdomainDataset,
        cfg: &TrainConfig,
        epoch: usize,
    ) -> f64 {
        use pde_trace::{names, Category};
        let mut epoch_span = pde_trace::span_args(Category::Train, names::EPOCH, epoch as u64, 0);
        self.opt.set_learning_rate(cfg.rate(epoch));
        ds.fill_epoch_order(cfg.shuffle, cfg.seed, epoch, &mut self.order);
        let mut sum = 0.0;
        let mut batches = 0usize;
        let mut cursor = ds.batch_cursor(&self.order, cfg.batch_size);
        while cursor.next_into(&mut self.x, &mut self.y) {
            let _batch_span =
                pde_trace::span_args(Category::Train, names::BATCH, batches as u64, 0);
            net.zero_grad();
            net.forward_into(&self.x, true, &mut self.pred);
            let l = self
                .loss
                .value_and_grad_into(&self.pred, &self.y, &mut self.grad);
            net.backward_params(&self.grad);
            if let Some(max_norm) = cfg.grad_clip {
                let norm = pde_nn::optim::gradient_norm_of(net);
                if norm > max_norm {
                    net.scale_gradients(max_norm / norm);
                }
            }
            self.opt.step_visit(net);
            sum += l;
            batches += 1;
        }
        epoch_span.set_args(epoch as u64, batches as u64);
        sum / batches as f64
    }
}

/// The inner optimization loop shared by every trainer in the workspace.
///
/// Returns the mean loss per epoch.
pub fn train_network(net: &mut Sequential, ds: &SubdomainDataset, cfg: &TrainConfig) -> Vec<f64> {
    let mut session = TrainSession::new(cfg);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        epoch_losses.push(session.run_epoch(net, ds, cfg, epoch));
    }
    epoch_losses
}

/// Validates that `part` can host `arch` under `strategy`.
pub fn check_geometry(
    part: &GridPartition,
    arch: &ArchSpec,
    strategy: PaddingStrategy,
) -> Result<(), TrainError> {
    let halo = arch.halo();
    for (r, b) in part.blocks().enumerate() {
        if strategy == PaddingStrategy::InnerCrop && (b.h <= 2 * halo || b.w <= 2 * halo) {
            return Err(TrainError::Geometry(format!(
                "rank {r}: inner-crop needs block > {0}x{0}, got {1}x{2}",
                2 * halo,
                b.h,
                b.w
            )));
        }
        if strategy.needs_halo_exchange() && (b.h < halo || b.w < halo) {
            return Err(TrainError::Geometry(format!(
                "rank {r}: halo {halo} exceeds its {0}x{1} block — use fewer ranks or a \
                 shallower architecture",
                b.h, b.w
            )));
        }
    }
    Ok(())
}

/// Fits the channel normalization a trainer will use for `view` (identity
/// when disabled in the config).
pub fn fit_norm(cfg: &TrainConfig, view: &DataSetView<'_>, arch: &ArchSpec) -> ChannelNorm {
    if cfg.normalize {
        ChannelNorm::fit(view)
    } else {
        ChannelNorm::identity(arch.in_channels())
    }
}

/// Deterministic per-rank training of one subdomain (no threads) — the
/// reference the parallel path must match bit-for-bit.
pub fn train_rank(
    arch: &ArchSpec,
    strategy: PaddingStrategy,
    cfg: &TrainConfig,
    view: &DataSetView<'_>,
    part: &GridPartition,
    rank: usize,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        cfg.window, 1,
        "train_rank: use train_rank_windowed for window > 1"
    );
    let norm = fit_norm(cfg, view, arch);
    let ds = SubdomainDataset::build_with_mode(
        view,
        part,
        rank,
        arch.halo(),
        strategy,
        &norm,
        cfg.prediction,
    );
    let mut net = arch.build_for(strategy, cfg.seed + rank as u64);
    let losses = train_network(&mut net, &ds, cfg);
    (snapshot(&mut net), losses)
}

/// The paper's parallel trainer: one rank per subdomain, zero communication.
pub struct ParallelTrainer {
    arch: ArchSpec,
    strategy: PaddingStrategy,
    config: TrainConfig,
}

impl ParallelTrainer {
    /// New trainer.
    pub fn new(arch: ArchSpec, strategy: PaddingStrategy, config: TrainConfig) -> Self {
        arch.validate();
        config.validate();
        Self {
            arch,
            strategy,
            config,
        }
    }

    /// The architecture in use.
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The padding strategy in use.
    pub fn strategy(&self) -> PaddingStrategy {
        self.strategy
    }

    /// Trains on **all** pairs of `data` with `n_ranks` ranks.
    pub fn train(&self, data: &DataSet, n_ranks: usize) -> Result<TrainOutcome, TrainError> {
        self.train_pairs_range(data, 0, data.pair_count(), n_ranks)
    }

    /// Trains on the first `n_train_pairs` pairs with `n_ranks` ranks.
    pub fn train_view(
        &self,
        data: &DataSet,
        n_train_pairs: usize,
        n_ranks: usize,
    ) -> Result<TrainOutcome, TrainError> {
        self.train_pairs_range(data, 0, n_train_pairs, n_ranks)
    }

    fn train_pairs_range(
        &self,
        data: &DataSet,
        start: usize,
        count: usize,
        n_ranks: usize,
    ) -> Result<TrainOutcome, TrainError> {
        if count == 0 || start + count > data.pair_count() {
            return Err(TrainError::EmptyData);
        }
        let (c, h, w) = data.shape();
        if self.arch.in_channels() != c * self.config.window {
            return Err(TrainError::Geometry(format!(
                "architecture expects {} input channels but window {} over {c}-channel \
                 snapshots provides {}",
                self.arch.in_channels(),
                self.config.window,
                c * self.config.window
            )));
        }
        let part = GridPartition::for_ranks(h, w, n_ranks);
        check_geometry(&part, &self.arch, self.strategy)?;
        // The first usable sample needs window-1 snapshots of history, so
        // the requested range loses its first pairs when it starts too
        // early.
        let end = start + count;
        let start = start.max(self.config.window - 1);
        if start >= end {
            return Err(TrainError::EmptyData);
        }
        let count = end - start;

        let t0 = Instant::now();
        let world = World::new(n_ranks);
        let arch = &self.arch;
        let strategy = self.strategy;
        let cfg = &self.config;
        let norm = fit_norm(cfg, &data.view(start, count), arch);
        let norm_ref = &norm;
        let results = world.run(|comm| {
            let rank = comm.rank();
            crate::placement::start_on_own_cpu(rank);
            // Install this rank's kernel thread budget before any GEMM/conv
            // runs: explicit config > PDEML_THREADS_PER_RANK > cores/ranks.
            pde_tensor::pool::set_thread_budget(pde_tensor::pool::resolve_budget(
                cfg.threads_per_rank,
                n_ranks,
            ));
            let rank_t0 = Instant::now();
            let perf0 = perf::snapshot();
            // Build the rank's shard straight from (shared) memory — the
            // paper's "training data are directly fed into the network from
            // the memory".
            let ds = crate::data::build_windowed(
                data,
                start,
                count,
                &part,
                rank,
                arch.halo(),
                strategy,
                norm_ref,
                cfg.prediction,
                cfg.window,
            );
            let mut net = arch.build_for(strategy, cfg.seed + rank as u64);
            let epoch_losses = train_network(&mut net, &ds, cfg);
            RankResult {
                rank,
                weights: snapshot(&mut net),
                epoch_losses,
                train_seconds: rank_t0.elapsed().as_secs_f64(),
                msgs_sent: comm.stats().sent(),
                bytes_sent: comm.stats().bytes_sent(),
                perf: perf::snapshot().since(&perf0),
            }
        });
        Ok(TrainOutcome {
            rank_results: results,
            wall_seconds: t0.elapsed().as_secs_f64(),
            partition: part,
            norm,
            prediction: cfg.prediction,
            window: cfg.window,
        })
    }
}

/// Result of a sequential (single-network) training run.
pub struct SequentialOutcome {
    /// The trained full-domain network.
    pub net: Sequential,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Channel normalization the network was trained in.
    pub norm: ChannelNorm,
    /// Prediction mode the network was trained for.
    pub prediction: PredictionMode,
    /// Input time-window width the network was trained with.
    pub window: usize,
}

/// The single-network reference: the whole domain as one "subdomain"
/// trained by one process — the `T(1)` of the strong-scaling study.
pub struct SequentialTrainer {
    arch: ArchSpec,
    strategy: PaddingStrategy,
    config: TrainConfig,
}

impl SequentialTrainer {
    /// New trainer.
    pub fn new(arch: ArchSpec, strategy: PaddingStrategy, config: TrainConfig) -> Self {
        arch.validate();
        config.validate();
        Self {
            arch,
            strategy,
            config,
        }
    }

    /// Trains on pairs `0..n_train_pairs`.
    pub fn train(
        &self,
        data: &DataSet,
        n_train_pairs: usize,
    ) -> Result<SequentialOutcome, TrainError> {
        if n_train_pairs == 0 || n_train_pairs > data.pair_count() {
            return Err(TrainError::EmptyData);
        }
        let (_, h, w) = data.shape();
        let part = GridPartition::new(h, w, 1, 1);
        check_geometry(&part, &self.arch, self.strategy)?;
        let t0 = Instant::now();
        let start = self.config.window - 1;
        if start >= n_train_pairs {
            return Err(TrainError::EmptyData);
        }
        let view = data.view(start, n_train_pairs - start);
        let norm = fit_norm(&self.config, &view, &self.arch);
        let ds = crate::data::build_windowed(
            data,
            start,
            n_train_pairs - start,
            &part,
            0,
            self.arch.halo(),
            self.strategy,
            &norm,
            self.config.prediction,
            self.config.window,
        );
        let mut net = self.arch.build_for(self.strategy, self.config.seed);
        let epoch_losses = train_network(&mut net, &ds, &self.config);
        Ok(SequentialOutcome {
            net,
            epoch_losses,
            seconds: t0.elapsed().as_secs_f64(),
            norm,
            prediction: self.config.prediction,
            window: self.config.window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_euler::dataset::paper_dataset;

    fn data() -> DataSet {
        paper_dataset(16, 8)
    }

    #[test]
    fn parallel_training_is_communication_free() {
        let out = ParallelTrainer::new(
            ArchSpec::tiny(),
            PaddingStrategy::NeighborPad,
            TrainConfig::quick_test(),
        )
        .train(&data(), 4)
        .unwrap();
        assert_eq!(out.rank_results.len(), 4);
        for r in &out.rank_results {
            assert_eq!(
                r.msgs_sent, 0,
                "rank {} communicated during training",
                r.rank
            );
            assert_eq!(r.bytes_sent, 0);
            assert_eq!(r.epoch_losses.len(), 2);
            assert!(r.train_seconds >= 0.0);
            assert!(
                r.perf.gemm_calls > 0,
                "rank {} reported no GEMM calls",
                r.rank
            );
            assert!(r.perf.flops > 0, "rank {} reported no FLOPs", r.rank);
        }
        assert_eq!(out.total_bytes_sent(), 0);
    }

    #[test]
    fn parallel_matches_sequential_per_rank_bitwise() {
        let d = data();
        let cfg = TrainConfig::quick_test();
        let arch = ArchSpec::tiny();
        let strategy = PaddingStrategy::NeighborPad;
        let out = ParallelTrainer::new(arch.clone(), strategy, cfg.clone())
            .train(&d, 4)
            .unwrap();
        let part = out.partition;
        for r in 0..4 {
            let view = d.view(0, d.pair_count());
            let (w_ref, losses_ref) = train_rank(&arch, strategy, &cfg, &view, &part, r);
            assert_eq!(
                out.rank_results[r].weights, w_ref,
                "rank {r} weights differ"
            );
            assert_eq!(
                out.rank_results[r].epoch_losses, losses_ref,
                "rank {r} losses differ"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let d = paper_dataset(16, 10);
        let mut cfg = TrainConfig::paper();
        cfg.epochs = 15;
        cfg.batch_size = 4;
        let out = ParallelTrainer::new(ArchSpec::tiny(), PaddingStrategy::ZeroPad, cfg)
            .train(&d, 4)
            .unwrap();
        for r in &out.rank_results {
            let first = r.epoch_losses[0];
            let last = *r.epoch_losses.last().unwrap();
            assert!(
                last < first,
                "rank {}: loss did not decrease ({first} -> {last})",
                r.rank
            );
        }
    }

    #[test]
    fn sequential_trainer_runs() {
        let d = data();
        let mut out = SequentialTrainer::new(
            ArchSpec::tiny(),
            PaddingStrategy::ZeroPad,
            TrainConfig::quick_test(),
        )
        .train(&d, 5)
        .unwrap();
        assert_eq!(out.epoch_losses.len(), 2);
        assert!(out.seconds > 0.0);
        assert!(
            !out.norm.is_identity(),
            "paper config normalizes by default"
        );
        let x = out
            .norm
            .normalize4(&pde_tensor::Tensor4::from_sample(d.snapshot(0)));
        assert_eq!(out.net.forward(&x, false).shape(), (1, 4, 16, 16));
    }

    #[test]
    fn geometry_rejects_oversubscription() {
        // 16×16 over 64 ranks → 2×2 blocks; halo 2 needs blocks ≥ 2 — OK for
        // NeighborPad but InnerCrop needs > 4.
        let part = GridPartition::for_ranks(16, 16, 64);
        assert!(check_geometry(&part, &ArchSpec::tiny(), PaddingStrategy::InnerCrop).is_err());
        assert!(check_geometry(&part, &ArchSpec::tiny(), PaddingStrategy::NeighborPad).is_ok());
        // Paper arch (halo 8) cannot fit 2×2 blocks under NeighborPad.
        assert!(check_geometry(&part, &ArchSpec::paper(), PaddingStrategy::NeighborPad).is_err());
    }

    #[test]
    fn zero_epoch_outcome_reports_nan_mean_loss_without_panicking() {
        let d = data();
        let mut cfg = TrainConfig::quick_test();
        cfg.epochs = 0;
        let out = ParallelTrainer::new(ArchSpec::tiny(), PaddingStrategy::ZeroPad, cfg)
            .train(&d, 4)
            .unwrap();
        assert!(out.rank_results.iter().all(|r| r.epoch_losses.is_empty()));
        assert!(
            out.mean_final_loss().is_nan(),
            "0-epoch run must report NaN, not panic or fabricate a loss"
        );
    }

    #[test]
    fn empty_data_is_an_error() {
        let d = data();
        let t = ParallelTrainer::new(
            ArchSpec::tiny(),
            PaddingStrategy::ZeroPad,
            TrainConfig::quick_test(),
        );
        assert_eq!(t.train_view(&d, 0, 2).unwrap_err(), TrainError::EmptyData);
    }

    #[test]
    fn optimizer_and_loss_labels() {
        assert_eq!(OptimizerKind::Adam.label(), "Adam");
        assert_eq!(LossKind::Mape { floor: 1e-3 }.label(), "MAPE");
    }
}
