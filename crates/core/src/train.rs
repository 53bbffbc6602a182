//! Training: the paper's communication-free parallel scheme, and the one
//! rank body and batch loop every trainer in the workspace runs.
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
//! property rather than assert it rhetorically. The data-parallel baseline
//! ([`crate::baseline`]) runs the same rank body and batch loop, with its
//! own pair order and a weight average after every step; the single-network
//! `T(1)` reference is `ParallelTrainer` at one rank.

use crate::arch::ArchSpec;
use crate::data::SubdomainDataset;
use crate::norm::ChannelNorm;
use crate::padding::PaddingStrategy;
use pde_commsim::{Comm, World};
use pde_domain::GridPartition;
use pde_euler::dataset::{DataSet, DataSetView};
use pde_nn::loss::{Loss, Mape, Mse};
use pde_nn::optim::{Adam, Optimizer, RmsProp, Sgd};
use pde_nn::serialize::snapshot;
use pde_nn::{InputGrad, Layer, Sequential};
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
}

impl LossKind {
    /// Builds the loss.
    pub fn build(&self) -> Box<dyn Loss> {
        match *self {
            LossKind::Mape { floor } => Box::new(Mape::new(floor)),
            LossKind::Mse => Box::new(Mse),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            LossKind::Mape { .. } => "MAPE",
            LossKind::Mse => "MSE",
        }
    }

    /// [`loss_in_place`] with this loss: one match on the kind a batch, so
    /// the per-element body is a static call.
    fn in_place(&self, ds: &SubdomainDataset<'_>, idx: &[usize], pred: &mut Tensor4) -> f64 {
        match *self {
            LossKind::Mape { floor } => loss_in_place(&Mape::new(floor), ds, idx, pred),
            LossKind::Mse => loss_in_place(&Mse, ds, idx, pred),
        }
    }
}

/// The loss of the network output `pred` against the targets of the
/// samples `idx`, each target cut from the snapshots as the loss reaches
/// it, with `dL/d(pred)` written over `pred`. The same element order,
/// running sum and per-element body as [`Loss::value_and_grad_into`]
/// against [`SubdomainDataset::fill_batch`]'s targets, so the same bits,
/// without a target or gradient batch.
fn loss_in_place(
    loss: &impl Loss,
    ds: &SubdomainDataset<'_>,
    idx: &[usize],
    pred: &mut Tensor4,
) -> f64 {
    let m = pred.len() as f64;
    let mut sum = 0.0;
    ds.zip_targets(idx, pred, |p, t| loss.term_and_grad(p, t, m, &mut sum));
    loss.finish(sum, m)
}

/// Hyperparameters of one training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the shard.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
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
    /// Master seed: it seeds the epoch shuffle as is, and the network
    /// trained on partition block `b` starts from init seed `seed + b`.
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

    /// Learning rate for an epoch: `lr` for every epoch, because the paper
    /// trains at a constant rate.
    pub fn rate(&self, _epoch: usize) -> f64 {
        self.lr
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

/// Reusable state of the training hot loop: the optimizer, the loss, the
/// epoch order and the two tensors a batch is — its input, and the
/// network's prediction, which the loss overwrites with its gradient.
///
/// All buffers grow monotonically: after the first epoch has warmed them —
/// together with the network's own workspace and the optimizer's moment
/// state — a full epoch performs **zero heap allocations** (asserted by
/// `zero_alloc.rs` in the bench crate against the allocation probe in
/// [`pde_tensor::perf`]).
pub struct TrainSession {
    opt: Box<dyn Optimizer>,
    loss: LossKind,
    order: Vec<usize>,
    x: Tensor4,
    pred: Tensor4,
}

impl TrainSession {
    /// Builds the optimizer from `cfg` and empty (capacity-0) buffers.
    pub fn new(cfg: &TrainConfig) -> Self {
        cfg.validate();
        Self {
            opt: cfg.optimizer.build(cfg.lr),
            loss: cfg.loss,
            order: Vec::new(),
            x: Tensor4::zeros(0, 0, 0, 0),
            pred: Tensor4::zeros(0, 0, 0, 0),
        }
    }

    /// One pass over the shard in this epoch's order (seeded shuffle, or
    /// identity); returns the mean per-batch loss.
    ///
    /// The session must be used with the same network and dataset across
    /// epochs (the optimizer's moment state is keyed to the parameter-group
    /// structure).
    pub fn run_epoch(
        &mut self,
        net: &mut Sequential,
        ds: &SubdomainDataset<'_>,
        cfg: &TrainConfig,
        epoch: usize,
    ) -> f64 {
        // Taken out for the loop and put back: the buffer keeps its capacity.
        let mut order = std::mem::take(&mut self.order);
        ds.fill_epoch_order(cfg.shuffle, cfg.seed, epoch, &mut order);
        let loss = self.run_order(net, ds, &order, cfg, epoch, |_| {});
        self.order = order;
        loss
    }

    /// The batch loop: one pass over the samples of `ds` in `order`, in
    /// mini-batches of `cfg.batch_size`; returns the mean per-batch loss.
    /// `after_step` runs after every optimizer step — nothing for the
    /// paper's scheme, the weight average for the data-parallel baseline.
    pub(crate) fn run_order(
        &mut self,
        net: &mut Sequential,
        ds: &SubdomainDataset<'_>,
        order: &[usize],
        cfg: &TrainConfig,
        epoch: usize,
        mut after_step: impl FnMut(&mut Sequential),
    ) -> f64 {
        use pde_trace::{names, Category};
        let mut epoch_span = pde_trace::span_args(Category::Train, names::EPOCH, epoch as u64, 0);
        self.opt.set_learning_rate(cfg.rate(epoch));
        let mut sum = 0.0;
        let mut batches = 0usize;
        let mut cursor = ds.batch_cursor(order, cfg.batch_size);
        while let Some(idx) = cursor.next_inputs(&mut self.x) {
            let _batch_span =
                pde_trace::span_args(Category::Train, names::BATCH, batches as u64, 0);
            net.zero_grad();
            // In a chain the network reads the batch in place instead of
            // copying it, and its backward skips the gradient w.r.t. the
            // batch, which nothing reads (the next fill overwrites it).
            net.forward_chain(&self.x, &mut self.pred);
            // The loss reads the targets from the snapshots and leaves the
            // gradient where the prediction was.
            let l = self.loss.in_place(ds, idx, &mut self.pred);
            net.backward_chain(&mut self.x, &self.pred, InputGrad::Skip);
            if let Some(max_norm) = cfg.grad_clip {
                let norm = pde_nn::optim::gradient_norm_of(net);
                if norm > max_norm {
                    net.scale_gradients(max_norm / norm);
                }
            }
            self.opt.step_visit(net);
            after_step(net);
            sum += l;
            batches += 1;
        }
        epoch_span.set_args(epoch as u64, batches as u64);
        sum / batches as f64
    }
}

/// Trains `net` on `ds` for `cfg.epochs` epochs on the calling thread —
/// the epochs a trainer's rank runs, without the rank. Returns the mean
/// loss per epoch.
pub fn train_network(
    net: &mut Sequential,
    ds: &SubdomainDataset<'_>,
    cfg: &TrainConfig,
) -> Vec<f64> {
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
    // Both shrink a block by 2·halo inside the network: the Deconv stack's
    // transpose layer restores the size only after its convolutions ran.
    let shrinks = matches!(
        strategy,
        PaddingStrategy::InnerCrop | PaddingStrategy::Deconv
    );
    for (r, b) in part.blocks().enumerate() {
        if shrinks && (b.h <= 2 * halo || b.w <= 2 * halo) {
            return Err(TrainError::Geometry(format!(
                "rank {r}: {} needs block > {1}x{1}, got {2}x{3}",
                strategy.label(),
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
        "train_rank: window > 1 trains through ParallelTrainer with TrainConfig::window"
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
        self.train_view(data, data.pair_count(), n_ranks)
    }

    /// Trains on the first `n_train_pairs` pairs with `n_ranks` ranks. At
    /// one rank this is the whole-domain network, the `T(1)` of the
    /// strong-scaling study.
    pub fn train_view(
        &self,
        data: &DataSet,
        n_train_pairs: usize,
        n_ranks: usize,
    ) -> Result<TrainOutcome, TrainError> {
        let t0 = Instant::now();
        let (_, h, w) = data.shape();
        let part = GridPartition::try_for_ranks(h, w, n_ranks).map_err(TrainError::Geometry)?;
        let cfg = &self.config;
        let run = TrainRun::new(&self.arch, self.strategy, cfg, data, n_train_pairs, part)?;
        let rank_results = run.train_ranks(n_ranks, |_, session, net, ds, epoch| {
            session.run_epoch(net, ds, cfg, epoch)
        });
        Ok(TrainOutcome {
            rank_results,
            wall_seconds: t0.elapsed().as_secs_f64(),
            partition: run.part,
            norm: run.norm,
            prediction: cfg.prediction,
            window: cfg.window,
        })
    }
}

/// One validated training run, shared by every trainer: the pairs of
/// `data` the ranks train on, the partition whose blocks they train, and
/// the normalization fitted on those pairs.
pub(crate) struct TrainRun<'a> {
    arch: &'a ArchSpec,
    strategy: PaddingStrategy,
    cfg: &'a TrainConfig,
    data: &'a DataSet,
    /// First trainable pair: the first `window - 1` pairs are history only.
    start: usize,
    /// Number of trainable pairs, from `start`.
    pub(crate) count: usize,
    pub(crate) part: GridPartition,
    pub(crate) norm: ChannelNorm,
}

impl<'a> TrainRun<'a> {
    /// Runs the checks every trainer shares before any thread starts —
    /// the architecture reads `cfg.window` snapshots of `data`, `part` can
    /// host it, and pairs `0..n_pairs` leave at least one with a full
    /// history — and fits the normalization.
    pub(crate) fn new(
        arch: &'a ArchSpec,
        strategy: PaddingStrategy,
        cfg: &'a TrainConfig,
        data: &'a DataSet,
        n_pairs: usize,
        part: GridPartition,
    ) -> Result<Self, TrainError> {
        if n_pairs == 0 || n_pairs > data.pair_count() {
            return Err(TrainError::EmptyData);
        }
        let (c, _, _) = data.shape();
        if arch.in_channels() != c * cfg.window {
            return Err(TrainError::Geometry(format!(
                "architecture expects {} input channels but window {} over {c}-channel \
                 snapshots provides {}",
                arch.in_channels(),
                cfg.window,
                c * cfg.window
            )));
        }
        check_geometry(&part, arch, strategy)?;
        let start = cfg.window - 1;
        if start >= n_pairs {
            return Err(TrainError::EmptyData);
        }
        let count = n_pairs - start;
        let norm = fit_norm(cfg, &data.view(start, count), arch);
        Ok(Self {
            arch,
            strategy,
            cfg,
            data,
            start,
            count,
            part,
            norm,
        })
    }

    /// The rank body of every trainer: runs `n_ranks` ranks, each on its
    /// own thread, and returns their results in rank order.
    ///
    /// Rank `r` trains block `r mod blocks` of the partition from init seed
    /// `cfg.seed + block`: one block per rank for the paper's scheme, and
    /// for the baseline one block every rank replicates from a shared
    /// init. `run_epoch(comm, session, net, shard, epoch)` runs one epoch
    /// and returns its mean loss.
    pub(crate) fn train_ranks<E>(&self, n_ranks: usize, run_epoch: E) -> Vec<RankResult>
    where
        E: Fn(&mut Comm, &mut TrainSession, &mut Sequential, &SubdomainDataset<'_>, usize) -> f64
            + Sync,
    {
        let blocks = self.part.rank_count();
        let cfg = self.cfg;
        World::new(n_ranks).run(|mut comm| {
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
            let block = rank % blocks;
            // The rank's shard reads its batches straight from the shared
            // snapshots — the paper's "training data are directly fed into
            // the network from the memory".
            let ds = SubdomainDataset::build_windowed(
                &self.data.view(self.start, self.count),
                &self.part,
                block,
                self.arch.halo(),
                self.strategy,
                &self.norm,
                cfg.prediction,
                cfg.window,
            );
            let mut net = self.arch.build_for(self.strategy, cfg.seed + block as u64);
            // The session's batch buffers are freed before the results are
            // built.
            let epoch_losses = {
                let mut session = TrainSession::new(cfg);
                (0..cfg.epochs)
                    .map(|epoch| run_epoch(&mut comm, &mut session, &mut net, &ds, epoch))
                    .collect()
            };
            RankResult {
                rank,
                weights: snapshot(&mut net),
                epoch_losses,
                train_seconds: rank_t0.elapsed().as_secs_f64(),
                msgs_sent: comm.stats().sent(),
                bytes_sent: comm.stats().bytes_sent(),
                perf: perf::snapshot().since(&perf0),
            }
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
    fn one_rank_run_trains_the_whole_domain() {
        // T(1) of the strong-scaling study: one rank, one kernel thread.
        let d = data();
        let cfg = TrainConfig {
            threads_per_rank: Some(1),
            ..TrainConfig::quick_test()
        };
        let arch = ArchSpec::tiny();
        let out = ParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg.clone())
            .train_view(&d, 5, 1)
            .unwrap();
        assert_eq!(out.rank_results.len(), 1);
        assert_eq!(out.rank_results[0].epoch_losses.len(), 2);
        assert!(out.wall_seconds > 0.0);
        assert!(
            !out.norm.is_identity(),
            "paper config normalizes by default"
        );
        let mut net = arch.build_for(PaddingStrategy::ZeroPad, cfg.seed);
        pde_nn::serialize::restore(&mut net, &out.rank_results[0].weights);
        let x = out
            .norm
            .normalize4(&pde_tensor::Tensor4::from_sample(d.snapshot(0)));
        assert_eq!(net.forward(&x, false).shape(), (1, 4, 16, 16));
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
    fn geometry_rejects_a_deconv_block_the_convolutions_consume() {
        // The Deconv stack shrinks a block by 2·halo before its transpose
        // layer restores it, so it needs what inner-crop needs. 16×16 over
        // 16 ranks gives 4×4 blocks; the tiny net's halo 2 leaves nothing.
        let part = GridPartition::for_ranks(16, 16, 16);
        assert_eq!(
            check_geometry(&part, &ArchSpec::tiny(), PaddingStrategy::Deconv),
            Err(TrainError::Geometry(
                "rank 0: deconv needs block > 4x4, got 4x4".into()
            ))
        );
        let part = GridPartition::for_ranks(16, 16, 4);
        assert!(check_geometry(&part, &ArchSpec::tiny(), PaddingStrategy::Deconv).is_ok());
        // The paper net (halo 8) on 16×8 blocks, as `pdeml train --ranks 2`
        // on a 16² dataset asks for.
        let part = GridPartition::for_ranks(16, 16, 2);
        assert!(check_geometry(&part, &ArchSpec::paper(), PaddingStrategy::Deconv).is_err());
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
    fn more_ranks_than_the_grid_can_feed_is_a_geometry_error() {
        let t = ParallelTrainer::new(
            ArchSpec::tiny(),
            PaddingStrategy::ZeroPad,
            TrainConfig::quick_test(),
        );
        assert_eq!(
            t.train(&data(), 17).unwrap_err(),
            TrainError::Geometry("a 16x16 grid cannot feed a 1x17 process grid".into())
        );
    }

    /// Every parameter and its gradient, as bits, in group order.
    fn params_and_grads(net: &mut Sequential) -> Vec<u64> {
        let mut out = Vec::new();
        net.visit_param_groups(&mut |g| {
            out.extend(g.param.iter().chain(g.grad).map(|v| v.to_bits()));
        });
        out
    }

    /// The batch loop with a filled target batch and a separate gradient:
    /// `next_into` + `value_and_grad_into` + `backward_chain`, then the
    /// optimizer step. Returns the mean loss and each step's parameters and
    /// gradients.
    fn unfused_epoch(
        net: &mut Sequential,
        ds: &SubdomainDataset<'_>,
        order: &[usize],
        cfg: &TrainConfig,
    ) -> (f64, Vec<Vec<u64>>) {
        let mut opt = cfg.optimizer.build(cfg.lr);
        let loss = cfg.loss.build();
        let empty = || Tensor4::zeros(0, 0, 0, 0);
        let (mut x, mut y, mut pred, mut grad) = (empty(), empty(), empty(), empty());
        let (mut sum, mut steps) = (0.0, Vec::new());
        let mut cursor = ds.batch_cursor(order, cfg.batch_size);
        while cursor.next_into(&mut x, &mut y) {
            net.zero_grad();
            net.forward_chain(&x, &mut pred);
            sum += loss.value_and_grad_into(&pred, &y, &mut grad);
            net.backward_chain(&mut x, &grad, InputGrad::Skip);
            opt.step_visit(net);
            steps.push(params_and_grads(net));
        }
        (sum / steps.len() as f64, steps)
    }

    #[test]
    fn fused_loss_trains_the_bits_of_a_filled_target_batch() {
        // An uneven 40×36 grid in a 3×3 split: rank 0 is a corner, rank 1
        // an edge and rank 4 the interior, each a different block shape.
        let cfg = pde_euler::SolverConfig::paper(40, 36);
        let data = pde_euler::dataset::SnapshotRecorder::new(
            cfg,
            pde_euler::Boundary::Outflow,
            &pde_euler::InitialCondition::paper_pulse(),
            1,
        )
        .record(10);
        let (_, gh, gw) = data.shape();
        let part = GridPartition::new(gh, gw, 3, 3);
        // Pair 0 is history for window 2; 8 samples at batch 3 end on a
        // ragged batch of 2.
        let view = data.view(1, 8);
        let norm = ChannelNorm::fit(&view);
        for strategy in PaddingStrategy::ALL {
            for window in [1, 2] {
                for prediction in [PredictionMode::Absolute, PredictionMode::Residual] {
                    for loss in [LossKind::Mape { floor: 1e-3 }, LossKind::Mse] {
                        for rank in [0, 1, 4] {
                            let how = format!(
                                "{strategy:?}, window {window}, {prediction:?}, {}, rank {rank}",
                                loss.label()
                            );
                            let mut arch = ArchSpec::tiny();
                            arch.channels[0] = window * norm.channels();
                            let cfg = TrainConfig {
                                batch_size: 3,
                                loss,
                                prediction,
                                window,
                                ..TrainConfig::quick_test()
                            };
                            let ds = SubdomainDataset::build_windowed(
                                &view,
                                &part,
                                rank,
                                arch.halo(),
                                strategy,
                                &norm,
                                prediction,
                                window,
                            );
                            let order = ds.epoch_order(true, 7, 1);

                            let mut net = arch.build_for(strategy, cfg.seed);
                            let mut fused_steps = Vec::new();
                            let fused = TrainSession::new(&cfg).run_order(
                                &mut net,
                                &ds,
                                &order,
                                &cfg,
                                0,
                                |net| fused_steps.push(params_and_grads(net)),
                            );
                            let mut net = arch.build_for(strategy, cfg.seed);
                            let (unfused, steps) = unfused_epoch(&mut net, &ds, &order, &cfg);

                            assert_eq!(steps.len(), 3, "{how}");
                            assert_eq!(fused.to_bits(), unfused.to_bits(), "loss: {how}");
                            for (b, (a, b_)) in fused_steps.iter().zip(&steps).enumerate() {
                                assert!(a == b_, "batch {b} parameters or gradients: {how}");
                            }
                            assert_eq!(fused_steps.len(), steps.len(), "{how}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn optimizer_and_loss_labels() {
        assert_eq!(OptimizerKind::Adam.label(), "Adam");
        assert_eq!(LossKind::Mape { floor: 1e-3 }.label(), "MAPE");
    }
}
