//! The conventional data-parallel baseline (Viviani et al., PDP 2019).
//!
//! The paper's introduction contrasts its scheme against the standard
//! approach: "the available training data are split into smaller chunks.
//! Each chunk is given to a network and one step training is applied.
//! Through a global reduction operation, the networks … share their
//! weights. The weights are averaged and constitute a new network … This
//! approach is able to reduce the training time. However, it alters the
//! learning algorithm resulting in decreased learning. In addition, the
//! global reduction operations are potential performance bottlenecks."
//!
//! [`DataParallelTrainer`] implements that scheme faithfully: every rank
//! holds a **full-domain replica** of the network, the *time steps* (not
//! the domain) are chunked across ranks, each rank takes one optimizer step
//! per batch, and after every batch the weights are averaged with a global
//! allreduce. The per-rank traffic counters expose the communication cost
//! (O(P · weights) per step) that the paper's scheme avoids entirely.

use crate::arch::ArchSpec;
use crate::data::SubdomainDataset;
use crate::norm::ChannelNorm;
use crate::padding::PaddingStrategy;
use crate::train::{check_geometry, fit_norm, TrainConfig, TrainError};
use pde_commsim::World;
use pde_domain::GridPartition;
use pde_euler::dataset::DataSet;
use pde_nn::serialize::snapshot;
use pde_nn::Layer;
use std::time::Instant;

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// The averaged (identical on every rank) final weights.
    pub weights: Vec<f64>,
    /// Mean training loss per epoch, averaged over ranks.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds end to end.
    pub wall_seconds: f64,
    /// Per-rank traffic counters.
    pub traffic: Vec<pde_commsim::TrafficReport>,
    /// Channel normalization the replicas were trained in.
    pub norm: ChannelNorm,
}

impl BaselineOutcome {
    /// Total bytes all ranks pushed through the allreduce.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.bytes_sent).sum()
    }
}

/// Viviani-style data-parallel trainer with per-batch weight averaging.
pub struct DataParallelTrainer {
    arch: ArchSpec,
    strategy: PaddingStrategy,
    config: TrainConfig,
}

impl DataParallelTrainer {
    /// New baseline trainer. The strategy only controls input/target
    /// geometry of the full-domain network (use `ZeroPad` to mirror the
    /// paper's same-size setup).
    pub fn new(arch: ArchSpec, strategy: PaddingStrategy, config: TrainConfig) -> Self {
        arch.validate();
        config.validate();
        Self {
            arch,
            strategy,
            config,
        }
    }

    /// Trains on the first `n_train_pairs` pairs with `n_ranks` data-parallel
    /// replicas.
    pub fn train(
        &self,
        data: &DataSet,
        n_train_pairs: usize,
        n_ranks: usize,
    ) -> Result<BaselineOutcome, TrainError> {
        if n_train_pairs == 0 || n_train_pairs > data.pair_count() {
            return Err(TrainError::EmptyData);
        }
        if n_train_pairs < n_ranks {
            return Err(TrainError::Geometry(format!(
                "data-parallel baseline: {n_train_pairs} pairs cannot be chunked over \
                 {n_ranks} ranks"
            )));
        }
        let (_, h, w) = data.shape();
        // Full-domain network: a 1×1 "partition".
        let part = GridPartition::new(h, w, 1, 1);
        check_geometry(&part, &self.arch, self.strategy)?;

        let arch = &self.arch;
        let strategy = self.strategy;
        let cfg = &self.config;
        let norm = fit_norm(cfg, &data.view(0, n_train_pairs), arch);
        let norm_ref = &norm;
        let t0 = Instant::now();
        let (results, traffic) = World::new(n_ranks).run_with_stats(|mut comm| {
            let rank = comm.rank();
            // Chunk the time steps: rank r gets pairs r, r+P, r+2P, …
            // (interleaved so every rank sees the whole trajectory's
            // dynamics — contiguous chunks would bias early ranks to the
            // initial transient).
            let my_pairs: Vec<usize> = (rank..n_train_pairs).step_by(n_ranks).collect();
            let view = data.view(0, n_train_pairs);
            let full = SubdomainDataset::build(&view, &part, 0, arch.halo(), strategy, norm_ref);
            // Every replica starts from the SAME init (seed is shared).
            let mut net = arch.build_for(strategy, cfg.seed);
            let loss = cfg.loss.build();
            let mut opt = cfg.optimizer.build(cfg.lr);
            let inv_p = 1.0 / comm.size() as f64;
            // Collectives must run the same number of times on every rank
            // or the allreduce deadlocks. Rank 0 always has the largest
            // shard, so its batch count is the global round count; ranks
            // that run out of batches still contribute their current
            // (unchanged) weights to the average — the convention
            // synchronous data-parallel frameworks use for ragged tails.
            let batch_size = cfg.batch_size.max(1);
            let rounds = n_train_pairs.div_ceil(n_ranks).div_ceil(batch_size);
            let mut epoch_losses = Vec::with_capacity(cfg.epochs);
            for epoch in 0..cfg.epochs {
                opt.set_learning_rate(cfg.rate(epoch));
                let mut sum = 0.0;
                let mut batches = 0usize;
                for round in 0..rounds {
                    let chunk_start = round * batch_size;
                    if chunk_start < my_pairs.len() {
                        let chunk =
                            &my_pairs[chunk_start..(chunk_start + batch_size).min(my_pairs.len())];
                        net.zero_grad();
                        let x = full.inputs().select(chunk);
                        let y = full.targets().select(chunk);
                        let pred = net.forward(&x, true);
                        let (l, grad) = loss.value_and_grad(&pred, &y);
                        net.backward_params(&grad);
                        opt.step_visit(&mut net);
                        sum += l;
                        batches += 1;
                    }
                    // Global weight averaging — the baseline's defining
                    // (and costly) step. Executed by EVERY rank each round.
                    let mine = snapshot(&mut net);
                    let summed = comm.allreduce_sum(&mine);
                    let averaged: Vec<f64> = summed.iter().map(|v| v * inv_p).collect();
                    pde_nn::serialize::restore(&mut net, &averaged);
                }
                epoch_losses.push(sum / batches.max(1) as f64);
            }
            (snapshot(&mut net), epoch_losses)
        });

        let n_epochs = self.config.epochs;
        let mut epoch_losses = vec![0.0; n_epochs];
        for (_, losses) in &results {
            for (e, l) in losses.iter().enumerate() {
                epoch_losses[e] += l / results.len() as f64;
            }
        }
        // All replicas end identical (same init, same averaged updates) —
        // modulo ranks having one batch more or fewer; take rank 0's.
        Ok(BaselineOutcome {
            weights: results[0].0.clone(),
            epoch_losses,
            wall_seconds: t0.elapsed().as_secs_f64(),
            traffic,
            norm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_euler::dataset::paper_dataset;

    fn data() -> DataSet {
        paper_dataset(16, 10)
    }

    #[test]
    fn baseline_communicates_weights_every_batch() {
        let d = data();
        let cfg = TrainConfig::quick_test();
        let out = DataParallelTrainer::new(ArchSpec::tiny(), PaddingStrategy::ZeroPad, cfg.clone())
            .train(&d, 8, 4)
            .unwrap();
        assert!(out.total_bytes() > 0, "baseline must communicate");
        // Every rank participates in the allreduce every batch: with 8
        // pairs over 4 ranks and batch_size 4, each rank has 1 batch per
        // epoch × 2 epochs. Weight vector length = param_count.
        let params = ArchSpec::tiny().param_count() as u64;
        // Rank 0 receives P−1 reduce contributions and sends P−1 broadcast
        // copies per allreduce; others send 1 and receive 1.
        let r1_bytes = out.traffic[1].bytes_sent;
        assert_eq!(r1_bytes, 2 /*batch*/ * params * 8);
    }

    #[test]
    fn baseline_replicas_agree() {
        // Every rank must finish with identical weights when batch counts
        // align.
        let d = data();
        let mut cfg = TrainConfig::quick_test();
        cfg.batch_size = 2;
        let arch = ArchSpec::tiny();
        let out = DataParallelTrainer::new(arch.clone(), PaddingStrategy::ZeroPad, cfg)
            .train(&d, 8, 2)
            .unwrap();
        assert_eq!(out.weights.len(), arch.param_count());
        assert!(out.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn baseline_learns() {
        let d = data();
        let mut cfg = TrainConfig::paper();
        cfg.epochs = 10;
        cfg.batch_size = 4;
        let out = DataParallelTrainer::new(ArchSpec::tiny(), PaddingStrategy::ZeroPad, cfg)
            .train(&d, 9, 2)
            .unwrap();
        assert!(
            out.epoch_losses.last().unwrap() < &out.epoch_losses[0],
            "baseline loss did not decrease: {:?}",
            out.epoch_losses
        );
    }

    #[test]
    fn baseline_rejects_too_few_pairs() {
        let d = data();
        let t = DataParallelTrainer::new(
            ArchSpec::tiny(),
            PaddingStrategy::ZeroPad,
            TrainConfig::quick_test(),
        );
        assert!(matches!(t.train(&d, 2, 4), Err(TrainError::Geometry(_))));
    }
}
