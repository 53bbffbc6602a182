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
//!
//! It runs the scheme's own rank body and batch loop
//! ([`crate::train::TrainSession`]), so it honours every [`TrainConfig`]
//! field the scheme does; what it owns is only what defines it: the 1×1
//! partition every rank replicates from a shared init, the fixed pair
//! order, the averaging step, and the ragged-tail rounds.

use crate::arch::ArchSpec;
use crate::norm::ChannelNorm;
use crate::padding::PaddingStrategy;
use crate::train::{RankResult, TrainConfig, TrainError, TrainRun};
use pde_domain::GridPartition;
use pde_euler::dataset::DataSet;
use pde_nn::serialize::{restore, snapshot};
use pde_nn::Sequential;
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
    /// Per-rank results, rank order: each replica's own epoch losses,
    /// allreduce traffic and kernel counters.
    pub rank_results: Vec<RankResult>,
    /// Channel normalization the replicas were trained in.
    pub norm: ChannelNorm,
}

impl BaselineOutcome {
    /// Total bytes all ranks pushed through the allreduce.
    pub fn total_bytes(&self) -> u64 {
        self.rank_results.iter().map(|r| r.bytes_sent).sum()
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
        let t0 = Instant::now();
        let (_, h, w) = data.shape();
        // Full-domain network: a 1×1 "partition".
        let part = GridPartition::new(h, w, 1, 1);
        let cfg = &self.config;
        let run = TrainRun::new(&self.arch, self.strategy, cfg, data, n_train_pairs, part)?;
        if n_ranks == 0 || run.count < n_ranks {
            return Err(TrainError::Geometry(format!(
                "data-parallel baseline: {} pairs cannot be chunked over {n_ranks} ranks",
                run.count
            )));
        }
        let rank_results = run.train_ranks(n_ranks, |comm, session, net, ds, epoch| {
            // Chunk the time steps: rank r trains pairs r, r+P, r+2P, …
            // in this fixed order (interleaved so every rank sees the whole
            // trajectory's dynamics — contiguous chunks would bias early
            // ranks to the initial transient).
            let (rank, p) = (comm.rank(), comm.size());
            let pairs: Vec<usize> = (rank..ds.len()).step_by(p).collect();
            let inv_p = 1.0 / p as f64;
            // Global weight averaging — the baseline's defining (and
            // costly) step.
            let mut average = |net: &mut Sequential| {
                let mut summed = comm.allreduce_sum(&snapshot(net));
                for v in &mut summed {
                    *v *= inv_p;
                }
                restore(net, &summed);
            };
            let loss = session.run_order(net, ds, &pairs, cfg, epoch, &mut average);
            // Collectives must run the same number of times on every rank
            // or the allreduce deadlocks. Rank 0 always has the largest
            // shard, so its batch count is the global round count; ranks
            // that run out of batches still contribute their current
            // (unchanged) weights to the average — the convention
            // synchronous data-parallel frameworks use for ragged tails.
            let rounds = ds.len().div_ceil(p).div_ceil(cfg.batch_size);
            for _ in pairs.len().div_ceil(cfg.batch_size)..rounds {
                average(net);
            }
            loss
        });

        let mut epoch_losses = vec![0.0; cfg.epochs];
        for r in &rank_results {
            for (e, l) in r.epoch_losses.iter().enumerate() {
                epoch_losses[e] += l / rank_results.len() as f64;
            }
        }
        // Every replica ends with the same averaged weights; take rank 0's.
        Ok(BaselineOutcome {
            weights: rank_results[0].weights.clone(),
            epoch_losses,
            wall_seconds: t0.elapsed().as_secs_f64(),
            rank_results,
            norm: run.norm,
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
        let r1_bytes = out.rank_results[1].bytes_sent;
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
        for r in &out.rank_results {
            assert_eq!(r.weights, out.weights, "rank {} diverged", r.rank);
        }
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

    #[test]
    fn window_the_architecture_cannot_read_is_refused() {
        // The tiny arch reads 4 channels: one snapshot, not a window of 2.
        let cfg = TrainConfig {
            window: 2,
            ..TrainConfig::quick_test()
        };
        let t = DataParallelTrainer::new(ArchSpec::tiny(), PaddingStrategy::ZeroPad, cfg);
        assert!(matches!(
            t.train(&data(), 8, 2),
            Err(TrainError::Geometry(_))
        ));
    }
}
