//! The training path at paper shape, layer by layer: `tensor` kernels on the
//! rank-0 block, an `nn` replica of one rank's epoch loop built from public
//! calls, `core.data` shard building, and `core.train`'s harness around them.

use super::{timed_ms, Probes, Replica};
use crate::adapter::{
    self, conv2d_backward_input_into, conv2d_backward_weight, conv2d_im2col_into, fit_norm, gemm,
    im2col, perf_snapshot, set_thread_budget, snapshot_weights, Conv2dSpec, ConvScratch, DataSet,
    GridPartition, Layer, Shape, SubdomainDataset, Tensor4, TrainConfig, TrainOutcome,
};
use crate::procfs::CpuSample;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, Rng};
use crate::workloads;
use std::time::Instant;

/// Mini-batch of the kernel rows named `.train` and of the traced training
/// runs (which see that many pairs): `train_paper`'s.
const BATCH: usize = workloads::TRAIN_BATCH;
/// Epochs of the traced training runs — one cold, one warm — so that the P=2
/// run, the plain P=1 baseline and the replica fit a traced run's budget.
const TRACED_EPOCHS: usize = 2;

/// Table-I layers on the rank-0 block: each layer's arithmetic and the
/// spatial size of its input (the block plus halo, shrinking by
/// `kernel - 1` per unpadded layer).
fn layer_shapes() -> Vec<(Conv2dSpec, usize, usize)> {
    let arch = Shape::Paper.arch();
    let n = Shape::Paper.grid();
    let block = GridPartition::for_ranks(n, n, adapter::RANKS).block_of_rank(0);
    let halo = adapter::STRATEGY.input_halo(arch.halo());
    let (mut h, mut w) = (block.h + 2 * halo, block.w + 2 * halo);
    arch.channels
        .windows(2)
        .map(|io| {
            let spec = Conv2dSpec::square(io[0], io[1], arch.kernel, 0);
            let shape = (spec, h, w);
            (h, w) = spec.out_dims(h, w);
            shape
        })
        .collect()
}

fn random_tensor(n: usize, c: usize, h: usize, w: usize, rng: &mut Rng) -> Tensor4 {
    let data = (0..n * c * h * w).map(|_| rng.range(-1.0, 1.0)).collect();
    Tensor4::from_vec(n, c, h, w, data)
}

/// `tensor`: every kernel a sample pass runs, per layer, one thread.
pub fn tensor(p: &mut Probes, seed: u64) {
    set_thread_budget(1);
    let mut rng = Rng::new(seed ^ 0x7E50);
    let mut scratch = ConvScratch::new();
    let mut workspace_bytes = 0usize;
    for (l, (spec, h, w)) in layer_shapes().into_iter().enumerate() {
        let layer = l + 1;
        let geom = spec.geom(h, w);
        let (rows, cols) = (geom.col_rows(), geom.col_cols());
        let (oh, ow) = spec.out_dims(h, w);
        let flops = |samples: usize| (2 * spec.out_c * rows * cols * samples) as f64;
        workspace_bytes += BATCH * rows * cols * 8;

        let x = random_tensor(BATCH, spec.in_c, h, w, &mut rng);
        let x1 = Tensor4::from_vec(1, spec.in_c, h, w, x.sample(0).to_vec());
        let weight = random_tensor(spec.out_c, spec.in_c, spec.kh, spec.kw, &mut rng);
        let bias = vec![0.1; spec.out_c];
        let grad_out = random_tensor(BATCH, spec.out_c, oh, ow, &mut rng);
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        let mut grad_in = Tensor4::zeros(0, 0, 0, 0);
        let mut grad_w = Tensor4::zeros(spec.out_c, spec.in_c, spec.kh, spec.kw);
        let mut grad_b = vec![0.0; spec.out_c];
        let spans = &mut p.main;

        let fwd_ms = stats::median(&timed_ms(spans, "tensor.conv_fwd.train", 1, p.reps, || {
            conv2d_im2col_into(&x, &weight, &bias, &spec, &mut scratch, &mut out);
        }));
        let infer_ms = stats::median(&timed_ms(
            spans,
            "tensor.conv_fwd.infer",
            1,
            3 * p.reps,
            || {
                conv2d_im2col_into(&x1, &weight, &bias, &spec, &mut scratch, &mut out);
            },
        ));
        let bwd_in_ms = stats::median(&timed_ms(spans, "tensor.conv_bwd_input", 1, p.reps, || {
            conv2d_backward_input_into(&grad_out, &weight, &spec, h, w, &mut scratch, &mut grad_in);
        }));
        let bwd_w_ms = stats::median(&timed_ms(
            spans,
            "tensor.conv_bwd_weight",
            1,
            p.reps,
            || {
                conv2d_backward_weight(
                    &x,
                    &grad_out,
                    &spec,
                    &mut grad_w,
                    &mut grad_b,
                    &mut scratch,
                );
            },
        ));
        // The lowering alone, then the bare product on what it produced:
        // per sample, the same M x K x N the batched forward GEMM runs.
        let mut columns = vec![0.0; rows * cols];
        let im2col_ms = stats::median(&timed_ms(spans, "tensor.im2col", 1, p.reps, || {
            for s in 0..BATCH {
                im2col(x.sample(s), &geom, &mut columns);
            }
        }));
        let mut product = vec![0.0; spec.out_c * cols];
        let gemm_ms = stats::median(&timed_ms(spans, "tensor.gemm", 1, p.reps, || {
            for _ in 0..BATCH {
                gemm(
                    spec.out_c,
                    rows,
                    cols,
                    weight.as_slice(),
                    &columns,
                    &mut product,
                );
            }
        }));
        std::hint::black_box((&out, &grad_in, &grad_w, &product));

        let gflops = |samples: usize, ms: f64| flops(samples) / (ms * 1e6);
        let r = &mut p.report;
        r.metric(
            &format!("tensor.conv_fwd_gflops.L{layer}.train"),
            gflops(BATCH, fwd_ms),
            "GFLOP/s",
        );
        r.metric(
            &format!("tensor.conv_fwd_gflops.L{layer}.infer"),
            gflops(1, infer_ms),
            "GFLOP/s",
        );
        r.metric(
            &format!("tensor.conv_bwd_input_gflops.L{layer}"),
            gflops(BATCH, bwd_in_ms),
            "GFLOP/s",
        );
        r.metric(
            &format!("tensor.conv_bwd_weight_gflops.L{layer}"),
            gflops(BATCH, bwd_w_ms),
            "GFLOP/s",
        );
        r.metric(
            &format!("tensor.gemm_gflops.L{layer}"),
            gflops(BATCH, gemm_ms),
            "GFLOP/s",
        );
        // Computed bytes: each sample's input read once, its columns written once.
        let moved = (BATCH * (rows * cols + spec.in_c * h * w) * 8) as f64;
        r.metric(
            &format!("tensor.im2col_gbps.L{layer}"),
            moved / (im2col_ms * 1e6),
            "GB/s",
        );
        r.metric(
            &format!("tensor.conv_over_gemm.L{layer}"),
            fwd_ms / gemm_ms,
            "ratio",
        );
    }
    // Computed: every layer keeps a batch-wide column buffer of its own.
    p.report.metric(
        "tensor.workspace_mb.train",
        workspace_bytes as f64 / 1e6,
        "MB",
    );
}

/// What the replica of rank 0's training hands back (its spans are on the
/// main track).
struct ReplicaRun {
    weights: Vec<f64>,
    losses: Vec<f64>,
    /// Heap allocations the warm (second) epoch made on this thread.
    warm_epoch_allocs: u64,
    /// A further warm epoch with the recorder off, for the tracing tax.
    untraced_epoch_ms: f64,
    forward_infer_ms: f64,
}

/// `TrainSession::run_epoch` on rank 0's shard, rebuilt from public calls
/// with one span around each part. Arithmetic and order are the program's,
/// so the weights must come out bit-equal to the trainer's.
fn replica(spans: &mut Spans, cfg: &TrainConfig, data: &DataSet, reps: usize) -> ReplicaRun {
    set_thread_budget(1);
    let arch = Shape::Paper.arch();
    let n = Shape::Paper.grid();
    let part = GridPartition::for_ranks(n, n, adapter::RANKS);
    let view = data.view(0, data.pair_count());
    let norm = fit_norm(cfg, &view, &arch);
    let shard = spans.scope("core.data.build", |_| {
        SubdomainDataset::build_with_mode(
            &view,
            &part,
            0,
            arch.halo(),
            adapter::STRATEGY,
            &norm,
            cfg.prediction,
        )
    });
    assert!(cfg.grad_clip.is_none(), "the replica has no clipping step");
    let mut net = arch.build_for(adapter::STRATEGY, cfg.seed);
    let mut opt = cfg.optimizer.build(cfg.lr);
    let loss = cfg.loss.build();
    let mut order = Vec::new();
    let empty = || Tensor4::zeros(0, 0, 0, 0);
    let (mut x, mut y, mut pred, mut grad, mut grad_in) =
        (empty(), empty(), empty(), empty(), empty());

    let (mut weights, mut losses) = (Vec::new(), Vec::new());
    let (mut warm_epoch_allocs, mut untraced_epoch_ms) = (0, 0.0);
    for epoch in 0..=cfg.epochs {
        if epoch == cfg.epochs {
            // Training proper is over; one more warm epoch, unrecorded.
            weights = snapshot_weights(&mut net);
            spans.set_on(false);
        }
        let allocs_before = perf_snapshot().allocs;
        let t = Instant::now();
        let mean_loss = spans.scope("nn.epoch", |spans| {
            opt.set_learning_rate(cfg.rate(epoch));
            shard.fill_epoch_order(cfg.shuffle, cfg.seed, epoch, &mut order);
            let mut cursor = shard.batch_cursor(&order, cfg.batch_size);
            let (mut sum, mut batches) = (0.0, 0);
            while spans.scope("core.data.batch_fill", |_| cursor.next_into(&mut x, &mut y)) {
                spans.scope("nn.zero_grad", |_| net.zero_grad());
                spans.scope("nn.forward", |_| net.forward_into(&x, true, &mut pred));
                sum += spans.scope("nn.loss", |_| {
                    loss.value_and_grad_into(&pred, &y, &mut grad)
                });
                spans.scope("nn.backward", |_| net.backward_into(&grad, &mut grad_in));
                spans.scope("nn.optim", |_| opt.step_visit(&mut net));
                batches += 1;
            }
            sum / batches as f64
        });
        if epoch == 1 {
            warm_epoch_allocs = perf_snapshot().allocs - allocs_before;
        }
        if epoch < cfg.epochs {
            losses.push(mean_loss);
        } else {
            untraced_epoch_ms = t.elapsed().as_secs_f64() * 1e3;
        }
    }
    spans.set_on(true);
    let x1 = Tensor4::from_vec(1, x.c(), x.h(), x.w(), x.sample(0).to_vec());
    let forward_infer_ms = stats::median(&timed_ms(spans, "nn.forward_infer", 1, 3 * reps, || {
        net.forward_into(&x1, false, &mut pred);
    }));
    ReplicaRun {
        weights,
        losses,
        warm_epoch_allocs,
        untraced_epoch_ms,
        forward_infer_ms,
    }
}

/// `euler`, `core.train`, `nn`, `core.data` and the exact `tensor` counts:
/// a P=2 training run, a plain P=1 run of the same task, and the replica.
/// Returns the P=2 outcome (the paper model the rollout probes serve) and
/// the replica of `train_paper`.
pub fn training(p: &mut Probes, seed: u64) -> Result<(TrainOutcome, DataSet, Replica), String> {
    let simulate = timed_ms(&mut p.main, "euler.simulate", 0, 3, || {
        std::hint::black_box(adapter::seeded_dataset(Shape::Paper, BATCH + 1, seed));
    });
    p.report
        .metric("euler.simulate_ms", stats::median(&simulate), "ms");

    let data = adapter::seeded_dataset(Shape::Paper, BATCH + 1, seed);
    let cfg = adapter::train_config(BATCH, TRACED_EPOCHS, seed);
    let passes = (BATCH * TRACED_EPOCHS) as f64;

    let cpu_before = CpuSample::read(None)?;
    let t = Instant::now();
    let fleet = p.main.scope("core.train.train_p2", |_| {
        adapter::train_fleet(Shape::Paper, &cfg, &data, BATCH, adapter::RANKS)
    });
    let wall_p2 = t.elapsed().as_secs_f64();
    let cpu_after = CpuSample::read(None)?;

    let mut check = Report::new("train_paper");
    workloads::check_training(&mut check, &fleet);
    let t = Instant::now();
    let single = p.main.scope("core.train.train_p1", |_| {
        adapter::train_fleet(Shape::Paper, &cfg, &data, BATCH, 1)
    });
    let wall_p1 = t.elapsed().as_secs_f64();
    std::hint::black_box(single);

    let rank_s: Vec<f64> = fleet.rank_results.iter().map(|r| r.train_seconds).collect();
    let slowest = rank_s.iter().copied().fold(0.0, f64::max);
    let mean = rank_s.iter().sum::<f64>() / rank_s.len() as f64;
    let r = &mut p.report;
    r.metric("core.train.rank_imbalance", slowest / mean, "ratio");
    r.metric(
        "core.train.harness_overhead_frac",
        (fleet.wall_seconds - slowest) / fleet.wall_seconds,
        "frac",
    );
    // Fig. 4's quantity: P=2 throughput over twice that of a plain one-rank,
    // one-kernel-thread run of the same task.
    r.metric(
        "core.train.scaling_eff_p2",
        wall_p1 / (adapter::RANKS as f64 * wall_p2),
        "ratio",
    );
    r.metric(
        "core.train.bytes_sent",
        fleet.total_bytes_sent() as f64,
        "count",
    );
    let msgs: u64 = fleet.rank_results.iter().map(|r| r.msgs_sent).sum();
    r.note(format!(
        "bypass check: commsim's share of train_paper is {msgs} messages, {} bytes",
        fleet.total_bytes_sent()
    ));
    let flops: u64 = fleet.rank_results.iter().map(|r| r.perf.flops).sum();
    r.metric(
        "tensor.flops_per_sample_pass",
        flops as f64 / passes,
        "count",
    );
    let batches = (TRACED_EPOCHS * BATCH.div_ceil(cfg.batch_size)) as f64;
    r.metric(
        "tensor.gemm_calls_per_batch",
        fleet.rank_results[0].perf.gemm_calls as f64 / batches,
        "count",
    );

    let run = replica(&mut p.main, &cfg, &data, p.reps);
    if run
        .weights
        .iter()
        .map(|w| w.to_bits())
        .ne(fleet.rank_results[0].weights.iter().map(|w| w.to_bits()))
    {
        check.fail("the replica's rank-0 weights differ from the trainer's".into());
    }
    if run
        .losses
        .iter()
        .map(|l| l.to_bits())
        .ne(fleet.rank_results[0]
            .epoch_losses
            .iter()
            .map(|l| l.to_bits()))
    {
        check.fail("the replica's rank-0 losses differ from the trainer's".into());
    }

    let s = &p.main;
    let epochs = s.durations_ms("nn.epoch");
    let warm_batches = BATCH.div_ceil(cfg.batch_size) as f64;
    // Per-batch times over the warm epoch: the spans of the second half.
    let warm = |name: &str| {
        let d = s.durations_ms(name);
        d[d.len() / 2..].iter().sum::<f64>() / warm_batches
    };
    r.metric("nn.zero_grad_ms_per_batch", warm("nn.zero_grad"), "ms");
    r.metric("nn.forward_ms_per_batch", warm("nn.forward"), "ms");
    r.metric("nn.loss_ms_per_batch", warm("nn.loss"), "ms");
    r.metric("nn.backward_ms_per_batch", warm("nn.backward"), "ms");
    r.metric("nn.optim_ms_per_batch", warm("nn.optim"), "ms");
    r.metric("nn.first_over_warm_epoch", epochs[0] / epochs[1], "ratio");
    r.metric(
        "nn.step_residual_frac",
        s.self_ms("nn.epoch") / s.total_ms("nn.epoch"),
        "frac",
    );
    r.metric("nn.forward_infer_ms", run.forward_infer_ms, "ms");
    r.metric("core.data.build_ms", s.total_ms("core.data.build"), "ms");
    r.metric(
        "core.data.batch_fill_ms",
        s.total_ms("core.data.batch_fill") / (TRACED_EPOCHS as f64 * warm_batches),
        "ms",
    );
    r.metric(
        "tensor.allocs_per_warm_epoch",
        run.warm_epoch_allocs as f64,
        "count",
    );

    let replica = Replica {
        attempted: passes as u64,
        failed: if check.correct { 0 } else { passes as u64 },
        digest: check.digest,
        failures: check.notes,
        tracing_tax_frac: (epochs[1] - run.untraced_epoch_ms) / run.untraced_epoch_ms,
        sys_cpu_frac: cpu_after.sys_frac_since(&cpu_before),
        minor_faults_per_op: (cpu_after.minor_faults - cpu_before.minor_faults) as f64 / passes,
    };
    Ok((fleet, data, replica))
}
