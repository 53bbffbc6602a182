//! Property-based tests over the cross-crate invariants.

use pde_domain::{gather, scatter, GridPartition};
use pde_ml_core::data::{extract_input, extract_target};
use pde_tensor::pad::{crop_tensor4, pad_tensor4_asym, PadMode};
use pde_tensor::{Tensor3, Tensor4};
use proptest::prelude::*;

fn arb_tensor3(c: usize, max_side: usize) -> impl Strategy<Value = Tensor3> {
    (2..=max_side, 2..=max_side).prop_flat_map(move |(h, w)| {
        prop::collection::vec(-10.0f64..10.0, c * h * w)
            .prop_map(move |data| Tensor3::from_vec(c, h, w, data))
    })
}

/// Naive reference `C += op(A) * op(B)` triple loop (row-major flat buffers).
#[allow(clippy::too_many_arguments)]
fn naive_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ta: bool,
    tb: bool,
) {
    for i in 0..m {
        for p in 0..k {
            let av = if ta { a[p * m + i] } else { a[i * k + p] };
            for j in 0..n {
                let bv = if tb { b[j * k + p] } else { b[p * n + j] };
                c[i * n + j] += av * bv;
            }
        }
    }
}

/// Dimensions either side of the products' 32-column chunk, small powers of
/// two and their neighbours, and the degenerate 1s.
fn arb_dim() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 33])
}

fn arb_mat(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-4.0f64..4.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scalar `gemm` matches the naive triple loop on arbitrary shapes,
    /// accumulating into non-zero C.
    #[test]
    fn packed_gemm_matches_naive(
        m in arb_dim(),
        k in arb_dim(),
        n in arb_dim(),
        seed in 0u64..1_000_000,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 250.0 - 2.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| next()).collect();
        let c0: Vec<f64> = (0..m * n).map(|_| next()).collect();
        let mut c = c0.clone();
        let mut c_ref = c0;
        pde_tensor::gemm(m, k, n, &a, &b, &mut c);
        naive_gemm(m, k, n, &a, &b, &mut c_ref, false, false);
        for (x, y) in c.iter().zip(&c_ref) {
            prop_assert!((x - y).abs() < 1e-10, "gemm {m}x{k}x{n}: {x} vs {y}");
        }
    }

    /// `gemm_tn` (`C += Aᵀ·B`, A stored k×m) matches the naive loop.
    #[test]
    fn packed_gemm_tn_matches_naive(
        m in arb_dim(),
        k in arb_dim(),
        n in arb_dim(),
        a in arb_mat(33 * 33),
        b in arb_mat(33 * 33),
    ) {
        let a = &a[..k * m];
        let b = &b[..k * n];
        let mut c = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        pde_tensor::gemm_tn(m, k, n, a, b, &mut c);
        naive_gemm(m, k, n, a, b, &mut c_ref, true, false);
        for (x, y) in c.iter().zip(&c_ref) {
            prop_assert!((x - y).abs() < 1e-10, "gemm_tn {m}x{k}x{n}: {x} vs {y}");
        }
    }

    /// `gemm_nt` (`C += A·Bᵀ`, B stored n×k) matches the naive loop.
    #[test]
    fn packed_gemm_nt_matches_naive(
        m in arb_dim(),
        k in arb_dim(),
        n in arb_dim(),
        a in arb_mat(33 * 33),
        b in arb_mat(33 * 33),
    ) {
        let a = &a[..m * k];
        let b = &b[..n * k];
        let mut c = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        pde_tensor::gemm_nt(m, k, n, a, b, &mut c);
        naive_gemm(m, k, n, a, b, &mut c_ref, false, true);
        for (x, y) in c.iter().zip(&c_ref) {
            prop_assert!((x - y).abs() < 1e-10, "gemm_nt {m}x{k}x{n}: {x} vs {y}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every partition tiles the grid exactly once.
    #[test]
    fn partition_tiles_exactly(
        h in 4usize..40,
        w in 4usize..40,
        py in 1usize..5,
        px in 1usize..5,
    ) {
        prop_assume!(h >= py && w >= px);
        let part = GridPartition::new(h, w, py, px);
        let mut covered = vec![0u32; h * w];
        for b in part.blocks() {
            for i in b.i0..b.i1() {
                for j in b.j0..b.j1() {
                    covered[i * w + j] += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    /// scatter → gather is the identity for any snapshot and partition.
    #[test]
    fn scatter_gather_identity(
        t in arb_tensor3(3, 24),
        py in 1usize..4,
        px in 1usize..4,
    ) {
        prop_assume!(t.h() >= py && t.w() >= px);
        let part = GridPartition::new(t.h(), t.w(), py, px);
        let locals = scatter(&t, &part);
        prop_assert_eq!(gather(&locals, &part), t);
    }

    /// Stitching every rank's extracted target (crop 0) back reproduces the
    /// global snapshot, and each input's interior window equals its block.
    #[test]
    fn extract_input_interior_matches_block(
        t in arb_tensor3(4, 20),
        halo in 0usize..4,
        rank_seed in 0usize..16,
    ) {
        prop_assume!(t.h() >= 2 && t.w() >= 2);
        let part = GridPartition::new(t.h(), t.w(), 2, 2);
        let rank = rank_seed % part.rank_count();
        let block = part.block_of_rank(rank);
        let input = extract_input(&t, &block, halo, PadMode::Zeros);
        prop_assert_eq!(input.shape(), (4, block.h + 2 * halo, block.w + 2 * halo));
        let (oi, oj) = block.interior_offset_in_extended(halo);
        // The interior of the input equals the raw block — regardless of
        // where the halo was clipped or padded. Offsets: the extended
        // window starts at (block.i0 - oi); interior sits oi rows below the
        // halo... compare through the definition instead:
        let interior = input.window(halo, halo, block.h, block.w);
        let direct = extract_target(&t, &block, 0);
        prop_assert_eq!(interior, direct);
        let _ = (oi, oj);
    }

    /// pad → crop round-trips for every mode and asymmetric margins.
    #[test]
    fn pad_crop_roundtrip(
        n in 1usize..3,
        c in 1usize..3,
        h in 2usize..8,
        w in 2usize..8,
        t in 0usize..3,
        b in 0usize..3,
        l in 0usize..3,
        r in 0usize..3,
        mode_idx in 0usize..3,
    ) {
        let mode = [PadMode::Zeros, PadMode::Replicate, PadMode::Reflect][mode_idx];
        let x = Tensor4::from_fn(n, c, h, w, |s, ch, i, j| {
            (s * 1000 + ch * 100 + i * 10 + j) as f64
        });
        let padded = pad_tensor4_asym(&x, t, b, l, r, mode);
        prop_assert_eq!(crop_tensor4(&padded, t, b, l, r), x);
    }

    /// The fast and direct convolution paths agree on random geometry.
    #[test]
    fn conv_paths_agree(
        in_c in 1usize..4,
        out_c in 1usize..4,
        k in prop::sample::select(vec![1usize, 3, 5]),
        pad in 0usize..3,
        h in 5usize..10,
        w in 5usize..10,
        seed in 0u64..1000,
    ) {
        use pde_tensor::conv::{conv2d, conv2d_im2col, ConvScratch};
        use pde_tensor::Conv2dSpec;
        let spec = Conv2dSpec::square(in_c, out_c, k, pad);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        };
        let x = Tensor4::from_fn(2, in_c, h, w, |_, _, _, _| next());
        let wt = Tensor4::from_fn(out_c, in_c, k, k, |_, _, _, _| next());
        let bias: Vec<f64> = (0..out_c).map(|_| next()).collect();
        let y1 = conv2d(&x, &wt, &bias, &spec);
        let y2 = conv2d_im2col(&x, &wt, &bias, &spec, &mut ConvScratch::new());
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// Allreduce equals the plain sum of contributions, at any world size.
    #[test]
    fn allreduce_is_sum(
        n_ranks in 1usize..6,
        len in 1usize..20,
        seed in 0u64..1000,
    ) {
        use pde_commsim::World;
        let contributions: Vec<Vec<f64>> = (0..n_ranks)
            .map(|r| (0..len).map(|i| ((seed + r as u64) * 31 + i as u64) as f64 * 0.1).collect())
            .collect();
        let expected: Vec<f64> = (0..len)
            .map(|i| contributions.iter().map(|c| c[i]).sum())
            .collect();
        let contributions = std::sync::Arc::new(contributions);
        let cc = contributions.clone();
        let results = World::new(n_ranks).run(move |mut comm| {
            comm.allreduce_sum(&cc[comm.rank()])
        });
        for r in results {
            for (a, b) in r.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// MAPE loss value is invariant under joint scaling of prediction and
    /// target (well above the floor) — the property that makes it suitable
    /// for multi-magnitude fields.
    #[test]
    fn mape_is_scale_invariant(
        scale in 1.0f64..1e6,
        vals in prop::collection::vec((1.0f64..10.0, 1.0f64..10.0), 4..32),
    ) {
        use pde_nn::loss::{Loss, Mape};
        let m = Mape::new(1e-12);
        let (p, t): (Vec<f64>, Vec<f64>) = vals.into_iter().unzip();
        let n = p.len();
        let mk = |v: &[f64], s: f64| Tensor4::from_vec(1, 1, 1, n, v.iter().map(|x| x * s).collect());
        let base = m.value(&mk(&p, 1.0), &mk(&t, 1.0));
        let scaled = m.value(&mk(&p, scale), &mk(&t, scale));
        prop_assert!((base - scaled).abs() < 1e-6 * (1.0 + base));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Messages with the same (src, tag) are delivered in send order (the
    /// FIFO guarantee the halo-exchange protocol relies on when reusing a
    /// tag across rounds).
    #[test]
    fn same_tag_messages_are_fifo(count in 1usize..20, tag in 0u32..100) {
        use pde_commsim::World;
        let out = World::new(2).run(move |mut comm| {
            if comm.rank() == 0 {
                for k in 0..count {
                    comm.send(1, tag, vec![k as f64]);
                }
                Vec::new()
            } else {
                (0..count).map(|_| comm.recv(0, tag)[0] as usize).collect::<Vec<_>>()
            }
        });
        prop_assert_eq!(&out[1], &(0..count).collect::<Vec<_>>());
    }

    /// The linearized Euler solver is linear: scaling the initial condition
    /// scales the whole trajectory (superposition holds for the scheme, not
    /// just the PDE, because Rusanov fluxes of a linear system are linear).
    #[test]
    fn solver_is_linear_in_the_initial_condition(
        alpha in 0.1f64..5.0,
        steps in 1usize..12,
    ) {
        use pde_euler::{Boundary, EulerSolver, InitialCondition, SolverConfig};
        let cfg = SolverConfig::paper(16, 16);
        let base = InitialCondition::GaussianPulse {
            x0: 0.1, y0: -0.2, half_width: 0.3, amplitude: 0.5,
        };
        let scaled = InitialCondition::GaussianPulse {
            x0: 0.1, y0: -0.2, half_width: 0.3, amplitude: 0.5 * alpha,
        };
        let mut a = EulerSolver::new(cfg, Boundary::Outflow, &base);
        let mut b = EulerSolver::new(cfg, Boundary::Outflow, &scaled);
        a.run(steps);
        b.run(steps);
        let ta = a.state().to_tensor();
        let tb = b.state().to_tensor();
        for (x, y) in ta.as_slice().iter().zip(tb.as_slice()) {
            prop_assert!(
                (x * alpha - y).abs() < 1e-9 * (1.0 + y.abs()),
                "linearity violated: {} * {} != {}", x, alpha, y
            );
        }
    }

    /// Channel normalization round-trips any snapshot whose values exceed
    /// the fitting floor.
    #[test]
    fn channel_norm_roundtrip(
        seed in 0u64..500,
        h in 2usize..10,
        w in 2usize..10,
    ) {
        use pde_ml_core::norm::ChannelNorm;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state % 2000) as f64 / 100.0 - 10.0
        };
        let t = Tensor3::from_fn(4, h, w, |_, _, _| next());
        let scales: Vec<f64> = (0..4).map(|c| 10f64.powi(c * 2 - 3)).collect();
        let n = ChannelNorm::from_scales(scales);
        let back = n.denormalize3(&n.normalize3(&t));
        for (a, b) in back.as_slice().iter().zip(t.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }
}

/// Builds a stack of `Conv2d::same` + `LeakyReLu` stages on 2 input
/// channels, with seeded Kaiming init (so two calls with different seeds
/// give the same *structure* but different weights).
fn random_conv_stack(stages: &[(usize, usize)], slope: f64, seed: u64) -> pde_nn::Sequential {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = pde_nn::Sequential::new();
    let mut in_c = 2usize;
    for &(out_c, k) in stages {
        let mut conv = pde_nn::Conv2d::same(in_c, out_c, k);
        pde_nn::init::init_conv(
            &mut conv,
            pde_nn::init::Init::KaimingUniform { neg_slope: slope },
            &mut rng,
        );
        net.push_boxed(Box::new(conv));
        net.push_boxed(Box::new(pde_nn::LeakyReLu::new(slope)));
        in_c = out_c;
    }
    net
}

/// One of each stateful-or-stateless optimizer kind, so the checkpoint
/// property covers empty slots (plain SGD) through two-moment slots (Adam).
fn make_optimizer(kind: usize) -> Box<dyn pde_nn::Optimizer> {
    match kind {
        0 => Box::new(pde_nn::Adam::new(1e-2)),
        1 => Box::new(pde_nn::AdamW::new(1e-2, 0.01)),
        2 => Box::new(pde_nn::Sgd::with_momentum(1e-2, 0.9)),
        3 => Box::new(pde_nn::Sgd::new(1e-2)),
        _ => Box::new(pde_nn::RmsProp::new(1e-2)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PDECK v1 checkpoints round-trip bitwise for *random* `Sequential`
    /// architectures and every optimizer kind: parameters and optimizer
    /// state load back exactly, and — the invariant users care about —
    /// resumed training takes the identical trajectory.
    #[test]
    fn checkpoint_round_trip_is_bitwise_for_random_architectures(
        stages in prop::collection::vec(
            (prop::sample::select(vec![1usize, 2, 3, 4]),
             prop::sample::select(vec![1usize, 3])),
            1..=3,
        ),
        slope in prop::sample::select(vec![0.0f64, 0.01, 0.2]),
        opt_kind in 0usize..5,
        seed in 0u64..10_000,
    ) {
        use pde_nn::{Layer, Loss, Mse};
        use pde_tensor::Tensor4;

        let mut a = random_conv_stack(&stages, slope, seed);
        let mut opt_a = make_optimizer(opt_kind);

        let out_c = stages.last().unwrap().0;
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 2000) as f64 / 1000.0 - 1.0
        };
        let x = Tensor4::from_fn(2, 2, 5, 5, |_, _, _, _| next());
        let target = Tensor4::zeros(2, out_c, 5, 5);
        let step = |net: &mut pde_nn::Sequential, opt: &mut dyn pde_nn::Optimizer| {
            net.zero_grad();
            let y = net.forward(&x, true);
            let (_, grad) = Mse.value_and_grad(&y, &target);
            net.backward(&grad);
            opt.step(&mut net.param_groups());
        };

        // A few real steps so momentum/second-moment slots are nonzero.
        for _ in 0..3 {
            step(&mut a, opt_a.as_mut());
        }

        let mut buf = Vec::new();
        pde_nn::serialize::write_checkpoint(&mut a, opt_a.as_ref(), &mut buf).unwrap();

        // Same architecture, deliberately different init + fresh optimizer.
        let mut b = random_conv_stack(&stages, slope, seed ^ 0xDEAD_BEEF);
        let mut opt_b = make_optimizer(opt_kind);
        pde_nn::serialize::read_checkpoint(&mut b, opt_b.as_mut(), &mut buf.as_slice())
            .unwrap();

        prop_assert_eq!(
            pde_nn::serialize::snapshot(&mut a),
            pde_nn::serialize::snapshot(&mut b),
            "restored parameters differ"
        );
        prop_assert_eq!(
            opt_a.export_state(),
            opt_b.export_state(),
            "restored optimizer state differs"
        );

        // Bitwise-identical resumed trajectory, two further steps deep.
        for _ in 0..2 {
            step(&mut a, opt_a.as_mut());
            step(&mut b, opt_b.as_mut());
        }
        prop_assert_eq!(
            pde_nn::serialize::snapshot(&mut a),
            pde_nn::serialize::snapshot(&mut b),
            "resumed training diverged from the checkpointed run"
        );
    }

    /// The self-healing invariant behind rank respawn: a rank killed
    /// *mid-epoch* — at a random step `kill_at` strictly inside a training
    /// run, any optimizer kind — and restored from its last checkpoint
    /// continues to a final state bitwise identical to the run that was
    /// never interrupted. This is exactly what lets a respawned rank rejoin
    /// a serving world without perturbing a single bit of its output.
    #[test]
    fn restore_after_mid_epoch_kill_continues_bitwise(
        stages in prop::collection::vec(
            (prop::sample::select(vec![1usize, 2, 3, 4]),
             prop::sample::select(vec![1usize, 3])),
            1..=3,
        ),
        slope in prop::sample::select(vec![0.0f64, 0.01, 0.2]),
        opt_kind in 0usize..5,
        kill_at in 1usize..6,
        seed in 0u64..10_000,
    ) {
        use pde_nn::{Layer, Loss, Mse};
        use pde_tensor::Tensor4;

        let total_steps = 7usize; // kill_at < total: the kill is mid-epoch

        let mut survivor = random_conv_stack(&stages, slope, seed);
        let mut opt_s = make_optimizer(opt_kind);

        let out_c = stages.last().unwrap().0;
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 2000) as f64 / 1000.0 - 1.0
        };
        let x = Tensor4::from_fn(2, 2, 5, 5, |_, _, _, _| next());
        let target = Tensor4::zeros(2, out_c, 5, 5);
        let step = |net: &mut pde_nn::Sequential, opt: &mut dyn pde_nn::Optimizer| {
            net.zero_grad();
            let y = net.forward(&x, true);
            let (_, grad) = Mse.value_and_grad(&y, &target);
            net.backward(&grad);
            opt.step(&mut net.param_groups());
        };

        // Train to the kill point and checkpoint there — the state a
        // supervisor would have persisted before the crash.
        for _ in 0..kill_at {
            step(&mut survivor, opt_s.as_mut());
        }
        let mut checkpoint = Vec::new();
        pde_nn::serialize::write_checkpoint(&mut survivor, opt_s.as_ref(), &mut checkpoint)
            .unwrap();

        // The uninterrupted run finishes the epoch.
        for _ in kill_at..total_steps {
            step(&mut survivor, opt_s.as_mut());
        }

        // The killed rank: everything in memory is lost (fresh net from a
        // different seed, fresh optimizer), then restored and resumed for
        // the same remaining steps.
        let mut respawned = random_conv_stack(&stages, slope, seed ^ 0xBAD_C0DE);
        let mut opt_r = make_optimizer(opt_kind);
        pde_nn::serialize::read_checkpoint(
            &mut respawned,
            opt_r.as_mut(),
            &mut checkpoint.as_slice(),
        )
        .unwrap();
        for _ in kill_at..total_steps {
            step(&mut respawned, opt_r.as_mut());
        }

        prop_assert_eq!(
            pde_nn::serialize::snapshot(&mut survivor),
            pde_nn::serialize::snapshot(&mut respawned),
            "a restore-then-continue after a mid-epoch kill (step {}/{}, optimizer kind {}) \
             must be bitwise equal to the uninterrupted run",
            kill_at, total_steps, opt_kind
        );
        prop_assert_eq!(
            opt_s.export_state(),
            opt_r.export_state(),
            "optimizer slots must also converge to identical state"
        );
    }
}
