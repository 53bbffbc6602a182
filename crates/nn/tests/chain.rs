//! The activation chain against the layers it is made of.
//!
//! A [`Sequential`] in training owns every activation once, lends each to
//! the next layer, fuses LeakyReLU into the convolutions' write-backs and
//! writes gradients over the activations they replace. None of that may be
//! visible in a result: outputs, parameter gradients and the input gradient
//! must be **bit for bit** what the same layers give when each is run on its
//! own, caching its own input — on every kernel path and thread budget.
//!
//! `force_kernel_path` is process-global, so every test here holds
//! [`PATH_LOCK`] while it runs kernels.

use pde_nn::gradcheck::check_network_gradients;
use pde_nn::init::{init_conv, Init};
use pde_nn::{Conv2d, Layer, LeakyReLu, Mse, ReLu, Sequential};
use pde_tensor::{force_kernel_path, Conv2dSpec, KernelPath, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static PATH_LOCK: Mutex<()> = Mutex::new(());

/// Runs `check` under every supported kernel path and thread budgets 1/2/3.
fn on_every_path_and_budget(check: impl Fn(&str)) {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for path in KernelPath::ALL.into_iter().filter(|p| p.supported()) {
        force_kernel_path(Some(path));
        for budget in [1, 2, 3] {
            pde_tensor::pool::set_thread_budget(budget);
            check(&format!("{}, budget {budget}", path.label()));
        }
        pde_tensor::pool::set_thread_budget(1);
    }
    force_kernel_path(None);
}

fn random(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor4 {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor4::from_fn(n, c, h, w, |_, _, _, _| rng.gen_range(-1.0..1.0))
}

/// One convolution per adjacent pair of `channels`, seeded, with non-zero
/// biases; every stage but the last is followed by LeakyReLU(`slope`) —
/// fused into the convolution when `fused`, a layer of its own otherwise
/// (always at slope 0, where only the [`ReLu`] layer exists).
fn stages(
    channels: &[usize],
    k: usize,
    pad: usize,
    slope: f64,
    fused: bool,
    seed: u64,
) -> Vec<Box<dyn Layer>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for (l, io) in channels.windows(2).enumerate() {
        let mut conv = Conv2d::new(Conv2dSpec::square(io[0], io[1], k, pad));
        init_conv(
            &mut conv,
            Init::KaimingUniform { neg_slope: slope },
            &mut rng,
        );
        for b in conv.bias_mut() {
            *b = rng.gen_range(-0.2..0.2);
        }
        let hidden = l + 2 < channels.len();
        if hidden && fused {
            conv = conv.leaky(slope);
        }
        layers.push(Box::new(conv));
        if hidden && !fused {
            layers.push(if slope == 0.0 {
                Box::new(ReLu::new())
            } else {
                Box::new(LeakyReLu::new(slope))
            });
        }
    }
    layers
}

fn stack(layers: Vec<Box<dyn Layer>>) -> Sequential {
    let mut net = Sequential::new();
    for l in layers {
        net.push_boxed(l);
    }
    net
}

/// Output, input gradient and every parameter gradient of one training step.
#[derive(PartialEq)]
struct Step {
    out: Vec<u64>,
    grad_in: Vec<u64>,
    param_grads: Vec<u64>,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn param_grads<'a>(layers: impl Iterator<Item = &'a mut Box<dyn Layer>>) -> Vec<u64> {
    layers
        .flat_map(|l| l.param_groups())
        .flat_map(|g| bits(g.grad))
        .collect()
}

/// Each layer on its own: it caches its input, its backward returns a fresh
/// gradient. The loss gradient is the output itself (`L = ½‖y‖²`).
fn standalone_step(layers: &mut [Box<dyn Layer>], x: &Tensor4) -> Step {
    let mut act = x.clone();
    for l in layers.iter_mut() {
        l.zero_grad();
        act = l.forward(&act, true);
    }
    let out = bits(act.as_slice());
    let mut grad = act;
    for l in layers.iter_mut().rev() {
        grad = l.backward(&grad);
    }
    Step {
        out,
        grad_in: bits(grad.as_slice()),
        param_grads: param_grads(layers.iter_mut()),
    }
}

fn chain_step(net: &mut Sequential, x: &Tensor4) -> Step {
    net.zero_grad();
    let out = net.forward(x, true);
    let grad_in = net.backward(&out);
    Step {
        out: bits(out.as_slice()),
        grad_in: bits(grad_in.as_slice()),
        param_grads: param_grads(net.layers_mut().iter_mut()),
    }
}

fn assert_same_step(what: &str, got: &Step, want: &Step) {
    assert!(got.out == want.out, "{what}: outputs differ");
    assert!(
        got.param_grads == want.param_grads,
        "{what}: weight / bias gradients differ"
    );
    assert!(
        got.grad_in == want.grad_in,
        "{what}: input gradients differ"
    );
}

/// Geometries: the toy and Table-I channel plans, same-padded and not, a
/// stage with 400 > KC taps (two blocks, the activation on the last only),
/// output widths that pack into 4-, 6- and 8-row panels.
const NETS: &[(&[usize], usize, usize, usize, usize)] = &[
    (&[4, 6, 4], 3, 1, 9, 19),
    (&[4, 6, 16, 6, 4], 5, 0, 21, 33),
    (&[4, 6, 16, 6, 4], 5, 2, 7, 18),
    (&[16, 5, 7, 3], 5, 2, 6, 17),
    (&[2, 12, 8, 1], 3, 1, 5, 16),
];

#[test]
fn fused_forward_equals_conv_then_leaky_relu() {
    on_every_path_and_budget(|how| {
        for &(channels, k, pad, h, w) in NETS {
            let x = random(2, channels[0], h, w, 7);
            for train in [false, true] {
                let mut want = x.clone();
                for l in &mut stages(channels, k, pad, 0.01, false, 3) {
                    want = l.forward(&want, train);
                }
                let got = stack(stages(channels, k, pad, 0.01, true, 3)).forward(&x, train);
                assert!(
                    bits(got.as_slice()) == bits(want.as_slice()),
                    "{channels:?} k{k} pad{pad}, train {train} ({how})"
                );
            }
        }
    });
}

#[test]
fn chain_equals_the_same_stack_of_standalone_layers() {
    on_every_path_and_budget(|how| {
        for &(channels, k, pad, h, w) in NETS {
            for slope in [0.01, 0.3, 0.0] {
                let what = format!("{channels:?} k{k} pad{pad} slope {slope} ({how})");
                let x = random(3, channels[0], h, w, 11);
                let want = standalone_step(&mut stages(channels, k, pad, slope, false, 5), &x);
                // The same layers, chained: nothing cached, gradients in place.
                let mut unfused = stack(stages(channels, k, pad, slope, false, 5));
                assert_same_step(
                    &format!("unfused {what}"),
                    &chain_step(&mut unfused, &x),
                    &want,
                );
                // A second step reuses every buffer the first one grew.
                assert_same_step(
                    &format!("unfused again {what}"),
                    &chain_step(&mut unfused, &x),
                    &want,
                );
                if slope > 0.0 {
                    let mut fused = stack(stages(channels, k, pad, slope, true, 5));
                    assert_same_step(&format!("fused {what}"), &chain_step(&mut fused, &x), &want);
                    // Fused layers run standalone resolve their own activation.
                    let alone = standalone_step(&mut stages(channels, k, pad, slope, true, 5), &x);
                    assert_same_step(&format!("fused standalone {what}"), &alone, &want);
                }
            }
        }
    });
}

/// A stack that *ends* in an activation has nobody downstream to resolve it:
/// the stack (fused) or the activation layer (unfused) does.
#[test]
fn trailing_activation_is_resolved_by_the_stack() {
    on_every_path_and_budget(|how| {
        let x = random(2, 3, 8, 17, 13);
        let build = |fused: bool| {
            let mut layers = stages(&[3, 6, 5, 5], 3, 1, 0.2, fused, 9);
            // Drop the linear head: the stack now ends in stage 2's LeakyReLU.
            layers.pop();
            layers
        };
        let want = standalone_step(&mut build(false), &x);
        assert_same_step(
            &format!("unfused ({how})"),
            &chain_step(&mut stack(build(false)), &x),
            &want,
        );
        assert_same_step(
            &format!("fused ({how})"),
            &chain_step(&mut stack(build(true)), &x),
            &want,
        );
    });
}

#[test]
fn nested_stacks_equal_the_flat_one() {
    on_every_path_and_budget(|how| {
        let x = random(2, 4, 9, 20, 17);
        let channels = &[4, 6, 16, 6, 4];
        let want = chain_step(&mut stack(stages(channels, 3, 1, 0.01, true, 21)), &x);
        let mut layers = stages(channels, 3, 1, 0.01, true, 21);
        let tail = stack(layers.split_off(2));
        let head = stack(layers);
        // head ends in a fused activation, which it resolves itself.
        let mut nested = Sequential::new().push(head).push(tail);
        assert_same_step(how, &chain_step(&mut nested, &x), &want);
    });
}

#[test]
fn backward_params_leaves_the_parameter_gradients_of_backward_into() {
    on_every_path_and_budget(|how| {
        for fused in [true, false] {
            let x = random(2, 4, 20, 19, 23);
            let mut net = stack(stages(&[4, 6, 16, 6, 4], 5, 0, 0.01, fused, 25));
            let want = chain_step(&mut net, &x);
            net.zero_grad();
            let out = net.forward(&x, true);
            net.backward_params(&out);
            assert!(
                param_grads(net.layers_mut().iter_mut()) == want.param_grads,
                "fused {fused} ({how})"
            );
        }
    });
}

#[test]
fn gradcheck_passes_through_a_fused_three_stage_net() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for slope in [0.01, 0.5, 0.99] {
        let mut net = stack(stages(&[2, 3, 4, 2], 3, 1, slope, true, 31));
        let x = random(2, 2, 5, 5, 32);
        let mut rng = StdRng::seed_from_u64(33);
        let t = Tensor4::from_fn(2, 2, 5, 5, |_, _, _, _| rng.gen_range(1.5..2.5));
        let r = check_network_gradients(&mut net, &Mse, &x, &t, 1e-5, 7);
        assert!(
            r.passes(1e-5),
            "slope {slope}: max rel err {} at {} (analytic {}, numeric {})",
            r.max_rel_err,
            r.worst_index,
            r.worst_analytic,
            r.worst_numeric
        );
    }
    // Every pre-activation negative, and the activation last in the stack.
    let mut conv = Conv2d::same(2, 3, 3);
    init_conv(
        &mut conv,
        Init::KaimingUniform { neg_slope: 0.3 },
        &mut StdRng::seed_from_u64(41),
    );
    conv.bias_mut().fill(-10.0);
    let mut net = Sequential::new().push(conv.leaky(0.3));
    let x = random(1, 2, 5, 5, 42);
    let r = check_network_gradients(&mut net, &Mse, &x, &Tensor4::zeros(1, 3, 5, 5), 1e-5, 7);
    assert!(
        r.passes(1e-6),
        "negative branch: max rel err {}",
        r.max_rel_err
    );
}

/// The one documented corner where fusing is not bit-for-bit: a negative
/// subnormal pre-activation `z` with `|z| < 2⁻¹⁰⁷⁵ / slope` is stored as
/// `slope · z = −0.0`, whose sign bit `< 0.0` does not see, so its gradient
/// gets slope 1 where the unfused pair (which keeps `z`) gives `slope`.
#[test]
fn negative_subnormal_preactivation_is_the_documented_difference() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // One unit is 2⁻¹⁰⁷⁴: 0.01 · 49 units rounds to −0.0, 0.01 · 51 units to
    // −1 unit.
    let unit = f64::from_bits(1);
    let x = Tensor4::from_vec(1, 1, 1, 2, vec![-49.0 * unit, -51.0 * unit]);
    let identity = || {
        let mut conv = Conv2d::new(Conv2dSpec::square(1, 1, 1, 0));
        conv.weight_mut().as_mut_slice()[0] = 1.0;
        conv
    };
    assert_eq!(
        bits(identity().leaky(0.01).forward(&x, false).as_slice()),
        bits(&[-0.0, -unit]),
        "stored activation"
    );
    let net = |fused: bool| {
        if fused {
            Sequential::new()
                .push(identity().leaky(0.01))
                .push(identity())
        } else {
            Sequential::new()
                .push(identity())
                .push(LeakyReLu::new(0.01))
                .push(identity())
        }
    };
    let ones = Tensor4::full(1, 1, 1, 2, 1.0);
    let grad_in = |mut net: Sequential| {
        let _ = net.forward(&x, true);
        net.backward(&ones)
    };
    assert_eq!(grad_in(net(false)).as_slice(), &[0.01, 0.01]);
    assert_eq!(grad_in(net(true)).as_slice(), &[1.0, 0.01]);
}

#[test]
#[should_panic(expected = "backward before forward")]
fn a_second_backward_needs_a_second_forward() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut net = stack(stages(&[2, 3, 2], 3, 1, 0.01, true, 1));
    let x = random(1, 2, 4, 4, 2);
    let y = net.forward(&x, true);
    let _ = net.backward(&y);
    // The gradients were written over the activations: nothing to redo.
    let _ = net.backward(&y);
}

#[test]
#[should_panic(expected = "slope must be in (0, 1)")]
fn plain_relu_cannot_be_fused() {
    let _ = Conv2d::same(1, 1, 3).leaky(0.0);
}
