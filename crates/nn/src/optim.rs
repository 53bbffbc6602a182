//! First-order optimizers.
//!
//! ADAM (the paper's choice, §II with Eqs. (3)–(6)) plus SGD (with optional
//! momentum/Nesterov), RMSProp and AdamW for the optimizer ablation
//! (experiment X3 in DESIGN.md).
//!
//! An optimizer is driven with the parameter groups of a network:
//!
//! ```
//! use pde_nn::{Adam, Optimizer, Layer, Conv2d};
//! let mut net = Conv2d::same(1, 1, 3);
//! let mut opt = Adam::new(1e-3);
//! // ... forward / loss / backward ...
//! opt.step(&mut net.param_groups());
//! ```
//!
//! Per-group state (momenta, second moments) is keyed by group *order*,
//! which is stable for a fixed network structure.

use crate::layer::{Layer, ParamGroup};

/// Global L2 norm of all gradients of a network, computed through the
/// allocation-free [`Layer::visit_param_groups`] visitor.
pub fn gradient_norm_of(net: &mut dyn Layer) -> f64 {
    let mut sq = 0.0;
    net.visit_param_groups(&mut |g| {
        sq += g.grad.iter().map(|v| v * v).sum::<f64>();
    });
    sq.sqrt()
}

/// A portable snapshot of an optimizer's internal state, used by
/// checkpointing (`serialize::write_checkpoint`) so a resumed run continues
/// bitwise-identically to an uninterrupted one.
///
/// Slots are keyed by a per-optimizer name (e.g. ADAM's `"m"`/`"v"`); each
/// slot holds one buffer per parameter group, in group order — the same
/// order [`Optimizer::step`] keys its state by.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimizerState {
    /// Update steps taken so far (drives ADAM's bias correction; 0 for
    /// optimizers without a step counter).
    pub steps: u64,
    /// Named state slots in a fixed per-optimizer order.
    pub slots: Vec<(String, Vec<Vec<f64>>)>,
}

/// Pulls `N` named slots out of a state snapshot, insisting on the exact
/// names and order the optimizer exports.
fn take_slots<const N: usize>(
    st: OptimizerState,
    expect: [&str; N],
) -> Result<[Vec<Vec<f64>>; N], String> {
    let got: Vec<&str> = st.slots.iter().map(|(n, _)| n.as_str()).collect();
    if got != expect {
        return Err(format!(
            "optimizer state slots {got:?} do not match expected {expect:?}"
        ));
    }
    let mut iter = st.slots.into_iter().map(|(_, v)| v);
    Ok(std::array::from_fn(|_| iter.next().unwrap()))
}

/// A first-order optimizer over flat parameter groups.
pub trait Optimizer: Send {
    /// Applies one update step using the gradients currently stored in the
    /// groups. Must be called with the same group structure every time.
    fn step(&mut self, groups: &mut [ParamGroup<'_>]);

    /// Applies one update step directly over a network's parameter groups
    /// via [`Layer::visit_param_groups`] — same arithmetic and group order
    /// as [`Optimizer::step`], but without materializing the group `Vec`.
    /// After per-group state has been created on the first call, this path
    /// performs no heap allocation.
    fn step_visit(&mut self, net: &mut dyn Layer);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Overrides the learning rate (used by LR schedules).
    fn set_learning_rate(&mut self, lr: f64);

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Snapshots the internal state (momenta, second moments, step counter)
    /// so it can be checkpointed alongside the parameters.
    fn export_state(&self) -> OptimizerState;

    /// Restores a snapshot taken from the same optimizer kind driving an
    /// identically structured network. Buffer lengths are re-validated
    /// against the groups on the next step.
    fn import_state(&mut self, state: OptimizerState) -> Result<(), String>;
}

fn ensure_state(state: &mut Vec<Vec<f64>>, groups: &[ParamGroup<'_>]) {
    if state.len() < groups.len() {
        for g in &groups[state.len()..] {
            state.push(vec![0.0; g.param.len()]);
        }
    }
    for (s, g) in state.iter().zip(groups) {
        assert_eq!(
            s.len(),
            g.param.len(),
            "optimizer: group structure changed between steps (group '{}')",
            g.name
        );
    }
}

/// Per-group variant of [`ensure_state`] for the visitor path: lazily grows
/// the state list on first visit, then insists the structure is unchanged.
fn ensure_group_state(state: &mut Vec<Vec<f64>>, idx: usize, g: &ParamGroup<'_>) {
    if state.len() == idx {
        state.push(vec![0.0; g.param.len()]);
    }
    assert!(
        idx < state.len(),
        "optimizer: group structure changed between steps (group '{}')",
        g.name
    );
    assert_eq!(
        state[idx].len(),
        g.param.len(),
        "optimizer: group structure changed between steps (group '{}')",
        g.name
    );
}

/// Stochastic gradient descent, optionally with (Nesterov) momentum.
pub struct Sgd {
    lr: f64,
    momentum: f64,
    nesterov: bool,
    velocity: Vec<Vec<f64>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            momentum: 0.0,
            nesterov: false,
            velocity: Vec::new(),
        }
    }

    /// SGD with classical momentum `mu` (paper Eq. (3) family).
    pub fn with_momentum(lr: f64, mu: f64) -> Self {
        assert!((0.0..1.0).contains(&mu), "Sgd: momentum must be in [0, 1)");
        Self {
            lr,
            momentum: mu,
            nesterov: false,
            velocity: Vec::new(),
        }
    }

    /// SGD with Nesterov momentum.
    pub fn with_nesterov(lr: f64, mu: f64) -> Self {
        let mut s = Self::with_momentum(lr, mu);
        s.nesterov = true;
        s
    }
}

/// The SGD per-group update shared by both step paths.
fn sgd_update(g: &mut ParamGroup<'_>, vel: &mut [f64], lr: f64, momentum: f64, nesterov: bool) {
    if momentum == 0.0 {
        for (p, &dg) in g.param.iter_mut().zip(g.grad) {
            *p -= lr * dg;
        }
    } else {
        for ((p, &dg), v) in g.param.iter_mut().zip(g.grad).zip(vel.iter_mut()) {
            *v = momentum * *v + dg;
            let upd = if nesterov { dg + momentum * *v } else { *v };
            *p -= lr * upd;
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, groups: &mut [ParamGroup<'_>]) {
        ensure_state(&mut self.velocity, groups);
        for (g, vel) in groups.iter_mut().zip(&mut self.velocity) {
            sgd_update(g, vel, self.lr, self.momentum, self.nesterov);
        }
    }

    fn step_visit(&mut self, net: &mut dyn Layer) {
        let (lr, momentum, nesterov) = (self.lr, self.momentum, self.nesterov);
        let velocity = &mut self.velocity;
        let mut idx = 0;
        net.visit_param_groups(&mut |mut g| {
            ensure_group_state(velocity, idx, &g);
            sgd_update(&mut g, &mut velocity[idx], lr, momentum, nesterov);
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        if self.momentum == 0.0 {
            "SGD"
        } else if self.nesterov {
            "SGD+Nesterov"
        } else {
            "SGD+momentum"
        }
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            steps: 0,
            slots: vec![("velocity".into(), self.velocity.clone())],
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), String> {
        let [velocity] = take_slots(state, ["velocity"])?;
        self.velocity = velocity;
        Ok(())
    }
}

/// ADAM (Kingma & Ba), exactly the update of the paper's Eqs. (3)–(6) with
/// bias-corrected first and second moments.
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// ADAM with default moments (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f64) -> Self {
        Self::with_params(lr, 0.9, 0.999, 1e-8)
    }

    /// Fully parameterized ADAM.
    ///
    /// # Panics
    /// If the betas are outside `[0, 1)` or `eps ≤ 0`.
    pub fn with_params(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "Adam: betas in [0,1)"
        );
        assert!(eps > 0.0, "Adam: eps must be > 0");
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// The ADAM per-group update shared by both step paths.
#[allow(clippy::too_many_arguments)]
fn adam_update(
    g: &mut ParamGroup<'_>,
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
) {
    for (((p, &dg), mi), vi) in g
        .param
        .iter_mut()
        .zip(g.grad)
        .zip(m.iter_mut())
        .zip(v.iter_mut())
    {
        *mi = beta1 * *mi + (1.0 - beta1) * dg;
        *vi = beta2 * *vi + (1.0 - beta2) * dg * dg;
        let mhat = *mi / bc1;
        let vhat = *vi / bc2;
        *p -= lr * mhat / (vhat.sqrt() + eps);
    }
}

impl Optimizer for Adam {
    fn step(&mut self, groups: &mut [ParamGroup<'_>]) {
        ensure_state(&mut self.m, groups);
        ensure_state(&mut self.v, groups);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((g, m), v) in groups.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            adam_update(g, m, v, self.lr, self.beta1, self.beta2, self.eps, bc1, bc2);
        }
    }

    fn step_visit(&mut self, net: &mut dyn Layer) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m_state, v_state) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        net.visit_param_groups(&mut |mut g| {
            ensure_group_state(m_state, idx, &g);
            ensure_group_state(v_state, idx, &g);
            adam_update(
                &mut g,
                &mut m_state[idx],
                &mut v_state[idx],
                lr,
                beta1,
                beta2,
                eps,
                bc1,
                bc2,
            );
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        "Adam"
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            steps: self.t,
            slots: vec![("m".into(), self.m.clone()), ("v".into(), self.v.clone())],
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), String> {
        let steps = state.steps;
        let [m, v] = take_slots(state, ["m", "v"])?;
        self.t = steps;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

/// AdamW: ADAM with decoupled weight decay.
pub struct AdamW {
    inner: Adam,
    weight_decay: f64,
}

impl AdamW {
    /// AdamW with default moments and the given decoupled decay.
    pub fn new(lr: f64, weight_decay: f64) -> Self {
        assert!(weight_decay >= 0.0, "AdamW: weight_decay must be >= 0");
        Self {
            inner: Adam::new(lr),
            weight_decay,
        }
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, groups: &mut [ParamGroup<'_>]) {
        // Decoupled decay: shrink parameters before the ADAM update.
        let decay = self.inner.lr * self.weight_decay;
        for g in groups.iter_mut() {
            for p in g.param.iter_mut() {
                *p -= decay * *p;
            }
        }
        self.inner.step(groups);
    }

    fn step_visit(&mut self, net: &mut dyn Layer) {
        // Decoupled decay in a first sweep, then the ADAM update — the same
        // order as `step`, which decays every group before updating any.
        let decay = self.inner.lr * self.weight_decay;
        net.visit_param_groups(&mut |g| {
            for p in g.param.iter_mut() {
                *p -= decay * *p;
            }
        });
        self.inner.step_visit(net);
    }

    fn learning_rate(&self) -> f64 {
        self.inner.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.inner.lr = lr;
    }

    fn name(&self) -> &'static str {
        "AdamW"
    }

    fn export_state(&self) -> OptimizerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

/// RMSProp with the standard exponentially weighted squared-gradient scale.
pub struct RmsProp {
    lr: f64,
    rho: f64,
    eps: f64,
    sq: Vec<Vec<f64>>,
}

impl RmsProp {
    /// RMSProp with decay `rho = 0.9`, `eps = 1e-8`.
    pub fn new(lr: f64) -> Self {
        Self::with_params(lr, 0.9, 1e-8)
    }

    /// Fully parameterized RMSProp.
    pub fn with_params(lr: f64, rho: f64, eps: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "RmsProp: rho in [0,1)");
        assert!(eps > 0.0, "RmsProp: eps must be > 0");
        Self {
            lr,
            rho,
            eps,
            sq: Vec::new(),
        }
    }
}

/// The RMSProp per-group update shared by both step paths.
fn rmsprop_update(g: &mut ParamGroup<'_>, sq: &mut [f64], lr: f64, rho: f64, eps: f64) {
    for ((p, &dg), s) in g.param.iter_mut().zip(g.grad).zip(sq.iter_mut()) {
        *s = rho * *s + (1.0 - rho) * dg * dg;
        *p -= lr * dg / (s.sqrt() + eps);
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, groups: &mut [ParamGroup<'_>]) {
        ensure_state(&mut self.sq, groups);
        for (g, sq) in groups.iter_mut().zip(&mut self.sq) {
            rmsprop_update(g, sq, self.lr, self.rho, self.eps);
        }
    }

    fn step_visit(&mut self, net: &mut dyn Layer) {
        let (lr, rho, eps) = (self.lr, self.rho, self.eps);
        let sq_state = &mut self.sq;
        let mut idx = 0;
        net.visit_param_groups(&mut |mut g| {
            ensure_group_state(sq_state, idx, &g);
            rmsprop_update(&mut g, &mut sq_state[idx], lr, rho, eps);
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        "RMSProp"
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            steps: 0,
            slots: vec![("sq".into(), self.sq.clone())],
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), String> {
        let [sq] = take_slots(state, ["sq"])?;
        self.sq = sq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal quadratic test harness: minimize 0.5‖x − x*‖².
    struct Quad {
        x: Vec<f64>,
        g: Vec<f64>,
        target: Vec<f64>,
    }

    impl Quad {
        fn new(start: &[f64], target: &[f64]) -> Self {
            Self {
                x: start.to_vec(),
                g: vec![0.0; start.len()],
                target: target.to_vec(),
            }
        }

        fn compute_grad(&mut self) {
            for i in 0..self.x.len() {
                self.g[i] = self.x[i] - self.target[i];
            }
        }

        fn groups(&mut self) -> Vec<ParamGroup<'_>> {
            vec![ParamGroup {
                param: &mut self.x,
                grad: &self.g,
                name: "x",
            }]
        }

        fn dist(&self) -> f64 {
            self.x
                .iter()
                .zip(&self.target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        }
    }

    fn optimizers() -> Vec<Box<dyn Optimizer>> {
        vec![
            Box::new(Sgd::new(0.2)),
            Box::new(Sgd::with_momentum(0.1, 0.9)),
            Box::new(Sgd::with_nesterov(0.1, 0.9)),
            Box::new(Adam::new(0.3)),
            Box::new(AdamW::new(0.3, 1e-4)),
            Box::new(RmsProp::new(0.1)),
        ]
    }

    #[test]
    fn all_optimizers_converge_on_quadratic() {
        for mut opt in optimizers() {
            let mut q = Quad::new(&[5.0, -3.0, 0.5], &[1.0, 2.0, -1.0]);
            for _ in 0..500 {
                q.compute_grad();
                opt.step(&mut q.groups());
            }
            assert!(
                q.dist() < 1e-2,
                "{} did not converge: dist={}",
                opt.name(),
                q.dist()
            );
        }
    }

    #[test]
    fn sgd_step_is_exact() {
        let mut q = Quad::new(&[2.0], &[0.0]);
        let mut opt = Sgd::new(0.5);
        q.compute_grad();
        opt.step(&mut q.groups());
        assert!((q.x[0] - 1.0).abs() < 1e-12); // 2 - 0.5*2
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first ADAM step is ≈ lr * sign(g).
        let mut q = Quad::new(&[10.0], &[0.0]);
        let mut opt = Adam::new(0.01);
        q.compute_grad();
        opt.step(&mut q.groups());
        assert!((q.x[0] - (10.0 - 0.01)).abs() < 1e-6);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn adamw_decays_weights_without_gradient() {
        let mut x = vec![1.0];
        let g = vec![0.0];
        let mut opt = AdamW::new(0.1, 0.5);
        let mut groups = vec![ParamGroup {
            param: &mut x,
            grad: &g,
            name: "x",
        }];
        opt.step(&mut groups);
        // Pure decay (gradient is zero): x *= (1 - lr*wd) = 0.95.
        assert!((x[0] - 0.95).abs() < 1e-9);
    }

    #[test]
    fn learning_rate_is_settable() {
        for mut opt in optimizers() {
            opt.set_learning_rate(0.123);
            assert_eq!(opt.learning_rate(), 0.123);
        }
    }

    #[test]
    #[should_panic(expected = "group structure changed")]
    fn rejects_changing_group_structure() {
        let mut opt = Adam::new(0.1);
        let mut a = vec![0.0; 3];
        let ga = vec![0.0; 3];
        opt.step(&mut [ParamGroup {
            param: &mut a,
            grad: &ga,
            name: "a",
        }]);
        let mut b = vec![0.0; 5];
        let gb = vec![0.0; 5];
        opt.step(&mut [ParamGroup {
            param: &mut b,
            grad: &gb,
            name: "b",
        }]);
    }

    /// A two-group [`Layer`] over [`Quad`] states, for exercising the
    /// visitor-based optimizer path.
    struct QuadLayer {
        a: Quad,
        b: Quad,
    }

    impl Layer for QuadLayer {
        fn forward(&mut self, input: &pde_tensor::Tensor4, _train: bool) -> pde_tensor::Tensor4 {
            input.clone()
        }
        fn backward(&mut self, grad_out: &pde_tensor::Tensor4) -> pde_tensor::Tensor4 {
            grad_out.clone()
        }
        fn zero_grad(&mut self) {}
        fn param_groups(&mut self) -> Vec<ParamGroup<'_>> {
            vec![
                ParamGroup {
                    param: &mut self.a.x,
                    grad: &self.a.g,
                    name: "a",
                },
                ParamGroup {
                    param: &mut self.b.x,
                    grad: &self.b.g,
                    name: "b",
                },
            ]
        }
        fn param_count(&self) -> usize {
            self.a.x.len() + self.b.x.len()
        }
        fn describe(&self) -> String {
            "QuadLayer".into()
        }
    }

    #[test]
    fn export_import_state_resumes_bitwise() {
        // Run N steps, snapshot state, keep stepping the original; a fresh
        // optimizer fed the snapshot must produce bitwise-identical
        // parameters — the invariant checkpoint/resume relies on. Catches
        // any state field missing from export (e.g. ADAM's step counter,
        // whose bias correction differs at t=6 vs t=1).
        for (mut orig, mut resumed) in optimizers().into_iter().zip(optimizers()) {
            let mut q = Quad::new(&[5.0, -3.0, 0.5], &[1.0, 2.0, -1.0]);
            for _ in 0..5 {
                q.compute_grad();
                orig.step(&mut q.groups());
            }
            let mut q2 = Quad::new(&q.x, &q.target);
            resumed.import_state(orig.export_state()).unwrap();
            for _ in 0..5 {
                q.compute_grad();
                orig.step(&mut q.groups());
                q2.compute_grad();
                resumed.step(&mut q2.groups());
            }
            assert_eq!(q.x, q2.x, "{}: resumed run diverged", orig.name());
            assert_eq!(
                orig.export_state(),
                resumed.export_state(),
                "{}: states diverged after resume",
                orig.name()
            );
        }
    }

    #[test]
    fn import_state_rejects_wrong_slots() {
        let mut adam = Adam::new(0.1);
        let sgd_state = Sgd::new(0.1).export_state();
        assert!(adam.import_state(sgd_state).is_err());
    }

    #[test]
    fn step_visit_matches_step_bitwise() {
        for (mut by_slice, mut by_visit) in optimizers().into_iter().zip(optimizers()) {
            let fresh = || QuadLayer {
                a: Quad::new(&[5.0, -3.0, 0.5], &[1.0, 2.0, -1.0]),
                b: Quad::new(&[0.25, 8.0], &[-2.0, 0.0]),
            };
            let mut net_s = fresh();
            let mut net_v = fresh();
            for _ in 0..25 {
                net_s.a.compute_grad();
                net_s.b.compute_grad();
                by_slice.step(&mut net_s.param_groups());
                net_v.a.compute_grad();
                net_v.b.compute_grad();
                by_visit.step_visit(&mut net_v);
            }
            assert_eq!(
                net_s.a.x,
                net_v.a.x,
                "{}: group a diverged",
                by_slice.name()
            );
            assert_eq!(
                net_s.b.x,
                net_v.b.x,
                "{}: group b diverged",
                by_slice.name()
            );
        }
    }
}
