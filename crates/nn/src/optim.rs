//! First-order optimizers.
//!
//! ADAM (the paper's choice, §II with Eqs. (3)–(6)) plus SGD (with optional
//! momentum) and RMSProp for the optimizer ablation (experiment X3 in
//! DESIGN.md).
//!
//! An optimizer is driven with the parameter groups of a network:
//!
//! ```
//! use pde_nn::{Adam, Optimizer, Conv2d};
//! let mut net = Conv2d::same(1, 1, 3);
//! let mut opt = Adam::new(1e-3);
//! // ... forward / loss / backward ...
//! opt.step_visit(&mut net);
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
/// order [`Optimizer::step_visit`] keys its state by.
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
    /// Applies one update step over a network's parameter groups via
    /// [`Layer::visit_param_groups`], using the gradients currently stored
    /// in them. Must be called with the same group structure every time.
    /// After per-group state has been created on the first call, it
    /// performs no heap allocation.
    fn step_visit(&mut self, net: &mut dyn Layer);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Overrides the learning rate (the trainer sets it every epoch from
    /// `TrainConfig::rate`).
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

/// Lazily grows an optimizer's per-group state list on the first visit of
/// group `idx`, then insists the structure is unchanged.
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

/// Stochastic gradient descent, optionally with classical momentum.
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Vec<f64>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with classical momentum `mu` (paper Eq. (3) family).
    pub fn with_momentum(lr: f64, mu: f64) -> Self {
        assert!((0.0..1.0).contains(&mu), "Sgd: momentum must be in [0, 1)");
        Self {
            lr,
            momentum: mu,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step_visit(&mut self, net: &mut dyn Layer) {
        let (lr, momentum) = (self.lr, self.momentum);
        let velocity = &mut self.velocity;
        let mut idx = 0;
        net.visit_param_groups(&mut |g| {
            ensure_group_state(velocity, idx, &g);
            if momentum == 0.0 {
                for (p, &dg) in g.param.iter_mut().zip(g.grad) {
                    *p -= lr * dg;
                }
            } else {
                for ((p, &dg), v) in g.param.iter_mut().zip(g.grad).zip(&mut velocity[idx]) {
                    *v = momentum * *v + dg;
                    *p -= lr * *v;
                }
            }
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

impl Optimizer for Adam {
    fn step_visit(&mut self, net: &mut dyn Layer) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m_state, v_state) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        net.visit_param_groups(&mut |g| {
            ensure_group_state(m_state, idx, &g);
            ensure_group_state(v_state, idx, &g);
            for (((p, &dg), mi), vi) in g
                .param
                .iter_mut()
                .zip(g.grad)
                .zip(&mut m_state[idx])
                .zip(&mut v_state[idx])
            {
                *mi = beta1 * *mi + (1.0 - beta1) * dg;
                *vi = beta2 * *vi + (1.0 - beta2) * dg * dg;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
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

impl Optimizer for RmsProp {
    fn step_visit(&mut self, net: &mut dyn Layer) {
        let (lr, rho, eps) = (self.lr, self.rho, self.eps);
        let sq_state = &mut self.sq;
        let mut idx = 0;
        net.visit_param_groups(&mut |g| {
            ensure_group_state(sq_state, idx, &g);
            for ((p, &dg), s) in g.param.iter_mut().zip(g.grad).zip(&mut sq_state[idx]) {
                *s = rho * *s + (1.0 - rho) * dg * dg;
                *p -= lr * dg / (s.sqrt() + eps);
            }
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
    use crate::layer::InputGrad;
    use pde_tensor::Tensor4;

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

        fn dist(&self) -> f64 {
            self.x
                .iter()
                .zip(&self.target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        }
    }

    /// A [`Layer`] with one parameter group per [`Quad`], so the optimizers
    /// run through the same `step_visit` path training does.
    struct QuadLayer(Vec<Quad>);

    impl QuadLayer {
        fn one(start: &[f64], target: &[f64]) -> Self {
            Self(vec![Quad::new(start, target)])
        }

        fn two() -> Self {
            Self(vec![
                Quad::new(&[5.0, -3.0, 0.5], &[1.0, 2.0, -1.0]),
                Quad::new(&[0.25, 8.0], &[-2.0, 0.0]),
            ])
        }

        /// Computes every group's gradient, then takes one optimizer step.
        fn step(&mut self, opt: &mut dyn Optimizer) {
            for q in &mut self.0 {
                q.compute_grad();
            }
            opt.step_visit(self);
        }

        fn params(&self) -> Vec<Vec<f64>> {
            self.0.iter().map(|q| q.x.clone()).collect()
        }
    }

    impl Layer for QuadLayer {
        fn forward_chain(&mut self, input: &Tensor4, out: &mut Tensor4) {
            out.copy_from(input);
        }
        fn backward_chain(&mut self, act: &mut Tensor4, grad_out: &Tensor4, want: InputGrad) {
            want.store(act, grad_out);
        }
        fn zero_grad(&mut self) {}
        fn param_groups(&mut self) -> Vec<ParamGroup<'_>> {
            self.0
                .iter_mut()
                .map(|q| ParamGroup {
                    param: &mut q.x,
                    grad: &q.g,
                    name: "x",
                })
                .collect()
        }
        fn param_count(&self) -> usize {
            self.0.iter().map(|q| q.x.len()).sum()
        }
        fn describe(&self) -> String {
            "QuadLayer".into()
        }
    }

    fn optimizers() -> Vec<Box<dyn Optimizer>> {
        vec![
            Box::new(Sgd::new(0.2)),
            Box::new(Sgd::with_momentum(0.1, 0.9)),
            Box::new(Adam::new(0.3)),
            Box::new(RmsProp::new(0.1)),
        ]
    }

    #[test]
    fn all_optimizers_converge_on_quadratic() {
        for mut opt in optimizers() {
            let mut q = QuadLayer::one(&[5.0, -3.0, 0.5], &[1.0, 2.0, -1.0]);
            for _ in 0..500 {
                q.step(opt.as_mut());
            }
            let dist = q.0[0].dist();
            assert!(dist < 1e-2, "{} did not converge: dist={dist}", opt.name());
        }
    }

    #[test]
    fn sgd_step_is_exact() {
        let mut q = QuadLayer::one(&[2.0], &[0.0]);
        q.step(&mut Sgd::new(0.5));
        assert!((q.0[0].x[0] - 1.0).abs() < 1e-12); // 2 - 0.5*2
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first ADAM step is ≈ lr * sign(g).
        let mut q = QuadLayer::one(&[10.0], &[0.0]);
        let mut opt = Adam::new(0.01);
        q.step(&mut opt);
        assert!((q.0[0].x[0] - (10.0 - 0.01)).abs() < 1e-6);
        assert_eq!(opt.steps(), 1);
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
        QuadLayer::one(&[0.0; 3], &[0.0; 3]).step(&mut opt);
        QuadLayer::one(&[0.0; 5], &[0.0; 5]).step(&mut opt);
    }

    #[test]
    fn export_import_state_resumes_bitwise() {
        // Run N steps, snapshot state, keep stepping the original; a fresh
        // optimizer fed the snapshot must produce bitwise-identical
        // parameters — the invariant checkpoint/resume relies on. Catches
        // any state field missing from export (e.g. ADAM's step counter,
        // whose bias correction differs at t=6 vs t=1).
        for (mut orig, mut resumed) in optimizers().into_iter().zip(optimizers()) {
            let mut q = QuadLayer::two();
            for _ in 0..5 {
                q.step(orig.as_mut());
            }
            let mut q2 = QuadLayer(
                q.0.iter()
                    .map(|quad| Quad::new(&quad.x, &quad.target))
                    .collect(),
            );
            resumed.import_state(orig.export_state()).unwrap();
            for _ in 0..5 {
                q.step(orig.as_mut());
                q2.step(resumed.as_mut());
            }
            assert_eq!(
                q.params(),
                q2.params(),
                "{}: resumed run diverged",
                orig.name()
            );
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
}
