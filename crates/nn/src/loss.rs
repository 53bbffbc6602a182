//! Loss functions with analytic gradients.
//!
//! The paper trains with MAPE (its Eq. (7)) and argues it beats MSE when
//! field magnitudes differ by orders of magnitude; MSE is here for that
//! loss ablation (experiment X4 in DESIGN.md).

use pde_tensor::Tensor4;

/// A scalar loss over `(prediction, target)` batches with an analytic
/// gradient w.r.t. the prediction.
///
/// A loss is one per-element body, [`Loss::term_and_grad`], and the
/// scale [`Loss::finish`] puts on the sum of its terms. Every other method
/// runs that body over a batch in element order with one running sum, so
/// the trainer's fused loss — which cuts each target from the snapshots
/// and writes the gradient over the prediction — gets the same bits as
/// [`Loss::value_and_grad_into`] on a filled target batch.
pub trait Loss: Send + Sync {
    /// The per-element body: adds the term of prediction `*p` against
    /// target `t` to `sum` and overwrites `*p` with `dL/dp`, for a batch of
    /// `m` elements.
    fn term_and_grad(&self, p: &mut f64, t: f64, m: f64, sum: &mut f64);

    /// The loss of a batch of `m` elements whose terms add up to `sum`.
    fn finish(&self, sum: f64, m: f64) -> f64;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Loss value alone (no gradient allocation).
    fn value(&self, pred: &Tensor4, target: &Tensor4) -> f64 {
        check(pred, target, self.name());
        let m = pred.len() as f64;
        let mut sum = 0.0;
        for (&p, &t) in pred.as_slice().iter().zip(target.as_slice()) {
            // The gradient lands in a copy and is dropped.
            let mut g = p;
            self.term_and_grad(&mut g, t, m, &mut sum);
        }
        self.finish(sum, m)
    }

    /// Loss value and `dL/d(pred)` in one pass, the gradient written into a
    /// caller-owned tensor (resized in place): `pred` copied into `grad`,
    /// then the per-element body over it.
    fn value_and_grad_into(&self, pred: &Tensor4, target: &Tensor4, grad: &mut Tensor4) -> f64 {
        check(pred, target, self.name());
        let m = pred.len() as f64;
        grad.copy_from(pred);
        let mut sum = 0.0;
        for (g, &t) in grad.as_mut_slice().iter_mut().zip(target.as_slice()) {
            self.term_and_grad(g, t, m, &mut sum);
        }
        self.finish(sum, m)
    }

    /// [`Loss::value_and_grad_into`] into a freshly allocated gradient.
    fn value_and_grad(&self, pred: &Tensor4, target: &Tensor4) -> (f64, Tensor4) {
        let mut grad = Tensor4::zeros(0, 0, 0, 0);
        let v = self.value_and_grad_into(pred, target, &mut grad);
        (v, grad)
    }
}

fn check(pred: &Tensor4, target: &Tensor4, what: &str) {
    assert_eq!(
        pred.shape(),
        target.shape(),
        "{what}: prediction/target shape mismatch"
    );
    assert!(!pred.is_empty(), "{what}: empty tensors");
}

/// Mean squared error `1/m Σ (p-t)²`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mse;

impl Loss for Mse {
    #[inline]
    fn term_and_grad(&self, p: &mut f64, t: f64, m: f64, sum: &mut f64) {
        let d = *p - t;
        *sum += d * d;
        *p = 2.0 * d / m;
    }

    fn finish(&self, sum: f64, m: f64) -> f64 {
        sum / m
    }

    fn name(&self) -> &'static str {
        "MSE"
    }
}

/// Mean absolute percentage error (paper Eq. (7)), in percent:
/// `100/m Σ |p-t| / max(|t|, floor)`.
///
/// The `floor` guards against division by (near-)zero targets; the paper's
/// pressure-perturbation fields pass through zero at the outflow boundary,
/// so a raw MAPE would be unbounded. `floor = 1e-3` relative to O(1) fields
/// is the default.
#[derive(Clone, Copy, Debug)]
pub struct Mape {
    /// Minimum magnitude used for the denominator.
    pub floor: f64,
}

impl Mape {
    /// MAPE with the given denominator floor.
    ///
    /// # Panics
    /// If `floor` is not strictly positive.
    pub fn new(floor: f64) -> Self {
        assert!(floor > 0.0, "Mape: floor must be > 0");
        Self { floor }
    }
}

impl Default for Mape {
    fn default() -> Self {
        Self::new(1e-3)
    }
}

impl Loss for Mape {
    #[inline]
    fn term_and_grad(&self, p: &mut f64, t: f64, m: f64, sum: &mut f64) {
        let denom = t.abs().max(self.floor);
        let d = *p - t;
        *sum += d.abs() / denom;
        *p = 100.0 * d.signum() / (denom * m);
    }

    fn finish(&self, sum: f64, m: f64) -> f64 {
        100.0 * sum / m
    }

    fn name(&self) -> &'static str {
        "MAPE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[f64]) -> Tensor4 {
        Tensor4::from_vec(1, 1, 1, vals.len(), vals.to_vec())
    }

    fn fd_check(loss: &dyn Loss, pred: &Tensor4, target: &Tensor4, tol: f64) {
        let (_, grad) = loss.value_and_grad(pred, target);
        let eps = 1e-7;
        for k in 0..pred.len() {
            let mut pp = pred.clone();
            pp.as_mut_slice()[k] += eps;
            let mut pm = pred.clone();
            pm.as_mut_slice()[k] -= eps;
            let fd = (loss.value(&pp, target) - loss.value(&pm, target)) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[k]).abs() < tol * (1.0 + fd.abs()),
                "{}: grad mismatch at {k}: fd={fd} analytic={}",
                loss.name(),
                grad.as_slice()[k]
            );
        }
    }

    #[test]
    fn mse_known_value() {
        let l = Mse;
        assert!((l.value(&t(&[1.0, 3.0]), &t(&[0.0, 1.0])) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mape_known_value() {
        let l = Mape::new(1e-3);
        // |1.1-1|/1 = 0.1, |1.8-2|/2 = 0.1 → 10 %.
        let v = l.value(&t(&[1.1, 1.8]), &t(&[1.0, 2.0]));
        assert!((v - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mape_floor_prevents_blowup() {
        let l = Mape::new(0.5);
        let v = l.value(&t(&[1.0]), &t(&[0.0]));
        assert!((v - 200.0).abs() < 1e-9);
        assert!(v.is_finite());
    }

    #[test]
    fn all_losses_zero_at_target() {
        let x = t(&[0.3, -1.0, 2.0]);
        for l in losses() {
            assert_eq!(l.value(&x, &x), 0.0, "{}", l.name());
            let (v, g) = l.value_and_grad(&x, &x);
            assert_eq!(v, 0.0);
            // Gradient at the minimum may be a subgradient (MAPE) but must
            // be finite.
            assert!(g.as_slice().iter().all(|x| x.is_finite()));
        }
    }

    fn losses() -> Vec<Box<dyn Loss>> {
        vec![Box::new(Mse), Box::new(Mape::default())]
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Keep predictions away from MAPE's |p-t|=0 kink.
        let pred = t(&[1.4, -0.7, 2.4, 0.9]);
        let target = t(&[1.0, -1.0, 0.5, 1.2]);
        for l in losses() {
            fd_check(l.as_ref(), &pred, &target, 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_shape_mismatch() {
        let _ = Mse.value(&t(&[1.0]), &t(&[1.0, 2.0]));
    }
}
