//! Analytic reference solutions for solver verification.
//!
//! For a quiescent background (`u_c = v_c = 0`) the rightward acoustic
//! plane wave
//!
//! ```text
//! p'(x, t) = A sin(k (x − c t))
//! u'(x, t) = p' / (ρ_c c)
//! ρ'(x, t) = p' / c²
//! v'       = 0
//! ```
//!
//! solves the linearized Euler system exactly. On a periodic domain whose
//! width is an integer number of wavelengths this gives a closed-form state
//! at any time, which the grid-convergence tests compare against.

use crate::config::SolverConfig;
use crate::state::EulerState;

/// Exact plane-wave state at time `t` for wavenumber `k` and amplitude `a`.
///
/// Assumes a quiescent background (asserts `u_c = v_c = 0`).
pub fn plane_wave_x(cfg: &SolverConfig, k: f64, a: f64, t: f64) -> EulerState {
    let bg = cfg.background;
    assert!(
        bg.u == 0.0 && bg.v == 0.0,
        "plane_wave_x: analytic form assumes a quiescent background"
    );
    let c = bg.sound_speed();
    let (ny, nx) = (cfg.ny, cfg.nx);
    let mut s = EulerState::zeros(ny, nx);
    for i in 0..ny {
        for j in 0..nx {
            let (x, _) = cfg.domain.cell_center(nx, ny, i, j);
            let p = a * (k * (x - c * t)).sin();
            s.p[(i, j)] = p;
            s.rho[(i, j)] = p / (c * c);
            s.u[(i, j)] = p / (bg.rho * c);
        }
    }
    s
}

/// Discrete L2 error between two states, averaged over fields and cells.
pub fn l2_error(a: &EulerState, b: &EulerState) -> f64 {
    assert_eq!(a.shape(), b.shape(), "l2_error: shape mismatch");
    let mut sum = 0.0;
    let mut count = 0usize;
    for f in 0..crate::state::N_FIELDS {
        let xa = a.field(f).as_slice();
        let xb = b.field(f).as_slice();
        for (x, y) in xa.iter().zip(xb) {
            sum += (x - y) * (x - y);
            count += 1;
        }
    }
    (sum / count as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::Boundary;
    use crate::config::{Background, Domain};
    use crate::ic::InitialCondition;
    use crate::solver::EulerSolver;

    fn cfg(n: usize) -> SolverConfig {
        SolverConfig {
            background: Background::unit(),
            domain: Domain::unit(),
            nx: n,
            ny: n,
            cfl: 0.4,
        }
    }

    fn wave_error_at(n: usize, t_end: f64) -> f64 {
        let c = cfg(n);
        let k = 2.0 * std::f64::consts::PI; // one wavelength on [0,1]
        let ic = InitialCondition::PlaneWaveX { k, amplitude: 0.1 };
        let mut s = EulerSolver::new(c, Boundary::Periodic, &ic);
        s.run_until(t_end);
        let exact = plane_wave_x(&c, k, 0.1, s.time());
        l2_error(s.state(), &exact)
    }

    #[test]
    fn solver_converges_to_plane_wave() {
        // Rusanov + RK2 is formally first-order in space; halving h should
        // reduce the error by roughly 2× (allow ≥ 1.5× for pre-asymptotic
        // grids).
        let e32 = wave_error_at(32, 0.25);
        let e64 = wave_error_at(64, 0.25);
        let e128 = wave_error_at(128, 0.25);
        assert!(
            e32 > e64 && e64 > e128,
            "errors not decreasing: {e32} {e64} {e128}"
        );
        assert!(e32 / e64 > 1.5, "convergence ratio too low: {}", e32 / e64);
        assert!(
            e64 / e128 > 1.5,
            "convergence ratio too low: {}",
            e64 / e128
        );
    }

    #[test]
    fn plane_wave_error_small_on_fine_grid() {
        let e = wave_error_at(128, 0.1);
        assert!(e < 5e-3, "fine-grid error too large: {e}");
    }

    #[test]
    fn analytic_wave_is_periodic_in_time() {
        // After one full period T = λ/c = 1, the exact state returns.
        let c = cfg(16);
        let k = 2.0 * std::f64::consts::PI;
        let a = plane_wave_x(&c, k, 0.2, 0.0);
        let b = plane_wave_x(&c, k, 0.2, 1.0);
        assert!(l2_error(&a, &b) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quiescent background")]
    fn analytic_rejects_moving_background() {
        let mut c = cfg(8);
        c.background.u = 10.0;
        let _ = plane_wave_x(&c, 1.0, 0.1, 0.0);
    }
}
