//! The finite-volume solver: spatial residual + Runge–Kutta time stepping.

use crate::bc::{Boundary, Edge};
use crate::config::SolverConfig;
use crate::flux::{rusanov_x, rusanov_y, Q};
use crate::ic::InitialCondition;
use crate::state::{EulerState, N_FIELDS};

/// A 2-D linearized-Euler solver instance.
///
/// Owns the current state, advances it in stable CFL-limited steps and hands
/// out snapshots. One ghost-cell layer implements the boundary conditions.
pub struct EulerSolver {
    config: SolverConfig,
    boundary: Boundary,
    state: EulerState,
    time: f64,
    steps: u64,
    /// Scratch padded planes, (ny+2)×(nx+2) per field, reused across stages.
    padded: Vec<Vec<f64>>,
}

impl EulerSolver {
    /// Creates a solver with the given configuration, boundary family and
    /// initial condition.
    pub fn new(config: SolverConfig, boundary: Boundary, ic: &InitialCondition) -> Self {
        config.validate();
        let state = ic.evaluate(&config);
        let pad_len = (config.ny + 2) * (config.nx + 2);
        Self {
            config,
            boundary,
            state,
            time: 0.0,
            steps: 0,
            padded: vec![vec![0.0; pad_len]; N_FIELDS],
        }
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Borrow of the current state.
    pub fn state(&self) -> &EulerState {
        &self.state
    }

    /// Replaces the state (used by restart tests).
    pub fn set_state(&mut self, s: EulerState) {
        assert_eq!(
            s.shape(),
            (self.config.ny, self.config.nx),
            "set_state: shape mismatch"
        );
        self.state = s;
    }

    /// The stable time step currently in use.
    pub fn dt(&self) -> f64 {
        self.config.dt()
    }

    /// Fills the padded planes from `state` applying the boundary condition.
    fn fill_padded(&mut self, state: &EulerState) {
        let (ny, nx) = (self.config.ny, self.config.nx);
        let pw = nx + 2;
        let bg = self.config.background;
        // Interior copy per field.
        for f in 0..N_FIELDS {
            let src = state.field(f).as_slice();
            let dst = &mut self.padded[f];
            for i in 0..ny {
                dst[(i + 1) * pw + 1..(i + 1) * pw + 1 + nx]
                    .copy_from_slice(&src[i * nx..(i + 1) * nx]);
            }
            // Corners are never read by the 5-point flux stencil; zero them
            // for determinism.
            dst[0] = 0.0;
            dst[pw - 1] = 0.0;
            dst[(ny + 1) * pw] = 0.0;
            dst[(ny + 1) * pw + pw - 1] = 0.0;
        }
        let cell = |i: usize, j: usize| -> crate::flux::Q {
            std::array::from_fn(|f| state.field(f).as_slice()[i * nx + j])
        };
        let write_ghost = |planes: &mut Vec<Vec<f64>>, pi: usize, pj: usize, g: crate::flux::Q| {
            for f in 0..N_FIELDS {
                planes[f][pi * pw + pj] = g[f];
            }
        };
        // Left/right ghosts (x-normal edges).
        for i in 0..ny {
            let gl = self
                .boundary
                .ghost_state(&cell(i, 0), &cell(i, nx - 1), Edge::Left, &bg);
            let gr = self
                .boundary
                .ghost_state(&cell(i, nx - 1), &cell(i, 0), Edge::Right, &bg);
            write_ghost(&mut self.padded, i + 1, 0, gl);
            write_ghost(&mut self.padded, i + 1, nx + 1, gr);
        }
        // Bottom/top ghosts (y-normal edges).
        for j in 0..nx {
            let gb = self
                .boundary
                .ghost_state(&cell(0, j), &cell(ny - 1, j), Edge::Bottom, &bg);
            let gt = self
                .boundary
                .ghost_state(&cell(ny - 1, j), &cell(0, j), Edge::Top, &bg);
            write_ghost(&mut self.padded, 0, j + 1, gb);
            write_ghost(&mut self.padded, ny + 1, j + 1, gt);
        }
    }

    /// Computes `dq/dt = −∂F/∂x − ∂G/∂y` with Rusanov interface fluxes.
    fn rhs(&mut self, state: &EulerState) -> EulerState {
        self.fill_padded(state);
        let (ny, nx) = (self.config.ny, self.config.nx);
        let pw = nx + 2;
        let (dx, dy) = self.config.domain.cell_size(nx, ny);
        let bg = self.config.background;
        let lam_x = bg.max_speed_x();
        let lam_y = bg.max_speed_y();

        let q_at = |i: usize, j: usize| -> Q {
            // (i, j) in padded coordinates.
            std::array::from_fn(|f| self.padded[f][i * pw + j])
        };

        let mut out = EulerState::zeros(ny, nx);
        for i in 0..ny {
            // Padded row index.
            let ip = i + 1;
            // Sweep x-fluxes along the row: F at j-1/2 carried forward.
            let mut f_left = rusanov_x(&q_at(ip, 0), &q_at(ip, 1), &bg, lam_x);
            for j in 0..nx {
                let jp = j + 1;
                let qc = q_at(ip, jp);
                let f_right = rusanov_x(&qc, &q_at(ip, jp + 1), &bg, lam_x);
                let g_down = rusanov_y(&q_at(ip - 1, jp), &qc, &bg, lam_y);
                let g_up = rusanov_y(&qc, &q_at(ip + 1, jp), &bg, lam_y);
                for f in 0..N_FIELDS {
                    out.field_mut(f).as_mut_slice()[i * nx + j] =
                        -(f_right[f] - f_left[f]) / dx - (g_up[f] - g_down[f]) / dy;
                }
                f_left = f_right;
            }
        }
        out
    }

    /// Advances one CFL-stable time step with SSP-RK2 (Heun).
    pub fn step(&mut self) {
        let dt = self.dt();
        let q0 = self.state.clone();
        // q1 = q + dt f(q); q ← ½q + ½(q1 + dt f(q1)).
        let k1 = self.rhs(&q0);
        let mut q1 = q0.clone();
        q1.axpy(dt, &k1);
        let k2 = self.rhs(&q1);
        q1.axpy(dt, &k2);
        self.state = EulerState::lincomb(0.5, &q0, 0.5, &q1);
        self.time += dt;
        self.steps += 1;
    }

    /// Advances `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advances until `time >= t_end` (last step not shortened; the final
    /// time may overshoot by at most one `dt`).
    pub fn run_until(&mut self, t_end: f64) {
        while self.time < t_end {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Background, Domain};
    use crate::state::{IDX_P, IDX_RHO};

    fn unit_config(n: usize) -> SolverConfig {
        SolverConfig {
            background: Background::unit(),
            domain: Domain::unit(),
            nx: n,
            ny: n,
            cfl: 0.4,
        }
    }

    #[test]
    fn quiescent_state_stays_quiescent() {
        let cfg = unit_config(16);
        let mut s = EulerSolver::new(cfg, Boundary::Outflow, &InitialCondition::Quiescent);
        s.run(20);
        assert_eq!(s.state().max_abs(), 0.0);
        assert_eq!(s.steps(), 20);
        assert!(s.time() > 0.0);
    }

    #[test]
    fn pulse_decays_under_paper_outflow() {
        // The paper's "outflow" (p' = 0) is a pressure-release boundary:
        // it reflects with inverted phase, so decay is partial — energy
        // leaves only through the upwind part of the numerical flux. Assert
        // bounded, decaying behaviour rather than full absorption.
        let cfg = unit_config(32);
        let ic = InitialCondition::GaussianPulse {
            x0: 0.5,
            y0: 0.5,
            half_width: 0.15,
            amplitude: 0.5,
        };
        let mut s = EulerSolver::new(cfg, Boundary::Outflow, &ic);
        let initial_max = s.state().max_abs();
        assert!(initial_max > 0.4);
        s.run_until(2.0);
        let late_max = s.state().max_abs();
        assert!(late_max.is_finite());
        assert!(
            late_max < 0.6 * initial_max,
            "pulse should decay under outflow: {late_max} vs {initial_max}"
        );
    }

    #[test]
    fn absorbing_boundary_removes_nearly_all_energy() {
        // The characteristic absorbing condition should let the pulse exit:
        // after two domain-crossing times almost nothing remains.
        let cfg = unit_config(32);
        let bg = cfg.background;
        let ic = InitialCondition::GaussianPulse {
            x0: 0.5,
            y0: 0.5,
            half_width: 0.15,
            amplitude: 0.5,
        };
        let mut s = EulerSolver::new(cfg, Boundary::Absorbing, &ic);
        let e0 = s.state().acoustic_energy(bg.rho, bg.sound_speed());
        s.run_until(2.0);
        let e1 = s.state().acoustic_energy(bg.rho, bg.sound_speed());
        assert!(
            e1 < 0.05 * e0,
            "absorbing boundary left too much energy: {e1} vs {e0}"
        );
    }

    #[test]
    fn periodic_mass_is_conserved() {
        let cfg = unit_config(24);
        let ic = InitialCondition::GaussianPulse {
            x0: 0.5,
            y0: 0.5,
            half_width: 0.1,
            amplitude: 0.3,
        };
        let mut s = EulerSolver::new(cfg, Boundary::Periodic, &ic);
        let m0 = s.state().field(IDX_RHO).sum();
        let p0 = s.state().field(IDX_P).sum();
        s.run(100);
        let m1 = s.state().field(IDX_RHO).sum();
        let p1 = s.state().field(IDX_P).sum();
        assert!(
            (m0 - m1).abs() < 1e-10 * (1.0 + m0.abs()),
            "density sum drifted: {m0} -> {m1}"
        );
        assert!(
            (p0 - p1).abs() < 1e-10 * (1.0 + p0.abs()),
            "pressure sum drifted: {p0} -> {p1}"
        );
    }

    #[test]
    fn periodic_energy_never_grows() {
        let cfg = unit_config(24);
        let ic = InitialCondition::GaussianPulse {
            x0: 0.5,
            y0: 0.5,
            half_width: 0.12,
            amplitude: 0.4,
        };
        let bg = cfg.background;
        let mut s = EulerSolver::new(cfg, Boundary::Periodic, &ic);
        let mut prev = s.state().acoustic_energy(bg.rho, bg.sound_speed());
        for _ in 0..50 {
            s.step();
            let e = s.state().acoustic_energy(bg.rho, bg.sound_speed());
            assert!(e <= prev * (1.0 + 1e-12), "energy grew: {prev} -> {e}");
            prev = e;
        }
    }

    #[test]
    fn boundary_energy_ordering_is_physical() {
        // Reflective walls keep the most energy, the paper's pressure-release
        // "outflow" loses some, the characteristic absorbing condition loses
        // almost everything.
        let ic = InitialCondition::GaussianPulse {
            x0: 0.5,
            y0: 0.5,
            half_width: 0.12,
            amplitude: 0.4,
        };
        let run = |b: Boundary| {
            let cfg = unit_config(32);
            let bg = cfg.background;
            let mut s = EulerSolver::new(cfg, b, &ic);
            s.run_until(1.5);
            s.state().acoustic_energy(bg.rho, bg.sound_speed())
        };
        let e_wall = run(Boundary::Reflective);
        let e_out = run(Boundary::Outflow);
        let e_abs = run(Boundary::Absorbing);
        assert!(
            e_wall > e_out,
            "wall {e_wall} should exceed outflow {e_out}"
        );
        assert!(
            e_out > 5.0 * e_abs,
            "outflow {e_out} should exceed absorbing {e_abs}"
        );
    }

    #[test]
    fn symmetric_pulse_preserves_symmetry() {
        // A centered pulse on a symmetric domain must stay mirror-symmetric.
        let cfg = unit_config(20);
        let ic = InitialCondition::GaussianPulse {
            x0: 0.5,
            y0: 0.5,
            half_width: 0.2,
            amplitude: 0.5,
        };
        let mut s = EulerSolver::new(cfg, Boundary::Outflow, &ic);
        s.run(30);
        let p = s.state().field(IDX_P);
        let n = 20;
        for i in 0..n {
            for j in 0..n {
                let mirror_x = p[(i, n - 1 - j)];
                let mirror_y = p[(n - 1 - i, j)];
                assert!(
                    (p[(i, j)] - mirror_x).abs() < 1e-12,
                    "x-symmetry broken at ({i},{j})"
                );
                assert!(
                    (p[(i, j)] - mirror_y).abs() < 1e-12,
                    "y-symmetry broken at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn all_time_schemes_run_stably() {
        // SSP-RK2 is the solver's one time scheme.
        let cfg = unit_config(16);
        let ic = InitialCondition::GaussianPulse {
            x0: 0.5,
            y0: 0.5,
            half_width: 0.15,
            amplitude: 0.5,
        };
        let mut s = EulerSolver::new(cfg, Boundary::Outflow, &ic);
        s.run(50);
        assert!(s.state().max_abs() < 10.0, "SSP-RK2 unstable");
    }
}
