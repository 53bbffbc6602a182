//! The finite-volume solver: spatial residual + Runge–Kutta time stepping.
//!
//! The residual is a row sweep over the four field planes. Per row it
//! evaluates one line of x-interface fluxes and one line of y-interface
//! fluxes above the row; the line below is the previous row's line above,
//! so every interface flux is computed once. Each flux line performs the
//! operations of [`rusanov_x`] / [`rusanov_y`] in their order, so the sweep
//! gives the per-interface definition's bits (a unit test pins this). Rust
//! never contracts a multiply and an add into an FMA, so the vectorised
//! loops give the scalar bits too. All buffers are sized in
//! [`EulerSolver::new`]; a step allocates nothing.
//!
//! [`rusanov_x`]: crate::flux::rusanov_x
//! [`rusanov_y`]: crate::flux::rusanov_y

use crate::bc::{Boundary, Edge};
use crate::config::{Background, SolverConfig};
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
    /// The SSP-RK2 stage state `q1`, overwritten every step.
    stage: EulerState,
    sweep: RowSweep,
    time: f64,
    steps: u64,
}

impl EulerSolver {
    /// Creates a solver with the given configuration, boundary family and
    /// initial condition.
    pub fn new(config: SolverConfig, boundary: Boundary, ic: &InitialCondition) -> Self {
        config.validate();
        let state = ic.evaluate(&config);
        Self {
            config,
            boundary,
            state,
            stage: EulerState::zeros(config.ny, config.nx),
            sweep: RowSweep::new(config.ny, config.nx),
            time: 0.0,
            steps: 0,
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

    /// The stable time step currently in use.
    pub fn dt(&self) -> f64 {
        self.config.dt()
    }

    /// Advances one CFL-stable time step with SSP-RK2 (Heun):
    /// `q1 = q + dt f(q)`, then `q ← ½q + ½(q1 + dt f(q1))`.
    ///
    /// Each stage's update is written straight from the residual row. The
    /// residual reads its input through the padded planes, so the second
    /// stage may overwrite `q` in place.
    pub fn step(&mut self) {
        let dt = self.dt();
        let Self {
            config,
            boundary,
            state,
            stage,
            sweep,
            ..
        } = self;
        sweep.residual(config, *boundary, state, |f, i, k1| {
            let nx = k1.len();
            let q = &state.field(f).as_slice()[i * nx..(i + 1) * nx];
            let q1 = &mut stage.field_mut(f).as_mut_slice()[i * nx..(i + 1) * nx];
            for ((o, &q), &k) in q1.iter_mut().zip(q).zip(k1) {
                *o = q + dt * k;
            }
        });
        sweep.residual(config, *boundary, stage, |f, i, k2| {
            let nx = k2.len();
            let q1 = &stage.field(f).as_slice()[i * nx..(i + 1) * nx];
            let q = &mut state.field_mut(f).as_mut_slice()[i * nx..(i + 1) * nx];
            for ((o, &q1), &k) in q.iter_mut().zip(q1).zip(k2) {
                *o = 0.5 * *o + 0.5 * (q1 + dt * k);
            }
        });
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

/// One buffer per field.
type Planes = [Vec<f64>; N_FIELDS];

fn planes(len: usize) -> Planes {
    std::array::from_fn(|_| vec![0.0; len])
}

/// The scratch of the residual sweep, sized once for an `ny × nx` grid.
struct RowSweep {
    /// The input state with its ghost ring, (ny+2)×(nx+2) per field.
    padded: Planes,
    /// The current row's x-interface fluxes, nx + 1 per field.
    f_x: Planes,
    /// The y-interface fluxes below and above the current row, nx per field.
    g_down: Planes,
    g_up: Planes,
    /// The current row's residual, nx per field.
    res: Planes,
}

impl RowSweep {
    fn new(ny: usize, nx: usize) -> Self {
        Self {
            padded: planes((ny + 2) * (nx + 2)),
            f_x: planes(nx + 1),
            g_down: planes(nx),
            g_up: planes(nx),
            res: planes(nx),
        }
    }

    /// Computes `dq/dt = −∂F/∂x − ∂G/∂y` of `state` with Rusanov interface
    /// fluxes and hands it over row by row: `write(field, row, residual)`.
    fn residual(
        &mut self,
        config: &SolverConfig,
        boundary: Boundary,
        state: &EulerState,
        mut write: impl FnMut(usize, usize, &[f64]),
    ) {
        self.fill_padded(config, boundary, state);
        let (ny, nx) = (config.ny, config.nx);
        let pw = nx + 2;
        let (dx, dy) = config.domain.cell_size(nx, ny);
        let bg = &config.background;
        let lam_x = bg.max_speed_x();
        let lam_y = bg.max_speed_y();
        y_flux_line(
            row(&self.padded, 0, pw),
            row(&self.padded, 1, pw),
            bg,
            lam_y,
            &mut self.g_down,
        );
        for i in 0..ny {
            // Padded row index.
            let ip = i + 1;
            let centre = row(&self.padded, ip, pw);
            x_flux_line(centre, bg, lam_x, &mut self.f_x);
            y_flux_line(
                centre,
                row(&self.padded, ip + 1, pw),
                bg,
                lam_y,
                &mut self.g_up,
            );
            for f in 0..N_FIELDS {
                let (f_left, f_right) = (&self.f_x[f][..nx], &self.f_x[f][1..nx + 1]);
                let (g_up, g_down) = (&self.g_up[f][..nx], &self.g_down[f][..nx]);
                let res = &mut self.res[f][..nx];
                for j in 0..nx {
                    res[j] = -(f_right[j] - f_left[j]) / dx - (g_up[j] - g_down[j]) / dy;
                }
                write(f, i, res);
            }
            std::mem::swap(&mut self.g_down, &mut self.g_up);
        }
    }

    /// Fills the padded planes from `state` applying the boundary condition.
    fn fill_padded(&mut self, config: &SolverConfig, boundary: Boundary, state: &EulerState) {
        let (ny, nx) = (config.ny, config.nx);
        let pw = nx + 2;
        let bg = config.background;
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
        let write_ghost = |planes: &mut Planes, pi: usize, pj: usize, g: crate::flux::Q| {
            for f in 0..N_FIELDS {
                planes[f][pi * pw + pj] = g[f];
            }
        };
        // Left/right ghosts (x-normal edges).
        for i in 0..ny {
            let gl = boundary.ghost_state(&cell(i, 0), &cell(i, nx - 1), Edge::Left, &bg);
            let gr = boundary.ghost_state(&cell(i, nx - 1), &cell(i, 0), Edge::Right, &bg);
            write_ghost(&mut self.padded, i + 1, 0, gl);
            write_ghost(&mut self.padded, i + 1, nx + 1, gr);
        }
        // Bottom/top ghosts (y-normal edges).
        for j in 0..nx {
            let gb = boundary.ghost_state(&cell(0, j), &cell(ny - 1, j), Edge::Bottom, &bg);
            let gt = boundary.ghost_state(&cell(ny - 1, j), &cell(0, j), Edge::Top, &bg);
            write_ghost(&mut self.padded, 0, j + 1, gb);
            write_ghost(&mut self.padded, ny + 1, j + 1, gt);
        }
    }
}

/// Padded row `i` of every field, `pw` values each.
fn row(planes: &Planes, i: usize, pw: usize) -> [&[f64]; N_FIELDS] {
    std::array::from_fn(|f| &planes[f][i * pw..(i + 1) * pw])
}

/// The x-interface fluxes of one padded row: `out[f][j]` is
/// [`rusanov_x`](crate::flux::rusanov_x) between cells `j` and `j + 1`.
/// `γ·p_c` and `½λ` are the products that function evaluates first, so
/// hoisting them keeps its bits; `p'/ρ_c` stays a division.
fn x_flux_line(q: [&[f64]; N_FIELDS], bg: &Background, lambda: f64, out: &mut Planes) {
    let n = out[0].len();
    let [p, rho, u, v] = q.map(|row| &row[..n + 1]);
    let [o_p, o_rho, o_u, o_v] = out;
    let (o_p, o_rho, o_u, o_v) = (&mut o_p[..n], &mut o_rho[..n], &mut o_u[..n], &mut o_v[..n]);
    let (uc, rc, gp, hl) = (bg.u, bg.rho, bg.gamma * bg.p, 0.5 * lambda);
    for j in 0..n {
        let (pl, pr, rl, rr) = (p[j], p[j + 1], rho[j], rho[j + 1]);
        let (ul, ur, vl, vr) = (u[j], u[j + 1], v[j], v[j + 1]);
        o_p[j] = 0.5 * ((uc * pl + gp * ul) + (uc * pr + gp * ur)) - hl * (pr - pl);
        o_rho[j] = 0.5 * ((uc * rl + rc * ul) + (uc * rr + rc * ur)) - hl * (rr - rl);
        o_u[j] = 0.5 * ((uc * ul + pl / rc) + (uc * ur + pr / rc)) - hl * (ur - ul);
        o_v[j] = 0.5 * (uc * vl + uc * vr) - hl * (vr - vl);
    }
}

/// The y-interface fluxes between two padded rows, `lo` below `hi`:
/// `out[f][j]` is [`rusanov_y`](crate::flux::rusanov_y) between the cells
/// of interior column `j`, with the same hoisting as [`x_flux_line`].
fn y_flux_line(
    lo: [&[f64]; N_FIELDS],
    hi: [&[f64]; N_FIELDS],
    bg: &Background,
    lambda: f64,
    out: &mut Planes,
) {
    let n = out[0].len();
    let [p, rho, u, v] = lo.map(|row| &row[1..n + 1]);
    let [p_hi, rho_hi, u_hi, v_hi] = hi.map(|row| &row[1..n + 1]);
    let [o_p, o_rho, o_u, o_v] = out;
    let (o_p, o_rho, o_u, o_v) = (&mut o_p[..n], &mut o_rho[..n], &mut o_u[..n], &mut o_v[..n]);
    let (vc, rc, gp, hl) = (bg.v, bg.rho, bg.gamma * bg.p, 0.5 * lambda);
    for j in 0..n {
        let (pl, pr, rl, rr) = (p[j], p_hi[j], rho[j], rho_hi[j]);
        let (ul, ur, vl, vr) = (u[j], u_hi[j], v[j], v_hi[j]);
        o_p[j] = 0.5 * ((vc * pl + gp * vl) + (vc * pr + gp * vr)) - hl * (pr - pl);
        o_rho[j] = 0.5 * ((vc * rl + rc * vl) + (vc * rr + rc * vr)) - hl * (rr - rl);
        o_u[j] = 0.5 * (vc * ul + vc * ur) - hl * (ur - ul);
        o_v[j] = 0.5 * ((vc * vl + pl / rc) + (vc * vr + pr / rc)) - hl * (vr - vl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Domain;
    use crate::flux::{rusanov_x, rusanov_y};
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

    /// The per-interface definition of the residual: every cell gathers its
    /// neighbours from the padded planes and calls `rusanov_x` /
    /// `rusanov_y` on each of its four faces.
    fn reference_residual(sweep: &RowSweep, cfg: &SolverConfig) -> EulerState {
        let (ny, nx) = (cfg.ny, cfg.nx);
        let pw = nx + 2;
        let (dx, dy) = cfg.domain.cell_size(nx, ny);
        let bg = cfg.background;
        let padded_cell = |i: usize, j: usize| -> crate::flux::Q {
            std::array::from_fn(|f| sweep.padded[f][i * pw + j])
        };
        let mut out = EulerState::zeros(ny, nx);
        for i in 1..=ny {
            for j in 1..=nx {
                let qc = padded_cell(i, j);
                let f_left = rusanov_x(&padded_cell(i, j - 1), &qc, &bg, bg.max_speed_x());
                let f_right = rusanov_x(&qc, &padded_cell(i, j + 1), &bg, bg.max_speed_x());
                let g_down = rusanov_y(&padded_cell(i - 1, j), &qc, &bg, bg.max_speed_y());
                let g_up = rusanov_y(&qc, &padded_cell(i + 1, j), &bg, bg.max_speed_y());
                for f in 0..N_FIELDS {
                    out.field_mut(f)[(i - 1, j - 1)] =
                        -(f_right[f] - f_left[f]) / dx - (g_up[f] - g_down[f]) / dy;
                }
            }
        }
        out
    }

    #[test]
    fn row_sweep_residual_matches_the_per_interface_fluxes_bitwise() {
        // A mean flow so every flux term is live, and a grid whose cell
        // sizes are not powers of two, so a division turned into a
        // reciprocal multiply would show.
        let cfg = SolverConfig {
            background: Background {
                rho: 1.2,
                p: 1.0e5,
                u: 60.0,
                v: -35.0,
                gamma: 1.4,
            },
            domain: Domain {
                x0: 0.0,
                y0: 0.0,
                lx: 1.7,
                ly: 0.9,
            },
            nx: 13,
            ny: 11,
            cfl: 0.45,
        };
        let mut bits = 0x9E37_79B9_7F4A_7C15_u64;
        let mut state = EulerState::zeros(cfg.ny, cfg.nx);
        for f in 0..N_FIELDS {
            for v in state.field_mut(f).as_mut_slice() {
                bits ^= bits << 13;
                bits ^= bits >> 7;
                bits ^= bits << 17;
                *v = (bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            }
        }
        for boundary in [
            Boundary::Outflow,
            Boundary::Periodic,
            Boundary::Reflective,
            Boundary::Absorbing,
        ] {
            let mut sweep = RowSweep::new(cfg.ny, cfg.nx);
            let mut swept = EulerState::zeros(cfg.ny, cfg.nx);
            sweep.residual(&cfg, boundary, &state, |f, i, r| {
                swept.field_mut(f).as_mut_slice()[i * cfg.nx..(i + 1) * cfg.nx].copy_from_slice(r);
            });
            let reference = reference_residual(&sweep, &cfg);
            for f in 0..N_FIELDS {
                let a = swept.field(f).as_slice().iter().map(|v| v.to_bits());
                let b = reference.field(f).as_slice().iter().map(|v| v.to_bits());
                assert!(
                    a.eq(b),
                    "{boundary:?}: field {f} differs from the reference"
                );
            }
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
