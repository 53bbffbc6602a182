//! Solver configuration: background state, domain geometry, numerics.

/// The constant background the Euler equations are linearized around
/// (subscript `c` in the paper's Eq. (8)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Background {
    /// Background density `ρ_c` \[kg/m³\].
    pub rho: f64,
    /// Background pressure `p_c` \[Pa\].
    pub p: f64,
    /// Background x-velocity `u_c` \[m/s\].
    pub u: f64,
    /// Background y-velocity `v_c` \[m/s\].
    pub v: f64,
    /// Heat-capacity ratio γ.
    pub gamma: f64,
}

impl Background {
    /// The paper's test case (§IV-A): fluid at rest, `p_c = 1 bar`,
    /// `ρ_c = 1 kg/m³`, γ = 1.4.
    pub fn paper() -> Self {
        Self {
            rho: 1.0,
            p: 1.0e5,
            u: 0.0,
            v: 0.0,
            gamma: 1.4,
        }
    }

    /// A nondimensionalized quiescent background with unit sound speed
    /// (`ρ_c = 1`, `γ p_c = 1`). Handy for analytic tests.
    pub fn unit() -> Self {
        Self {
            rho: 1.0,
            p: 1.0 / 1.4,
            u: 0.0,
            v: 0.0,
            gamma: 1.4,
        }
    }

    /// Speed of sound `c = sqrt(γ p_c / ρ_c)`.
    pub fn sound_speed(&self) -> f64 {
        (self.gamma * self.p / self.rho).sqrt()
    }

    /// Largest signal speed in x: `|u_c| + c`.
    pub fn max_speed_x(&self) -> f64 {
        self.u.abs() + self.sound_speed()
    }

    /// Largest signal speed in y: `|v_c| + c`.
    pub fn max_speed_y(&self) -> f64 {
        self.v.abs() + self.sound_speed()
    }

    /// Sanity checks (positive density/pressure, γ > 1).
    pub fn validate(&self) {
        assert!(self.rho > 0.0, "Background: rho must be > 0");
        assert!(self.p > 0.0, "Background: p must be > 0");
        assert!(self.gamma > 1.0, "Background: gamma must be > 1");
    }
}

/// The rectangular computational domain `[x0, x0+lx] × [y0, y0+ly]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Domain {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Width.
    pub lx: f64,
    /// Height.
    pub ly: f64,
}

impl Domain {
    /// The paper's square domain centered at the origin, `[-1, 1]²`
    /// (the Gaussian pulse sits at `P(0, 0)`).
    pub fn paper() -> Self {
        Self {
            x0: -1.0,
            y0: -1.0,
            lx: 2.0,
            ly: 2.0,
        }
    }

    /// Unit square `[0, 1]²`.
    pub fn unit() -> Self {
        Self {
            x0: 0.0,
            y0: 0.0,
            lx: 1.0,
            ly: 1.0,
        }
    }

    /// Cell size for an `nx × ny` cell-centered grid.
    pub fn cell_size(&self, nx: usize, ny: usize) -> (f64, f64) {
        (self.lx / nx as f64, self.ly / ny as f64)
    }

    /// Center coordinates of cell `(i, j)` — `i` indexes y (row), `j`
    /// indexes x (column), matching the row-major grids of `pde-tensor`.
    pub fn cell_center(&self, nx: usize, ny: usize, i: usize, j: usize) -> (f64, f64) {
        let (dx, dy) = self.cell_size(nx, ny);
        (
            self.x0 + (j as f64 + 0.5) * dx,
            self.y0 + (i as f64 + 0.5) * dy,
        )
    }
}

/// Complete numerical configuration of one solver run.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Background state.
    pub background: Background,
    /// Domain geometry.
    pub domain: Domain,
    /// Cells in x.
    pub nx: usize,
    /// Cells in y.
    pub ny: usize,
    /// CFL number (≤ 1 for stability of the Rusanov scheme).
    pub cfl: f64,
}

impl SolverConfig {
    /// The paper's configuration at an `nx × ny` resolution (the paper's
    /// full-scale setup is `paper(256, 256)`).
    pub fn paper(nx: usize, ny: usize) -> Self {
        Self {
            background: Background::paper(),
            domain: Domain::paper(),
            nx,
            ny,
            cfl: 0.45,
        }
    }

    /// Stable time step from the CFL condition.
    pub fn dt(&self) -> f64 {
        let (dx, dy) = self.domain.cell_size(self.nx, self.ny);
        let sx = self.background.max_speed_x() / dx;
        let sy = self.background.max_speed_y() / dy;
        self.cfl / (sx + sy)
    }

    /// Sanity checks.
    pub fn validate(&self) {
        self.background.validate();
        assert!(
            self.nx >= 4 && self.ny >= 4,
            "SolverConfig: need at least 4x4 cells"
        );
        assert!(
            self.cfl > 0.0 && self.cfl <= 1.0,
            "SolverConfig: CFL must be in (0, 1]"
        );
        assert!(
            self.domain.lx > 0.0 && self.domain.ly > 0.0,
            "SolverConfig: degenerate domain"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_background_sound_speed() {
        let b = Background::paper();
        // c = sqrt(1.4e5 / 1) ≈ 374.17 m/s.
        assert!((b.sound_speed() - 374.165738).abs() < 1e-3);
    }

    #[test]
    fn unit_background_has_unit_sound_speed() {
        assert!((Background::unit().sound_speed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cell_centers_cover_domain_symmetrically() {
        let d = Domain::paper();
        let (x_first, y_first) = d.cell_center(4, 4, 0, 0);
        let (x_last, y_last) = d.cell_center(4, 4, 3, 3);
        assert!((x_first + x_last).abs() < 1e-12); // symmetric about 0
        assert!((y_first + y_last).abs() < 1e-12);
        assert!((x_first - (-0.75)).abs() < 1e-12);
        assert!((y_first - (-0.75)).abs() < 1e-12);
    }

    #[test]
    fn dt_scales_inversely_with_resolution() {
        let c = SolverConfig::paper(64, 64);
        let fine = SolverConfig::paper(128, 128);
        assert!((c.dt() / fine.dt() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn validate_rejects_bad_cfl() {
        let mut c = SolverConfig::paper(16, 16);
        c.cfl = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn validate_rejects_bad_gamma() {
        let mut b = Background::paper();
        b.gamma = 0.9;
        b.validate();
    }
}
