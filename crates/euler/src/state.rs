//! The perturbation state `(p', ρ', u', v')` on a grid.
//!
//! Channel order follows the paper's §II ("pressure, density, velocity in
//! x-direction and velocity in y-direction") so tensors fed to the network
//! line up with Table I without shuffling.

use pde_tensor::{Grid2, Tensor3};

/// Number of physical fields.
pub const N_FIELDS: usize = 4;

/// Channel names in tensor order.
pub const FIELD_NAMES: [&str; N_FIELDS] = ["pressure", "density", "velocity_x", "velocity_y"];

/// Channel index of the pressure perturbation.
pub const IDX_P: usize = 0;
/// Channel index of the density perturbation.
pub const IDX_RHO: usize = 1;
/// Channel index of the x-velocity perturbation.
pub const IDX_U: usize = 2;
/// Channel index of the y-velocity perturbation.
pub const IDX_V: usize = 3;

/// The full perturbation state on an `ny × nx` cell-centered grid.
#[derive(Clone, Debug, PartialEq)]
pub struct EulerState {
    /// Pressure perturbation p'.
    pub p: Grid2,
    /// Density perturbation ρ'.
    pub rho: Grid2,
    /// x-velocity perturbation u'.
    pub u: Grid2,
    /// y-velocity perturbation v'.
    pub v: Grid2,
}

impl EulerState {
    /// Quiescent state (all perturbations zero).
    pub fn zeros(ny: usize, nx: usize) -> Self {
        Self {
            p: Grid2::zeros(ny, nx),
            rho: Grid2::zeros(ny, nx),
            u: Grid2::zeros(ny, nx),
            v: Grid2::zeros(ny, nx),
        }
    }

    /// Grid shape `(ny, nx)`.
    pub fn shape(&self) -> (usize, usize) {
        self.p.shape()
    }

    /// Shape consistency check across the four fields.
    pub fn validate(&self) {
        let s = self.p.shape();
        assert_eq!(self.rho.shape(), s, "EulerState: rho shape mismatch");
        assert_eq!(self.u.shape(), s, "EulerState: u shape mismatch");
        assert_eq!(self.v.shape(), s, "EulerState: v shape mismatch");
    }

    /// Borrows the field with tensor-channel index `idx`
    /// (see [`FIELD_NAMES`]).
    pub fn field(&self, idx: usize) -> &Grid2 {
        match idx {
            IDX_P => &self.p,
            IDX_RHO => &self.rho,
            IDX_U => &self.u,
            IDX_V => &self.v,
            _ => panic!("EulerState::field: index {idx} out of range"),
        }
    }

    /// Mutably borrows the field with tensor-channel index `idx`.
    pub fn field_mut(&mut self, idx: usize) -> &mut Grid2 {
        match idx {
            IDX_P => &mut self.p,
            IDX_RHO => &mut self.rho,
            IDX_U => &mut self.u,
            IDX_V => &mut self.v,
            _ => panic!("EulerState::field_mut: index {idx} out of range"),
        }
    }

    /// Packs the state into a 4-channel tensor `(p, ρ, u, v)`, copying each
    /// field once.
    pub fn to_tensor(&self) -> Tensor3 {
        self.validate();
        let (ny, nx) = self.shape();
        let mut data = Vec::with_capacity(N_FIELDS * ny * nx);
        for f in 0..N_FIELDS {
            data.extend_from_slice(self.field(f).as_slice());
        }
        Tensor3::from_vec(N_FIELDS, ny, nx, data)
    }

    /// Unpacks a 4-channel tensor back into a state.
    ///
    /// # Panics
    /// If the tensor does not have exactly [`N_FIELDS`] channels.
    pub fn from_tensor(t: &Tensor3) -> Self {
        assert_eq!(
            t.c(),
            N_FIELDS,
            "EulerState::from_tensor: expected {N_FIELDS} channels"
        );
        Self {
            p: t.channel_grid(IDX_P),
            rho: t.channel_grid(IDX_RHO),
            u: t.channel_grid(IDX_U),
            v: t.channel_grid(IDX_V),
        }
    }

    /// Largest absolute perturbation over all fields.
    pub fn max_abs(&self) -> f64 {
        self.p
            .max_abs()
            .max(self.rho.max_abs())
            .max(self.u.max_abs())
            .max(self.v.max_abs())
    }

    /// Acoustic "energy" `Σ (p'²/(ρc²) + ρ_c(u'²+v'²)) / 2` per cell —
    /// a Lyapunov function of the linear system on periodic domains.
    pub fn acoustic_energy(&self, rho_c: f64, sound_speed: f64) -> f64 {
        let c2 = sound_speed * sound_speed;
        let mut e = 0.0;
        for k in 0..self.p.len() {
            let p = self.p.as_slice()[k];
            let u = self.u.as_slice()[k];
            let v = self.v.as_slice()[k];
            e += 0.5 * (p * p / (rho_c * c2) + rho_c * (u * u + v * v));
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_round_trip() {
        let mut s = EulerState::zeros(3, 4);
        s.p[(1, 2)] = 5.0;
        s.rho[(0, 0)] = -1.0;
        s.u[(2, 3)] = 0.25;
        s.v[(1, 1)] = 9.0;
        let t = s.to_tensor();
        assert_eq!(t.shape(), (4, 3, 4));
        assert_eq!(t[(IDX_P, 1, 2)], 5.0);
        assert_eq!(t[(IDX_V, 1, 1)], 9.0);
        assert_eq!(EulerState::from_tensor(&t), s);
    }

    #[test]
    fn field_indices_match_names() {
        assert_eq!(FIELD_NAMES[IDX_P], "pressure");
        assert_eq!(FIELD_NAMES[IDX_RHO], "density");
        assert_eq!(FIELD_NAMES[IDX_U], "velocity_x");
        assert_eq!(FIELD_NAMES[IDX_V], "velocity_y");
    }

    #[test]
    fn acoustic_energy_positive_definite() {
        let mut s = EulerState::zeros(2, 2);
        assert_eq!(s.acoustic_energy(1.0, 1.0), 0.0);
        s.u[(0, 0)] = 2.0;
        assert!((s.acoustic_energy(1.0, 1.0) - 2.0).abs() < 1e-12);
        s.p[(1, 1)] = 3.0;
        assert!((s.acoustic_energy(1.0, 1.0) - (2.0 + 4.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn field_rejects_bad_index() {
        let s = EulerState::zeros(2, 2);
        let _ = s.field(4);
    }
}
