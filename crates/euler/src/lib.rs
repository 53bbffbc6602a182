//! # pde-euler
//!
//! A from-scratch 2-D **linearized Euler** solver — the substitute for the
//! Ateles discontinuous-Galerkin framework used by the paper to generate
//! training data (see DESIGN.md §2).
//!
//! The PDE (paper Eq. (8)) describes acoustic perturbations `(ρ', u', v', p')`
//! around a constant background `(ρ_c, u_c, v_c, p_c)`:
//!
//! ```text
//! ∂t ρ' + ∇·(u_c ρ' + ρ_c u')          = 0
//! ∂t u' + ∇·(u_c u') + (1/ρ_c) ∇p'     = 0
//! ∂t p' + ∇·(u_c p' + γ p_c u')        = 0
//! ```
//!
//! a constant-coefficient linear hyperbolic system `q_t + A q_x + B q_y = 0`.
//! The solver is a cell-centered finite-volume scheme with a Rusanov
//! (local Lax–Friedrichs) numerical flux, ghost-cell boundary conditions and
//! SSP-RK2 / classical RK4 time integration. The paper's setup — Gaussian
//! pressure pulse, outflow boundaries (p' = 0, homogeneous Neumann for the
//! rest), fluid initially at rest — is [`ic::InitialCondition::GaussianPulse`]
//! plus [`bc::Boundary::Outflow`].
//!
//! Correctness is anchored by the analytic plane-wave solution in
//! [`analytic`] (grid-convergence tested) and conservation checks on
//! periodic domains.

pub mod analytic;
pub mod bc;
pub mod config;
pub mod dataset;
pub mod flux;
pub mod ic;
pub mod solver;
pub mod state;

pub use bc::Boundary;
pub use config::{Background, Domain, SolverConfig};
pub use dataset::{DataSet, SnapshotRecorder};
pub use ic::InitialCondition;
pub use solver::EulerSolver;
pub use state::{EulerState, FIELD_NAMES, N_FIELDS};
