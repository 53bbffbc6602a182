//! Golden bits of the solver: FNV-1a digests of the state after a fixed run,
//! recorded before the row-sweep rewrite of `EulerSolver::step`. Any change
//! to the floating-point operations of a step, or to their order, moves a
//! digest. Run with `--nocapture` to print the digests a change produces.

use pde_euler::{Background, Boundary, Domain, EulerSolver, EulerState, InitialCondition};
use pde_euler::{SolverConfig, N_FIELDS};

/// FNV-1a over the little-endian bits of every field, in channel order.
fn digest(s: &EulerState) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in 0..N_FIELDS {
        for v in s.field(f).as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn run(cfg: SolverConfig, boundary: Boundary, ic: &InitialCondition, steps: usize) -> u64 {
    let mut s = EulerSolver::new(cfg, boundary, ic);
    s.run(steps);
    let d = digest(s.state());
    println!(
        "{boundary:?} {}x{} {steps} steps: {d:#018x}",
        cfg.ny, cfg.nx
    );
    d
}

#[test]
fn paper_pulse_at_64_squared_keeps_its_bits() {
    let d = run(
        SolverConfig::paper(64, 64),
        Boundary::Outflow,
        &InitialCondition::paper_pulse(),
        50,
    );
    assert_eq!(d, 0x764f_5f5b_db0b_305d);
}

/// A 48×40 grid on a 2 × 1.3 domain, so neither dx nor dy is a power of
/// two, under a subsonic mean flow, so every term of both fluxes is live.
#[test]
fn mean_flow_on_an_odd_grid_keeps_its_bits_under_every_boundary() {
    let cfg = SolverConfig {
        background: Background {
            rho: 1.2,
            p: 1.0e5,
            u: 60.0,
            v: -35.0,
            gamma: 1.4,
        },
        domain: Domain {
            x0: -1.0,
            y0: -0.5,
            lx: 2.0,
            ly: 1.3,
        },
        nx: 48,
        ny: 40,
        cfl: 0.45,
    };
    let ic = InitialCondition::MultiPulse(vec![(0.23, -0.11, 0.3, 0.5), (-0.4, 0.3, 0.15, -0.2)]);
    let got: Vec<u64> = [
        Boundary::Outflow,
        Boundary::Periodic,
        Boundary::Reflective,
        Boundary::Absorbing,
    ]
    .into_iter()
    .map(|b| run(cfg, b, &ic, 30))
    .collect();
    assert_eq!(
        got,
        [
            0x3896_4ead_26ba_1c68,
            0x5ca0_43da_b74d_e604,
            0xb7e6_fb4b_cc6a_50b4,
            0xc0ac_f71b_8dcf_1ed7,
        ]
    );
}
