//! Experiment X16 — the serving-precision gate: does serving in `f32`
//! change what a rollout says about the physics?
//!
//! Every rollout path serves the trained `f64` weights in `f32`
//! (`pde_nn::ServingNet`). This example trains one Table-I fleet
//! (neighbour padding, residual mode) on the first two thirds of one
//! simulation's pairs, rolls it out from one of its states twice — once through the product's reference rollout (the
//! `f32` serving net, bit for bit what the engine serves) and once through
//! the same arithmetic in `f64` (`rollout_f64` below: the `f64` forward pass
//! every rollout ran before) — and scores both against the solver, per step:
//!
//! * per-field Pearson correlation;
//! * mean over fields of RMSE / the field's range (the usable horizon is the
//!   number of steps before this first exceeds 10 %);
//! * seam-band / interior RMSE ratio (cells within [`SEAM_BAND`] of an
//!   internal block edge against the rest);
//! * `E_pred / E₀`, the acoustic energy against the initial state's (the
//!   energy horizon is the first step with `E_pred > E₀`);
//! * max |f32 − f64| over each field's range, the largest of the four.
//!
//! The gate, fixed before the serving path landed: inside the usable
//! horizon |Δ Pearson| ≤ 1e-4 per field and the two seam ratios within 1 %
//! of each other at every step, and the usable and energy horizons equal.
//! Exit status 0 means the gate passes, 1 that it fails.
//!
//! Environment overrides: `GRID` (64), `SNAPSHOTS` (120), `EPOCHS` (15),
//! `RANKS` (4), `START` (20, the state the rollout starts from), `STEPS`
//! (40).
//!
//! Run with: `cargo run --release --example precision_gate`
//! Writes `precision_gate_<GRID>.csv` (one row per step and precision) to
//! the results dir (`$PDEML_RESULTS_DIR`, default `results/`).

use pde_domain::gather;
use pde_euler::config::Background;
use pde_euler::dataset::paper_dataset;
use pde_euler::state::EulerState;
use pde_ml_core::data::{extract_input, extract_target};
use pde_ml_core::prelude::*;
use pde_ml_core::report::{results_path, Csv};
use pde_nn::serialize::restore;
use pde_tensor::{stats, Tensor3, Tensor4};

/// Cells on either side of an internal block edge that form the seam band.
const SEAM_BAND: usize = 2;
/// Usable horizon: mean RMSE over range at most this.
const USABLE_NRMSE: f64 = 0.10;
/// Largest |Δ Pearson| per field inside the usable horizon.
const PEARSON_MARGIN: f64 = 1e-4;
/// Largest relative difference of the two seam ratios inside the horizon.
const SEAM_MARGIN: f64 = 0.01;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The reference rollout's arithmetic in `f64`: each rank's input cut from
/// the global normalized state, the restored `f64` network's forward pass,
/// the residual added, the blocks gathered — what every rollout served
/// before the serving path moved to `f32`.
fn rollout_f64(
    arch: &ArchSpec,
    strategy: PaddingStrategy,
    outcome: &TrainOutcome,
    initial: &Tensor3,
    steps: usize,
) -> Vec<Tensor3> {
    let part = outcome.partition;
    let (halo, mode) = (
        strategy.input_halo(arch.halo()),
        strategy.boundary_pad_mode(),
    );
    let mut nets: Vec<_> = outcome
        .rank_results
        .iter()
        .map(|r| {
            let mut net = arch.build_for(strategy, 0);
            restore(&mut net, &r.weights);
            net
        })
        .collect();
    let mut recent = outcome.norm.normalize3(initial);
    let mut states = vec![initial.clone()];
    for _ in 0..steps {
        let locals: Vec<Tensor3> = (0..part.rank_count())
            .map(|r| {
                let block = part.block_of_rank(r);
                let input = extract_input(&recent, &block, halo, mode);
                let y = nets[r]
                    .forward(&Tensor4::from_sample(&input), false)
                    .sample_tensor(0);
                let mut next = extract_target(&recent, &block, 0);
                next.axpy(1.0, &y);
                next
            })
            .collect();
        recent = gather(&locals, &part);
        states.push(outcome.norm.denormalize3(&recent));
    }
    states
}

/// Largest minus smallest value.
fn range(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    hi - lo
}

/// One precision's scores at one step.
struct Scores {
    pearson: Vec<f64>,
    nrmse: f64,
    seam_ratio: f64,
    energy_ratio: f64,
}

/// Whether cell `(i, j)` lies within [`SEAM_BAND`] of an internal block edge.
fn in_seam_band(part: &pde_domain::GridPartition, i: usize, j: usize) -> bool {
    part.blocks().any(|b| {
        let near =
            |x: usize, edge: usize| (edge - SEAM_BAND.min(edge)..edge + SEAM_BAND).contains(&x);
        (b.i0 > 0 && near(i, b.i0)) || (b.j0 > 0 && near(j, b.j0))
    })
}

fn scores(pred: &Tensor3, truth: &Tensor3, e0: f64, bg: &Background, band: &[bool]) -> Scores {
    let ranges: Vec<f64> = (0..truth.c()).map(|c| range(truth.channel(c))).collect();
    let pearson = (0..truth.c())
        .map(|c| stats::pearson(pred.channel(c), truth.channel(c)))
        .collect();
    let nrmse = (0..truth.c())
        .map(|c| stats::rmse(pred.channel(c), truth.channel(c)) / ranges[c])
        .sum::<f64>()
        / truth.c() as f64;
    // Squared errors over range, summed per region across fields.
    let (mut seam, mut inner) = ((0.0, 0usize), (0.0, 0usize));
    for (c, range) in ranges.iter().enumerate() {
        for (k, (p, t)) in pred.channel(c).iter().zip(truth.channel(c)).enumerate() {
            let e = ((p - t) / range).powi(2);
            let acc = if band[k] { &mut seam } else { &mut inner };
            acc.0 += e;
            acc.1 += 1;
        }
    }
    let rms = |(sum, n): (f64, usize)| (sum / n as f64).sqrt();
    let energy = EulerState::from_tensor(pred).acoustic_energy(bg.rho, bg.sound_speed());
    Scores {
        pearson,
        nrmse,
        seam_ratio: rms(seam) / rms(inner),
        energy_ratio: energy / e0,
    }
}

/// Steps before the mean RMSE over range first exceeds [`USABLE_NRMSE`].
fn usable_horizon(per_step: &[Scores]) -> usize {
    per_step
        .iter()
        .position(|s| s.nrmse > USABLE_NRMSE || s.nrmse.is_nan())
        .unwrap_or(per_step.len())
}

/// The first step (1-based) whose energy exceeds the initial state's.
fn energy_horizon(per_step: &[Scores]) -> Option<usize> {
    per_step
        .iter()
        .position(|s| s.energy_ratio > 1.0)
        .map(|k| k + 1)
}

fn main() {
    let grid = env_usize("GRID", 64);
    let snapshots = env_usize("SNAPSHOTS", 120);
    let epochs = env_usize("EPOCHS", 15);
    let ranks = env_usize("RANKS", 4);
    let start = env_usize("START", 20).min(snapshots - 2);
    let steps = env_usize("STEPS", 40).min(snapshots - 1 - start);
    let train_pairs = snapshots * 2 / 3;
    println!(
        "precision gate: {grid}x{grid}, Table I, neighbour padding, residual, \
         {train_pairs} training pairs, {epochs} epochs, {ranks} ranks, \
         {steps} steps from state {start}"
    );

    let data = paper_dataset(grid, snapshots);
    let arch = ArchSpec::paper();
    let strategy = PaddingStrategy::NeighborPad;
    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::paper_residual()
    };
    let outcome = ParallelTrainer::new(arch.clone(), strategy, cfg)
        .train_view(&data, train_pairs, ranks)
        .expect("training");
    let inference = ParallelInference::from_outcome(arch.clone(), strategy, &outcome);
    let initial = data.snapshot(start);
    let served = inference.reference_rollout(initial, steps);
    let wide = rollout_f64(&arch, strategy, &outcome, initial, steps);

    let part = outcome.partition;
    let band: Vec<bool> = (0..grid * grid)
        .map(|k| in_seam_band(&part, k / grid, k % grid))
        .collect();
    let bg = Background::paper();
    let e0 = EulerState::from_tensor(initial).acoustic_energy(bg.rho, bg.sound_speed());
    let score = |states: &[Tensor3]| -> Vec<Scores> {
        (1..=steps)
            .map(|k| scores(&states[k], data.snapshot(start + k), e0, &bg, &band))
            .collect()
    };
    let (at32, at64) = (score(&served), score(&wide));
    let max_diff: Vec<f64> = (1..=steps)
        .map(|k| {
            let truth = data.snapshot(start + k);
            (0..truth.c())
                .map(|c| {
                    let diff = stats::max_abs_err(served[k].channel(c), wide[k].channel(c));
                    diff / range(truth.channel(c))
                })
                .fold(0.0, f64::max)
        })
        .collect();

    let mut csv = Csv::new(&[
        "step",
        "precision",
        "pearson_p",
        "pearson_rho",
        "pearson_u",
        "pearson_v",
        "nrmse_mean",
        "seam_over_interior",
        "energy_over_e0",
        "max_f32_f64_over_range",
    ]);
    println!(
        "\n{:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "step", "prec", "r(p)", "r(rho)", "r(u)", "r(v)", "nrmse", "seam/int", "E/E0", "max|d|/rng"
    );
    for k in 0..steps {
        for (label, s) in [("f32", &at32[k]), ("f64", &at64[k])] {
            let mut row = vec![(k + 1).to_string(), label.to_string()];
            row.extend(s.pearson.iter().map(|r| format!("{r:.8}")));
            row.push(format!("{:.6e}", s.nrmse));
            row.push(format!("{:.6}", s.seam_ratio));
            row.push(format!("{:.8}", s.energy_ratio));
            row.push(format!("{:.3e}", max_diff[k]));
            println!(
                "{:>4} {label:>9} {:>9.6} {:>9.6} {:>9.6} {:>9.6} {:>9.3e} {:>9.4} {:>9.5} {:>10.2e}",
                k + 1,
                s.pearson[0],
                s.pearson[1],
                s.pearson[2],
                s.pearson[3],
                s.nrmse,
                s.seam_ratio,
                s.energy_ratio,
                max_diff[k]
            );
            csv.row(&row);
        }
    }
    let out = results_path(&format!("precision_gate_{grid}.csv")).expect("results dir");
    csv.write_to(&out).expect("write CSV");
    println!("\nwrote {}", out.display());

    // --- The gate. ---------------------------------------------------------
    let horizon = (usable_horizon(&at32), usable_horizon(&at64));
    let energy = (energy_horizon(&at32), energy_horizon(&at64));
    let inside = horizon.0.min(horizon.1);
    let pearson_gap = (0..inside)
        .flat_map(|k| {
            at32[k]
                .pearson
                .iter()
                .zip(&at64[k].pearson)
                .map(|(a, b)| (a - b).abs())
        })
        .fold(0.0, f64::max);
    // With one rank there is no seam; its ratio is NaN and gates nothing.
    let seam_gap = (0..inside)
        .map(|k| (at32[k].seam_ratio / at64[k].seam_ratio - 1.0).abs())
        .filter(|gap| !gap.is_nan())
        .fold(0.0, f64::max);
    let checks = [
        (
            format!("max |Δ Pearson| inside the usable horizon {pearson_gap:.2e} ≤ {PEARSON_MARGIN:.0e}"),
            pearson_gap <= PEARSON_MARGIN,
        ),
        (
            format!("max seam-ratio difference inside the horizon {:.3} % ≤ 1 %", 100.0 * seam_gap),
            seam_gap <= SEAM_MARGIN,
        ),
        (
            format!("usable horizon f32 {} = f64 {} steps", horizon.0, horizon.1),
            horizon.0 == horizon.1,
        ),
        (
            format!("energy horizon f32 {:?} = f64 {:?}", energy.0, energy.1),
            energy.0 == energy.1,
        ),
    ];
    let max_all = max_diff.iter().copied().fold(0.0, f64::max);
    println!("max |f32 − f64| over range, all steps: {max_all:.3e}");
    for (what, ok) in &checks {
        println!("{} {what}", if *ok { "pass" } else { "FAIL" });
    }
    if checks.iter().all(|(_, ok)| *ok) {
        println!("gate: pass");
    } else {
        println!("gate: FAIL");
        std::process::exit(1);
    }
}
