//! Experiment T1 — reproduces **Table I** of the paper: the CNN layer
//! architecture, with parameter counts and measured per-layer forward /
//! backward cost added (our substrate's equivalent of the table's
//! motivation: knowing what each layer contributes).
//!
//! Run with: `cargo run --release --example table1_architecture`
//! Writes `table1_architecture.csv` to the results dir
//! (`$PDEML_RESULTS_DIR`, default `results/`).

use pde_ml_core::arch::ArchSpec;
use pde_ml_core::report::{results_path, Csv};
use pde_nn::{Conv2d, Sequential};
use pde_tensor::Tensor4;
use std::time::Instant;

fn main() {
    let arch = ArchSpec::paper();
    println!("TABLE I: CNN LAYERS ARCHITECTURE (paper, PDSEC 2021)\n");
    print!("{}", arch.table());
    println!("\ntotal learnable parameters: {}\n", arch.param_count());

    // Measured per-layer cost on a 64×64 input (proportional at 256×256).
    let (h, w) = (64, 64);
    let batch = 4;
    println!("measured per-layer cost on a {h}x{w} input (batch {batch}):\n");
    println!(
        "{:<8} {:>10} {:>14} {:>14}",
        "layer", "params", "fwd [ms]", "fwd+bwd [ms]"
    );

    let mut csv = Csv::new(&[
        "layer",
        "in_channels",
        "out_channels",
        "kernel",
        "padding",
        "params",
        "fwd_ms",
        "fwd_bwd_ms",
    ]);

    for row in arch.layer_rows() {
        // One layer, timed through the stack that owns its activations.
        let mut conv =
            Sequential::new().push(Conv2d::same(row.in_channels, row.out_channels, arch.kernel));
        let x = Tensor4::from_fn(batch, row.in_channels, h, w, |_, c, i, j| {
            ((c + i) as f64 * 0.1 + j as f64 * 0.01).sin()
        });
        // Warm up, then time.
        let y = conv.forward(&x, true);
        let reps = 10;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = conv.forward(&x, false);
        }
        let fwd_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let t1 = Instant::now();
        for _ in 0..reps {
            let _ = conv.forward(&x, true);
            let _ = conv.backward(&y);
        }
        let fb_ms = t1.elapsed().as_secs_f64() * 1e3 / reps as f64;
        println!(
            "conv{:<4} {:>10} {:>14.3} {:>14.3}",
            row.layer, row.params, fwd_ms, fb_ms
        );
        csv.row(&[
            format!("conv{}", row.layer),
            row.in_channels.to_string(),
            row.out_channels.to_string(),
            format!(
                "{}x{}x{}x{}",
                row.kernel.0, row.kernel.1, row.kernel.2, row.kernel.3
            ),
            "Yes".to_string(),
            row.params.to_string(),
            format!("{fwd_ms:.4}"),
            format!("{fb_ms:.4}"),
        ]);
    }

    let out = results_path("table1_architecture.csv").expect("results dir");
    csv.write_to(&out).expect("write CSV");
    println!("\nwrote {}", out.display());
}
