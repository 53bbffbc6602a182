//! Shared fixtures for the pde-bench benchmark suite.
//!
//! Benchmarks intentionally run at reduced sizes (small grids, few epochs)
//! so the whole suite finishes on a single core; the `examples/` harnesses
//! take environment overrides for paper-scale runs. What matters for the
//! paper's claims is *relative* cost (who wins, where crossovers fall), and
//! those relations are size-stable for this workload.

use pde_euler::dataset::{paper_dataset, DataSet};

/// A small, deterministically generated dataset shared by several benches.
pub fn bench_dataset(grid: usize, snapshots: usize) -> DataSet {
    paper_dataset(grid, snapshots)
}

/// Standard reduced-size benchmark grid.
pub const BENCH_GRID: usize = 32;

/// Standard snapshot count.
pub const BENCH_SNAPSHOTS: usize = 12;
