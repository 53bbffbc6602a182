//! Snapshot recording and dataset assembly.
//!
//! The paper produces "1500 training and validation data, by running a
//! single simulation", using "the first 1000 time steps for the training and
//! the remaining ones for the validation" (§IV-B). [`SnapshotRecorder`]
//! drives a solver and records one [`Tensor3`] per step;
//! [`DataSet::chronological_split`] reproduces that protocol.

use crate::bc::Boundary;
use crate::config::SolverConfig;
use crate::ic::InitialCondition;
use crate::solver::EulerSolver;
use pde_tensor::Tensor3;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the on-disk dataset format (v1).
const DATASET_MAGIC: &[u8; 8] = b"PDEDS\0\0\x01";

/// Values [`DataSet::read_from`] decodes per read (64 KiB of bytes).
const READ_CHUNK_VALUES: usize = 8192;

/// A time-ordered sequence of 4-channel snapshots from one simulation.
#[derive(Clone, Debug)]
pub struct DataSet {
    snapshots: Vec<Tensor3>,
    dt: f64,
}

impl DataSet {
    /// Builds a dataset from pre-recorded snapshots.
    ///
    /// # Panics
    /// If fewer than 2 snapshots (no input/target pair) or shapes differ.
    pub fn new(snapshots: Vec<Tensor3>, dt: f64) -> Self {
        assert!(snapshots.len() >= 2, "DataSet: need at least 2 snapshots");
        let shape = snapshots[0].shape();
        assert!(
            snapshots.iter().all(|s| s.shape() == shape),
            "DataSet: inconsistent snapshot shapes"
        );
        Self { snapshots, dt }
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Snapshot spacing in simulation time.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Borrow of snapshot `k`.
    pub fn snapshot(&self, k: usize) -> &Tensor3 {
        &self.snapshots[k]
    }

    /// All snapshots.
    pub fn snapshots(&self) -> &[Tensor3] {
        &self.snapshots
    }

    /// `(c, h, w)` of every snapshot.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.snapshots[0].shape()
    }

    /// Number of supervised `(t → t+1)` pairs.
    pub fn pair_count(&self) -> usize {
        self.snapshots.len() - 1
    }

    /// The `k`-th supervised pair `(input = q(t_k), target = q(t_{k+1}))`.
    pub fn pair(&self, k: usize) -> (&Tensor3, &Tensor3) {
        (&self.snapshots[k], &self.snapshots[k + 1])
    }

    /// Serializes the dataset to a writer (versioned little-endian binary:
    /// magic, dt, `(n, c, h, w)`, then the raw snapshot values).
    pub fn write_to(&self, w: &mut dyn Write) -> io::Result<()> {
        let (c, h, wd) = self.shape();
        w.write_all(DATASET_MAGIC)?;
        w.write_all(&self.dt.to_le_bytes())?;
        for dim in [self.snapshots.len(), c, h, wd] {
            w.write_all(&(dim as u64).to_le_bytes())?;
        }
        for s in &self.snapshots {
            for &v in s.as_slice() {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserializes a dataset written by [`DataSet::write_to`].
    pub fn read_from(r: &mut dyn Read) -> io::Result<DataSet> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != DATASET_MAGIC {
            return Err(bad("not a PDEDS v1 dataset file"));
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let dt = f64::from_le_bytes(b8);
        let mut dims = [0usize; 4];
        for d in &mut dims {
            r.read_exact(&mut b8)?;
            *d = u64::from_le_bytes(b8) as usize;
        }
        let [n, c, h, w] = dims;
        let len = [c, h, w].iter().try_fold(1usize, |a, &d| a.checked_mul(d));
        if n < 2 || len.is_none_or(|len| len == 0 || len > 1 << 31) {
            return Err(bad("implausible dataset dimensions"));
        }
        // Values arrive in fixed-size chunks, decoded straight into each
        // snapshot's buffer: only one chunk of raw bytes is ever resident.
        // The snapshot list grows as snapshots arrive, so a header that
        // claims more than the file holds ends in a read error.
        let mut chunk = vec![0u8; READ_CHUNK_VALUES * 8];
        let mut snapshots = Vec::new();
        for _ in 0..n {
            let mut data = vec![0.0f64; c * h * w];
            for values in data.chunks_mut(READ_CHUNK_VALUES) {
                let bytes = &mut chunk[..values.len() * 8];
                r.read_exact(bytes)?;
                for (v, b) in values.iter_mut().zip(bytes.chunks_exact(8)) {
                    *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                }
            }
            snapshots.push(Tensor3::from_vec(c, h, w, data));
        }
        Ok(DataSet::new(snapshots, dt))
    }

    /// Saves to a file (creating parent directories), streaming the
    /// snapshots through a buffered writer so the file's bytes are never
    /// resident next to them. The final flush's error is returned, not
    /// dropped with the writer.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Loads from a file, streaming it: the snapshots are decoded as the
    /// bytes arrive, so the file is never resident next to them.
    pub fn load(path: &Path) -> io::Result<DataSet> {
        DataSet::read_from(&mut BufReader::new(File::open(path)?))
    }

    /// A view over the contiguous pair range `start..start + count`.
    ///
    /// # Panics
    /// If the range is empty or exceeds [`DataSet::pair_count`].
    pub fn view(&self, start: usize, count: usize) -> DataSetView<'_> {
        assert!(count >= 1, "DataSet::view: empty range");
        assert!(
            start + count <= self.pair_count(),
            "DataSet::view: range {start}..{} exceeds {} pairs",
            start + count,
            self.pair_count()
        );
        DataSetView {
            data: self,
            start,
            count,
        }
    }

    /// Splits chronologically: the first `n_train` *pairs* for training, the
    /// rest for validation — the paper's 1000/500 protocol.
    ///
    /// # Panics
    /// If `n_train` is 0 or leaves no validation pair.
    pub fn chronological_split(&self, n_train: usize) -> (DataSetView<'_>, DataSetView<'_>) {
        assert!(
            n_train >= 1,
            "chronological_split: need at least one training pair"
        );
        assert!(
            n_train < self.pair_count(),
            "chronological_split: n_train={n_train} leaves no validation pairs (have {})",
            self.pair_count()
        );
        (
            DataSetView {
                data: self,
                start: 0,
                count: n_train,
            },
            DataSetView {
                data: self,
                start: n_train,
                count: self.pair_count() - n_train,
            },
        )
    }
}

/// A contiguous range of supervised pairs inside a [`DataSet`].
#[derive(Clone, Copy, Debug)]
pub struct DataSetView<'a> {
    data: &'a DataSet,
    start: usize,
    count: usize,
}

impl<'a> DataSetView<'a> {
    /// Number of pairs in the view.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the view has no pairs.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `k`-th pair of the view.
    pub fn pair(&self, k: usize) -> (&'a Tensor3, &'a Tensor3) {
        assert!(
            k < self.count,
            "DataSetView: pair {k} out of range ({})",
            self.count
        );
        self.data.pair(self.start + k)
    }

    /// Global snapshot index of the view's `k`-th input.
    pub fn global_index(&self, k: usize) -> usize {
        self.start + k
    }

    /// The dataset the view reads.
    pub fn dataset(&self) -> &'a DataSet {
        self.data
    }

    /// Global index of the view's first input snapshot.
    pub fn start(&self) -> usize {
        self.start
    }
}

/// Drives a solver and records snapshots.
pub struct SnapshotRecorder {
    solver: EulerSolver,
    /// Record every `stride`-th step (1 = every step, the paper's protocol).
    stride: usize,
}

impl SnapshotRecorder {
    /// New recorder over a freshly initialized solver.
    pub fn new(
        config: SolverConfig,
        boundary: Boundary,
        ic: &InitialCondition,
        stride: usize,
    ) -> Self {
        assert!(stride >= 1, "SnapshotRecorder: stride must be >= 1");
        Self {
            solver: EulerSolver::new(config, boundary, ic),
            stride,
        }
    }

    /// Runs the simulation, recording `n_snapshots` states (including the
    /// initial one) and returning the assembled dataset.
    pub fn record(mut self, n_snapshots: usize) -> DataSet {
        assert!(
            n_snapshots >= 2,
            "SnapshotRecorder: need at least 2 snapshots"
        );
        let mut snaps = Vec::with_capacity(n_snapshots);
        snaps.push(self.solver.state().to_tensor());
        while snaps.len() < n_snapshots {
            self.solver.run(self.stride);
            snaps.push(self.solver.state().to_tensor());
        }
        DataSet::new(snaps, self.solver.dt() * self.stride as f64)
    }
}

/// Convenience: the paper's full data-generation pipeline at a chosen
/// resolution — Gaussian pulse, outflow boundaries, `n_snapshots` recorded
/// every step.
pub fn paper_dataset(n: usize, n_snapshots: usize) -> DataSet {
    let cfg = SolverConfig::paper(n, n);
    SnapshotRecorder::new(cfg, Boundary::Outflow, &InitialCondition::paper_pulse(), 1)
        .record(n_snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> DataSet {
        paper_dataset(16, 12)
    }

    #[test]
    fn recorder_counts_and_shapes() {
        let ds = tiny_dataset();
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.pair_count(), 11);
        assert_eq!(ds.shape(), (4, 16, 16));
        assert!(ds.dt() > 0.0);
    }

    #[test]
    fn first_snapshot_is_initial_condition() {
        let ds = tiny_dataset();
        let cfg = SolverConfig::paper(16, 16);
        let ic = InitialCondition::paper_pulse().evaluate(&cfg);
        assert_eq!(ds.snapshot(0), &ic.to_tensor());
    }

    #[test]
    fn pairs_are_consecutive() {
        let ds = tiny_dataset();
        for k in 0..ds.pair_count() {
            let (a, b) = ds.pair(k);
            assert_eq!(a, ds.snapshot(k));
            assert_eq!(b, ds.snapshot(k + 1));
        }
    }

    #[test]
    fn snapshots_evolve() {
        let ds = tiny_dataset();
        assert_ne!(
            ds.snapshot(0),
            ds.snapshot(5),
            "simulation did not change the state"
        );
    }

    #[test]
    fn chronological_split_partitions_pairs() {
        let ds = tiny_dataset();
        let (train, val) = ds.chronological_split(8);
        assert_eq!(train.len(), 8);
        assert_eq!(val.len(), 3);
        // Boundary: last train input is snapshot 7, first val input is 8.
        assert_eq!(train.global_index(7), 7);
        assert_eq!(val.global_index(0), 8);
        let (vi, _) = val.pair(0);
        assert_eq!(vi, ds.snapshot(8));
    }

    #[test]
    fn stride_skips_steps() {
        let cfg = SolverConfig::paper(16, 16);
        let every =
            SnapshotRecorder::new(cfg, Boundary::Outflow, &InitialCondition::paper_pulse(), 1)
                .record(5);
        let strided =
            SnapshotRecorder::new(cfg, Boundary::Outflow, &InitialCondition::paper_pulse(), 2)
                .record(3);
        // Strided snapshot 1 equals every-step snapshot 2.
        assert_eq!(strided.snapshot(1), every.snapshot(2));
        assert!((strided.dt() - 2.0 * every.dt()).abs() < 1e-15);
    }

    #[test]
    fn save_load_round_trip() {
        let ds = tiny_dataset();
        let path = std::env::temp_dir().join("pde_euler_ds_test/roundtrip.pdeds");
        ds.save(&path).unwrap();
        let back = DataSet::load(&path).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.dt(), ds.dt());
        for k in 0..ds.len() {
            assert_eq!(back.snapshot(k), ds.snapshot(k));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let mut garbage: &[u8] = &[0u8; 64];
        assert!(DataSet::read_from(&mut garbage).is_err());
    }

    #[test]
    fn load_rejects_truncation() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        ds.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 3);
        assert!(DataSet::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn load_rejects_a_header_that_overstates_the_file() {
        let header = |dims: [u64; 4]| {
            let mut buf = DATASET_MAGIC.to_vec();
            buf.extend_from_slice(&1e-3f64.to_le_bytes());
            for d in dims {
                buf.extend_from_slice(&d.to_le_bytes());
            }
            buf.extend_from_slice(&[0u8; 64]);
            buf
        };
        // More snapshots than any file holds, and a product of dimensions
        // past `usize`: both are errors, neither a panic or an allocation.
        for dims in [[1 << 62, 4, 8, 8], [2, 1 << 32, 1 << 32, 4]] {
            assert!(DataSet::read_from(&mut header(dims).as_slice()).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "leaves no validation")]
    fn split_requires_validation_pairs() {
        let ds = tiny_dataset();
        let _ = ds.chronological_split(11);
    }
}
