//! Model parameter serialization.
//!
//! A deliberately tiny, versioned, self-describing binary format (magic +
//! version + named parameter groups as little-endian `f64`), so trained
//! subdomain networks can be checkpointed to disk and reloaded for
//! inference-only runs. No external dependencies.
//!
//! Format v1:
//! ```text
//! magic   : 8 bytes  b"PDENN\0\0\x01"
//! ngroups : u64 LE
//! repeat ngroups times:
//!   name_len : u64 LE
//!   name     : name_len bytes UTF-8
//!   data_len : u64 LE        (number of f64 values)
//!   data     : data_len × f64 LE
//! ```

//! Checkpoint format v1 (`write_checkpoint`) wraps a params section in an
//! outer envelope and appends the optimizer state, so a resumed run
//! continues bitwise-identically:
//! ```text
//! magic   : 8 bytes  b"PDECK\0\0\x01"
//! params  : one PDENN v1 stream (as above)
//! steps   : u64 LE              (optimizer step counter)
//! nslots  : u64 LE
//! repeat nslots times:
//!   name_len : u64 LE
//!   name     : name_len bytes UTF-8   (slot name, e.g. "m", "v")
//!   ngroups  : u64 LE
//!   repeat ngroups times:
//!     data_len : u64 LE
//!     data     : data_len × f64 LE
//! ```

use crate::layer::Layer;
use crate::optim::{Optimizer, OptimizerState};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PDENN\0\0\x01";
const CKPT_MAGIC: &[u8; 8] = b"PDECK\0\0\x01";

/// Errors produced by [`load_params`] / [`read_params`].
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic / truncated stream / malformed counts.
    Format(String),
    /// Parameter groups do not line up with the target network.
    Mismatch(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(s) => write!(f, "format error: {s}"),
            LoadError::Mismatch(s) => write!(f, "model mismatch: {s}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Serializes the network's parameter groups into `w`.
pub fn write_params(net: &mut dyn Layer, w: &mut dyn Write) -> io::Result<()> {
    let groups = net.param_groups();
    w.write_all(MAGIC)?;
    w.write_all(&(groups.len() as u64).to_le_bytes())?;
    for g in &groups {
        let name = g.name.as_bytes();
        w.write_all(&(name.len() as u64).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(g.param.len() as u64).to_le_bytes())?;
        for &v in g.param.iter() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_u64(r: &mut dyn Read) -> Result<u64, LoadError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)
        .map_err(|e| LoadError::Format(format!("truncated: {e}")))?;
    Ok(u64::from_le_bytes(b))
}

/// Deserializes parameter groups from `r` into the network, verifying that
/// names and lengths match group-for-group.
pub fn read_params(net: &mut dyn Layer, r: &mut dyn Read) -> Result<(), LoadError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| LoadError::Format(format!("no magic: {e}")))?;
    if &magic != MAGIC {
        return Err(LoadError::Format("bad magic (not a PDENN v1 file)".into()));
    }
    let ngroups = read_u64(r)? as usize;
    let mut groups = net.param_groups();
    if ngroups != groups.len() {
        return Err(LoadError::Mismatch(format!(
            "file has {ngroups} groups, network has {}",
            groups.len()
        )));
    }
    for g in groups.iter_mut() {
        let name_len = read_u64(r)? as usize;
        if name_len > 4096 {
            return Err(LoadError::Format(format!(
                "implausible name length {name_len}"
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)
            .map_err(|e| LoadError::Format(format!("truncated name: {e}")))?;
        let name =
            String::from_utf8(name).map_err(|_| LoadError::Format("non-UTF-8 name".into()))?;
        if name != g.name {
            return Err(LoadError::Mismatch(format!(
                "group name '{name}' vs expected '{}'",
                g.name
            )));
        }
        let data_len = read_u64(r)? as usize;
        if data_len != g.param.len() {
            return Err(LoadError::Mismatch(format!(
                "group '{name}': file has {data_len} values, network expects {}",
                g.param.len()
            )));
        }
        let mut buf = [0u8; 8];
        for v in g.param.iter_mut() {
            r.read_exact(&mut buf)
                .map_err(|e| LoadError::Format(format!("truncated data: {e}")))?;
            *v = f64::from_le_bytes(buf);
        }
    }
    Ok(())
}

fn write_str(w: &mut dyn Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u64).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_str(r: &mut dyn Read) -> Result<String, LoadError> {
    let len = read_u64(r)? as usize;
    if len > 4096 {
        return Err(LoadError::Format(format!("implausible name length {len}")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|e| LoadError::Format(format!("truncated name: {e}")))?;
    String::from_utf8(buf).map_err(|_| LoadError::Format("non-UTF-8 name".into()))
}

fn read_f64_vec(r: &mut dyn Read, len: usize) -> Result<Vec<f64>, LoadError> {
    let mut out = Vec::with_capacity(len);
    let mut b = [0u8; 8];
    for _ in 0..len {
        r.read_exact(&mut b)
            .map_err(|e| LoadError::Format(format!("truncated data: {e}")))?;
        out.push(f64::from_le_bytes(b));
    }
    Ok(out)
}

/// Serializes the network's parameters *and* the optimizer's state into `w`
/// (checkpoint format v1).
pub fn write_checkpoint(
    net: &mut dyn Layer,
    opt: &dyn Optimizer,
    w: &mut dyn Write,
) -> io::Result<()> {
    w.write_all(CKPT_MAGIC)?;
    write_params(net, w)?;
    let state = opt.export_state();
    w.write_all(&state.steps.to_le_bytes())?;
    w.write_all(&(state.slots.len() as u64).to_le_bytes())?;
    for (name, buffers) in &state.slots {
        write_str(w, name)?;
        w.write_all(&(buffers.len() as u64).to_le_bytes())?;
        for buf in buffers {
            w.write_all(&(buf.len() as u64).to_le_bytes())?;
            for &v in buf {
                w.write_all(&v.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Deserializes a checkpoint into an identically structured network and the
/// same kind of optimizer. Slot names are validated by the optimizer's
/// `import_state`; group counts/lengths by `read_params` and the
/// optimizer's own structure checks on the next step.
pub fn read_checkpoint(
    net: &mut dyn Layer,
    opt: &mut dyn Optimizer,
    r: &mut dyn Read,
) -> Result<(), LoadError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| LoadError::Format(format!("no magic: {e}")))?;
    if &magic != CKPT_MAGIC {
        return Err(LoadError::Format("bad magic (not a PDECK v1 file)".into()));
    }
    read_params(net, r)?;
    let steps = read_u64(r)?;
    let nslots = read_u64(r)? as usize;
    if nslots > 16 {
        return Err(LoadError::Format(format!(
            "implausible slot count {nslots}"
        )));
    }
    let mut slots = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        let name = read_str(r)?;
        let ngroups = read_u64(r)? as usize;
        let mut buffers = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let len = read_u64(r)? as usize;
            buffers.push(read_f64_vec(r, len)?);
        }
        slots.push((name, buffers));
    }
    opt.import_state(OptimizerState { steps, slots })
        .map_err(LoadError::Mismatch)
}

/// Saves the network's parameters to a file.
pub fn save_params(net: &mut dyn Layer, path: &Path) -> io::Result<()> {
    let mut buf = Vec::new();
    write_params(net, &mut buf)?;
    fs::write(path, buf)
}

/// Loads parameters from a file into an already-constructed network of
/// identical structure.
pub fn load_params(net: &mut dyn Layer, path: &Path) -> Result<(), LoadError> {
    let data = fs::read(path)?;
    read_params(net, &mut data.as_slice())
}

/// Snapshots all parameters into one flat vector (group order).
pub fn snapshot(net: &mut dyn Layer) -> Vec<f64> {
    net.param_groups()
        .iter()
        .flat_map(|g| g.param.to_vec())
        .collect()
}

/// Restores a [`snapshot`] taken from an identically structured network.
///
/// # Panics
/// If the snapshot length does not match the parameter count.
pub fn restore(net: &mut dyn Layer, snap: &[f64]) {
    assert_eq!(
        net.param_count(),
        snap.len(),
        "restore: snapshot length mismatch"
    );
    let mut offset = 0;
    for g in net.param_groups() {
        g.param
            .copy_from_slice(&snap[offset..offset + g.param.len()]);
        offset += g.param.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::LeakyReLu;
    use crate::conv::Conv2d;
    use crate::init::init_conv;
    use crate::sequential::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c1 = Conv2d::same(2, 4, 3);
        let mut c2 = Conv2d::same(4, 2, 3);
        init_conv(&mut c1, 0.01, &mut rng);
        init_conv(&mut c2, 0.01, &mut rng);
        Sequential::new()
            .push(c1)
            .push(LeakyReLu::paper_default())
            .push(c2)
    }

    #[test]
    fn round_trip_through_memory() {
        let mut a = net(10);
        let mut buf = Vec::new();
        write_params(&mut a, &mut buf).unwrap();
        let mut b = net(20); // different weights
        read_params(&mut b, &mut buf.as_slice()).unwrap();
        assert_eq!(snapshot(&mut a), snapshot(&mut b));
    }

    #[test]
    fn round_trip_through_file() {
        let dir = std::env::temp_dir().join("pde_nn_serialize_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.pdenn");
        let mut a = net(1);
        save_params(&mut a, &path).unwrap();
        let mut b = net(2);
        load_params(&mut b, &path).unwrap();
        assert_eq!(snapshot(&mut a), snapshot(&mut b));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_round_trip_restores_params_and_optimizer_state() {
        use crate::loss::{Loss, Mse};
        use crate::optim::{Adam, Optimizer};
        use pde_tensor::Tensor4;

        // Train a few steps so ADAM has nonzero moments and t > 0.
        let mut a = net(11);
        let mut opt_a = Adam::new(1e-2);
        let x = Tensor4::from_fn(2, 2, 5, 5, |b, c, i, j| {
            (b + 2 * c + 3 * i + 5 * j) as f64 * 0.1 - 1.0
        });
        let target = Tensor4::zeros(2, 2, 5, 5);
        let loss = Mse;
        let step = |net: &mut Sequential, opt: &mut Adam| {
            net.zero_grad();
            let y = net.forward(&x, true);
            let (_, grad) = loss.value_and_grad(&y, &target);
            net.backward(&grad);
            opt.step_visit(net);
        };
        for _ in 0..3 {
            step(&mut a, &mut opt_a);
        }

        let mut buf = Vec::new();
        write_checkpoint(&mut a, &opt_a, &mut buf).unwrap();
        let mut b = net(12);
        let mut opt_b = Adam::new(1e-2);
        read_checkpoint(&mut b, &mut opt_b, &mut buf.as_slice()).unwrap();
        assert_eq!(snapshot(&mut a), snapshot(&mut b));
        assert_eq!(opt_a.export_state(), opt_b.export_state());

        // The real invariant: resumed training is bitwise identical.
        step(&mut a, &mut opt_a);
        step(&mut b, &mut opt_b);
        assert_eq!(snapshot(&mut a), snapshot(&mut b));
    }

    #[test]
    fn checkpoint_rejects_params_only_file_and_vice_versa() {
        use crate::optim::Adam;
        let mut a = net(13);
        let mut params_only = Vec::new();
        write_params(&mut a, &mut params_only).unwrap();
        let mut b = net(14);
        let mut opt = Adam::new(1e-3);
        let err = read_checkpoint(&mut b, &mut opt, &mut params_only.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)), "{err}");

        let mut ckpt = Vec::new();
        write_checkpoint(&mut a, &opt, &mut ckpt).unwrap();
        let err = read_params(&mut b, &mut ckpt.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)), "{err}");
    }

    #[test]
    fn checkpoint_rejects_optimizer_kind_mismatch() {
        use crate::optim::{Adam, Sgd};
        let mut a = net(15);
        let opt_a = Adam::new(1e-3);
        let mut buf = Vec::new();
        write_checkpoint(&mut a, &opt_a, &mut buf).unwrap();
        let mut b = net(16);
        let mut sgd = Sgd::new(1e-3);
        let err = read_checkpoint(&mut b, &mut sgd, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = net(3);
        let garbage = vec![0u8; 64];
        let err = read_params(&mut b, &mut garbage.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_structure_mismatch() {
        let mut small = Sequential::new().push(Conv2d::same(1, 1, 3));
        let mut buf = Vec::new();
        write_params(&mut small, &mut buf).unwrap();
        let mut big = net(4);
        let err = read_params(&mut big, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut a = net(5);
        let mut buf = Vec::new();
        write_params(&mut a, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut b = net(6);
        let err = read_params(&mut b, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)), "{err}");
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut a = net(7);
        let snap = snapshot(&mut a);
        let mut b = net(8);
        restore(&mut b, &snap);
        assert_eq!(snapshot(&mut b), snap);
    }

    #[test]
    #[should_panic(expected = "snapshot length mismatch")]
    fn restore_rejects_short_snapshot() {
        let mut a = net(9);
        let snap = vec![0.0; 3];
        restore(&mut a, &snap);
    }
}
