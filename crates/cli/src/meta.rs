//! The model-directory metadata file (`meta.txt`): everything inference
//! needs to reconstruct the trained fleet — architecture, strategy,
//! prediction mode, window, partition and normalization scales — as plain
//! `key = value` lines.

use pde_domain::GridPartition;
use pde_ml_cli::wire::push_f64_17e;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::norm::ChannelNorm;
use pde_ml_core::padding::PaddingStrategy;
use pde_ml_core::train::PredictionMode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Everything needed to rebuild a trained fleet.
pub struct ModelMeta {
    /// Architecture.
    pub arch: ArchSpec,
    /// Padding strategy.
    pub strategy: PaddingStrategy,
    /// Prediction mode.
    pub prediction: PredictionMode,
    /// Input time-window width.
    pub window: usize,
    /// The training partition (global dims + process grid).
    pub partition: GridPartition,
    /// Channel normalization.
    pub norm: ChannelNorm,
}

impl ModelMeta {
    /// Renders to the `meta.txt` format.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "format = pdeml-meta-v1");
        let _ = writeln!(
            s,
            "channels = {}",
            self.arch
                .channels
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(s, "kernel = {}", self.arch.kernel);
        let _ = writeln!(s, "leak = {}", self.arch.leak);
        let _ = writeln!(s, "strategy = {}", self.strategy.label());
        let _ = writeln!(s, "prediction = {}", self.prediction.label());
        let _ = writeln!(s, "window = {}", self.window);
        let _ = writeln!(s, "global_h = {}", self.partition.global_h());
        let _ = writeln!(s, "global_w = {}", self.partition.global_w());
        let _ = writeln!(s, "py = {}", self.partition.py());
        let _ = writeln!(s, "px = {}", self.partition.px());
        s.push_str("norm_scales = ");
        for (i, &v) in self.norm.scales().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_f64_17e(&mut s, v);
        }
        s.push('\n');
        s
    }

    /// Parses the `meta.txt` format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut kv = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("meta line {} is not 'key = value'", lineno + 1))?;
            kv.insert(k.trim().to_string(), v.trim().to_string());
        }
        let get = |k: &str| kv.get(k).ok_or_else(|| format!("meta missing '{k}'"));
        if get("format")? != "pdeml-meta-v1" {
            return Err("unsupported meta format".into());
        }
        let parse_usize = |k: &str| -> Result<usize, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("meta '{k}' is not an integer"))
        };
        let channels: Vec<usize> = get("channels")?
            .split(',')
            .map(|c| c.trim().parse().map_err(|_| "bad channel list".to_string()))
            .collect::<Result<_, _>>()?;
        let arch = ArchSpec {
            channels,
            kernel: parse_usize("kernel")?,
            leak: get("leak")?.parse().map_err(|_| "bad leak".to_string())?,
        };
        let strategy = match get("strategy")?.as_str() {
            "zero-pad" => PaddingStrategy::ZeroPad,
            "neighbor-pad" => PaddingStrategy::NeighborPad,
            "inner-crop" => PaddingStrategy::InnerCrop,
            "deconv" => PaddingStrategy::Deconv,
            other => return Err(format!("unknown strategy '{other}'")),
        };
        let prediction = match get("prediction")?.as_str() {
            "absolute" => PredictionMode::Absolute,
            "residual" => PredictionMode::Residual,
            other => return Err(format!("unknown prediction mode '{other}'")),
        };
        let norm_scales: Vec<f64> = get("norm_scales")?
            .split(',')
            .map(|v| v.trim().parse().map_err(|_| "bad norm scale".to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            arch,
            strategy,
            prediction,
            window: parse_usize("window")?,
            partition: GridPartition::new(
                parse_usize("global_h")?,
                parse_usize("global_w")?,
                parse_usize("py")?,
                parse_usize("px")?,
            ),
            norm: ChannelNorm::from_scales(norm_scales),
        })
    }

    /// Writes `meta.txt` into the model directory.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("meta.txt"), self.render())
    }

    /// Loads `meta.txt` from the model directory.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(dir.join("meta.txt"))
            .map_err(|e| format!("cannot read {}: {e}", dir.join("meta.txt").display()))?;
        Self::parse(&text)
    }
}

/// Strategy from a CLI label.
pub fn strategy_from_str(s: &str) -> Result<PaddingStrategy, String> {
    PaddingStrategy::ALL
        .into_iter()
        .find(|p| p.label() == s)
        .ok_or_else(|| format!("unknown strategy '{s}' (zero-pad|neighbor-pad|inner-crop|deconv)"))
}

/// Prediction mode from a CLI label.
pub fn mode_from_str(s: &str) -> Result<PredictionMode, String> {
    match s {
        "absolute" => Ok(PredictionMode::Absolute),
        "residual" => Ok(PredictionMode::Residual),
        _ => Err(format!("unknown mode '{s}' (absolute|residual)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModelMeta {
        ModelMeta {
            arch: ArchSpec::paper(),
            strategy: PaddingStrategy::NeighborPad,
            prediction: PredictionMode::Residual,
            window: 2,
            partition: GridPartition::new(64, 64, 2, 2),
            norm: ChannelNorm::from_scales(vec![0.5, 1e-6, 3.2e-4, 3.3e-4]),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let m = sample();
        let back = ModelMeta::parse(&m.render()).unwrap();
        assert_eq!(back.arch, m.arch);
        assert_eq!(back.strategy, m.strategy);
        assert_eq!(back.prediction, m.prediction);
        assert_eq!(back.window, 2);
        assert_eq!(back.partition, m.partition);
        for (a, b) in back.norm.scales().iter().zip(m.norm.scales()) {
            assert_eq!(a, b, "scales must survive exactly (18 significant digits)");
        }
    }

    #[test]
    fn parse_rejects_missing_keys_and_bad_values() {
        assert!(ModelMeta::parse("format = pdeml-meta-v1").is_err());
        let broken = sample().render().replace("kernel = 5", "kernel = five");
        assert!(ModelMeta::parse(&broken).is_err());
        assert!(ModelMeta::parse("format = other-v9").is_err());
    }

    #[test]
    fn label_parsers() {
        assert_eq!(
            strategy_from_str("deconv").unwrap(),
            PaddingStrategy::Deconv
        );
        assert!(strategy_from_str("bogus").is_err());
        assert_eq!(mode_from_str("residual").unwrap(), PredictionMode::Residual);
        assert!(mode_from_str("bogus").is_err());
    }
}
