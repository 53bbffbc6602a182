//! Minimal CSV emission for experiment harnesses.
//!
//! Every bench/example writes its series as CSV (one file per figure/table)
//! so the paper's plots can be regenerated with any plotting tool. No
//! external dependency: the values here are plain floats and short labels.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The artifact directory every example and bench writes under:
/// `$PDEML_RESULTS_DIR`, or `results/` (relative to the working directory)
/// when unset. One env knob, so CI runs and sandboxed runs never collide
/// on a hard-coded path. The directory is created.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var_os("PDEML_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A path for the artifact `name` inside [`results_dir`].
pub fn results_path(name: &str) -> io::Result<PathBuf> {
    Ok(results_dir()?.join(name))
}

/// An in-memory CSV table with a fixed header.
#[derive(Clone, Debug)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// New table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "Csv: empty header");
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already formatted cells.
    ///
    /// # Panics
    /// If the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "Csv: row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of floats (formatted with full precision).
    pub fn row_f64(&mut self, cells: &[f64]) {
        self.row(&cells.iter().map(|v| format!("{v}")).collect::<Vec<_>>());
    }

    /// Appends a labelled row: first column a string, the rest floats.
    pub fn row_labelled(&mut self, label: &str, cells: &[f64]) {
        let mut v = vec![label.to_string()];
        v.extend(cells.iter().map(|x| format!("{x}")));
        self.row(&v);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders to CSV text (comma-separated; cells containing commas or
    /// quotes are quoted).
    pub fn to_string_csv(&self) -> String {
        let mut s = String::new();
        let esc = |c: &str| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            s,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{}",
                r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        s
    }

    /// Writes the table to a file, creating parent directories.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_string_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut c = Csv::new(&["p", "time_s", "speedup"]);
        c.row_f64(&[1.0, 8.0, 1.0]);
        c.row_f64(&[4.0, 2.0, 4.0]);
        let s = c.to_string_csv();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "p,time_s,speedup");
        assert_eq!(lines[1], "1,8,1");
        assert_eq!(lines.len(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn quotes_awkward_cells() {
        let mut c = Csv::new(&["label", "v"]);
        c.row(&["a,b".to_string(), "1".to_string()]);
        c.row(&["say \"hi\"".to_string(), "2".to_string()]);
        let s = c.to_string_csv();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn labelled_rows() {
        let mut c = Csv::new(&["field", "mape"]);
        c.row_labelled("pressure", &[1.25]);
        assert!(c.to_string_csv().contains("pressure,1.25"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pde_ml_report_test");
        let path = dir.join("t.csv");
        let mut c = Csv::new(&["a"]);
        c.row_f64(&[42.0]);
        c.write_to(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a\n42\n");
        fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_wrong_arity() {
        let mut c = Csv::new(&["a", "b"]);
        c.row_f64(&[1.0]);
    }
}
