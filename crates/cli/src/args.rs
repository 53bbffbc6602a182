//! Minimal `--key value` argument parsing.

use std::collections::BTreeMap;

/// Parsed `--key value` pairs plus valueless `--flag` switches.
pub struct Args {
    /// Flags map to the empty string; `get`/`require` treat that as "no
    /// value" so a bare `--out --trace t.json` still errors out.
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses a flat `--key value` list. An option followed by another
    /// `--option` (or by the end of the line) is stored as a boolean flag —
    /// query it with [`Args::flag`].
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = argv.iter().peekable();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --option, got '{key}'"));
            };
            // The next token is this option's value unless it is itself an
            // option (negative numbers like `-0.5` don't start with `--`).
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => String::new(),
            };
            if values.insert(name.to_string(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Self { values })
    }

    /// Raw string option (None when absent or given as a bare flag).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .map(|s| s.as_str())
            .filter(|s| !s.is_empty())
    }

    /// True when the option was present at all, with or without a value.
    pub fn flag(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Required string option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        match self.values.get(name) {
            Some(v) if !v.is_empty() => Ok(v),
            Some(_) => Err(format!("--{name} needs a value")),
            None => Err(format!("missing required --{name}")),
        }
    }

    /// Optional parsed option with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }

    /// A count option that must be at least 1. Zero ranks, requests or
    /// queue slots leave nothing to do, so 0 is a typo, not a setting: it
    /// is refused with a hint naming `what` is counted, never clamped.
    pub fn count(&self, name: &str, default: usize, what: &str) -> Result<usize, String> {
        match self.get_or(name, default)? {
            0 => Err(format!(
                "--{name} 0 is out of range: it is the number of {what}, at least 1 \
                 (default {default})"
            )),
            n => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&sv(&["--grid", "64", "--out", "x.bin"])).unwrap();
        assert_eq!(a.get("grid"), Some("64"));
        assert_eq!(a.require("out").unwrap(), "x.bin");
        assert_eq!(a.get_or("epochs", 7usize).unwrap(), 7);
        assert_eq!(a.get_or("grid", 0usize).unwrap(), 64);
    }

    #[test]
    fn rejects_bare_words_and_missing_values() {
        assert!(Args::parse(&sv(&["grid"])).is_err());
        assert!(Args::parse(&sv(&["--a", "1", "--a", "2"])).is_err());
        // A valueless option parses as a flag but cannot satisfy `require`.
        let a = Args::parse(&sv(&["--grid"])).unwrap();
        assert!(a.require("grid").is_err());
        assert_eq!(a.get("grid"), None);
    }

    #[test]
    fn boolean_flags_mix_with_valued_options() {
        let a = Args::parse(&sv(&["--quick", "--trace", "t.json", "--verbose"])).unwrap();
        assert!(a.flag("quick"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("absent"));
        assert_eq!(a.get("trace"), Some("t.json"));
        // `--quick` swallowing `--trace` as its value would break this:
        assert_eq!(a.get("quick"), None);
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = Args::parse(&sv(&["--lr", "-0.5"])).unwrap();
        assert_eq!(a.get_or("lr", 0.0f64).unwrap(), -0.5);
    }

    #[test]
    fn reports_unparsable_values() {
        let a = Args::parse(&sv(&["--epochs", "many"])).unwrap();
        assert!(a.get_or("epochs", 1usize).is_err());
        assert!(a.require("absent").is_err());
    }
}
