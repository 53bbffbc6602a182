//! A run's result: named metrics with units, the counts and the digest; its
//! one-line JSON form; and the check of that line against `BENCHMARK.json`.

use std::collections::BTreeMap;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Lines for the reader: sample counts, percentile used, failed checks.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.into(),
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed output check: the run is no longer correct.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The table a person reads, one metric per line.
    pub fn human(&self) -> String {
        let mut out = format!(
            "workload {}: attempted {} succeeded {} failed {}  output_digest {:016x}\n",
            self.workload,
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.digest
        );
        for n in &self.notes {
            out.push_str(&format!("  # {n}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!("  {:<44} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Rebuilds the counts and metrics from a result line (what the parent
    /// of a fresh child process sees).
    pub fn from_json_line(workload: &str, line: &str) -> Result<Report, String> {
        let v = Json::parse(line)?;
        let mut r = Report::new(workload);
        r.correct = v
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("no 'correct'")?;
        r.attempted = v
            .get("attempted")
            .and_then(Json::as_f64)
            .ok_or("no 'attempted'")? as u64;
        r.failed = v
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or("no 'failed'")? as u64;
        let Some(Json::Object(metrics)) = v.get("metrics") else {
            return Err("no 'metrics' object".into());
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric '{name}' lacks value or unit"));
            };
            r.metric(name, value, unit);
        }
        Ok(r)
    }
}

/// Shortest decimal that reads back as the same `f64`; non-finite values
/// become `null`, which the check rejects.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A parsed JSON value (objects keep their keys in sorted order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.s.len() && self.s[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of JSON".into()),
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Object(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Object(map));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad JSON value at byte {start}"))
            }
        }
    }

    /// A string without `\u` escapes — neither file this parser reads has any.
    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => esc,
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    });
                }
                _ => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

/// What `BENCHMARK.json` declares, as far as the check needs it.
pub struct Declared {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    /// name → unit.
    pub end_to_end: BTreeMap<String, String>,
    pub per_layer: BTreeMap<String, String>,
}

impl Declared {
    pub fn parse(text: &str) -> Result<Declared, String> {
        let v = Json::parse(text)?;
        let names = |key: &str| -> Result<Vec<(String, String)>, String> {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no '{key}' list"))?
                .iter()
                .map(|e| {
                    let name = e.get("name").and_then(Json::as_str);
                    let unit = e.get("unit").and_then(Json::as_str).unwrap_or("");
                    name.map(|n| (n.to_string(), unit.to_string()))
                        .ok_or(format!("BENCHMARK.json: a '{key}' entry has no name"))
                })
                .collect()
        };
        Ok(Declared {
            workloads: names("workloads")?.into_iter().map(|(n, _)| n).collect(),
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no 'run_seconds'")? as u64,
            end_to_end: names("end_to_end")?.into_iter().collect(),
            per_layer: names("per_layer")?.into_iter().collect(),
        })
    }

    /// Every way `report` departs from the declaration for a run with
    /// tracing `traced`: a declared metric missing, not finite or in another
    /// unit, or a metric nobody declared.
    pub fn check(&self, report: &Report, traced: bool) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.workloads.contains(&report.workload) {
            problems.push(format!("workload '{}' is not declared", report.workload));
        }
        let want = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for (name, unit) in want {
            match report.metrics.iter().find(|m| &m.name == name) {
                None => problems.push(format!("{}: '{name}' is missing", report.workload)),
                Some(m) if !m.value.is_finite() => {
                    problems.push(format!("{}: '{name}' is not finite", report.workload))
                }
                Some(m) if &m.unit != unit => problems.push(format!(
                    "{}: '{name}' has unit '{}', declared '{unit}'",
                    report.workload, m.unit
                )),
                Some(_) => {}
            }
        }
        for m in &report.metrics {
            if !want.contains_key(&m.name) {
                problems.push(format!("{}: '{}' is not declared", report.workload, m.name));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECL: &str = r#"{
      "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 20,
      "workloads": [{"name": "w1", "why": "a"}, {"name": "w2", "why": "b"}],
      "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                     {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}],
      "per_layer": [{"name": "nn.forward_ms_per_batch", "unit": "ms", "better": "lower"}]
    }"#;

    fn report() -> Report {
        let mut r = Report::new("w1");
        r.attempted = 10;
        r.metric("setup_s", 0.1 + 0.2, "s");
        r.metric("latency_ms_p50", 1.25e-3, "ms");
        r
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let r = report();
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        let back = Report::from_json_line("w1", &line).unwrap();
        assert_eq!(back.value("setup_s"), Some(0.1 + 0.2));
        assert_eq!(back.value("latency_ms_p50"), Some(1.25e-3));
        assert_eq!((back.correct, back.attempted, back.failed), (true, 10, 0));
    }

    #[test]
    fn check_accepts_a_matching_report() {
        let d = Declared::parse(DECL).unwrap();
        assert_eq!(d.run_seconds, 20);
        assert_eq!(d.check(&report(), false), Vec::<String>::new());
    }

    #[test]
    fn check_names_each_departure() {
        let d = Declared::parse(DECL).unwrap();
        let mut r = report();
        r.workload = "w3".into();
        r.metrics[0].value = f64::NAN;
        r.metrics[1].unit = "us".into();
        r.metric("extra", 1.0, "s");
        let problems = d.check(&r, false);
        assert_eq!(problems.len(), 4, "{problems:?}");
        // A traced run is held to the per-layer list instead.
        let traced = d.check(&report(), true);
        assert!(traced
            .iter()
            .any(|p| p.contains("nn.forward_ms_per_batch' is missing")));
        assert!(traced
            .iter()
            .any(|p| p.contains("'setup_s' is not declared")));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
        assert_eq!(
            Json::parse(" [1e3, -2.5, \"a\\\"b\"] ")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            3
        );
    }
}
