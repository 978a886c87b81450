//! Result accumulation, summary statistics and the JSON the benchmark
//! prints.

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run produced: the counts, the metrics, and every
/// output check that failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed output check; the run is correct only when
    /// this stays empty.
    pub errors: Vec<String>,
    /// Extra `"key": value` JSON fragments for the detail line (sample
    /// counts, the relay backend, trace accounting).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a failed output check.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: CHECK FAILED: {why}");
        self.errors.push(why);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn note_str(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_string(), json_string(value)));
    }

    /// The contract's last line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail line printed before the result: notes plus failed
    /// checks.
    pub fn detail_line(&self) -> String {
        let mut fields: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_string(e)).collect();
        fields.push(format!("\"check_failures\": [{}]", errors.join(", ")));
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of `xs`, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
