//! What one run prints: a human-readable line per figure, then one
//! JSON object as the last line of standard output.

use tc_metrics::json::{escape_into, fmt_f64};

/// One named figure with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// A traced run: per-layer figures go into the JSON object and
    /// end-to-end ones are printed only; otherwise the reverse.
    pub trace: bool,
    /// Figures that go into the final JSON object.
    pub metrics: Vec<Metric>,
    /// Figures printed for the reader only (per-workload views, host
    /// noise, self times).
    pub info: Vec<Metric>,
    /// Operations attempted (solves or requests).
    pub attempted: u64,
    /// Operations that returned a typed error, timed out or gave a
    /// wrong answer.
    pub failed: u64,
    /// Why answers were judged wrong, one line each.
    pub wrong: Vec<String>,
}

impl Report {
    /// An end-to-end figure.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        if self.trace {
            self.info(name, value, unit, n)
        } else {
            self.metric(name, value, unit, n)
        }
    }

    /// A per-layer figure.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        if self.trace {
            self.metric(name, value, unit, n)
        } else {
            self.info(name, value, unit, n)
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        assert!(self.metrics.iter().all(|m| m.name != name), "metric {name} reported twice");
        self.metrics.push(Metric { name: name.to_string(), value, unit, n });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.info.push(Metric { name: name.to_string(), value, unit, n });
    }

    /// Records a wrong answer: it fails the operation and the run.
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        self.wrong.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong.is_empty()
    }

    /// The human-readable lines, one figure each.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (tag, list) in [("metric", &self.metrics), ("info", &self.info)] {
            for m in list {
                out.push(format!("{tag} {} = {} {} (n={})", m.name, fmt_f64(m.value), m.unit, m.n));
            }
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        out.push(format!(
            "info failed_ratio = {} ratio (n={}, failed={})",
            fmt_f64(ratio),
            self.attempted,
            self.failed
        ));
        for w in self.wrong.iter().take(20) {
            out.push(format!("WRONG {w}"));
        }
        out
    }

    /// The result object the last line of standard output carries.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, &m.name);
            out.push_str(&format!("\":{{\"value\":{},\"unit\":\"{}\"}}", fmt_f64(m.value), m.unit));
        }
        out.push_str("}}");
        out
    }
}
