//! Summary statistics over raw samples, and the result record a run
//! prints.

use crate::spec::MetricSpec;
use std::collections::BTreeMap;

/// The `q`-quantile (nearest rank) of `samples`, which it sorts.
/// An empty slice reads 0: "no samples" for a layer that did no work.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One measured value with the number of raw samples behind it
/// (`samples == 0` for counts and ratios computed from totals).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Raw samples the value summarises.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, how many failed, timed out or returned wrong bytes.
    pub failed: u64,
    /// Whether every checked output was correct.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, 0);
    }

    /// Records `value` for `name`, summarising `samples` raw samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Measured { value, samples });
    }

    /// The recorded value of `name`, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    /// Failed share of attempted operations.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One line per metric in `specs` — name, value, unit, sample count
    /// — for people; metrics recorded but not in `specs` follow, with
    /// their units taken from `others`.
    pub fn render_table(&self, specs: &[MetricSpec], others: &[MetricSpec]) -> String {
        let mut out = String::new();
        let mut line = |name: &str, unit: &str, m: &Measured| {
            let n = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{name:<36} {:>16} {unit}{n}\n",
                fmt_value(m.value)
            ));
        };
        for s in specs {
            if let Some(m) = self.metrics.get(s.name) {
                line(s.name, s.unit, m);
            }
        }
        for s in others {
            if let Some(m) = self.metrics.get(s.name) {
                line(s.name, s.unit, m);
            }
        }
        out
    }

    /// The machine-readable last line: exactly the metrics in `specs`
    /// (a metric never recorded reads 0).
    pub fn render_json(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    fmt_value(self.get(s.name)),
                    s.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number with all its measured digits; non-finite values
/// (a ratio over zero samples) print as 0 so the line stays valid JSON.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(quantile(&mut [7.0], 0.0), 7.0);
    }
}
