//! Measurement helpers: time series and the imbalance metric.

use crate::time::SimTime;

/// Normalized standard deviation (σ / mean) of node storage loads —
/// the load-imbalance metric of Section 10 (Figures 16–17).
///
/// Returns 0 for empty input or zero mean.
pub fn normalized_std_dev(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let n = loads.len() as f64;
    let mean = loads.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = loads
        .iter()
        .map(|&l| (l as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// A timestamped series of samples, e.g. load imbalance over time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample (times should be nondecreasing).
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// All samples in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Downsamples to at most `n` evenly spaced points (for printing).
    pub fn downsample(&self, n: usize) -> Vec<(SimTime, f64)> {
        if self.points.len() <= n || n == 0 {
            return self.points.clone();
        }
        let step = self.points.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.points[(i as f64 * step) as usize])
            .collect()
    }
}

/// Geometric mean of positive ratios (Section 9.3 averages speedups this
/// way: "the average is computed using a geometric mean since we are
/// averaging ratios").
pub fn geometric_mean(values: &[f64]) -> f64 {
    let vals: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nsd_of_uniform_is_zero() {
        assert_eq!(normalized_std_dev(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn nsd_grows_with_skew() {
        let balanced = normalized_std_dev(&[4, 5, 6, 5]);
        let skewed = normalized_std_dev(&[0, 0, 0, 20]);
        assert!(skewed > balanced);
        assert!((skewed - (3.0f64).sqrt()).abs() < 1e-9); // σ/μ of (0,0,0,20)
    }

    #[test]
    fn nsd_edge_cases() {
        assert_eq!(normalized_std_dev(&[]), 0.0);
        assert_eq!(normalized_std_dev(&[0, 0]), 0.0);
    }

    #[test]
    fn series_stats() {
        let mut s = TimeSeries::new();
        for i in 0..10u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.downsample(5).len(), 5);
        assert_eq!(s.downsample(100).len(), 10);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
        // Speedup 2x and slowdown 0.5x cancel.
        assert!((geometric_mean(&[2.0, 0.5]) - 1.0).abs() < 1e-9);
    }
}
