//! Figure 12: per-user mean speedup over the traditional DHT in the
//! largest / fastest configuration.
//!
//! Paper shape: nearly half the users beat the overall mean; a few users
//! see a (small) slowdown — those whose replicas happen to sit far away
//! in the network.

use crate::fig9::mode_label;
use crate::perf_suite::SuiteResult;
use crate::report::{fmt, render_table};
use d2_core::{Parallelism, SystemKind};

/// Per-user speedups for one mode.
#[derive(Clone, Debug)]
pub struct Fig12Series {
    /// Replay mode.
    pub mode: Parallelism,
    /// `(user, speedup)`, best first.
    pub users: Vec<(u32, f64)>,
}

/// The full figure.
#[derive(Clone, Debug)]
pub struct Fig12 {
    /// Configuration measured.
    pub size: usize,
    /// Access bandwidth.
    pub kbps: u64,
    /// One series per mode.
    pub series: Vec<Fig12Series>,
}

impl Fig12 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for s in &self.series {
            for (user, speedup) in &s.users {
                rows.push(vec![
                    mode_label(s.mode).to_string(),
                    format!("u{user}"),
                    fmt(*speedup),
                ]);
            }
        }
        render_table(
            &format!(
                "Figure 12: per-user speedup over traditional ({} nodes, {} kbps)",
                self.size, self.kbps
            ),
            &["mode", "user", "speedup"],
            &rows,
        )
    }
}

/// Extracts Figure 12 from a suite run at the given configuration.
pub fn from_suite(suite: &SuiteResult, size: usize, kbps: u64) -> Fig12 {
    let mut series = Vec::new();
    for mode in [Parallelism::Seq, Parallelism::Para] {
        if let Some(per_user) =
            suite.per_user_speedup(SystemKind::D2, SystemKind::Traditional, size, kbps, mode)
        {
            let mut users: Vec<(u32, f64)> = per_user.into_iter().collect();
            users.sort_by(|a, b| b.1.total_cmp(&a.1));
            series.push(Fig12Series { mode, users });
        }
    }
    Fig12 { size, kbps, series }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf_suite::{self, SuiteConfig};
    use crate::Scale;
    use d2_workload::HarvardTrace;
    use rand::SeedableRng;

    #[test]
    fn most_users_speed_up() {
        let trace = HarvardTrace::generate(
            &Scale::Quick.harvard(),
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        let cfg = SuiteConfig {
            sizes: vec![24],
            kbps: vec![1500],
            measure_groups: 120,
            systems: vec![SystemKind::D2, SystemKind::Traditional],
            ..SuiteConfig::default()
        };
        let suite = perf_suite::run(&trace, &cfg);
        let fig = from_suite(&suite, 24, 1500);
        assert!(!fig.series.is_empty());
        let seq = fig
            .series
            .iter()
            .find(|s| s.mode == Parallelism::Seq)
            .unwrap();
        assert!(!seq.users.is_empty());
        let faster = seq.users.iter().filter(|(_, s)| *s > 1.0).count();
        assert!(
            faster * 2 >= seq.users.len(),
            "most users should speed up: {faster}/{}",
            seq.users.len()
        );
        assert!(!fig.render().is_empty());
    }
}
