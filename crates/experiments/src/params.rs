//! Shared experiment scales.
//!
//! The paper runs 247-node week-long simulations over an 83 GB trace and
//! 1,000-node Emulab deployments over 27.5 M blocks. The same experiment
//! *shapes* run here at laptop scale; EXPERIMENTS.md records the mapping.
//! `Scale::Quick` keeps unit tests fast; `Scale::Full` is what the bench
//! harness and examples use.

use d2_core::ClusterConfig;
use d2_sim::SimTime;
use d2_workload::{HarvardConfig, WebConfig};

/// Experiment size preset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast parameters for CI and unit tests (the default).
    #[default]
    Quick,
    /// The scaled-down reproduction defaults (minutes on a laptop).
    Full,
}

impl Scale {
    /// Harvard-like trace parameters for this scale.
    pub fn harvard(&self) -> HarvardConfig {
        match self {
            Scale::Quick => HarvardConfig {
                users: 8,
                days: 1.0,
                initial_bytes: 48 << 20,
                reads_per_user_hour: 60.0,
                ..HarvardConfig::default()
            },
            Scale::Full => HarvardConfig {
                users: 40,
                days: 7.0,
                initial_bytes: 1 << 30,
                reads_per_user_hour: 120.0,
                ..HarvardConfig::default()
            },
        }
    }

    /// Web trace parameters for this scale.
    pub fn web(&self) -> WebConfig {
        match self {
            // Large object universes relative to the request rate, so most
            // objects are one-hit wonders and daily cache churn approaches
            // the paper's near-total turnover (Table 3, Webcache rows).
            Scale::Quick => WebConfig {
                domains: 1500,
                pages_per_domain: 6.0,
                users: 12,
                days: 2.0,
                requests_per_user_hour: 80.0,
                ..WebConfig::default()
            },
            Scale::Full => WebConfig {
                domains: 6000,
                pages_per_domain: 15.0,
                days: 6.0,
                ..WebConfig::default()
            },
        }
    }

    /// Cluster parameters (availability/balance experiments; the paper
    /// uses 247 nodes and r = 3).
    pub fn cluster(&self, seed: u64) -> ClusterConfig {
        match self {
            Scale::Quick => ClusterConfig {
                nodes: 24,
                replicas: 3,
                seed,
                ..Default::default()
            },
            Scale::Full => ClusterConfig {
                nodes: 96,
                replicas: 3,
                seed,
                ..Default::default()
            },
        }
    }

    /// System sizes for the performance sweep (the paper uses 200 / 500 /
    /// 1,000 virtual nodes).
    pub fn perf_sizes(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![16, 32],
            Scale::Full => vec![50, 125, 250],
        }
    }

    /// Warm-up days of balancing before measurements (paper: 3).
    pub fn warmup_days(&self) -> f64 {
        match self {
            Scale::Quick => 1.0,
            Scale::Full => 1.0,
        }
    }

    /// The balance warm-up of Table 4's and Figure 16's cells: twice the
    /// availability warm-up.
    pub fn balance_warmup(&self) -> SimTime {
        SimTime::from_secs_f64(self.warmup_days() * 86_400.0 * 2.0)
    }

    /// Trials per availability configuration (paper: 5).
    pub fn trials(&self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Full => 5,
        }
    }
}
