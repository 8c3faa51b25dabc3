//! Cluster configuration with the paper's defaults.
//!
//! Only what a figure varies is a field. The paper's fixed parameters
//! are constants beside the code that reads them:
//! [`PROBE_INTERVAL`](crate::cluster::PROBE_INTERVAL),
//! [`POINTER_STABILIZATION`](crate::cluster::POINTER_STABILIZATION),
//! [`MIGRATION_KBPS`](crate::cluster::MIGRATION_KBPS),
//! [`SUCCESSORS`](d2_ring::SUCCESSORS), the balancer's
//! [`THRESHOLD`](d2_ring::balance::THRESHOLD) and the lookup cache's
//! [`DEFAULT_TTL_SECS`](d2_store::lookup_cache::DEFAULT_TTL_SECS).

use d2_ec::RedundancyPolicy;

/// Configuration shared by every cluster simulation.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Replicas per block (paper: 3 in the availability runs, 4 in the
    /// performance runs).
    pub replicas: usize,
    /// RNG seed (node placement, balance probes).
    pub seed: u64,
    /// Redundancy backend (paper Section 3's replication-vs-coding
    /// trade-off). `None` (default) is whole-block replication at
    /// [`ClusterConfig::replicas`]; `Some(policy)` selects the policy
    /// explicitly — `ErasureCode { k, n }` stores `n` fragments of
    /// `len/k` bytes on `n` consecutive successors and reconstructs a
    /// block from any `k` of them, regenerating lost fragments once the
    /// survivors drop below [`RedundancyPolicy::default_repair_threshold`].
    pub redundancy: Option<RedundancyPolicy>,
    /// Repair-budget rate limit in bytes/sec per node for lazy erasure
    /// repair traffic (gather + regenerated fragments). `0` (default)
    /// means unlimited — repair is still lazy but never throttled.
    pub repair_budget_bps: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 64,
            replicas: 3,
            seed: 1,
            redundancy: None,
            repair_budget_bps: 0,
        }
    }
}

impl ClusterConfig {
    /// The effective redundancy policy: `redundancy` if set, else
    /// whole-block replication at [`ClusterConfig::replicas`].
    pub fn redundancy_policy(&self) -> RedundancyPolicy {
        self.redundancy
            .unwrap_or(RedundancyPolicy::Replicate { r: self.replicas })
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{MIGRATION_KBPS, POINTER_STABILIZATION, PROBE_INTERVAL};
    use d2_sim::SimTime;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(PROBE_INTERVAL, SimTime::from_secs(600));
        assert_eq!(POINTER_STABILIZATION, SimTime::from_secs(3600));
        assert_eq!(MIGRATION_KBPS, 750);
        assert_eq!(d2_store::lookup_cache::DEFAULT_TTL_SECS, 4500);
        assert!((d2_ring::balance::THRESHOLD - 4.0).abs() < 1e-9);
    }
}
