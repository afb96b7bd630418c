//! Warped-DMR configuration.

/// How threads of a warp are assigned to physical SIMT lanes (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadCoreMapping {
    /// Conventional affinity: thread `i` executes on lane `i`.
    InOrder,
    /// The paper's modified scheduler: thread `i` goes to cluster
    /// `i mod num_clusters`, slot `i / num_clusters` — spreading active
    /// threads (which tend to be contiguous after divergence) across
    /// clusters so idle verifier lanes are available everywhere.
    CrossCluster,
}

/// Configuration of the Warped-DMR engine.
///
/// `Default` is the paper's best configuration: 4-lane SIMT clusters,
/// cross-cluster thread mapping, lane shuffling on, a 10-entry ReplayQ,
/// and both DMR mechanisms enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmrConfig {
    /// SIMT lanes per cluster (paper evaluates 4 and 8; register
    /// forwarding never crosses a cluster). Must be 1, 2, 4 or 8.
    pub cluster_size: usize,
    /// ReplayQ capacity in entries (paper Fig. 9b sweeps 0, 1, 5, 10).
    pub replayq_entries: usize,
    /// Thread→lane mapping policy (paper Fig. 9a "cross mapping").
    pub mapping: ThreadCoreMapping,
    /// Verify inter-warp DMR copies on a different lane of the same
    /// cluster (paper §3.2 "Lane Shuffling"); disabling it hides
    /// permanent faults.
    pub lane_shuffle: bool,
    /// Enable intra-warp (spatial) DMR.
    pub enable_intra: bool,
    /// Enable inter-warp (temporal) DMR.
    pub enable_inter: bool,
}

impl Default for DmrConfig {
    fn default() -> Self {
        DmrConfig {
            cluster_size: 4,
            replayq_entries: 10,
            mapping: ThreadCoreMapping::CrossCluster,
            lane_shuffle: true,
            enable_intra: true,
            enable_inter: true,
        }
    }
}

impl DmrConfig {
    /// The paper's *baseline* DMR configuration of Fig. 9a: 4-lane
    /// clusters with conventional in-order thread mapping.
    pub fn baseline_in_order() -> Self {
        DmrConfig {
            mapping: ThreadCoreMapping::InOrder,
            ..Self::default()
        }
    }

    /// The Fig. 9a middle bar: 8-lane clusters, in-order mapping.
    pub fn eight_lane_cluster() -> Self {
        DmrConfig {
            cluster_size: 8,
            mapping: ThreadCoreMapping::InOrder,
            ..Self::default()
        }
    }

    /// A copy with a different ReplayQ capacity (Fig. 9b sweep).
    #[must_use]
    pub fn with_replayq(mut self, entries: usize) -> Self {
        self.replayq_entries = entries;
        self
    }

    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size` is not a power of two of at most 8 lanes
    /// (the engine tabulates intra-warp pairs per byte of the active
    /// mask, so a cluster must fit in one) or does not divide the warp
    /// size.
    pub fn assert_valid(&self, warp_size: usize) {
        assert!(
            self.cluster_size.is_power_of_two() && self.cluster_size <= 8,
            "cluster size must be a power of two of at most 8 lanes"
        );
        assert_eq!(
            warp_size % self.cluster_size,
            0,
            "cluster size must divide the warp size"
        );
    }

    /// Clusters per warp.
    pub fn num_clusters(&self, warp_size: usize) -> usize {
        warp_size / self.cluster_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_best() {
        let c = DmrConfig::default();
        assert_eq!(c.cluster_size, 4);
        assert_eq!(c.replayq_entries, 10);
        assert_eq!(c.mapping, ThreadCoreMapping::CrossCluster);
        assert!(c.lane_shuffle && c.enable_intra && c.enable_inter);
        c.assert_valid(32);
    }

    #[test]
    fn fig9a_variants() {
        assert_eq!(
            DmrConfig::baseline_in_order().mapping,
            ThreadCoreMapping::InOrder
        );
        assert_eq!(DmrConfig::eight_lane_cluster().cluster_size, 8);
        assert_eq!(DmrConfig::default().with_replayq(5).replayq_entries, 5);
    }

    #[test]
    fn num_clusters_math() {
        assert_eq!(DmrConfig::default().num_clusters(32), 8);
        assert_eq!(DmrConfig::eight_lane_cluster().num_clusters(32), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_cluster_size_panics() {
        DmrConfig {
            cluster_size: 3,
            ..Default::default()
        }
        .assert_valid(32);
    }
}
