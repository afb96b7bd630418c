//! Thread→core (SIMT lane) mapping (paper §4.2).
//!
//! After branch divergence, active threads tend to be *contiguous* (e.g.
//! threads 0..24 took the branch). Under in-order mapping, contiguous
//! activity fills whole 4-lane clusters, leaving no idle verifier inside
//! them. Cross-cluster mapping deals threads round-robin across clusters
//! so idleness is spread where the RFU can exploit it.

use crate::config::ThreadCoreMapping;

/// Physical lane executing logical thread `thread` of a warp.
pub const fn physical_lane(
    mapping: ThreadCoreMapping,
    thread: usize,
    warp_size: usize,
    cluster_size: usize,
) -> usize {
    match mapping {
        ThreadCoreMapping::InOrder => thread,
        ThreadCoreMapping::CrossCluster => {
            let num_clusters = warp_size / cluster_size;
            let cluster = thread % num_clusters;
            let slot = thread / num_clusters;
            cluster * cluster_size + slot
        }
    }
}

/// Permute a logical active mask into the physical-lane domain.
pub fn map_mask(
    mapping: ThreadCoreMapping,
    logical: u32,
    warp_size: usize,
    cluster_size: usize,
) -> u32 {
    match mapping {
        ThreadCoreMapping::InOrder => logical,
        ThreadCoreMapping::CrossCluster => {
            let mut phys = 0u32;
            for t in 0..warp_size {
                if logical & (1 << t) != 0 {
                    phys |= 1 << physical_lane(mapping, t, warp_size, cluster_size);
                }
            }
            phys
        }
    }
}

/// Inverse of [`physical_lane`]: which logical thread runs on `lane`.
pub const fn logical_thread(
    mapping: ThreadCoreMapping,
    lane: usize,
    warp_size: usize,
    cluster_size: usize,
) -> usize {
    match mapping {
        ThreadCoreMapping::InOrder => lane,
        ThreadCoreMapping::CrossCluster => {
            let num_clusters = warp_size / cluster_size;
            let cluster = lane / cluster_size;
            let slot = lane % cluster_size;
            slot * num_clusters + cluster
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_is_identity() {
        for t in 0..32 {
            assert_eq!(physical_lane(ThreadCoreMapping::InOrder, t, 32, 4), t);
        }
        assert_eq!(map_mask(ThreadCoreMapping::InOrder, 0xdead, 32, 4), 0xdead);
    }

    #[test]
    fn cross_cluster_is_a_bijection() {
        let mut seen = [false; 32];
        for t in 0..32 {
            let l = physical_lane(ThreadCoreMapping::CrossCluster, t, 32, 4);
            assert!(!seen[l], "lane {l} assigned twice");
            seen[l] = true;
            assert_eq!(logical_thread(ThreadCoreMapping::CrossCluster, l, 32, 4), t);
        }
    }

    #[test]
    fn cross_cluster_spreads_contiguous_threads() {
        // Threads 0..8 land in 8 different clusters.
        let clusters: Vec<usize> = (0..8)
            .map(|t| physical_lane(ThreadCoreMapping::CrossCluster, t, 32, 4) / 4)
            .collect();
        let mut sorted = clusters.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "threads 0..8 should hit all 8 clusters");
    }

    #[test]
    fn contiguous_24_leaves_an_idle_lane_per_cluster() {
        // The CUFFT case: 24 contiguous active threads.
        let logical = (1u32 << 24) - 1;
        let phys = map_mask(ThreadCoreMapping::CrossCluster, logical, 32, 4);
        for c in 0..8 {
            let cluster_mask = (phys >> (c * 4)) & 0xf;
            assert_eq!(
                cluster_mask.count_ones(),
                3,
                "cluster {c} should hold exactly 3 active lanes"
            );
        }
        // Under in-order mapping, clusters 0..6 are saturated instead.
        let in_order = map_mask(ThreadCoreMapping::InOrder, logical, 32, 4);
        assert_eq!((in_order & 0xf).count_ones(), 4);
    }

    #[test]
    fn mask_popcount_is_preserved() {
        for mask in [0u32, 1, 0xff, 0x0f0f_0f0f, u32::MAX, 0x8000_0001] {
            let m = map_mask(ThreadCoreMapping::CrossCluster, mask, 32, 4);
            assert_eq!(m.count_ones(), mask.count_ones());
        }
    }
}
