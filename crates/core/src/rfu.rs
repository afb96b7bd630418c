//! The Register Forwarding Unit (paper §4.1, Fig. 6, Table 1).
//!
//! Each SIMT cluster ends its register banks with one RFU: a bank of
//! per-lane MUXes that can redirect an *active* lane's operands to an
//! *idle* lane for redundant execution. MUX `m` scans candidate lanes in
//! the priority order `m XOR k`, `k = 0, 1, 2, ...` — for a 4-lane
//! cluster this is exactly the paper's Table 1:
//!
//! | Priority | MUX0 | MUX1 | MUX2 | MUX3 |
//! |---|---|---|---|---|
//! | 1st | 0 | 1 | 2 | 3 |
//! | 2nd | 1 | 0 | 3 | 2 |
//! | 3rd | 2 | 3 | 0 | 1 |
//! | 4th | 3 | 2 | 1 | 0 |
//!
//! The first priority of every MUX is its own lane (normal operation when
//! active). An idle lane's MUX picks the first *active* lane in its
//! sequence; several idle lanes may pick the same active lane (more than
//! dual redundancy — the paper deliberately allows this).

/// Synthesized hardware cost of the RFU (paper §4.1, Synopsys Design
/// Compiler): area in µm² and added delay in ns.
pub const RFU_AREA_UM2: f64 = 390.0;
/// RFU MUX timing overhead in ns.
pub const RFU_DELAY_NS: f64 = 0.08;
/// 128-bit comparator area in µm².
pub const COMPARATOR_AREA_UM2: f64 = 622.0;
/// Comparator delay in ns.
pub const COMPARATOR_DELAY_NS: f64 = 0.068;

/// The priority table: the `k`-th candidate lane of MUX `m`
/// (paper Table 1 generalized to any power-of-two cluster size).
pub const fn priority(m: usize, k: usize) -> usize {
    m ^ k
}

/// The active lane whose operands MUX `m` forwards to its (idle) lane:
/// the first active candidate `priority(m, k)`, `k = 1..cluster_size`,
/// or `None` when no lane of the cluster is active.
pub const fn forwarded_lane(mask: u32, m: usize, cluster_size: usize) -> Option<usize> {
    let mut k = 1;
    while k < cluster_size {
        let cand = priority(m, k);
        if mask & (1 << cand) != 0 {
            return Some(cand);
        }
        k += 1;
    }
    None
}

/// Pairings chosen by one cluster's RFU for a given intra-cluster active
/// mask.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RfuAssignment {
    /// `(verifier_lane, verified_lane)` pairs, both cluster-local.
    pub pairs: Vec<(usize, usize)>,
}

impl RfuAssignment {
    /// Distinct active lanes that got at least one verifier.
    pub fn covered_mask(&self) -> u32 {
        self.pairs.iter().fold(0, |m, (_, v)| m | (1 << v))
    }

    /// Number of distinct verified lanes.
    pub fn covered_count(&self) -> u32 {
        self.covered_mask().count_ones()
    }
}

/// Run the RFU MUX logic for one cluster.
///
/// `mask` holds one bit per cluster-local lane (bit set = active). Every
/// idle lane scans `priority(m, k)` for `k = 1..cluster_size` and adopts
/// the first active lane it finds.
pub fn assign(mask: u32, cluster_size: usize) -> RfuAssignment {
    let pairs = (0..cluster_size)
        // An active lane's MUX passes its own operands through.
        .filter(|m| mask & (1 << m) == 0)
        .filter_map(|m| Some((m, forwarded_lane(mask, m, cluster_size)?)))
        .collect();
    RfuAssignment { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_reproduces_table1() {
        let expected: [[usize; 4]; 4] = [
            [0, 1, 2, 3], // MUX0
            [1, 0, 3, 2], // MUX1
            [2, 3, 0, 1], // MUX2
            [3, 2, 1, 0], // MUX3
        ];
        for (m, row) in expected.iter().enumerate() {
            for (k, want) in row.iter().enumerate() {
                assert_eq!(priority(m, k), *want, "MUX{m} priority {k}");
            }
        }
    }

    #[test]
    fn rfu_timing_is_negligible_at_800mhz() {
        // Paper §4.1: the MUX delay is "less than 0.06%... compared to a
        // typical cycle period (1.25ns)" — i.e. well under a tenth of the
        // cycle even with the comparator included.
        let cycle_ns = 1.25;
        for delay in [RFU_DELAY_NS, COMPARATOR_DELAY_NS] {
            assert!(delay / cycle_ns < 0.1, "delay {delay} ns vs {cycle_ns} ns");
        }
        let areas = [RFU_AREA_UM2, COMPARATOR_AREA_UM2];
        assert!(areas.iter().all(|a| *a > 0.0));
    }

    #[test]
    fn paper_example_mask_0011() {
        // Paper Fig. 6: active mask 4'b0011 — threads 0,1 active; lanes
        // 2,3 DMR them.
        let a = assign(0b0011, 4);
        assert_eq!(a.pairs, vec![(2, 0), (3, 1)]);
        assert_eq!(a.covered_count(), 2);
    }

    #[test]
    fn single_active_lane_gets_triple_verification() {
        // Paper §4.1: one active lane is redundantly executed on all
        // three idle lanes.
        let a = assign(0b0100, 4);
        assert_eq!(a.pairs.len(), 3);
        assert!(a.pairs.iter().all(|(_, v)| *v == 2));
        assert_eq!(a.covered_count(), 1);
    }

    #[test]
    fn full_cluster_has_no_verifiers() {
        assert_eq!(assign(0b1111, 4).pairs, vec![]);
    }

    #[test]
    fn empty_cluster_has_no_pairs() {
        assert_eq!(assign(0b0000, 4).pairs, vec![]);
    }

    #[test]
    fn exhaustive_4lane_coverage_is_min_active_idle() {
        // For a 4-lane cluster the XOR schedule achieves the theoretical
        // min(#active, #idle) coverage for every one of the 16 masks.
        for mask in 0u32..16 {
            let active = mask.count_ones();
            let idle = 4 - active;
            let a = assign(mask, 4);
            assert_eq!(a.covered_count(), active.min(idle), "mask {mask:04b}");
            // Verifiers are always idle lanes; verified always active.
            for (ver, act) in &a.pairs {
                assert_eq!(mask & (1 << ver), 0);
                assert_ne!(mask & (1 << act), 0);
            }
        }
    }

    #[test]
    fn eight_lane_clusters_also_pair() {
        let a = assign(0b0000_1111, 8);
        assert_eq!(a.covered_count(), 4);
        let b = assign(0b0111_1111, 8);
        assert_eq!(b.covered_count(), 1);
    }
}
