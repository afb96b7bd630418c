//! Intra-warp DMR (paper §3.1): spatial redundancy using idle lanes of a
//! partially utilized warp.
//!
//! The pairing of an issue is fixed by its active mask (§4.1–4.2): the
//! thread→core mapping permutes the mask, then each cluster's RFU pairs
//! idle lanes with active ones inside the cluster. [`LaneTables`] holds
//! that pairing precomputed per byte of the mask, which is what the
//! engine reads per issue; [`plan`] computes it directly and is the
//! reference the tables are checked against.

use crate::config::{DmrConfig, ThreadCoreMapping};
use crate::mapping::{self, logical_thread, map_mask};
use crate::rfu;
use crate::shuffle;
use warped_sim::WARP_SIZE;

/// Lanes per table index. Every supported cluster size (1, 2, 4, 8)
/// divides it, so no cluster straddles two bytes of a mask.
const BYTE: usize = 8;
/// Bytes of an active mask.
const BYTES: usize = WARP_SIZE / BYTE;

/// The lane geometry of one `(mapping, cluster_size, lane_shuffle)`
/// configuration, tabulated so an issue needs no per-lane loop: where
/// each thread runs, which idle lane verifies which active one inside
/// its cluster (the RFU, paper Table 1), and where an inter-warp copy is
/// re-executed (lane shuffling).
///
/// Every table is indexed by one byte of a mask, which holds whole
/// clusters. All 16 configurations are built at compile time, so
/// [`LaneTables::of`] is a lookup.
#[derive(Debug)]
pub struct LaneTables {
    /// Per byte `i` of a logical mask and its value, the physical lanes
    /// those threads run on.
    spread: [[u32; 256]; BYTES],
    /// Per physical byte, how many of its active lanes have a verifier.
    covered: [u8; 256],
    /// Per physical byte, its idle lanes that verify an active one.
    verifiers: [u8; 256],
    /// Per physical byte and verifier lane in it, the lane (in the same
    /// byte) whose result that verifier recomputes.
    checked: [[u8; BYTE]; 256],
    /// Per logical thread, its physical lane.
    physical_lane: [u8; WARP_SIZE],
    /// Per physical lane, the logical thread it runs.
    logical_thread: [u8; WARP_SIZE],
    /// Per physical lane, the lane its inter-warp DMR copy runs on.
    verify_lane: [u8; WARP_SIZE],
}

/// The cluster sizes the tables cover; [`DmrConfig::assert_valid`]
/// rejects any other.
const CLUSTER_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Where the tables of a configuration sit in [`TABLES`].
const fn slot(mapping: ThreadCoreMapping, cluster_size: usize, lane_shuffle: bool) -> usize {
    let m = match mapping {
        ThreadCoreMapping::InOrder => 0,
        ThreadCoreMapping::CrossCluster => 1,
    };
    (m * CLUSTER_SIZES.len() + cluster_size.trailing_zeros() as usize) * 2 + lane_shuffle as usize
}

/// The tables of every configuration, at [`slot`].
static TABLES: [LaneTables; 16] = {
    let mut all = [LaneTables::BLANK; 16];
    let mut i = 0;
    while i < all.len() {
        let mapping = if i < 8 {
            ThreadCoreMapping::InOrder
        } else {
            ThreadCoreMapping::CrossCluster
        };
        all[i] = LaneTables::build(mapping, CLUSTER_SIZES[i / 2 % 4], i % 2 == 1);
        i += 1;
    }
    all
};

impl LaneTables {
    /// The tables of `config`'s mapping, cluster size and shuffle setting.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`DmrConfig::assert_valid`]).
    pub fn of(config: &DmrConfig) -> &'static LaneTables {
        config.assert_valid(WARP_SIZE);
        &TABLES[slot(config.mapping, config.cluster_size, config.lane_shuffle)]
    }

    const BLANK: LaneTables = LaneTables {
        spread: [[0; 256]; BYTES],
        covered: [0; 256],
        verifiers: [0; 256],
        checked: [[0; BYTE]; 256],
        physical_lane: [0; WARP_SIZE],
        logical_thread: [0; WARP_SIZE],
        verify_lane: [0; WARP_SIZE],
    };

    const fn build(mapping: ThreadCoreMapping, cs: usize, lane_shuffle: bool) -> LaneTables {
        let mut t = Self::BLANK;
        let mut lane = 0;
        while lane < WARP_SIZE {
            let phys = mapping::physical_lane(mapping, lane, WARP_SIZE, cs);
            t.physical_lane[lane] = phys as u8;
            t.logical_thread[lane] = mapping::logical_thread(mapping, lane, WARP_SIZE, cs) as u8;
            t.verify_lane[lane] = shuffle::verify_lane(lane, cs, lane_shuffle) as u8;
            lane += 1;
        }
        // A byte value's lanes are its lowest set bit's plus the rest's.
        let mut i = 0;
        while i < BYTES {
            let mut v = 1;
            while v < 256 {
                let low = (v as u32).trailing_zeros() as usize;
                let phys = t.physical_lane[i * BYTE + low];
                t.spread[i][v] = t.spread[i][v & (v - 1)] | 1 << phys;
                v += 1;
            }
            i += 1;
        }
        // The RFU of each cluster in a physical byte, as `rfu::assign`
        // runs it; full and empty clusters pair nothing.
        let cluster_full = (1u32 << cs) - 1;
        let mut byte = 0;
        while byte < 256 {
            let mut covered = 0u8;
            let mut base = 0;
            while base < BYTE {
                let mask = (byte as u32 >> base) & cluster_full;
                let mut m = 0;
                while m < cs {
                    if mask & (1 << m) == 0 {
                        if let Some(act) = rfu::forwarded_lane(mask, m, cs) {
                            t.verifiers[byte] |= 1 << (base + m);
                            t.checked[byte][base + m] = (base + act) as u8;
                            covered |= 1 << (base + act);
                        }
                    }
                    m += 1;
                }
                base += cs;
            }
            t.covered[byte] = covered.count_ones() as u8;
            byte += 1;
        }
        t
    }

    /// The physical lanes of the threads in `logical_mask`.
    #[inline]
    pub fn physical_mask(&self, logical_mask: u32) -> u32 {
        let mut phys = 0;
        for (i, spread) in self.spread.iter().enumerate() {
            phys |= spread[(logical_mask >> (i * BYTE)) as usize & 0xff];
        }
        phys
    }

    /// How many active lanes of `physical_mask` an idle lane verifies.
    #[inline]
    pub fn covered(&self, physical_mask: u32) -> u32 {
        physical_mask
            .to_le_bytes()
            .iter()
            .map(|&b| u32::from(self.covered[usize::from(b)]))
            .sum()
    }

    /// The intra-warp pairs of `physical_mask` as `(verifier_lane,
    /// verified_lane, verified_thread)`, in ascending verifier order (the
    /// order of [`plan`]'s pairs).
    #[inline]
    pub fn pairs(&self, physical_mask: u32) -> Pairs<'_> {
        let mut verifiers = 0;
        for (i, &b) in physical_mask.to_le_bytes().iter().enumerate() {
            verifiers |= u32::from(self.verifiers[usize::from(b)]) << (i * BYTE);
        }
        Pairs {
            tables: self,
            physical_mask,
            verifiers,
        }
    }

    /// The physical lane that runs logical thread `thread`.
    #[inline]
    pub fn physical_lane(&self, thread: usize) -> usize {
        usize::from(self.physical_lane[thread])
    }

    /// The logical thread that runs on physical lane `lane`.
    #[inline]
    pub fn logical_thread(&self, lane: usize) -> usize {
        usize::from(self.logical_thread[lane])
    }

    /// The physical lane an inter-warp DMR copy of `lane`'s work runs on.
    #[inline]
    pub fn verify_lane(&self, lane: usize) -> usize {
        usize::from(self.verify_lane[lane])
    }
}

/// The intra-warp pairs of one physical mask; see [`LaneTables::pairs`].
#[derive(Debug, Clone)]
pub struct Pairs<'a> {
    tables: &'a LaneTables,
    physical_mask: u32,
    /// Verifier lanes not yet yielded.
    verifiers: u32,
}

impl Iterator for Pairs<'_> {
    type Item = (usize, usize, usize);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.verifiers == 0 {
            return None;
        }
        let ver = self.verifiers.trailing_zeros() as usize;
        self.verifiers &= self.verifiers - 1;
        let base = ver - ver % BYTE;
        let byte = (self.physical_mask >> base) as u8;
        let act = base + usize::from(self.tables.checked[usize::from(byte)][ver - base]);
        Some((ver, act, self.tables.logical_thread(act)))
    }
}

/// The verification plan for one partially-utilized warp instruction.
#[derive(Debug, Clone, Default)]
pub struct IntraPlan {
    /// `(verifier_physical_lane, verified_physical_lane,
    /// verified_logical_thread)` triples across the whole warp.
    pub pairs: Vec<(usize, usize, usize)>,
    /// Distinct active threads verified.
    pub covered: u32,
    /// Active threads in the warp.
    pub active: u32,
}

/// Plan intra-warp DMR for a warp with `logical_mask` under `config`.
///
/// The logical mask is permuted by the thread→core mapping, split into
/// clusters, and each cluster's RFU picks verifier→verified pairs
/// (the forwarding never crosses a cluster, §4.2).
pub fn plan(logical_mask: u32, config: &DmrConfig, warp_size: usize) -> IntraPlan {
    let cs = config.cluster_size;
    let phys = map_mask(config.mapping, logical_mask, warp_size, cs);
    let mut pairs = Vec::new();
    let mut covered = 0u32;
    for c in 0..warp_size / cs {
        let cluster_mask = (phys >> (c * cs)) & ((1u32 << cs) - 1);
        if cluster_mask == 0 || cluster_mask == (1 << cs) - 1 {
            continue; // nothing to verify with, or nothing active
        }
        let a = rfu::assign(cluster_mask, cs);
        covered += a.covered_count();
        for (ver, act) in a.pairs {
            let ver_lane = c * cs + ver;
            let act_lane = c * cs + act;
            let thread = logical_thread(config.mapping, act_lane, warp_size, cs);
            pairs.push((ver_lane, act_lane, thread));
        }
    }
    IntraPlan {
        pairs,
        covered,
        active: logical_mask.count_ones(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThreadCoreMapping;

    fn cfg(mapping: ThreadCoreMapping) -> DmrConfig {
        DmrConfig {
            mapping,
            ..DmrConfig::default()
        }
    }

    #[test]
    fn fully_divergent_half_warp_is_fully_covered() {
        // 16 active threads in the low half: in-order fills clusters 0..4
        // fully -> zero coverage; cross mapping spreads 2 per cluster ->
        // full coverage.
        let mask = 0x0000_ffff;
        let in_order = plan(mask, &cfg(ThreadCoreMapping::InOrder), 32);
        assert_eq!(in_order.covered, 0);
        let cross = plan(mask, &cfg(ThreadCoreMapping::CrossCluster), 32);
        assert_eq!(cross.covered, 16);
    }

    #[test]
    fn alternating_mask_favors_in_order() {
        // Cross mapping targets *contiguous* divergence; a stride-2
        // pattern is its worst case (even threads land in even clusters,
        // saturating them) while in-order pairs perfectly.
        let mask = 0x5555_5555; // every other thread
        let in_order = plan(mask, &cfg(ThreadCoreMapping::InOrder), 32);
        assert_eq!(in_order.covered, 16);
        let cross = plan(mask, &cfg(ThreadCoreMapping::CrossCluster), 32);
        assert_eq!(cross.covered, 0);
    }

    #[test]
    fn cufft_style_24_of_32() {
        // Contiguous 24 active: in-order covers none in the six saturated
        // clusters but all of nothing else... only clusters 6,7 are idle
        // and hold no active lanes. Cross mapping covers 8 (one per
        // cluster).
        let mask = (1u32 << 24) - 1;
        assert_eq!(plan(mask, &cfg(ThreadCoreMapping::InOrder), 32).covered, 0);
        assert_eq!(
            plan(mask, &cfg(ThreadCoreMapping::CrossCluster), 32).covered,
            8
        );
    }

    #[test]
    fn eight_lane_cluster_beats_in_order_four() {
        // Threads 0..4 active: they saturate 4-lane cluster 0 (coverage 0)
        // but half-fill an 8-lane cluster (full coverage).
        let mask = 0x0000_000f;
        let four = plan(mask, &DmrConfig::baseline_in_order(), 32);
        let eight = plan(mask, &DmrConfig::eight_lane_cluster(), 32);
        assert_eq!(four.covered, 0);
        assert_eq!(eight.covered, 4);
    }

    #[test]
    fn pairs_reference_real_threads() {
        let mask = 0x0000_00ff; // threads 0..8
        let p = plan(mask, &cfg(ThreadCoreMapping::CrossCluster), 32);
        assert_eq!(p.covered, 8);
        for (ver, act, thread) in &p.pairs {
            assert_ne!(ver, act);
            assert!(mask & (1 << thread) != 0, "verified thread must be active");
            // Verifier and verified share a cluster.
            assert_eq!(ver / 4, act / 4);
        }
    }

    #[test]
    fn full_warp_has_no_intra_plan() {
        let p = plan(u32::MAX, &cfg(ThreadCoreMapping::CrossCluster), 32);
        assert_eq!(p.covered, 0);
        assert!(p.pairs.is_empty());
        assert_eq!(p.active, 32);
    }
}
