//! Fault models for GPGPU execution units.
//!
//! The paper targets errors in *execution units only* (memories are ECC
//! protected), distinguishing transient soft errors from permanent
//! (stuck-at) defects — the latter are the motivation for lane shuffling.

use warped_core::{FaultOracle, LaneSite};
use warped_sim::LaneFault;

/// A hardware fault afflicting one SIMT lane. As a [`LaneFault`] it
/// matches the lane index its caller passes: the thread's logical lane
/// on the simulator's datapath, the physical lane in the comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// A single-event upset: one output bit flips for computations
    /// executing on `site` at exactly `cycle`.
    TransientFlip {
        /// The afflicted lane.
        site: LaneSite,
        /// The cycle during which the particle strike corrupts outputs.
        cycle: u64,
        /// Which output bit flips.
        bit: u8,
    },
    /// A permanent defect: one output bit of `site` is stuck at `value`
    /// forever.
    StuckAt {
        /// The afflicted lane.
        site: LaneSite,
        /// Which output bit is stuck.
        bit: u8,
        /// The stuck value.
        value: bool,
    },
}

impl FaultModel {
    /// The afflicted site.
    pub fn site(&self) -> LaneSite {
        match self {
            FaultModel::TransientFlip { site, .. } | FaultModel::StuckAt { site, .. } => *site,
        }
    }

    /// Whether this is a permanent fault.
    pub fn is_permanent(&self) -> bool {
        matches!(self, FaultModel::StuckAt { .. })
    }
}

impl LaneFault for FaultModel {
    fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        let here = LaneSite { sm, lane };
        match *self {
            FaultModel::TransientFlip {
                site,
                cycle: c,
                bit,
            } if site == here && c == cycle => value ^ (1 << bit),
            FaultModel::StuckAt {
                site,
                bit,
                value: v,
            } if site == here => {
                if v {
                    value | (1 << bit)
                } else {
                    value & !(1 << bit)
                }
            }
            _ => value,
        }
    }
}

/// A lane fault seen through a healthy checker.
impl FaultOracle for FaultModel {}

/// A fault inside the detection hardware itself — the paper's §3.2
/// "who checks the checker" question. These sites never corrupt the
/// datapath; they degrade (or spuriously trigger) *detection*, which is
/// why campaigns pair them with a datapath fault to measure how much
/// coverage survives a broken checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckerFault {
    /// The DMR comparator on `sm` is stuck reporting "equal": every
    /// real mismatch is swallowed (fail-silent checker).
    ComparatorStuckPass {
        /// SM whose comparator is dead.
        sm: usize,
    },
    /// An RFU operand-mux select wire on `sm` is broken: verifications
    /// routed through SIMT cluster `cluster` compare against the wrong
    /// forwarded operand and fire spuriously (fail-loud checker).
    RfuMuxSelect {
        /// SM whose RFU is afflicted.
        sm: usize,
        /// Index of the broken 4-lane cluster.
        cluster: usize,
        /// Lanes per cluster (to map verifier lanes to clusters).
        cluster_size: usize,
    },
    /// A ReplayQ entry-metadata cell on `sm` is dead: active-mask bit
    /// `bit` always reads as zero, so that lane's buffered copy is
    /// silently skipped by inter-warp verification.
    ReplayqMaskDrop {
        /// SM whose ReplayQ is afflicted.
        sm: usize,
        /// The mask bit that reads as zero.
        bit: u8,
    },
    /// A weak cell in the unverified-result RF slot on `sm`: stored
    /// original values read back with bit `bit` flipped, so inter-warp
    /// comparisons fire spuriously (fail-loud, but it burns ReplayQ
    /// bandwidth and masks the *location* of real faults).
    StoredResultFlip {
        /// SM whose RF slot is afflicted.
        sm: usize,
        /// The flipped storage bit.
        bit: u8,
    },
}

impl CheckerFault {
    /// The afflicted SM.
    pub fn sm(&self) -> usize {
        match *self {
            CheckerFault::ComparatorStuckPass { sm }
            | CheckerFault::RfuMuxSelect { sm, .. }
            | CheckerFault::ReplayqMaskDrop { sm, .. }
            | CheckerFault::StoredResultFlip { sm, .. } => sm,
        }
    }

    /// Whether this fault can *hide* real errors (as opposed to firing
    /// spuriously).
    pub fn is_fail_silent(&self) -> bool {
        matches!(
            self,
            CheckerFault::ComparatorStuckPass { .. } | CheckerFault::ReplayqMaskDrop { .. }
        )
    }

    /// The comparator's verdict on `sm` at `cycle` for a raw `mismatch`
    /// ([`FaultOracle::verdict`]).
    pub fn verdict(&self, sm: usize, _cycle: u64, mismatch: bool) -> bool {
        match *self {
            CheckerFault::ComparatorStuckPass { sm: s } if s == sm => false,
            _ => mismatch,
        }
    }

    /// A result word read back from checker storage on `sm`
    /// ([`FaultOracle::stored_value`]).
    pub fn stored_value(&self, sm: usize, _cycle: u64, value: u32) -> u32 {
        match *self {
            CheckerFault::StoredResultFlip { sm: s, bit } if s == sm => value ^ (1 << bit),
            _ => value,
        }
    }

    /// Whether the RFU misroutes the operand forwarded to `verifier` on
    /// `sm` ([`FaultOracle::mux_misroute`]).
    pub fn mux_misroute(&self, sm: usize, verifier: usize) -> bool {
        match *self {
            CheckerFault::RfuMuxSelect {
                sm: s,
                cluster,
                cluster_size,
            } => s == sm && verifier / cluster_size.max(1) == cluster,
            _ => false,
        }
    }

    /// A buffered ReplayQ entry's active mask as read back on `sm`
    /// ([`FaultOracle::entry_mask`]).
    pub fn entry_mask(&self, sm: usize, mask: u32) -> u32 {
        match *self {
            CheckerFault::ReplayqMaskDrop { sm: s, bit } if s == sm => mask & !(1 << bit),
            _ => mask,
        }
    }
}

/// A datapath fault, possibly seen through a broken checker — the
/// oracle the resilient campaigns hand to the DMR engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompoundFault {
    /// The datapath (execution-unit) fault.
    pub lane: FaultModel,
    /// The checker-internal fault, if any.
    pub checker: Option<CheckerFault>,
}

impl CompoundFault {
    /// A pure datapath fault.
    pub fn lane_only(model: FaultModel) -> Self {
        CompoundFault {
            lane: model,
            checker: None,
        }
    }

    /// Whether a Warped-DMR run under this oracle can never detect
    /// anything: the comparator is stuck at "equal" on the very SM the
    /// datapath fault sits on. The lane half corrupts only that SM's
    /// computations, every comparison there passes, and no other checker
    /// site is broken, so comparisons elsewhere always match.
    pub fn is_fail_silent(&self) -> bool {
        matches!(self.checker, Some(CheckerFault::ComparatorStuckPass { sm }) if sm == self.lane.site().sm)
    }
}

impl LaneFault for CompoundFault {
    fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        self.lane.corrupt(sm, lane, cycle, value)
    }
}

impl FaultOracle for CompoundFault {
    fn verdict(&self, sm: usize, cycle: u64, mismatch: bool) -> bool {
        self.checker
            .map_or(mismatch, |c| c.verdict(sm, cycle, mismatch))
    }

    fn stored_value(&self, sm: usize, cycle: u64, value: u32) -> u32 {
        self.checker
            .map_or(value, |c| c.stored_value(sm, cycle, value))
    }

    fn mux_misroute(&self, sm: usize, verifier: usize) -> bool {
        self.checker.is_some_and(|c| c.mux_misroute(sm, verifier))
    }

    fn entry_mask(&self, sm: usize, mask: u32) -> u32 {
        self.checker.map_or(mask, |c| c.entry_mask(sm, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE: LaneSite = LaneSite { sm: 1, lane: 7 };

    #[test]
    fn transient_hits_only_its_cycle_and_site() {
        let f = FaultModel::TransientFlip {
            site: SITE,
            cycle: 100,
            bit: 3,
        };
        assert_eq!(f.corrupt(SITE.sm, SITE.lane, 100, 0), 8);
        assert_eq!(f.corrupt(SITE.sm, SITE.lane, 101, 0), 0);
        assert_eq!(f.corrupt(1, 8, 100, 0), 0);
        assert!(!f.is_permanent());
        assert_eq!(f.site(), SITE);
    }

    #[test]
    fn transient_is_an_involution() {
        let f = FaultModel::TransientFlip {
            site: SITE,
            cycle: 5,
            bit: 31,
        };
        let v = 0xdead_beef;
        assert_eq!(
            f.corrupt(SITE.sm, SITE.lane, 5, f.corrupt(SITE.sm, SITE.lane, 5, v)),
            v
        );
    }

    #[test]
    fn stuck_at_one_forces_the_bit() {
        let f = FaultModel::StuckAt {
            site: SITE,
            bit: 0,
            value: true,
        };
        assert_eq!(f.corrupt(SITE.sm, SITE.lane, 0, 0), 1);
        assert_eq!(f.corrupt(SITE.sm, SITE.lane, 999, 1), 1);
        assert_eq!(f.corrupt(0, 7, 0, 0), 0);
        assert!(f.is_permanent());
    }

    #[test]
    fn stuck_at_zero_clears_the_bit() {
        let f = FaultModel::StuckAt {
            site: SITE,
            bit: 4,
            value: false,
        };
        assert_eq!(f.corrupt(SITE.sm, SITE.lane, 0, 0xff), 0xef);
        assert_eq!(f.corrupt(SITE.sm, SITE.lane, 0, 0xef), 0xef);
    }

    #[test]
    fn stuck_at_is_idempotent() {
        let f = FaultModel::StuckAt {
            site: SITE,
            bit: 9,
            value: true,
        };
        let once = f.corrupt(SITE.sm, SITE.lane, 1, 12345);
        assert_eq!(f.corrupt(SITE.sm, SITE.lane, 2, once), once);
    }

    #[test]
    fn dead_comparator_swallows_mismatches_on_its_sm_only() {
        let f = CheckerFault::ComparatorStuckPass { sm: 2 };
        assert!(!f.verdict(2, 10, true));
        assert!(f.verdict(3, 10, true));
        assert!(!f.verdict(3, 10, false));
        assert!(f.is_fail_silent());
        assert_eq!(f.sm(), 2);
    }

    #[test]
    fn broken_mux_misroutes_exactly_its_cluster() {
        let f = CheckerFault::RfuMuxSelect {
            sm: 0,
            cluster: 1,
            cluster_size: 4,
        };
        assert!(f.mux_misroute(0, 4));
        assert!(f.mux_misroute(0, 7));
        assert!(!f.mux_misroute(0, 3));
        assert!(!f.mux_misroute(0, 8));
        assert!(!f.mux_misroute(1, 5), "other SMs are healthy");
        assert!(!f.is_fail_silent());
    }

    #[test]
    fn dead_mask_cell_drops_its_bit() {
        let f = CheckerFault::ReplayqMaskDrop { sm: 1, bit: 3 };
        assert_eq!(f.entry_mask(1, 0b1111), 0b0111);
        assert_eq!(f.entry_mask(0, 0b1111), 0b1111);
        assert!(f.is_fail_silent());
    }

    #[test]
    fn weak_rf_cell_flips_stored_values() {
        let f = CheckerFault::StoredResultFlip { sm: 0, bit: 0 };
        assert_eq!(f.stored_value(0, 9, 0), 1);
        assert_eq!(f.stored_value(2, 9, 0), 0);
        assert!(!f.is_fail_silent());
    }

    #[test]
    fn compound_combines_both_halves_and_lane_only_checks_healthily() {
        let lane = FaultModel::TransientFlip {
            site: SITE,
            cycle: 5,
            bit: 0,
        };
        let solo = CompoundFault::lane_only(lane);
        assert_eq!(solo.corrupt(SITE.sm, SITE.lane, 5, 0), 1);
        assert_eq!(solo.corrupt(SITE.sm, SITE.lane, 6, 42), 42);
        assert!(solo.verdict(1, 5, true));
        assert_eq!(solo.entry_mask(0, 0xf), 0xf);
        assert_eq!(solo.stored_value(0, 0, 3), 3);
        assert!(!solo.mux_misroute(0, 0));

        let both = CompoundFault {
            lane,
            checker: Some(CheckerFault::ComparatorStuckPass { sm: 1 }),
        };
        assert_eq!(
            both.corrupt(SITE.sm, SITE.lane, 5, 0),
            1,
            "datapath half applies"
        );
        assert!(!both.verdict(1, 5, true), "checker half swallows");
    }

    #[test]
    fn fail_silent_needs_a_dead_comparator_on_the_lane_faults_sm() {
        let lane = FaultModel::StuckAt {
            site: SITE,
            bit: 2,
            value: true,
        };
        let dead = |sm| CompoundFault {
            lane,
            checker: Some(CheckerFault::ComparatorStuckPass { sm }),
        };
        assert!(dead(SITE.sm).is_fail_silent());
        assert!(
            !dead(SITE.sm + 1).is_fail_silent(),
            "other SMs still compare"
        );
        assert!(!CompoundFault::lane_only(lane).is_fail_silent());
        let mask = CheckerFault::ReplayqMaskDrop {
            sm: SITE.sm,
            bit: 7,
        };
        assert!(
            !CompoundFault {
                lane,
                checker: Some(mask)
            }
            .is_fail_silent(),
            "intra-warp checks still see the lane"
        );
    }
}
