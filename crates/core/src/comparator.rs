//! Result comparison and the fault-injection interface.
//!
//! In hardware, Warped-DMR's 128-bit comparator sits after writeback and
//! raises an error to the scheduler when the original and redundant
//! results differ (paper Fig. 6; synthesized at 622 µm², 0.068 ns). In
//! simulation the redundant execution would trivially equal the original,
//! so fault campaigns supply a [`FaultOracle`]: a model of how a given
//! physical lane corrupts values at a given cycle. The comparator then
//! sees exactly what hardware would see.

use warped_sim::{LaneFault, NoFault};

/// A physical execution-unit site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneSite {
    /// SM index on the chip.
    pub sm: usize,
    /// Physical SIMT lane within the SM.
    pub lane: usize,
}

/// A model of faulty execution hardware as the DMR comparator sees it.
///
/// The lane half is the simulator's datapath hook, [`LaneFault::corrupt`]:
/// the comparators call it with the **physical** lane that computed the
/// value, so one fault model serves the simulator and the checker alike.
///
/// The methods declared here model faults in the *checker itself* — the
/// comparator, the RFU forwarding muxes, and the ReplayQ storage the
/// paper's §3.2 argument assumes fault-free. They default to healthy
/// behavior so lane-only oracles need not implement them.
pub trait FaultOracle: LaneFault {
    /// Filter the comparator's raw mismatch verdict on `sm` at `cycle`.
    /// A faulty comparator can swallow a real mismatch (stuck-at-"match")
    /// — the canonical "who checks the checker" failure.
    fn verdict(&self, _sm: usize, _cycle: u64, mismatch: bool) -> bool {
        mismatch
    }

    /// Corrupt a result word read back from checker storage (the ReplayQ
    /// entry or the unverified RF slot) on `sm` at `cycle`. Only the
    /// inter-warp path buffers results, so only it consults this.
    fn stored_value(&self, _sm: usize, _cycle: u64, value: u32) -> u32 {
        value
    }

    /// Whether the RFU's mux select lines misroute the operand forwarded
    /// to `verifier` on `sm`, making the intra-warp copy compute on the
    /// wrong input (manifests as a spurious mismatch).
    fn mux_misroute(&self, _sm: usize, _verifier: usize) -> bool {
        false
    }

    /// Corrupt the active-mask metadata of a buffered ReplayQ entry on
    /// `sm`. Dropped bits silently skip the corresponding lane's
    /// verification (a coverage hole, not an error signal).
    fn entry_mask(&self, _sm: usize, mask: u32) -> u32 {
        mask
    }
}

/// The healthy machine: an identity datapath and a working checker.
impl FaultOracle for NoFault {}

/// One detected mismatch between original and redundant execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedError {
    /// SM where the comparator fired.
    pub sm: usize,
    /// Cycle of the verification (when the error became known).
    pub cycle: u64,
    /// Warp whose instruction mismatched.
    pub warp_uid: u64,
    /// Lane that executed the original computation.
    pub original_lane: usize,
    /// Lane that executed the redundant copy.
    pub verifier_lane: usize,
}

/// Bounded log of detected errors (the scheduler would be interrupted on
/// the first one; we keep a window of up to 4096 events for analysis).
#[derive(Debug, Clone, Default)]
pub struct ErrorLog {
    events: Vec<DetectedError>,
    total: u64,
}

impl ErrorLog {
    const CAP: usize = 4096;

    /// Record a detection.
    pub fn record(&mut self, e: DetectedError) {
        self.total += 1;
        if self.events.len() < Self::CAP {
            self.events.push(e);
        }
    }

    /// Total detections (may exceed the stored window).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Stored events (the first 4096 at most; see [`ErrorLog::total`]).
    pub fn events(&self) -> &[DetectedError] {
        &self.events
    }

    /// Whether anything was detected.
    pub fn any(&self) -> bool {
        self.total > 0
    }
}

/// Compare an original and a redundant execution of the same computation
/// under `oracle`, recording a [`DetectedError`] on mismatch.
///
/// `value` is the fault-free result; the original ran on
/// `original` at `orig_cycle`, the copy on `verifier` at `verify_cycle`.
#[allow(clippy::too_many_arguments)]
pub fn compare_and_log(
    oracle: &dyn LaneFault,
    log: &mut ErrorLog,
    sm: usize,
    warp_uid: u64,
    value: u32,
    original: usize,
    orig_cycle: u64,
    verifier: usize,
    verify_cycle: u64,
) -> bool {
    let o = oracle.corrupt(sm, original, orig_cycle, value);
    let v = oracle.corrupt(sm, verifier, verify_cycle, value);
    if o != v {
        log.record(DetectedError {
            sm,
            cycle: verify_cycle,
            warp_uid,
            original_lane: original,
            verifier_lane: verifier,
        });
        true
    } else {
        false
    }
}

/// Which DMR datapath a comparison travels through — determines which
/// checker-internal fault sites apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareStage {
    /// Intra-warp: the original result is forwarded through the RFU muxes
    /// in the same cycle; nothing is buffered.
    Intra,
    /// Inter-warp: the original result was buffered in the ReplayQ / RF
    /// slot until the Replay Checker found a verification slot.
    Inter,
}

/// [`compare_and_log`] with the checker-internal fault sites of `stage`
/// applied: stored-copy corruption (inter only), RFU mux misroutes (intra
/// only), and the comparator-verdict filter (both).
///
/// [`compare_and_log`] itself stays the checker-fault-free compare — the
/// DMTR/residue baselines verify on the original core without Warped-DMR's
/// forwarding or buffering hardware, so these sites don't exist there.
#[allow(clippy::too_many_arguments)]
pub fn compare_staged(
    oracle: &dyn FaultOracle,
    log: &mut ErrorLog,
    stage: CompareStage,
    sm: usize,
    warp_uid: u64,
    value: u32,
    original: usize,
    orig_cycle: u64,
    verifier: usize,
    verify_cycle: u64,
) -> bool {
    let mut o = oracle.corrupt(sm, original, orig_cycle, value);
    if stage == CompareStage::Inter {
        o = oracle.stored_value(sm, orig_cycle, o);
    }
    let v = oracle.corrupt(sm, verifier, verify_cycle, value);
    let misroute = stage == CompareStage::Intra && oracle.mux_misroute(sm, verifier);
    let mismatch = o != v || misroute;
    if oracle.verdict(sm, verify_cycle, mismatch) {
        log.record(DetectedError {
            sm,
            cycle: verify_cycle,
            warp_uid,
            original_lane: original,
            verifier_lane: verifier,
        });
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lane 3 of SM 0 is stuck: output bit 0 forced to 1.
    struct StuckLane3;
    impl LaneFault for StuckLane3 {
        fn corrupt(&self, sm: usize, lane: usize, _cycle: u64, value: u32) -> u32 {
            if sm == 0 && lane == 3 {
                value | 1
            } else {
                value
            }
        }
    }
    impl FaultOracle for StuckLane3 {}

    #[test]
    fn healthy_oracle_never_mismatches() {
        let mut log = ErrorLog::default();
        let hit = compare_and_log(&NoFault, &mut log, 0, 7, 42, 3, 10, 0, 15);
        assert!(!hit);
        assert!(!log.any());
    }

    #[test]
    fn stuck_lane_detected_when_verified_elsewhere() {
        let mut log = ErrorLog::default();
        // Original on faulty lane 3, copy on healthy lane 0: mismatch.
        let hit = compare_and_log(&StuckLane3, &mut log, 0, 7, 42, 3, 10, 0, 15);
        assert!(hit);
        assert_eq!(log.total(), 1);
        assert_eq!(log.events()[0].original_lane, 3);
    }

    #[test]
    fn stuck_lane_hidden_when_verified_on_itself() {
        // The paper's hidden-error scenario: same faulty core runs both.
        let mut log = ErrorLog::default();
        let hit = compare_and_log(&StuckLane3, &mut log, 0, 7, 42, 3, 10, 3, 15);
        assert!(!hit, "same-core verification must hide the stuck-at fault");
    }

    #[test]
    fn stuck_bit_already_set_is_benign() {
        // Value 43 already has bit 0 set; the stuck-at-1 changes nothing.
        let mut log = ErrorLog::default();
        let hit = compare_and_log(&StuckLane3, &mut log, 0, 7, 43, 3, 10, 0, 15);
        assert!(!hit);
    }

    /// A comparator on SM 0 that is stuck reporting "match".
    struct MuteComparator;
    impl LaneFault for MuteComparator {
        fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
            StuckLane3.corrupt(sm, lane, cycle, value)
        }
    }
    impl FaultOracle for MuteComparator {
        fn verdict(&self, sm: usize, _cycle: u64, mismatch: bool) -> bool {
            mismatch && sm != 0
        }
    }

    #[test]
    fn staged_compare_matches_plain_compare_for_lane_oracles() {
        for stage in [CompareStage::Intra, CompareStage::Inter] {
            let mut a = ErrorLog::default();
            let mut b = ErrorLog::default();
            let plain = compare_and_log(&StuckLane3, &mut a, 0, 7, 42, 3, 10, 0, 15);
            let staged = compare_staged(&StuckLane3, &mut b, stage, 0, 7, 42, 3, 10, 0, 15);
            assert_eq!(plain, staged);
            assert_eq!(a.total(), b.total());
        }
    }

    #[test]
    fn mute_comparator_swallows_a_real_mismatch() {
        let mut log = ErrorLog::default();
        let hit = compare_staged(
            &MuteComparator,
            &mut log,
            CompareStage::Inter,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        );
        assert!(!hit, "stuck-at-match comparator must hide the lane fault");
        assert!(!log.any());
    }

    #[test]
    fn stored_copy_corruption_fires_only_on_the_inter_path() {
        struct RottenStore;
        impl LaneFault for RottenStore {
            fn corrupt(&self, _sm: usize, _lane: usize, _c: u64, value: u32) -> u32 {
                value
            }
        }
        impl FaultOracle for RottenStore {
            fn stored_value(&self, _sm: usize, _c: u64, value: u32) -> u32 {
                value ^ 4
            }
        }
        let mut log = ErrorLog::default();
        assert!(compare_staged(
            &RottenStore,
            &mut log,
            CompareStage::Inter,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
        assert!(!compare_staged(
            &RottenStore,
            &mut log,
            CompareStage::Intra,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
    }

    #[test]
    fn mux_misroute_fires_only_on_the_intra_path() {
        struct BadMux;
        impl LaneFault for BadMux {
            fn corrupt(&self, _sm: usize, _lane: usize, _c: u64, value: u32) -> u32 {
                value
            }
        }
        impl FaultOracle for BadMux {
            fn mux_misroute(&self, _sm: usize, verifier: usize) -> bool {
                verifier == 0
            }
        }
        let mut log = ErrorLog::default();
        assert!(compare_staged(
            &BadMux,
            &mut log,
            CompareStage::Intra,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
        assert!(!compare_staged(
            &BadMux,
            &mut log,
            CompareStage::Inter,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
    }

    #[test]
    fn default_checker_methods_are_healthy() {
        assert!(NoFault.verdict(0, 1, true));
        assert!(!NoFault.verdict(0, 1, false));
        assert_eq!(NoFault.stored_value(0, 1, 9), 9);
        assert!(!NoFault.mux_misroute(0, 5));
        assert_eq!(NoFault.entry_mask(0, 0xF0), 0xF0);
    }

    #[test]
    fn log_caps_but_counts() {
        let mut log = ErrorLog::default();
        for i in 0..5000u64 {
            log.record(DetectedError {
                sm: 0,
                cycle: i,
                warp_uid: 0,
                original_lane: 0,
                verifier_lane: 1,
            });
        }
        assert_eq!(log.total(), 5000);
        assert_eq!(log.events().len(), 4096);
    }
}
