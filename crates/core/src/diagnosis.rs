//! Fault localization from detection events (paper §3.4).
//!
//! Because Warped-DMR verifies at the granularity of a single SP, its
//! detections carry the two lanes involved in every mismatch. For a
//! *permanent* fault, the defective lane participates in every event
//! (as original or as verifier, depending on which side of the shuffle it
//! sat on), while healthy lanes appear only when paired with it — so a
//! simple majority vote isolates the defect. The paper's §3.4 argument is
//! exactly this: SM- or chip-level checking would have to disable a whole
//! SM, Warped-DMR can blame one SP and re-route around it.

use crate::comparator::{ErrorLog, LaneSite};
use std::collections::HashMap;

/// A localized fault hypothesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diagnosis {
    /// The implicated execution unit.
    pub site: LaneSite,
    /// Detection events the site participated in.
    pub implicated: u64,
    /// Total detection events considered.
    pub total: u64,
}

impl Diagnosis {
    /// Fraction of events implicating the site (1.0 for a clean
    /// single permanent fault).
    pub fn confidence(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.implicated as f64 / self.total as f64
        }
    }
}

/// Majority-vote localization over a detection log.
///
/// Returns `None` when the log is empty or no lane participates in a
/// majority of events (e.g. multiple simultaneous faults, or transients
/// scattered across lanes).
pub fn diagnose(log: &ErrorLog) -> Option<Diagnosis> {
    let events = log.events();
    if events.is_empty() {
        return None;
    }
    let mut counts: HashMap<LaneSite, u64> = HashMap::new();
    for e in events {
        *counts
            .entry(LaneSite {
                sm: e.sm,
                lane: e.original_lane,
            })
            .or_default() += 1;
        *counts
            .entry(LaneSite {
                sm: e.sm,
                lane: e.verifier_lane,
            })
            .or_default() += 1;
    }
    let total = events.len() as u64;
    let (site, implicated) = counts.into_iter().max_by_key(|(_, c)| *c)?;
    (implicated * 2 > total).then_some(Diagnosis {
        site,
        implicated,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::DetectedError;
    use crate::config::DmrConfig;
    use crate::engine::WarpedDmr;
    use crate::FaultOracle;
    use warped_kernels::{Benchmark, WorkloadSize};
    use warped_sim::GpuConfig;

    #[test]
    fn empty_log_has_no_diagnosis() {
        assert_eq!(diagnose(&ErrorLog::default()), None);
    }

    #[test]
    fn single_permanent_fault_is_localized_perfectly() {
        struct Stuck;
        impl warped_sim::LaneFault for Stuck {
            fn corrupt(&self, sm: usize, lane: usize, _c: u64, v: u32) -> u32 {
                if sm == 0 && lane == 13 {
                    v ^ 0xff00
                } else {
                    v
                }
            }
        }
        impl FaultOracle for Stuck {}
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let mut engine = WarpedDmr::with_oracle(DmrConfig::default(), &gpu, Box::new(Stuck));
        w.run_with(&gpu, &mut engine).unwrap();
        let d = diagnose(engine.errors()).expect("permanent fault must be diagnosable");
        assert_eq!(
            d.site,
            LaneSite { sm: 0, lane: 13 },
            "wrong site blamed: {d:?}"
        );
        assert!(
            d.confidence() > 0.99,
            "every event involves the faulty lane, confidence {}",
            d.confidence()
        );
    }

    #[test]
    fn scattered_detections_refuse_a_verdict() {
        // Synthetic log: every event blames a different lane pair.
        let mut log = ErrorLog::default();
        for lane in 0..16usize {
            log.record(DetectedError {
                sm: 0,
                cycle: lane as u64,
                warp_uid: 0,
                original_lane: 2 * lane % 32,
                verifier_lane: (2 * lane + 1) % 32,
            });
        }
        assert_eq!(diagnose(&log), None, "no majority lane exists");
    }

    #[test]
    fn diagnosis_distinguishes_sms() {
        let mut log = ErrorLog::default();
        for i in 0..10u64 {
            log.record(DetectedError {
                sm: 1,
                cycle: i,
                warp_uid: i,
                original_lane: 4,
                verifier_lane: (5 + i as usize) % 32,
            });
        }
        let d = diagnose(&log).unwrap();
        assert_eq!(d.site, LaneSite { sm: 1, lane: 4 });
        assert_eq!(d.implicated, 10);
    }
}
