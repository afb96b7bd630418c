//! Dual modular temporal redundancy (paper §5.3): every instruction is
//! verified on its own execution unit in the following cycle — a
//! simplified SRT with one cycle of slack (Reinhardt & Mukherjee).
//!
//! Unlike Warped-DMR, DMTR keeps core affinity: the copy re-executes on
//! the *same* lanes, so permanent (stuck-at) faults produce identical
//! wrong values twice and hide. The fault campaign demonstrates this.

use warped_core::comparator::{compare_and_log, ErrorLog};
use warped_sim::{IssueInfo, IssueObserver, LaneFault, WARP_SIZE};

/// Per-instruction verification record awaiting its next-cycle slot.
#[derive(Debug, Clone)]
struct Pending {
    warp_uid: u64,
    cycle: u64,
    mask: u32,
    results: [u32; WARP_SIZE],
}

/// DMTR statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmtrStats {
    /// Verifications that displaced an issue slot (1 stall each).
    pub verified_stall: u64,
    /// Verifications absorbed by idle cycles.
    pub verified_free: u64,
    /// Thread-instructions verified.
    pub covered_thread_instrs: u64,
    /// Thread-instructions that produced verifiable results.
    pub total_thread_instrs: u64,
}

impl DmtrStats {
    /// Verified fraction in percent (always ~100 for DMTR).
    pub fn coverage_pct(&self) -> f64 {
        if self.total_thread_instrs == 0 {
            0.0
        } else {
            100.0 * self.covered_thread_instrs as f64 / self.total_thread_instrs as f64
        }
    }
}

/// The DMTR observer.
pub struct Dmtr {
    pending: Vec<Option<Pending>>,
    /// Behaviour counters.
    pub stats: DmtrStats,
    errors: ErrorLog,
    oracle: Option<Box<dyn LaneFault>>,
}

impl std::fmt::Debug for Dmtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dmtr")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Default for Dmtr {
    fn default() -> Self {
        Self::new()
    }
}

impl Dmtr {
    /// Create a DMTR observer.
    pub fn new() -> Self {
        Dmtr {
            pending: Vec::new(),
            stats: DmtrStats::default(),
            errors: ErrorLog::default(),
            oracle: None,
        }
    }

    /// DMTR whose comparator sees lane results through `oracle`, for
    /// detection experiments. DMTR re-executes on the original core, with
    /// none of Warped-DMR's forwarding or buffering hardware, so only the
    /// lane hook applies.
    pub fn with_oracle(oracle: Box<dyn LaneFault>) -> Self {
        Dmtr {
            oracle: Some(oracle),
            ..Self::new()
        }
    }

    /// Detected-error log.
    pub fn errors(&self) -> &ErrorLog {
        &self.errors
    }

    /// SMs holding an instruction that still awaits its next-cycle
    /// verification.
    pub fn pending(&self) -> usize {
        self.pending.iter().filter(|p| p.is_some()).count()
    }

    fn slot(&mut self, sm: usize) -> &mut Option<Pending> {
        if self.pending.len() <= sm {
            self.pending.resize_with(sm + 1, || None);
        }
        &mut self.pending[sm]
    }

    fn verify(&mut self, sm: usize, p: Pending, verify_cycle: u64) {
        self.stats.covered_thread_instrs += u64::from(p.mask.count_ones());
        if let Some(oracle) = self.oracle.as_deref() {
            for lane in 0..WARP_SIZE {
                if p.mask & (1 << lane) == 0 {
                    continue;
                }
                // Core affinity: the copy runs on the SAME lane.
                compare_and_log(
                    oracle,
                    &mut self.errors,
                    sm,
                    p.warp_uid,
                    p.results[lane],
                    lane,
                    p.cycle,
                    lane,
                    verify_cycle,
                );
            }
        }
    }
}

impl IssueObserver for Dmtr {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        let mut stalls = 0;
        if let Some(p) = self.slot(info.sm_id).take() {
            // The verification occupies this cycle's unit slot; the new
            // instruction is displaced by one cycle.
            stalls = 1;
            self.stats.verified_stall += 1;
            self.verify(info.sm_id, p, info.cycle);
        }
        if info.has_result {
            self.stats.total_thread_instrs += u64::from(info.active_count());
            *self.slot(info.sm_id) = Some(Pending {
                warp_uid: info.warp_uid,
                cycle: info.cycle,
                mask: info.active_mask,
                results: *info.results,
            });
        }
        stalls
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        if let Some(p) = self.slot(sm_id).take() {
            self.stats.verified_free += 1;
            self.verify(sm_id, p, cycle);
        }
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        if let Some(p) = self.slot(sm_id).take() {
            self.stats.verified_free += 1;
            self.verify(sm_id, p, cycle);
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_kernels::{Benchmark, WorkloadSize};
    use warped_sim::{GpuConfig, NullObserver};

    #[test]
    fn dmtr_verifies_everything() {
        let cfg = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let mut d = Dmtr::new();
        let run = w.run_with(&cfg, &mut d).unwrap();
        w.check(&run).unwrap();
        assert!((d.stats.coverage_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dmtr_costs_far_more_than_warped_dmr() {
        let cfg = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let base = w.run_with(&cfg, &mut NullObserver).unwrap().stats.cycles;
        let mut d = Dmtr::new();
        let dmtr_cycles = w.run_with(&cfg, &mut d).unwrap().stats.cycles;
        let mut wd = warped_core::WarpedDmr::new(warped_core::DmrConfig::default(), &cfg);
        let warped_cycles = w.run_with(&cfg, &mut wd).unwrap().stats.cycles;
        assert!(dmtr_cycles > base);
        assert!(
            dmtr_cycles > warped_cycles,
            "DMTR {dmtr_cycles} should cost more than Warped-DMR {warped_cycles}"
        );
    }

    #[test]
    fn dmtr_hides_stuck_at_faults() {
        struct Stuck;
        impl warped_sim::LaneFault for Stuck {
            fn corrupt(&self, _sm: usize, lane: usize, _c: u64, v: u32) -> u32 {
                if lane == 2 {
                    v ^ 0xffff
                } else {
                    v
                }
            }
        }
        let cfg = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let mut d = Dmtr::with_oracle(Box::new(Stuck));
        w.run_with(&cfg, &mut d).unwrap();
        assert_eq!(
            d.errors().total(),
            0,
            "same-core re-execution cannot see a permanent fault"
        );
    }

    #[test]
    fn dmtr_detects_transients() {
        // A transient at one specific cycle corrupts only the original
        // execution; the next-cycle copy is clean.
        struct Transient {
            cycle: u64,
        }
        impl warped_sim::LaneFault for Transient {
            fn corrupt(&self, _sm: usize, lane: usize, c: u64, v: u32) -> u32 {
                if lane == 0 && c == self.cycle {
                    v ^ 1
                } else {
                    v
                }
            }
        }
        let cfg = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        // Find a cycle where lane 0 executes: probe a healthy run first.
        struct FirstIssue(Option<u64>);
        impl IssueObserver for FirstIssue {
            fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
                if self.0.is_none() && info.has_result && info.active_mask & 1 != 0 {
                    self.0 = Some(info.cycle);
                }
                0
            }
        }
        let mut probe = FirstIssue(None);
        w.run_with(&cfg, &mut probe).unwrap();
        let cycle = probe.0.expect("lane 0 never executed");

        let mut d = Dmtr::with_oracle(Box::new(Transient { cycle }));
        w.run_with(&cfg, &mut d).unwrap();
        assert!(d.errors().total() > 0, "transient must be detected");
    }
}
