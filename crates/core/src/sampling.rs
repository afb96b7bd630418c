//! Sampling + DMR (extension): duty-cycled Warped-DMR.
//!
//! The paper's related work (§6, Nomura et al. ISCA'11) proposes running
//! DMR only for a short window within each epoch: *permanent* faults are
//! still caught eventually — the faulty lane keeps corrupting results, so
//! the first active window that touches it fires — while most transients
//! are missed, in exchange for proportionally lower overhead. This module
//! implements that policy on top of [`WarpedDmr`] so the trade-off can be
//! measured against full Warped-DMR (`warped ablation` prints the
//! comparison).

use crate::engine::{DmrReport, WarpedDmr};
use warped_sim::{IssueInfo, IssueObserver};

/// Epoch geometry for duty-cycled DMR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// DMR is active for the first `active_cycles` of every epoch.
    pub active_cycles: u64,
}

impl SamplingConfig {
    /// A duty cycle as a fraction of a given epoch.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < duty <= 1.0` and `epoch_cycles > 0`.
    pub fn with_duty(epoch_cycles: u64, duty: f64) -> Self {
        assert!(epoch_cycles > 0, "epoch must be positive");
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        let active = ((epoch_cycles as f64 * duty).round() as u64).max(1);
        SamplingConfig {
            epoch_cycles,
            active_cycles: active.min(epoch_cycles),
        }
    }

    /// Whether DMR observes `cycle`.
    pub fn is_active(&self, cycle: u64) -> bool {
        cycle % self.epoch_cycles < self.active_cycles
    }

    /// Configured duty fraction.
    pub fn duty(&self) -> f64 {
        self.active_cycles as f64 / self.epoch_cycles as f64
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        // 10% duty over 10k-cycle epochs, as in the sampling-DMR paper's
        // "small fraction of each epoch" regime.
        SamplingConfig {
            epoch_cycles: 10_000,
            active_cycles: 1_000,
        }
    }
}

/// Coverage/overhead summary of a sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingReport {
    /// The inner engine's report (totals cover only sampled windows).
    pub windowed: DmrReport,
    /// Thread-instructions executed over the whole run.
    pub total_thread_instrs: u64,
    /// Configured duty fraction.
    pub duty: f64,
}

impl SamplingReport {
    /// Coverage over the *whole* run (sampled coverage × sampled share).
    pub fn overall_coverage_pct(&self) -> f64 {
        if self.total_thread_instrs == 0 {
            0.0
        } else {
            100.0 * self.windowed.covered_thread_instrs() as f64 / self.total_thread_instrs as f64
        }
    }
}

/// Duty-cycled Warped-DMR: forwards issue slots to an inner [`WarpedDmr`]
/// only during the active window of each epoch.
pub struct SamplingDmr {
    inner: WarpedDmr,
    config: SamplingConfig,
    total_thread_instrs: u64,
}

impl std::fmt::Debug for SamplingDmr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplingDmr")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SamplingDmr {
    /// Wrap an engine with an epoch schedule.
    pub fn new(inner: WarpedDmr, config: SamplingConfig) -> Self {
        SamplingDmr {
            inner,
            config,
            total_thread_instrs: 0,
        }
    }

    /// The inner engine (e.g. for its error log).
    pub fn engine(&self) -> &WarpedDmr {
        &self.inner
    }

    /// Summary over the whole run.
    pub fn report(&self) -> SamplingReport {
        SamplingReport {
            windowed: self.inner.report(),
            total_thread_instrs: self.total_thread_instrs,
            duty: self.config.duty(),
        }
    }
}

impl IssueObserver for SamplingDmr {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        if info.has_result {
            self.total_thread_instrs += u64::from(info.active_count());
        }
        if self.config.is_active(info.cycle) {
            self.inner.on_issue(info)
        } else {
            0
        }
    }

    fn on_idle(&mut self, sm_id: usize, cycle: u64) {
        if self.config.is_active(cycle) {
            self.inner.on_idle(sm_id, cycle);
        }
    }

    fn on_sm_done(&mut self, sm_id: usize, cycle: u64) -> u64 {
        self.inner.on_sm_done(sm_id, cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::FaultOracle;
    use crate::config::DmrConfig;
    use warped_kernels::{Benchmark, WorkloadSize};
    use warped_sim::GpuConfig;

    #[test]
    fn duty_construction_and_schedule() {
        let c = SamplingConfig::with_duty(1000, 0.25);
        assert_eq!(c.active_cycles, 250);
        assert!(c.is_active(0));
        assert!(c.is_active(249));
        assert!(!c.is_active(250));
        assert!(c.is_active(1000));
        assert!((c.duty() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn zero_duty_rejected() {
        SamplingConfig::with_duty(100, 0.0);
    }

    #[test]
    fn sampling_covers_roughly_the_duty_fraction() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let inner = WarpedDmr::new(DmrConfig::default(), &gpu);
        let mut s = SamplingDmr::new(inner, SamplingConfig::with_duty(200, 0.5));
        let run = w.run_with(&gpu, &mut s).unwrap();
        w.check(&run).unwrap();
        let r = s.report();
        let cov = r.overall_coverage_pct();
        assert!(
            (25.0..=75.0).contains(&cov),
            "50% duty should cover roughly half, got {cov:.1}%"
        );
    }

    #[test]
    fn sampling_costs_less_than_full_dmr() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
        let mut full = WarpedDmr::new(DmrConfig::default().with_replayq(0), &gpu);
        let full_cycles = w.run_with(&gpu, &mut full).unwrap().stats.cycles;
        let inner = WarpedDmr::new(DmrConfig::default().with_replayq(0), &gpu);
        let mut s = SamplingDmr::new(inner, SamplingConfig::with_duty(500, 0.1));
        let sampled_cycles = w.run_with(&gpu, &mut s).unwrap().stats.cycles;
        assert!(
            sampled_cycles < full_cycles,
            "10% duty ({sampled_cycles}) must beat full DMR ({full_cycles})"
        );
    }

    #[test]
    fn permanent_fault_detected_despite_low_duty() {
        struct Stuck;
        impl warped_sim::LaneFault for Stuck {
            fn corrupt(&self, _sm: usize, lane: usize, _c: u64, v: u32) -> u32 {
                if lane == 3 {
                    v ^ 0xffff_0000
                } else {
                    v
                }
            }
        }
        impl FaultOracle for Stuck {}
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let inner = WarpedDmr::with_oracle(DmrConfig::default(), &gpu, Box::new(Stuck));
        let mut s = SamplingDmr::new(inner, SamplingConfig::with_duty(200, 0.2));
        w.run_with(&gpu, &mut s).unwrap();
        assert!(
            s.engine().errors().any(),
            "a permanent fault must be caught by some active window"
        );
    }
}
