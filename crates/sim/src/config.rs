//! GPU configuration (paper Table 3 defaults).

/// Warp size: 32 threads execute in lock step sharing one PC.
///
/// Fixed, as in the paper; active masks are `u32` bitmasks.
pub const WARP_SIZE: usize = 32;

/// Warp scheduling policy of an SM's issue stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Keep issuing from the same warp until it cannot issue, then move
    /// to the next ready warp (GTO-style; default — matches the short
    /// type-switch distances of paper Fig. 8a).
    #[default]
    GreedyThenOldest,
    /// Rotate to the next warp after every issue. Warps march in near
    /// lock step, which aligns their instruction types and produces much
    /// longer same-type runs at the SM level.
    LooseRoundRobin,
}

/// Configuration of the simulated GPU chip.
///
/// The default values reproduce the paper's Table 3 (a Fermi-style chip of
/// 30 SMs, 32 SIMT lanes per SM, 1024 threads per SM) and the pipeline
/// latencies of paper Fig. 7 (FETCH 1, DEC/SCHED 1, RF 3, EXE ≥ 3).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (paper: 30).
    pub num_sms: usize,
    /// Maximum resident warps per SM (paper: 1024 threads / 32 = 32 warps).
    pub max_warps_per_sm: usize,
    /// Maximum resident blocks per SM (Fermi: 8).
    pub max_blocks_per_sm: usize,
    /// Register-fetch latency in cycles (paper Fig. 7: 3).
    pub rf_latency: u64,
    /// SP-unit execution latency (cycles from EXE start to writeback).
    ///
    /// Together with [`GpuConfig::rf_latency`], the default of 5 gives
    /// dependent instructions a minimum issue-to-issue distance of 8
    /// cycles, matching the RAW floor of paper Fig. 8b.
    pub sp_latency: u64,
    /// SFU-unit execution latency.
    pub sfu_latency: u64,
    /// Shared-memory access latency.
    pub shared_latency: u64,
    /// Global-memory access latency.
    pub global_latency: u64,
    /// Device-global memory size in 32-bit words.
    pub global_mem_words: usize,
    /// Core clock period in nanoseconds (paper §5.4: 1.25 ns → 800 MHz).
    pub clock_ns: f64,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Model Fermi's dual warp schedulers (paper §2.2): two issues per
    /// cycle from distinct warps, each scheduler owning its own SPs while
    /// sharing the LD/ST units and SFUs — so at most one LD/ST and one
    /// SFU instruction per cycle, but two SP instructions are fine.
    ///
    /// The Warped-DMR engine models the paper's single-dispatcher
    /// baseline (Table 3) and should not be attached to dual-issue runs;
    /// statistics collectors work under either.
    pub dual_issue: bool,
    /// Hard cycle budget for one launch; `0` means unlimited. When the
    /// global cycle counter reaches the budget the launch aborts with
    /// [`SimError::Hang`](crate::SimError::Hang). Fault campaigns set this
    /// from the golden run so a fault-induced livelock (e.g. a corrupted
    /// branch predicate) is classified instead of running forever.
    pub max_cycles: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 30,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 8,
            rf_latency: 3,
            sp_latency: 5,
            sfu_latency: 16,
            shared_latency: 24,
            global_latency: 200,
            global_mem_words: 64 << 20, // 256 MiB
            clock_ns: 1.25,
            scheduler: SchedulerPolicy::default(),
            dual_issue: false,
            max_cycles: 0,
        }
    }
}

impl GpuConfig {
    /// The paper's Table 3 configuration (alias of `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A small configuration for fast tests and doctests: 2 SMs, 16 MiB of
    /// global memory, same latencies as [`GpuConfig::paper`].
    pub fn small() -> Self {
        GpuConfig {
            num_sms: 2,
            global_mem_words: 4 << 20,
            ..Self::default()
        }
    }

    /// A copy with a different SM count.
    #[must_use]
    pub fn with_sms(mut self, num_sms: usize) -> Self {
        self.num_sms = num_sms;
        self
    }

    /// A copy with a different warp scheduling policy.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// A copy with Fermi-style dual warp schedulers enabled.
    #[must_use]
    pub fn with_dual_issue(mut self) -> Self {
        self.dual_issue = true;
        self
    }

    /// A copy with a hard per-launch cycle budget (`0` = unlimited).
    #[must_use]
    pub fn with_cycle_budget(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Issue-to-writeback latency for an instruction executing on a unit
    /// with EXE latency `exe`.
    pub fn writeback_latency(&self, exe: u64) -> u64 {
        self.rf_latency + exe
    }

    /// Maximum resident threads per SM.
    pub fn max_threads_per_sm(&self) -> usize {
        self.max_warps_per_sm * WARP_SIZE
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero in a way that would deadlock the
    /// simulator.
    pub fn assert_valid(&self) {
        assert!(self.num_sms > 0, "need at least one SM");
        assert!(self.max_warps_per_sm > 0, "need at least one warp slot");
        assert!(self.max_blocks_per_sm > 0, "need at least one block slot");
        assert!(self.global_mem_words > 0, "need some global memory");
        assert!(self.clock_ns > 0.0, "clock period must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let c = GpuConfig::paper();
        assert_eq!(c.num_sms, 30);
        assert_eq!(c.max_warps_per_sm, 32);
        assert_eq!(c.max_threads_per_sm(), 1024);
        assert_eq!(c.clock_ns, 1.25);
        c.assert_valid();
    }

    #[test]
    fn raw_floor_is_eight_cycles() {
        let c = GpuConfig::default();
        assert_eq!(c.writeback_latency(c.sp_latency), 8);
    }

    #[test]
    fn builder_style_copies() {
        let c = GpuConfig::paper()
            .with_sms(4)
            .with_scheduler(SchedulerPolicy::LooseRoundRobin);
        assert_eq!(c.num_sms, 4);
        assert_eq!(c.scheduler, SchedulerPolicy::LooseRoundRobin);
        c.assert_valid();
    }

    #[test]
    fn budgets_default_unlimited() {
        let c = GpuConfig::default();
        assert_eq!(c.max_cycles, 0);
        let b = GpuConfig::small().with_cycle_budget(1_000);
        assert_eq!(b.max_cycles, 1_000);
        b.assert_valid();
    }

    #[test]
    fn small_config_is_valid() {
        let c = GpuConfig::small();
        assert_eq!(c.num_sms, 2);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn zero_sms_invalid() {
        GpuConfig {
            num_sms: 0,
            ..GpuConfig::default()
        }
        .assert_valid();
    }
}
